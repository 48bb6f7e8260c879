"""Prefix counts S_k(n), the discrepancy P_k, and the diagonal partial mean.

S_k(n) is the number of integer lattice points in the closed k-ball of
radius sqrt(n); P_k(n) = S_k(n) - V_k n^{k/2} is the discrepancy against the
ball volume, and P_k(t) for real t uses S_k(floor(t)).

The half-integer power n^{k/2} is computed as exp((k/2) ln n) for odd k and
as an explicit product for even k (n = 0 maps to 0), so the volume term is
identical across platforms that agree on exp/log.  Prefix values above 2^53
are converted to float through a 32/32 bit split so that the subtraction
keeps the low-order bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rk import RkTable
from .specfun import ball_volume
from .summation import block_compensated_sum

__all__ = [
    "DiscrepancySeries",
    "PrefixOverflowError",
    "prefix_counts",
    "p_at_integer",
    "p_at_real",
    "diagonal_partial_mean",
    "half_power",
]


class PrefixOverflowError(OverflowError):
    """A running lattice count does not fit in an unsigned 64-bit integer."""


def half_power(t, k: int):
    """t^(k/2) elementwise for t >= 0: explicit products for even k,
    exp((k/2) ln t) for odd k, with t = 0 mapped to 0."""
    t = np.asarray(t, dtype=np.float64)
    if k % 2 == 0:
        half = k // 2
        out = t.copy()
        for _ in range(half - 1):
            out *= t
        return out
    safe = np.where(t > 0.0, t, 1.0)
    out = np.exp((k / 2.0) * np.log(safe))
    return np.where(t > 0.0, out, 0.0)


def _minus_volume(counts, vol):
    """(hi - vol) + lo for u64 counts = hi + lo split 32/32: exact hi and lo
    keep the low-order bits of counts above 2^53 through the subtraction."""
    hi = (counts >> np.uint64(32)).astype(np.float64) * 4294967296.0
    lo = (counts & np.uint64(0xFFFFFFFF)).astype(np.float64)
    return (hi - vol) + lo


@dataclass(eq=False)
class DiscrepancySeries:
    """Running lattice counts prefix[n] = S_k(n) with the cached ball volume.

    Immutable after construction (the prefix array is read-only); the
    float-conversion caches are filled lazily and do not affect results.
    """

    k: int
    n_max: int
    prefix: np.ndarray
    v_k: float
    _prefix_float: np.ndarray | None = field(default=None, repr=False)
    _p_cache: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.prefix.dtype != np.uint64 or self.prefix.shape != (self.n_max + 1,):
            raise ValueError("DiscrepancySeries: prefix must be uint64 of length n_max + 1")
        self.prefix.flags.writeable = False

    def prefix_float(self) -> np.ndarray:
        """Split-converted float64 view of the prefix counts (read-only)."""
        if self._prefix_float is None:
            pf = _minus_volume(self.prefix, 0.0)
            pf.flags.writeable = False
            self._prefix_float = pf
        return self._prefix_float

    def p_values(self) -> np.ndarray:
        """P_k(n) for all n <= n_max as float64 (read-only, cached)."""
        if self._p_cache is None:
            vol = self.v_k * half_power(np.arange(self.n_max + 1, dtype=np.float64), self.k)
            p = _minus_volume(self.prefix, vol)
            p.flags.writeable = False
            self._p_cache = p
        return self._p_cache


def prefix_counts(table: RkTable) -> DiscrepancySeries:
    """Exact running sums of a representation table; aborts on u64 overflow."""
    prefix = np.cumsum(table.counts, dtype=np.uint64)
    # counts are nonnegative, so any wraparound shows up as a decrease
    if prefix.shape[0] > 1 and bool(np.any(prefix[1:] < prefix[:-1])):
        raise PrefixOverflowError(f"S_{table.k} exceeds 64 bits before n = {table.n_max}")
    return DiscrepancySeries(k=table.k, n_max=table.n_max, prefix=prefix, v_k=ball_volume(table.k))


def _check_n(series: DiscrepancySeries, n) -> None:
    if n < 0 or n > series.n_max:
        raise ValueError(f"n = {n} outside [0, {series.n_max}]")


def p_at_integer(series: DiscrepancySeries, n: int) -> float:
    """P_k(n) = S_k(n) - V_k n^{k/2} as a double."""
    _check_n(series, n)
    vol = series.v_k * float(half_power(np.float64(n), series.k))
    return float(_minus_volume(series.prefix[n], vol))


def p_at_real(series: DiscrepancySeries, t: float) -> float:
    """P_k(t) = S_k(floor(t)) - V_k t^{k/2} for real t >= 0."""
    t = float(t)
    if t < 0 or t > series.n_max:
        raise ValueError(f"t = {t} outside [0, {series.n_max}]")
    vol = series.v_k * float(half_power(np.float64(t), series.k))
    return float(_minus_volume(series.prefix[int(math.floor(t))], vol))


def diagonal_partial_mean(series: DiscrepancySeries, X: int) -> float:
    """(k-1) X^{1-k} sum_{m <= X} r_k(m)^2.

    Converges (dimension k >= 3) to pi^k zeta(k-1) / (zeta^(2)(k) Gamma(k/2)^2)
    as X grows; the m = 0 term contributes a vanishing 1.
    """
    if X < 1:
        raise ValueError("diagonal_partial_mean: X must be a positive integer")
    _check_n(series, X)
    rvals = np.empty(X + 1, dtype=np.float64)
    rvals[0] = float(series.prefix[0])
    rvals[1:] = (series.prefix[1 : X + 1] - series.prefix[:X]).astype(np.float64)
    total = block_compensated_sum(rvals * rvals)
    return (series.k - 1) * float(X) ** (1 - series.k) * total
