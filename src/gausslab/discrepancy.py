"""Prefix counts S_k(n), the discrepancy P_k, and the diagonal partial mean.

S_k(n) is the number of integer lattice points in the closed k-ball of
radius sqrt(n); P_k(n) = S_k(n) - V_k n^{k/2} is the discrepancy against the
ball volume, and P_k(t) for real t uses S_k(floor(t)).

The half-integer power n^{k/2} is computed as exp((k/2) ln n) for odd k and
as an explicit product for even k (n = 0 maps to 0), so the volume term is
identical across platforms that agree on exp/log.  Prefix values above 2^53
are converted to float through a 32/32 bit split so that the subtraction
keeps the low-order bits.

The series keeps the counts only, as S_k mod 2^64 and the n where S_k
carries past a multiple of 2^64; each reader adds 2^64 per carry.
p_values(lo, hi) forms P_k on the range a pass asks for, CHUNK values at a
time, and as both steps are elementwise the range and the slicing change no
bit.  prefix_float(idx) converts only the counts at idx, for a pass that
needs a run or a sample of them.  diagonal_partial_mean forms r_k(m)^2 from
the counts CHUNK values at a time and keeps only the block partials of its
sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rk import RkTable
from .specfun import ball_volume
from .summation import CHUNK, _BlockSum

__all__ = [
    "DiscrepancySeries",
    "prefix_counts",
    "diagonal_partial_mean",
    "half_power",
]


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
    # log 0 = -inf and exp(-inf) = 0, so t = 0 needs no mask
    with np.errstate(divide="ignore"):
        return np.exp((k / 2.0) * np.log(t))


def _minus_volume(counts, vol):
    """(hi - vol) + lo for u64 counts = hi + lo split 32/32: exact hi and lo
    keep the low-order bits of counts above 2^53 through the subtraction."""
    hi = (counts >> np.uint64(32)).astype(np.float64) * 4294967296.0
    lo = (counts & np.uint64(0xFFFFFFFF)).astype(np.float64)
    return (hi - vol) + lo


@dataclass(frozen=True, eq=False)
class DiscrepancySeries:
    """Running lattice counts S_k(n) = prefix[n] + 2^64 * (the number of
    wraps <= n) with the ball volume V_k, from which each pass forms the
    discrepancy P_k it needs.  wraps is sorted, and empty below 2^64.

    Immutable: the fields are frozen and the arrays are read-only.
    What a statistic derives for its own pass (P_k or the float counts on its
    range, a grid's samples) belongs to that pass, not to the series.
    """

    k: int
    n_max: int
    prefix: np.ndarray
    v_k: float
    wraps: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        if self.prefix.dtype != np.uint64 or self.prefix.shape != (self.n_max + 1,):
            raise ValueError("DiscrepancySeries: prefix must be uint64 of length n_max + 1")
        self.prefix.flags.writeable = False
        self.wraps.flags.writeable = False

    def _carried(self, n) -> np.ndarray:
        """2^64 times the number of wraps <= n, elementwise, as float64."""
        return np.searchsorted(self.wraps, n, "right") * 2.0**64

    def prefix_float(self, idx=None) -> np.ndarray:
        """The counts S_k at idx (a slice or an index array; all of them if
        None) as float64, each rounded to nearest, or within 1 ulp past the
        first wrap (two roundings): a new array on each call, for the caller's
        pass alone.  The counts are gathered before they are converted, so a
        sample costs no float copy of the whole prefix."""
        counts = self.prefix if idx is None else self.prefix[idx]
        floats = counts.astype(np.float64)
        if self.wraps.size:
            n = idx if isinstance(idx, np.ndarray) else np.arange(*(idx or slice(None)).indices(self.n_max + 1))
            floats += self._carried(n)
        return floats

    def p_values(self, lo: int, hi: int) -> np.ndarray:
        """P_k(n) for lo <= n < hi as a new float64 array, filled CHUNK
        values at a time: the volume and the split counts are elementwise, so
        the slices change no bit and their temporaries stay small next to
        the output.  The carries come off the volume exactly (both are
        multiples of its ulp), so P_k is still rounded once."""
        if not 0 <= lo <= hi <= self.n_max + 1:
            raise ValueError(f"p_values: [{lo}, {hi}) outside [0, {self.n_max + 1})")
        p = np.empty(hi - lo, dtype=np.float64)
        for a in range(lo, hi, CHUNK):
            b = min(a + CHUNK, hi)
            vol = self.v_k * half_power(np.arange(a, b, dtype=np.float64), self.k)
            if self.wraps.size:
                vol -= self._carried(np.arange(a, b))
            p[a - lo : b - lo] = _minus_volume(self.prefix[a:b], vol)
        return p


def prefix_counts(table: RkTable, out: np.ndarray | None = None) -> DiscrepancySeries:
    """Exact running sums of a representation table, as S_k mod 2^64 and the
    n of its wraps.  The sums fill a new array, or out: a writable uint64
    array of n_max + 1 values, which may be the table's own counts when the
    caller alone holds them, so that S_k takes their place.  Either way the
    sums go CHUNK values at a time, so the wrap scan's temporaries stay small."""
    shape = (table.n_max + 1,)
    if out is None:
        prefix = np.empty(shape, dtype=np.uint64)
    elif out.dtype != np.uint64 or out.shape != shape or not out.flags.writeable:
        raise ValueError(f"prefix_counts: out must be a writable uint64 array of {shape[0]} values")
    else:
        prefix = out
    carry = np.uint64(0)
    wraps = [np.empty(0, dtype=np.int64)]
    for lo in range(0, table.n_max + 1, CHUNK):
        run = prefix[lo : lo + CHUNK]
        np.cumsum(table.counts[lo : lo + CHUNK], dtype=np.uint64, out=run)
        run += carry
        # counts are nonnegative and below 2^64, so S_k passes a multiple of
        # 2^64 exactly where S_k mod 2^64 decreases
        dropped = run[1:] < run[:-1]
        if run[0] < carry:
            wraps.append(np.array([lo], dtype=np.int64))
        if bool(dropped.any()):
            wraps.append(np.flatnonzero(dropped) + (lo + 1))
        carry = run[-1]
    wraps = np.concatenate(wraps)
    return DiscrepancySeries(k=table.k, n_max=table.n_max, prefix=prefix, v_k=ball_volume(table.k), wraps=wraps)


def _check_n(series: DiscrepancySeries, n) -> None:
    if n < 0 or n > series.n_max:
        raise ValueError(f"n = {n} outside [0, {series.n_max}]")


def diagonal_partial_mean(series: DiscrepancySeries, X: int) -> float:
    """(k-1) X^{1-k} sum_{m <= X} r_k(m)^2.

    Converges (dimension k >= 3) to pi^k zeta(k-1) / (zeta^(2)(k) Gamma(k/2)^2)
    as X grows; the m = 0 term contributes a vanishing 1.
    """
    if X < 1:
        raise ValueError("diagonal_partial_mean: X must be a positive integer")
    _check_n(series, X)
    total = _BlockSum(X + 1)
    for lo in range(0, X + 1, CHUNK):
        # r_k(m) = S_k(m) - S_k(m - 1), with S_k(-1) = 0, exact mod 2^64 as r_k(m) < 2^64
        before = series.prefix[lo - 1] if lo else np.uint64(0)
        rvals = np.diff(series.prefix[lo : min(lo + CHUNK, X + 1)], prepend=before).astype(np.float64)
        total.feed(lo, rvals * rvals)
    return (series.k - 1) * float(X) ** (1 - series.k) * total.total()
