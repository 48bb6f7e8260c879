"""Second- and first-moment statistics of the lattice discrepancy P_k.

Six statistics, all deterministic and bit-reproducible for a given table:

  SmoothSecond         sum_{n>=1} P_k(n)^2 e^{-n/X}
  SharpSecond          sum_{1<=n<=X} P_k(n)^2
  LaplaceSecond        int_0^inf P_k(t)^2 e^{-t/X} dt
  SharpIntegralSecond  int_0^X P_k(t)^2 dt
  SmoothWeightedFirst  sum_{n>=1} P_k(n) n^{k/2-1} e^{-n/X}
  SharpWeightedFirst   sum_{1<=n<=X} P_3(n) sqrt(n)      (dimension 3 only)

Exponentially cut statistics are truncated at

  n_cut = max(ceil(X (k ln(X+2) + 46)), 100),

where the omitted tail, bounded through P_k(n)^2 <= 4^{k+1} n^k, stays below
1e-15 of the main term.  That tail bound is certified: past the floor of 100,
|P_k(n)| <= 2^{k+1} n^{k/2} at k = 2..8 and |P_1| <= 1, and the integrands
fall past n = kX, below n_cut.  Sums accumulate in ascending order with
pairwise block-compensated summation (block 1024).

The Laplace transform integrates each unit interval with an 8-point
Gauss-Legendre rule; its reported bound adds a quadrature error estimated by
halving the first hundred intervals and a 1% sample of the rest.  The sharp
integral evaluates the per-interval antiderivative in the centered form

  int_n^{n+1} (S - V t^{k/2})^2 dt
      = P_k(n)^2 - 2 P_k(n) V I_1(n) + V^2 I_2(n),
  I_m(n) = int_0^1 (t^{k/2}|_{t=n+u} - n^{k/2})^m du,

with the increment n^{k/2} expm1((k/2) log1p(u/n)) evaluated by the same
Gauss-Legendre rule (exact for even k; ~1e-12 relative for odd k; the bound
1e-13 sum |cells| is estimated).  Raw endpoint differences of the antiderivative
lose ~13 digits to cancellation by n ~ 1e6, which this form avoids.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .discrepancy import DiscrepancySeries, half_power
from .summation import block_compensated_sum

__all__ = [
    "Statistic",
    "KERNELS",
    "MomentSample",
    "exp_cutoff",
    "smooth_second_moment",
    "sharp_second_moment",
    "laplace_second_moment",
    "sharp_integral_second_moment",
    "smooth_weighted_first_moment",
    "sharp_weighted_first_moment_p3",
]

MIN_EXP_CUTOFF = 100

# intervals per pass of the Laplace kernel: 2^14 doubles (128 KB) per
# temporary measured faster than 2^12 and 2^16
CHUNK = 2**14

_GL_NODES, _GL_WEIGHTS = leggauss(8)
_GL_X01 = (_GL_NODES + 1.0) / 2.0
_GL_W01 = _GL_WEIGHTS / 2.0


class Statistic(enum.Enum):
    """The six statistics by CSV name.  `exp_cut` is true for the statistics
    truncated at exp_cutoff(k, X); the others are taken at an integer X."""

    SMOOTH_SECOND = ("SmoothSecond", True)
    SHARP_SECOND = ("SharpSecond", False)
    LAPLACE_SECOND = ("LaplaceSecond", True)
    SHARP_INTEGRAL_SECOND = ("SharpIntegralSecond", False)
    SMOOTH_WEIGHTED_FIRST = ("SmoothWeightedFirst", True)
    SHARP_WEIGHTED_FIRST = ("SharpWeightedFirst", False)

    def __new__(cls, name: str, exp_cut: bool):
        member = object.__new__(cls)
        member._value_ = name
        member.exp_cut = exp_cut
        return member

    def scale(self, X: float) -> float | int:
        """The X this statistic is taken at: X itself if exp-cut, else the
        nearest integer."""
        return float(X) if self.exp_cut else int(round(X))

    def n_needed(self, k: int, X: float) -> int:
        """Table size the statistic needs at scale(X)."""
        return exp_cutoff(k, X) if self.exp_cut else self.scale(X)


@dataclass(frozen=True)
class MomentSample:
    """One statistic value at one scale X with its truncation bound, certified or estimated."""

    k: int
    x_scale: float
    statistic: Statistic
    value: float
    truncation_bound: float


def exp_cutoff(k: int, X: float) -> int:
    """Truncation point for the exponentially smoothed statistics at scale X."""
    if X <= 0:
        raise ValueError("X must be positive")
    n_cut = X * (k * math.log(X + 2.0) + 46.0)
    if not math.isfinite(n_cut):
        raise ValueError(f"X = {X} too large: its cutoff overflows a float")
    return max(int(math.ceil(n_cut)), MIN_EXP_CUTOFF)


def _require_cutoff(series: DiscrepancySeries, X: float) -> int:
    n_cut = exp_cutoff(series.k, X)
    if n_cut > series.n_max:
        raise ValueError(
            f"series n_max = {series.n_max} too small for X = {X:.17g}; need n_cut = {n_cut:.17g}"
        )
    return n_cut


def _exp_poly_tail(m: int, X: float, T: float) -> float:
    """int_T^inf t^m e^(-t/X) dt = m! X^(m+1) e^(-T/X) sum_{j<=m} (T/X)^j / j!"""
    z = T / X
    acc = 0.0
    term = 1.0
    for j in range(m + 1):
        if j:
            term *= z / j
        acc += term
    return math.factorial(m) * X ** (m + 1) * math.exp(-z) * acc


def _check_int_x(series: DiscrepancySeries, X) -> int:
    if X != int(X) or X < 0:
        raise ValueError(f"X = {X:.17g} must be a nonnegative integer")
    X = int(X)
    if X > series.n_max:
        raise ValueError(f"X = {X:.17g} exceeds n_max = {series.n_max}")
    return X


def smooth_second_moment(series: DiscrepancySeries, X: float) -> MomentSample:
    """sum_{n=1}^{n_cut} P_k(n)^2 e^{-n/X} with a certified tail bound."""
    X = float(X)
    n_cut = _require_cutoff(series, X)
    p = series.p_values()
    n = np.arange(1, n_cut + 1, dtype=np.float64)
    terms = p[1 : n_cut + 1] ** 2 * np.exp(-n / X)
    value = block_compensated_sum(terms)
    tail = 4.0 ** (series.k + 1) * _exp_poly_tail(series.k, X, float(n_cut))
    return MomentSample(series.k, X, Statistic.SMOOTH_SECOND, value, tail)


def sharp_second_moment(series: DiscrepancySeries, X) -> MomentSample:
    """sum_{1 <= n <= X} P_k(n)^2; exact up to float rounding (bound 0)."""
    X = _check_int_x(series, X)
    p = series.p_values()
    value = block_compensated_sum(p[1 : X + 1] ** 2)
    return MomentSample(series.k, float(X), Statistic.SHARP_SECOND, value, 0.0)


def _laplace_cells(
    step_values: np.ndarray, v_k: float, k: int, X: float, idx: np.ndarray, subdivide: int
) -> np.ndarray:
    """Per-interval int_n^{n+1} (S_n - v_k t^{k/2})^2 e^{-t/X} dt by 8-point
    Gauss-Legendre on `subdivide` equal pieces; idx selects the intervals.
    Evaluated CHUNK intervals at a time so the temporaries stay in cache;
    every operation is elementwise, so the chunking changes no bit."""
    cells = np.zeros(idx.shape[0], dtype=np.float64)
    for lo in range(0, idx.shape[0], CHUNK):
        acc = cells[lo : lo + CHUNK]
        step = step_values[lo : lo + CHUNK]
        base = idx[lo : lo + CHUNK].astype(np.float64)
        for piece in range(subdivide):
            for xi, wi in zip(_GL_X01, _GL_W01):
                t = base + (piece + xi) / subdivide
                f = (step - v_k * half_power(t, k)) ** 2 * np.exp(-t / X)
                acc += (wi / subdivide) * f
    return cells


def laplace_second_moment(series: DiscrepancySeries, X: float, subdivide: int = 1) -> MomentSample:
    """int_0^infty P_k(t)^2 e^{-t/X} dt, truncated at n_cut unit intervals.

    The bound is the certified exponential tail plus a quadrature error
    estimated by interval halving (the first 100 intervals and a 1% sample).
    `subdivide` refines every unit interval and exists for that audit.
    """
    X = float(X)
    if subdivide < 1:
        raise ValueError("subdivide must be >= 1")
    n_cut = _require_cutoff(series, X)
    pf = series.prefix_float()
    idx = np.arange(n_cut, dtype=np.int64)
    cells = _laplace_cells(pf[:n_cut], series.v_k, series.k, X, idx, subdivide)
    value = block_compensated_sum(cells)

    tail = 4.0 ** (series.k + 1) * _exp_poly_tail(series.k, X, float(n_cut))
    head = min(100, n_cut)
    sample = np.concatenate([np.arange(head), np.arange(head, n_cut, 100)])
    fine = _laplace_cells(pf[sample], series.v_k, series.k, X, sample, 2 * subdivide)
    diff = np.abs(fine - cells[sample])
    head_part = float(np.sum(diff[:head]))
    tail_part = float(np.sum(diff[head:]))
    # t^{k/2} is singular at 0, so halving cuts interval 0's error by 2^{-(k/2+1)}:
    # its coarse error is 1/(1 - 2^{-(k/2+1)}) times the difference, <= 1.21 if k >= 3
    head_factor = 2.0 if series.k == 1 else 1.25
    quad_bound = head_factor * head_part + 100.0 * tail_part * 8.0
    rounding = 1e-14 * float(np.sum(np.abs(cells)))
    return MomentSample(
        series.k, X, Statistic.LAPLACE_SECOND, value, tail + quad_bound + rounding
    )


def sharp_integral_second_moment(series: DiscrepancySeries, X) -> MomentSample:
    """int_0^X P_k(t)^2 dt by per-interval antiderivatives (centered form)."""
    X = _check_int_x(series, X)
    k, vk = series.k, series.v_k
    if X == 0:
        return MomentSample(k, 0.0, Statistic.SHARP_INTEGRAL_SECOND, 0.0, 0.0)
    # cell n = 0 exactly: S = 1, int_0^1 (1 - vk t^{k/2})^2 dt
    cell0 = 1.0 - 2.0 * vk / (k / 2.0 + 1.0) + vk * vk / (k + 1.0)
    n = np.arange(1, X, dtype=np.float64)
    pvals = series.p_values()[1:X]
    nk2 = half_power(n, k)
    i1 = np.zeros(X - 1, dtype=np.float64)
    i2 = np.zeros(X - 1, dtype=np.float64)
    for xi, wi in zip(_GL_X01, _GL_W01):
        delta = nk2 * np.expm1((k / 2.0) * np.log1p(xi / n))
        i1 += wi * delta
        i2 += wi * delta * delta
    cells = pvals * pvals - 2.0 * vk * pvals * i1 + vk * vk * i2
    value = cell0 + block_compensated_sum(cells)
    bound = 1e-13 * (abs(cell0) + float(np.sum(np.abs(cells))))
    return MomentSample(k, float(X), Statistic.SHARP_INTEGRAL_SECOND, value, bound)


def smooth_weighted_first_moment(series: DiscrepancySeries, X: float) -> MomentSample:
    """sum_{n=1}^{n_cut} P_k(n) n^{k/2-1} e^{-n/X} with a certified tail."""
    X = float(X)
    n_cut = _require_cutoff(series, X)
    p = series.p_values()
    n = np.arange(1, n_cut + 1, dtype=np.float64)
    terms = p[1 : n_cut + 1] * _weight_power(n, series.k - 2) * np.exp(-n / X)
    value = block_compensated_sum(terms)
    # |P_k(n)| n^{k/2-1} <= 2^{k+1} n^{k-1} on the omitted range
    tail = 2.0 ** (series.k + 1) * _exp_poly_tail(series.k - 1, X, float(n_cut))
    return MomentSample(series.k, X, Statistic.SMOOTH_WEIGHTED_FIRST, value, tail)


def sharp_weighted_first_moment_p3(series: DiscrepancySeries, X) -> MomentSample:
    """sum_{1 <= n <= X} P_3(n) sqrt(n); the series must have k = 3."""
    if series.k != 3:
        raise ValueError(f"sharp_weighted_first_moment_p3 needs k = 3, got k = {series.k}")
    X = _check_int_x(series, X)
    p = series.p_values()
    n = np.arange(1, X + 1, dtype=np.float64)
    value = block_compensated_sum(p[1 : X + 1] * np.sqrt(n))
    return MomentSample(3, float(X), Statistic.SHARP_WEIGHTED_FIRST, value, 0.0)


def _weight_power(n: np.ndarray, j: int) -> np.ndarray:
    """n^(j/2) for integer j: integer part times sqrt for odd j >= 0, and
    the reciprocal of n^(-j/2) for j < 0 (the k = 1 weight n^(-1/2))."""
    if j < 0:
        return 1.0 / _weight_power(n, -j)
    out = np.ones_like(n)
    for _ in range(j // 2):
        out *= n
    if j % 2:
        out *= np.sqrt(n)
    return out


# statistic -> kernel(series, X); plain functions, so each stays reachable
# (and replaceable) as a module-level value
KERNELS = {
    Statistic.SMOOTH_SECOND: smooth_second_moment,
    Statistic.SHARP_SECOND: sharp_second_moment,
    Statistic.LAPLACE_SECOND: laplace_second_moment,
    Statistic.SHARP_INTEGRAL_SECOND: sharp_integral_second_moment,
    Statistic.SMOOTH_WEIGHTED_FIRST: smooth_weighted_first_moment,
    Statistic.SHARP_WEIGHTED_FIRST: sharp_weighted_first_moment_p3,
}
