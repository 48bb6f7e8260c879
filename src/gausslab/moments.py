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

Every kernel takes one X and, optionally, `grid`: a dict the caller owns for
one statistic's run, mapping each scale of the run to its sample, or to None
until filled.  A call whose X has no sample takes X and every grid scale the
series can take in one pass and fills their entries; a later call reads its
own, and a scale the series cannot take raises at its own call.  Without
`grid` a call is a grid of one.  Three passes serve the six statistics.
Each walks its range to the grid's largest scale in CHUNK pieces, forms the
X-independent values of a piece once, and keeps per X only its block partials
(summation._BlockSum) and what its bound needs: no cell array outlives its
chunk in any pass, and each X gets the bits a pass of its own would.

  exp-weighted  SmoothSecond, SmoothWeightedFirst, LaplaceSecond: g and -t
                at each node t = n + u of the cells sum_nodes w g e^{-t/X},
                g the weight P_k^2 or P_k n^{k/2-1} at one node per n, or
                (S_n - V t^{k/2})^2 at the Gauss-Legendre nodes
  prefix        SharpSecond, SharpWeightedFirst: the cells P_k^2 or P_3 sqrt(n)
  integral      SharpIntegralSecond: the centered cells

The Laplace transform integrates each unit interval with an 8-point
Gauss-Legendre rule; its reported bound adds a quadrature error estimated by
halving the first hundred intervals and a 1% sample of the rest (the audit
evaluates both rules on that sample alone), and a rounding term
1e-14 np.sum(cells).  That np.sum, and the one in the sharp integral's bound,
is rebuilt bit for bit from the chunks by _StreamedSum.

The sharp integral evaluates the per-interval antiderivative in the centered
form

  int_n^{n+1} (S - V t^{k/2})^2 dt
      = P_k(n)^2 - 2 P_k(n) V I_1(n) + V^2 I_2(n),
  I_m(n) = int_0^1 (t^{k/2}|_{t=n+u} - n^{k/2})^m du,

with the increment n^{k/2} expm1((k/2) log1p(u/n)) evaluated by the same
Gauss-Legendre rule (exact for even k; ~1e-12 relative for odd k; the bound
1e-13 sum |cells| is estimated).  Raw endpoint differences of the antiderivative
lose ~13 digits to cancellation by n ~ 1e6, which this form avoids.

Each sample's truncation_bound carries these terms and no others:

  SmoothSecond, SmoothWeightedFirst  the certified tail past n_cut
  SharpSecond, SharpWeightedFirst    0
  LaplaceSecond                      the certified tail, the estimated
                                     quadrature term and 1e-14 sum(cells)
  SharpIntegralSecond                the estimate 1e-13 sum |cells|

None covers the float rounding of the sum itself: against a 30-digit
reference from the exact S_3, SmoothSecond was off by 4.9e-8 and 5.0e-5 at
X = 100 and 1000, where its bounds read 5.7e-11 and 8.3e-10.  Nor does
LaplaceSecond's quadrature estimate cover its error at small X: the 8-point
rule on [0, 1] and its halving both miss an e^{-t/X} that dies within
t ~ 5X.  Against 64 pieces per interval at k = 3, X = 1e-2 is off by 3.10e-3
under a bound of 3.53e-3, but X = 1e-3 gives 1.18e-10 against 9.996e-4 under
a bound of 1.53e-6 (k = 4 alike; the bound first fails near X = 7e-3).
Covering it would need an adaptive rule on the interval [0, 1).
"""

from __future__ import annotations

import contextlib
import enum
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .discrepancy import DiscrepancySeries, half_power
from .summation import CHUNK, _BlockSum, _StreamedSum

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

# numpy.polynomial.legendre.leggauss(8), bit for bit, as literals: importing
# numpy.polynomial costs the CLI about 0.8 MB of memory and 8 ms
_GL_NODES = np.array(
    [
        -0.9602898564975362,
        -0.7966664774136267,
        -0.525532409916329,
        -0.18343464249564978,
        0.18343464249564978,
        0.525532409916329,
        0.7966664774136267,
        0.9602898564975362,
    ]
)
_GL_WEIGHTS = np.array(
    [
        0.10122853629037706,
        0.22238103445337443,
        0.3137066458778869,
        0.36268378337836166,
        0.36268378337836166,
        0.3137066458778869,
        0.22238103445337443,
        0.10122853629037706,
    ]
)
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
    if not X > 0:
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
    """int_T^inf t^m e^(-t/X) dt = m! X^(m+1) e^(-T/X) sum_{j<=m} (T/X)^j / j!,
    0 where e^(-T/X) underflows (tiny X, where the sum can overflow or
    X^(m+1) underflow, so the product would be nan)."""
    z = T / X
    decay = math.exp(-z)
    if decay == 0.0:
        return 0.0
    acc = 0.0
    term = 1.0
    for j in range(m + 1):
        if j:
            term *= z / j
        acc += term
    return math.factorial(m) * X ** (m + 1) * decay * acc


def _check_int_x(series: DiscrepancySeries, X) -> int:
    if X != int(X) or X < 0:
        raise ValueError(f"X = {X:.17g} must be a nonnegative integer")
    X = int(X)
    if X > series.n_max:
        raise ValueError(f"X = {X:.17g} exceeds n_max = {series.n_max}")
    return X


def _second_moment_tail(k: int, X: float, n_cut: int) -> float:
    """4^{k+1} int_{n_cut}^inf t^k e^{-t/X} dt: the certified bound on the
    omitted tail of a second moment, as P_k(t)^2 <= 4^{k+1} t^k there."""
    return 4.0 ** (k + 1) * _exp_poly_tail(k, X, float(n_cut))


Grid = dict[float, MomentSample | None]


def _grid_sample(stat: Statistic, series: DiscrepancySeries, X, grid: Grid | None, evaluate, *args) -> MomentSample:
    """The sample of `stat` at scale X through the grid memo (see the module
    docstring), shared by every kernel.  The statistic picks the scale check,
    _require_cutoff (exp-cut) or _check_int_x, which raises ValueError with
    the text a caller reports and gives the terms or intervals a scale needs;
    `evaluate(series, sizes, *args)` takes {scale: size} in one pass and
    returns {scale: (value, bound)}."""
    size = _require_cutoff if stat.exp_cut else _check_int_x
    X = float(X) if stat.exp_cut else X
    grid = {} if grid is None else grid
    if grid.get(X) is None:
        sizes = {X: size(series, X)}
        for x in map(float, grid):
            with contextlib.suppress(ValueError):
                sizes[x] = size(series, x)
        for x, (value, bound) in evaluate(series, sizes, *args).items():
            grid[x] = MomentSample(series.k, x if stat.exp_cut else float(sizes[x]), stat, value, bound)
    return grid[X]


def _exp_cells(source, g, sizes: dict[float, int], nodes) -> Iterator[tuple[int, float, np.ndarray]]:
    """Cells sum_{(u, w) in nodes} w g(s, t) e^{-t/X} at t = n + u for each
    X of `sizes` on its first sizes[X] cells; source(lo, hi) gives s and n
    for cells lo .. hi - 1 as float64 arrays.

    Yields (lo, X, cells lo .. min(lo + CHUNK, sizes[X]) - 1) for each CHUNK
    of cells and each X whose cells reach it, in X's one buffer, which its
    next chunk overwrites.  g(s, t) and -t are formed once per chunk and
    node for every X.  The first node's terms are written into the cells,
    not added to 0 (every Laplace term is >= +0, so no bit differs), and a
    weight of 1.0 skips its multiply: with one node (0, 1) the cells are the
    terms g e^{-n/X} of an exp-cut sum.  All of it is elementwise, so
    neither the chunking nor the sharing changes a bit."""
    total = max(sizes.values())
    bufs = {x: np.empty(min(CHUNK, m), dtype=np.float64) for x, m in sizes.items()}
    scratch = np.empty(min(CHUNK, total), dtype=np.float64)
    for lo in range(0, total, CHUNK):
        hi = min(lo + CHUNK, total)
        live = {x: bufs[x][: min(m, hi) - lo] for x, m in sizes.items() if m > lo}
        s, n = source(lo, hi)
        for j, (u, w) in enumerate(nodes):
            t = n + u
            gt = g(s, t)
            neg = np.negative(t, out=t)
            for x, acc in live.items():
                m = acc.shape[0]
                f = np.divide(neg[:m], x, out=scratch[:m] if j else acc)
                np.exp(f, out=f)
                f *= gt[:m]
                if w != 1.0:
                    f *= w
                if j:
                    acc += f
        for x, acc in live.items():
            yield lo, x, acc


def _exp_cut_pass(series: DiscrepancySeries, n_cuts: dict[float, int], weight, tail) -> dict[float, tuple]:
    """sum_{n=1}^{n_cut} weight(P_k(n), n) e^{-n/X} and tail(k, X, n_cut) for
    each X of n_cuts (X -> its cutoff), from one run of _exp_cells over P_k a
    chunk at a time, one node (0, 1) per n: each X keeps its block partials."""

    def p_k(lo, hi):
        return series.p_values(lo + 1, hi + 1), np.arange(lo + 1, hi + 1, dtype=np.float64)

    sums = {x: _BlockSum(n_cut) for x, n_cut in n_cuts.items()}
    for lo, x, terms in _exp_cells(p_k, weight, n_cuts, ((0.0, 1.0),)):
        sums[x].feed(lo, terms)
    return {x: (sums[x].total(), tail(series.k, x, n_cut)) for x, n_cut in n_cuts.items()}


def _prefix_pass(series: DiscrepancySeries, sizes: dict[float, int], weight) -> dict[float, tuple]:
    """Sharp sums: the cells weight(P_k(n), n) formed once per CHUNK of
    n = 1, 2, ... to the largest X; each X keeps the block partials of its
    own prefix, exact up to float rounding (bound 0)."""
    sums = {x: _BlockSum(m) for x, m in sizes.items()}
    top = max(sizes.values())
    for lo in range(0, top, CHUNK):
        hi = min(lo + CHUNK, top)
        cells = weight(series.p_values(lo + 1, hi + 1), np.arange(lo + 1, hi + 1, dtype=np.float64))
        for acc in sums.values():
            acc.feed(lo, cells)
    return {x: (acc.total(), 0.0) for x, acc in sums.items()}


def smooth_second_moment(series: DiscrepancySeries, X: float, grid: Grid | None = None) -> MomentSample:
    """sum_{n=1}^{n_cut} P_k(n)^2 e^{-n/X} with a certified tail bound."""
    return _grid_sample(
        Statistic.SMOOTH_SECOND, series, X, grid, _exp_cut_pass, lambda p, n: p**2, _second_moment_tail
    )


def sharp_second_moment(series: DiscrepancySeries, X, grid: Grid | None = None) -> MomentSample:
    """sum_{1 <= n <= X} P_k(n)^2; exact up to float rounding (bound 0)."""
    return _grid_sample(Statistic.SHARP_SECOND, series, X, grid, _prefix_pass, lambda p, n: p**2)


def _gauss_legendre(pieces: int) -> list[tuple[float, float]]:
    """Nodes (u, w) of the 8-point Gauss-Legendre rule on `pieces` equal
    pieces of [0, 1]."""
    return [((piece + xi) / pieces, wi / pieces) for piece in range(pieces) for xi, wi in zip(_GL_X01, _GL_W01)]


def _laplace_pass(series: DiscrepancySeries, n_cuts: dict[float, int]) -> dict[float, tuple]:
    """LaplaceSecond at every X of n_cuts (X -> its cutoff), from one run of
    _exp_cells over the intervals with g = (S_n - v_k t^{k/2})^2 and, for
    the audit, two over its sample: with the pass's one-piece rule and with
    each unit interval halved.  Per X the main pass keeps the block partials
    of its cells and a _StreamedSum of them for the rounding term."""
    k, v_k = series.k, series.v_k

    def g(s, t):
        return (s - v_k * half_power(t, k)) ** 2

    def counts(lo, hi):
        return series.prefix_float(slice(lo, hi)), np.arange(lo, hi, dtype=np.float64)

    values = {x: _BlockSum(n_cut) for x, n_cut in n_cuts.items()}
    sums = {x: _StreamedSum(n_cut) for x, n_cut in n_cuts.items()}
    for lo, x, cells in _exp_cells(counts, g, n_cuts, _gauss_legendre(1)):
        values[x].feed(lo, cells)
        sums[x].feed(lo, cells)
    # every cutoff is at least MIN_EXP_CUTOFF = 100, so each X's audit sample
    # (the first 100 intervals, then every 100th below its cutoff) is a
    # prefix of the largest one
    head = 100
    sample = np.concatenate([np.arange(head), np.arange(head, max(n_cuts.values()), 100)])
    sample_sizes = {x: int(np.searchsorted(sample, n_cut)) for x, n_cut in n_cuts.items()}
    steps, at = series.prefix_float(sample), sample.astype(np.float64)

    def sampled(lo, hi):
        return steps[lo:hi], at[lo:hi]

    diff = {x: np.empty(m, dtype=np.float64) for x, m in sample_sizes.items()}
    fine, coarse = (_exp_cells(sampled, g, sample_sizes, _gauss_legendre(p)) for p in (2, 1))
    for (lo, x, halved), (_, _, cells) in zip(fine, coarse):
        np.subtract(halved, cells, out=diff[x][lo : lo + cells.shape[0]])
    # t^{k/2} is singular at 0, so halving cuts interval 0's error by 2^{-(k/2+1)}:
    # its coarse error is 1/(1 - 2^{-(k/2+1)}) times the difference, <= 1.21 if k >= 3
    head_factor = 2.0 if k == 1 else 1.25
    out = {}
    for x, n_cut in n_cuts.items():
        value = values[x].total()
        tail = _second_moment_tail(k, x, n_cut)
        d = np.abs(diff[x], out=diff[x])
        quad_bound = head_factor * float(np.sum(d[:head])) + 100.0 * float(np.sum(d[head:])) * 8.0
        # each cell integrates a square against positive weights: never
        # negative, never -0.0, so the streamed sum is np.sum of all the cells
        rounding = 1e-14 * sums[x].total()
        out[x] = (value, tail + quad_bound + rounding)
    return out


def laplace_second_moment(series: DiscrepancySeries, X: float, grid: Grid | None = None) -> MomentSample:
    """int_0^infty P_k(t)^2 e^{-t/X} dt, truncated at n_cut unit intervals.

    The bound is the certified exponential tail plus a quadrature error
    estimated by interval halving (the first 100 intervals and a 1% sample).
    """
    return _grid_sample(Statistic.LAPLACE_SECOND, series, X, grid, _laplace_pass)


def _sharp_integral_cells(series: DiscrepancySeries, lo: int, hi: int) -> np.ndarray:
    """The centered cells int_n^{n+1} P_k(t)^2 dt for n = lo + 1 .. hi, as
    P_k(n)^2 - 2 P_k(n) V I_1(n) + V^2 I_2(n) (module docstring).  Every
    operation is elementwise, so a cell's bits do not depend on the range
    it is formed in."""
    k, vk = series.k, series.v_k
    n = np.arange(lo + 1, hi + 1, dtype=np.float64)
    pvals = series.p_values(lo + 1, hi + 1)
    nk2 = half_power(n, k)
    i1, i2 = np.zeros_like(n), np.zeros_like(n)
    # two scratch buffers serve every node; each product keeps the association
    # of delta = nk2 * expm1((k/2) log1p(xi/n)), wi * delta and (wi * delta) * delta
    delta, term = np.empty_like(n), np.empty_like(n)
    for xi, wi in zip(_GL_X01, _GL_W01):
        np.divide(xi, n, out=delta)
        np.log1p(delta, out=delta)
        delta *= k / 2.0
        np.expm1(delta, out=delta)
        delta *= nk2
        np.multiply(wi, delta, out=term)
        i1 += term
        term *= delta
        i2 += term
    # cells = p^2 - ((2 vk) p) i1 + (vk vk) i2, formed in i1
    np.multiply(2.0 * vk, pvals, out=term)
    term *= i1
    np.multiply(pvals, pvals, out=i1)
    i1 -= term
    i2 *= vk * vk
    i1 += i2
    return i1


def _sharp_integral_pass(series: DiscrepancySeries, sizes: dict[float, int]) -> dict[float, tuple]:
    """The cells of _sharp_integral_cells formed once per CHUNK of
    n = 1, 2, ... to the largest X; each X keeps the block partials of its
    own prefix and the _StreamedSum of its magnitudes, for the bound."""
    k, vk = series.k, series.v_k
    # cell n = 0 exactly: S = 1, int_0^1 (1 - vk t^{k/2})^2 dt
    cell0 = 1.0 - 2.0 * vk / (k / 2.0 + 1.0) + vk * vk / (k + 1.0)
    sums = {x: _BlockSum(max(m - 1, 0)) for x, m in sizes.items()}
    magnitudes = {x: _StreamedSum(max(m - 1, 0)) for x, m in sizes.items()}
    top = max(sizes.values())
    for lo in range(0, top - 1, CHUNK):
        cells = _sharp_integral_cells(series, lo, min(lo + CHUNK, top - 1))
        for acc in sums.values():
            acc.feed(lo, cells)
        np.abs(cells, out=cells)
        for acc in magnitudes.values():
            acc.feed(lo, cells)
    return {
        x: (cell0 + sums[x].total(), 1e-13 * (abs(cell0) + magnitudes[x].total())) if m else (0.0, 0.0)
        for x, m in sizes.items()
    }


def sharp_integral_second_moment(series: DiscrepancySeries, X, grid: Grid | None = None) -> MomentSample:
    """int_0^X P_k(t)^2 dt by per-interval antiderivatives (centered form)."""
    return _grid_sample(Statistic.SHARP_INTEGRAL_SECOND, series, X, grid, _sharp_integral_pass)


def smooth_weighted_first_moment(series: DiscrepancySeries, X: float, grid: Grid | None = None) -> MomentSample:
    """sum_{n=1}^{n_cut} P_k(n) n^{k/2-1} e^{-n/X} with a certified tail."""
    return _grid_sample(
        Statistic.SMOOTH_WEIGHTED_FIRST,
        series,
        X,
        grid,
        _exp_cut_pass,
        lambda p, n: p * _weight_power(n, series.k - 2),
        # |P_k(n)| n^{k/2-1} <= 2^{k+1} n^{k-1} on the omitted range
        lambda k, x, n_cut: 2.0 ** (k + 1) * _exp_poly_tail(k - 1, x, float(n_cut)),
    )


def sharp_weighted_first_moment_p3(series: DiscrepancySeries, X, grid: Grid | None = None) -> MomentSample:
    """sum_{1 <= n <= X} P_3(n) sqrt(n); the series must have k = 3."""
    if series.k != 3:
        raise ValueError(f"sharp_weighted_first_moment_p3 needs k = 3, got k = {series.k}")
    return _grid_sample(Statistic.SHARP_WEIGHTED_FIRST, series, X, grid, _prefix_pass, lambda p, n: p * np.sqrt(n))


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
