import math
import tracemalloc

import numpy as np
import pytest

from gausslab import moments
from gausslab.discrepancy import half_power, prefix_counts
from gausslab.rk import build_rk_table
from gausslab.summation import block_compensated_sum


@pytest.fixture(scope="session")
def series3_big():
    """k = 3 series to 4e6: covers the full X range of the experiments."""
    return prefix_counts(build_rk_table(3, 4_000_000))


@pytest.fixture(scope="session")
def table4_1m():
    """r_4 table to 1e6."""
    return build_rk_table(4, 1_000_000)


@pytest.fixture(scope="session")
def series4_1m(table4_1m):
    """k = 4 series to 1e6."""
    return prefix_counts(table4_1m)


@pytest.fixture(scope="session")
def series5_273k():
    """k = 5 series to 272,900, the exp cutoff at X = 1000 sqrt(10)."""
    return prefix_counts(build_rk_table(5, 272_900))


@pytest.fixture(scope="session")
def series6_298k():
    """k = 6 series to 298,387, the exp cutoff at X = 1000 sqrt(10)."""
    return prefix_counts(build_rk_table(6, 298_387))


@pytest.fixture(scope="session")
def series7_324k():
    """k = 7 series to 323,874, the exp cutoff at X = 1000 sqrt(10); S_7
    passes 2^64 four times, first at n = 205,054."""
    return prefix_counts(build_rk_table(7, 323_874))


@pytest.fixture(scope="session")
def series8_349k():
    """k = 8 series to 349,361, the exp cutoff at X = 1000 sqrt(10); S_8
    passes 2^64 3,277 times, first at n = 46,172."""
    return prefix_counts(build_rk_table(8, 349_361))


def exact_prefix(series):
    """S_k(0..n_max) as Python ints, summed from r_k = the differences of the
    counts mod 2^64, so no carry of the series enters them."""
    return np.cumsum(np.diff(series.prefix, prepend=np.uint64(0)).astype(object))


@pytest.fixture(scope="session")
def tables_small():
    """k = 1..6 tables to n = 512 for cheap cross-checks."""
    return {k: build_rk_table(k, 512) for k in range(1, 7)}


def laplace_cells(step_values, v_k, k, x, idx, pieces):
    """The LaplaceSecond integrand (S_n - v_k t^{k/2})^2 e^{-t/X} integrated
    over each unit interval [n, n + 1) of idx, S_n = step_values, by the
    8-point Gauss-Legendre rule on `pieces` equal pieces, over all of idx in
    one pass."""
    acc = np.zeros(idx.shape[0], dtype=np.float64)
    base = idx.astype(np.float64)
    for piece in range(pieces):
        for xi, wi in zip(moments._GL_X01, moments._GL_W01):
            t = base + (piece + xi) / pieces
            f = (step_values - v_k * half_power(t, k)) ** 2 * np.exp(-t / x)
            acc += (wi / pieces) * f
    return acc


def laplace_refined(series, x, pieces):
    """LaplaceSecond's value at X with each unit interval cut into `pieces`
    Gauss-Legendre pieces, from whole arrays: the refinement that audits the
    quadrature bound (the kernel takes one piece)."""
    n_cut = moments.exp_cutoff(series.k, x)
    steps = series.prefix_float(slice(0, n_cut))
    return block_compensated_sum(laplace_cells(steps, series.v_k, series.k, x, np.arange(n_cut), pieces))


def allocated_peak(func, *args):
    """func(*args) and the most its allocations (numpy's buffers included)
    reached above the level at the call, in bytes, by tracemalloc."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = func(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - start


def zeta_eta_oracle(s: float, nterms: int = 100, passes: int = 60) -> float:
    """Independent zeta evaluation: the alternating eta series accelerated by
    repeated averaging of partial sums (Richardson-style), then divided by
    (1 - 2^{1-s})."""
    acc = 0.0
    partial = []
    for n in range(1, nterms + 1):
        acc += (-1.0) ** (n - 1) * float(n) ** -s
        partial.append(acc)
    row = partial
    for _ in range(passes):
        if len(row) == 1:
            break
        row = [(a + b) / 2.0 for a, b in zip(row, row[1:])]
    return row[len(row) // 2] / (1.0 - 2.0 ** (1.0 - s))


def gamma_recurrence_oracle(x: float) -> float:
    """Gamma(x) for x = m + 1/2 or integer x, by the recurrence from
    Gamma(1/2) = sqrt(pi) or Gamma(1) = 1."""
    if x == int(x):
        val = 1.0
        for j in range(1, int(x)):
            val *= j
        return val
    assert (x - 0.5) == int(x - 0.5), "oracle handles half-integers only"
    val = math.sqrt(math.pi)
    t = 0.5
    while t < x:
        val *= t
        t += 1.0
    return val


def sigma(nu: float, h: int, odd_only: bool = False) -> float:
    """Divisor power sum sigma_nu(h) = sum over d | h of d^nu (odd d only if
    odd_only), by trial division: the oracle for rk.divisor_sums."""
    total = []
    d = 1
    while d * d <= h:
        if h % d == 0:
            for q in {d, h // d}:
                if not odd_only or q % 2:
                    total.append(float(q) ** nu)
        d += 1
    return math.fsum(total)


def assert_close(got, want, rel=0.0, abs_=0.0, label=""):
    err = abs(got - want)
    limit = abs_ + rel * abs(want)
    assert err <= limit, f"{label}: |{got!r} - {want!r}| = {err:.3e} > {limit:.3e}"
