import math
from fractions import Fraction

import numpy as np
import pytest

from gausslab import moments, summation, theory
from gausslab.discrepancy import DiscrepancySeries, half_power, prefix_counts
from gausslab.moments import (
    CHUNK,
    KERNELS,
    MIN_EXP_CUTOFF,
    Statistic,
    exp_cutoff,
    laplace_second_moment,
    sharp_integral_second_moment,
    sharp_second_moment,
    sharp_weighted_first_moment_p3,
    smooth_second_moment,
    smooth_weighted_first_moment,
)
from gausslab.rk import build_rk_table
from gausslab.summation import BLOCK, block_compensated_sum

from conftest import allocated_peak, assert_close, exact_prefix, laplace_cells, laplace_refined


@pytest.fixture(scope="module")
def series3_small():
    return prefix_counts(build_rk_table(3, exp_cutoff(3, 300.0)))


@pytest.fixture(scope="module")
def series4_small():
    return prefix_counts(build_rk_table(4, exp_cutoff(4, 1000.0)))


@pytest.fixture(scope="module")
def series5_small():
    return prefix_counts(build_rk_table(5, 4 * CHUNK))


def naive_smooth_second(series, X):
    """Pure-Python reference: fsum over scalar P values."""
    n_cut = exp_cutoff(series.k, X)
    terms = []
    for n in range(1, n_cut + 1):
        s = float(int(series.prefix[n]))
        vol = series.v_k * math.exp((series.k / 2.0) * math.log(n))
        p = s - vol
        terms.append(p * p * math.exp(-n / X))
    return math.fsum(terms)


class TestSmoothSecond:
    def test_matches_naive_loop(self, series3_small):
        got = smooth_second_moment(series3_small, 10.0)
        want = naive_smooth_second(series3_small, 10.0)
        assert_close(got.value, want, rel=1e-12)
        assert got.statistic is Statistic.SMOOTH_SECOND
        assert got.truncation_bound < 1e-12 * got.value

    def test_tiny_x_first_term_dominates(self, series3_small):
        got = smooth_second_moment(series3_small, 0.1).value
        p1 = float(int(series3_small.prefix[1])) - series3_small.v_k
        assert_close(got, p1 * p1 * math.exp(-10.0), rel=1e-3)

    def test_x_1e4_against_stated_constant(self, series3_big):
        got = smooth_second_moment(series3_big, 1e4).value
        want = theory.predicted(moments.Statistic.SMOOTH_SECOND, 3, 1e4, 10.6)
        assert_close(got, want, rel=0.01)

    def test_requires_big_enough_table(self, series3_small):
        with pytest.raises(ValueError):
            smooth_second_moment(series3_small, 1e5)


class TestSharpSecond:
    def test_x1(self, series3_small):
        want = (7.0 - 4.0 * math.pi / 3.0) ** 2
        got = sharp_second_moment(series3_small, 1)
        assert_close(got.value, want, rel=1e-13)
        assert_close(got.value, 7.9029, abs_=1e-4)
        assert got.truncation_bound == 0.0

    def test_x2_running_total(self, series3_small):
        v3 = 4.0 * math.pi / 3.0
        want = (7.0 - v3) ** 2 + (19.0 - v3 * 2.0**1.5) ** 2
        assert_close(sharp_second_moment(series3_small, 2).value, want, rel=1e-13)

    def test_x_1e4_band(self, series3_big):
        # value/X^2 minus the proven log terms, doubled, lands near 10.6
        c3p = theory.constants_for(3).c3_prime
        x = 10**4
        got = sharp_second_moment(series3_big, x).value
        resid2 = 2.0 * (got / x**2 - (0.5 * c3p * math.log(x) - 0.25 * c3p))
        assert 10.0 < resid2 < 11.2

    def test_rejects_non_integer(self, series3_small):
        with pytest.raises(ValueError):
            sharp_second_moment(series3_small, 10.5)


class TestLaplaceSecond:
    def test_constant_one_hook(self):
        # with the step values pinned to 1 and volume 0 the integrand is
        # e^{-t/X}, so the truncated transform is X (1 - e^{-n_cut/X})
        x = 25.0
        n_cut = exp_cutoff(3, x)
        fake = DiscrepancySeries(
            k=3, n_max=n_cut, prefix=np.ones(n_cut + 1, dtype=np.uint64), v_k=0.0
        )
        got = laplace_second_moment(fake, x).value
        assert_close(got, x * (1.0 - math.exp(-n_cut / x)), rel=1e-12)

    def test_refinement_oracle_x100(self, series3_big):
        # composite Simpson, 40 panels per unit interval
        x = 100.0
        n_cut = exp_cutoff(3, x)
        pf = series3_big.prefix_float()[:n_cut]
        v3 = series3_big.v_k
        m = 40
        nodes = np.linspace(0.0, 1.0, 2 * m + 1)
        weights = np.ones(2 * m + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        weights /= 6.0 * m
        idx = np.arange(n_cut, dtype=np.float64)
        acc = np.zeros(n_cut)
        for u, w in zip(nodes, weights):
            t = idx + u
            vol = np.where(t > 0, np.exp(1.5 * np.log(np.where(t > 0, t, 1.0))), 0.0)
            acc += w * (pf - v3 * vol) ** 2 * np.exp(-t / x)
        simpson = float(np.sum(acc))
        got = laplace_second_moment(series3_big, x).value
        assert_close(got, simpson, rel=1e-9)

    @staticmethod
    def _counts(series):
        """The main pass's source: the counts rounded to float a range at a
        time, at n = lo .. hi - 1."""
        return lambda lo, hi: (series.prefix_float(slice(lo, hi)), np.arange(lo, hi, dtype=np.float64))

    @staticmethod
    def _sampled(step_values, idx):
        """An audit-style source: step_values[i] at n = idx[i]."""
        at = idx.astype(np.float64)
        return lambda lo, hi: (step_values[lo:hi], at[lo:hi])

    @staticmethod
    def _joined_cells(source, v_k, k, sizes, subdivide):
        """The LaplaceSecond cells of moments._exp_cells over `source`, with
        the Laplace integrand and the kernel's rule, each X's chunks joined
        into one array."""

        def integrand(s, t):
            return (s - v_k * half_power(t, k)) ** 2

        joined = {x: np.empty(m, dtype=np.float64) for x, m in sizes.items()}
        nodes = moments._gauss_legendre(subdivide)
        for lo, x, cells in moments._exp_cells(source, integrand, sizes, nodes):
            joined[x][lo : lo + cells.shape[0]] = cells
        return joined

    @pytest.mark.parametrize("subdivide", [1, 2])
    @pytest.mark.parametrize("k", [3, 4])
    def test_chunks_change_no_bit(self, series3_big, series4_small, k, subdivide):
        series = series3_big if k == 3 else series4_small
        pf = series.prefix_float()
        contiguous = np.arange(3 * CHUNK + 1234, dtype=np.int64)
        # the audit's sample: the first 100 intervals, then every 100th
        # (about 40,000 indices, three chunks, at the k = 3 size of 4e6)
        sample = np.concatenate([np.arange(100), np.arange(100, series.n_max, 100)])
        for idx in (contiguous, sample):
            args = (pf[idx], series.v_k, k, 2e4, idx, subdivide)
            got = self._joined_cells(self._sampled(pf[idx], idx), series.v_k, k, {2e4: idx.shape[0]}, subdivide)[2e4]
            assert np.array_equal(got, laplace_cells(*args))

    @staticmethod
    def _scale_with_cutoff(k, n_cut):
        """The smallest float X with exp_cutoff(k, X) = n_cut, by bisection."""
        lo, hi = 1.0, float(n_cut)
        while np.nextafter(lo, hi) < hi:
            mid = (lo + hi) / 2.0
            lo, hi = (mid, hi) if exp_cutoff(k, mid) < n_cut else (lo, mid)
        assert exp_cutoff(k, hi) == n_cut
        return hi

    @pytest.mark.parametrize("subdivide", [1, 2])
    @pytest.mark.parametrize("k", [3, 4])
    def test_shared_pass_changes_no_bit(self, series3_big, series4_small, k, subdivide):
        # three cutoffs: mid-chunk, exactly on a chunk boundary, past it
        series = series3_big if k == 3 else series4_small
        n_cuts = {self._scale_with_cutoff(k, n): n for n in (CHUNK + CHUNK // 2, 2 * CHUNK, 3 * CHUNK + 1234)}
        pf = series.prefix_float()
        # the main pass rounds the counts to float a chunk at a time
        shared = self._joined_cells(self._counts(series), series.v_k, k, n_cuts, subdivide)
        for x, n_cut in n_cuts.items():
            idx = np.arange(n_cut, dtype=np.int64)
            assert np.array_equal(shared[x], laplace_cells(pf[:n_cut], series.v_k, k, x, idx, subdivide))

    @pytest.mark.parametrize("subdivide", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_audit_sample_cells_match_main_pass(self, series3_big, series4_small, k, subdivide):
        # the audit recomputes the pass's cells at its sample rather than
        # keeping them, so the two runs must agree bit for bit, here on the
        # audit's sample and on the cells either side of two chunk boundaries
        series = {3: series3_big, 4: series4_small}.get(k) or prefix_counts(build_rk_table(1, 3 * CHUNK + 1234))
        n_cuts = {self._scale_with_cutoff(k, n): n for n in (CHUNK + CHUNK // 2, 2 * CHUNK, 3 * CHUNK + 1234)}
        main = self._joined_cells(self._counts(series), series.v_k, k, n_cuts, subdivide)
        audit = np.concatenate([np.arange(100), np.arange(100, 3 * CHUNK + 1234, 100)])
        sample = np.union1d(audit, [CHUNK - 1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK])
        sizes = {x: int(np.searchsorted(sample, n_cut)) for x, n_cut in n_cuts.items()}
        got = self._joined_cells(self._sampled(series.prefix_float(sample), sample), series.v_k, k, sizes, subdivide)
        for x, m in sizes.items():
            assert np.array_equal(got[x], main[x][sample[:m]])

    def test_grid_pass_allocates_no_cell_array(self, series3_big):
        # the README smooth grid: its 7.2e6 cells would take 57 MB at once
        n_cuts = {x: exp_cutoff(3, x) for x in np.geomspace(2e3, 2e4, 12).tolist()}
        _, grown = allocated_peak(moments._laplace_pass, series3_big, n_cuts)
        assert grown <= 8e6, grown

    def test_grid_pass_at_c3_size_within_4_5_mb(self, series3_big):
        # the c3 smooth grid on a series of the c3 study's size: with 2^14
        # cells in each X's audit buffer, whatever its sample, it took 5.8 MB
        n_max = 1_514_216
        series = DiscrepancySeries(k=3, n_max=n_max, prefix=series3_big.prefix[: n_max + 1], v_k=series3_big.v_k)
        grid = dict.fromkeys(np.geomspace(2e3, 2e4, 12).tolist())
        _, grown = allocated_peak(laplace_second_moment, series, 2e3, grid)
        assert None not in grid.values()
        assert grown <= 4.5e6, grown

    @pytest.mark.parametrize("x", [50.0, 300.0])
    def test_halving_within_reported_bound(self, series3_small, x):
        coarse = laplace_second_moment(series3_small, x)
        fine = laplace_refined(series3_small, x, 2)
        assert abs(fine - coarse.value) < coarse.truncation_bound

    @pytest.mark.parametrize("x", [10.0, 1000.0])
    def test_k1_bound_covers_refinement(self, x):
        # at k = 1 halving cuts interval 0's error only by 2^{-1.5}
        series = prefix_counts(build_rk_table(1, exp_cutoff(1, x)))
        coarse = laplace_second_moment(series, x)
        fine = laplace_refined(series, x, 16)
        assert abs(fine - coarse.value) <= coarse.truncation_bound


class TestStreamedSum:
    """_StreamedSum rebuilds numpy's pairwise summation tree from chunk-local
    pieces: should a numpy release change its reduction tree, this fails."""

    @staticmethod
    def _streamed(values):
        total = summation._StreamedSum(values.shape[0])
        for lo in range(0, values.shape[0], CHUNK):
            total.feed(lo, values[lo : lo + CHUNK])
        return total.total()

    def test_equals_np_sum(self):
        rng = np.random.default_rng(20)
        # positive values with exponents spread over +-5 decades
        values = 10.0 ** rng.uniform(-5.0, 5.0, 1_514_216)
        lengths = list(range(1, 301))
        lengths += [j * CHUNK + d for j in (1, 2, 3) for d in range(-130, 131) if d]
        lengths.append(values.shape[0])
        for n in lengths:
            assert self._streamed(values[:n]) == float(np.sum(values[:n])), n

    def test_carried_leaf_is_a_copy(self):
        # the caller reuses its chunk buffer, as the Laplace pass does
        values = np.arange(1.0, 2 * CHUNK + 100)
        total = summation._StreamedSum(values.shape[0])
        buf = np.empty(CHUNK)
        for lo in range(0, values.shape[0], CHUNK):
            chunk = buf[: min(CHUNK, values.shape[0] - lo)]
            chunk[:] = values[lo : lo + CHUNK]
            total.feed(lo, chunk)
        assert total.total() == float(np.sum(values))


def _bits(sample):
    return (sample.k, sample.x_scale, sample.statistic, float(sample.value).hex(), float(sample.truncation_bound).hex())


class TestGridPass:
    """One call through a grid memo fills every scale of the grid, and each
    sample has the bits of that scale's own single-X call."""

    # exp-cut cutoffs: the floor, inside the first block, mid-chunk, on a
    # chunk boundary, one block past it, past the third chunk
    CUTOFFS = [MIN_EXP_CUTOFF, BLOCK - 1, CHUNK + CHUNK // 2 + 7, 2 * CHUNK, 2 * CHUNK + BLOCK, 3 * CHUNK + 1234]
    SHARP_SCALES = [0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, CHUNK + 7, 3 * CHUNK + 1234]
    CASES = [(stat, k) for stat in Statistic for k in (3, 4, 5) if stat is not Statistic.SHARP_WEIGHTED_FIRST or k == 3]

    # sub1: each kernel's own rule, one piece per unit interval
    @pytest.mark.parametrize("stat, k", CASES, ids=[f"{s.value}-k{k}-sub1" for s, k in CASES])
    def test_grid_matches_single_calls(self, series3_big, series4_small, series5_small, stat, k):
        series = {3: series3_big, 4: series4_small, 5: series5_small}[k]
        kernel = KERNELS[stat]
        if stat.exp_cut:
            scales = [TestLaplaceSecond._scale_with_cutoff(k, n) for n in self.CUTOFFS]
        else:
            scales = self.SHARP_SCALES
        grid = dict.fromkeys(scales)
        kernel(series, scales[-1], grid=grid)
        assert None not in grid.values()
        for x in scales:
            got = kernel(series, x, grid=grid)
            assert got is grid[x]
            assert _bits(got) == _bits(kernel(series, x)), x

    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_chunked_sums_match_whole_array_sums(self, series3_big, series4_small, k):
        # the unchunked formulas: the X-dependent terms over all of 1..n_cut at once
        series = {1: prefix_counts(build_rk_table(1, 4 * CHUNK)), 3: series3_big, 4: series4_small}[k]
        scales = [TestLaplaceSecond._scale_with_cutoff(k, n) for n in self.CUTOFFS]
        square_grid, weighted_grid = dict.fromkeys(scales), dict.fromkeys(scales)
        p = series.p_values(0, series.n_max + 1)
        for x in scales:
            n_cut = exp_cutoff(k, x)
            n = np.arange(1, n_cut + 1, dtype=np.float64)
            square = block_compensated_sum(p[1 : n_cut + 1] ** 2 * np.exp(-n / x))
            weighted = block_compensated_sum(p[1 : n_cut + 1] * moments._weight_power(n, k - 2) * np.exp(-n / x))
            assert smooth_second_moment(series, x, grid=square_grid).value == square
            assert smooth_weighted_first_moment(series, x, grid=weighted_grid).value == weighted

    EXP_CUT = [Statistic.SMOOTH_SECOND, Statistic.SMOOTH_WEIGHTED_FIRST]

    @pytest.mark.parametrize("stat", EXP_CUT, ids=[s.value for s in EXP_CUT])
    def test_exp_cut_pass_forms_p_k_a_chunk_at_a_time(self, series3_big, stat):
        # the c3 smooth grid on a fresh series of the c3 study's size: a
        # whole-range P_k (12.1 MB) took the pass to 14.6 MB
        n_max = 1_514_216
        series = DiscrepancySeries(k=3, n_max=n_max, prefix=series3_big.prefix[: n_max + 1], v_k=series3_big.v_k)
        grid = dict.fromkeys(np.geomspace(2e3, 2e4, 12).tolist())
        _, grown = allocated_peak(KERNELS[stat], series, 2e3, grid)
        assert None not in grid.values()
        assert grown <= 4e6, grown


def _prefix_whole_arrays(series, sizes, weight):
    """_prefix_pass from the cells to the largest X at once: the reference
    for its chunked pass."""
    top = max(sizes.values())
    cells = weight(series.p_values(1, top + 1), np.arange(1, top + 1, dtype=np.float64))
    return {x: (block_compensated_sum(cells[:m]), 0.0) for x, m in sizes.items()}


def _sharp_integral_whole_arrays(series, sizes):
    """_sharp_integral_pass from the cells to the largest X at once: the
    reference for its chunked pass."""
    k, vk = series.k, series.v_k
    cell0 = 1.0 - 2.0 * vk / (k / 2.0 + 1.0) + vk * vk / (k + 1.0)
    cells = moments._sharp_integral_cells(series, 0, max(sizes.values()) - 1)
    magnitudes = np.abs(cells)
    out = {}
    for x, m in sizes.items():
        if m == 0:
            out[x] = (0.0, 0.0)
        else:
            bound = 1e-13 * (abs(cell0) + float(np.sum(magnitudes[: m - 1])))
            out[x] = (cell0 + block_compensated_sum(cells[: m - 1]), bound)
    return out


_SHARP_WEIGHTS = {Statistic.SHARP_SECOND: lambda p, n: p**2, Statistic.SHARP_WEIGHTED_FIRST: lambda p, n: p * np.sqrt(n)}


class TestStreamedSharpPasses:
    """The prefix and sharp-integral passes form their cells a chunk at a
    time and give every X the bits of the whole-array formulas."""

    # X = 0, 1, 2 (at most two cells), then prefixes ending one short of the
    # first chunk's end and mid-block in each of the first three chunks
    SIZES = [0, 1, 2, BLOCK + 3, CHUNK - 1, CHUNK + 7, 2 * CHUNK + BLOCK + 7]
    STATS = [Statistic.SHARP_SECOND, Statistic.SHARP_WEIGHTED_FIRST, Statistic.SHARP_INTEGRAL_SECOND]

    @pytest.mark.parametrize("stat", STATS, ids=[s.value for s in STATS])
    def test_chunks_change_no_bit(self, series3_big, stat):
        grid = dict.fromkeys(self.SIZES)
        KERNELS[stat](series3_big, self.SIZES[-1], grid=grid)
        sizes = {x: x for x in self.SIZES}
        if stat is Statistic.SHARP_INTEGRAL_SECOND:
            want = _sharp_integral_whole_arrays(series3_big, sizes)
        else:
            want = _prefix_whole_arrays(series3_big, sizes, _SHARP_WEIGHTS[stat])
        for x in self.SIZES:
            assert (grid[x].value, grid[x].truncation_bound) == want[x], x

    @pytest.mark.parametrize("stat", STATS, ids=[s.value for s in STATS])
    def test_pass_allocates_no_cell_array(self, series3_big, stat):
        # at top 1e6 the whole-array passes took 15 MB (prefix) and 46 MB
        # (integral)
        if stat is Statistic.SHARP_INTEGRAL_SECOND:
            _, grown = allocated_peak(moments._sharp_integral_pass, series3_big, {1e6: 10**6})
        else:
            _, grown = allocated_peak(moments._prefix_pass, series3_big, {1e6: 10**6}, _SHARP_WEIGHTS[stat])
        assert grown <= 4e6, grown


class TestSharpIntegral:
    def test_empty(self, series3_small):
        got = sharp_integral_second_moment(series3_small, 0)
        assert got.value == 0.0

    def test_x1_closed_form(self, series3_small):
        v3 = 4.0 * math.pi / 3.0
        want = 1.0 - 0.8 * v3 + v3 * v3 / 4.0
        got = sharp_integral_second_moment(series3_small, 1)
        assert_close(got.value, want, rel=1e-13)
        assert_close(got.value, 2.0355, abs_=1e-4)

    def test_refinement_oracle_x1000(self, series3_big):
        # dense Simpson on every unit interval
        x = 1000
        pf = series3_big.prefix_float()[:x]
        v3 = series3_big.v_k
        m = 32
        nodes = np.linspace(0.0, 1.0, 2 * m + 1)
        weights = np.ones(2 * m + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        weights /= 6.0 * m
        idx = np.arange(x, dtype=np.float64)
        acc = np.zeros(x)
        for u, w in zip(nodes, weights):
            t = idx + u
            vol = np.where(t > 0, np.exp(1.5 * np.log(np.where(t > 0, t, 1.0))), 0.0)
            acc += w * (pf - v3 * vol) ** 2
        simpson = float(np.sum(acc))
        got = sharp_integral_second_moment(series3_big, x).value
        assert_close(got, simpson, rel=1e-9)


class TestWeightedFirst:
    def test_k1_weight_is_inverse_sqrt(self):
        # n^{k/2-1} is n^{-1/2} at k = 1
        x = 10.0
        n_cut = exp_cutoff(1, x)
        series = prefix_counts(build_rk_table(1, n_cut))
        n = np.arange(1, n_cut + 1, dtype=np.float64)
        want = math.fsum(series.p_values(1, n_cut + 1) * n**-0.5 * np.exp(-n / x))
        assert_close(smooth_weighted_first_moment(series, x).value, want, rel=1e-12)

    def test_tiny_x(self, series3_small):
        got = smooth_weighted_first_moment(series3_small, 0.1).value
        p1 = float(int(series3_small.prefix[1])) - series3_small.v_k
        assert_close(got, p1 * math.exp(-10.0), rel=1e-3)

    def test_k3_approaches_pi(self, series3_big):
        got = smooth_weighted_first_moment(series3_big, 1e4).value / 1e8
        assert_close(got, math.pi, rel=0.01)

    def test_k4_approaches_pi_squared(self, series4_small):
        got = smooth_weighted_first_moment(series4_small, 1e3).value / 1e9
        assert_close(got, math.pi**2, rel=0.02)

    def test_sharp_x1(self, series3_small):
        got = sharp_weighted_first_moment_p3(series3_small, 1)
        assert_close(got.value, 7.0 - 4.0 * math.pi / 3.0, rel=1e-13)
        assert_close(got.value, 2.8112, abs_=1e-4)

    def test_sharp_x0(self, series3_small):
        assert sharp_weighted_first_moment_p3(series3_small, 0).value == 0.0

    def test_sharp_wrong_dimension(self, series4_small):
        with pytest.raises(ValueError):
            sharp_weighted_first_moment_p3(series4_small, 10)


# k -> the series, an integer X and an exp-cut X whose sums pass the carries
# of S_k: S_7 passes 2^64 at n = 205,054, 249,964 and 280,665 below 300,000,
# and S_8 at n = 46,172 and 54,909 below the cutoff 101,235 at X = 1000
PAST_CARRY = {7: ("series7_324k", 300_000, 3000.0), 8: ("series8_349k", 100_000, 1000.0)}


@pytest.fixture(scope="module", params=sorted(PAST_CARRY), ids=[f"k{k}" for k in sorted(PAST_CARRY)])
def past_carry(request):
    """(series, sharp X, exp-cut X, S_k and P_k on 0..top as float64), each
    value rounded once from the Python-int S_k: past 2^53 the volume is an
    integer, so S_k minus it is an exact int."""
    name, x_sharp, x_exp = PAST_CARRY[request.param]
    series = request.getfixturevalue(name)
    top = max(x_sharp, exp_cutoff(series.k, x_exp))
    exact = exact_prefix(series)[: top + 1].tolist()
    vol = (series.v_k * half_power(np.arange(top + 1, dtype=np.float64), series.k)).tolist()
    p = [float(s - int(v)) if v >= 2.0**53 else float(s - Fraction(v)) for s, v in zip(exact, vol)]
    return series, x_sharp, x_exp, np.array([float(s) for s in exact]), np.array(p)


class TestPastTheCarry:
    """Each statistic at k = 7 and 8, its sum past the carries of S_k,
    against the whole-array formula on S_k and P_k from Python ints.  P_k is
    rounded once there as below 2^64, so the sums of P_k keep every bit;
    the integrals take S_k as float, which the series rounds twice."""

    def test_sums_of_p_keep_every_bit(self, past_carry):
        series, x_sharp, x_exp, _, p = past_carry
        k = series.k
        assert series.wraps[0] < x_sharp and series.wraps[0] < exp_cutoff(k, x_exp)
        assert sharp_second_moment(series, x_sharp).value == block_compensated_sum(p[1 : x_sharp + 1] ** 2)
        n_cut = exp_cutoff(k, x_exp)
        n = np.arange(1, n_cut + 1, dtype=np.float64)
        decay = np.exp(-n / x_exp)
        assert smooth_second_moment(series, x_exp).value == block_compensated_sum(p[1 : n_cut + 1] ** 2 * decay)
        weighted = block_compensated_sum(p[1 : n_cut + 1] * moments._weight_power(n, k - 2) * decay)
        assert smooth_weighted_first_moment(series, x_exp).value == weighted

    def test_integrals(self, past_carry):
        series, x_sharp, x_exp, s, _ = past_carry
        k, n_cut = series.k, exp_cutoff(series.k, x_exp)
        want = block_compensated_sum(laplace_cells(s[:n_cut], series.v_k, k, x_exp, np.arange(n_cut), 1))
        assert_close(laplace_second_moment(series, x_exp).value, want, rel=1e-10)
        # e^{-t/inf} = 1: the same Gauss-Legendre cells with no decay
        want = block_compensated_sum(laplace_cells(s[:x_sharp], series.v_k, k, math.inf, np.arange(x_sharp), 1))
        assert_close(sharp_integral_second_moment(series, x_sharp).value, want, rel=1e-10)


class TestStructuralInvariants:
    def test_laplace_decomposition_residual_shrinks(self, series3_big):
        # laplace - smooth = (k^2 Vk^2 G(k-1)/12 - pi^k G(k-1)/(2 G(k/2)^2)) X^2 + o(X^2)
        v3 = series3_big.v_k
        c_step = 9.0 * v3 * v3 / 12.0
        c_cross = math.pi**3 / (2.0 * math.gamma(1.5) ** 2)
        ratios = []
        for x in (1e3, 1e4):
            resid = (
                laplace_second_moment(series3_big, x).value
                - smooth_second_moment(series3_big, x).value
                - c_step * x**2
                + c_cross * x**2
            )
            ratios.append(abs(resid) / x**2)
        assert ratios[0] < 0.05
        assert ratios[1] < ratios[0]

    def test_halfway_identity_ratio_shrinks(self, series3_big):
        # integral - sum - (3 V3^2/8) X^2 + (3 V3/2) sum_{n<=X-1} P3(n) sqrt(n) = o(X^2)
        v3 = series3_big.v_k
        ratios = []
        for x in (10**4, 10**5, 10**6):
            q = (
                sharp_integral_second_moment(series3_big, x).value
                - sharp_second_moment(series3_big, x).value
                - 3.0 * v3 * v3 / 8.0 * float(x) ** 2
                + 1.5 * v3 * sharp_weighted_first_moment_p3(series3_big, x - 1).value
            )
            ratios.append(abs(q) / float(x) ** 2)
        assert ratios[0] > ratios[1] > ratios[2]

    def test_second_moments_nonnegative(self, series3_small):
        for stat in (
            smooth_second_moment(series3_small, 10.0),
            sharp_second_moment(series3_small, 100),
            laplace_second_moment(series3_small, 10.0),
            sharp_integral_second_moment(series3_small, 100),
        ):
            assert stat.value >= 0.0
            assert stat.truncation_bound >= 0.0

    def test_cutoff_rule(self):
        assert exp_cutoff(3, 10.0) == max(math.ceil(10.0 * (3 * math.log(12.0) + 46.0)), 100)
        assert exp_cutoff(3, 0.01) == 100
        with pytest.raises(ValueError, match="too large"):
            exp_cutoff(3, 1e308)
        with pytest.raises(ValueError):
            exp_cutoff(3, 0.0)
        with pytest.raises(ValueError, match="positive"):
            exp_cutoff(3, math.nan)
