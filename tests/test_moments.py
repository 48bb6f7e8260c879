import math

import numpy as np
import pytest

from gausslab import moments, theory
from gausslab.discrepancy import DiscrepancySeries, half_power, prefix_counts
from gausslab.moments import (
    CHUNK,
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

from conftest import assert_close


@pytest.fixture(scope="module")
def series3_small():
    return prefix_counts(build_rk_table(3, exp_cutoff(3, 300.0)))


@pytest.fixture(scope="module")
def series4_small():
    return prefix_counts(build_rk_table(4, exp_cutoff(4, 1000.0)))


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
        want = theory.predicted_smooth(3, 1e4, c3=10.6)
        assert_close(got, want, rel=0.01)

    def test_requires_big_enough_table(self, series3_small):
        with pytest.raises(ValueError):
            smooth_second_moment(series3_small, 1e5)

    def test_deterministic(self, series3_small):
        a = smooth_second_moment(series3_small, 37.0).value
        b = smooth_second_moment(series3_small, 37.0).value
        assert a == b


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
    def _unchunked_cells(step_values, v_k, k, x, idx, subdivide):
        """The kernel's per-interval integrand over all of idx in one pass."""
        acc = np.zeros(idx.shape[0], dtype=np.float64)
        base = idx.astype(np.float64)
        for piece in range(subdivide):
            for xi, wi in zip(moments._GL_X01, moments._GL_W01):
                t = base + (piece + xi) / subdivide
                f = (step_values - v_k * half_power(t, k)) ** 2 * np.exp(-t / x)
                acc += (wi / subdivide) * f
        return acc

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
            got = moments._laplace_cells(*args)
            assert np.array_equal(got, self._unchunked_cells(*args))

    @pytest.mark.parametrize("x", [50.0, 300.0])
    def test_halving_within_reported_bound(self, series3_small, x):
        coarse = laplace_second_moment(series3_small, x)
        fine = laplace_second_moment(series3_small, x, subdivide=2)
        assert abs(fine.value - coarse.value) < coarse.truncation_bound

    @pytest.mark.parametrize("x", [10.0, 1000.0])
    def test_k1_bound_covers_refinement(self, x):
        # at k = 1 halving cuts interval 0's error only by 2^{-1.5}
        series = prefix_counts(build_rk_table(1, exp_cutoff(1, x)))
        coarse = laplace_second_moment(series, x)
        fine = laplace_second_moment(series, x, subdivide=16)
        assert abs(fine.value - coarse.value) <= coarse.truncation_bound

    def test_gap_to_smooth_k3(self, series3_big):
        x = 1e4
        gap = (
            laplace_second_moment(series3_big, x).value
            - smooth_second_moment(series3_big, x).value
        ) / x**2
        assert_close(gap, -2.0 * math.pi**2 / 3.0, rel=0.02)

    def test_gap_to_smooth_k4(self, series4_small):
        x = 1e3
        gap = (
            laplace_second_moment(series4_small, x).value
            - smooth_second_moment(series4_small, x).value
        ) / x**3
        assert_close(gap, -math.pi**4 / 3.0, rel=0.02)


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

    def test_gap_to_sharp_sum(self, series3_big):
        x = 10**4
        gap = (
            sharp_integral_second_moment(series3_big, x).value
            - sharp_second_moment(series3_big, x).value
        ) / float(x) ** 2
        assert_close(gap, -math.pi**2 / 3.0, rel=0.25)


class TestWeightedFirst:
    def test_k1_weight_is_inverse_sqrt(self):
        # n^{k/2-1} is n^{-1/2} at k = 1
        x = 10.0
        n_cut = exp_cutoff(1, x)
        series = prefix_counts(build_rk_table(1, n_cut))
        n = np.arange(1, n_cut + 1, dtype=np.float64)
        want = math.fsum(series.p_values()[1 : n_cut + 1] * n**-0.5 * np.exp(-n / x))
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
