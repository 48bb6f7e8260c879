import math
from fractions import Fraction

import numpy as np
import pytest

from gausslab.discrepancy import (
    DiscrepancySeries,
    PrefixOverflowError,
    diagonal_partial_mean,
    half_power,
    p_at_integer,
    p_at_real,
    prefix_counts,
)
from gausslab.rk import RkTable, build_rk_table, rk_bruteforce

from conftest import assert_close


@pytest.fixture(scope="module")
def series3():
    return prefix_counts(build_rk_table(3, 10**4))


@pytest.fixture(scope="module")
def series4():
    return prefix_counts(build_rk_table(4, 10**4))


class TestPrefix:
    def test_values_from_bruteforce(self, series3):
        want = 0
        for n in range(20):
            want += rk_bruteforce(3, n)
            assert int(series3.prefix[n]) == want
        assert int(series3.prefix[4]) == 33

    def test_origin(self, series3):
        assert int(series3.prefix[0]) == 1

    def test_k2_example(self):
        series = prefix_counts(build_rk_table(2, 10))
        assert int(series.prefix[2]) == 9

    def test_monotone(self, series3):
        assert bool(np.all(series3.prefix[1:] >= series3.prefix[:-1]))

    def test_overflow_detected(self):
        counts = np.array([1, 2**63, 2**63, 4], dtype=np.uint64)
        table = RkTable(k=1, n_max=3, counts=counts)
        with pytest.raises(PrefixOverflowError):
            prefix_counts(table)


class TestPAt:
    def test_origin(self, series3):
        assert p_at_integer(series3, 0) == 1.0

    def test_n4(self, series3):
        v3 = 4.0 * math.pi / 3.0
        assert_close(p_at_integer(series3, 4), 33.0 - v3 * 8.0, rel=1e-13)
        assert_close(p_at_integer(series3, 4), -0.5103, abs_=1e-4)

    def test_k4_n1(self, series4):
        assert_close(p_at_integer(series4, 1), 9.0 - math.pi**2 / 2.0, rel=1e-13)

    def test_real_half(self, series3):
        v3 = 4.0 * math.pi / 3.0
        assert_close(p_at_real(series3, 0.5), 1.0 - v3 * 0.5**1.5, rel=1e-12)

    def test_real_matches_integer_on_floor(self, series3):
        assert p_at_real(series3, 4.0) == p_at_integer(series3, 4)

    def test_left_limit_at_one(self, series3):
        t = np.nextafter(1.0, 0.0)
        assert_close(p_at_real(series3, t), 1.0 - 4.0 * math.pi / 3.0, rel=1e-9)

    def test_reconstruction_identity(self, series3):
        # P + V n^{k/2} == S to double rounding, on every n <= 1e4
        p = series3.p_values()
        n = np.arange(series3.n_max + 1, dtype=np.float64)
        s = p + series3.v_k * half_power(n, 3)
        exact = series3.prefix.astype(np.float64)
        assert float(np.max(np.abs(s - exact))) <= 1e-7  # ~eps * S_max

    def test_out_of_range(self, series3):
        with pytest.raises(ValueError):
            p_at_integer(series3, 10**4 + 1)
        with pytest.raises(ValueError):
            p_at_real(series3, -0.5)

    def test_split_conversion_above_2_53(self):
        # fabricated prefix beyond 2^53: the 32/32 split keeps low-order bits
        big = 2**60 + 12345
        series = DiscrepancySeries(k=2, n_max=1, prefix=np.array([1, big], dtype=np.uint64), v_k=0.25)
        got = p_at_integer(series, 1)
        want = float(Fraction(big) - Fraction(0.25))
        assert_close(got, want, rel=1e-15)

    def test_split_paths_agree_above_2_53(self):
        # prefix_float rounds each count once; the scalar paths agree bit for
        # bit with the cached array
        rng = np.random.default_rng(7)
        prefix = np.sort(rng.integers(2**53, 2**64 - 1, 64, dtype=np.uint64))
        series = DiscrepancySeries(k=3, n_max=63, prefix=prefix, v_k=4.1887902047863905)
        assert series.prefix_float().tolist() == [float(int(v)) for v in prefix]
        p = series.p_values()
        for n in range(64):
            assert p[n] == p_at_integer(series, n) == p_at_real(series, float(n))
        # the volume cancels the high word exactly, so every low bit survives;
        # converting the count to float first would give 12288
        prefix = np.array([1, 2**60 + 12345], dtype=np.uint64)
        series = DiscrepancySeries(k=2, n_max=1, prefix=prefix, v_k=2.0**60)
        assert series.p_values()[1] == p_at_integer(series, 1) == p_at_real(series, 1.0) == 12345.0

    def test_batch_matches_scalar(self, series3):
        p = series3.p_values()
        for n in (0, 1, 2, 17, 5000, 10**4):
            assert p[n] == p_at_integer(series3, n)


class TestGaussBoundScan:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_discrepancy_stays_below_surface_order(self, k):
        # sanity scan: |P_k(n)| < c n^{(k-1)/2} with a small empirical c
        # (measured maxima ~3.6, 4.7, 5.7 at tiny n; a volume-term bug blows
        # this up by orders of magnitude)
        series = prefix_counts(build_rk_table(k, 10**4))
        p = series.p_values()
        n = np.arange(1, 10**4 + 1, dtype=np.float64)
        ratio = np.abs(p[1:]) / n ** ((k - 1) / 2.0)
        assert float(ratio.max()) < 8.0


class TestSignChanges:
    def test_p3_oscillates(self, series3):
        p = series3.p_values()
        for x in (100, 1000):
            window = p[x : 2 * x + 1]
            assert np.any(window > 0) and np.any(window < 0), f"no sign change in [{x}, {2 * x}]"


class TestDiagonal:
    def test_k4_x1_hand_expansion(self, series4):
        # (k-1) X^{1-k} (r(0)^2 + r(1)^2) = 3 * (1 + 64)
        assert diagonal_partial_mean(series4, 1) == 195.0

    def test_formula_wiring(self, series4):
        got = diagonal_partial_mean(series4, 100)
        r = np.diff(series4.prefix[: 101].astype(np.int64), prepend=0).astype(np.float64)
        r[0] = 1.0
        want = 3.0 * 100.0**-3 * float(np.sum(r * r))
        assert_close(got, want, rel=1e-12)

    def test_convergence_direction(self, series4):
        target = 96 * 1.2020569031595943
        d4 = abs(diagonal_partial_mean(series4, 10**4) / target - 1.0)
        assert d4 < 0.05

    def test_needs_positive_x(self, series4):
        with pytest.raises(ValueError):
            diagonal_partial_mean(series4, 0)


class TestHalfPower:
    def test_even_exact(self):
        n = np.array([0.0, 2.0, 3.0, 10.0])
        assert np.array_equal(half_power(n, 4), n * n)
        assert np.array_equal(half_power(n, 8), (n * n) * (n * n))

    def test_odd_matches_pow(self):
        n = np.array([1.0, 2.0, 7.0, 1000.0])
        got = half_power(n, 3)
        want = n**1.5
        assert float(np.max(np.abs(got / want - 1.0))) < 1e-14

    def test_zero(self):
        assert half_power(np.array([0.0]), 3)[0] == 0.0
        assert half_power(np.array([0.0]), 4)[0] == 0.0
