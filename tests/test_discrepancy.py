import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from gausslab.discrepancy import (
    DiscrepancySeries,
    diagonal_partial_mean,
    half_power,
    prefix_counts,
    _minus_volume,
)
from gausslab.rk import RkTable, build_rk_table, rk_bruteforce
from gausslab.summation import BLOCK, CHUNK, block_compensated_sum

from conftest import allocated_peak, assert_close, exact_prefix


@pytest.fixture(scope="module")
def series3():
    return prefix_counts(build_rk_table(3, 10**4))


@pytest.fixture(scope="module")
def series4():
    return prefix_counts(build_rk_table(4, 10**4))


@pytest.fixture(scope="module")
def table8():
    """r_8 to 60,000: S_8 passes a multiple of 2^64 at n = 46,172 and 54,909
    (the next carry is at 60,766)."""
    return build_rk_table(8, 60_000)


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
        # S_1 = 1, 2^63 + 1, 2^64 + 1, 2^64 + 5: one carry, at n = 2
        counts = np.array([1, 2**63, 2**63, 4], dtype=np.uint64)
        series = prefix_counts(RkTable(k=1, n_max=3, counts=counts))
        assert series.wraps.tolist() == [2] and series.prefix.tolist() == [1, 2**63 + 1, 1, 5]
        assert series.wraps.dtype == np.int64 and not series.wraps.flags.writeable
        assert series.prefix_float().tolist() == [1.0, 2.0**63, 2.0**64, 2.0**64]

    def test_k8_overflow_n_matches_exact_running_sum(self, table8):
        exact = np.cumsum(table8.counts.astype(object))
        series = prefix_counts(table8)
        assert series.wraps.tolist() == [46_172, 54_909]
        assert [n for n in range(1, 60_001) if exact[n] // 2**64 > exact[n - 1] // 2**64] == [46_172, 54_909]
        carries = np.searchsorted(series.wraps, np.arange(60_001), "right")
        assert (series.prefix.astype(object) + carries.astype(object) * 2**64).tolist() == exact.tolist()


class TestPastTheCarry:
    """Every reader of the counts past S_8's first carry, against the
    Python-int S_8."""

    @pytest.fixture(scope="class")
    def series8(self, table8):
        return prefix_counts(table8)

    @pytest.fixture(scope="class")
    def exact(self, series8):
        return exact_prefix(series8)

    def test_p_values_round_once(self, series8, exact):
        # S_8 - V n^4 in exact arithmetic, rounded once: the volume n^4 V is
        # an integer above 2^53, so the difference of Python ints is exact
        n = np.arange(40_000, 60_001)
        vol = series8.v_k * half_power(n.astype(np.float64), 8)
        want = [float(s - int(v)) for s, v in zip(exact[n], vol)]
        assert series8.p_values(40_000, 60_001).tolist() == want
        # one-value ranges at and next to the carries
        for m in (46_171, 46_172, 54_909, 60_000):
            assert series8.p_values(m, m + 1).tolist() == [want[m - 40_000]]

    def test_prefix_float_within_one_ulp(self, series8, exact):
        idx = np.arange(40_000, 60_001, 7)
        want = np.array([float(s) for s in exact[idx]])
        for got in (series8.prefix_float(idx), series8.prefix_float(slice(40_000, 60_001, 7))):
            assert np.array_equal(got, series8.prefix_float()[idx])
            assert float(np.max(np.abs(got - want) / np.spacing(want))) <= 1.0

    def test_diagonal_partial_mean(self, series8, table8):
        rvals = table8.counts.astype(np.float64)
        want = 7 * 60_000.0**-7 * block_compensated_sum(rvals * rvals)
        assert diagonal_partial_mean(series8, 60_000) == want


class TestPAt:
    def test_origin(self, series3):
        assert series3.p_values(0, 1)[0] == 1.0

    def test_n4(self, series3):
        v3 = 4.0 * math.pi / 3.0
        p4 = series3.p_values(4, 5)[0]
        assert_close(p4, 33.0 - v3 * 8.0, rel=1e-13)
        assert_close(p4, -0.5103, abs_=1e-4)

    def test_k4_n1(self, series4):
        assert_close(series4.p_values(1, 2)[0], 9.0 - math.pi**2 / 2.0, rel=1e-13)

    def test_reconstruction_identity(self, series3):
        # P + V n^{k/2} == S to double rounding, on every n <= 1e4
        p = series3.p_values(0, series3.n_max + 1)
        n = np.arange(series3.n_max + 1, dtype=np.float64)
        s = p + series3.v_k * half_power(n, 3)
        exact = series3.prefix.astype(np.float64)
        assert float(np.max(np.abs(s - exact))) <= 1e-7  # ~eps * S_max

    def test_split_conversion_above_2_53(self):
        # fabricated prefix beyond 2^53: the 32/32 split keeps low-order bits
        big = 2**60 + 12345
        series = DiscrepancySeries(k=2, n_max=1, prefix=np.array([1, big], dtype=np.uint64), v_k=0.25)
        got = series.p_values(1, 2)[0]
        want = float(Fraction(big) - Fraction(0.25))
        assert_close(got, want, rel=1e-15)

    def test_split_paths_agree_above_2_53(self):
        # prefix_float rounds each count once
        rng = np.random.default_rng(7)
        prefix = np.sort(rng.integers(2**53, 2**64 - 1, 64, dtype=np.uint64))
        series = DiscrepancySeries(k=3, n_max=63, prefix=prefix, v_k=4.1887902047863905)
        assert series.prefix_float().tolist() == [float(int(v)) for v in prefix]
        # the volume cancels the high word exactly, so every low bit survives;
        # converting the count to float first would give 12288
        prefix = np.array([1, 2**60 + 12345], dtype=np.uint64)
        series = DiscrepancySeries(k=2, n_max=1, prefix=prefix, v_k=2.0**60)
        assert series.p_values(0, series.n_max + 1)[1] == 12345.0


class TestSlicedSeries:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_slices_change_no_bit(self, k):
        # three full slices and a partial one
        series = prefix_counts(build_rk_table(k, 3 * CHUNK + 7))
        whole = _minus_volume(series.prefix, series.v_k * half_power(np.arange(series.n_max + 1.0), k))
        assert np.array_equal(series.p_values(0, series.n_max + 1), whole)
        # a range that starts and ends mid-slice, across a slice boundary
        assert np.array_equal(series.p_values(CHUNK - 3, 2 * CHUNK + 5), whole[CHUNK - 3 : 2 * CHUNK + 5])

    def test_p_values_temporaries_stay_small(self, series3_big):
        # the c3 study's table size; unsliced, the temporaries reached 36 MB
        series = DiscrepancySeries(k=3, n_max=1_514_216, prefix=series3_big.prefix[: 1_514_217], v_k=series3_big.v_k)
        p, grown = allocated_peak(series.p_values, 0, series.n_max + 1)
        assert grown <= p.nbytes + 4e6, grown

    def test_series_is_frozen_and_keeps_no_p_k(self, series3):
        assert [f.name for f in dataclasses.fields(series3)] == ["k", "n_max", "prefix", "v_k", "wraps"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            series3.k = 4
        assert series3.p_values(10, 20) is not series3.p_values(10, 20)
        assert series3.p_values(7, 7).shape == (0,)
        for lo, hi in ((-1, 5), (5, 4), (0, series3.n_max + 2)):
            with pytest.raises(ValueError):
                series3.p_values(lo, hi)
        # the prefix is uint64 of length n_max + 1
        for prefix in (series3.prefix.astype(np.int64), series3.prefix[:-1]):
            with pytest.raises(ValueError, match="uint64 of length"):
                DiscrepancySeries(k=3, n_max=series3.n_max, prefix=prefix, v_k=series3.v_k)

    def test_prefix_float_gathers_before_converting(self, series3):
        idx = np.array([0, 5, 100, 10**4])
        got = series3.prefix_float(idx)
        assert got.shape == idx.shape and np.array_equal(got, series3.prefix_float()[idx])


class TestGaussBoundScan:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_discrepancy_stays_below_surface_order(self, k):
        # sanity scan: |P_k(n)| < c n^{(k-1)/2} with a small empirical c
        # (measured maxima ~3.6, 4.7, 5.7 at tiny n; a volume-term bug blows
        # this up by orders of magnitude)
        series = prefix_counts(build_rk_table(k, 10**4))
        p = series.p_values(0, series.n_max + 1)
        n = np.arange(1, 10**4 + 1, dtype=np.float64)
        ratio = np.abs(p[1:]) / n ** ((k - 1) / 2.0)
        assert float(ratio.max()) < 8.0


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
        # and X inside the series
        with pytest.raises(ValueError, match="outside"):
            diagonal_partial_mean(series4, 10**4 + 1)

    @pytest.mark.parametrize("x", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + BLOCK + 7])
    def test_chunks_change_no_bit(self, series4_1m, x):
        # the whole-array formula: r_k(0..X) at once
        rvals = np.empty(x + 1, dtype=np.float64)
        rvals[0] = float(series4_1m.prefix[0])
        rvals[1:] = (series4_1m.prefix[1 : x + 1] - series4_1m.prefix[:x]).astype(np.float64)
        want = 3 * float(x) ** -3 * block_compensated_sum(rvals * rvals)
        assert diagonal_partial_mean(series4_1m, x) == want

    def test_allocates_no_table_length_array(self, series4_1m):
        # the whole-array formula took 23 MB at X = 1e6
        _, grown = allocated_peak(diagonal_partial_mean, series4_1m, 10**6)
        assert grown <= 4e6, grown


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

    @pytest.mark.parametrize("k", range(1, 9))
    def test_equals_masked_form(self, k):
        # reference: for odd k the masked form that maps t = 0 to 1 before
        # the log and back to 0 after it; for even k a plain product
        t = np.random.default_rng(k).uniform(1e-3, 1e7, 100_000)
        if k % 2:
            safe = np.where(t > 0.0, t, 1.0)
            want = np.where(t > 0.0, np.exp((k / 2.0) * np.log(safe)), 0.0)
        else:
            want = np.ones_like(t)
            for _ in range(k // 2):
                want *= t
        assert np.array_equal(half_power(t, k), want)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_zero_without_warning(self, k):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert half_power(0.0, k) == 0.0
            assert np.array_equal(half_power(np.zeros(3), k), np.zeros(3))
