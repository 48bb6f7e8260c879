import hashlib
import math

import numpy as np
import pytest

from gausslab import theory
from gausslab.moments import Statistic
from gausslab.specfun import gamma_fn
from gausslab.theory import constants_for, nonspectral_E, predicted

from conftest import assert_close, zeta_eta_oracle


class TestConstants:
    def test_c3_prime_closed_form(self):
        # pi^2 / (3 zeta^(2)(3)) simplifies to 8 pi^2 / (21 zeta(3))
        want = 8.0 * math.pi**2 / (21.0 * zeta_eta_oracle(3.0))
        c3p = constants_for(3).c3_prime
        assert_close(c3p, want, rel=1e-11)
        assert_close(c3p, 3.12785, abs_=1e-5)

    def test_c4_closed_form(self):
        assert_close(constants_for(4).c_k, math.pi**4 / 6.0 + 2.0 * math.pi**2, rel=1e-12)

    def test_c4_prime_value(self):
        want = (
            16.0
            * (9.0 * math.sqrt(2.0) - 8.0)
            * zeta_eta_oracle(0.5)
            * zeta_eta_oracle(1.5) ** 2
            * zeta_eta_oracle(2.5)
            / (7.0 * math.pi**2 * zeta_eta_oracle(3.0))
        )
        c4p = constants_for(4).c4_prime
        assert_close(c4p, want, rel=1e-10)
        assert_close(c4p, -12.178, abs_=1e-3)

    def test_signs(self):
        c3 = constants_for(3)
        assert c3.c3_prime > 0 and c3.laplace_gap < 0 and c3.c_k is None
        assert c3.c4_prime is None and c3.integral_gap == -math.pi**2 / 3.0
        for k in range(4, 9):
            ck = constants_for(k)
            assert ck.c_k > 0 and ck.laplace_gap < 0
            assert ck.c3_prime is None and ck.integral_gap is None
        assert constants_for(4).c4_prime < 0
        assert constants_for(5).c4_prime is None

    def test_diagonal_residue_simplifications(self):
        # k=4: pi^4 zeta(3) / (zeta^(2)(4) Gamma(2)^2) = 96 zeta(3)
        assert_close(constants_for(4).diagonal_residue, 96.0 * zeta_eta_oracle(3.0), rel=1e-11)
        # k=3: pi^3 zeta(2) / (zeta^(2)(3) Gamma(3/2)^2) = 16 pi^4 / (21 zeta(3))
        assert_close(
            constants_for(3).diagonal_residue,
            16.0 * math.pi**4 / (21.0 * zeta_eta_oracle(3.0)),
            rel=1e-11,
        )
        assert_close(constants_for(3).diagonal_residue, 61.74, abs_=0.01)

    def test_laplace_gap_closed_forms(self):
        assert_close(constants_for(3).laplace_gap, -2.0 * math.pi**2 / 3.0, rel=1e-12)
        assert_close(constants_for(4).laplace_gap, -math.pi**4 / 3.0, rel=1e-12)

    def test_first_moment_coeff(self):
        assert_close(constants_for(3).first_moment_coeff, math.pi, rel=1e-12)
        assert_close(constants_for(4).first_moment_coeff, math.pi**2, rel=1e-12)

    def test_range(self):
        with pytest.raises(ValueError):
            constants_for(2)
        with pytest.raises(ValueError):
            constants_for(9)

    def test_any_integer_k(self):
        assert constants_for(np.int64(4)) == constants_for(4)
        assert constants_for(4) is constants_for(4)  # one shared set per k
        for bad in (True, 4.0):
            with pytest.raises(ValueError, match="outside"):
                constants_for(bad)

    def test_rows_cover_present_fields(self):
        names = [name for name, _ in constants_for(4).rows()]
        assert "c4_prime" in names and "c_k" in names and "c3_prime" not in names


SMOOTH = Statistic.SMOOTH_SECOND
SHARP = Statistic.SHARP_SECOND
LAPLACE = Statistic.LAPLACE_SECOND
INTEGRAL = Statistic.SHARP_INTEGRAL_SECOND


class TestPredicted:
    def test_smooth_k3_at_one(self):
        consts = constants_for(3)
        want = consts.c3_prime * (1.0 - consts.euler_gamma) + 10.6
        assert_close(predicted(SMOOTH, 3, 1.0, 10.6), want, rel=1e-13)
        assert_close(predicted(SMOOTH, 3, 1.0, 10.6), 11.923, abs_=2e-3)

    def test_smooth_k4_at_ten(self):
        consts = constants_for(4)
        lead = consts.c_k * gamma_fn(3.0) * 10.0**3
        second = consts.c4_prime * gamma_fn(2.5) * 10.0**2.5
        assert_close(predicted(SMOOTH, 4, 10.0), lead + second, rel=1e-13)
        assert_close(lead, 71948.0, abs_=1.0)
        assert_close(second, -5119.0, abs_=1.0)

    def test_smooth_k5_at_one(self):
        assert_close(predicted(SMOOTH, 5, 1.0), 6.0 * constants_for(5).c_k, rel=1e-13)

    def test_laplace_gap_identity_k3(self):
        for x in (1.0, 7.5, 120.0):
            gap = predicted(LAPLACE, 3, x, 10.6) - predicted(SMOOTH, 3, x, 10.6)
            assert_close(gap, -(2.0 * math.pi**2 / 3.0) * x**2, rel=1e-12)

    def test_laplace_gap_identity_k4(self):
        for x in (2.0, 31.0):
            gap = predicted(LAPLACE, 4, x) - predicted(SMOOTH, 4, x)
            assert_close(gap, -(math.pi**4 / 3.0) * x**3, rel=1e-12)

    def test_laplace_at_zero(self):
        assert predicted(LAPLACE, 4, 0.0) == 0.0

    @pytest.mark.parametrize("k", range(3, 9))
    def test_zero_scale_gives_positive_zero(self, k):
        c3 = 10.6 if k == 3 else None
        assert repr(predicted(LAPLACE, k, 0.0, c3)) == "0.0"
        assert repr(predicted(Statistic.SMOOTH_WEIGHTED_FIRST, k, 0.0)) == "0.0"

    def test_sharp_weighted_first(self):
        assert predicted(Statistic.SHARP_WEIGHTED_FIRST, 3, 10.0) == math.pi / 2.0 * 100.0
        assert predicted(Statistic.SHARP_WEIGHTED_FIRST, 3, 0.0) == 0.0

    def test_sharp_log_root(self):
        x = math.exp(0.5)
        assert abs(predicted(SHARP, 3, x, 0.0)) <= 1e-12 * x**2

    def test_sharp_k4(self):
        assert_close(predicted(SHARP, 4, 10.0), constants_for(4).c_k / 3.0 * 10.0**3, rel=1e-13)

    def test_sharp_k3_at_1e4(self):
        got = predicted(SHARP, 3, 1e4, 10.6)
        assert_close(got, 1.885e9, rel=5e-3)

    def test_integral_minus_sharp_is_constant_gap(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = float(rng.uniform(2.0, 1e5))
            c3 = float(rng.uniform(-20.0, 20.0))
            diff = predicted(INTEGRAL, 3, x, c3) - predicted(SHARP, 3, x, c3)
            assert_close(diff, -(math.pi**2 / 3.0) * x**2, rel=1e-11, label=f"x={x}")

    def test_integral_at_one(self):
        c3 = 10.6
        c3p = constants_for(3).c3_prime
        assert_close(predicted(INTEGRAL, 3, 1.0, c3), c3 / 2.0 - c3p / 4.0 - math.pi**2 / 3.0, rel=1e-12)

    def test_integral_at_1e3(self):
        assert_close(predicted(INTEGRAL, 3, 1e3, 10.6), 1.203e7, rel=2e-3)

    def test_integer_types_of_k(self):
        assert predicted(SMOOTH, np.int64(4), 10.0) == predicted(SMOOTH, 4, 10.0)
        assert predicted(SMOOTH, 4.0, 10.0) is None


class TestPredictedEntryPoint:
    """theory.predicted, the one map from a statistic to its main term."""

    # every statistic x k = 1..8 x c3 absent or 10.56 x X = 0 and 500
    # log-uniform X in [1, 1e7]; each cell "" (no main term) or .17g, as the
    # moments CSV writes predicted_value
    PINNED = "7c42baa23d3b3a44be56867268d8c603422beecf7503f1d2435554f50be3ca35"

    def test_digest_unchanged(self):
        xs = [0.0, *(10.0 ** float(u) for u in np.random.default_rng(11).uniform(0.0, 7.0, 500))]
        digest = hashlib.sha256()
        for stat in Statistic:
            for k in range(1, 9):
                for c3 in (None, 10.56):
                    for x in xs:
                        value = theory.predicted(stat, k, x, c3)
                        cell = "" if value is None else format(value, ".17g")
                        digest.update(f"{stat.value},{k},{c3},{x!r},{cell}\n".encode())
        assert digest.hexdigest() == self.PINNED

    def test_where_no_main_term(self):
        for stat in Statistic:
            assert theory.predicted(stat, 2, 100.0, c3=10.56) is None
            assert theory.predicted(stat, 9, 100.0) is None
        for stat in (
            Statistic.SMOOTH_SECOND,
            Statistic.SHARP_SECOND,
            Statistic.LAPLACE_SECOND,
            Statistic.SHARP_INTEGRAL_SECOND,
        ):
            assert theory.predicted(stat, 3, 100.0) is None
        for stat in (Statistic.SHARP_INTEGRAL_SECOND, Statistic.SHARP_WEIGHTED_FIRST):
            assert theory.predicted(stat, 4, 100.0) is None

    def test_c3_ignored_off_dimension_3(self):
        x = 1234.5
        assert predicted(SHARP, 4, x, 10.56) == predicted(SHARP, 4, x)
        assert predicted(LAPLACE, 5, x, 10.56) == predicted(LAPLACE, 5, x)


class TestNonspectral:
    def test_k4_s2_direct_product(self):
        # recompute the displayed product from its factors
        from gausslab import specfun

        k, s = 4, 2.0
        want = (
            2.0
            * math.pi**k
            * gamma_fn(s + 1.0)
            * specfun.zeta(s + 1.0)
            * specfun.zeta(s + k)
            * (1.0 + 2.0 ** -(2 * s + k) - 2.0 ** -(s + k - 1))
            / (gamma_fn(k / 2.0) * gamma_fn(s + k / 2.0 + 1.0) * specfun.zeta_two_removed(float(k)))
        )
        assert_close(nonspectral_E(4, 2.0), want, rel=1e-13)

    def test_positive_for_positive_s(self):
        assert nonspectral_E(3, 4.0) > 0.0

    def test_pole_rejection(self):
        for bad in (0.0, -1.0, -2.0, -1.0000005):
            with pytest.raises(ValueError):
                nonspectral_E(3, bad)
        with pytest.raises(ValueError):
            nonspectral_E(3, 6.5)

    def test_near_pole_offsets_accepted(self):
        nonspectral_E(3, -1.0 + 1e-6)
        nonspectral_E(3, -1.0 - 1e-6)

    def test_denominator_gamma_zeros(self):
        # 1/Gamma(s + k/2 + 1) vanishes at half-integer s for odd k
        assert nonspectral_E(3, -2.5) == 0.0
        assert nonspectral_E(3, -3.5) == 0.0
