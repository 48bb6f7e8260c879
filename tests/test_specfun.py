import math

import numpy as np
import pytest

from gausslab.specfun import ball_volume, euler_gamma, gamma_fn, zeta, zeta_two_removed

from conftest import assert_close, gamma_recurrence_oracle, zeta_eta_oracle


class TestZeta:
    def test_basel(self):
        assert_close(zeta(2.0), math.pi**2 / 6.0, rel=1e-13, label="zeta(2)")

    def test_zeta_four(self):
        assert_close(zeta(4.0), math.pi**4 / 90.0, rel=1e-13, label="zeta(4)")

    def test_half_against_eta_oracle(self):
        assert_close(zeta(0.5), zeta_eta_oracle(0.5), abs_=1e-12, label="zeta(1/2)")
        assert_close(zeta(0.5), -1.4603545088, abs_=1e-9, label="zeta(1/2) literal")

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 5.0, 0.25, 0.75, 7.5])
    def test_eta_oracle_crosscheck(self, s):
        assert_close(zeta(s), zeta_eta_oracle(s), rel=1e-12, abs_=1e-13, label=f"zeta({s})")

    @pytest.mark.parametrize("s", [-0.5, -1.0, -1.5, -1.999, -0.001])
    def test_continuation_against_reflection_oracle(self, s):
        # independent route: stdlib gamma and the eta-series oracle
        want = (
            2.0**s
            * math.pi ** (s - 1)
            * math.sin(math.pi * s / 2.0)
            * math.gamma(1.0 - s)
            * zeta_eta_oracle(1.0 - s)
        )
        assert_close(zeta(s), want, rel=1e-11, abs_=1e-12, label=f"zeta({s})")

    def test_trivial_zero(self):
        assert zeta(-2.0) == 0.0

    def test_pole_and_range_rejected(self):
        with pytest.raises(ValueError):
            zeta(1.0)
        with pytest.raises(ValueError):
            zeta(40.5)
        with pytest.raises(ValueError):
            zeta(-2.5)
        with pytest.raises(ValueError):
            zeta(math.inf)


class TestZetaTwoRemoved:
    def test_apery_factor(self):
        want = (1.0 - 2.0**-3) * zeta_eta_oracle(3.0)
        assert_close(zeta_two_removed(3.0), want, rel=1e-12, label="zeta2(3)")
        assert_close(zeta_two_removed(3.0), 1.0517998, abs_=5e-8, label="zeta2(3) literal")

    def test_closed_forms(self):
        assert_close(zeta_two_removed(4.0), math.pi**4 / 96.0, rel=1e-13)
        assert_close(zeta_two_removed(2.0), 0.75 * math.pi**2 / 6.0, rel=1e-13)

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 4.0, 11.0])
    def test_identity_with_zeta(self, s):
        # exact by construction, up to one rounding in the division
        ratio = zeta_two_removed(s) / (1.0 - 2.0**-s)
        assert_close(ratio, zeta(s), rel=5e-16, label=f"identity s={s}")


class TestGamma:
    def test_factorial(self):
        assert_close(gamma_fn(3.0), 2.0, rel=1e-13)
        assert_close(gamma_fn(1.0), 1.0, rel=1e-13)

    def test_half(self):
        assert_close(gamma_fn(0.5), math.sqrt(math.pi), rel=1e-13)

    def test_two_and_a_half(self):
        assert_close(gamma_fn(2.5), gamma_recurrence_oracle(2.5), rel=1e-13)
        assert_close(gamma_fn(2.5), 1.3293404, abs_=5e-8)

    def test_recurrence_grid(self):
        for x in np.linspace(0.5, 20.0, 50):
            x = float(x)
            assert_close(gamma_fn(x + 1.0), x * gamma_fn(x), rel=1e-12, label=f"x={x}")

    def test_reflection_region(self):
        assert_close(gamma_fn(-0.5), -2.0 * math.sqrt(math.pi), rel=1e-12)
        assert_close(gamma_fn(-4.5), math.gamma(-4.5), rel=1e-11)

    def test_poles_and_range_rejected(self):
        for bad in (0.0, -1.0, -3.0):
            with pytest.raises(ValueError):
                gamma_fn(bad)
        with pytest.raises(ValueError):
            gamma_fn(60.5)
        with pytest.raises(ValueError):
            gamma_fn(-5.5)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                gamma_fn(bad)


class TestEulerGamma:
    def test_literal(self):
        assert_close(euler_gamma(), 0.5772156649, abs_=1e-10)
        assert_close(1.0 - euler_gamma(), 0.4227843351, abs_=1e-10)

    def test_harmonic_sum_oracle(self):
        # H_N - ln N -> gamma, with the 1/2N - 1/12N^2 + 1/120N^4 correction
        n = 10**6
        harmonic = math.fsum(1.0 / m for m in range(1, n + 1))
        approx = harmonic - math.log(n) - 1.0 / (2 * n) + 1.0 / (12 * n**2) - 1.0 / (120 * n**4)
        assert_close(euler_gamma(), approx, abs_=1e-12, label="harmonic oracle")


class TestBallVolume:
    def test_low_dimensions(self):
        assert_close(ball_volume(1), 2.0, rel=1e-13)
        assert_close(ball_volume(2), math.pi, rel=1e-13)
        assert_close(ball_volume(3), 4.0 * math.pi / 3.0, rel=1e-13)
        assert_close(ball_volume(4), math.pi**2 / 2.0, rel=1e-13)

    def test_range(self):
        with pytest.raises(ValueError):
            ball_volume(0)
        with pytest.raises(ValueError):
            ball_volume(33)
        with pytest.raises(ValueError):
            ball_volume(2.0)
        with pytest.raises(ValueError):
            ball_volume(True)

    def test_numpy_integer_dimension(self):
        assert ball_volume(np.int64(3)) == ball_volume(3)
