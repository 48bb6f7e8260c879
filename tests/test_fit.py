import numpy as np
import pytest

from gausslab import theory
from gausslab.fit import (
    BasisTerm,
    FitModel,
    RankDeficiencyError,
    Weighting,
    c3_standard_error,
    fit,
    recover_c3,
)
from gausslab.moments import MomentSample, Statistic, smooth_second_moment

from conftest import assert_close


def _samples(xs, values, stat=Statistic.SMOOTH_SECOND, k=3):
    return [MomentSample(k, x, stat, v, 0.0) for x, v in zip(xs, values)]


def _geometric(x0, x1, n):
    ratio = (x1 / x0) ** (1.0 / (n - 1))
    return [x0 * ratio**j for j in range(n)]


class TestFit:
    def test_exact_recovery(self):
        xs = np.array(_geometric(100.0, 5000.0, 12))
        a, b = 1.5639, 12.2
        values = a * xs**2 * np.log(xs) + b * xs**2
        model = FitModel(3, (BasisTerm.XK1_LOG, BasisTerm.XK1))
        res = fit(model, _samples(xs, values))
        assert_close(res.coefficients[0], a, rel=1e-8)
        assert_close(res.coefficients[1], b, rel=1e-8)
        assert res.samples_used == 12
        assert res.residual_rms < 1e-6

    def test_duplicate_descriptor_rejected(self):
        with pytest.raises(ValueError):
            FitModel(3, (BasisTerm.XK1, BasisTerm.XK1))

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError):
            FitModel(3, ())

    def test_too_few_samples(self):
        xs = [10.0, 20.0, 30.0]
        model = FitModel(3, (BasisTerm.XK1, BasisTerm.XK2))
        with pytest.raises(ValueError):
            fit(model, _samples(xs, [1.0, 2.0, 3.0]))

    def test_mixed_statistics_rejected(self):
        xs = _geometric(10.0, 100.0, 6)
        samples = _samples(xs, [1.0] * 6)
        samples[2] = MomentSample(3, xs[2], Statistic.SHARP_SECOND, 1.0, 0.0)
        with pytest.raises(ValueError):
            fit(FitModel(3, (BasisTerm.XK1,)), samples)

    def test_wrong_dimension_rejected(self):
        xs = _geometric(10.0, 100.0, 6)
        with pytest.raises(ValueError):
            fit(FitModel(4, (BasisTerm.XK1,)), _samples(xs, [1.0] * 6, k=3))

    def test_scaling_equivariance_power_of_two(self):
        xs = np.array(_geometric(50.0, 900.0, 10))
        values = 2.5 * xs**2 * np.log(xs) + 0.7 * xs**2 + 3.0 * xs
        model = FitModel(3, (BasisTerm.XK1_LOG, BasisTerm.XK1, BasisTerm.XK2))
        base = fit(model, _samples(xs, values))
        doubled = fit(model, _samples(xs, 2.0 * values))
        for c_base, c_scaled in zip(base.coefficients, doubled.coefficients):
            assert c_scaled == 2.0 * c_base

    def test_scaling_equivariance_general(self):
        xs = np.array(_geometric(50.0, 900.0, 10))
        values = 2.5 * xs**2 * np.log(xs) + 0.7 * xs**2
        model = FitModel(3, (BasisTerm.XK1_LOG, BasisTerm.XK1))
        base = fit(model, _samples(xs, values))
        scaled = fit(model, _samples(xs, 3.7 * values))
        for c_base, c_scaled in zip(base.coefficients, scaled.coefficients):
            assert_close(c_scaled, 3.7 * c_base, rel=1e-12)

    def test_rank_deficiency_reported(self):
        xs = [10.0, 10.0, 10.0, 20.0, 20.0, 20.0]  # two distinct X, four columns
        model = FitModel(
            3, (BasisTerm.XK1_LOG, BasisTerm.XK1, BasisTerm.XK2_LOG, BasisTerm.XK2)
        )
        with pytest.raises(RankDeficiencyError):
            fit(model, _samples(xs, [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]))

    def test_weighting_changes_solution_on_noisy_data(self):
        rng = np.random.default_rng(5)
        xs = np.array(_geometric(100.0, 10000.0, 14))
        values = 2.0 * xs**2 + rng.normal(0.0, 1.0, 14) * xs**2.5 * 1e-3
        uniform = fit(FitModel(3, (BasisTerm.XK1,), Weighting.UNIFORM), _samples(xs, values))
        relative = fit(
            FitModel(3, (BasisTerm.XK1,), Weighting.RELATIVE_TO_LEADING), _samples(xs, values)
        )
        assert uniform.coefficients != relative.coefficients


class TestRecoverC3:
    def test_synthetic_round_trip(self):
        xs = _geometric(2e3, 2e4, 12)
        values = [theory.predicted_smooth(3, x, c3=10.6) for x in xs]
        c3, diag = recover_c3(_samples(xs, values))
        assert_close(c3, 10.6, abs_=1e-9)
        assert diag.samples_used == 12

    def test_synthetic_sharp_round_trip(self):
        xs = [round(x) for x in _geometric(1e4, 1e5, 12)]
        values = [theory.predicted_sharp(3, x, c3=9.7) for x in xs]
        c3, _ = recover_c3(_samples(xs, values, stat=Statistic.SHARP_SECOND))
        assert_close(c3, 9.7, abs_=1e-6)

    @pytest.mark.parametrize("k", [4, 5])
    def test_synthetic_round_trip_higher_dimensions(self, k):
        from gausslab.specfun import gamma_fn

        xs = _geometric(300.0, 3000.0, 12)
        values = [theory.predicted_smooth(k, x) for x in xs]
        basis = (BasisTerm.XK1, BasisTerm.XK32) if k == 4 else (BasisTerm.XK1,)
        model = FitModel(k, basis, Weighting.RELATIVE_TO_LEADING)
        res = fit(model, _samples(xs, values, k=k))
        consts = theory.constants_for(k)
        assert_close(res.coefficients[0], consts.c_k * gamma_fn(k - 1.0), rel=1e-8)
        if k == 4:
            assert_close(res.coefficients[1], consts.c4_prime * gamma_fn(2.5), rel=1e-8)

    def test_standard_error_rejects_empty_samples(self):
        with pytest.raises(ValueError):
            c3_standard_error([])

    def test_standard_error_rejects_mixed_statistics(self):
        # one design per statistic; a mixed set has no single answer
        xs = _geometric(2e3, 2e4, 12)
        smooth = _samples(xs, [theory.predicted_smooth(3, x, c3=10.6) for x in xs])
        sharp = _samples(xs, [theory.predicted_sharp(3, x, c3=10.6) for x in xs], stat=Statistic.SHARP_SECOND)
        with pytest.raises(ValueError):
            c3_standard_error(smooth + sharp)
        with pytest.raises(ValueError):
            recover_c3(smooth + sharp)

    def test_standard_error_checks_like_recover_c3(self):
        xs = _geometric(1e4, 5e4, 8)  # less than a decade
        values = [theory.predicted_smooth(3, x, c3=10.6) for x in xs]
        with pytest.raises(ValueError):
            c3_standard_error(_samples(xs, values))
        xs = _geometric(2e3, 2e4, 12)
        with pytest.raises(ValueError):
            c3_standard_error(_samples(xs, [1.0] * 12, stat=Statistic.LAPLACE_SECOND))

    def test_span_preconditions(self):
        xs = _geometric(1e4, 5e4, 8)  # less than a decade
        values = [theory.predicted_smooth(3, x, c3=10.6) for x in xs]
        with pytest.raises(ValueError):
            recover_c3(_samples(xs, values))
        xs = _geometric(2e2, 5e3, 8)  # decade but max too small
        values = [theory.predicted_smooth(3, x, c3=10.6) for x in xs]
        with pytest.raises(ValueError):
            recover_c3(_samples(xs, values))

    @pytest.mark.parametrize(
        "x0, x1, points",
        [
            (1979.0371701673512, 19790.37170167351, 12),  # max/min = 9.999999999999998
            (1000.0, 10000.0, 13),  # max = 9999.99999999999
        ],
    )
    def test_one_decade_grid_accepted_despite_rounding(self, x0, x1, points):
        xs = _geometric(x0, x1, points)
        assert xs[-1] / xs[0] < 10.0 or xs[-1] < 1e4
        values = [theory.predicted_smooth(3, x, c3=10.6) for x in xs]
        c3, _ = recover_c3(_samples(xs, values))
        assert_close(c3, 10.6, abs_=1e-9)

    def test_wrong_statistic_rejected(self):
        xs = _geometric(2e3, 2e4, 8)
        samples = _samples(xs, [1.0] * 8, stat=Statistic.LAPLACE_SECOND)
        with pytest.raises(ValueError):
            recover_c3(samples)

    def test_free_fit_lead_matches_c3_prime(self, series3_big):
        # unconstrained three-term fit still sees the proven log coefficient
        xs = _geometric(2e3, 2e4, 12)
        samples = [smooth_second_moment(series3_big, x) for x in xs]
        model = FitModel(
            3, (BasisTerm.XK1_LOG, BasisTerm.XK1, BasisTerm.XK2), Weighting.RELATIVE_TO_LEADING
        )
        res = fit(model, samples)
        assert_close(res.coefficients[0], theory.constants_for(3).c3_prime, rel=0.01)

    def test_stability_against_dropping_top_sample(self, series3_big):
        # wide enough that a decade of span survives dropping the top point
        xs = _geometric(1.5e3, 3e4, 13)
        samples = [smooth_second_moment(series3_big, x) for x in xs]
        c3_full, _ = recover_c3(samples)
        c3_drop, _ = recover_c3(samples[:-1])
        interval = c3_standard_error(samples)
        assert abs(c3_full - c3_drop) < max(interval, 1e-3)
