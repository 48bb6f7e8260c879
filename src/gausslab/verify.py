"""Cross-check battery: every identity the library can test against itself.

Two scales: "quick" takes under a second; "full" runs the identity suite at
acceptance scale (about 7 s on one core of a 2-core box).  Each check returns
(passed, detail) and BATTERY names it; run_battery makes the CheckResult and
never stops early, so a broken build reports every failing identity by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dirichlet, moments, rk, specfun, theory
from .fit import recover_c3
from .dirichlet import Cusp
from .discrepancy import diagonal_partial_mean, prefix_counts

__all__ = ["CheckResult", "run_battery", "BATTERY"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


class _Tables:
    """Lazily built, shared tables; overrides let tests inject faults."""

    def __init__(self, overrides=None):
        self._cache: dict[tuple[int, int], rk.RkTable] = {}
        self._overrides = overrides or {}

    def get(self, k: int, n_max: int) -> rk.RkTable:
        if k in self._overrides and self._overrides[k].n_max >= n_max:
            return self._overrides[k]
        for (kk, nn), table in self._cache.items():
            if kk == k and nn >= n_max:
                return table
        table = rk.build_rk_table(k, n_max)
        self._cache[(k, n_max)] = table
        return table

    def series(self, k: int, n_max: int):
        return prefix_counts(self.get(k, n_max))


def check_specfun(quick: bool, tables: _Tables) -> tuple[bool, str]:
    worst = 0.0
    checks = [
        (specfun.zeta(2.0), math.pi**2 / 6.0),
        (specfun.zeta(4.0), math.pi**4 / 90.0),
        (specfun.zeta_two_removed(4.0), math.pi**4 / 96.0),
        (specfun.gamma_fn(3.0), 2.0),
        (specfun.gamma_fn(0.5), math.sqrt(math.pi)),
        (specfun.ball_volume(3), 4.0 * math.pi / 3.0),
    ]
    for got, want in checks:
        worst = max(worst, abs(got / want - 1.0))
    for x in (0.7, 1.3, 2.5, 7.0):
        lhs = specfun.gamma_fn(x) * specfun.gamma_fn(x + 0.5)
        rhs = 2.0 ** (1.0 - 2.0 * x) * math.sqrt(math.pi) * specfun.gamma_fn(2.0 * x)
        worst = max(worst, abs(lhs / rhs - 1.0))
    zs = [specfun.zeta(float(s)) for s in (10, 20, 30, 40)]
    monotone = all(a > b > 1.0 for a, b in zip(zs, zs[1:]))
    return worst < 1e-10 and monotone, f"worst rel dev {worst:.2e}, zeta monotone {monotone}"


def check_oracle_equivalence(quick: bool, tables: _Tables) -> tuple[bool, str]:
    n_max = 300 if quick else 2000
    reference = rk.rk_enumeration_tables(6, n_max)
    for k in range(1, 7):
        table = tables.get(k, n_max)
        got = table.counts.tolist()
        want = reference[k - 1]
        if got != want:
            bad = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
            return False, f"k={k}: mismatch at n={bad}: table {got[bad]} vs enumeration {want[bad]}"
    spots = 0
    for k, step in ((3, 29 if quick else 97), (4, 61 if quick else 199)):
        cap = min(n_max, 500)
        for n in range(0, cap + 1, step):
            if rk.rk_bruteforce(k, n) != int(tables.get(k, n_max).counts[n]):
                return False, f"bruteforce mismatch k={k} n={n}"
            spots += 1
    return True, f"k<=6 exact to n={n_max}, {spots} bruteforce spots"


def check_divisor_oracles(quick: bool, tables: _Tables) -> tuple[bool, str]:
    n_max = 10**4 if quick else 10**5
    sig1 = rk.sigma_table(1.0, n_max)
    r4 = tables.get(4, n_max).counts.astype(np.int64)
    jac = (8.0 * sig1).copy()
    jac[4::4] -= 32.0 * sig1[1 : n_max // 4 + 1]
    if not np.array_equal(r4[1:].astype(np.float64), jac[1:]):
        bad = int(np.argmax(r4[1:].astype(np.float64) != jac[1:])) + 1
        return False, f"r4 Jacobi mismatch at n={bad}"
    ones = np.zeros(n_max + 1)
    for d in range(1, n_max + 1):
        if d % 4 == 1:
            ones[d::d] += 1.0
        elif d % 4 == 3:
            ones[d::d] -= 1.0
    r2 = tables.get(2, n_max).counts.astype(np.float64)
    if not np.array_equal(r2[1:], 4.0 * ones[1:]):
        bad = int(np.argmax(r2[1:] != 4.0 * ones[1:])) + 1
        return False, f"r2 two-squares mismatch at n={bad}"
    return True, f"exact to n={n_max}"


def check_r4_multiplicativity(quick: bool, tables: _Tables) -> tuple[bool, str]:
    limit = 300 if quick else 10**3
    r4 = tables.get(4, limit * limit).counts
    eighth = (r4[: limit + 1] // np.uint64(8)).astype(np.int64)
    m = np.arange(1, limit + 1, dtype=np.int64)
    coprime = np.gcd.outer(m, m) == 1
    products = (r4[np.outer(m, m)] // np.uint64(8)).astype(np.int64)
    expected = np.outer(eighth[1:], eighth[1:])
    bad = coprime & (products != expected)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        return False, f"fails at ({int(m[i])}, {int(m[j])})"
    return True, f"all {int(coprime.sum())} coprime pairs <= {limit}"


def check_convolution_consistency(quick: bool, tables: _Tables) -> tuple[bool, str]:
    n_max = 2000 if quick else 10**4
    r5_a = rk.convolve_tables(tables.get(2, n_max), tables.get(3, n_max))
    r5_b = rk.convolve_tables(tables.get(4, n_max), tables.get(1, n_max))
    ok = r5_a == r5_b and r5_a == tables.get(5, n_max)
    return ok, f"r2*r3 == r4*r1 == build, n<={n_max}"


def check_r4_euler_identity(quick: bool, tables: _Tables) -> tuple[bool, str]:
    m_max = 10**5 if quick else 10**6
    table = tables.get(4, m_max)
    details = []
    ok = True
    for s in (4.0, 5.0, 6.0):
        res = dirichlet.r4_identity_check(table, s, m_max)
        ok &= res.passed
        details.append(f"s={s:.0f}: |lhs-rhs|={res.discrepancy:.2e} tail={res.tail_bound:.2e}")
    return ok, "; ".join(details)


def check_phi_cross(quick: bool, tables: _Tables) -> tuple[bool, str]:
    h_max = 16 if quick else 64
    gamma_max = 200 if quick else 400
    s = 2.0
    hs = list(range(1, h_max + 1))
    worst = 0.0
    for cusp in Cusp:
        values, tail = dirichlet.phi_di_sum_batch(cusp, hs, s, gamma_max)
        if float(np.max(np.abs(values.imag))) >= 1e-9:
            return False, f"nonreal sum at cusp {cusp.label}"
        for h, val in zip(hs, values.real):
            diff = abs(val - dirichlet.phi_closed(cusp, h, s))
            if diff > tail:
                return False, f"cusp {cusp.label} h={h}: diff {diff:.2e} > tail {tail:.2e}"
            worst = max(worst, diff / tail)
    return True, f"h<={h_max}, worst diff/tail {worst:.3f}"


def check_phi_erratum(quick: bool, tables: _Tables) -> tuple[bool, str]:
    h_max = 16 if quick else 64
    gamma_max = 200 if quick else 400
    s = 2.0
    hs = list(range(1, h_max + 1))
    values, tail = dirichlet.phi_di_sum_batch(Cusp.HALF, hs, s, gamma_max, corrected=False)
    hits = sum(
        1 for h, val in zip(hs, values.real) if abs(val - dirichlet.phi_closed(Cusp.HALF, h, s)) > 10.0 * tail
    )
    return hits > 0, f"published congruence variant breaks {hits}/{h_max} coefficients at cusp 1/2"


def check_ramanujan_reduction(quick: bool, tables: _Tables) -> tuple[bool, str]:
    rng = np.random.default_rng(20240601)
    pairs = 50 if quick else 200
    for _ in range(pairs):
        gamma = int(rng.integers(1, 120))
        h = int(rng.integers(1, 400))
        deltas = dirichlet._admissible_deltas(Cusp.ZERO, gamma, corrected=True)
        if deltas.shape[0] == 0:
            continue
        num = complex(np.sum(np.exp(2j * math.pi * h * deltas / gamma)))
        want = dirichlet.ramanujan_sum(gamma, h)
        if abs(num - want) > 1e-7 * max(1.0, abs(want)):
            return False, f"gamma={gamma} h={h}: {num} vs {want}"
    return True, f"{pairs} random (gamma, h) pairs"


def check_phi_series(quick: bool, tables: _Tables) -> tuple[bool, str]:
    ok = True
    details = []
    for cusp in Cusp:
        res = dirichlet.phi_series_identity_check(cusp, 2.0, 3.0, 10**4)
        ok &= res.discrepancy <= 2.0 * res.tail_bound
        details.append(f"{cusp.label}: diff {res.discrepancy:.2e} tail {res.tail_bound:.2e}")
    return ok, "; ".join(details)


def check_residue_cancellation(quick: bool, tables: _Tables) -> tuple[bool, str]:
    worst = 0.0
    for k in (3, 4, 5):
        res = theory.nonspectral_residue_minus1(k)
        target = -theory.constants_for(k).diagonal_residue
        worst = max(worst, abs(res - target) / abs(target))
    return worst <= 1e-6, f"worst rel dev {worst:.2e} (k=3,4,5)"


def check_laplace_gap(quick: bool, tables: _Tables) -> tuple[bool, str]:
    x3 = 2e3 if quick else 1e4
    x4 = 300.0 if quick else 1e3
    tol = 0.05 if quick else 0.02
    ok = True
    details = []
    for k, x in ((3, x3), (4, x4)):
        series = tables.series(k, moments.exp_cutoff(k, x))
        gap = (
            moments.laplace_second_moment(series, x).value
            - moments.smooth_second_moment(series, x).value
        ) / x ** (k - 1)
        target = theory.constants_for(k).laplace_gap
        dev = abs(gap / target - 1.0)
        ok &= dev <= tol
        details.append(f"k={k}: gap/X^{k-1} = {gap:.4f} vs {target:.4f} ({dev:.2%})")
    return ok, "; ".join(details)


def check_integral_gap(quick: bool, tables: _Tables) -> tuple[bool, str]:
    x = 10**4 if quick else 10**6
    tol = 0.25 if quick else 0.10
    series = tables.series(3, x)
    gap = (
        moments.sharp_integral_second_moment(series, x).value
        - moments.sharp_second_moment(series, x).value
    ) / float(x) ** 2
    target = theory.constants_for(3).integral_gap
    dev = abs(gap / target - 1.0)
    return dev <= tol, f"gap/X^2 = {gap:.4f} vs {target:.4f} ({dev:.2%})"


def check_first_moments(quick: bool, tables: _Tables) -> tuple[bool, str]:
    x_smooth = 2e3 if quick else 1e4
    x_sharp = 10**5 if quick else 10**6
    tol_smooth = 0.02 if quick else 0.01
    tol_sharp = 0.05
    series = tables.series(3, max(moments.exp_cutoff(3, x_smooth), x_sharp))
    sm = moments.smooth_weighted_first_moment(series, x_smooth).value / x_smooth**2
    sh = moments.sharp_weighted_first_moment_p3(series, x_sharp).value / float(x_sharp) ** 2
    dev_sm = abs(sm / math.pi - 1.0)
    dev_sh = abs(sh / (math.pi / 2.0) - 1.0)
    return (
        dev_sm <= tol_smooth and dev_sh <= tol_sharp,
        f"smooth/X^2 = {sm:.5f} vs pi ({dev_sm:.2%}); sharp/X^2 = {sh:.5f} vs pi/2 ({dev_sh:.2%})",
    )


def check_diagonal_mean(quick: bool, tables: _Tables) -> tuple[bool, str]:
    x = 10**5 if quick else 10**6
    tol = 0.10 if quick else 0.05
    series = tables.series(4, x)
    got = diagonal_partial_mean(series, x)
    target = theory.constants_for(4).diagonal_residue
    dev = abs(got / target - 1.0)
    decreasing = True
    if not quick:
        devs = [
            abs(diagonal_partial_mean(series, xx) / target - 1.0) for xx in (10**4, 10**5, 10**6)
        ]
        decreasing = devs[0] >= devs[-1]
    return dev <= tol and decreasing, f"{got:.4f} vs {target:.4f} ({dev:.2e}), decreasing {decreasing}"


def check_sign_changes(quick: bool, tables: _Tables) -> tuple[bool, str]:
    tops = (10**2, 10**3) if quick else (10**2, 10**3, 10**4)
    series = tables.series(3, 2 * max(tops))
    p = series.p_values()
    for x in tops:
        window = p[x : 2 * x + 1]
        if not (np.any(window > 0) and np.any(window < 0)):
            return False, f"no sign change in [{x}, {2 * x}]"
    return True, f"sign changes in every [X, 2X], X in {tops}"


def check_determinism(quick: bool, tables: _Tables) -> tuple[bool, str]:
    series = tables.series(3, moments.exp_cutoff(3, 500.0))
    a = moments.smooth_second_moment(series, 500.0)
    b = moments.smooth_second_moment(series, 500.0)
    lap_a = moments.laplace_second_moment(series, 300.0)
    lap_b = moments.laplace_second_moment(series, 300.0)
    ok = a.value == b.value and lap_a.value == lap_b.value
    return ok, "bit-identical recomputation"


def check_cache_roundtrip(quick: bool, tables: _Tables) -> tuple[bool, str]:
    import os
    import tempfile

    table = tables.get(3, 1000)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.rktb")
        rk.save_table(table, path)
        ok = rk.load_table(path) == table
        with open(path, "r+b") as fh:
            fh.seek(40)  # r_3(2) = 12 becomes 13
            fh.write(b"\x0d")
        try:
            rk.load_table(path)
            ok = False
        except rk.CacheChecksumError:
            pass
    return ok, "save/load bit-exact; a flipped payload byte is caught"


def check_overflow_abort(quick: bool, tables: _Tables) -> tuple[bool, str]:
    from .convolve import ConvolutionOverflowError

    try:
        if quick:
            # the doubled values 2^63 fit; the j = 2 sum 2^62 + 2 * 2^63 does not
            rk._square_step(np.full(8, 2**62, dtype=np.uint64))
            return False, "synthetic 2^64 + 2^62 sum not caught"
        # real path: dimension-8 counts pass 2^64 near n ~ 1e6 (16 sigma_3(n) ~ 16 n^3)
        rk.build_rk_table(8, 995_000)
        return False, "r_8 coefficient beyond 2^64 not caught"
    except ConvolutionOverflowError as exc:
        what = "synthetic sum" if quick else "r_8 build"
        return True, f"{what} aborts: {exc}"


def check_l_theta_consistency(quick: bool, tables: _Tables) -> tuple[bool, str]:
    m_max = 10**4 if quick else 10**5
    ok = True
    details = []
    for k, s in ((2, 2.0), (4, 2.0), (3, 1.6)):
        table = tables.get(k, 2 * m_max)
        a = dirichlet.l_theta(table, s, m_max)
        b = dirichlet.l_theta(table, s, 2 * m_max)
        ok &= abs(a.value - b.value) <= a.tail_bound
        details.append(f"k={k} s={s}: step {abs(a.value - b.value):.2e} tail {a.tail_bound:.2e}")
    return ok, "; ".join(details)


def check_fit_roundtrip(quick: bool, tables: _Tables) -> tuple[bool, str]:
    xs = [2e3 * 10 ** (j / 11.0) for j in range(12)]
    samples = [
        moments.MomentSample(3, x, moments.Statistic.SMOOTH_SECOND, theory.predicted_smooth(3, x, c3=10.6), 0.0)
        for x in xs
    ]
    c3, _ = recover_c3(samples)
    return abs(c3 - 10.6) < 1e-8, f"c3 = {c3!r}"


BATTERY: list[tuple[str, Callable[[bool, _Tables], tuple[bool, str]]]] = [
    ("specfun-closed-forms", check_specfun),
    ("rk-oracle-equivalence", check_oracle_equivalence),
    ("jacobi-and-two-squares", check_divisor_oracles),
    ("r4-multiplicativity", check_r4_multiplicativity),
    ("r5-convolution-consistency", check_convolution_consistency),
    ("cache-roundtrip", check_cache_roundtrip),
    ("u64-overflow-abort", check_overflow_abort),
    ("r4-euler-identity", check_r4_euler_identity),
    ("phi-closed-vs-di", check_phi_cross),
    ("phi-erratum-discrimination", check_phi_erratum),
    ("ramanujan-reduction", check_ramanujan_reduction),
    ("phi-series-identities", check_phi_series),
    ("nonspectral-residue-cancellation", check_residue_cancellation),
    ("integral-vs-sum-gap", check_integral_gap),
    ("weighted-first-moments", check_first_moments),
    ("laplace-gap", check_laplace_gap),
    ("diagonal-partial-mean", check_diagonal_mean),
    ("p3-sign-changes", check_sign_changes),
    ("moment-determinism", check_determinism),
    ("l-theta-self-consistency", check_l_theta_consistency),
    ("fit-synthetic-roundtrip", check_fit_roundtrip),
]


def run_battery(level: str = "quick", report=None) -> list[CheckResult]:
    """Run every check at the requested level; returns all results."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    quick = level == "quick"
    tables = _Tables()
    results = []
    for name, func in BATTERY:
        try:
            passed, detail = func(quick, tables)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"exception: {exc!r}"
        res = CheckResult(name, bool(passed), detail)
        results.append(res)
        if report is not None:
            report(res)
    return results
