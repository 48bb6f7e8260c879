import hashlib
import math

import numpy as np
import pytest

from gausslab import dirichlet, specfun
from gausslab.dirichlet import (
    Cusp,
    l_theta,
    phi_closed,
    phi_di_sum,
    phi_series_identity_check,
    r4_euler_rhs,
    r4_identity_check,
    ramanujan_sum,
)
from gausslab.rk import build_rk_table
from gausslab.summation import BLOCK, CHUNK, block_compensated_sum

from conftest import allocated_peak, assert_close, sigma, zeta_eta_oracle


@pytest.fixture(scope="module")
def r1_table():
    return build_rk_table(1, 10**4)


@pytest.fixture(scope="module")
def r4_table():
    return build_rk_table(4, 2 * 10**5)


class TestLTheta:
    def test_k1_reduces_to_zeta(self, r1_table):
        # r_1 lives on squares: sum 2 (m^2)^{-(s - 1/2)} = 2 zeta(2s - 1)
        got = l_theta(r1_table, 2.0, 10**4)
        want = 2.0 * zeta_eta_oracle(3.0)
        assert abs(got.value - want) <= got.tail_bound
        assert got.tail_bound < 2e-4

    def test_single_term(self, r1_table, r4_table):
        for table in (r1_table, r4_table):
            got = l_theta(table, 3.0, 1)
            assert got.value == 2.0 * table.k

    def test_divergent_rejected(self, r1_table):
        with pytest.raises(ValueError):
            l_theta(r1_table, 1.0, 100)
        for m_max in (0, 10**4 + 1):
            with pytest.raises(ValueError, match="outside"):
                l_theta(r1_table, 2.0, m_max)

    def test_tail_infinite_below_five_fourths(self, r4_table):
        got = l_theta(r4_table, 1.2, 1000)
        assert math.isinf(got.tail_bound)


class TestR4Euler:
    def test_rhs_at_four(self):
        got = r4_euler_rhs(4.0)
        assert_close(got, 2.2124, abs_=1e-3)
        # and from an independent zeta route
        want = (
            (2.0**-6 - 5.0 * 2.0**-5 + 2.0**-3 + 1.0)
            * zeta_eta_oracle(2.0)
            * zeta_eta_oracle(3.0) ** 2
            * zeta_eta_oracle(4.0)
            / ((1.0 + 2.0**-3) * zeta_eta_oracle(6.0))
        )
        assert_close(got, want, rel=1e-11)

    def test_limit_is_one(self):
        assert_close(r4_euler_rhs(30.0), 1.0, abs_=1e-6)

    def test_s5_bracket(self):
        assert 1.0 < r4_euler_rhs(5.0) < 1.5

    def test_domain(self):
        with pytest.raises(ValueError):
            r4_euler_rhs(3.0)

    def test_fast_convergence_at_s6(self, r4_table):
        res = r4_identity_check(r4_table, 6.0, 10**4)
        assert res.discrepancy <= 1e-6 * res.rhs

    def test_single_term_lhs(self, r4_table):
        res = r4_identity_check(r4_table, 4.0, 1)
        assert res.lhs == 1.0  # (r_4(1)/8)^2 = 1

    def test_needs_k4(self, r1_table, r4_table):
        with pytest.raises(ValueError):
            r4_identity_check(r1_table, 4.0, 100)
        # and s >= 4, and m_max inside the table
        with pytest.raises(ValueError, match="s >= 4"):
            r4_identity_check(r4_table, 3.5, 100)
        for m_max in (0, 2 * 10**5 + 1):
            with pytest.raises(ValueError, match="outside"):
                r4_identity_check(r4_table, 4.0, m_max)

    @pytest.mark.parametrize("s", [4.0, 5.0, 6.0])
    @pytest.mark.parametrize("m_max", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + BLOCK + 7])
    def test_chunks_change_no_bit(self, r4_table, s, m_max):
        # one term, one short of a chunk, a whole chunk, one past it, and a
        # prefix ending mid-block in the third chunk
        got = r4_identity_check(r4_table, s, m_max)
        assert (got.lhs, got.discrepancy, got.tail_bound) == _r4_identity_whole_arrays(r4_table, s, m_max)

    def test_pass_allocates_no_term_array(self, table4_1m):
        # the whole-array formulas took 53 MB at 1e6 terms
        _, grown = allocated_peak(r4_identity_check, table4_1m, 4.0, 10**6)
        assert grown <= 4e6, grown


def _r4_identity_whole_arrays(table, s, m_max):
    """(lhs, discrepancy, tail_bound) of r4_identity_check from every term
    at once: the reference for its chunked pass."""
    m = np.arange(1, m_max + 1, dtype=np.float64)
    r4 = table.counts[1 : m_max + 1].astype(np.float64)
    terms = (r4 / 8.0) ** 2 / m**s
    lhs = block_compensated_sum(terms)
    rhs = r4_euler_rhs(s)
    log_term = np.log(m) + 1.0
    c = float(np.max(r4**2 / (m**2 * log_term**2)))
    a = s - 3.0
    big_l = math.log(float(m_max))
    trunc = (
        c
        / 64.0
        * float(m_max) ** -a
        * ((big_l + 1.0) ** 2 / a + 2.0 * (big_l + 1.0) / a**2 + 2.0 / a**3)
    )
    rounding = 8.0 * 2.22e-16 * lhs
    return lhs, abs(lhs - rhs), trunc + rounding + 4e-12 * abs(rhs)


def _scalar_phi_closed(cusp, h, s):
    """The closed forms one coefficient at a time over trial-division sigma."""
    z2 = specfun.zeta_two_removed(2.0 * s)
    nu = 1.0 - 2.0 * s
    if cusp is Cusp.ZERO:
        return sigma(nu, h, odd_only=True) / (4.0**s * z2)
    if cusp is Cusp.HALF:
        return (-1.0) ** (h % 2) * sigma(nu, h, odd_only=True) / (4.0**s * z2)
    t1 = 2.0 ** (2 - 4 * s) * (sigma(nu, h // 4) if h % 4 == 0 else 0.0)
    t2 = 2.0 ** (1 - 4 * s) * (sigma(nu, h // 2) if h % 2 == 0 else 0.0)
    return (t1 - t2) / z2


# sha256 of the float64 bytes of phi_di_sum(cusp, 64, 2.0, 400) for cusps 0,
# 1/2, inf and then cusp 1/2 with corrected=False, concatenated in that order
_DI_DIGEST = "6c12d4b58862010b9b29641fc94f10ab6d9b756c4c4a179db42a8207d38639ea"


def _phi_di_sum_exp(cusp, h_max, s, gamma_max, corrected=True):
    """phi_di_sum's values with one complex exp per (h, delta) pair, the
    direct formulation of the per-modulus DFT."""
    h_arr = np.arange(1, h_max + 1, dtype=np.float64)
    v = cusp.v
    prefactor = (math.gcd(v, 4 // v) / (4.0 * v)) ** s
    totals = np.zeros(h_max, dtype=np.complex128)
    for gamma in range(1, gamma_max + 1):
        deltas = dirichlet._admissible_deltas(cusp, gamma, corrected)
        if deltas.shape[0] == 0:
            continue
        gv = gamma * v
        phases = np.exp((2j * math.pi / gv) * np.outer(h_arr, deltas.astype(np.float64)))
        totals += float(gamma) ** (-2.0 * s) * phases.sum(axis=1)
    return (prefactor * totals).real


class TestPhiClosed:
    def test_shape_and_dtype(self):
        for cusp in Cusp:
            got = phi_closed(cusp, 7, 2.0)
            assert got.shape == (7,) and got.dtype == np.float64

    def test_infinity_vanishes_on_odd_h(self):
        for s in (0.75, 2.0, 3.0):
            vals = phi_closed(Cusp.INFINITY, 3, s)
            assert vals[1 - 1] == 0.0
            assert vals[3 - 1] == 0.0

    def test_cusp0_h1_s2(self):
        # 4^{-2} / zeta^(2)(4) = 6 / pi^4 = 0.0615959...
        assert_close(phi_closed(Cusp.ZERO, 1, 2.0)[0], 6.0 / math.pi**4, rel=1e-12)
        assert_close(phi_closed(Cusp.ZERO, 1, 2.0)[0], 0.0616, abs_=1e-4)

    def test_half_even_h_matches_cusp0(self):
        for s in (1.5, 2.0):
            assert phi_closed(Cusp.HALF, 2, s)[2 - 1] == phi_closed(Cusp.ZERO, 2, s)[2 - 1]

    def test_half_odd_h_flips_sign(self):
        assert phi_closed(Cusp.HALF, 3, 2.0)[3 - 1] == -phi_closed(Cusp.ZERO, 3, 2.0)[3 - 1]

    @pytest.mark.parametrize("s", [0.75, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("cusp", list(Cusp))
    def test_matches_scalar_formulas(self, cusp, s):
        got = phi_closed(cusp, 200, s)
        want = np.array([_scalar_phi_closed(cusp, h, s) for h in range(1, 201)])
        assert np.array_equal(got == 0.0, want == 0.0)
        nonzero = want != 0.0
        assert np.max(np.abs(got[nonzero] / want[nonzero] - 1.0)) <= 4e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            phi_closed(Cusp.ZERO, 1, 0.5)
        with pytest.raises(ValueError):
            phi_closed(Cusp.ZERO, 0, 2.0)


class TestPhiDiSum:
    def test_cusp0_matches_closed(self):
        values, tail = phi_di_sum(Cusp.ZERO, 1, 2.0, 400)
        assert abs(values[1 - 1] - phi_closed(Cusp.ZERO, 1, 2.0)[1 - 1]) <= tail

    def test_infinity_h1_vanishes(self):
        values, tail = phi_di_sum(Cusp.INFINITY, 1, 2.0, 400)
        assert abs(values[1 - 1]) <= tail

    def test_half_h3_sign_rule(self):
        values, tail = phi_di_sum(Cusp.HALF, 3, 2.0, 400)
        assert abs(values[3 - 1] - (-phi_closed(Cusp.ZERO, 3, 2.0)[3 - 1])) <= tail

    @pytest.mark.parametrize("cusp", list(Cusp))
    def test_all_cusps_small_h(self, cusp):
        values, tail = phi_di_sum(cusp, 12, 2.0, 300)
        assert values.dtype == np.float64 and values.shape == (12,)
        diff = np.abs(values - phi_closed(cusp, 12, 2.0))
        assert np.all(diff <= tail), f"cusp {cusp.label}: {diff.max():.2e} > {tail:.2e}"

    def test_erratum_discrimination_at_half(self):
        # with the missing-v congruence the delta sum at cusp 1/2 is empty,
        # so every coefficient collapses to zero and misses the closed form
        values, tail = phi_di_sum(Cusp.HALF, 12, 2.0, 300, corrected=False)
        hits = np.count_nonzero(np.abs(values - phi_closed(Cusp.HALF, 12, 2.0)) > 10.0 * tail)
        assert hits > 0

    def test_values_pinned(self):
        parts = [phi_di_sum(cusp, 64, 2.0, 400)[0] for cusp in Cusp]
        parts.append(phi_di_sum(Cusp.HALF, 64, 2.0, 400, corrected=False)[0])
        digest = hashlib.sha256()
        for part in parts:
            assert part.dtype == np.float64
            digest.update(part.tobytes())
        assert digest.hexdigest() == _DI_DIGEST

    def test_dft_matches_one_exp_per_pair(self):
        # at the pinned digest's inputs the DFT moves no value by more than 1e-15
        for cusp, corrected in [(cusp, True) for cusp in Cusp] + [(Cusp.HALF, False)]:
            got = phi_di_sum(cusp, 64, 2.0, 400, corrected=corrected)[0]
            want = _phi_di_sum_exp(cusp, 64, 2.0, 400, corrected=corrected)
            worst = float(np.max(np.abs(got - want)))
            assert worst <= 1e-15, f"cusp {cusp.label}, corrected={corrected}: {worst:.2e}"

    def test_nonreal_sum_raises(self, monkeypatch):
        # one residue per gamma breaks the delta -> -delta pairing that makes each inner sum real
        real_deltas = dirichlet._admissible_deltas
        monkeypatch.setattr(dirichlet, "_admissible_deltas", lambda *a: real_deltas(*a)[:1])
        with pytest.raises(ArithmeticError, match="nonreal"):
            phi_di_sum(Cusp.ZERO, 4, 2.0, 50)

    def test_gamma_max_floor(self):
        with pytest.raises(ValueError):
            phi_di_sum(Cusp.ZERO, 1, 2.0, 2)

    def test_h_max_floor(self):
        with pytest.raises(ValueError):
            phi_di_sum(Cusp.ZERO, 0, 2.0, 100)

    def test_divergent_rejected(self):
        with pytest.raises(ValueError):
            phi_di_sum(Cusp.ZERO, 1, 1.0, 100)


class TestRamanujan:
    def test_mobius_at_h1(self):
        # c_q(1) = mu(q)
        mu = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0, 10: 1, 12: 0, 30: -1}
        for q, want in mu.items():
            assert ramanujan_sum(q, 1) == want
        with pytest.raises(ValueError, match="positive"):
            ramanujan_sum(0, 1)

    def test_totient_when_q_divides_n(self):
        assert ramanujan_sum(6, 12) == 2  # phi(6)
        assert ramanujan_sum(5, 10) == 4  # phi(5)

    def test_matches_exponential_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            q = int(rng.integers(1, 80))
            n = int(rng.integers(0, 200))
            deltas = np.array([d for d in range(1, q + 1) if math.gcd(d, q) == 1])
            num = complex(np.sum(np.exp(2j * math.pi * n * deltas / q)))
            assert abs(num - ramanujan_sum(q, n)) < 1e-8, (q, n)


class TestSeriesIdentities:
    def test_half_carries_alternating_factor(self):
        rhs0 = phi_series_identity_check(Cusp.ZERO, 2.0, 3.0, 100).rhs
        rhs_half = phi_series_identity_check(Cusp.HALF, 2.0, 3.0, 100).rhs
        assert_close(rhs_half, (2.0 ** (1 - 3) - 1.0) * rhs0, rel=1e-13)
        assert_close(rhs_half / rhs0, -0.75, rel=1e-13)

    def test_infinity_two_power_structure(self):
        s, w = 2.0, 3.0
        res = phi_series_identity_check(Cusp.INFINITY, s, w, 100)
        want = (
            specfun.zeta(w)
            * specfun.zeta(w - 1.0 + 2.0 * s)
            * (4.0 ** (1.0 - w) - 2.0 ** (1.0 - w))
            / (2.0 ** (4.0 * s) * specfun.zeta_two_removed(2.0 * s))
        )
        assert_close(res.rhs, want, rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            phi_series_identity_check(Cusp.ZERO, 2.0, 1.0, 100)
        with pytest.raises(ValueError, match="h_max"):
            phi_series_identity_check(Cusp.ZERO, 2.0, 3.0, 1)
