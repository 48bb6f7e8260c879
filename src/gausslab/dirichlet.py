"""Truncated Dirichlet series and Eisenstein-coefficient identity checks.

Three families of checks live here, all real-argument:

* l_theta: the normalized series L(s) = sum r_k(n) / n^{s + k/2 - 1} from a
  table, with a certified truncation tail.

* The dimension-four Euler-product identity

    (1/64) sum_{m>=1} r_4(m)^2 / m^s
      = (2^{6-3s} - 5 2^{3-2s} + 2^{1-s} + 1)
        zeta(s-2) zeta(s-1)^2 zeta(s) / ((1 + 2^{1-s}) zeta(2s-2)),

  which follows from r_4(m)/8 being multiplicative.

* Fourier coefficients phi_{a,h}(s) of the weight-0 Eisenstein series at the
  three cusps 0, 1/2, infinity of Gamma_0(4), represented by 1/1, 1/2, 1/4.
  Each coefficient has a divisor-sum closed form (phi_closed) and a
  Kloosterman-type double sum (phi_di_sum, Deshouillers-Iwaniec 1982,
  p. 247), each evaluated for h = 1..h_max in one array; the published
  congruence condition there is missing a factor of v on the left, and both
  variants are implemented so the correction is checkable:

    corrected     gamma * delta * v == u v   (mod gcd(v^2, 4))
    as published  gamma * delta     == u v   (mod gcd(v^2, 4))

Divisor-sum convention: sigma_nu(h/c) = 0 whenever c does not divide h.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .rk import RkTable, divisor_sums
from .summation import CHUNK, _BlockSum, block_compensated_sum

__all__ = [
    "Cusp",
    "SeriesValue",
    "IdentityCheck",
    "l_theta",
    "r4_euler_rhs",
    "r4_identity_check",
    "phi_closed",
    "phi_di_sum",
    "phi_series_identity_check",
    "ramanujan_sum",
]


class Cusp(enum.Enum):
    """The three inequivalent cusps of Gamma_0(4) with fixed representatives."""

    ZERO = ("0", 1, 1)
    HALF = ("1/2", 1, 2)
    INFINITY = ("inf", 1, 4)

    def __init__(self, label: str, u: int, v: int):
        self.label = label
        self.u = u
        self.v = v


@dataclass(frozen=True)
class SeriesValue:
    value: float
    tail_bound: float


@dataclass(frozen=True)
class IdentityCheck:
    lhs: float
    rhs: float
    discrepancy: float
    tail_bound: float

    @property
    def passed(self) -> bool:
        return self.discrepancy <= self.tail_bound


def l_theta(table: RkTable, s: float, m_max: int) -> SeriesValue:
    """Truncated L(s) = sum_{n<=m_max} r_k(n) / n^{s + k/2 - 1}, for s > 1.

    The tail bound integrates the crude pointwise estimate
    r_k(n) <= 4^k n^{k/2 - 3/4} (k >= 2), finite only for s > 5/4; for k = 1
    the square support gives the exact-exponent bound M^{1-s}/(s-1).
    """
    s = float(s)
    if s <= 1.0:
        raise ValueError(f"l_theta: series diverges for s <= 1 (got {s})")
    if m_max < 1 or m_max > table.n_max:
        raise ValueError(f"m_max = {m_max} outside [1, {table.n_max}]")
    k = table.k
    n = np.arange(1, m_max + 1, dtype=np.float64)
    terms = table.counts[1 : m_max + 1].astype(np.float64) / n ** (s + k / 2.0 - 1.0)
    value = block_compensated_sum(terms)
    if k == 1:
        tail = float(m_max) ** (1.0 - s) / (s - 1.0)
    elif s > 1.25:
        tail = 4.0**k * float(m_max) ** (1.25 - s) / (s - 1.25)
    else:
        tail = math.inf
    return SeriesValue(value, tail)


def r4_euler_rhs(s: float) -> float:
    """Right-hand side of the dimension-four Euler-product identity, s > 3."""
    s = float(s)
    if s <= 3.0:
        raise ValueError(f"r4_euler_rhs: needs s > 3 (got {s})")
    zeta = specfun._zeta_unchecked  # 2s - 2 may exceed the public range
    two_factor = 2.0 ** (6 - 3 * s) - 5.0 * 2.0 ** (3 - 2 * s) + 2.0 ** (1 - s) + 1.0
    return (
        two_factor
        * zeta(s - 2.0)
        * zeta(s - 1.0) ** 2
        * zeta(s)
        / ((1.0 + 2.0 ** (1 - s)) * zeta(2.0 * s - 2.0))
    )


def r4_identity_check(table: RkTable, s: float, m_max: int) -> IdentityCheck:
    """Compare (1/64) sum_{m<=m_max} r_4(m)^2 / m^s with the Euler product.

    The bound is estimated, since c is calibrated on the table itself.  It has
    three parts: the truncation tail from r_4(m)^2 <= c m^2 (ln m + 1)^2, a
    compensated-summation rounding allowance (every term is >= 0, so the sum
    of magnitudes is lhs itself), and the zeta-evaluation tolerance of the
    right-hand side (the truncation tail alone drops below double rounding by
    s = 6).
    The terms are streamed CHUNK at a time: only the block partials of the
    sum and the running max for c stay.
    """
    if table.k != 4:
        raise ValueError("r4_identity_check needs a k = 4 table")
    s = float(s)
    if s < 4.0:
        raise ValueError(f"r4_identity_check: needs s >= 4 to bound tails (got {s})")
    if m_max < 1 or m_max > table.n_max:
        raise ValueError(f"m_max = {m_max} outside [1, {table.n_max}]")
    total, c = _BlockSum(m_max), 0.0
    for lo in range(0, m_max, CHUNK):
        hi = min(lo + CHUNK, m_max)
        m = np.arange(lo + 1, hi + 1, dtype=np.float64)
        r4 = table.counts[lo + 1 : hi + 1].astype(np.float64)
        terms = (r4 / 8.0) ** 2 / m**s
        total.feed(lo, terms)
        log_term = np.log(m) + 1.0
        c = max(c, float(np.max(r4**2 / (m**2 * log_term**2))))
    lhs, rhs = total.total(), r4_euler_rhs(s)

    a = s - 3.0
    big_l = math.log(float(m_max))
    trunc = (
        c
        / 64.0
        * float(m_max) ** -a
        * ((big_l + 1.0) ** 2 / a + 2.0 * (big_l + 1.0) / a**2 + 2.0 / a**3)
    )
    rounding = 8.0 * 2.22e-16 * lhs
    rhs_eval = 4e-12 * abs(rhs)
    return IdentityCheck(lhs, rhs, abs(lhs - rhs), trunc + rounding + rhs_eval)


def phi_closed(cusp: Cusp, h_max: int, s: float) -> np.ndarray:
    """Divisor-sum closed forms of the cusp coefficients phi_{a,h}(s) for
    h = 1..h_max (entry h - 1), s > 1/2:

      cusp 0:    sigma^(2)_{1-2s}(h) / (4^s zeta^(2)(2s))
      cusp 1/2:  (-1)^h sigma^(2)_{1-2s}(h) / (4^s zeta^(2)(2s))
      cusp inf:  (2^{2-4s} sigma_{1-2s}(h/4) - 2^{1-4s} sigma_{1-2s}(h/2))
                 / zeta^(2)(2s)
    """
    if h_max < 1:
        raise ValueError("phi_closed: h_max must be a positive integer")
    s = float(s)
    if s <= 0.5:
        raise ValueError(f"phi_closed: needs s > 1/2 (got {s})")
    z2 = specfun.zeta_two_removed(2.0 * s)
    powers = np.zeros(h_max + 1, dtype=np.float64)
    powers[1:] = np.arange(1.0, h_max + 1.0) ** (1.0 - 2.0 * s)
    if cusp is Cusp.INFINITY:
        sig = divisor_sums(powers[: h_max // 2 + 1])[1:]
        vals = np.zeros(h_max, dtype=np.float64)
        vals[3::4] = 2.0 ** (2 - 4 * s) * sig[: h_max // 4]
        vals[1::2] -= 2.0 ** (1 - 4 * s) * sig
        return vals / z2
    powers[2::2] = 0.0  # sigma^(2) sums over odd divisors only
    vals = divisor_sums(powers)[1:] / (4.0**s * z2)
    if cusp is Cusp.HALF:
        vals[::2] = -vals[::2]
    return vals


def _admissible_deltas(cusp: Cusp, gamma: int, corrected: bool) -> np.ndarray:
    """Residues delta mod gamma*v with (delta, gamma*v) = 1 satisfying the
    congruence variant; empty when the gamma itself is excluded."""
    u, v = cusp.u, cusp.v
    if math.gcd(gamma, 4 // v) != 1:
        return np.zeros(0, dtype=np.int64)
    gv = gamma * v
    delta = np.arange(1, gv + 1, dtype=np.int64)
    mask = np.gcd(delta, gv) == 1
    mod = math.gcd(v * v, 4)
    left = gamma * delta * v if corrected else gamma * delta
    mask &= (left - u * v) % mod == 0
    return delta[mask]


def phi_di_sum(
    cusp: Cusp, h_max: int, s: float, gamma_max: int, corrected: bool = True
) -> tuple[np.ndarray, float]:
    """Truncated Kloosterman-type double sums for h = 1..h_max (entry h - 1).

    Returns (values, tail_bound).  The values must be real: an imaginary part
    of 1e-9 or more raises ArithmeticError (it asserts the implementation, not
    the math).  The tail bound v * sum_{gamma > gamma_max} gamma^{1-2s}
    <= v gamma_max^{2-2s}/(2s-2) dominates the omitted terms since each inner
    sum has at most gamma*v unit-modulus summands.

    Each inner sum sum_delta e(h delta / gamma v), for every h at once, is
    gamma v times the inverse DFT of the indicator of the admissible delta
    mod gamma v, read at h mod gamma v.
    """
    import numpy.fft  # here, not at the top: the c3 commands never load it

    s = float(s)
    if s <= 1.0:
        raise ValueError(f"phi_di_sum: needs s > 1 (got {s})")
    if gamma_max < 4 or h_max < 1:
        raise ValueError("phi_di_sum: needs gamma_max >= 4 and h_max >= 1")
    h_arr = np.arange(1, h_max + 1, dtype=np.int64)
    v = cusp.v
    prefactor = (math.gcd(v, 4 // v) / (4.0 * v)) ** s
    totals = np.zeros(h_max, dtype=np.complex128)
    for gamma in range(1, gamma_max + 1):
        deltas = _admissible_deltas(cusp, gamma, corrected)
        if deltas.shape[0] == 0:
            continue
        gv = gamma * v
        indicator = np.zeros(gv, dtype=np.float64)
        indicator[deltas % gv] = 1.0
        inner = numpy.fft.ifft(indicator) * gv
        totals += float(gamma) ** (-2.0 * s) * inner[h_arr % gv]
    tail = v * float(gamma_max) ** (2.0 - 2.0 * s) / (2.0 * s - 2.0)
    values = prefactor * totals
    i = int(np.argmax(np.abs(values.imag)))
    if abs(values.imag[i]) >= 1e-9:
        raise ArithmeticError(f"phi_di_sum: nonreal value {values[i]} at cusp {cusp.label}, h = {i + 1}")
    return values.real, tail


def phi_series_identity_check(cusp: Cusp, s: float, w: float, h_max: int) -> IdentityCheck:
    """Check sum_h phi_{a,h}(s)/h^w against its zeta closed form:

      cusp 0:    zeta(w) zeta^(2)(w-1+2s) / (4^s zeta^(2)(2s))
      cusp 1/2:  (2^{1-w} - 1) zeta(w) zeta^(2)(w-1+2s) / (4^s zeta^(2)(2s))
      cusp inf:  zeta(w) zeta(w-1+2s) (4^{1-w} - 2^{1-w}) / (2^{4s} zeta^(2)(2s))

    with a harmonic tail bound from sigma_{-|nu|}(h) <= ln h + 1.
    """
    s, w = float(s), float(w)
    if w <= 1.0 or s <= 1.0:
        raise ValueError("phi_series_identity_check: needs s > 1 and w > 1")
    if h_max < 2:
        raise ValueError("h_max must be at least 2")
    zeta = specfun.zeta
    z2 = specfun.zeta_two_removed
    lhs = block_compensated_sum(phi_closed(cusp, h_max, s) * np.arange(1.0, h_max + 1.0) ** -w)
    if cusp in (Cusp.ZERO, Cusp.HALF):
        rhs = zeta(w) * z2(w - 1.0 + 2.0 * s) / (4.0**s * z2(2.0 * s))
        if cusp is Cusp.HALF:
            rhs *= 2.0 ** (1.0 - w) - 1.0
        coeff_scale = 1.0 / (4.0**s * abs(z2(2.0 * s)))
    else:
        rhs = (
            zeta(w)
            * zeta(w - 1.0 + 2.0 * s)
            * (4.0 ** (1.0 - w) - 2.0 ** (1.0 - w))
            / (2.0 ** (4.0 * s) * z2(2.0 * s))
        )
        coeff_scale = (2.0 ** (2 - 4 * s) + 2.0 ** (1 - 4 * s)) / abs(z2(2.0 * s))
    big_l = math.log(float(h_max))
    tail = coeff_scale * float(h_max) ** (1.0 - w) * ((big_l + 1.0) / (w - 1.0) + 1.0 / (w - 1.0) ** 2)
    return IdentityCheck(lhs, rhs, abs(lhs - rhs), tail)


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def ramanujan_sum(q: int, n: int) -> int:
    """c_q(n) = sum over d | gcd(q, n) of d * mu(q/d), exact integers."""
    if q < 1:
        raise ValueError("ramanujan_sum: q must be positive")
    g = math.gcd(q, n)
    total = 0
    d = 1
    while d * d <= g:
        if g % d == 0:
            total += d * _mobius(q // d)
            e = g // d
            if e != d:
                total += e * _mobius(q // e)
        d += 1
    return total
