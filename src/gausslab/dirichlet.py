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
  Each coefficient has a divisor-sum closed form and a Kloosterman-type
  double-sum expression (Deshouillers-Iwaniec 1982, p. 247); the published
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
from .rk import RkTable, sigma, sigma_table
from .summation import block_compensated_sum

__all__ = [
    "Cusp",
    "SeriesValue",
    "IdentityCheck",
    "l_theta",
    "r4_euler_rhs",
    "r4_identity_check",
    "phi_closed",
    "phi_di_sum",
    "phi_di_sum_batch",
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
    compensated-summation rounding allowance, and the zeta-evaluation
    tolerance of the right-hand side (the truncation tail alone drops below
    double rounding by s = 6).
    """
    if table.k != 4:
        raise ValueError("r4_identity_check needs a k = 4 table")
    s = float(s)
    if s < 4.0:
        raise ValueError(f"r4_identity_check: needs s >= 4 to bound tails (got {s})")
    if m_max < 1 or m_max > table.n_max:
        raise ValueError(f"m_max = {m_max} outside [1, {table.n_max}]")
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
    rounding = 8.0 * 2.22e-16 * float(np.sum(np.abs(terms)))
    rhs_eval = 4e-12 * abs(rhs)
    return IdentityCheck(lhs, rhs, abs(lhs - rhs), trunc + rounding + rhs_eval)


def _sigma_fractional(nu: float, h: int, c: int) -> float:
    """sigma_nu(h/c) under the convention that c must divide h."""
    if h % c:
        return 0.0
    return sigma(nu, h // c)


def phi_closed(cusp: Cusp, h: int, s: float) -> float:
    """Divisor-sum closed form of the cusp coefficient phi_{a,h}(s), s > 1/2:

      cusp 0:    sigma^(2)_{1-2s}(h) / (4^s zeta^(2)(2s))
      cusp 1/2:  (-1)^h sigma^(2)_{1-2s}(h) / (4^s zeta^(2)(2s))
      cusp inf:  (2^{2-4s} sigma_{1-2s}(h/4) - 2^{1-4s} sigma_{1-2s}(h/2))
                 / zeta^(2)(2s)
    """
    if h < 1:
        raise ValueError("phi_closed: h must be a positive integer")
    s = float(s)
    if s <= 0.5:
        raise ValueError(f"phi_closed: needs s > 1/2 (got {s})")
    z2 = specfun.zeta_two_removed(2.0 * s)
    nu = 1.0 - 2.0 * s
    if cusp is Cusp.ZERO:
        return sigma(nu, h, odd_only=True) / (4.0**s * z2)
    if cusp is Cusp.HALF:
        return (-1.0) ** (h % 2) * sigma(nu, h, odd_only=True) / (4.0**s * z2)
    t1 = 2.0 ** (2 - 4 * s) * _sigma_fractional(nu, h, 4)
    t2 = 2.0 ** (1 - 4 * s) * _sigma_fractional(nu, h, 2)
    return (t1 - t2) / z2


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


def phi_di_sum_batch(
    cusp: Cusp, h_values, s: float, gamma_max: int, corrected: bool = True
) -> tuple[np.ndarray, float]:
    """Truncated Kloosterman-type double sums for several h at once.

    Returns (values, tail_bound); values are complex, one per h.  The tail
    bound v * sum_{gamma > gamma_max} gamma^{1-2s} <= v gamma_max^{2-2s}/(2s-2)
    dominates the omitted terms since each inner sum has at most gamma*v
    unit-modulus summands.
    """
    s = float(s)
    if s <= 1.0:
        raise ValueError(f"phi_di_sum: needs s > 1 (got {s})")
    if gamma_max < 4:
        raise ValueError("phi_di_sum: gamma_max must be at least 4")
    h_arr = np.asarray(list(h_values), dtype=np.float64)
    u, v = cusp.u, cusp.v
    prefactor = (math.gcd(v, 4 // v) / (4.0 * v)) ** s
    totals = np.zeros(h_arr.shape[0], dtype=np.complex128)
    for gamma in range(1, gamma_max + 1):
        deltas = _admissible_deltas(cusp, gamma, corrected)
        if deltas.shape[0] == 0:
            continue
        gv = gamma * v
        phases = np.exp((2j * math.pi / gv) * np.outer(h_arr, deltas.astype(np.float64)))
        totals += float(gamma) ** (-2.0 * s) * phases.sum(axis=1)
    tail = v * float(gamma_max) ** (2.0 - 2.0 * s) / (2.0 * s - 2.0)
    return prefactor * totals, tail


def phi_di_sum(
    cusp: Cusp, h: int, s: float, gamma_max: int, corrected: bool = True
) -> SeriesValue:
    """One truncated cusp-coefficient double sum; the result must be real
    (imaginary part below 1e-9 asserts the implementation, not the math)."""
    values, tail = phi_di_sum_batch(cusp, [h], s, gamma_max, corrected)
    value = complex(values[0])
    if abs(value.imag) >= 1e-9:
        raise ArithmeticError(
            f"phi_di_sum: nonreal value {value} at cusp {cusp.label}, h = {h}"
        )
    return SeriesValue(value.real, tail)


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
    nu = 1.0 - 2.0 * s
    h = np.arange(1, h_max + 1, dtype=np.float64)
    hw = h**-w
    if cusp in (Cusp.ZERO, Cusp.HALF):
        sig = sigma_table(nu, h_max, odd_only=True)[1:]
        if cusp is Cusp.HALF:
            sig = sig * np.where(np.arange(1, h_max + 1) % 2 == 1, -1.0, 1.0)
        lhs = block_compensated_sum(sig * hw) / (4.0**s * z2(2.0 * s))
        rhs = zeta(w) * z2(w - 1.0 + 2.0 * s) / (4.0**s * z2(2.0 * s))
        if cusp is Cusp.HALF:
            rhs *= 2.0 ** (1.0 - w) - 1.0
        coeff_scale = 1.0 / (4.0**s * abs(z2(2.0 * s)))
    else:
        sig = sigma_table(nu, h_max)[1:]
        vals = np.zeros(h_max, dtype=np.float64)
        quarters = np.arange(4, h_max + 1, 4)
        vals[quarters - 1] += 2.0 ** (2 - 4 * s) * sig[quarters // 4 - 1]
        halves = np.arange(2, h_max + 1, 2)
        vals[halves - 1] -= 2.0 ** (1 - 4 * s) * sig[halves // 2 - 1]
        lhs = block_compensated_sum(vals * hw) / z2(2.0 * s)
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
