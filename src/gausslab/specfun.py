"""Double-precision special functions: Riemann zeta, gamma, and ball volumes.

Everything here is plain deterministic float64 arithmetic -- no arbitrary
precision, no external libraries.  Target accuracy is ~1e-12 relative (or
absolute where the true value is below 1), which is enough headroom for the
asymptotic-constant work built on top.

zeta(s) uses Euler-Maclaurin summation: a direct sum of 64 terms plus
correction terms through B_24, which leaves the remainder far below double
rounding on the whole supported range.  For s < -1/2 the reflection formula

    zeta(s) = 2^s pi^(s-1) sin(pi s / 2) Gamma(1-s) zeta(1-s)

avoids the catastrophic cancellation the raw Euler-Maclaurin tail corrections
would suffer against the growing direct terms.

gamma_fn(x) is a Lanczos rational approximation (g = 7, 9 coefficients) with
reflection for x < 1/2.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

__all__ = [
    "zeta",
    "zeta_two_removed",
    "gamma_fn",
    "euler_gamma",
    "ball_volume",
]

ZETA_MIN_S = -2.0
ZETA_MAX_S = 40.0
GAMMA_MIN_X = -5.0
GAMMA_MAX_X = 60.0
BALL_MAX_K = 32

_EM_DIRECT_TERMS = 64  # direct sum cutoff N
_EM_PAIRS = 12  # Bernoulli corrections through B_24


def _bernoulli_over_factorial(pairs: int) -> tuple[float, ...]:
    """B_{2j}/(2j)! for j = 1..pairs, computed exactly and rounded once."""
    bern = [Fraction(1)]
    for m in range(1, 2 * pairs + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * bern[j]
        bern.append(-acc / (m + 1))
    return tuple(float(bern[2 * j] / math.factorial(2 * j)) for j in range(1, pairs + 1))


_EM_COEFFS = _bernoulli_over_factorial(_EM_PAIRS)

# Euler-Mascheroni constant, 30 significant digits.
_EULER_GAMMA = 0.577215664901532860606512090082

_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _zeta_euler_maclaurin(s: float) -> float:
    """Euler-Maclaurin evaluation, accurate for s > -1/2 and s != 1."""
    n = _EM_DIRECT_TERMS
    terms = [float(m) ** -s for m in range(1, n)]
    terms.append(n ** (1.0 - s) / (s - 1.0))
    terms.append(0.5 * n**-s)
    rising = s  # s(s+1)...(s+2j-2), extended two factors per correction
    npow = float(n) ** (-s - 1.0)
    for j, coeff in enumerate(_EM_COEFFS, start=1):
        terms.append(coeff * rising * npow)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        npow /= n * n
    return math.fsum(terms)


def _zeta_unchecked(s: float) -> float:
    """zeta(s) without the public range guard; usable on roughly [-21, 700]."""
    if s >= -0.5:
        return _zeta_euler_maclaurin(s)
    if s == round(s) and int(round(s)) % 2 == 0:
        return 0.0  # trivial zeros
    return (
        2.0**s
        * math.pi ** (s - 1.0)
        * math.sin(math.pi * s / 2.0)
        * gamma_fn(1.0 - s)
        * _zeta_euler_maclaurin(1.0 - s)
    )


def zeta(s: float) -> float:
    """Riemann zeta at real s in [-2, 40], s != 1.

    Relative error <= 1e-12 (absolute where |zeta(s)| < 1).
    """
    s = float(s)
    if not math.isfinite(s):
        raise ValueError("zeta: s must be finite")
    if s == 1.0:
        raise ValueError("zeta: pole at s = 1")
    if not (ZETA_MIN_S <= s <= ZETA_MAX_S):
        raise ValueError(f"zeta: s = {s} outside supported range [{ZETA_MIN_S}, {ZETA_MAX_S}]")
    return _zeta_unchecked(s)


def zeta_two_removed(s: float) -> float:
    """zeta(s) with its Euler factor at 2 removed: zeta(s) * (1 - 2^-s)."""
    return zeta(s) * (1.0 - 2.0 ** -float(s))


def gamma_fn(x: float) -> float:
    """Gamma(x) for real x in [-5, 60], x not a nonpositive integer.

    Lanczos approximation (g = 7, 9 terms); reflection below 1/2.  Relative
    error <= 1e-12 over the supported range.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("gamma_fn: x must be finite")
    if x <= 0.0 and x == round(x):
        raise ValueError(f"gamma_fn: pole at nonpositive integer x = {x}")
    if not (GAMMA_MIN_X <= x <= GAMMA_MAX_X):
        raise ValueError(f"gamma_fn: x = {x} outside supported range [{GAMMA_MIN_X}, {GAMMA_MAX_X}]")
    return _gamma_lanczos(x)


def _gamma_lanczos(x: float) -> float:
    if x < 0.5:
        return math.pi / (math.sin(math.pi * x) * _gamma_lanczos(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc


def euler_gamma() -> float:
    """The Euler-Mascheroni constant (embedded literal, 30 digits)."""
    return _EULER_GAMMA


def as_int(value) -> int | None:
    """value as a Python int if it is an integer (numpy ones too) but not a bool, else None."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def ball_volume(k: int) -> float:
    """Volume of the unit ball in dimension k: pi^(k/2) / Gamma(k/2 + 1)."""
    k_int = as_int(k)
    if k_int is None or not (1 <= k_int <= BALL_MAX_K):
        raise ValueError(f"ball_volume: k = {k} outside [1, {BALL_MAX_K}]")
    return math.pi ** (k_int / 2.0) / gamma_fn(k_int / 2.0 + 1.0)
