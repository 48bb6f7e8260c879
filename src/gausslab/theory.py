"""Explicit asymptotic constants and predicted main terms.

For the smoothed second moment sum P_k(n)^2 e^{-n/X} the main terms are

  k = 3:   C3' X^2 (ln X + 1 - gamma) + C3 X^2
  k = 4:   C4 Gamma(3) X^3 + C4' Gamma(5/2) X^{5/2}
  k >= 5:  C_k Gamma(k-1) X^{k-1}

with the closed forms

  C3' = pi^2 / (3 zeta^(2)(3))
  C4' = 16 (9 sqrt 2 - 8) zeta(1/2) zeta(3/2)^2 zeta(5/2) / (7 pi^2 zeta(3))
  C_k = (k^2/24) V_k^2 + pi^k zeta(k-2) (1 + 2^{3-k}) / (12 Gamma(k/2)^2 zeta^(2)(k)).

C3 has no closed form here (its exact value involves an unevaluated Laurent
coefficient); it is always a runtime parameter, recovered by fitting.  The
Laplace transform subtracts Gamma(k-1) pi^k / (6 Gamma(k/2)^2) X^{k-1} from
the smoothed prediction; the sharp sum carries (C3'/2) ln X - C3'/4 and
C_k/(k-1); the sharp k=3 integral sits another pi^2/3 below the sharp sum.

nonspectral_E(k, s) evaluates the explicit zeta-gamma product

  E_k(s) = 2 pi^k Gamma(s+1) zeta(s+1) zeta(s+k)
           * (1 + 2^{-(2s+k)} - 2^{-(s+k-1)})
           / (Gamma(k/2) Gamma(s+k/2+1) zeta^(2)(k))

whose residue at s = -1 cancels the diagonal constant
pi^k zeta(k-1) / (zeta^(2)(k) Gamma(k/2)^2) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import specfun
from .specfun import ball_volume, euler_gamma, gamma_fn

__all__ = [
    "ConstantSet",
    "constants_for",
    "predicted_smooth",
    "predicted_laplace",
    "predicted_sharp",
    "predicted_integral_p3",
    "predicted_smooth_weighted_first",
    "nonspectral_E",
    "nonspectral_residue_minus1",
]

MIN_K = 3
MAX_K = 8

_POLE_TOL = 9.999e-7  # strict spec threshold is 1e-6; tiny margin for float offsets


@dataclass(frozen=True)
class ConstantSet:
    """Every explicit constant for one dimension k (fields absent where the
    theory defines none: c3_prime only at k=3, c4_prime only at k=4, c_k only
    for k >= 4, integral_gap only at k=3)."""

    k: int
    v_k: float
    euler_gamma: float
    diagonal_residue: float
    laplace_gap: float
    first_moment_coeff: float
    c3_prime: float | None = None
    c4_prime: float | None = None
    c_k: float | None = None
    integral_gap: float | None = None

    def rows(self) -> list[tuple[str, float]]:
        out = [
            ("v_k", self.v_k),
            ("euler_gamma", self.euler_gamma),
            ("diagonal_residue", self.diagonal_residue),
            ("laplace_gap", self.laplace_gap),
            ("first_moment_coeff", self.first_moment_coeff),
        ]
        for name in ("c3_prime", "c4_prime", "c_k", "integral_gap"):
            val = getattr(self, name)
            if val is not None:
                out.append((name, val))
        return out


def _check_k(k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or not (MIN_K <= k <= MAX_K):
        raise ValueError(f"k = {k} outside [{MIN_K}, {MAX_K}]")


def constants_for(k: int) -> ConstantSet:
    """Evaluate the closed forms above for one dimension k in [3, 8]."""
    _check_k(k)
    vk = ball_volume(k)
    zeta = specfun.zeta
    z2 = specfun.zeta_two_removed
    diagonal = math.pi**k * zeta(k - 1) / (z2(k) * gamma_fn(k / 2.0) ** 2)
    laplace_gap = -gamma_fn(k - 1.0) * math.pi**k / (6.0 * gamma_fn(k / 2.0) ** 2)
    first_moment = math.pi ** (k / 2.0) * gamma_fn(k - 1.0) / (2.0 * gamma_fn(k / 2.0))
    c3p = math.pi**2 / (3.0 * z2(3.0)) if k == 3 else None
    c4p = (
        16.0
        * (9.0 * math.sqrt(2.0) - 8.0)
        * zeta(0.5)
        * zeta(1.5) ** 2
        * zeta(2.5)
        / (7.0 * math.pi**2 * zeta(3.0))
        if k == 4
        else None
    )
    ck = (
        k**2 / 24.0 * vk**2
        + math.pi**k * zeta(k - 2.0) * (1.0 + 2.0 ** (3 - k)) / (12.0 * gamma_fn(k / 2.0) ** 2 * z2(k))
        if k >= 4
        else None
    )
    return ConstantSet(
        k=k,
        v_k=vk,
        euler_gamma=euler_gamma(),
        diagonal_residue=diagonal,
        laplace_gap=laplace_gap,
        first_moment_coeff=first_moment,
        c3_prime=c3p,
        c4_prime=c4p,
        c_k=ck,
        integral_gap=-math.pi**2 / 3.0 if k == 3 else None,
    )


def _check_c3(k: int, c3: float | None) -> None:
    if k == 3 and c3 is None:
        raise ValueError("k = 3 predictions need the fitted constant c3")
    if k != 3 and c3 is not None:
        raise ValueError(f"c3 only applies at k = 3, not k = {k}")


def predicted_smooth(k: int, X: float, c3: float | None = None) -> float:
    """Main terms of the smoothed second moment at scale X."""
    _check_k(k)
    _check_c3(k, c3)
    X = float(X)
    if X == 0.0:
        return 0.0
    consts = constants_for(k)
    if k == 3:
        return consts.c3_prime * X**2 * (math.log(X) + 1.0 - consts.euler_gamma) + c3 * X**2
    value = consts.c_k * gamma_fn(k - 1.0) * X ** (k - 1)
    if k == 4:
        value += consts.c4_prime * gamma_fn(2.5) * X**2.5
    return value


def predicted_laplace(k: int, X: float, c3: float | None = None) -> float:
    """Smoothed prediction plus the Laplace gap term."""
    X = float(X)
    if X == 0.0:
        _check_k(k)
        _check_c3(k, c3)
        return 0.0
    return predicted_smooth(k, X, c3) + constants_for(k).laplace_gap * X ** (k - 1)


def predicted_sharp(k: int, X: float, c3: float | None = None) -> float:
    """Main terms of the sharp second moment sum_{n<=X} P_k(n)^2."""
    _check_k(k)
    _check_c3(k, c3)
    X = float(X)
    if X == 0.0:
        return 0.0
    consts = constants_for(k)
    if k == 3:
        c3p = consts.c3_prime
        return X**2 * (0.5 * c3p * math.log(X) - 0.25 * c3p + 0.5 * c3)
    return consts.c_k / (k - 1) * X ** (k - 1)


def predicted_integral_p3(X: float, c3: float) -> float:
    """Main terms of int_0^X P_3(t)^2 dt."""
    X = float(X)
    if X == 0.0:
        return 0.0
    consts = constants_for(3)
    c3p = consts.c3_prime
    return 0.5 * c3p * X**2 * math.log(X) + (0.5 * c3 - 0.25 * c3p + consts.integral_gap) * X**2


def predicted_smooth_weighted_first(k: int, X: float) -> float:
    """Main terms of the weighted first moment sum P_k(n) n^{k/2-1} e^{-n/X}:
    (pi^{k/2} Gamma(k-1) / (2 Gamma(k/2))) X^{k-1}
    + (pi^{k/2} Gamma(k-2) / (12 Gamma(k/2-1))) X^{k-2}."""
    _check_k(k)
    X = float(X)
    if X == 0.0:
        return 0.0
    lead = constants_for(k).first_moment_coeff
    second = math.pi ** (k / 2.0) * gamma_fn(k - 2.0) / (12.0 * gamma_fn(k / 2.0 - 1.0))
    return lead * X ** (k - 1) + second * X ** (k - 2)


def nonspectral_E(k: int, s: float) -> float:
    """The explicit zeta-gamma product E_k(s) at real s in [-6, 6].

    Rejects s within 1e-6 of a nonpositive integer (the pole locations lie
    among them).
    """
    _check_k(k)
    s = float(s)
    if not (-6.0 <= s <= 6.0):
        raise ValueError(f"s = {s} outside [-6, 6]")
    nearest = round(s)
    if nearest <= 0 and abs(s - nearest) < _POLE_TOL:
        raise ValueError(f"s = {s} too close to the pole candidate {nearest}")
    den_arg = s + k / 2.0 + 1.0
    if den_arg <= 0.0 and den_arg == round(den_arg):
        return 0.0  # 1/Gamma vanishes; the numerator is regular here
    num = 2.0 * math.pi**k * gamma_fn(s + 1.0) * specfun._zeta_unchecked(s + 1.0)
    num *= specfun._zeta_unchecked(s + k)
    den = gamma_fn(k / 2.0) * gamma_fn(s + k / 2.0 + 1.0) * specfun.zeta_two_removed(float(k))
    two_factor = 1.0 + 2.0 ** -(2.0 * s + k) - 2.0 ** -(s + k - 1.0)
    return num / den * two_factor


def nonspectral_residue_minus1(k: int, offset: float = 1e-6) -> float:
    """Residue of E_k at s = -1 by symmetric numerical limits.

    Averaging (s+1) E_k(s) at s = -1 +/- offset cancels the linear Laurent
    term (one Richardson step), leaving an O(offset^2) error.
    """
    plus = (offset) * nonspectral_E(k, -1.0 + offset)
    minus = (-offset) * nonspectral_E(k, -1.0 - offset)
    return 0.5 * (plus + minus)
