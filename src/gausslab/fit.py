"""Linear least-squares recovery of asymptotic coefficients.

Models are linear in a small set of basis functions drawn from

  X^{k-1} ln X,  X^{k-1},  X^{k-3/2},  X^{k-2},  X^{k-2} ln X,

mirroring the main and error terms of the second-moment asymptotics.  Fits
go through an orthogonal factorization (SVD), never the normal equations,
and report a condition estimate; a condition above 1e12 is an error rather
than a silent answer.

recover_c3 implements the constrained recovery of the dimension-three
constant: the X^2 ln X coefficient is pinned to its proven closed form
(X^2 ln X and X^2 are nearly collinear over a decade, so leaving both free
is ill-conditioned), and only the X^2 coefficient is solved for.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .moments import MomentSample, Statistic
from .theory import constants_for

__all__ = [
    "BasisTerm",
    "Weighting",
    "FitModel",
    "FitResult",
    "RankDeficiencyError",
    "fit",
    "recover_c3",
    "c3_standard_error",
]

CONDITION_LIMIT = 1e12
# A computed geometric grid drifts about one ulp per point from its ends, so
# a grid meant to span exactly a decade up to 1e4 can fall short by ~1e-14.
SPAN_RTOL = 1e-12


class RankDeficiencyError(ValueError):
    """Design matrix condition estimate exceeds the acceptable limit."""


class BasisTerm(enum.Enum):
    """Basis descriptors; exponents are relative to the dimension k."""

    XK1_LOG = "x^(k-1)*lnx"
    XK1 = "x^(k-1)"
    XK32 = "x^(k-3/2)"
    XK2 = "x^(k-2)"
    XK2_LOG = "x^(k-2)*lnx"

    @property
    def offset(self) -> float:
        return {"x^(k-1)*lnx": -1.0, "x^(k-1)": -1.0, "x^(k-3/2)": -1.5, "x^(k-2)": -2.0, "x^(k-2)*lnx": -2.0}[
            self.value
        ]

    @property
    def has_log(self) -> bool:
        return self.value.endswith("*lnx")

    def evaluate(self, k: int, x: np.ndarray) -> np.ndarray:
        col = x ** (k + self.offset)
        if self.has_log:
            col = col * np.log(x)
        return col


class Weighting(enum.Enum):
    UNIFORM = "Uniform"
    RELATIVE_TO_LEADING = "RelativeToLeading"


@dataclass(frozen=True)
class FitModel:
    k: int
    basis: tuple[BasisTerm, ...]
    weighting: Weighting = Weighting.UNIFORM

    def __post_init__(self):
        if len(self.basis) == 0:
            raise ValueError("FitModel: basis must be nonempty")
        if len(set(self.basis)) != len(self.basis):
            raise ValueError("FitModel: duplicate basis descriptor")


@dataclass(frozen=True)
class FitResult:
    coefficients: tuple[float, ...]
    residual_rms: float
    condition_estimate: float
    samples_used: int


def _weights(weighting: Weighting, k: int, x: np.ndarray) -> np.ndarray:
    if weighting is Weighting.UNIFORM:
        return np.ones_like(x)
    return x ** float(-(k - 1))


def _solve(design: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float, float]:
    wd = design * w[:, None]
    wy = y * w
    coef, _, rank, sv = np.linalg.lstsq(wd, wy, rcond=None)
    cond = math.inf if (sv[-1] == 0 or rank < design.shape[1]) else float(sv[0] / sv[-1])
    if cond > CONDITION_LIMIT:
        raise RankDeficiencyError(f"condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.0e}")
    resid = wd @ coef - wy
    rms = float(np.sqrt(np.mean(resid**2)))
    return coef, rms, cond


def fit(model: FitModel, samples: list[MomentSample]) -> FitResult:
    """Weighted linear least squares of sample values against the basis."""
    if len(samples) < len(model.basis) + 2:
        raise ValueError(
            f"need at least {len(model.basis) + 2} samples for {len(model.basis)} basis terms"
        )
    kinds = {s.statistic for s in samples}
    if len(kinds) != 1:
        raise ValueError(f"samples mix statistics: {sorted(k.value for k in kinds)}")
    if any(s.k != model.k for s in samples):
        raise ValueError("sample dimension does not match the model's k")
    x = np.array([s.x_scale for s in samples], dtype=np.float64)
    y = np.array([s.value for s in samples], dtype=np.float64)
    design = np.stack([term.evaluate(model.k, x) for term in model.basis], axis=1)
    coef, rms, cond = _solve(design, y, _weights(model.weighting, model.k, x))
    return FitResult(tuple(float(c) for c in coef), rms, cond, len(samples))


def _c3_design(stat: Statistic, x: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Known main term, c3 translation factor, and the free design columns."""
    consts = constants_for(3)
    c3p = consts.c3_prime
    if stat is Statistic.SMOOTH_SECOND:
        known = c3p * x**2 * (np.log(x) + 1.0 - consts.euler_gamma)
        factor = 1.0
        design = np.stack([x**2, x], axis=1)
    elif stat is Statistic.SHARP_SECOND:
        known = x**2 * (0.5 * c3p * np.log(x) - 0.25 * c3p)
        factor = 2.0
        design = np.stack([x**2, x**1.5], axis=1)
    else:
        raise ValueError(f"recover_c3 needs SmoothSecond or SharpSecond samples, got {stat.value}")
    return known, factor, design


def _c3_solve(samples: list[MomentSample]) -> tuple[float, FitResult, float]:
    """Validate the samples, solve the constrained c3 system once, and return
    (c3, diagnostics, residual-based standard error of c3)."""
    if not samples:
        raise ValueError("no samples")
    kinds = {s.statistic for s in samples}
    if len(kinds) != 1:
        raise ValueError("samples mix statistics")
    if any(s.k != 3 for s in samples):
        raise ValueError("recover_c3 needs k = 3 samples")
    x = np.array([s.x_scale for s in samples], dtype=np.float64)
    y = np.array([s.value for s in samples], dtype=np.float64)
    if x.max() < 1e4 * (1.0 - SPAN_RTOL) or x.max() / x.min() < 10.0 * (1.0 - SPAN_RTOL):
        raise ValueError("samples must span a decade of X with max(X) >= 1e4")
    (stat,) = kinds
    known, factor, design = _c3_design(stat, x)
    w = x**-2.0
    coef, rms, cond = _solve(design, y - known, w)
    diagnostics = FitResult(tuple(float(c) for c in coef), rms, cond, len(samples))
    wd = design * w[:, None]
    cov = np.linalg.inv(wd.T @ wd)
    dof = max(len(samples) - design.shape[1], 1)
    sigma2 = float(np.sum((wd @ coef - (y - known) * w) ** 2)) / dof
    return factor * float(coef[0]), diagnostics, factor * math.sqrt(sigma2 * cov[0, 0])


def recover_c3(samples: list[MomentSample]) -> tuple[float, FitResult]:
    """Recover the dimension-3 X^2 constant from second-moment samples.

    The samples must share one statistic (SmoothSecond or SharpSecond), all
    at k = 3, spanning at least a decade of X with max(X) >= 1e4.
    """
    return _c3_solve(samples)[:2]


def c3_standard_error(samples: list[MomentSample]) -> float:
    """Residual-based standard error of the recovered c3 (same samples and
    checks as recover_c3); a stability yardstick, not a statistical guarantee."""
    return _c3_solve(samples)[2]
