"""Linear least-squares recovery of asymptotic coefficients.

Models are linear in a small set of basis functions drawn from

  X^{k-1} ln X,  X^{k-1},  X^{k-3/2},  X^{k-2},  X^{k-2} ln X,

mirroring the main and error terms of the second-moment asymptotics.  One
solver serves every fit: it goes through an orthogonal factorization (SVD),
never the normal equations, and reports a condition estimate; a condition
above 1e12 is an error rather than a silent answer.

recover_c3 implements the constrained recovery of the dimension-three
constant: the X^2 ln X coefficient is pinned to its proven closed form
(X^2 ln X and X^2 are nearly collinear over a decade, so leaving both free
is ill-conditioned).  Its model is theory's main term at c3 = 0, the one known
term (this module writes none), plus a FitModel in X^2 and X (smoothed) or
X^2 and X^{3/2} (sharp) whose X^2 coefficient gives c3.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .moments import MomentSample, Statistic
from .theory import predicted

__all__ = [
    "BasisTerm",
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

    XK1_LOG = ("x^(k-1)*lnx", -1.0, True)
    XK1 = ("x^(k-1)", -1.0, False)
    XK32 = ("x^(k-3/2)", -1.5, False)
    XK2 = ("x^(k-2)", -2.0, False)
    XK2_LOG = ("x^(k-2)*lnx", -2.0, True)

    def __new__(cls, name: str, offset: float, has_log: bool):
        member = object.__new__(cls)
        member._value_ = name
        member.offset = offset
        member.has_log = has_log
        return member

    def evaluate(self, k: int, x: np.ndarray) -> np.ndarray:
        col = x ** (k + self.offset)
        if self.has_log:
            col = col * np.log(x)
        return col


@dataclass(frozen=True)
class FitModel:
    k: int
    basis: tuple[BasisTerm, ...]

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


def _solve(
    model: FitModel, samples: list[MomentSample], known: np.ndarray | float = 0.0
) -> tuple[FitResult, np.ndarray, np.ndarray]:
    """Weighted least squares of the sample values less the known term against
    the model's basis: the result, the weighted design and the weighted residual."""
    kinds = {s.statistic for s in samples}
    if len(kinds) != 1:
        raise ValueError(f"samples mix statistics: {sorted(k.value for k in kinds)}")
    if any(s.k != model.k for s in samples):
        raise ValueError("sample dimension does not match the model's k")
    x = np.array([s.x_scale for s in samples], dtype=np.float64)
    y = np.array([s.value for s in samples], dtype=np.float64) - known
    w = x ** float(-(model.k - 1))
    wd = np.stack([term.evaluate(model.k, x) for term in model.basis], axis=1) * w[:, None]
    wy = y * w
    coef, _, rank, sv = np.linalg.lstsq(wd, wy, rcond=None)
    cond = math.inf if (sv[-1] == 0 or rank < wd.shape[1]) else float(sv[0] / sv[-1])
    if cond > CONDITION_LIMIT:
        raise RankDeficiencyError(f"condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.0e}")
    resid = wd @ coef - wy
    rms = float(np.sqrt(np.mean(resid**2)))
    return FitResult(tuple(float(c) for c in coef), rms, cond, len(samples)), wd, resid


def fit(model: FitModel, samples: list[MomentSample]) -> FitResult:
    """Linear least squares of sample values against the basis, each row
    weighted by X^{-(k-1)}, the inverse of the leading term's size."""
    terms = len(model.basis)
    if len(samples) < terms + 2:
        raise ValueError(f"need at least {terms + 2} samples for {terms} basis terms")
    return _solve(model, samples)[0]


# statistic -> the free basis of its c3 model and the factor from the X^2
# coefficient to c3 (the sharp sum carries c3/2)
_C3_MODELS = {
    Statistic.SMOOTH_SECOND: ((BasisTerm.XK1, BasisTerm.XK2), 1.0),
    Statistic.SHARP_SECOND: ((BasisTerm.XK1, BasisTerm.XK32), 2.0),
}


def _c3_solve(samples: list[MomentSample]) -> tuple[float, FitResult, float]:
    """Validate the samples, solve the constrained c3 system once, and return
    (c3, diagnostics, residual-based standard error of c3)."""
    if not samples:
        raise ValueError("no samples")
    stat = samples[0].statistic
    if stat not in _C3_MODELS:
        raise ValueError(f"recover_c3 needs SmoothSecond or SharpSecond samples, got {stat.value}")
    x = np.array([s.x_scale for s in samples], dtype=np.float64)
    if x.max() < 1e4 * (1.0 - SPAN_RTOL) or x.max() / x.min() < 10.0 * (1.0 - SPAN_RTOL):
        raise ValueError("samples must span a decade of X with max(X) >= 1e4")
    basis, factor = _C3_MODELS[stat]
    model = FitModel(3, basis)
    known = np.array([predicted(stat, 3, s.x_scale, 0.0) for s in samples])
    diagnostics, wd, resid = _solve(model, samples, known)
    cov = np.linalg.inv(wd.T @ wd)
    sigma2 = float(np.sum(resid**2)) / max(len(samples) - len(basis), 1)
    return factor * diagnostics.coefficients[0], diagnostics, factor * math.sqrt(sigma2 * cov[0, 0])


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
