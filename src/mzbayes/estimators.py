"""Baseline (non-Bayesian) phase estimators.

Classical fringe inversion of the mean count difference, its noisy
generalization with fitted fringe parameters, the per-shot YMK estimator
arccos[(Nc-Nd)/(Nc+Nd)], and maximum likelihood by grid search with
golden-section refinement. Sequence estimators read a run's per-pulse
counts as two integer arrays ``(n_c, n_d)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from mzbayes.detector import CalibrationData, FitError
from mzbayes.photon_model import Outcome
from mzbayes.posterior import CountLikelihood


class DivergenceError(ValueError):
    """Predicted uncertainty diverges at this phase."""


class UndefinedEstimateError(ValueError):
    """No photons detected; the per-shot estimator is undefined."""


@dataclass(frozen=True)
class FringeParams:
    """Fringe model M(theta) = amplitude * cos(a + theta) + b."""

    a: float = 0.0
    b: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        finite = all(map(math.isfinite, (self.a, self.b, self.amplitude)))
        if not (finite and self.amplitude > 0):
            raise ValueError(f"fringe parameters must be finite with amplitude > 0, got {self}")


def _counts(n_c, n_d) -> tuple[np.ndarray, np.ndarray]:
    n_c, n_d = np.asarray(n_c), np.asarray(n_d)
    if n_c.shape != n_d.shape or n_c.ndim != 1:
        raise ValueError(f"need two equal 1-D count arrays, got {n_c.shape}, {n_d.shape}")
    if n_c.size < 1:
        raise ValueError("need at least one pulse")
    return n_c, n_d


def _mean_difference(n_c, n_d) -> float:
    n_c, n_d = _counts(n_c, n_d)
    return int(np.sum(n_c) - np.sum(n_d)) / n_c.size


def classical_estimate(n_c, n_d, nbar: float) -> float:
    """arccos(M_p / nbar) with the argument clamped to [-1, 1].

    The ideal fringe (a, b, amplitude) = (0, 0, nbar) inverted by
    ``noisy_classical_estimate``. Clamping keeps the estimator total:
    finite-sample noise routinely pushes |M_p| past nbar near theta = 0 or pi.
    """
    return noisy_classical_estimate(n_c, n_d, FringeParams(amplitude=nbar))


def classical_uncertainty(theta: float, nbar: float, p: int) -> float:
    """Error-propagation uncertainty 1 / (sqrt(p * nbar) * sin(theta))."""
    if not 0.0 < theta < math.pi:
        raise DivergenceError(
            f"classical uncertainty diverges at theta = {theta}"
        )
    if not nbar > 0 or p < 1:
        raise ValueError("need nbar > 0 and p >= 1")
    return 1.0 / (math.sqrt(p * nbar) * math.sin(theta))


def fit_fringe(calib: CalibrationData) -> FringeParams:
    """Least-squares fit of the calibration fringe M(theta) = A cos(a+theta)+b.

    Linear in (A cos a, -A sin a, b); needs at least three distinct phases
    and a non-degenerate fringe amplitude.
    """
    theta = np.asarray(calib.phases, dtype=float)
    if len(np.unique(theta)) < 3:
        raise FitError("fringe fit needs >= 3 distinct calibration phases")
    m = calib.mean_difference()
    design = np.column_stack([np.cos(theta), np.sin(theta), np.ones_like(theta)])
    coef, *_ = np.linalg.lstsq(design, m, rcond=None)
    c1, c2, b = coef
    amplitude = math.hypot(c1, c2)
    if amplitude < 1e-8 * max(1.0, abs(b)):
        raise FitError("no fringe: fitted amplitude is degenerate")
    return FringeParams(a=math.atan2(-c2, c1), b=float(b), amplitude=amplitude)


def invert_fringe(mean_difference, params: FringeParams) -> np.ndarray:
    """theta = arccos((M - b)/A) - a, folded to [0, pi], for each mean count difference M.

    ``math.acos`` per element keeps the libm arccos of the one-replica
    estimators; numpy's SIMD arccos can differ from it in the last bit.
    """
    arg = np.clip((np.atleast_1d(mean_difference) - params.b) / params.amplitude, -1.0, 1.0)
    theta = np.abs(np.array([math.acos(x) for x in arg]) - params.a)
    return np.clip(np.where(theta > math.pi, 2.0 * math.pi - theta, theta), 0.0, math.pi)


def noisy_classical_estimate(n_c, n_d, params: FringeParams) -> float:
    """Invert the fitted fringe at one run's mean count difference (``invert_fringe``)."""
    return float(invert_fringe(_mean_difference(n_c, n_d), params)[0])


def ymk_estimate(outcome: Outcome) -> float:
    """arccos[(Nc - Nd) / (Nc + Nd)] for a single photon-bearing shot."""
    if outcome.total < 1:
        raise UndefinedEstimateError("YMK estimate undefined for zero photons")
    return math.acos((outcome.n_c - outcome.n_d) / outcome.total)


def ymk_mean_estimate(n_c, n_d) -> float:
    """Average of per-shot YMK estimates over shots with at least one photon."""
    n_c, n_d = _counts(n_c, n_d)
    total = n_c + n_d
    fired = total >= 1
    if not np.any(fired):
        raise UndefinedEstimateError("no photon-bearing shots in the sequence")
    return float(np.mean(np.arccos((n_c[fired] - n_d[fired]) / total[fired])))


class MLEstimate(NamedTuple):
    phase: float
    flat: bool


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(
    f: Callable[[float], float], a: float, b: float, tol: float = 1e-10
) -> float:
    """Maximize a unimodal function on [a, b] by golden-section search."""
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(x1)
    return (a + b) / 2.0


_FLAT_TOL = 1e-12


def ml_estimate(n_c, n_d, likelihood: CountLikelihood) -> MLEstimate:
    """Maximum-likelihood phase: grid argmax refined by golden-section search.

    ``likelihood`` tabulates the log likelihood on its grid as a function
    of the counts' statistics (port totals for the ideal interferometer,
    per-port histograms behind a misread channel). Ties go to the smaller
    phase; a flat likelihood returns pi/2 with the flag set. A grid argmax
    at 0 or pi returns that edge exactly when the likelihood there is at
    least that of the refined point: near an edge the log likelihood is
    flat to float precision over ~3e-8 rad, and the golden-section tie
    rule would walk away from it.
    """
    stats = likelihood.statistics(*_counts(n_c, n_d))
    total = likelihood.on_grid(stats)
    finite = total[np.isfinite(total)]
    if finite.size == 0:
        raise ValueError("likelihood vanished at every grid node")
    if finite.max() - finite.min() < _FLAT_TOL:
        return MLEstimate(phase=math.pi / 2.0, flat=True)
    nodes = likelihood.grid.nodes
    i = int(np.argmax(total))
    lo = nodes[max(i - 1, 0)]
    hi = nodes[min(i + 1, nodes.size - 1)]
    phase = golden_section_max(lambda phi: likelihood.at(stats, phi), lo, hi)
    if i in (0, nodes.size - 1) and likelihood.at(stats, nodes[i]) >= likelihood.at(stats, phase):
        phase = nodes[i]
    return MLEstimate(phase=phase, flat=False)
