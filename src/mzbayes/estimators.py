"""Baseline (non-Bayesian) phase estimators.

Classical fringe inversion of the mean count difference, its noisy
generalization with fitted fringe parameters, the per-shot YMK estimator
arccos[(Nc-Nd)/(Nc+Nd)], and maximum likelihood by grid search with a
stacked k-section refinement. Sequence estimators read a run's per-pulse
counts as two integer arrays ``(n_c, n_d)``; maximum likelihood reads its
statistics, as the likelihood table does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from mzbayes.detector import CalibrationData, FitError
from mzbayes.posterior import CountLikelihood, DegenerateEvidenceError


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


def ymk_mean_estimate(n_c, n_d) -> float:
    """Average of per-shot YMK estimates over shots with at least one photon."""
    n_c, n_d = _counts(n_c, n_d)
    total = n_c + n_d
    fired = total >= 1
    if not np.any(fired):
        raise UndefinedEstimateError("no photon-bearing shots in the sequence")
    return float(np.mean(np.arccos((n_c[fired] - n_d[fired]) / total[fired])))


def ymk_pair_estimates(pairs: np.ndarray, n_max: int) -> np.ndarray:
    """``ymk_mean_estimate`` of each row of a ``(rows, (n_max+1)**2)`` stack of pair histograms.

    A measured pair (nc, nd), at index ``nc * (n_max+1) + nd``, has one
    per-shot estimate, so a row's mean is its histogram times those
    angles over its photon-bearing shots: the per-pulse mean to rounding.
    Raises ``UndefinedEstimateError`` if a row has no such shot.
    """
    bins = n_max + 1
    n_c, n_d = np.divmod(np.arange(1, bins * bins), bins)  # every pair but (0, 0)
    fired = pairs[:, 1:]
    shots = fired.sum(axis=1)
    if not np.all(shots):
        raise UndefinedEstimateError("no photon-bearing shots in the sequence")
    return fired @ np.arccos((n_c - n_d) / (n_c + n_d)) / shots


class MLEstimate(NamedTuple):
    """ML phase and flat-likelihood flag: floats for one run, arrays for a stack."""

    phase: float | np.ndarray
    flat: bool | np.ndarray


_FLAT_TOL = 1e-12
# Interior points per row and round of the section search: a round shrinks
# each bracket by (_SECTIONS + 1) / 2, so a 2-node bracket at 4096 nodes
# reaches _SEARCH_TOL in 5 rounds.
_SECTIONS = 63
_SEARCH_TOL = 1e-10


def ml_estimates(stats, likelihood: CountLikelihood) -> MLEstimate:
    """Maximum-likelihood phase of each row of a ``(rows, S)`` stack of statistics.

    Each row's grid argmax (ties to the smaller phase) and its neighbours
    bracket its maximum. Each round of the k-section search evaluates
    every bracket at ``_SECTIONS`` interior phases in one ``likelihood.at``
    call and narrows it to the neighbours of the best one; the phase is
    the final bracket's midpoint. A flat row returns pi/2 with its flag
    set. A grid argmax at 0 or pi returns that edge exactly when the
    likelihood there is at least that of the refined phase: near an edge
    the log likelihood is flat to float precision over ~3e-8 rad. Raises
    ``DegenerateEvidenceError`` if a row vanishes at every grid node.
    """
    total = likelihood.on_grid(stats)
    top = total.max(axis=1)
    if not np.all(np.isfinite(top)):
        vanished = np.flatnonzero(~np.isfinite(top)).tolist()
        raise DegenerateEvidenceError(f"likelihood vanished at every grid node in rows {vanished}")
    flat = top - np.where(np.isneginf(total), np.inf, total).min(axis=1) < _FLAT_TOL
    nodes = likelihood.grid.nodes
    best = np.argmax(total, axis=1)
    lo = nodes[np.maximum(best - 1, 0)]
    hi = nodes[np.minimum(best + 1, nodes.size - 1)]
    steps = np.arange(_SECTIONS + 2) / (_SECTIONS + 1)
    while np.max(hi - lo) > _SEARCH_TOL:
        points = lo[:, None] + (hi - lo)[:, None] * steps
        j = np.argmax(likelihood.at(stats, points[:, 1:-1]), axis=1)
        lo, hi = np.take_along_axis(points, np.stack([j, j + 2], axis=1), axis=1).T
    phase = (lo + hi) / 2.0
    at_edge = (best == 0) | (best == nodes.size - 1)
    edge_value, refined_value = likelihood.at(stats, np.column_stack([nodes[best], phase])).T
    phase = np.where(at_edge & (edge_value >= refined_value), nodes[best], phase)
    return MLEstimate(phase=np.where(flat, math.pi / 2.0, phase), flat=flat)


def ml_estimate(stats, likelihood: CountLikelihood) -> MLEstimate:
    """Maximum-likelihood phase of one run's statistics: the one-row case of ``ml_estimates``.

    ``stats`` are the run's statistics of ``likelihood``: its port totals
    (Nc, Nd) on the ideal interferometer, its per-port histograms behind a
    channel.
    """
    est = ml_estimates(np.asarray(stats)[None], likelihood)
    return MLEstimate(phase=float(est.phase[0]), flat=bool(est.flat[0]))
