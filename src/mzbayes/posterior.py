"""Grid-based Bayesian phase inference on [0, pi].

The single-shot posterior under a flat prior has the closed form
``C * cos^{2 Nc}(phi/2) * sin^{2 Nd}(phi/2)`` and does not depend on the
input intensity. Multi-shot posteriors are accumulated in log space and
renormalized once, which stays stable for tens of thousands of shots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaln

from mzbayes._csv import csv_text
from mzbayes.photon_model import Outcome


# Nodes whose log density is more than this below the peak carry relative
# weight < e^-40 ~ 4e-18, below what float64 sums of O(1) terms resolve.
_SUPPORT_CUT = 40.0


class DegenerateEvidenceError(ValueError):
    """Accumulated posterior vanished at every grid node."""


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform grid of n_points phases covering [0, pi] inclusive."""

    n_points: int = 4096

    def __post_init__(self) -> None:
        if self.n_points < 2:
            raise ValueError(f"grid needs >= 2 points, got {self.n_points}")

    @cached_property
    def nodes(self) -> np.ndarray:
        nodes = np.linspace(0.0, np.pi, self.n_points)
        nodes.flags.writeable = False
        return nodes

    @property
    def spacing(self) -> float:
        return np.pi / (self.n_points - 1)


def _trapezoids(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid areas between consecutive nodes; their sum is ``np.trapezoid(y, x)``."""
    return (x[1:] - x[:-1]) * (y[1:] + y[:-1]) / 2.0


@dataclass(frozen=True)
class Posterior:
    """Normalized phase density on a grid; trapezoidal integral is 1.

    The mean and the credible interval integrate over the support window
    ``_support`` only: the contiguous node range where the log density is
    above ``peak - _SUPPORT_CUT``, widened by one node on each side.
    Outside it the density is below e^-40 of its peak and adds nothing a
    float64 sum resolves. ``density`` and ``to_csv`` stay full-grid.
    """

    grid: PhaseGrid
    log_density: np.ndarray  # log of the normalized density (-inf allowed)
    _support: slice = field(default_factory=lambda: slice(None), repr=False, compare=False)

    @classmethod
    def from_log_density(cls, grid: PhaseGrid, log_density: np.ndarray) -> "Posterior":
        """The posterior proportional to ``exp(log_density)``, normalized on its support window.

        Taking the first and last node above the cut keeps every mode of a
        multimodal posterior inside the window.
        """
        log_density = np.asarray(log_density, dtype=float)
        if log_density.shape != grid.nodes.shape:
            raise ValueError("log_density shape does not match grid")
        peak = np.max(log_density)
        if not np.isfinite(peak):
            raise DegenerateEvidenceError(
                "posterior is zero (or undefined) at every grid node"
            )
        above = np.flatnonzero(log_density > peak - _SUPPORT_CUT)
        support = slice(max(above[0] - 1, 0), above[-1] + 2)
        norm = _trapezoids(np.exp(log_density[support] - peak), grid.nodes[support]).sum()
        out = log_density - peak - np.log(norm)
        out.flags.writeable = False
        return cls(grid=grid, log_density=out, _support=support)

    @cached_property
    def density(self) -> np.ndarray:
        d = np.exp(self.log_density)
        d.flags.writeable = False
        return d

    @cached_property
    def _support_density(self) -> np.ndarray:
        return np.exp(self.log_density[self._support])

    @cached_property
    def _mean(self) -> float:
        nodes = self.grid.nodes[self._support]
        return float(_trapezoids(nodes * self._support_density, nodes).sum())

    def to_csv(self) -> str:
        """The density as ``phi,density`` CSV text (phi in radians)."""
        return csv_text(["phi", "density"], zip(self.grid.nodes, self.density))


def log_shape(outcome: Outcome, nodes: np.ndarray) -> np.ndarray:
    """Unnormalized log posterior 2*Nc*log cos(phi/2) + 2*Nd*log sin(phi/2)."""
    with np.errstate(divide="ignore"):
        log_cos = np.log(np.cos(nodes / 2.0))
        log_sin = np.log(np.sin(nodes / 2.0))
    terms = np.zeros_like(nodes)
    if outcome.n_c:
        terms = terms + 2.0 * outcome.n_c * log_cos
    if outcome.n_d:
        terms = terms + 2.0 * outcome.n_d * log_sin
    return terms


def ideal_log_rows(nodes: np.ndarray) -> np.ndarray:
    """Rows ``2 log cos(phi/2)`` and ``2 log sin(phi/2)`` on ``nodes``.

    The ideal log likelihood of a pulse sequence is the port totals
    (Nc, Nd) times these rows, up to a phase-independent constant.
    """
    with np.errstate(divide="ignore"):
        return 2.0 * np.log(np.stack([np.cos(nodes / 2.0), np.sin(nodes / 2.0)]))


def log_count_density(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``weights @ rows`` over the rows with nonzero weight.

    Skipping zero weights keeps 0 * (-inf), a count that never occurred
    at a phase where it is impossible, from poisoning the sum with NaN.
    """
    nonzero = np.flatnonzero(weights)
    return weights[nonzero] @ rows[nonzero]


def port_totals(n_c: np.ndarray, n_d: np.ndarray) -> np.ndarray:
    """Total counts (Nc, Nd) of a pulse sequence: the ideal sufficient statistic."""
    return np.array([np.sum(n_c), np.sum(n_d)])


class CountLikelihood:
    """Log likelihood linear in count statistics: ``log L(phi) = s . rows(phi)``.

    ``rows(phis)`` returns one log-likelihood row per statistic over an
    array of phases, and ``statistics(n_c, n_d)`` reduces per-pulse count
    arrays to the matching statistics ``s``. The rows are tabulated on
    ``grid`` once, so each pulse sequence costs one histogram and one
    matrix-vector product.
    """

    def __init__(
        self,
        rows: Callable[[np.ndarray], np.ndarray],
        statistics: Callable[[np.ndarray, np.ndarray], np.ndarray],
        grid: PhaseGrid,
    ):
        self.rows = rows
        self.statistics = statistics
        self.grid = grid
        self.table = rows(grid.nodes)

    def on_grid(self, stats: np.ndarray) -> np.ndarray:
        """Unnormalized log likelihood of statistics ``stats`` at every grid node."""
        return log_count_density(stats, self.table)

    def at(self, stats: np.ndarray, phi: float) -> float:
        """Unnormalized log likelihood of statistics ``stats`` at one phase."""
        return float(log_count_density(stats, self.rows(np.array([phi])))[0])


def ideal_likelihood(grid: PhaseGrid) -> CountLikelihood:
    """Ideal-interferometer log likelihood from the port totals (flat-prior posterior shape)."""
    return CountLikelihood(ideal_log_rows, port_totals, grid)


def single_shot_posterior(outcome: Outcome, grid: PhaseGrid) -> Posterior:
    """Posterior after one pulse; independent of the input intensity."""
    return Posterior.from_log_density(grid, log_shape(outcome, grid.nodes))


def normalization_constant(outcome: Outcome) -> float:
    """Constant C with integral_0^pi C cos^{2Nc}(phi/2) sin^{2Nd}(phi/2) dphi = 1.

    Evaluated as Gamma(1+Nc+Nd) / (Gamma(1/2+Nc) * Gamma(1/2+Nd)) through
    log-gamma, so the gamma functions themselves never overflow. C itself
    leaves the float64 range for large, balanced counts, first at a total
    of 1021 (Nc, Nd = 511, 510); such counts raise ``OverflowError``.
    """
    nc, nd = outcome.n_c, outcome.n_d
    with np.errstate(over="ignore"):
        c = np.exp(gammaln(1.0 + nc + nd) - gammaln(0.5 + nc) - gammaln(0.5 + nd))
    if np.isinf(c):
        raise OverflowError(
            f"normalization constant of counts ({nc}, {nd}) exceeds the float64 range"
        )
    return float(c)


def accumulate(outcomes: Sequence[Outcome], grid: PhaseGrid) -> Posterior:
    """Posterior after a sequence of independent pulses (product of shots).

    The per-shot log densities add, so only the total counts matter; an
    empty sequence returns the flat prior.
    """
    total = Outcome(
        sum(o.n_c for o in outcomes), sum(o.n_d for o in outcomes)
    )
    return Posterior.from_log_density(grid, log_shape(total, grid.nodes))


def posterior_mean(post: Posterior) -> float:
    """Mean phase under the posterior, by trapezoidal quadrature on its support window.

    Computed once per posterior; ``credible_interval`` reuses it.
    """
    return post._mean


def credible_interval(post: Posterior, level: float = 0.6827) -> float:
    """Half-width of the equal-tail-mass interval of ``level`` around the mean.

    The cdf is the trapezoidal integral over the support window. When the
    interval would overflow a domain edge it ends at that edge (``nodes[0]``
    or ``nodes[-1]``) and the missing mass is taken from the interior side,
    so the width stays finite and well-defined even for posteriors peaked
    at 0 or pi.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    nodes = post.grid.nodes[post._support]
    cdf = np.zeros_like(nodes)
    np.cumsum(_trapezoids(post._support_density, nodes), out=cdf[1:])
    cdf /= cdf[-1]
    mass_at_mean = float(np.interp(post._mean, nodes, cdf))
    lo = mass_at_mean - level / 2.0
    hi = mass_at_mean + level / 2.0
    if lo <= 0.0:
        a, b = post.grid.nodes[0], np.interp(level, cdf, nodes)
    elif hi >= 1.0:
        a, b = np.interp(1.0 - level, cdf, nodes), post.grid.nodes[-1]
    else:
        a, b = np.interp(lo, cdf, nodes), np.interp(hi, cdf, nodes)
    return float(b - a) / 2.0
