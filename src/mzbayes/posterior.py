"""Grid-based Bayesian phase inference on [0, pi].

The single-shot posterior under a flat prior has the closed form
``C * cos^{2 Nc}(phi/2) * sin^{2 Nd}(phi/2)`` and does not depend on the
input intensity. Multi-shot posteriors are accumulated in log space and
renormalized once, which stays stable for tens of thousands of shots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

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
        most = np.iinfo(np.intp).max  # numpy's index range
        if self.n_points > most:
            raise ValueError(f"grid needs <= {most} points, got {self.n_points}")

    @cached_property
    def nodes(self) -> np.ndarray:
        nodes = np.linspace(0.0, np.pi, self.n_points)
        nodes.flags.writeable = False
        return nodes

    @property
    def spacing(self) -> float:
        return np.pi / (self.n_points - 1)


def _trapezoids(half_steps: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Trapezoid areas ``half_step * (y0 + y1)`` between consecutive nodes.

    With ``half_steps`` the halved node spacings this is ``dx * (y0 + y1) / 2``
    to the bit (halving is exact); a zero half-step drops its trapezoid.
    """
    return half_steps * (y[:, 1:] + y[:, :-1])


def _cdf_at(cdf: np.ndarray, nodes: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """``np.interp(phi[r], nodes, cdf[r])`` for each row r, by np.interp's arithmetic.

    ``nodes`` ascend strictly; a phase at or beyond an end node reads that
    end's cdf value.
    """
    above = np.searchsorted(nodes, phi, side="right")
    k = np.clip(above, 1, nodes.size - 1)
    rows = np.arange(phi.size)
    x0, f0 = nodes[k - 1], cdf[rows, k - 1]
    inner = (cdf[rows, k] - f0) / (nodes[k] - x0) * (phi - x0) + f0
    return np.where(above == 0, cdf[:, 0], np.where(above == nodes.size, cdf[:, -1], inner))


def _quantile(cdf: np.ndarray, nodes: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.interp(q[..., r], cdf[r], nodes)`` for each row r, by np.interp's arithmetic.

    Each cdf row runs from 0 to 1 and ``0 <= q < 1``. As in np.interp, q
    lies after the last cdf entry at or below it, so on a flat run of the
    cdf it reads the run's last node.
    """
    above = np.argmax(cdf > q[..., None], axis=-1)  # >= 1, as every row starts at 0
    rows = np.arange(cdf.shape[0])
    x0, f0 = cdf[rows, above - 1], nodes[above - 1]
    return (nodes[above] - f0) / (cdf[rows, above] - x0) * (q - x0) + f0


@dataclass(frozen=True, eq=False)
class Posterior:
    """Normalized phase densities on a grid, one per row; each trapezoidal integral is 1.

    Built from one log density, a single posterior, or from a
    ``(rows, n_points)`` stack of them; the moments of a stack have one
    value per row. Each row is normalized, and its mean and credible
    interval integrated, on its own support window: the contiguous node
    range where its log density is above ``peak - _SUPPORT_CUT``, widened
    by one node on each side; where that cut rounds to the peak, the nodes
    at the peak are the range. Outside it the density is below e^-40 of its
    peak and adds nothing a float64 sum resolves. ``_support`` spans every
    row's window, and each row's trapezoids outside its own are zero. The
    window is integrated once: running sums of mass and first moment give
    each row's normaliser, cdf and mean, which the moment functions read.
    Every sum runs left to right (``np.cumsum``), where a zero adds
    exactly, so a stacked row's moments equal its one-row moments to the
    bit; ``np.sum`` would group the terms pairwise by the window's length
    and the row's offset in it. ``density`` and ``to_csv`` stay full-grid.
    """

    grid: PhaseGrid
    _log_rows: np.ndarray = field(repr=False)  # (rows, n_points), unnormalized
    _peak: np.ndarray = field(repr=False)  # (rows, 1)
    _log_norm: np.ndarray = field(repr=False)  # (rows, 1)
    _support: slice = field(repr=False)
    _cdf: np.ndarray = field(repr=False)  # (rows, nodes of _support), from 0 to 1
    _mean: np.ndarray = field(repr=False)  # (rows,)
    stacked: bool = False

    @classmethod
    def from_log_density(cls, grid: PhaseGrid, log_density: np.ndarray) -> "Posterior":
        """Posteriors proportional to ``exp(log_density)``, each normalized on its own window.

        Taking the first and last node above the cut keeps every mode of a
        multimodal posterior inside the window.
        """
        log_density = np.asarray(log_density, dtype=float)
        if log_density.ndim not in (1, 2) or log_density.shape[-1] != grid.n_points:
            raise ValueError("log_density shape does not match grid")
        rows = np.atleast_2d(log_density)
        if rows.shape[0] < 1:
            raise ValueError("need at least one log density")
        peak = rows.max(axis=1, keepdims=True)
        if not np.all(np.isfinite(peak)):
            raise DegenerateEvidenceError(
                "posterior is zero (or undefined) at every grid node"
            )
        # Where peak - _SUPPORT_CUT rounds to the peak, the float just below it cuts.
        above = rows > np.minimum(peak - _SUPPORT_CUT, np.nextafter(peak, -np.inf))
        any_above = np.flatnonzero(above.any(axis=0))
        support = slice(max(any_above[0] - 1, 0), min(any_above[-1] + 2, grid.n_points))
        above = above[:, support]
        # Each row's first and last node above the cut, in _support
        # coordinates; its window holds trapezoids first - 1 ... last.
        first = np.argmax(above, axis=1)
        last = above.shape[1] - 1 - np.argmax(above[:, ::-1], axis=1)
        left = np.arange(above.shape[1] - 1)
        nodes = grid.nodes[support]
        inside = (left >= first[:, None] - 1) & (left <= last[:, None])
        half_steps = np.where(inside, (nodes[1:] - nodes[:-1]) / 2.0, 0.0)
        relative = np.exp(rows[:, support] - peak)
        # The running sums of mass and first moment; the last mass is the normaliser.
        mass = np.cumsum(_trapezoids(half_steps, relative), axis=1)
        moment = np.cumsum(_trapezoids(half_steps, nodes * relative), axis=1)
        cdf = np.zeros(relative.shape)
        np.divide(mass, mass[:, -1:], out=cdf[:, 1:])
        return cls(
            grid=grid,
            _log_rows=rows,
            _peak=peak,
            _log_norm=np.log(mass[:, -1:]),
            _support=support,
            _cdf=cdf,
            _mean=moment[:, -1] / mass[:, -1],
            stacked=log_density.ndim == 2,
        )

    def _per_row(self, values: np.ndarray):
        return values if self.stacked else float(values[0])

    @cached_property
    def log_density(self) -> np.ndarray:
        """Log of the normalized density (-inf allowed), full-grid."""
        out = self._log_rows - self._peak - self._log_norm
        out.flags.writeable = False
        return out if self.stacked else out[0]

    @cached_property
    def density(self) -> np.ndarray:
        d = np.exp(self.log_density)
        d.flags.writeable = False
        return d

    def to_csv(self) -> str:
        """The density as ``phi,density`` CSV text (phi in radians)."""
        if self.stacked:
            raise ValueError("to_csv writes a single posterior, not a stack")
        return csv_text(["phi", "density"], zip(self.grid.nodes, self.density))


def ideal_log_rows(nodes: np.ndarray) -> np.ndarray:
    """Rows ``2 log cos(phi/2)`` and ``2 log sin(phi/2)`` on ``nodes``.

    The ideal log likelihood of a pulse sequence is the port totals
    (Nc, Nd) times these rows, up to a phase-independent constant.
    """
    with np.errstate(divide="ignore"):
        return 2.0 * np.log(np.stack([np.cos(nodes / 2.0), np.sin(nodes / 2.0)]))


class CountLikelihood:
    """Log likelihood linear in count statistics: ``log L(phi) = s . rows(phi)``.

    ``rows(phis)`` returns one log-likelihood row per statistic over an
    array of phases; a pulse sequence enters only through its statistics
    ``s``, such as its port totals (Nc, Nd) on the ideal interferometer.
    The rows are tabulated on ``grid`` once, so a pulse sequence, or a
    stack of them, costs one matrix product.

    A zero statistic is a count that never occurred, so it must not meet a
    -inf entry, a phase where that count is impossible: 0 * (-inf) would
    poison the sum with NaN. The product runs on the table with -inf read
    as 0, and a node is -inf in a row exactly where one of the row's
    nonzero statistics meets -inf.
    """

    def __init__(self, rows: Callable[[np.ndarray], np.ndarray], grid: PhaseGrid):
        self.rows = rows
        self.grid = grid
        self.table = rows(grid.nodes)
        impossible = np.isneginf(self.table)
        self._finite_table = np.where(impossible, 0.0, self.table)
        self._impossible_nodes = np.flatnonzero(impossible.any(axis=0))
        self._impossible = impossible[:, self._impossible_nodes]

    def on_grid(self, stats: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Unnormalized log likelihood at every grid node of statistics ``stats``.

        ``stats`` is one vector of statistics, or a ``(rows, S)`` stack
        that gives one log likelihood per row. The result is written into
        ``out`` when given, an array of the result's shape. A lone row is
        scored as the first of two equal rows: numpy would take it through
        a matrix-vector product, whose last bits differ from those of the
        same row inside a stack.
        """
        stats = np.asarray(stats)
        if stats.ndim == 1 or len(stats) == 1:
            pair = np.repeat(stats.reshape(1, -1), 2, axis=0)
            lone = np.matmul(pair, self._finite_table)[0].reshape(stats.shape[:-1] + (-1,))
            if out is None:
                out = lone
            else:
                out[...] = lone
        else:
            out = np.matmul(stats, self._finite_table, out=out)
        hit = (stats != 0) @ self._impossible
        nodes = self._impossible_nodes
        out[..., nodes] = np.where(hit, -np.inf, out[..., nodes])
        return out

    def at(self, stats: np.ndarray, phis: np.ndarray) -> np.ndarray:
        """Unnormalized log likelihood of ``(rows, S)`` statistics at ``(rows, K)`` phases.

        Returns ``(rows, K)``. One ``rows`` call builds the rows of every
        phase; zero statistics are read as in ``on_grid``.
        """
        stats, phis = np.asarray(stats), np.asarray(phis, dtype=float)
        table = self.rows(phis.ravel()).reshape(-1, *phis.shape).swapaxes(0, 1)
        impossible = np.isneginf(table)
        out = (stats[:, None, :] @ np.where(impossible, 0.0, table))[:, 0]
        hit = ((stats != 0)[:, None, :] @ impossible)[:, 0]
        out[hit] = -np.inf
        return out


def ideal_likelihood(grid: PhaseGrid) -> CountLikelihood:
    """Ideal-interferometer log likelihood from the port totals (flat-prior posterior shape)."""
    return CountLikelihood(ideal_log_rows, grid)


def single_shot_posterior(outcome: Outcome, grid: PhaseGrid) -> Posterior:
    """Posterior after one pulse; independent of the input intensity."""
    log_density = ideal_likelihood(grid).on_grid([outcome.n_c, outcome.n_d])
    return Posterior.from_log_density(grid, log_density)


def posterior_mean(post: Posterior):
    """Mean phase under the posterior, by trapezoidal quadrature on its support window.

    A float, or one per row of a stacked posterior. Integrated when the
    posterior is built; ``credible_interval`` reuses it.
    """
    return post._per_row(post._mean)


def credible_interval(post: Posterior, level: float = 0.6827):
    """Half-width of the equal-tail-mass interval of ``level`` around the mean.

    A float, or one per row of a stacked posterior. It reads the cdf
    stored when the posterior is built. When the interval would overflow
    a domain edge it ends at that edge (``nodes[0]`` or ``nodes[-1]``) and
    the missing mass is taken from the interior side, so the width stays
    finite and well-defined even for posteriors peaked at 0 or pi.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    nodes = post.grid.nodes[post._support]
    mass_at_mean = _cdf_at(post._cdf, nodes, post._mean)
    lo = mass_at_mean - level / 2.0
    hi = mass_at_mean + level / 2.0
    at_zero = lo <= 0.0
    at_pi = ~at_zero & (hi >= 1.0)
    # A clamped end reads no quantile; its row reads ``level`` in its place.
    a, b = _quantile(
        post._cdf,
        nodes,
        np.stack([np.where(at_zero, level, np.where(at_pi, 1.0 - level, lo)),
                  np.where(at_zero | at_pi, level, hi)]),
    )
    a = np.where(at_zero, post.grid.nodes[0], a)
    b = np.where(at_pi, post.grid.nodes[-1], b)
    return post._per_row((b - a) / 2.0)
