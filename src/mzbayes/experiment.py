"""Monte Carlo harness: one replica scan for estimator bias and sensitivity.

Reproduces the measurement protocol: at each true phase, draw ``p``
pulses, (optionally) push them through the detector confusion channel,
accumulate the Bayesian posterior (through the calibrated misread channel
when noise is configured), and repeat over independent replicas. Each
(phase, replica) pair gets its own seeded stream derived from the master
seed, so a rerun with the same plan draws the same counts. Bayes and ML
read the plan's one likelihood table; a replica's counts enter it only
through the per-port histograms or the port totals.

Each replica is reduced to its estimators' statistics as soon as it is
drawn, and its per-pulse counts are dropped. Bayes then scores a phase's
replicas as stacked posteriors, a block of rows at a time, and the
classical and fringe estimators invert all of the phase's mean count
differences at once. ML and YMK estimate each replica as it is drawn.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from mzbayes._csv import csv_text
from mzbayes._version import __version__ as _code_version
from mzbayes.detector import (
    ConfusionModel,
    apply_noise_counts,
    noisy_log_likelihood_grid,
    port_histograms,
)
# The traced benchmark wraps classical_estimate and noisy_classical_estimate
# by this module's names; the scan itself reads invert_fringe. Its ML gate
# counts one ml_estimate call per replica, so ML scores replicas one by one.
from mzbayes.estimators import (  # noqa: F401
    FringeParams,
    classical_estimate,
    invert_fringe,
    ml_estimate,
    noisy_classical_estimate,
    ymk_mean_estimate,
)
from mzbayes.photon_model import InterferometerModel, PhaseDomainError, _check_phase
from mzbayes.posterior import (
    CountLikelihood,
    PhaseGrid,
    Posterior,
    credible_interval,
    ideal_likelihood,
    port_totals,
    posterior_mean,
)

ESTIMATOR_NAMES = ("bayes", "ml", "classical", "fringe", "ymk")


def default_theta_grid() -> np.ndarray:
    """19 phases theta/pi in {0.05, 0.10, ..., 0.95}."""
    return np.pi * np.linspace(0.05, 0.95, 19)


@dataclass(frozen=True)
class ExperimentPlan:
    """One scan: true phases, shots per estimation, replicas, and seeding.

    The plan holds the model and grid a scan reads, and builds its one
    likelihood table on first use. ``noise``, the channel the simulation
    draws from, comes with ``channel``, the calibrated one the estimators read.
    """

    theta_grid: np.ndarray = field(default_factory=default_theta_grid)
    p: int = 1000
    replicas: int = 150
    seed: int = 0
    model: InterferometerModel = InterferometerModel(nbar=1.08)
    grid: PhaseGrid = PhaseGrid()
    noise: ConfusionModel | None = None
    channel: ConfusionModel | None = None
    fringe: FringeParams | None = None
    estimators: tuple[str, ...] = ("bayes",)

    def __post_init__(self) -> None:
        thetas = np.array(self.theta_grid, dtype=float)
        if thetas.ndim != 1 or thetas.size < 1:
            raise ValueError("theta_grid must be a non-empty 1-D array")
        try:
            _check_phase(thetas)
        except PhaseDomainError as exc:
            raise ValueError(f"theta_grid: {exc}") from None
        thetas.flags.writeable = False
        object.__setattr__(self, "theta_grid", thetas)
        if self.p < 1:
            raise ValueError(f"need p >= 1, got {self.p}")
        if self.replicas < 1:
            raise ValueError(f"need replicas >= 1, got {self.replicas}")
        if self.seed < 0:
            raise ValueError(f"need seed >= 0, got {self.seed}")
        if not self.estimators or len(set(self.estimators)) < len(self.estimators):
            raise ValueError(
                f"need distinct estimators, at least one, got {list(self.estimators)}"
            )
        unknown = set(self.estimators) - set(ESTIMATOR_NAMES)
        if unknown:
            raise ValueError(f"unknown estimators: {sorted(unknown)}")
        if (self.noise is None) != (self.channel is None):
            raise ValueError("a noise model and a calibrated channel come together")
        if self.noise is not None and self.noise.n_max != self.channel.n_max:
            raise ValueError(
                f"noise model n_max {self.noise.n_max} does not match the "
                f"calibrated channel's n_max {self.channel.n_max}"
            )

    @cached_property
    def table(self) -> CountLikelihood:
        """The port totals, or the per-port histograms through the calibrated channel."""
        if self.channel is None:
            return ideal_likelihood(self.grid)
        return CountLikelihood(
            noisy_log_likelihood_grid(self.channel, self.model),
            partial(port_histograms, n_max=self.channel.n_max),
            self.grid,
        )

    def posterior(self, n_c: np.ndarray, n_d: np.ndarray) -> Posterior:
        """The Bayesian posterior of one replica's measured counts."""
        stats = self.table.statistics(n_c, n_d)
        return Posterior.from_log_density(self.grid, self.table.on_grid(stats))

    def manifest(self) -> dict:
        return {
            "code_version": _code_version,
            "theta_grid_pi": [t / math.pi for t in self.theta_grid],
            "p": self.p,
            "replicas": self.replicas,
            "seed": self.seed,
            "nbar": self.model.nbar,
            "ideal_n_max": self.model.n_max,
            "grid_points": self.grid.n_points,
            "noise": self.noise is not None,
            "estimators": list(self.estimators),
        }


def replica_rng(seed: int, phase_idx: int, replica_idx: int) -> np.random.Generator:
    """Independent stream for one (phase, replica) cell of a scan."""
    return np.random.default_rng([seed, phase_idx, replica_idx])


def _sample_measured(
    theta: float, plan: ExperimentPlan, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    n_c, n_d = plan.model.sample_counts(theta, plan.p, rng)
    if plan.noise is not None:
        n_c, n_d = apply_noise_counts(n_c, n_d, plan.noise, rng)
    return n_c, n_d


# Every (rows x grid) float array of a Bayes block stays within this size,
# so the scan's memory does not grow with the number of replicas.
_BLOCK_BYTES = 256 * 1024


def _block_rows(grid: PhaseGrid) -> int:
    """Replicas per stacked posterior: 8 at 4096 nodes."""
    return max(1, _BLOCK_BYTES // (8 * grid.n_points))


class _Estimator(NamedTuple):
    """``reduce`` maps one replica's counts to what the estimator reads of
    them; ``score`` maps a phase's stacked reductions to per-replica
    (values, dthetas), dtheta NaN where the estimator has none."""

    reduce: Callable[[np.ndarray, np.ndarray], object]
    score: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def _no_dtheta(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return values, np.full(values.shape, math.nan)


def _estimators(plan: ExperimentPlan) -> dict[str, _Estimator]:
    """Every estimator by name.

    Each entry looks its estimator up as a module global when called, so
    a wrapper installed on that name sees every call.
    """
    fringe = plan.fringe or FringeParams(amplitude=plan.model.nbar)
    ideal_fringe = FringeParams(amplitude=plan.model.nbar)

    # One block's log likelihoods, rewritten by every block of the scan: a
    # fresh (rows x grid) array per block would grow and trim the heap each
    # time. The posteriors that read it stay inside ``bayes``.
    block = _block_rows(plan.grid)
    log_rows = np.empty((block, plan.grid.n_points))

    def bayes(stats):
        out = np.empty((2, len(stats)))
        for start in range(0, len(stats), block):
            chunk = stats[start : start + block]
            log_density = plan.table.on_grid(chunk, out=log_rows[: len(chunk)])
            post = Posterior.from_log_density(plan.grid, log_density)
            out[:, start : start + block] = posterior_mean(post), credible_interval(post)
        return out[0], out[1]

    def inversion(params):
        return lambda totals: _no_dtheta(
            invert_fringe((totals[:, 0] - totals[:, 1]) / plan.p, params)
        )

    return {
        "bayes": _Estimator(plan.table.statistics, bayes),
        "ml": _Estimator(lambda n_c, n_d: ml_estimate(n_c, n_d, plan.table).phase, _no_dtheta),
        "classical": _Estimator(port_totals, inversion(ideal_fringe)),
        "fringe": _Estimator(port_totals, inversion(fringe)),
        "ymk": _Estimator(ymk_mean_estimate, _no_dtheta),
    }


def run_estimation(
    theta: float, plan: ExperimentPlan, rng: np.random.Generator
) -> tuple[float, float]:
    """One phase estimation: p pulses, accumulated posterior, (mean, dtheta)."""
    post = plan.posterior(*_sample_measured(theta, plan, rng))
    return posterior_mean(post), credible_interval(post)


@dataclass(frozen=True)
class ScanRecord:
    """Replica-aggregated statistics for one (phase, estimator) cell.

    ``mean_dtheta``/``sd_dtheta`` are NaN for estimators without a
    per-estimation uncertainty; ``sd_est`` is NaN for a single replica
    (degenerate record).
    """

    theta: float
    estimator: str
    mean_est: float
    bias: float
    mean_dtheta: float
    sd_est: float
    sd_dtheta: float


@dataclass(frozen=True)
class ScanResult:
    records: tuple[ScanRecord, ...]
    plan: ExperimentPlan

    def record(self, theta: float, estimator: str) -> ScanRecord:
        for rec in self.records:
            if rec.estimator == estimator and math.isclose(rec.theta, theta):
                return rec
        raise KeyError(f"no record for theta={theta}, estimator={estimator}")

    def to_csv(self) -> str:
        """Records as CSV text (theta in units of pi)."""
        return csv_text(
            [f.name for f in fields(ScanRecord)],
            ((rec.theta / math.pi, *astuple(rec)[1:]) for rec in self.records),
        )


def _aggregate(
    theta: float, estimator: str, values: np.ndarray, dthetas: np.ndarray
) -> ScanRecord:
    sd_est = float(np.std(values, ddof=1)) if values.size > 1 else math.nan
    finite_dt = dthetas[np.isfinite(dthetas)]
    mean_dt = float(np.mean(finite_dt)) if finite_dt.size else math.nan
    sd_dt = float(np.std(finite_dt, ddof=1)) if finite_dt.size > 1 else math.nan
    mean_est = float(np.mean(values))
    return ScanRecord(
        theta=theta,
        estimator=estimator,
        mean_est=mean_est,
        bias=mean_est - theta,
        mean_dtheta=mean_dt,
        sd_est=sd_est,
        sd_dtheta=sd_dt,
    )


def scan(plan: ExperimentPlan) -> ScanResult:
    """Every estimator of the plan over its replicas at each true phase."""
    table = _estimators(plan)
    chosen = [table[name] for name in plan.estimators]
    # Estimators that read the same reduction (ideal Bayes, classical and
    # fringe all read the port totals) share one call per replica.
    reducers = list(dict.fromkeys(estimator.reduce for estimator in chosen))
    records: list[ScanRecord] = []
    for phase_idx, theta in enumerate(plan.theta_grid):
        reduced: list[list] = [[] for _ in chosen]
        for replica_idx in range(plan.replicas):
            rng = replica_rng(plan.seed, phase_idx, replica_idx)
            n_c, n_d = _sample_measured(theta, plan, rng)
            reductions = {reduce: reduce(n_c, n_d) for reduce in reducers}
            for estimator, out in zip(chosen, reduced):
                out.append(reductions[estimator.reduce])
        for name, estimator, out in zip(plan.estimators, chosen, reduced):
            values, dthetas = estimator.score(np.array(out, dtype=float))
            records.append(_aggregate(float(theta), name, values, dthetas))
    return ScanResult(records=tuple(records), plan=plan)
