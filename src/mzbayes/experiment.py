"""Monte Carlo harness: one replica scan for estimator bias and sensitivity.

Reproduces the measurement protocol: at each true phase, draw ``p``
pulses, (optionally) push them through the detector confusion channel,
accumulate the Bayesian posterior (through the calibrated misread channel
when noise is configured), and repeat over independent replicas. Each
(phase, replica) pair gets its own seeded stream derived from the master
seed, ``replica_rng``'s, so a rerun with the same plan draws the same
counts; the scan derives the seeds of a run of replicas in one pass.
Bayes and ML read the plan's one likelihood table; a replica's counts
enter it only through its statistics, the port totals or the per-port
histograms, which the scan's block reduces once.

A block of replicas is the scan's unit: each replica of the block draws
its Poisson counts and, on a noisy plan, the uniforms of its misreads,
into buffers shared by the block. The block is then misread, reduced and
scored once, stacked: one misread of all its rows, each row's count sums
(the port totals), and on a noisy plan one pair histogram per row, which
gives the per-port histograms and YMK. Bayes scores the block's
statistics as stacked posteriors, and the classical and fringe
estimators invert all of its mean count differences at once; YMK on an
ideal plan (whose counts have no bound) scores all of its counts at once.
ML scores each row of the block's statistics on its own.

Each true phase is one cell of the scan, scored by ``_CellScanner`` and
mapped by ``_pool.map_cells``, as calibration's phases are: a large scan
on forked worker processes, each with its own block buffers, a small one
in-process. Each cell draws from its own replica streams, and its records
are kept in cell order, so the result does not depend on the worker count.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields
from functools import cache, cached_property
from typing import Callable

import numpy as np

from mzbayes import _pool
from mzbayes._csv import csv_text
from mzbayes._version import __version__ as _code_version
from mzbayes.detector import (
    ConfusionModel,
    misread_rows,
    noisy_log_likelihood_grid,
    pair_histogram,
)
# The traced benchmark's ML gate counts one ml_estimate call per replica,
# so ML scores a block's statistics one row at a time.
from mzbayes.estimators import (
    FringeParams,
    invert_fringe,
    ml_estimate,
    ymk_pair_estimates,
    ymk_row_estimates,
)
from mzbayes.photon_model import InterferometerModel, PhaseDomainError, _check_phase
from mzbayes.posterior import (
    CountLikelihood,
    PhaseGrid,
    Posterior,
    credible_interval,
    ideal_likelihood,
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
    ``fringe``, the fringe the ``fringe`` estimator inverts, defaults to the
    ideal one, and must be given for that estimator behind a non-identity channel.
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
        if self.p > 2.0**62 / self.model.nbar:  # a replica's int64 port totals must not wrap
            raise ValueError(
                f"need plan.p * model.nbar <= 2**62, got {self.p} * {self.model.nbar}"
            )
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
        if "fringe" in self.estimators and self.fringe is None and not (
            self.channel is None or self.channel.is_identity()
        ):
            # the ideal fringe would stand in for the calibrated one: classical by another name
            raise ValueError("the fringe estimator behind a misread channel needs a fitted fringe")

    @cached_property
    def table(self) -> CountLikelihood:
        """Log likelihood of the port totals, or of the per-port histograms through the channel."""
        if self.channel is None:
            return ideal_likelihood(self.grid)
        return CountLikelihood(noisy_log_likelihood_grid(self.channel, self.model), self.grid)

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
    """Independent stream for one (phase, replica) cell of a scan.

    The scan builds the same streams, state for state, from the seed words
    that ``_replica_seed_words`` derives for a run of replicas at once.
    """
    return np.random.default_rng([seed, phase_idx, replica_idx])


# numpy's SeedSequence (O'Neill's seed_seq_fe) hashes its entropy into a
# pool of four uint32 words, then the pool into the generator's state, each
# hash with the next constant of a chain that does not depend on the data.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(n: int) -> list[int]:
    """SeedSequence's entropy words of a non-negative int, least significant first."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


@cache
def _hash_chain(init: int, mult: int, hashes: int) -> np.ndarray:
    """The column of constants ``init * mult**i`` mod 2**32 for i = 0 .. hashes."""
    chain = [init]
    for _ in range(hashes):
        chain.append(chain[-1] * mult & _MASK32)
    chain = np.array(chain, dtype=np.uint32)[:, None]
    chain.flags.writeable = False  # shared by every call
    return chain


def _hashmix(values: np.ndarray, chain: np.ndarray, k: int, rows: int) -> np.ndarray:
    """Hashes ``k .. k + rows - 1`` of the chain, one per row of ``values``."""
    values = (values ^ chain[k : k + rows]) * chain[k + 1 : k + rows + 1]
    return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = _MIX_L * x - _MIX_R * y
    return mixed ^ (mixed >> 16)


def _replica_seed_words(seed: int, phase_idx: int, start: int, count: int) -> np.ndarray:
    """PCG64's seed words of replicas ``start .. start + count - 1``, one ``(4,)`` row each.

    Row k is ``SeedSequence([seed, phase_idx, start + k]).generate_state(4,
    np.uint64)``, the state ``replica_rng`` seeds. SeedSequence's steps run
    on a ``(4, count)`` pool of uint32 words, one column per replica. The
    run must not straddle a multiple of 2**32, so that only the low word of
    the replica index varies along it.
    """
    head = _uint32_words(seed) + _uint32_words(phase_idx)
    low, *high = _uint32_words(start)
    words = len(head) + 1 + len(high)
    entropy = np.zeros((max(4, words), count), dtype=np.uint32)  # short entropy hashes as zeros
    entropy[: len(head)] = np.array(head, dtype=np.uint32)[:, None]
    entropy[len(head)] = low + np.arange(count, dtype=np.uint32)
    entropy[len(head) + 1 : words] = np.array(high, dtype=np.uint32)[:, None]
    chain = _hash_chain(_INIT_A, _MULT_A, 16 + 4 * (len(entropy) - 4))
    pool = _hashmix(entropy[:4], chain, 0, 4)
    k = 4
    for src in range(4):  # each word into each other word, in order
        dst = [i for i in range(4) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], chain, k, 3))
        k += 3
    for word in entropy[4:]:  # entropy past the pool, into every word
        pool = _mix(pool, _hashmix(word, chain, k, 4))
        k += 4
    state = _hashmix(np.tile(pool, (2, 1)), _hash_chain(_INIT_B, _MULT_B, 8), 0, 8)
    # numpy reads the eight uint32 words as four little-endian uint64s
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


@cache
def _seed_words_type() -> type:
    """The ``ISeedSequence`` that hands ``PCG64`` one replica's derived seed words.

    Built on first use: numpy imports numpy.random when it is first used,
    and importing it with this module would add about 10 ms to every command.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"holds PCG64's 4 uint64 seed words, not {n_words} of {dtype}")
            return self.words

    return SeedWords


# Replicas whose seed words are derived at once: a power of two, so that a
# run of them starts at a multiple of its length and never straddles 2**32.
_SEED_RUN = 4096


def _replica_rngs(seed: int, phase_idx: int, replicas: int):
    """``replica_rng(seed, phase_idx, j)`` for j = 0 .. replicas - 1, each built when taken."""
    seed_words = _seed_words_type()
    for start in range(0, replicas, _SEED_RUN):
        for words in _replica_seed_words(seed, phase_idx, start, min(_SEED_RUN, replicas - start)):
            yield np.random.Generator(np.random.PCG64(seed_words(words)))


# A block's draw buffers, and its (rows x grid) log likelihoods, each stay
# within this size, so the scan's memory does not grow with the number of
# replicas. The misreads' and the posteriors' temporaries take about as
# much again.
_BLOCK_BYTES = 512 * 1024


def _block_rows(plan: ExperimentPlan) -> int:
    """Replicas per block: 16 at p = 1000 and 4096 nodes, ideal or noisy."""
    per_replica = 8 * max(plan.grid.n_points, plan.p * (2 if plan.noise is None else 4))
    return max(1, min(plan.replicas, _BLOCK_BYTES // per_replica))


class _Draws:
    """Buffers for a block of replicas' draws, rewritten by every block of a scan.

    Row r holds one replica's Poisson counts at both ports and, on a noisy
    plan, the 2p uniforms of its misreads (port c's, then port d's): the
    draws of ``sample_counts`` then ``apply_noise_counts``. Reused buffers
    keep the heap from growing and trimming once per block.
    """

    def __init__(self, plan: ExperimentPlan, rows: int):
        self.plan = plan
        self.counts = np.empty((2, rows, plan.p), dtype=np.int64)
        self.uniforms = None if plan.noise is None else np.empty((rows, 2 * plan.p))

    def draw(self, row: int, theta: float, rng: np.random.Generator) -> None:
        """One replica's draws from its stream into row ``row``."""
        self.counts[0, row], self.counts[1, row] = self.plan.model.sample_counts(
            theta, self.plan.p, rng
        )
        if self.uniforms is not None:
            rng.random(out=self.uniforms[row])

    def block(self, rows: int) -> "_Block":
        """The measured counts of the first ``rows`` replicas."""
        n_c, n_d = self.counts[:, :rows]
        if self.uniforms is not None:
            reads_c, reads_d = self.plan.noise.column_reads
            p = self.plan.p
            n_c = misread_rows(n_c, self.uniforms[:rows, :p], reads_c)
            n_d = misread_rows(n_d, self.uniforms[:rows, p:], reads_d)
        return _Block(self.plan, n_c, n_d)


class _Block:
    """A block's measured counts, ``(rows, p)`` per port, each statistic reduced once."""

    def __init__(self, plan: ExperimentPlan, n_c: np.ndarray, n_d: np.ndarray):
        self.plan = plan
        self.n_c = n_c
        self.n_d = n_d

    @cached_property
    def pairs(self) -> np.ndarray:
        """Each row's ``pair_histogram`` (noisy plans, whose counts stop at n_max)."""
        return pair_histogram(self.n_c, self.n_d, self.plan.noise.n_max)

    @cached_property
    def totals(self) -> np.ndarray:
        """Each row's port totals (Nc, Nd)."""
        return np.stack([self.n_c.sum(axis=1), self.n_d.sum(axis=1)], axis=1)

    @cached_property
    def statistics(self) -> np.ndarray:
        """Each row's statistics of the plan's table: the totals, or the port histograms."""
        if self.plan.noise is None:
            return self.totals
        bins = self.plan.noise.n_max + 1
        pairs = self.pairs.reshape(-1, bins, bins)
        return np.concatenate([pairs.sum(axis=2), pairs.sum(axis=1)], axis=1)


def _no_dtheta(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return values, np.full(values.shape, math.nan)


def _estimators(plan: ExperimentPlan) -> dict[str, Callable]:
    """Every estimator by name, each mapping a block to per-replica (values, dthetas).

    dtheta is NaN where the estimator has none. Each entry looks its
    estimator up as a module global when called, so a wrapper installed on
    that name sees every call.
    """
    fringe = plan.fringe or FringeParams(amplitude=plan.model.nbar)
    ideal_fringe = FringeParams(amplitude=plan.model.nbar)

    # One block's log likelihoods, rewritten by every block of the scan: a
    # fresh (rows x grid) array per block would grow and trim the heap each
    # time. The posteriors that read it stay inside ``bayes``.
    log_rows = np.empty((_block_rows(plan), plan.grid.n_points))

    def bayes(block: _Block):
        stats = block.statistics
        log_density = plan.table.on_grid(stats, out=log_rows[: len(stats)])
        post = Posterior.from_log_density(plan.grid, log_density)
        return posterior_mean(post), credible_interval(post)

    def inversion(params):
        return lambda block: _no_dtheta(
            invert_fringe(np.subtract(*block.totals.T, dtype=float) / plan.p, params)
        )

    def ml(block: _Block):
        return _no_dtheta(np.array([ml_estimate(s, plan.table).phase for s in block.statistics]))

    def ymk(block: _Block):
        # ideal counts have no bound, so an ideal replica has no fixed-width pair histogram
        if plan.noise is None:
            return _no_dtheta(ymk_row_estimates(block.n_c, block.n_d))
        return _no_dtheta(ymk_pair_estimates(block.pairs, plan.noise.n_max))

    return {
        "bayes": bayes,
        "ml": ml,
        "classical": inversion(ideal_fringe),
        "fringe": inversion(fringe),
        "ymk": ymk,
    }


def run_estimation(
    theta: float, plan: ExperimentPlan, rng: np.random.Generator
) -> tuple[float, float]:
    """One phase estimation, p pulses scored by the scan's Bayes scorer: (mean, dtheta).

    It is the scan's one-replica case: the same draws, the same reduction.
    """
    draws = _Draws(plan, 1)
    draws.draw(0, theta, rng)
    (mean,), (dtheta,) = _estimators(plan)["bayes"](draws.block(1))
    return float(mean), float(dtheta)


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


class _CellScanner:
    """A plan's θ cells, each scored to its records: the task ``scan`` maps over its cells.

    Its block buffers are allocated here, in the calling process, so one
    too large to hold raises numpy's own error there; a forked worker
    writes its own copy of their pages. The plan's table and its channel's
    reads are built after them, before any fork, so that workers inherit them.
    """

    def __init__(self, plan: ExperimentPlan):
        self.plan = plan
        table = _estimators(plan)
        self.chosen = [table[name] for name in plan.estimators]
        self.rows = _block_rows(plan)
        self.draws = _Draws(plan, self.rows)
        plan.table
        if plan.noise is not None:
            plan.noise.column_reads

    def __call__(self, phase_idx: int) -> list[ScanRecord]:
        """Every estimator's record at the plan's phase ``phase_idx``."""
        plan, rows = self.plan, self.rows
        theta = plan.theta_grid[phase_idx]
        scored: list[list] = [[] for _ in self.chosen]
        rngs = _replica_rngs(plan.seed, phase_idx, plan.replicas)
        for start in range(0, plan.replicas, rows):
            size = min(rows, plan.replicas - start)
            for row in range(size):
                self.draws.draw(row, theta, next(rngs))
            block = self.draws.block(size)
            for estimator, out in zip(self.chosen, scored):
                out.append(estimator(block))
        records = []
        for name, out in zip(plan.estimators, scored):
            values, dthetas = (np.concatenate(part) for part in zip(*out))
            records.append(_aggregate(float(theta), name, values, dthetas))
        return records


def scan(plan: ExperimentPlan) -> ScanResult:
    """Every estimator of the plan over its replicas at each true phase.

    The θ cells run in-process, or on worker processes (``_pool.map_cells``).
    Each cell draws from its own replica streams and its records are kept
    in cell order, so the result does not depend on the number of workers.
    """
    cells = plan.theta_grid.size
    records = _pool.map_cells(_CellScanner(plan), cells, cells * plan.replicas * plan.p)
    return ScanResult(records=tuple(rec for cell in records for rec in cell), plan=plan)
