"""Photon-number-resolving detector imperfections.

Each port has an independent forward confusion matrix K[m, t]: the
probability of reporting m photons when t were present, with true counts
above ``n_max`` folded into the ``n_max`` column (the amplifiers cap the
resolvable count). Calibration runs at known phases fit both matrices;
the fitted channel gives the instrument's likelihood, and its Bayes
inverse, the retrodictive weights P(true pair | measured pair), reports
how often each measured pair is read correctly.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from mzbayes import _pool
from mzbayes._csv import csv_text
from mzbayes.photon_model import InterferometerModel, PhaseDomainError, _check_phase

_COLUMN_TOL = 1e-12
# The channel fit stops once it is certified within this many nats of the
# maximum log-likelihood per observed pulse (6.6e-6 nats for 33 x 200k
# pulses), or raises FitError after _NEWTON_STEPS steps.
_GAP_PER_PULSE = 1e-12
_NEWTON_STEPS = 200
# Phase nodes of the trapezoid that averages true-pair probabilities over [0, pi].
_N_QUAD = 2001
# Pulses per step of the misread channel and of a calibration phase's draws.
_CHUNK = 1 << 16
# Per true count t of one port: (base, interior cdf edges), see _column_reads.
_Reads = tuple[tuple[int, tuple[float, ...]], ...]

# Per-count report fidelity for the default noisy regime: each true count t
# is reported correctly with probability _REGIME_FIDELITY[t], otherwise read
# one photon low. Chosen so the phase-averaged retrodictive diagonals for
# measured (0,0), (0,1), (1,1), (0,2) approximate the 0.54/0.67/0.67/0.87
# working point, with (0,0) the worst pair overall.
_REGIME_FIDELITY = (1.0, 0.30303653, 0.76134587, 0.94439556, 0.78775097)


class CalibrationError(ValueError):
    """Invalid calibration request."""


class FitError(RuntimeError):
    """Retrodictive-weight or fringe fit could not be carried out."""


def _levels(n_max: int) -> int:
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    return n_max + 1


def _validate_forward(K: np.ndarray, n_max: int, name: str) -> np.ndarray:
    K = np.asarray(K, dtype=float)
    if K.shape != (_levels(n_max),) * 2:
        raise ValueError(f"{name} must be {(n_max + 1, n_max + 1)}, got {K.shape}")
    if not np.all((K >= 0.0) & (K <= 1.0)):
        raise ValueError(f"{name} entries must lie in [0, 1]")
    col_sums = K.sum(axis=0)
    if np.any(np.abs(col_sums - 1.0) > _COLUMN_TOL):
        raise ValueError(f"{name} columns must sum to 1, got {col_sums}")
    K = K.copy()
    K.flags.writeable = False
    return K


@dataclass(frozen=True)
class ConfusionModel:
    """Per-port forward misread matrices K[measured, true], truncated at n_max."""

    forward_c: np.ndarray
    forward_d: np.ndarray
    n_max: int = 4

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "forward_c", _validate_forward(self.forward_c, self.n_max, "forward_c")
        )
        object.__setattr__(
            self, "forward_d", _validate_forward(self.forward_d, self.n_max, "forward_d")
        )

    @classmethod
    def identity(cls, n_max: int = 4) -> "ConfusionModel":
        eye = np.eye(_levels(n_max))
        return cls(forward_c=eye, forward_d=eye, n_max=n_max)

    @classmethod
    def paper_regime(cls, n_max: int = 4) -> "ConfusionModel":
        """Default synthetic noisy regime (both ports share one matrix)."""
        K = np.zeros((_levels(n_max),) * 2)
        K[0, 0] = 1.0
        for t in range(1, n_max + 1):
            g = _REGIME_FIDELITY[min(t, len(_REGIME_FIDELITY) - 1)]
            K[t, t] = g
            K[t - 1, t] = 1.0 - g
        return cls(forward_c=K, forward_d=K, n_max=n_max)

    @cached_property
    def column_reads(self) -> tuple[_Reads, _Reads]:
        """Each port's ``_column_reads``, computed once; a caller that forks computes it first."""
        return _column_reads(self.forward_c), _column_reads(self.forward_d)

    def is_identity(self) -> bool:
        eye = np.eye(self.n_max + 1)
        return bool(
            np.array_equal(self.forward_c, eye) and np.array_equal(self.forward_d, eye)
        )


def _column_reads(K: np.ndarray) -> _Reads:
    """What a uniform reads in each column's cdf, as ``rng.choice(p=K[:, t])`` builds it.

    ``choice`` returns ``cdf.searchsorted(u, side="right")``: the number of
    cdf entries ``<= u``. For ``0 <= u < 1`` an entry ``<= 0`` always counts
    and an entry ``>= 1`` never does, so column t reads ``base`` plus one for
    each interior edge (strictly inside (0, 1)) with ``u >= edge``.
    """
    cdf = np.cumsum(K.T, axis=1)
    cdf /= cdf[:, -1:]
    return tuple(
        (int(np.count_nonzero(row <= 0.0)), tuple(row[(row > 0.0) & (row < 1.0)].tolist()))
        for row in cdf
    )


def misread_rows(counts: np.ndarray, uniforms: np.ndarray, reads: _Reads) -> np.ndarray:
    """Misread rows of one port's true counts, each row with its own pre-drawn uniforms.

    ``counts`` and ``uniforms`` are ``(rows, pulses)``; ``reads`` is
    ``_column_reads(K)``. Each row's uniforms are handed out in stable
    order of its folded true counts (count ``n_max`` and above last) and
    read against their column's cdf edges. ``apply_noise_counts`` draws a
    run's uniforms in that order, so when ``uniforms[r]`` are the next
    draws of a stream, row r reads what ``apply_noise_counts`` (and
    ``rng.choice``) read on that stream. One stable sort of (row, folded
    count) keys orders every row at once. The scan misreads its blocks of
    replicas here, a row per replica, whose uniforms are drawn with the
    replica's Poisson counts, before the block is read.
    """
    counts = np.asarray(counts)
    if counts.size and counts.min() < 0:
        raise ValueError("true counts must be >= 0")
    rows = counts.shape[0]
    bins = len(reads)
    folded = np.minimum(counts, bins - 1)
    keys = folded.astype(np.min_scalar_type(rows * bins - 1))
    keys += np.arange(0, rows * bins, bins, dtype=keys.dtype)[:, None]
    handed = np.empty(counts.size)
    handed[np.argsort(keys, axis=None, kind="stable")] = np.ravel(uniforms)
    folded = folded.ravel()
    out = np.array([base for base, _ in reads], dtype=counts.dtype)[folded]
    for k in range(max(len(edges) for _, edges in reads)):
        # a column with fewer edges reads none past its last: u < 1 < 2
        edge = np.array([edges[k] if k < len(edges) else 2.0 for _, edges in reads])
        out += handed >= edge[folded]
    return out.reshape(counts.shape)


def apply_noise_counts(
    n_c: np.ndarray,
    n_d: np.ndarray,
    model: ConfusionModel,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """The misread channel on one run's per-pulse counts: port c's, then port d's.

    Each port draws one uniform per pulse, group by group in ascending
    true count ``t``, and compares it as ``rng.choice(n_max + 1, p=K[:,
    t])`` does, so the reported counts and the generator's final state are
    those of ``choice``. Counts above ``n_max`` fold into the ``n_max``
    column. Each group is read ``_CHUNK`` pulses at a time, in pulse order,
    so the temporaries do not grow with the pulse count and the uniforms
    are those of one call. Drawing each group's uniforms where it is read
    is the fast form at calibration's 200k pulses per phase;
    ``misread_rows`` reads the same uniforms drawn beforehand.
    """
    reported = []
    for counts, reads in zip((n_c, n_d), model.column_reads):
        flat = np.ravel(counts)
        out = np.empty_like(flat)
        chunks = [(flat[i : i + _CHUNK], out[i : i + _CHUNK]) for i in range(0, flat.size, _CHUNK)]
        seen = 0
        for t, (base, edges) in enumerate(reads):
            for chunk, read_out in chunks:
                where = np.flatnonzero(chunk == t if t < model.n_max else chunk >= t)
                if where.size:
                    u = rng.random(where.size)
                    read = base
                    for edge in edges:
                        read = read + (u >= edge)
                    read_out[where] = read
                    seen += where.size
        if seen != flat.size:
            raise ValueError("true counts must be >= 0")
        reported.append(out.reshape(np.shape(counts)))
    return reported[0], reported[1]


def measured_port_distributions(
    phi, model: ConfusionModel, ideal: InterferometerModel
) -> tuple[np.ndarray, np.ndarray]:
    """Distributions of the reported counts at each port.

    ``phi`` is a phase or an array of G phases; each port's distribution
    is then ``(n_max+1,)`` or ``(n_max+1, G)``. It is the forward matrix
    times the matrix folding true counts above ``n_max`` into the ``n_max``
    bin times the Poisson pmfs of the true counts.
    """
    fold = np.minimum(np.arange(ideal.n_max + 1), model.n_max)
    p_c, p_d = ideal.port_pmfs(phi)
    return model.forward_c[:, fold] @ p_c, model.forward_d[:, fold] @ p_d


def pair_histogram(n_c: np.ndarray, n_d: np.ndarray, n_max: int) -> np.ndarray:
    """Counts of each measured pair, flattened at index ``nc * (n_max+1) + nd``.

    A ``(rows, p)`` stack of runs gives one histogram per row, from one ``bincount``.
    """
    if np.max(n_c, initial=0) > n_max or np.max(n_d, initial=0) > n_max:
        raise ValueError(f"measured counts exceed the reportable maximum {n_max}")
    bins = n_max + 1
    index = np.asarray(n_c) * bins + n_d
    if index.ndim == 1:
        return np.bincount(index, minlength=bins * bins)
    rows = len(index)
    index = index + np.arange(0, rows * bins * bins, bins * bins)[:, None]
    return np.bincount(index.ravel(), minlength=rows * bins * bins).reshape(rows, -1)


def noisy_joint_pmf(model: ConfusionModel, ideal: InterferometerModel):
    """Callable phi -> joint pmf matrix over measured pairs {0..n_max}^2."""

    def pmf(phi: float) -> np.ndarray:
        return np.outer(*measured_port_distributions(phi, model, ideal))

    return pmf


def noisy_log_likelihood_grid(model: ConfusionModel, ideal: InterferometerModel):
    """Callable phis -> per-port log P_fit(reported count | phi) rows.

    The joint likelihood factorizes over the ports, so the log likelihood
    of a pulse sequence is its per-port histograms of reported counts
    (port c's counts 0..n_max, then port d's) times these ``2 (n_max+1)``
    rows, in that order.
    """

    def log_rows(phis: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(np.concatenate(measured_port_distributions(phis, model, ideal)))

    return log_rows


def _true_count_dists(
    phases: np.ndarray, ideal: InterferometerModel, n_max: int, error: type[Exception]
) -> tuple[np.ndarray, np.ndarray]:
    """Folded true-count laws ``(phases, n_max+1)`` at ports c and d.

    Raises ``error`` unless they resolve the ``n_max + 1`` levels the channel fit needs.
    """
    dist_c, dist_d = measured_port_distributions(phases, ConfusionModel.identity(n_max), ideal)
    if np.linalg.matrix_rank(dist_c.T) < n_max + 1:
        raise error(
            f"too few distinct calibration phases to resolve {n_max + 1} true-count levels"
        )
    return dist_c.T, dist_d.T


@dataclass(frozen=True)
class CalibrationData:
    """Measured-count histograms collected at known phases."""

    phases: np.ndarray
    pulses_per_phase: int
    counts: np.ndarray  # (n_phases, n_max+1, n_max+1)

    @property
    def n_max(self) -> int:
        return self.counts.shape[1] - 1

    def mean_difference(self) -> np.ndarray:
        """Per-phase empirical mean of (n_c - n_d), for fringe fitting."""
        nc = np.arange(self.n_max + 1)
        diff = nc[:, None] - nc[None, :]
        return (self.counts * diff).sum(axis=(1, 2)) / self.pulses_per_phase

    def to_csv(self) -> str:
        """Histograms as ``phi,nc,nd,count`` CSV text (phi in units of pi)."""
        return csv_text(
            ["phi", "nc", "nd", "count"],
            (
                (self.phases[j] / np.pi, nc, nd, count)
                for (j, nc, nd), count in np.ndenumerate(self.counts)
            ),
        )


def _pair_dtype(n_max: int) -> np.dtype:
    """Smallest unsigned dtype that holds a pair index ``nc * (n_max+1) + nd``."""
    return np.min_scalar_type((n_max + 1) ** 2 - 1)


def _calibration_phase(
    phi: float,
    stream: np.random.Generator,
    pulses: int,
    model: ConfusionModel,
    ideal: InterferometerModel,
) -> np.ndarray:
    """One phase's ``(n_max+1, n_max+1)`` pair histogram, drawn from ``stream``.

    The draws are those of ``sample_counts`` then ``apply_noise_counts``:
    port c's Poisson counts, port d's, then each port's misreads, which
    ``apply_noise_counts`` itself makes. The counts are drawn ``_CHUNK``
    pulses at a time (consecutive calls use the stream as one call does)
    and kept folded at ``n_max`` in ``_pair_dtype``; the channel reads a
    count above ``n_max`` as ``n_max``, so folding changes no read.
    """
    n_max = model.n_max
    folded = []
    for mu in ideal.output_means(phi):
        port = np.empty(pulses, _pair_dtype(n_max))
        for start in range(0, pulses, _CHUNK):
            chunk = port[start : start + _CHUNK]
            np.minimum(stream.poisson(mu, chunk.size), n_max, out=chunk, casting="unsafe")
        folded.append(port)
    m_c, m_d = apply_noise_counts(*folded, model, stream)
    hist = sum(
        pair_histogram(m_c[start : start + _CHUNK], m_d[start : start + _CHUNK], n_max)
        for start in range(0, pulses, _CHUNK)
    )
    return hist.reshape(n_max + 1, n_max + 1)


def simulate_calibration(
    phases: Sequence[float],
    pulses_per_phase: int,
    model: ConfusionModel,
    ideal: InterferometerModel,
    rng: np.random.Generator,
) -> CalibrationData:
    """Simulate a calibration run: known phases, many pulses, noisy readout.

    Phases too few to resolve the true counts are rejected before any
    draw. Each phase gets an independent child stream of ``rng``, so the
    result does not depend on the order phases run in, nor on the number
    of worker processes that run them (``_pool.map_cells``, under the
    scan's worker rule).
    """
    phases = np.asarray(phases, dtype=float)
    if pulses_per_phase < 1:
        raise CalibrationError(f"need >= 1 pulse per phase, got {pulses_per_phase}")
    try:
        _check_phase(phases)
    except PhaseDomainError as exc:
        raise CalibrationError(f"calibration {exc}") from None
    _true_count_dists(phases, ideal, model.n_max, CalibrationError)
    streams = rng.spawn(len(phases))
    model.column_reads  # built once, before any worker forks

    def phase(j: int) -> np.ndarray:
        return _calibration_phase(
            phases[j], streams[j], pulses=pulses_per_phase, model=model, ideal=ideal
        )

    counts = _pool.map_cells(phase, len(phases), len(phases) * pulses_per_phase)
    return CalibrationData(
        phases=phases, pulses_per_phase=pulses_per_phase, counts=np.stack(counts)
    )


@dataclass(frozen=True)
class RetrodictiveWeights:
    """P(true pair | measured pair), one distribution per measured pair.

    ``table[nc, nd]`` is the (n_max+1, n_max+1) distribution over true
    pairs given measured counts (nc, nd). ``nbar`` is the mean photon
    number the weights were derived at, or None when they do not depend
    on it (the identity weights). ``channel`` is the forward channel the
    weights invert, or None when it is not known. ``fit`` holds each
    port's channel-fit diagnostics when the weights were fitted here; the
    JSON file records them, and reading it back leaves them out.
    ``fringe_sha256`` is the sha256 of the fringe file written beside them.
    """

    table: np.ndarray  # (n_max+1, n_max+1, n_max+1, n_max+1)
    n_max: int = 4
    nbar: float | None = None
    channel: ConfusionModel | None = None
    fit: dict | None = None
    fringe_sha256: str | None = None

    def __post_init__(self) -> None:
        if self.channel is not None and self.channel.n_max != self.n_max:
            raise ValueError(f"channel n_max {self.channel.n_max} != weights n_max {self.n_max}")
        shape = (self.n_max + 1,) * 4
        table = np.asarray(self.table, dtype=float)
        if table.shape != shape:
            raise ValueError(f"weights table must be {shape}, got {table.shape}")
        if not np.all((table >= 0.0) & (table <= 1.0)):
            raise ValueError("weights must lie in [0, 1]")
        sums = table.sum(axis=(2, 3))
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise ValueError("each retrodictive distribution must sum to 1")
        table = table.copy()
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @classmethod
    def identity(cls, n_max: int = 4) -> "RetrodictiveWeights":
        bins = n_max + 1
        eye = np.eye(bins * bins).reshape((bins,) * 4)
        return cls(table=eye, n_max=n_max, channel=ConfusionModel.identity(n_max))

    def diagonal(self, n_c: int, n_d: int) -> float:
        """P(true == measured) for a measured pair."""
        return float(self.table[n_c, n_d, n_c, n_d])

    def worst_diagonal(self) -> tuple[float, tuple[int, int]]:
        """Smallest P(true == measured) and its measured pair (the first on ties)."""
        diagonals = np.einsum("ijij->ij", self.table)
        nc, nd = np.unravel_index(np.argmin(diagonals), diagonals.shape)
        return float(diagonals[nc, nd]), (int(nc), int(nd))

    def to_json(self) -> str:
        weights: dict[str, dict[str, float]] = {}
        nonzero = np.nonzero(self.table)
        for (nc, nd, tc, td), w in zip(zip(*nonzero), self.table[nonzero]):
            weights.setdefault(f"({nc},{nd})", {})[f"({tc},{td})"] = w
        doc = {"n_max": self.n_max, "nbar": self.nbar}
        if self.channel is not None:
            doc["forward_c"] = self.channel.forward_c.tolist()
            doc["forward_d"] = self.channel.forward_d.tolist()
        if self.fit is not None:
            doc["fit"] = self.fit
        if self.fringe_sha256 is not None:
            doc["fringe_sha256"] = self.fringe_sha256
        doc["weights"] = weights
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str, n_max: int | None = None) -> "RetrodictiveWeights":
        """Weights from ``to_json`` text; given ``n_max``, a file for another is refused unread."""
        obj = json.loads(text)
        if n_max is not None and int(obj["n_max"]) != n_max:
            raise ValueError(f"weights for n_max {obj['n_max']}, but the noise model has "
                             f"n_max {n_max}")
        n_max = int(obj["n_max"])
        bins, weights = n_max + 1, obj["weights"]
        table = np.zeros((bins * bins,) * 2)
        # each pair key "(nc,nd)" that to_json writes, to its flat pair index
        index = {f"({nc},{nd})": nc * bins + nd for nc in range(bins) for nd in range(bins)}
        try:
            for meas, dist in weights.items():
                row = table[index[meas]]
                for true, w in dist.items():
                    row[index[true]] = float(w)
        except KeyError as exc:
            raise ValueError(f"weights key {exc.args[0]!r} is not a pair (nc,nd) of counts "
                             f"0..{n_max}") from None
        nbar, channel = obj.get("nbar"), None
        if "forward_c" in obj or "forward_d" in obj:
            channel = ConfusionModel(obj["forward_c"], obj["forward_d"], n_max)
        nbar = None if nbar is None else float(nbar)
        return cls(table=table.reshape((bins,) * 4), n_max=n_max, nbar=nbar, channel=channel,
                   fringe_sha256=obj.get("fringe_sha256"))


def _fit_port(observed: np.ndarray, true_dists: np.ndarray) -> tuple[np.ndarray, dict]:
    """Maximum-likelihood forward matrix K[m, t] of one port, and how the fit went.

    ``observed[j, m]`` counts reported value m at calibration phase j and
    ``true_dists[j, t]`` is the law of the true count there; K maximises
    ``f(K) = sum observed * log(true_dists @ K.T)`` over matrices whose
    columns sum to 1. A reported count never observed gets 0 in every
    column. The other rows are found by the log-barrier Newton method
    (Boyd & Vandenberghe, *Convex Optimization*, 2004, ch. 11): each step
    solves every row's block of the Hessian and the column sums through
    one Schur complement, in steps scaled by K; it is cut back to keep K
    positive and then until the barrier objective rises (Armijo). Once a
    centring is done the barrier weight falls tenfold. f is concave, so
    the Frank-Wolfe gap ``sum_t max_m G[m, t] - sum_m K[m, t] G[m, t]``
    (G the gradient) bounds how far f(K) lies below its maximum; the fit
    stops once that gap is at most ``_GAP_PER_PULSE`` nats per observed
    pulse, and raises ``FitError`` if it cannot get there in
    ``_NEWTON_STEPS`` steps.
    """
    if not np.all(observed.sum(axis=1) @ true_dists > 0.0):
        raise FitError("degenerate confusion fit: unpopulated true count")
    seen = observed.sum(axis=0) > 0.0
    obs, T = observed[:, seen], true_dists
    rows, cols = obs.shape[1], T.shape[1]
    tol = _GAP_PER_PULSE * observed.sum()
    K = np.full((rows, cols), 1.0 / rows)

    def gradient(K):
        P = T @ K.T
        G = (obs / P).T @ T
        return P, G, float((K * (G.max(axis=0) - G)).sum())

    P, G, gap = gradient(K)
    mu, steps = gap / K.size, 0
    while not gap <= tol:
        if steps == _NEWTON_STEPS or not np.isfinite(gap):
            raise FitError(f"not converged: gap {gap:.3g} nats after {steps} Newton steps, "
                           f"tolerance {tol:.3g}")
        steps += 1
        A = T.T @ ((obs / P**2).T[:, :, None] * T)  # -Hessian of f, one block per row
        B = K[:, :, None] * A * K[:, None, :] + mu * np.eye(cols)
        # the gradient less the column sums' current multipliers, so that
        # the step does not come from the difference of large numbers
        g = K * (G - (K * G).sum(axis=0) - rows * mu) + mu
        try:
            X = np.linalg.solve(B, np.concatenate([g[:, :, None], K[:, :, None] * np.eye(cols)], 2))
            d = X[:, :, 0] - X[:, :, 1:] @ np.linalg.solve(
                (K[:, :, None] * X[:, :, 1:]).sum(axis=0), (K * X[:, :, 0]).sum(axis=0)
            )
        except np.linalg.LinAlgError as exc:
            raise FitError(f"singular Newton system after {steps} steps: {exc}") from None
        decrement = float(np.einsum("mt,mts,ms->", K * d, A, K * d) + mu * (d * d).sum())
        alpha = min(1.0, 0.99 / max(-d.min(), 1e-300))
        dP_P = (T @ (K * d).T) / P
        while (obs * np.log1p(alpha * dP_P)).sum() + mu * np.log1p(alpha * d).sum() < (
            1e-4 * alpha * decrement
        ):
            alpha *= 0.5
            if alpha < 1e-20:
                raise FitError(f"Newton step found no ascent after {steps} steps, gap {gap:.3g}")
        K = K * (1.0 + alpha * d)
        K /= K.sum(axis=0)
        P, G, gap = gradient(K)
        if decrement <= K.size * mu:
            mu /= 10.0
    fitted = np.zeros((len(seen), cols))
    fitted[seen] = K
    fit = {"newton_steps": steps, "gap_nats": gap,
           "log_likelihood": float((obs * np.log(P)).sum()), "converged": True}
    return fitted, fit


def fit_confusion_model(
    calib: CalibrationData, ideal: InterferometerModel
) -> tuple[ConfusionModel, dict[str, dict]]:
    """Fit per-port forward confusion matrices from calibration histograms.

    The reported count distribution at each port is a mixture over the
    latent true count, P(m | phi) = sum_t K[m, t] * PoissonFolded(t;
    mu(phi)), and each port's K is its multinomial maximum likelihood
    across all calibration phases jointly (``_fit_port``). Returns the
    channel and each port's fit diagnostics, keyed ``"c"`` and ``"d"``.
    """
    n_max = calib.n_max
    true_dists = _true_count_dists(calib.phases, ideal, n_max, FitError)
    observed = (calib.counts.sum(axis=2), calib.counts.sum(axis=1))
    forward, fit = [], {}
    for port, obs, true in zip("cd", observed, true_dists):
        try:
            K, fit[port] = _fit_port(obs.astype(float), true)
        except FitError as exc:
            raise FitError(f"port {port} channel fit: {exc}") from None
        forward.append(K)
    return ConfusionModel(*forward, n_max=n_max), fit


def fit_retrodictive_weights(
    calib: CalibrationData, ideal: InterferometerModel
) -> RetrodictiveWeights:
    """Fit P(true pair | measured pair) from calibration histograms.

    The per-pair posterior phase curves alone cannot identify the weights:
    the ideal densities span only the polynomials of degree 2*n_max in
    cos^2(phi/2), so distinct weight tables produce identical curves. The
    per-detector channel structure restores identifiability, so the fit
    estimates each port's confusion matrix by maximum likelihood on the
    per-port count histograms and Bayes-inverts it under the flat phase
    prior. The weights keep the fit's diagnostics (``fit``).
    """
    model, fit = fit_confusion_model(calib, ideal)
    return replace(exact_retrodictive_weights(model, ideal), fit=fit)


def exact_retrodictive_weights(
    model: ConfusionModel, ideal: InterferometerModel
) -> RetrodictiveWeights:
    """Retrodictive weights of a known channel under a flat phase prior.

    P(true | measured) = K_c(nc | tc) K_d(nd | td) q(tc, td) / normalization,
    with q the phase-averaged true-pair probability (folded at n_max).
    Measured pairs with (near) zero probability under the channel get
    uniform weights with a warning.
    """
    n_max = model.n_max
    phis = np.linspace(0.0, np.pi, _N_QUAD)
    true_c, true_d = measured_port_distributions(
        phis, ConfusionModel.identity(n_max), ideal
    )
    q = np.trapezoid(true_c[:, None, :] * true_d[None, :, :] / np.pi, phis)
    joint = model.forward_c[:, None, :, None] * model.forward_d[None, :, None, :] * q
    total = joint.sum(axis=(2, 3), keepdims=True)
    unsupported = total < 1e-300
    for nc, nd in np.argwhere(unsupported[:, :, 0, 0]):
        warnings.warn(
            f"measured pair ({nc},{nd}) has no support under the "
            "channel; using uniform retrodictive weights",
            stacklevel=2,
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        table = np.where(unsupported, 1.0 / (n_max + 1) ** 2, joint / total)
    return RetrodictiveWeights(table=table, n_max=n_max, nbar=ideal.nbar, channel=model)
