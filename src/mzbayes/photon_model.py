"""Ideal Mach-Zehnder photon-count statistics.

A coherent state with mean photon number ``nbar`` enters one input port,
vacuum enters the other. A lossless beamsplitter pair maps this to two
independent coherent states at the output ports, so the joint count
distribution at phase ``phi`` is a product of Poissonians with means
``nbar * cos^2(phi/2)`` and ``nbar * sin^2(phi/2)``.

Detection loss is folded into ``nbar`` (a lossy interferometer fed by a
coherent state is equivalent to a lossless one fed by a weaker state).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln


# numpy's Generator.poisson refuses a mean above int64 max less ten standard deviations.
_POISSON_MAX_MEAN = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)


class PhaseDomainError(ValueError):
    """Phase outside the identifiable interval [0, pi]."""


def _check_phase(phi):
    """``phi`` as a float (or a float array), each phase checked to lie in [0, pi]."""
    arr = np.asarray(phi, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= np.pi)):
        raise PhaseDomainError(f"phase {phi} outside [0, pi]")
    return float(arr) if arr.ndim == 0 else arr


@dataclass(frozen=True)
class Outcome:
    """Photon counts registered at the two output ports for one pulse."""

    n_c: int
    n_d: int

    def __post_init__(self) -> None:
        if self.n_c < 0 or self.n_d < 0:
            raise ValueError(f"counts must be non-negative, got {self}")

    @property
    def total(self) -> int:
        return self.n_c + self.n_d


def _log_poisson_pmf(k: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """log Poisson pmf, with the mu=0 limit handled exactly (pmf = [k==0])."""
    k = np.asarray(k, dtype=float)
    mu = np.asarray(mu, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = k * np.log(mu) - mu - gammaln(k + 1.0)
    # mu == 0: pmf is 1 at k=0, 0 otherwise
    zero = mu == 0.0
    if np.any(zero):
        out = np.where(zero & (k == 0), 0.0, out)
        out = np.where(zero & (k > 0), -np.inf, out)
    return out


@dataclass(frozen=True)
class InterferometerModel:
    """Ideal interferometer with mean detected photons ``nbar`` per pulse.

    ``n_max`` truncates count sums; Poisson tails beyond it are negligible
    for the weak states of interest (tail < 1e-9 for nbar <= 2, n_max = 25).
    """

    nbar: float
    n_max: int = 25

    def __post_init__(self) -> None:
        if not 0 < self.nbar <= _POISSON_MAX_MEAN:
            raise ValueError(
                f"nbar must be finite, > 0 and <= {_POISSON_MAX_MEAN:.4g} "
                f"(the largest Poisson mean numpy draws), got {self.nbar}"
            )
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")

    def output_means(self, phi):
        """Mean counts (mu_c, mu_d) at the two ports; mu_c + mu_d == nbar.

        ``phi`` may be a scalar or an array of phases (elementwise means).

        mu_d comes from sin^2 directly rather than nbar - mu_c: the
        subtraction loses ~7 digits near phi = 0 (and mirrored at pi).
        """
        phi = _check_phase(phi)
        half = phi / 2.0
        return self.nbar * np.cos(half) ** 2, self.nbar * np.sin(half) ** 2

    def likelihood(self, phi: float, outcome: Outcome) -> float:
        """P(N_c, N_d | phi): product of the two port Poisson pmfs."""
        mu_c, mu_d = self.output_means(phi)
        log_p = _log_poisson_pmf(outcome.n_c, mu_c) + _log_poisson_pmf(
            outcome.n_d, mu_d
        )
        return float(np.exp(log_p))

    def log_likelihood_grid(self, phis: np.ndarray, outcome: Outcome) -> np.ndarray:
        """log P(N_c, N_d | phi) evaluated on an array of phases."""
        phis = np.asarray(phis, dtype=float)
        half = phis / 2.0
        mu_c = self.nbar * np.cos(half) ** 2
        mu_d = self.nbar * np.sin(half) ** 2
        return _log_poisson_pmf(outcome.n_c, mu_c) + _log_poisson_pmf(
            outcome.n_d, mu_d
        )

    def port_pmfs(self, phi) -> tuple[np.ndarray, np.ndarray]:
        """Poisson pmfs of counts 0..n_max (the tail cut, not folded) at ports c and d.

        Each is ``(n_max+1,)`` for a phase, ``(n_max+1, G)`` for G phases.
        """
        mu_c, mu_d = self.output_means(phi)
        k = np.arange(self.n_max + 1).reshape((-1,) + (1,) * np.ndim(mu_c))
        return np.exp(_log_poisson_pmf(k, mu_c)), np.exp(_log_poisson_pmf(k, mu_d))

    def joint_pmf(self, phi: float) -> np.ndarray:
        """Truncated joint pmf over counts {0..n_max}^2 as a 2-D array."""
        return np.outer(*self.port_pmfs(phi))

    def sample_counts(
        self, phi: float, p: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw counts for ``p`` pulses, returned as (n_c, n_d) int arrays."""
        if p < 1:
            raise ValueError(f"need p >= 1 pulses, got {p}")
        mu_c, mu_d = self.output_means(phi)
        return rng.poisson(mu_c, size=p), rng.poisson(mu_d, size=p)
