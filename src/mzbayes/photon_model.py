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

import math
from dataclasses import dataclass
from functools import cache

import numpy as np


# numpy's Generator.poisson refuses a mean above int64 max less ten standard deviations.
_POISSON_MAX_MEAN = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)


class PhaseDomainError(ValueError):
    """Phase outside the identifiable interval [0, pi]."""


def _check_phase(phi):
    """``phi`` as a float (or a float array), each phase checked to lie in [0, pi]."""
    if isinstance(phi, float):  # a scan's phase, once per replica: no array round trip
        if not 0.0 <= phi <= math.pi:
            raise PhaseDomainError(f"phase {phi} outside [0, pi]")
        return float(phi)
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


# Cephes ``lgam``, the routine behind scipy.special.gammaln: log(2 pi) / 2
# and the Stirling-series coefficients it uses below x = 1000.
_LS2PI = 0.91893853320467274178
_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)


def _log_factorial(k) -> float:
    """log k! for a count k >= 0, equal to the bit to ``scipy.special.gammaln(k + 1)``.

    It repeats Cephes ``lgam`` at x = k + 1: below x = 13 the log of the
    exact factorial, above it the Stirling series, shortened at x >= 1000
    and dropped at x > 1e8. Counts past 2**53 lose their exactness in x.
    """
    if not (k >= 0 and k % 1 == 0):
        raise ValueError(f"need a count k >= 0, got {k!r}")
    k = int(k)
    if k < 12:
        return math.log(math.factorial(k))
    x = float(k + 1)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    series = _STIRLING[0]
    for a in _STIRLING[1:]:
        series = series * p + a
    return q + series / x


@cache
def _log_factorials(n_max: int) -> np.ndarray:
    """``_log_factorial(k)`` for k = 0..n_max, read-only."""
    table = np.array([_log_factorial(k) for k in range(n_max + 1)])
    table.flags.writeable = False
    return table


def _log_poisson_pmf(k, mu, log_k_factorial) -> np.ndarray:
    """log Poisson pmf of counts k given their ``log k!``, exact at mu=0 (pmf = [k==0])."""
    k = np.asarray(k, dtype=float)
    mu = np.asarray(mu, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = k * np.log(mu) - mu - log_k_factorial
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
        log_p = _log_poisson_pmf(
            outcome.n_c, mu_c, _log_factorial(outcome.n_c)
        ) + _log_poisson_pmf(outcome.n_d, mu_d, _log_factorial(outcome.n_d))
        return float(np.exp(log_p))

    def log_likelihood_grid(self, phis: np.ndarray, outcome: Outcome) -> np.ndarray:
        """log P(N_c, N_d | phi) evaluated on an array of phases."""
        phis = np.asarray(phis, dtype=float)
        half = phis / 2.0
        mu_c = self.nbar * np.cos(half) ** 2
        mu_d = self.nbar * np.sin(half) ** 2
        return _log_poisson_pmf(
            outcome.n_c, mu_c, _log_factorial(outcome.n_c)
        ) + _log_poisson_pmf(outcome.n_d, mu_d, _log_factorial(outcome.n_d))

    def port_pmfs(self, phi) -> tuple[np.ndarray, np.ndarray]:
        """Poisson pmfs of counts 0..n_max (the tail cut, not folded) at ports c and d.

        Each is ``(n_max+1,)`` for a phase, ``(n_max+1, G)`` for G phases.
        """
        mu_c, mu_d = self.output_means(phi)
        column = (-1,) + (1,) * np.ndim(mu_c)
        k = np.arange(self.n_max + 1).reshape(column)
        log_k_factorial = _log_factorials(self.n_max).reshape(column)
        return (
            np.exp(_log_poisson_pmf(k, mu_c, log_k_factorial)),
            np.exp(_log_poisson_pmf(k, mu_d, log_k_factorial)),
        )

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
