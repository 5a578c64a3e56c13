"""Fisher information and Cramer-Rao bounds.

For the ideal coherent-plus-vacuum interferometer the Fisher information
is exactly the mean photon number, independent of phase. For arbitrary
(e.g. fitted noisy) count distributions it is computed numerically from
the pmf by central differences.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from mzbayes._csv import csv_text


class EndpointError(ValueError):
    """Numerical Fisher information is undefined at the domain endpoints."""


PmfProvider = Callable[[float], np.ndarray]

DEFAULT_D_THETA = 1e-5
PROB_FLOOR = 1e-15
MASS_TOL = 1e-9


def fisher_ideal(nbar: float) -> float:
    """F(theta) = nbar for the ideal interferometer, constant in theta."""
    if not nbar > 0:
        raise ValueError(f"nbar must be > 0, got {nbar}")
    return float(nbar)


def fisher_numeric(
    pmf: PmfProvider,
    theta: float,
    d_theta: float = DEFAULT_D_THETA,
) -> float:
    """Fisher information sum_N (dP/dtheta)^2 / P with central differences.

    ``pmf(theta)`` returns the (truncated) outcome probabilities as an
    array; terms with probability below ``PROB_FLOOR`` are skipped to
    avoid 0/0 where outcomes are impossible. A pmf whose count cut loses
    more than ``MASS_TOL`` of its mass at ``theta`` raises ``ValueError``.
    """
    if not d_theta > 0:
        raise ValueError(f"d_theta must be > 0, got {d_theta}")
    if not d_theta < theta < math.pi - d_theta:
        raise EndpointError(
            f"theta = {theta} too close to the endpoints for step {d_theta}"
        )
    p0 = np.asarray(pmf(theta), dtype=float)
    if not p0.sum() >= 1.0 - MASS_TOL:
        raise ValueError(
            f"pmf at theta = {theta:.6g} holds mass {p0.sum():.10g}: its count cut loses "
            f"more than {MASS_TOL:g}"
        )
    dp = (np.asarray(pmf(theta + d_theta)) - np.asarray(pmf(theta - d_theta))) / (
        2.0 * d_theta
    )
    mask = p0 > PROB_FLOOR
    return float(np.sum(dp[mask] ** 2 / p0[mask]))


def crlb(fisher: float, p: int) -> float:
    """Cramer-Rao lower bound 1 / sqrt(p * F) on the phase uncertainty."""
    if not fisher > 0:
        raise ValueError(f"fisher information must be > 0, got {fisher}")
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    return 1.0 / math.sqrt(p * fisher)


def crlb_curve(
    pmf: PmfProvider,
    thetas: Sequence[float],
    p: int,
    d_theta: float = DEFAULT_D_THETA,
) -> tuple[np.ndarray, np.ndarray]:
    """(fisher, crlb) arrays over a theta grid for one pmf provider."""
    fishers = np.array([fisher_numeric(pmf, t, d_theta) for t in thetas])
    bounds = np.array([crlb(f, p) for f in fishers])
    return fishers, bounds


def crlb_csv(thetas: Sequence[float], fishers, bounds) -> str:
    """``theta,fisher,crlb`` CSV text (theta in units of pi)."""
    return csv_text(
        ["theta", "fisher", "crlb"],
        ((theta / math.pi, f, b) for theta, f, b in zip(thetas, fishers, bounds)),
    )
