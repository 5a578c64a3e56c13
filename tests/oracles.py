"""Closed-form references that tests compare the program against.

The misread channel: ``apply_noise`` pushes one ``Outcome`` through it
with one ``rng.choice`` per port, and ``choice_port`` draws a port's
counts with one ``rng.choice`` per true count, ascending, the draw order
of ``apply_noise_counts``.

The retrodictive mixture: each measured pair's density is its
retrodictive weights times the closed-form single-shot posteriors of the
true pairs. Up to a constant it equals the calibrated channel's per-port
likelihood wherever no true count is folded into ``n_max``;
``tests/test_tables.py`` pins down where it does not.
"""

import numpy as np
from scipy.special import gammaln

from mzbayes.detector import ConfusionModel, RetrodictiveWeights
from mzbayes.photon_model import Outcome
from mzbayes.posterior import PhaseGrid, Posterior


def apply_noise(
    true_outcome: Outcome, model: ConfusionModel, rng: np.random.Generator
) -> Outcome:
    """Push one true outcome through the misread channel (port c first)."""
    n_c = int(
        rng.choice(model.n_max + 1, p=model.forward_c[:, min(true_outcome.n_c, model.n_max)])
    )
    n_d = int(
        rng.choice(model.n_max + 1, p=model.forward_d[:, min(true_outcome.n_d, model.n_max)])
    )
    return Outcome(n_c, n_d)


def choice_port(counts, K, n_max, rng):
    """One ``rng.choice`` call per true count, ascending: the channel's draw oracle."""
    folded = np.minimum(counts, n_max)
    out = np.empty_like(folded)
    for t in range(n_max + 1):
        mask = folded == t
        n = int(mask.sum())
        if n:
            out[mask] = rng.choice(n_max + 1, size=n, p=K[:, t])
    return out


def posterior_fit(
    measured: Outcome, weights: RetrodictiveWeights, grid: PhaseGrid
) -> Posterior:
    """Single-shot posterior for a measured pair: mixture of ideal posteriors."""
    row = measured.n_c * (weights.n_max + 1) + measured.n_d
    return Posterior.from_log_density(grid, log_posterior_fit(weights, grid.nodes)[row])


def log_posterior_fit(weights: RetrodictiveWeights, nodes: np.ndarray) -> np.ndarray:
    """Log of the (unnormalized) retrodictive mixture density of every measured pair.

    The mixture weights P(true | measured) multiply the closed-form
    single-shot posteriors C cos^{2tc}(phi/2) sin^{2td}(phi/2) of every
    true pair (tc, td). Returns ``((n_max+1)^2, len(nodes))`` rows, the
    measured pair (nc, nd) at row ``nc * (n_max+1) + nd``, the order of
    ``pair_histogram``.
    """
    bins = weights.n_max + 1
    true = np.arange(bins)
    half = gammaln(0.5 + true)
    log_c = gammaln(1.0 + true[:, None] + true) - half[:, None] - half
    mixture = (weights.table * np.exp(log_c)).reshape(bins * bins, bins, bins)
    cos_pow = np.cos(nodes / 2.0) ** (2 * true[:, None])
    sin_pow = np.sin(nodes / 2.0) ** (2 * true[:, None])
    density = np.sum(cos_pow * (mixture @ sin_pow), axis=1)
    with np.errstate(divide="ignore"):
        return np.log(density)
