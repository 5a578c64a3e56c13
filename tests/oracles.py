"""Closed-form references that tests compare the program against.

The count law: ``port_pmfs_reference`` builds both ports' Poisson pmfs
as ``InterferometerModel.port_pmfs`` did before it worked in place: the
log pmf in fresh arrays, its zero-mean entries set by two whole-array
``np.where`` passes, then ``np.exp``.

The ideal posterior: ``log_shape`` is the closed-form log posterior of
port totals, ``accumulate`` sums a pulse list's counts into one such
shape, ``normalization_constant`` is that shape's normalizer through
log-gamma, and ``beta_moments`` gives the exact flat-prior posterior
mean and credible half-width from the Beta law of cos^2(phi/2), with no
grid.

The misread channel: ``apply_noise`` pushes one ``Outcome`` through it
with one ``rng.choice`` per port, and ``choice_port`` draws a port's
counts with one ``rng.choice`` per true count, ascending, the draw order
of ``apply_noise_counts``.

The statistics of a run: ``run_statistics`` reduces one run's per-pulse
counts to what a plan's likelihood table reads, by port sums or per-port
``np.bincount``, apart from the scan's stacked reduction.

Maximum likelihood: ``golden_section_max`` is the scalar golden-section
search that ML refinement used before it searched stacked rows, and
``log_count_density`` the one-run product of statistics and log rows
that skips zero statistics.

The channel fit: ``em_fit`` is plain EM for one port's forward matrix,
a loop of ``em_step``, the multiplicative update in matrix form, whose
oracle is ``einsum_em_step``, the per-phase responsibilities summed
against the observed counts. ``log_likelihood`` is the objective both
fits raise.

The retrodictive mixture: each measured pair's density is its
retrodictive weights times the closed-form single-shot posteriors of the
true pairs. Up to a constant it equals the calibrated channel's per-port
likelihood wherever no true count is folded into ``n_max``;
``tests/test_tables.py`` pins down where it does not.
"""

import math
from typing import Callable, Sequence

import numpy as np
from scipy.special import betainc, betaincinv, gammaln

from mzbayes.detector import ConfusionModel, FitError, RetrodictiveWeights
from mzbayes.photon_model import InterferometerModel, Outcome, _log_factorials
from mzbayes.posterior import PhaseGrid, Posterior


def port_pmfs_reference(model: InterferometerModel, phi) -> tuple[np.ndarray, np.ndarray]:
    """Poisson pmfs of counts 0..n_max at ports c and d, by whole-array passes."""
    mu_c, mu_d = model.output_means(phi)
    column = (-1,) + (1,) * np.ndim(mu_c)
    k = np.arange(model.n_max + 1, dtype=float).reshape(column)
    log_k_factorial = _log_factorials(model.n_max).reshape(column)

    def pmf(mu):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = k * np.log(mu) - mu - log_k_factorial
        zero = mu == 0.0
        out = np.where(zero & (k == 0), 0.0, out)
        out = np.where(zero & (k > 0), -np.inf, out)
        return np.exp(out)

    return pmf(mu_c), pmf(mu_d)


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


def accumulate(outcomes: Sequence[Outcome], grid: PhaseGrid) -> Posterior:
    """Posterior after a sequence of independent pulses (product of shots).

    The per-shot log densities add, so only the total counts matter; an
    empty sequence returns the flat prior.
    """
    total = Outcome(
        sum(o.n_c for o in outcomes), sum(o.n_d for o in outcomes)
    )
    return Posterior.from_log_density(grid, log_shape(total, grid.nodes))


# Gauss-Legendre nodes for the mean's integral over the posterior's window.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(200)
# Tail mass left outside that window on each side.
_TAIL = 1e-20


def _phase_quantile(nc: int, nd: int, q: float) -> float:
    """Phase below which the flat-prior posterior of (nc, nd) has mass q."""
    return 2.0 * math.asin(math.sqrt(betaincinv(nd + 0.5, nc + 0.5, q)))


def beta_moments(nc: int, nd: int, level: float = 0.6827) -> tuple[float, float]:
    """Exact flat-prior posterior (mean, credible half-width) of port totals (nc, nd).

    Under a flat prior x = cos^2(phi/2) is Beta(nc + 1/2, nd + 1/2), so the
    posterior cdf of phi is ``betainc(nd + 1/2, nc + 1/2, sin^2(phi/2))``
    and its quantiles come from ``betaincinv``. The mean is
    ``integral_0^pi (1 - cdf) dphi``: the window's lower end plus fixed-node
    Gauss-Legendre over the window, which holds all but 1e-20 of the mass
    on each side. The interval is equal-tail around the mean, with the
    clamped-end rule of ``credible_interval``.
    """
    lo_end = _phase_quantile(nc, nd, _TAIL)
    hi_end = 2.0 * math.acos(math.sqrt(betaincinv(nc + 0.5, nd + 0.5, _TAIL)))
    half = (hi_end - lo_end) / 2.0
    phis = lo_end + half * (_GL_X + 1.0)
    survival = betainc(nc + 0.5, nd + 0.5, np.cos(phis / 2.0) ** 2)
    mean = lo_end + half * float(_GL_W @ survival)
    mass_at_mean = float(betainc(nd + 0.5, nc + 0.5, math.sin(mean / 2.0) ** 2))
    lo, hi = mass_at_mean - level / 2.0, mass_at_mean + level / 2.0
    if lo <= 0.0:
        a, b = 0.0, _phase_quantile(nc, nd, level)
    elif hi >= 1.0:
        a, b = _phase_quantile(nc, nd, 1.0 - level), math.pi
    else:
        a, b = _phase_quantile(nc, nd, lo), _phase_quantile(nc, nd, hi)
    return mean, (b - a) / 2.0


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(
    f: Callable[[float], float], a: float, b: float, tol: float = 1e-10
) -> float:
    """Maximize a unimodal function on [a, b] by golden-section search."""
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(x1)
    return (a + b) / 2.0


def run_statistics(plan, n_c, n_d) -> np.ndarray:
    """One run's statistics of ``plan.table``: port sums, or per-port histograms.

    An ideal plan reads the port totals (Nc, Nd); a plan with a channel
    reads port c's histogram of reported counts 0..n_max, then port d's.
    """
    if plan.channel is None:
        return np.array([np.sum(n_c), np.sum(n_d)])
    bins = plan.channel.n_max + 1
    return np.concatenate([np.bincount(n_c, minlength=bins), np.bincount(n_d, minlength=bins)])


def log_count_density(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``weights @ rows`` over the rows with nonzero weight.

    Skipping zero weights keeps 0 * (-inf), a count that never occurred
    at a phase where it is impossible, from poisoning the sum with NaN.
    """
    nonzero = np.flatnonzero(weights)
    return weights[nonzero] @ rows[nonzero]


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


def einsum_em_step(K, observed_counts, true_dists):
    """One step of the per-phase responsibility EM for one port: the step oracle."""
    joint = K[None, :, :] * true_dists[:, None, :]  # [phase, m, t]
    p_m = joint.sum(axis=2, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        resp = np.nan_to_num(joint / p_m)
    K_new = (observed_counts[:, :, None] * resp).sum(axis=0)
    col_sums = K_new.sum(axis=0)
    if np.any(col_sums <= 0.0):
        raise FitError("degenerate confusion fit: unpopulated true count")
    return K_new / col_sums


def em_step(K, observed_counts, true_dists):
    """One EM update of one port's K[m, t]: ``K * ((observed / p_m)ᵀ @ true)``, columns normalised.

    ``ratio`` is 0 where ``p_m`` is 0.
    """
    p_m = true_dists @ K.T
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(p_m > 0.0, observed_counts / p_m, 0.0)
    K_new = K * (ratio.T @ true_dists)
    col_sums = K_new.sum(axis=0)
    if np.any(col_sums <= 0.0):
        raise FitError("degenerate confusion fit: unpopulated true count")
    return K_new / col_sums


def em_fit(observed_counts, true_dists, iterations):
    """``iterations`` plain EM steps from K = (I + 1/n) / 2, its columns normalised."""
    n_bins = observed_counts.shape[1]
    K = 0.5 * np.eye(n_bins) + 0.5 / n_bins
    K /= K.sum(axis=0)
    for _ in range(iterations):
        K = em_step(K, observed_counts, true_dists)
    return K


def log_likelihood(K, observed_counts, true_dists) -> float:
    """``sum observed * log(true_dists @ K.T)`` over the observed cells."""
    seen = observed_counts > 0
    return float((observed_counts[seen] * np.log((true_dists @ K.T)[seen])).sum())
