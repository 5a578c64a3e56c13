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
grid. ``expected_bayes_moments`` sums it against the Poisson laws of the
port totals: the expected Bayes bias and half-width, and the exact sd of
the Bayes mean, with no replicas; ``expected_classical_moments`` sums the
classical estimate over the same pairs.

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

The noisy scan's asymptotics: ``asymptotic_cell`` gives, with no Monte
Carlo, the phase the noisy posterior concentrates at as p grows, its
half-width, and the replica spread of its mean, from each port's law of
reported counts and that law's exact phase derivatives.

The retrodictive mixture: each measured pair's density is its
retrodictive weights times the closed-form single-shot posteriors of the
true pairs. Up to a constant it equals the calibrated channel's per-port
likelihood wherever no true count is folded into ``n_max``;
``tests/test_tables.py`` pins down where it does not.
"""

import functools
import math
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import betainc, betaincinv, gammaln
from scipy.stats import poisson

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


# Tail mass left outside the window of the mean's integral on each side.
_TAIL = 1e-20


@functools.cache
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(nodes)


def _phase_quantile(nc, nd, q):
    """Phase below which the flat-prior posterior of (nc, nd) has mass q."""
    return 2.0 * np.arcsin(np.sqrt(betaincinv(nd + 0.5, nc + 0.5, q)))


def beta_moments(nc, nd, level: float = 0.6827, nodes: int = 200):
    """Exact flat-prior posterior (mean, credible half-width) of port totals (nc, nd).

    Under a flat prior x = cos^2(phi/2) is Beta(nc + 1/2, nd + 1/2), so the
    posterior cdf of phi is ``betainc(nd + 1/2, nc + 1/2, sin^2(phi/2))``
    and its quantiles come from ``betaincinv``. The mean is
    ``integral_0^pi (1 - cdf) dphi``: the window's lower end plus
    ``nodes``-point Gauss-Legendre over the window, which holds all but
    1e-20 of the mass on each side. The interval is equal-tail around the
    mean, with the clamped-end rule of ``credible_interval``. ``nc`` and
    ``nd`` may be arrays of one shape, for one mean and width per pair.
    """
    nc, nd = np.asarray(nc, dtype=float), np.asarray(nd, dtype=float)
    gl_x, gl_w = _gauss_legendre(nodes)
    lo_end = _phase_quantile(nc, nd, _TAIL)
    hi_end = 2.0 * np.arccos(np.sqrt(betaincinv(nc + 0.5, nd + 0.5, _TAIL)))
    half = (hi_end - lo_end) / 2.0
    phis = lo_end[..., None] + half[..., None] * (gl_x + 1.0)
    survival = betainc(nc[..., None] + 0.5, nd[..., None] + 0.5, np.cos(phis / 2.0) ** 2)
    mean = lo_end + half * (survival @ gl_w)
    mass_at_mean = betainc(nd + 0.5, nc + 0.5, np.sin(mean / 2.0) ** 2)
    lo, hi = mass_at_mean - level / 2.0, mass_at_mean + level / 2.0
    # an interval that would cross an end of [0, pi] stops there: mass 0 is
    # phase 0, and mass 1 phase pi
    a = np.where(lo <= 0.0, 0.0, np.where(hi >= 1.0, 1.0 - level, lo))
    b = np.where(lo <= 0.0, level, np.where(hi >= 1.0, 1.0, hi))
    width = (_phase_quantile(nc, nd, b) - _phase_quantile(nc, nd, a)) / 2.0
    return mean[()], width[()]


def _count_pairs(theta: float, p: int, nbar: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The port totals (Nc, Nd) of p pulses at true phase theta that matter, and their weights.

    Nc and Nd are independent Poisson counts with means p nbar cos^2(theta/2)
    and p nbar sin^2(theta/2). The pairs left out each have probability
    below 1e-11, and together less than 1e-8.
    """
    pmfs = []
    for mu in p * nbar * np.array([math.cos(theta / 2.0) ** 2, math.sin(theta / 2.0) ** 2]):
        k = np.arange(int(mu + 12.0 * math.sqrt(mu) + 12.0))
        pmfs.append(np.exp(k * math.log(mu) - mu - gammaln(k + 1.0)))
    joint = np.outer(*pmfs)
    nc, nd = np.nonzero(joint >= 1e-11)
    weights = joint[nc, nd]
    if not 1.0 - weights.sum() < 1e-8:
        raise ValueError(f"pairs kept hold {weights.sum()!r} of the mass")
    return nc, nd, weights


def _mean_and_sd(weights: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    mean = float(weights @ values)
    return mean, math.sqrt(float(weights @ (values - mean) ** 2))


def expected_bayes_moments(theta: float, p: int, nbar: float) -> tuple[float, float, float]:
    """Expected ideal Bayes (bias, dtheta) at true phase theta over p pulses, and the exact
    sd of the Bayes mean, with no replicas.

    The posterior of a pulse sequence reads only its port totals, so the
    moments are ``beta_moments`` of each pair of ``_count_pairs`` summed
    against their joint law, all pairs at once; 32 nodes hold each mean to
    about 1e-12.
    """
    nc, nd, weights = _count_pairs(theta, p, nbar)
    mean, width = beta_moments(nc, nd, nodes=32)
    expected, sd = _mean_and_sd(weights, mean)
    return expected - theta, float(weights @ width), sd


def expected_classical_moments(theta: float, p: int, nbar: float) -> tuple[float, float]:
    """Expected bias and exact sd of the ideal classical estimate at true phase theta.

    The estimate of p pulses is ``arccos(clip((Nc - Nd) / (p nbar), -1, 1))``,
    summed over the pairs of ``_count_pairs``.
    """
    nc, nd, weights = _count_pairs(theta, p, nbar)
    estimates = np.arccos(np.clip((nc - nd) / (p * nbar), -1.0, 1.0))
    expected, sd = _mean_and_sd(weights, estimates)
    return expected - theta, sd


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


# Half-widths of the posterior that must lie inside (0, pi) on either side
# of theta* for ``asymptotic_cell``: a normal law holds 3e-7 of its mass
# beyond 5 sds. At p = 1000 under the paper regime theta/pi = 0.1 lies 6.0
# half-widths from 0, and 0.05 only 2.9.
EDGE_WIDTHS = 5.0


def _reported_laws(channel: ConfusionModel, model: InterferometerModel, phi: float):
    """Each port's law of reported counts at ``phi``, with its first and second phase derivatives.

    The true count at a port is Poisson with mean mu(phi), nbar cos^2(phi/2)
    at c and nbar sin^2(phi/2) at d, cut at ``model.n_max`` and folded into
    the channel's ``n_max``. d P_k / d mu = P_{k-1} - P_k, and the channel
    is linear, so the derivatives are exact.
    """
    k = np.arange(model.n_max + 1)
    fold = np.minimum(k, channel.n_max)
    laws = []
    for K, mu, sign in (
        (channel.forward_c, model.nbar * math.cos(phi / 2.0) ** 2, -1.0),
        (channel.forward_d, model.nbar * math.sin(phi / 2.0) ** 2, 1.0),
    ):
        pmf = poisson.pmf(k, mu)
        below = np.concatenate([[0.0], pmf[:-1]])  # P_{k-1}
        below2 = np.concatenate([[0.0, 0.0], pmf[:-2]])  # P_{k-2}
        d_mu, d2_mu = (sign * model.nbar / 2.0 * f(phi) for f in (math.sin, math.cos))
        d1 = d_mu * (below - pmf)
        d2 = d2_mu * (below - pmf) + d_mu**2 * (below2 - 2.0 * below + pmf)
        laws.append(tuple(K[:, fold] @ x for x in (pmf, d1, d2)))
    return laws


def asymptotic_cell(
    true_channel: ConfusionModel,
    fit_channel: ConfusionModel,
    model: InterferometerModel,
    theta: float,
    p: int,
) -> tuple[float, float, float]:
    """(theta*, posterior half-width, replica sd of the posterior mean) as p grows, at ``theta``.

    The counts are drawn through ``true_channel`` and read through
    ``fit_channel``. With l(phi) = log P_fit(m_c|phi) + log P_fit(m_d|phi)
    the per-pulse log likelihood, the posterior concentrates at the
    theta* where E_true[l'] = 0 (the least cross-entropy). With
    H = -E_true[l''(theta*)] and J = Var_true[l'(theta*)], its half-width
    tends to 1/sqrt(pH) and the spread of its mean to sqrt(J/p)/H: the
    sandwich form of White (Econometrica 50:1, 1982), the misspecified
    Bernstein-von Mises theorem of Kleijn & van der Vaart (Electron. J.
    Stat. 6:354, 2012). With the true channel H = J = F, the CRLB.

    Near the ends of the domain the posterior meets them and the
    asymptotics do not apply: a cell where theta* +- ``EDGE_WIDTHS``
    half-widths leaves (0, pi) raises ``ValueError``.
    """
    truth = [law for law, _, _ in _reported_laws(true_channel, model, theta)]

    def scores(phi):
        """Per port: the true law, the score l', and l'' on the reported counts."""
        out = []
        for q, (law, d1, d2) in zip(truth, _reported_laws(fit_channel, model, phi)):
            seen = q > 0.0
            s = d1[seen] / law[seen]
            out.append((q[seen], s, d2[seen] / law[seen] - s**2))
        return out

    theta_star = brentq(
        lambda phi: sum(q @ s for q, s, _ in scores(phi)), theta - 0.05, theta + 0.05, xtol=1e-15
    )
    at_star = scores(theta_star)
    H = -sum(q @ s2 for q, _, s2 in at_star)
    J = sum(q @ s**2 - (q @ s) ** 2 for q, s, _ in at_star)
    half_width = 1.0 / math.sqrt(p * H)
    if not EDGE_WIDTHS * half_width < theta_star < math.pi - EDGE_WIDTHS * half_width:
        raise ValueError(
            f"theta {theta:.6g}: theta* +- {EDGE_WIDTHS:g} half-widths leaves (0, pi); "
            "the asymptotics do not apply"
        )
    return theta_star, half_width, math.sqrt(J / p) / H
