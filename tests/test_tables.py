"""Per-plan likelihood tables and count-array estimators against oracles.

A scan reduces each replica's per-pulse counts to a histogram (or the
port totals) and reads every likelihood from a table built once per plan.
Each test compares one table or array path with the closed form or the
per-pulse loop it replaces.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzbayes.detector import (
    _N_QUAD,
    ConfusionModel,
    apply_noise_counts,
    exact_retrodictive_weights,
    measured_port_distributions,
    noisy_joint_likelihood,
    pair_histogram,
    port_histograms,
)
from mzbayes.estimators import (
    FringeParams,
    UndefinedEstimateError,
    classical_estimate,
    invert_fringe,
    ml_estimate,
    ml_estimates,
    noisy_classical_estimate,
    ymk_estimate,
    ymk_mean_estimate,
)
from mzbayes.experiment import ExperimentPlan, _block_rows
from mzbayes.photon_model import InterferometerModel, Outcome
from mzbayes.posterior import PhaseGrid, log_shape
from oracles import (
    accumulate,
    golden_section_max,
    log_count_density,
    log_posterior_fit,
    normalization_constant,
)

N_MAX = 4
IDEAL = InterferometerModel(nbar=1.08)
REGIME = ConfusionModel.paper_regime(N_MAX)
WEIGHTS = exact_retrodictive_weights(REGIME, IDEAL)
GRID_POINTS = 1024

IDEAL_PLAN = ExperimentPlan(grid=PhaseGrid(GRID_POINTS), estimators=("bayes", "ml"))
NOISY_PLAN = ExperimentPlan(
    grid=PhaseGrid(GRID_POINTS),
    noise=REGIME,
    channel=REGIME,
    estimators=("bayes", "ml"),
)
NODES = IDEAL_PLAN.grid.nodes
INTERIOR = slice(1, -1)

# Golden-section refinement stops at 1e-10 rad, and the log likelihood's
# maximum is flat at float precision over ~1e-8 rad; 1e-6 rad is the
# tolerance for ML estimates whose arithmetic order changed.
ML_TOL = 1e-6


@st.composite
def pulse_counts(draw, noise):
    """Per-pulse (n_c, n_d): arbitrary, all zero, all at the maximum
    reportable count, or sampled at theta in {0, pi/2, pi}; p in {1, ..}."""
    max_count = N_MAX if noise is not None else 10
    kind = draw(st.sampled_from(("arbitrary", "zeros", "at_max", "sampled")))
    p = draw(st.sampled_from((1, 2, 13, 200)))
    if kind == "arbitrary":
        pair = st.tuples(st.integers(0, max_count), st.integers(0, max_count))
        pairs = draw(st.lists(pair, min_size=1, max_size=40))
        n_c, n_d = (np.array(col, dtype=np.int64) for col in zip(*pairs))
        return n_c, n_d
    if kind == "zeros":
        return np.zeros(p, dtype=np.int64), np.zeros(p, dtype=np.int64)
    if kind == "at_max":
        n_d = np.array(draw(st.lists(st.integers(0, max_count), min_size=p, max_size=p)))
        return np.full(p, max_count, dtype=np.int64), n_d
    theta = draw(st.sampled_from((0.0, math.pi / 2, math.pi)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_c, n_d = IDEAL.sample_counts(theta, p, rng)
    if noise is not None:
        n_c, n_d = apply_noise_counts(n_c, n_d, noise, rng)
    return n_c, n_d


def outcomes(n_c, n_d):
    return [Outcome(int(c), int(d)) for c, d in zip(n_c, n_d)]


def assert_same_log_density(got, want):
    """-inf at the same nodes, finite values equal to 1e-10.

    Log densities of long runs reach |value| ~ 1e5 near the domain edges,
    where float64 resolves only ~1e-11 and a sum of p terms carries p
    roundings; there the bound is 1e-12 relative instead.
    """
    np.testing.assert_array_equal(np.isneginf(got), np.isneginf(want))
    finite = np.isfinite(want)
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=1e-10)


# -- Bayes tables -------------------------------------------------------------


@given(counts=pulse_counts(noise=None))
@settings(max_examples=60, deadline=None)
def test_ideal_bayes_table_matches_accumulate(counts):
    got = IDEAL_PLAN.posterior(*counts)
    want = accumulate(outcomes(*counts), IDEAL_PLAN.grid)
    assert_same_log_density(got.log_density, want.log_density)


@given(counts=pulse_counts(noise=REGIME))
@settings(max_examples=60, deadline=None)
def test_noisy_table_matches_summed_noisy_joint_likelihood(counts):
    table = NOISY_PLAN.table
    nodes = NODES[[0, 1, 200, 511, 512, 900, GRID_POINTS - 2, GRID_POINTS - 1]]
    got = table.on_grid(table.statistics(*counts))[np.searchsorted(NODES, nodes)]
    want = np.zeros(nodes.size)
    with np.errstate(divide="ignore"):
        for outcome in outcomes(*counts):
            want = want + np.log(
                [noisy_joint_likelihood(phi, outcome, REGIME, IDEAL) for phi in nodes]
            )
    assert_same_log_density(got, want)


@pytest.mark.parametrize("plan", [IDEAL_PLAN, NOISY_PLAN], ids=["ideal", "noisy"])
def test_stacked_rows_keep_zero_statistics_off_neg_inf(plan):
    # Each row of a stack equals its own skip-the-zeros product: a zero
    # statistic meets a -inf entry without NaN, a nonzero one makes it -inf.
    table = plan.table
    impossible = np.isneginf(table.table).any(axis=1)
    assert impossible.any()
    rng = np.random.default_rng(3)
    stats = rng.integers(1, 50, size=(12, impossible.size))
    stats[::2, impossible] = 0
    stats[1::4, ~impossible] = 0
    stats[0] = 0
    got = table.on_grid(stats)
    assert not np.isnan(got).any()
    at_nodes = table.at(stats, np.broadcast_to(NODES, got.shape))
    for row, s, at_row in zip(got, stats, at_nodes):
        assert_same_log_density(row, log_count_density(s, table.table))
        assert_same_log_density(row, table.on_grid(s))
        assert_same_log_density(at_row, row)
    assert np.isfinite(got[::2]).all()
    assert np.isneginf(got[1::2]).any(axis=1).all()


def test_log_posterior_fit_matches_closed_form_mixture():
    # oracle: the weights mix the normalized closed-form single-shot posteriors
    rows = log_posterior_fit(WEIGHTS, NODES)
    for nc in range(N_MAX + 1):
        for nd in range(N_MAX + 1):
            dist = WEIGHTS.distribution(nc, nd)
            want = np.zeros(NODES.size)
            for tc in range(N_MAX + 1):
                for td in range(N_MAX + 1):
                    true = Outcome(tc, td)
                    want += (
                        dist[tc, td]
                        * normalization_constant(true)
                        * np.exp(log_shape(true, NODES))
                    )
            got = np.exp(rows[nc * (N_MAX + 1) + nd])
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


def pair_rows(table):
    """Log likelihood rows of every measured pair, pair (nc, nd) at row nc * (n_max+1) + nd."""
    return (table[: N_MAX + 1, None, :] + table[None, N_MAX + 1 :, :]).reshape(
        (N_MAX + 1) ** 2, -1
    )


def log_spreads(got, want):
    """Per-row spread in phase of ``got - want`` over the interior nodes."""
    diff = got[:, INTERIOR] - want[:, INTERIOR]
    return diff.max(axis=1) - diff.min(axis=1)


def exact_fold_mixture(weights):
    """sum_t W[m, t] P_fold(t | phi) / q(t): the retrodictive mixture under the folded law.

    ``q`` is the phase average of the folded true-pair law by the same
    trapezoid the weights were inverted with.
    """
    identity = ConfusionModel.identity(N_MAX)
    phis = np.linspace(0.0, np.pi, _N_QUAD)
    true_c, true_d = measured_port_distributions(phis, identity, IDEAL)
    q = np.trapezoid(true_c[:, None, :] * true_d[None, :, :] / np.pi, phis)
    fold_c, fold_d = measured_port_distributions(NODES, identity, IDEAL)
    mixture = weights.table.reshape((N_MAX + 1) ** 2, N_MAX + 1, N_MAX + 1) / q
    with np.errstate(divide="ignore"):
        return np.log(np.einsum("mab,ag,bg->mg", mixture, fold_c, fold_d))


@pytest.mark.parametrize("source", ["paper-regime", "fitted"])
def test_exact_fold_mixture_is_the_channel_table(source, request):
    # Bayes' rule: sum_t W[m, t] P(t | phi) / q(t) = P(m | phi) / P(m), so the
    # mixture and the channel's per-port rows differ by a constant in phi
    weights = WEIGHTS if source == "paper-regime" else request.getfixturevalue("fitted_weights")
    plan = ExperimentPlan(
        grid=PhaseGrid(GRID_POINTS), noise=REGIME, channel=weights.channel
    )
    spreads = log_spreads(exact_fold_mixture(weights), pair_rows(plan.table.table))
    assert spreads.max() <= 1e-12


def test_closed_form_mixture_agrees_only_without_folded_support():
    # The closed-form mixture gives a folded true count n_max the posterior
    # of exactly n_max photons. Under paper_regime a measured count m comes
    # from m or m + 1, so pairs with both counts <= 2 never see the fold;
    # every other pair does, by a log spread of 0.005 to 0.23.
    spreads = log_spreads(log_posterior_fit(WEIGHTS, NODES), pair_rows(NOISY_PLAN.table.table))
    for nc in range(N_MAX + 1):
        for nd in range(N_MAX + 1):
            spread = spreads[nc * (N_MAX + 1) + nd]
            if max(nc, nd) <= 2:
                assert spread <= 1e-12, (nc, nd)
            else:
                assert spread > 1e-3, (nc, nd)


# -- ML tables ----------------------------------------------------------------


def random_channel(seed):
    rng = np.random.default_rng(seed)
    return ConfusionModel(
        forward_c=rng.dirichlet(np.ones(N_MAX + 1), size=N_MAX + 1).T,
        forward_d=rng.dirichlet(np.ones(N_MAX + 1), size=N_MAX + 1).T,
        n_max=N_MAX,
    )


@given(
    phi=st.one_of(st.sampled_from((0.0, math.pi)), st.floats(0.0, math.pi)),
    seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
@settings(max_examples=60, deadline=None)
def test_ml_rows_match_noisy_joint_likelihood(phi, seed):
    channel = REGIME if seed is None else random_channel(seed)
    rows = ExperimentPlan(
        grid=PhaseGrid(GRID_POINTS),
        noise=REGIME,
        channel=channel,
        estimators=("ml",),
    ).table.rows(np.array([phi]))[:, 0]
    for nc in range(N_MAX + 1):
        for nd in range(N_MAX + 1):
            want = noisy_joint_likelihood(phi, Outcome(nc, nd), channel, IDEAL)
            got = math.exp(rows[nc] + rows[N_MAX + 1 + nd])
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)


def test_ml_grid_rows_match_pointwise_rows():
    ml = NOISY_PLAN.table
    for j in (0, 1, 300, GRID_POINTS - 2, GRID_POINTS - 1):
        np.testing.assert_allclose(
            ml.table[:, j], ml.rows(NODES[j : j + 1])[:, 0], rtol=1e-12, atol=0.0
        )


def test_histograms_reject_unreportable_counts():
    for stats in (pair_histogram, port_histograms):
        with pytest.raises(ValueError):
            stats(np.array([N_MAX + 1]), np.array([0]), n_max=N_MAX)
        with pytest.raises(ValueError):
            stats(np.array([0]), np.array([N_MAX + 1]), n_max=N_MAX)


# -- estimators against the per-pulse Outcome loops -----------------------------


def classical_reference(data, nbar):
    arg = sum(o.n_c - o.n_d for o in data) / len(data) / nbar
    return math.acos(min(1.0, max(-1.0, arg)))


def fringe_reference(data, params):
    m = sum(o.n_c - o.n_d for o in data) / len(data)
    arg = (m - params.b) / params.amplitude
    theta = math.acos(min(1.0, max(-1.0, arg))) - params.a
    if theta < 0.0:
        theta = -theta
    if theta > math.pi:
        theta = 2.0 * math.pi - theta
    return min(max(theta, 0.0), math.pi)


def ymk_reference(data):
    vals = [ymk_estimate(o) for o in data if o.total >= 1]
    if not vals:
        raise UndefinedEstimateError("no photon-bearing shots")
    return sum(vals) / len(vals)


def ml_reference(data, pair_log_likelihood, nodes):
    """Per-pair loop: grid argmax of summed per-pulse log likelihoods, refined."""
    unique = Counter((o.n_c, o.n_d) for o in data)

    def total(phis):
        out = np.zeros(phis.size)
        for (nc, nd), count in unique.items():
            out = out + count * pair_log_likelihood(phis, nc, nd)
        return out

    grid_total = total(nodes)
    finite = grid_total[np.isfinite(grid_total)]
    if finite.max() - finite.min() < 1e-12:
        return math.pi / 2.0, True
    i = int(np.argmax(grid_total))
    lo, hi = nodes[max(i - 1, 0)], nodes[min(i + 1, nodes.size - 1)]
    return golden_section_max(lambda phi: float(total(np.array([phi]))[0]), lo, hi), False


def ideal_pair_log_likelihood(phis, nc, nd):
    return IDEAL.log_likelihood_grid(phis, Outcome(nc, nd))


def noisy_pair_log_likelihood(phis, nc, nd):
    dist_c, dist_d = measured_port_distributions(phis, REGIME, IDEAL)
    with np.errstate(divide="ignore"):
        return np.log(dist_c[nc] * dist_d[nd])


@given(
    counts=pulse_counts(noise=None),
    a=st.floats(-math.pi, math.pi),
    b=st.floats(-2.0, 2.0),
    amplitude=st.floats(0.1, 5.0),
)
@settings(max_examples=60, deadline=None)
def test_moment_estimators_match_outcome_loops(counts, a, b, amplitude):
    data = outcomes(*counts)
    params = FringeParams(a=a, b=b, amplitude=amplitude)
    assert classical_estimate(*counts, 1.08) == classical_reference(data, 1.08)
    assert noisy_classical_estimate(*counts, params) == fringe_reference(data, params)
    if any(o.total for o in data):
        assert ymk_mean_estimate(*counts) == pytest.approx(ymk_reference(data), rel=1e-12)
    else:
        with pytest.raises(UndefinedEstimateError):
            ymk_mean_estimate(*counts)


@given(
    runs=st.lists(pulse_counts(noise=None), min_size=1, max_size=6),
    a=st.floats(-math.pi, math.pi),
    b=st.floats(-2.0, 2.0),
    amplitude=st.floats(0.1, 5.0),
)
@settings(max_examples=60, deadline=None)
def test_stacked_fringe_inversion_is_the_one_replica_estimate(runs, a, b, amplitude):
    params = FringeParams(a=a, b=b, amplitude=amplitude)
    differences = [(int(n_c.sum()) - int(n_d.sum())) / n_c.size for n_c, n_d in runs]
    stacked = invert_fringe(np.array(differences), params)
    assert stacked.tolist() == [noisy_classical_estimate(*run, params) for run in runs]


@pytest.mark.parametrize("plan", [IDEAL_PLAN, NOISY_PLAN], ids=["ideal", "noisy"])
@pytest.mark.parametrize("port", ["c", "d"])
def test_ml_returns_the_domain_edge_exactly(plan, port):
    # Every count in one port: the likelihood peaks at the domain edge, and
    # golden-section search alone stops ~2e-8 short of it.
    ones, zeros = np.ones(1000, dtype=np.int64), np.zeros(1000, dtype=np.int64)
    counts = (ones, zeros) if port == "c" else (zeros, ones)
    est = ml_estimate(*counts, plan.table)
    assert est.phase == (0.0 if port == "c" else math.pi)
    assert not est.flat


@given(counts=pulse_counts(noise=None))
@settings(max_examples=30, deadline=None)
def test_ideal_ml_matches_outcome_loop(counts):
    est = ml_estimate(*counts, IDEAL_PLAN.table)
    phase, flat = ml_reference(outcomes(*counts), ideal_pair_log_likelihood, NODES)
    assert est.flat == flat
    assert est.phase == pytest.approx(phase, abs=ML_TOL)


@given(counts=pulse_counts(noise=REGIME))
@settings(max_examples=30, deadline=None)
def test_noisy_ml_matches_outcome_loop(counts):
    est = ml_estimate(*counts, NOISY_PLAN.table)
    phase, flat = ml_reference(outcomes(*counts), noisy_pair_log_likelihood, NODES)
    assert est.flat == flat
    assert est.phase == pytest.approx(phase, abs=ML_TOL)


def one_port_run(port, p=1000):
    """Every count in one port: the likelihood peaks at 0 (port c) or pi (port d)."""
    ones, zeros = np.ones(p, dtype=np.int64), np.zeros(p, dtype=np.int64)
    return (ones, zeros) if port == "c" else (zeros, ones)


# Runs every stack holds, with the (phase, flat) ML returns for each.
# Pulses with no photons leave the ideal likelihood flat; behind the
# channel a reported 0 may be a misread 1, so there they do not.
PINNED_RUNS = [(one_port_run("c"), (0.0, False)), (one_port_run("d"), (math.pi, False))]
FLAT_RUN = ((np.zeros(5, dtype=np.int64),) * 2, (math.pi / 2, True))
BLOCK = _block_rows(IDEAL_PLAN.grid)


@st.composite
def run_stacks(draw, noise):
    """(run, pinned result or None) pairs: more than one block of rows, in drawn order."""
    drawn = draw(st.lists(pulse_counts(noise), min_size=BLOCK - 1, max_size=BLOCK + 2))
    pinned = PINNED_RUNS + ([FLAT_RUN] if noise is None else [])
    return draw(st.permutations([(run, None) for run in drawn] + pinned))


@pytest.mark.parametrize(
    "plan, pair_log_likelihood",
    [(IDEAL_PLAN, ideal_pair_log_likelihood), (NOISY_PLAN, noisy_pair_log_likelihood)],
    ids=["ideal", "noisy"],
)
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_stacked_ml_is_each_row_scored_alone(plan, pair_log_likelihood, data):
    # interior, edge and flat rows scored together: each row is its own
    # one-row score and the per-pair loop's, and the pinned rows are exact
    stack = data.draw(run_stacks(plan.noise))
    assert len(stack) > BLOCK
    stats = np.array([plan.table.statistics(*run) for run, _ in stack])
    stacked = ml_estimates(stats, plan.table)
    for (run, pinned), phase, flat in zip(stack, stacked.phase, stacked.flat):
        alone = ml_estimate(*run, plan.table)
        want, want_flat = ml_reference(outcomes(*run), pair_log_likelihood, NODES)
        assert flat == alone.flat == want_flat
        assert phase == pytest.approx(alone.phase, abs=ML_TOL)
        assert phase == pytest.approx(want, abs=ML_TOL)
        if pinned is not None:
            assert (phase, flat) == pinned
