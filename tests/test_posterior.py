"""Grid posterior: closed form, accumulation, mean, credible interval."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid, quad
from scipy.optimize import brentq
from scipy.stats import norm

from mzbayes.detector import ConfusionModel, exact_retrodictive_weights
from mzbayes.experiment import ExperimentPlan
from mzbayes.photon_model import InterferometerModel, Outcome
from mzbayes.posterior import (
    _SUPPORT_CUT,
    DegenerateEvidenceError,
    _cdf_at,
    _quantile,
    PhaseGrid,
    Posterior,
    credible_interval,
    ideal_likelihood,
    posterior_mean,
    single_shot_posterior,
)
from oracles import (
    accumulate,
    beta_moments,
    log_count_density,
    log_posterior_fit,
    log_shape,
    normalization_constant,
)

counts = st.integers(min_value=0, max_value=12)
outcomes = st.builds(Outcome, counts, counts)


def full_grid_mean(post):
    """Reference: the full-grid posterior mean."""
    return float(np.trapezoid(post.grid.nodes * post.density, post.grid.nodes))


def full_grid_interval(post, level=0.6827):
    """Reference: the full-grid credible half-width, with the clamped-end rule."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    nodes = post.grid.nodes
    cdf = cumulative_trapezoid(post.density, nodes, initial=0.0)
    cdf /= cdf[-1]
    mass_at_mean = float(np.interp(full_grid_mean(post), nodes, cdf))
    lo = mass_at_mean - level / 2.0
    hi = mass_at_mean + level / 2.0
    if lo < 0.0:
        hi -= lo  # push the underflow to the upper side
        lo = 0.0
    if hi > 1.0:
        lo -= hi - 1.0
        hi = 1.0
        lo = max(lo, 0.0)
    # A clamped end is the domain edge, wherever the cdf first leaves 0 or reaches 1.
    a = float(nodes[0]) if lo == 0.0 else float(np.interp(lo, cdf, nodes))
    b = float(nodes[-1]) if hi == 1.0 else float(np.interp(hi, cdf, nodes))
    return (b - a) / 2.0


def bimodal_log_density(grid, sigma, left_mass=0.3, left=1.0, right=2.5):
    """Two Gaussian modes; the mass between them underflows to exact zeros."""
    log_modes = [
        math.log(mass) - 0.5 * ((grid.nodes - mu) / sigma) ** 2
        for mass, mu in ((left_mass, left), (1.0 - left_mass, right))
    ]
    return np.logaddexp(*log_modes)


def bimodal_posterior(grid, sigma, left_mass=0.3, left=1.0, right=2.5):
    log_density = bimodal_log_density(grid, sigma, left_mass, left, right)
    return Posterior.from_log_density(grid, log_density)


class TestPhaseGrid:
    def test_nodes_cover_domain(self, grid):
        assert grid.nodes[0] == 0.0
        assert grid.nodes[-1] == pytest.approx(math.pi)
        assert np.all(np.diff(grid.nodes) > 0)
        np.testing.assert_allclose(np.diff(grid.nodes), grid.spacing, rtol=1e-12)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            PhaseGrid(1)

    def test_points_beyond_numpy_index_range_rejected(self):
        # its nodes could not be indexed: the grid refuses it, not np.linspace
        with pytest.raises(ValueError, match="<= 9223372036854775807 points"):
            PhaseGrid(2**63)
        assert PhaseGrid(2**63 - 1).n_points == 2**63 - 1


class TestSingleShot:
    def test_vacuum_outcome_gives_uniform(self, grid):
        post = single_shot_posterior(Outcome(0, 0), grid)
        np.testing.assert_allclose(post.density, 1.0 / math.pi, rtol=1e-12)

    def test_one_one_symmetric_peak(self, grid):
        post = single_shot_posterior(Outcome(1, 1), grid)
        assert grid.nodes[np.argmax(post.density)] == pytest.approx(
            math.pi / 2, abs=2 * grid.spacing
        )
        np.testing.assert_allclose(post.density, post.density[::-1], atol=1e-12)

    def test_one_zero_posterior_mean(self, grid):
        # oracle: mean of phi*(1+cos(phi))/pi over [0, pi] is pi/2 - 2/pi
        post = single_shot_posterior(Outcome(1, 0), grid)
        assert posterior_mean(post) == pytest.approx(math.pi / 2 - 2 / math.pi, abs=1e-6)

    @given(outcome=outcomes)
    @settings(max_examples=50)
    def test_normalized_and_nonnegative(self, outcome):
        grid = PhaseGrid(1024)
        post = single_shot_posterior(outcome, grid)
        assert np.all(post.density >= 0.0)
        assert np.trapezoid(post.density, grid.nodes) == pytest.approx(1.0, abs=1e-9)


class TestNormalizationConstant:
    def test_vacuum_is_uniform_height(self):
        assert normalization_constant(Outcome(0, 0)) == pytest.approx(1 / math.pi)

    def test_one_zero(self):
        assert normalization_constant(Outcome(1, 0)) == pytest.approx(2 / math.pi)

    def test_two_one_quadrature_oracle(self):
        # 1 / integral of cos^4(phi/2) sin^2(phi/2); Beta(5/2,3/2) closed form
        integral, _ = quad(
            lambda phi: math.cos(phi / 2) ** 4 * math.sin(phi / 2) ** 2, 0, math.pi
        )
        assert normalization_constant(Outcome(2, 1)) == pytest.approx(1 / integral)
        assert normalization_constant(Outcome(2, 1)) == pytest.approx(
            5.092958178940652, rel=1e-12
        )

    @given(outcome=outcomes)
    @settings(max_examples=30)
    def test_normalizes_the_shape(self, outcome):
        c = normalization_constant(outcome)
        integral, _ = quad(
            lambda phi: math.cos(phi / 2) ** (2 * outcome.n_c)
            * math.sin(phi / 2) ** (2 * outcome.n_d),
            0,
            math.pi,
        )
        assert c * integral == pytest.approx(1.0, rel=1e-9)

    def test_large_counts_do_not_overflow(self):
        c = normalization_constant(Outcome(500, 500))
        assert math.isfinite(c) and c > 0

    def test_constant_beyond_float_range_raises(self):
        with pytest.raises(OverflowError, match=r"counts \(520, 520\)"):
            normalization_constant(Outcome(520, 520))


class TestAccumulate:
    def test_single_outcome_matches_single_shot(self, grid):
        out = Outcome(3, 2)
        a = accumulate([out], grid)
        b = single_shot_posterior(out, grid)
        np.testing.assert_allclose(a.density, b.density, rtol=1e-12)

    def test_exponents_add(self, grid):
        a = accumulate([Outcome(1, 0), Outcome(0, 1)], grid)
        b = single_shot_posterior(Outcome(1, 1), grid)
        np.testing.assert_allclose(a.density, b.density, rtol=1e-12)

    def test_empty_sequence_returns_prior(self, grid):
        post = accumulate([], grid)
        np.testing.assert_allclose(post.density, 1.0 / math.pi, rtol=1e-12)

    @given(data=st.lists(outcomes, min_size=2, max_size=8))
    @settings(max_examples=30)
    def test_order_invariance(self, data):
        grid = PhaseGrid(512)
        forward = accumulate(data, grid)
        backward = accumulate(list(reversed(data)), grid)
        np.testing.assert_allclose(
            forward.log_density, backward.log_density, atol=1e-12
        )

    def test_stable_for_many_shots(self, grid):
        # 10^4 shots concentrate the posterior without over/underflow
        data = [Outcome(1, 1)] * 10_000
        post = accumulate(data, grid)
        assert np.trapezoid(post.density, grid.nodes) == pytest.approx(1.0, abs=1e-9)
        assert posterior_mean(post) == pytest.approx(math.pi / 2, abs=1e-3)

    def test_degenerate_evidence_raises(self, grid):
        with pytest.raises(DegenerateEvidenceError):
            Posterior.from_log_density(grid, np.full(grid.n_points, -np.inf))

    def test_shape_mismatch_rejected(self, grid):
        with pytest.raises(ValueError):
            Posterior.from_log_density(grid, np.zeros(7))


class TestPosteriorMean:
    def test_uniform_gives_center(self, grid):
        post = accumulate([], grid)
        assert posterior_mean(post) == pytest.approx(math.pi / 2, abs=1e-9)

    def test_symmetric_outcome_gives_center(self, grid):
        post = single_shot_posterior(Outcome(2, 2), grid)
        assert posterior_mean(post) == pytest.approx(math.pi / 2, abs=1e-9)


class TestCredibleInterval:
    def test_uniform_interval(self, grid):
        post = accumulate([], grid)
        assert credible_interval(post) == pytest.approx(0.6827 * math.pi / 2, abs=1e-6)

    def test_gaussian_interval_matches_sigma(self, grid):
        sigma = 0.05
        with np.errstate(divide="ignore"):
            log_density = -0.5 * ((grid.nodes - math.pi / 2) / sigma) ** 2
        post = Posterior.from_log_density(grid, log_density)
        assert credible_interval(post) == pytest.approx(sigma, rel=0.02)

    def test_edge_peaked_interval_stays_finite(self, grid):
        # posterior peaked hard against phi = 0
        post = single_shot_posterior(Outcome(200, 0), grid)
        dt = credible_interval(post)
        assert 0.0 < dt < math.pi / 2

    def test_level_validation(self, grid):
        post = accumulate([], grid)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                credible_interval(post, level=bad)

    @given(outcome=outcomes, level=st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=30)
    def test_interval_bounded_by_domain(self, outcome, level):
        grid = PhaseGrid(1024)
        dt = credible_interval(single_shot_posterior(outcome, grid), level=level)
        assert 0.0 <= dt <= math.pi / 2 + 1e-12


class TestClampedEnds:
    @pytest.mark.parametrize("sigma", [0.02, 0.03])
    def test_clamped_lower_end_is_the_domain_edge(self, grid, sigma):
        # Mean 2.05 rad has 0.3 of the mass below it, so the lower end is
        # clamped to 0 and the upper end sits where the cdf reaches the level.
        post = bimodal_posterior(grid, sigma)
        upper = 2.5 + sigma * norm.ppf((0.6827 - 0.3) / 0.7)
        assert credible_interval(post) == pytest.approx(upper / 2.0, abs=1e-4)

    def test_clamped_upper_end_is_the_domain_edge(self, grid):
        post = bimodal_posterior(grid, 0.02, left_mass=0.7, left=0.6, right=2.1)
        lower = 0.6 + 0.02 * norm.ppf((1.0 - 0.6827) / 0.7)
        assert credible_interval(post) == pytest.approx((math.pi - lower) / 2.0, abs=1e-4)


# The windowed moments drop only mass below e^-40 of the peak, so they
# agree with the full grid to float rounding.
WINDOW_TOL = 1e-12
WEIGHTS = exact_retrodictive_weights(
    ConfusionModel.paper_regime(), InterferometerModel(nbar=1.08)
)
grids = st.sampled_from([PhaseGrid(n) for n in (2, 3, 64, 1024, 4096)])
levels = st.sampled_from([0.6827]) | st.floats(min_value=0.05, max_value=0.95)
large_counts = st.integers(min_value=1, max_value=5000)
edge_or_interior_totals = st.one_of(
    st.tuples(large_counts, st.just(0)),  # peaked at 0
    st.tuples(st.just(0), large_counts),  # peaked at pi
    st.tuples(st.integers(0, 1), st.integers(0, 1)),  # p <= 1: nearly flat
    st.tuples(st.integers(0, 5000), st.integers(0, 5000)),
)


def assert_matches_full_grid(post, level=0.6827):
    assert abs(posterior_mean(post) - full_grid_mean(post)) <= WINDOW_TOL
    assert abs(credible_interval(post, level) - full_grid_interval(post, level)) <= WINDOW_TOL


class TestSupportWindow:
    @given(grid=grids, totals=edge_or_interior_totals, level=levels)
    @settings(max_examples=200, deadline=None)
    def test_ideal_posteriors_match_full_grid(self, grid, totals, level):
        log_density = ideal_likelihood(grid).on_grid(np.array(totals))
        assert_matches_full_grid(Posterior.from_log_density(grid, log_density), level)

    @given(
        grid=grids,
        histogram=st.lists(st.integers(0, 400), min_size=25, max_size=25),
        level=levels,
    )
    @settings(max_examples=100, deadline=None)
    def test_noisy_mixture_posteriors_match_full_grid(self, grid, histogram, level):
        rows = log_posterior_fit(WEIGHTS, grid.nodes)
        log_density = log_count_density(np.array(histogram), rows)
        assert_matches_full_grid(Posterior.from_log_density(grid, log_density), level)

    @given(
        sigma=st.floats(min_value=0.005, max_value=0.1),
        left_mass=st.floats(min_value=0.05, max_value=0.3),
        left=st.floats(min_value=0.6, max_value=1.2),
    )
    @settings(max_examples=50, deadline=None)
    def test_clamped_bimodal_posteriors_match_full_grid(self, grid, sigma, left_mass, left):
        assert_matches_full_grid(bimodal_posterior(grid, sigma, left_mass, left))

    def test_flat_prior_window_is_the_whole_grid(self, grid):
        post = Posterior.from_log_density(grid, np.zeros(grid.n_points))
        assert grid.nodes[post._support].size == grid.n_points
        assert_matches_full_grid(post)

    # normalization_constant overflows float64 past about 1000 total counts.
    @given(outcome=st.builds(Outcome, st.integers(0, 400), st.integers(0, 400)))
    @settings(max_examples=50, deadline=None)
    def test_normalization_matches_closed_form(self, grid, outcome):
        log_density = log_shape(outcome, grid.nodes)
        post = Posterior.from_log_density(grid, log_density)
        finite = np.isfinite(log_density)
        log_c = post.log_density[finite] - log_density[finite]
        np.testing.assert_allclose(
            log_c, math.log(normalization_constant(outcome)), rtol=0, atol=1e-10
        )


# A stacked row repeats its one-row arithmetic, so the two agree to the bit
# (test_rows_repeat_one_row_arithmetic). assert_rows_match_one_row bounds the
# difference by STACK_TOL.
STACK_TOL = 1e-14
GRID = PhaseGrid()
IDEAL_TABLE = ideal_likelihood(GRID)
NOISY_TABLE = ExperimentPlan(
    noise=ConfusionModel.paper_regime(), channel=ConfusionModel.paper_regime()
).table


@st.composite
def log_density_rows(draw):
    """Ideal rows, paper-regime noisy rows (per-port histograms) or bimodal rows."""
    kind = draw(st.sampled_from(("ideal", "noisy", "bimodal")))
    if kind == "ideal":
        return IDEAL_TABLE.on_grid(np.array(draw(edge_or_interior_totals)))
    if kind == "noisy":
        histograms = draw(st.lists(st.integers(0, 400), min_size=10, max_size=10))
        return NOISY_TABLE.on_grid(np.array(histograms))
    return bimodal_log_density(
        GRID,
        draw(st.floats(min_value=0.005, max_value=0.1)),
        draw(st.floats(min_value=0.05, max_value=0.95)),
        draw(st.floats(min_value=0.6, max_value=1.2)),
    )


def assert_rows_match_one_row(rows, level=0.6827):
    stack = Posterior.from_log_density(GRID, np.array(rows))
    means, widths = posterior_mean(stack), credible_interval(stack, level)
    assert means.shape == widths.shape == (len(rows),)
    for row, mean, width in zip(rows, means, widths):
        one = Posterior.from_log_density(GRID, row)
        assert abs(mean - posterior_mean(one)) <= STACK_TOL
        assert abs(width - credible_interval(one, level)) <= STACK_TOL


@st.composite
def cdf_rows(draw):
    """Rows of a cdf from 0 to 1 with flat runs, on shared ascending nodes."""
    width = draw(st.integers(2, 12))
    steps = st.lists(
        st.sampled_from([0.0, 0.0, 0.125, 0.5, 3.0]), min_size=width - 1, max_size=width - 1
    )
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        step = np.array(draw(steps))
        step[draw(st.integers(0, width - 2))] += 1.0
        rows.append(np.concatenate([[0.0], np.cumsum(step)]) / step.sum())
    nodes = np.cumsum(draw(st.lists(st.floats(0.01, 1.0), min_size=width, max_size=width)))
    return np.array(rows), nodes


class TestRowInterpolation:
    @given(data=st.data(), rows=cdf_rows())
    @settings(max_examples=100, deadline=None)
    def test_quantiles_are_np_interp(self, data, rows):
        # q on a cdf value lands after its flat run, as np.interp places it
        cdf, nodes = rows
        ties = st.sampled_from(sorted(set(cdf.ravel()) - {1.0}))
        reads = ties | st.floats(0.0, 1.0, exclude_max=True)
        q = np.array([[data.draw(reads) for _ in cdf] for _ in range(2)])
        want = [[np.interp(q[k, r], cdf[r], nodes) for r in range(len(cdf))] for k in range(2)]
        assert _quantile(cdf, nodes, q).tolist() == want

    @given(data=st.data(), rows=cdf_rows())
    @settings(max_examples=100, deadline=None)
    def test_cdf_reads_are_np_interp(self, data, rows):
        cdf, nodes = rows
        phases = st.sampled_from(list(nodes)) | st.floats(nodes[0] - 1.0, nodes[-1] + 1.0)
        phi = np.array([data.draw(phases) for _ in cdf])
        want = [np.interp(phi[r], nodes, cdf[r]) for r in range(len(cdf))]
        assert _cdf_at(cdf, nodes, phi).tolist() == want


class TestStackedPosteriors:
    @given(rows=st.lists(log_density_rows(), min_size=1, max_size=12), level=levels)
    @settings(max_examples=60, deadline=None)
    def test_rows_match_one_row_posteriors(self, rows, level):
        assert_rows_match_one_row(rows, level)

    @given(rows=st.lists(log_density_rows(), min_size=1, max_size=12), level=levels)
    @settings(max_examples=60, deadline=None)
    def test_rows_repeat_one_row_arithmetic(self, rows, level):
        # each sum runs left to right, and the zeros outside a row's window add exactly
        stack = Posterior.from_log_density(GRID, np.array(rows))
        means, widths = posterior_mean(stack), credible_interval(stack, level)
        for row, mean, width in zip(rows, means, widths):
            one = Posterior.from_log_density(GRID, row)
            assert (mean, width) == (posterior_mean(one), credible_interval(one, level))

    def test_rows_with_distant_windows(self):
        # Peaked at 0, at pi, interior and flat: the stack spans the grid,
        # yet each row is normalized and integrated on its own window.
        totals = ((5000, 0), (0, 5000), (700, 300))
        rows = [IDEAL_TABLE.on_grid(np.array(t)) for t in totals]
        rows.append(np.zeros(GRID.n_points))
        stack = Posterior.from_log_density(GRID, np.array(rows))
        assert GRID.nodes[stack._support].size == GRID.n_points
        assert_rows_match_one_row(rows)
        for row, mean, width in zip(rows, posterior_mean(stack), credible_interval(stack)):
            one = Posterior.from_log_density(GRID, row)
            assert abs(mean - full_grid_mean(one)) <= WINDOW_TOL
            assert abs(width - full_grid_interval(one)) <= WINDOW_TOL
        np.testing.assert_allclose(np.trapezoid(stack.density, GRID.nodes), 1.0, atol=1e-9)

    def test_peak_where_the_cut_rounds_to_it(self):
        # Near 7e17 floats are 128 apart, so peak - _SUPPORT_CUT rounds to
        # the peak: its window still holds the peak, and the other rows of
        # the stack keep their one-row bits
        totals = ((5e17, 5e17), (700, 300), (3, 5))
        rows = [IDEAL_TABLE.on_grid(np.array(t)) for t in totals]
        peak = rows[0].max()
        assert peak - _SUPPORT_CUT == peak
        stack = Posterior.from_log_density(GRID, np.array(rows))
        means, widths = posterior_mean(stack), credible_interval(stack)
        assert abs(means[0] - math.pi / 2) <= GRID.spacing
        assert 0.0 < widths[0] <= GRID.spacing
        for row, mean, width in zip(rows, means, widths):
            one = Posterior.from_log_density(GRID, row)
            assert (mean, width) == (posterior_mean(one), credible_interval(one))

    def test_one_degenerate_row_fails_the_stack(self):
        rows = np.array([np.zeros(GRID.n_points), np.full(GRID.n_points, -np.inf)])
        with pytest.raises(DegenerateEvidenceError):
            Posterior.from_log_density(GRID, rows)

    def test_stack_shape_checks(self):
        n = GRID.n_points
        for bad in (np.zeros((0, n)), np.zeros((2, 7)), np.zeros((1, 1, n))):
            with pytest.raises(ValueError):
                Posterior.from_log_density(GRID, bad)
        stack = Posterior.from_log_density(GRID, np.zeros((2, GRID.n_points)))
        with pytest.raises(ValueError, match="single posterior"):
            stack.to_csv()


# Bounds measured against the Beta law on counts up to a 5000 total, with
# h the grid spacing and N the photon total. A window clear of both edges
# integrates a density that decays smoothly to ~0, so the trapezoidal mean
# is exact to float rounding (measured <= 3.1e-15). A window that reaches
# 0 or pi cuts the density off where it is not smooth, and the mean is off
# by up to 2.0e-6, at (4995, 0). The linear interpolation of the cdf
# between nodes makes an interior half-width too wide by 0.086 to 0.21
# h^2 sqrt(N) (2.4e-6 to 3.7e-6 at about 1080 photons); at an edge the
# clamped end can make it too narrow, by up to 0.17 h^2 sqrt(N).
BETA_MEAN_TOL = 1e-12
BETA_EDGE_MEAN_TOL = 2.5e-6
BETA_WIDTH_SCALE = 0.25


class TestBetaLaw:
    @given(totals=st.lists(edge_or_interior_totals, min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_stacked_ideal_posteriors_match_the_beta_law(self, totals):
        stats = np.array(totals)
        stack = Posterior.from_log_density(GRID, IDEAL_TABLE.on_grid(stats))
        rows = zip(totals, posterior_mean(stack), credible_interval(stack))
        for (nc, nd), mean, width in rows:
            exact_mean, exact_width = beta_moments(nc, nd)
            one = Posterior.from_log_density(GRID, IDEAL_TABLE.on_grid(np.array([nc, nd])))
            window = one._support
            at_edge = window.start == 0 or window.stop == GRID.n_points
            scale = BETA_WIDTH_SCALE * GRID.spacing**2 * math.sqrt(max(nc + nd, 1))
            if at_edge:
                assert abs(mean - exact_mean) <= BETA_EDGE_MEAN_TOL
                assert abs(width - exact_width) <= scale
            else:
                assert abs(mean - exact_mean) <= BETA_MEAN_TOL
                assert 0.0 < width - exact_width <= scale

    def test_flat_prior_is_exact(self):
        mean, width = beta_moments(0, 0)
        assert mean == pytest.approx(math.pi / 2, abs=1e-14)
        assert width == pytest.approx(0.6827 * math.pi / 2, abs=1e-14)

    @pytest.mark.parametrize("nc, nd", [(3, 5), (40, 0), (0, 7)])
    def test_beta_law_matches_quadrature(self, nc, nd):
        c = normalization_constant(Outcome(nc, nd))

        def density(t):
            return c * math.cos(t / 2) ** (2 * nc) * math.sin(t / 2) ** (2 * nd)

        def cdf(phi):
            return quad(density, 0, phi)[0]

        mean = quad(lambda t: t * density(t), 0, math.pi)[0]
        mass = cdf(mean)
        a = brentq(lambda x: cdf(x) - (mass - 0.6827 / 2), 0, math.pi, xtol=1e-14)
        b = brentq(lambda x: cdf(x) - (mass + 0.6827 / 2), 0, math.pi, xtol=1e-14)
        exact_mean, exact_width = beta_moments(nc, nd)
        assert exact_mean == pytest.approx(mean, abs=1e-12)
        assert exact_width == pytest.approx((b - a) / 2, abs=1e-10)


class TestExport:
    def test_write_csv_roundtrip(self, grid, tmp_path):
        post = single_shot_posterior(Outcome(1, 2), grid)
        path = tmp_path / "posterior.csv"
        path.write_text(post.to_csv(), newline="")
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert len(data) == grid.n_points
        np.testing.assert_allclose(data["phi"], grid.nodes, atol=1e-10)
        np.testing.assert_allclose(data["density"], post.density, rtol=1e-9, atol=1e-12)
