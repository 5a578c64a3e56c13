"""Classical, fringe-inverted, YMK, and maximum-likelihood estimators."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzbayes.detector import ConfusionModel, FitError, simulate_calibration
from mzbayes.estimators import (
    DivergenceError,
    FringeParams,
    UndefinedEstimateError,
    classical_estimate,
    classical_uncertainty,
    fit_fringe,
    ml_estimate,
    noisy_classical_estimate,
    ymk_mean_estimate,
)
from mzbayes.photon_model import InterferometerModel, Outcome
from mzbayes.posterior import ideal_likelihood
from oracles import golden_section_max

counts = st.integers(min_value=0, max_value=10)
outcomes = st.builds(Outcome, counts, counts)


def pulses(outcomes):
    """Per-pulse (n_c, n_d) count arrays of a list of outcomes."""
    return (
        np.array([o.n_c for o in outcomes], dtype=int),
        np.array([o.n_d for o in outcomes], dtype=int),
    )


class TestClassical:
    def test_full_fringe_gives_zero(self):
        assert classical_estimate(*pulses([Outcome(1, 0)] * 4), nbar=1.0) == 0.0

    def test_balanced_gives_center(self):
        assert classical_estimate(
            *pulses([Outcome(1, 1), Outcome(0, 0)]), nbar=1.08
        ) == pytest.approx(math.pi / 2)

    def test_clamps_out_of_range_difference(self):
        # M_p = 3 > nbar: still a valid phase, not an exception
        assert classical_estimate(*pulses([Outcome(3, 0)]), nbar=1.0) == 0.0
        assert classical_estimate(*pulses([Outcome(0, 3)]), nbar=1.0) == pytest.approx(math.pi)

    def test_monte_carlo_consistency(self):
        theta, nbar, p = math.pi / 2, 1.08, 1000
        model = InterferometerModel(nbar=nbar)
        rng = np.random.default_rng(21)
        n_c, n_d = model.sample_counts(theta, p, rng)
        est = classical_estimate(n_c, n_d, nbar)
        assert abs(est - theta) < 3 * classical_uncertainty(theta, nbar, p)

    def test_requires_outcomes_and_positive_nbar(self):
        with pytest.raises(ValueError):
            classical_estimate(*pulses([]), nbar=1.0)
        with pytest.raises(ValueError):
            classical_estimate(*pulses([Outcome(1, 0)]), nbar=0.0)
        with pytest.raises(ValueError):
            classical_estimate(*pulses([Outcome(1, 0)]), nbar=math.inf)

    @given(data=st.lists(outcomes, min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_totality(self, data):
        est = classical_estimate(*pulses(data), nbar=1.08)
        assert 0.0 <= est <= math.pi


class TestClassicalUncertainty:
    def test_optimal_point(self):
        assert classical_uncertainty(math.pi / 2, 1.08, 1000) == pytest.approx(
            1 / math.sqrt(1080)
        )

    def test_doubles_at_thirty_degrees(self):
        assert classical_uncertainty(math.pi / 6, 1.08, 1000) == pytest.approx(
            2 * classical_uncertainty(math.pi / 2, 1.08, 1000)
        )

    def test_diverges_at_endpoints(self):
        for theta in (0.0, math.pi):
            with pytest.raises(DivergenceError):
                classical_uncertainty(theta, 1.08, 1000)


class TestFringe:
    def test_amplitude_must_be_positive(self):
        with pytest.raises(ValueError):
            FringeParams(amplitude=0.0)

    @pytest.mark.parametrize(
        "params",
        [{"a": math.nan}, {"b": math.nan}, {"b": math.inf}, {"amplitude": math.inf}],
        ids=["nan-a", "nan-b", "infinite-b", "infinite-amplitude"],
    )
    def test_parameters_must_be_finite(self, params):
        with pytest.raises(ValueError, match="finite"):
            FringeParams(**params)

    def test_noiseless_fit_recovers_ideal_fringe(self, ideal_model):
        phases = np.pi * np.linspace(0.05, 0.95, 19)
        calib = simulate_calibration(
            phases, 100_000, ConfusionModel.identity(), ideal_model,
            np.random.default_rng(22),
        )
        params = fit_fringe(calib)
        assert params.a == pytest.approx(0.0, abs=0.01)
        assert params.b == pytest.approx(0.0, abs=0.01)
        assert params.amplitude == pytest.approx(ideal_model.nbar, rel=0.01)

    def test_too_few_phases_rejected(self, regime, ideal_model):
        # simulate_calibration refuses two phases, so keep two of five
        calib = simulate_calibration(
            [0.4, 1.2, 1.6, 2.0, 2.4], 100, regime, ideal_model, np.random.default_rng(23)
        )
        calib = replace(calib, phases=calib.phases[:2], counts=calib.counts[:2])
        with pytest.raises(FitError):
            fit_fringe(calib)

    def test_degenerate_fringe_rejected(self, ideal_model):
        # dead detectors: M(theta) identically zero, no fringe to invert
        K = np.zeros((5, 5))
        K[0, :] = 1.0
        dead = ConfusionModel(forward_c=K, forward_d=K)
        calib = simulate_calibration(
            np.pi * np.linspace(0.1, 0.9, 9), 1000, dead, ideal_model,
            np.random.default_rng(24),
        )
        with pytest.raises(FitError):
            fit_fringe(calib)

    def test_trivial_params_reduce_to_classical(self):
        data = [Outcome(2, 0), Outcome(0, 1), Outcome(1, 1)]
        params = FringeParams(a=0.0, b=0.0, amplitude=1.08)
        assert noisy_classical_estimate(*pulses(data), params) == pytest.approx(
            classical_estimate(*pulses(data), nbar=1.08)
        )

    def test_out_of_fringe_range_clamps(self):
        params = FringeParams(a=0.0, b=0.0, amplitude=0.5)
        assert noisy_classical_estimate(*pulses([Outcome(4, 0)]), params) == 0.0
        assert noisy_classical_estimate(*pulses([Outcome(0, 4)]), params) == pytest.approx(
            math.pi
        )

    @given(
        data=st.lists(outcomes, min_size=1, max_size=10),
        a=st.floats(min_value=-math.pi, max_value=math.pi),
        b=st.floats(min_value=-2.0, max_value=2.0),
        amplitude=st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=50)
    def test_totality(self, data, a, b, amplitude):
        est = noisy_classical_estimate(
            *pulses(data), FringeParams(a=a, b=b, amplitude=amplitude)
        )
        assert 0.0 <= est <= math.pi


class TestYMK:
    def test_balanced_counts(self):
        for k in (1, 2, 5):
            assert ymk_mean_estimate([k], [k]) == pytest.approx(math.pi / 2)

    def test_three_one(self):
        assert ymk_mean_estimate([3], [1]) == pytest.approx(math.pi / 3)

    def test_no_photons_undefined(self):
        with pytest.raises(UndefinedEstimateError):
            ymk_mean_estimate([0], [0])

    def test_sequence_skips_empty_shots(self):
        est = ymk_mean_estimate(*pulses([Outcome(0, 0), Outcome(1, 1), Outcome(0, 0)]))
        assert est == pytest.approx(math.pi / 2)

    def test_sequence_all_empty_undefined(self):
        with pytest.raises(UndefinedEstimateError):
            ymk_mean_estimate(*pulses([Outcome(0, 0)] * 3))


class TestGoldenSection:
    def test_parabola_maximum(self):
        x = golden_section_max(lambda t: -((t - 1.3) ** 2), 0.0, 3.0)
        assert x == pytest.approx(1.3, abs=1e-8)

    def test_monotone_function_picks_endpoint(self):
        x = golden_section_max(lambda t: t, 0.0, 1.0)
        assert x == pytest.approx(1.0, abs=1e-8)


@pytest.fixture(scope="module")
def loglik(grid):
    return ideal_likelihood(grid)


class TestML:
    # ML reads a run's statistics; on an ideal table one pulse's are its counts [nc, nd]
    def test_analytic_single_shot_maximum(self, loglik):
        # argmax of cos^{2Nc}(phi/2) sin^{2Nd}(phi/2) is 2*arctan(sqrt(Nd/Nc))
        for nc, nd in [(1, 0), (1, 1), (3, 2), (2, 5)]:
            est = ml_estimate([nc, nd], loglik)
            assert not est.flat
            assert est.phase == pytest.approx(
                2 * math.atan(math.sqrt(nd / nc)), abs=1e-6
            )

    def test_only_sine_port_pushes_to_pi(self, loglik):
        est = ml_estimate([0, 3], loglik)
        assert est.phase == pytest.approx(math.pi, abs=1e-6)

    def test_flat_likelihood_flagged(self, loglik):
        est = ml_estimate([0, 0], loglik)
        assert est.flat
        assert est.phase == math.pi / 2

    def test_requires_outcomes(self, loglik):
        # statistics that are not the table's (Nc, Nd)
        with pytest.raises(ValueError):
            ml_estimate([], loglik)

    def test_asymptotic_agreement_with_bayes(self, loglik, ideal_model, grid):
        from mzbayes.posterior import credible_interval, posterior_mean
        from oracles import accumulate

        theta = 0.24 * math.pi
        rng = np.random.default_rng(25)
        n_c, n_d = ideal_model.sample_counts(theta, 1000, rng)
        data = [Outcome(int(a), int(b)) for a, b in zip(n_c, n_d)]
        est = ml_estimate([n_c.sum(), n_d.sum()], loglik)
        post = accumulate(data, grid)
        assert abs(est.phase - posterior_mean(post)) < credible_interval(post) / 3

    def test_ymk_ml_coincidence(self, loglik, grid):
        # noiseless single shot: YMK equals the ML phase within grid resolution
        for nc in range(9):
            for nd in range(9):
                if 1 <= nc + nd <= 8:
                    ml = ml_estimate([nc, nd], loglik).phase
                    ymk = ymk_mean_estimate([nc], [nd])
                    assert abs(ml - ymk) < 2 * grid.spacing
