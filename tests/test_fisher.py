"""Fisher information: analytic identity, numerics, CRLB."""

import io
import math

import numpy as np
import pytest

from mzbayes.detector import noisy_joint_pmf
from mzbayes.fisher import (
    EndpointError,
    crlb,
    crlb_csv,
    crlb_curve,
    fisher_ideal,
    fisher_numeric,
)
from mzbayes.photon_model import InterferometerModel

THETA_GRID = np.pi * np.linspace(0.1, 0.9, 9)


class TestFisherIdeal:
    def test_values(self):
        assert fisher_ideal(1.08) == 1.08
        assert fisher_ideal(1.0) == 1.0

    def test_requires_positive_nbar(self):
        with pytest.raises(ValueError):
            fisher_ideal(0.0)


class TestFisherNumeric:
    @pytest.mark.parametrize("nbar", [0.5, 1.08, 3.0])
    def test_matches_analytic_identity(self, nbar):
        model = InterferometerModel(nbar=nbar)
        for theta in THETA_GRID:
            assert abs(fisher_numeric(model.joint_pmf, theta) - nbar) < 1e-6

    def test_endpoint_error(self, ideal_model):
        for theta in (0.0, math.pi, 1e-9, math.pi - 1e-9):
            with pytest.raises(EndpointError):
                fisher_numeric(ideal_model.joint_pmf, theta)

    def test_step_validation(self, ideal_model):
        with pytest.raises(ValueError):
            fisher_numeric(ideal_model.joint_pmf, 1.0, d_theta=0.0)

    def test_count_cut_losing_mass_rejected(self):
        # counts cut at n_max = 25 per port keep 0.988 of the mass at nbar 30
        with pytest.raises(ValueError, match="mass"):
            fisher_numeric(InterferometerModel(nbar=30).joint_pmf, math.pi / 2)

    def test_central_difference_agrees_with_fourth_order(self, ideal_model):
        theta, h = 0.37 * math.pi, 1e-5
        pmf = ideal_model.joint_pmf
        dp2 = (pmf(theta + h) - pmf(theta - h)) / (2 * h)
        dp4 = (
            -pmf(theta + 2 * h)
            + 8 * pmf(theta + h)
            - 8 * pmf(theta - h)
            + pmf(theta - 2 * h)
        ) / (12 * h)
        assert np.max(np.abs(dp2 - dp4)) < 1e-8

    def test_noisy_channel_never_beats_ideal(self, regime, ideal_model):
        # data-processing inequality on the misread channel
        noisy = noisy_joint_pmf(regime, ideal_model)
        for theta in THETA_GRID:
            assert fisher_numeric(noisy, theta) <= fisher_numeric(
                ideal_model.joint_pmf, theta
            ) + 1e-9

    def test_noisy_fisher_finite_near_edges(self, regime, ideal_model):
        noisy = noisy_joint_pmf(regime, ideal_model)
        for theta in (0.02 * math.pi, 0.98 * math.pi):
            f = fisher_numeric(noisy, theta)
            assert math.isfinite(f) and f > 0.0


class TestCRLB:
    def test_reference_value(self):
        assert crlb(1.08, 1000) == pytest.approx(1 / math.sqrt(1080))
        assert crlb(1.08, 1000) == pytest.approx(0.03043, abs=5e-5)

    def test_single_shot(self):
        assert crlb(4.0, 1) == 0.5

    def test_quadrupled_pulses_halve_the_bound(self):
        assert crlb(1.08, 4000) == pytest.approx(crlb(1.08, 1000) / 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            crlb(0.0, 10)
        with pytest.raises(ValueError):
            crlb(1.0, 0)


class TestCurveExport:
    def test_curve_and_csv(self, ideal_model):
        thetas = np.pi * np.array([0.25, 0.5, 0.75])
        fishers, bounds = crlb_curve(ideal_model.joint_pmf, thetas, 1000)
        np.testing.assert_allclose(fishers, ideal_model.nbar, atol=1e-6)
        np.testing.assert_allclose(bounds, 1 / math.sqrt(1080), atol=1e-6)
        text = crlb_csv(thetas, fishers, bounds)
        data = np.genfromtxt(io.StringIO(text), delimiter=",", names=True)
        np.testing.assert_allclose(data["theta"], [0.25, 0.5, 0.75], atol=1e-12)
        np.testing.assert_allclose(data["fisher"], fishers, rtol=1e-9)
