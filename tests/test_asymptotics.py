"""The noisy scan against its large-p asymptotics (``oracles.asymptotic_cell``): no Monte Carlo.

Beside acceptance criteria 6 and 7: the phase the noisy posterior
concentrates at through the calibrated channel, its half-width and the
replica spread of its mean, predicted from the channels alone.
"""

import math

import numpy as np
import pytest

from conftest import PULSES, REPLICAS
from mzbayes.detector import noisy_joint_pmf
from mzbayes.fisher import crlb, fisher_numeric
from oracles import asymptotic_cell

# The conftest noisy scan's phases, theta/pi, that lie inside the oracle's
# domain, and the edges, where the posterior meets 0 or pi.
INTERIOR = [0.1, 0.25, 0.5, 0.75, 0.9]
EDGES = [0.02, 0.98]
ML_TOL = 1e-6


@pytest.mark.parametrize("theta_pi", INTERIOR)
def test_true_channel_gives_the_crlb(regime, ideal_model, theta_pi):
    """Read through the channel it was drawn through, H = J = F: no bias, both widths the CRLB."""
    theta = theta_pi * math.pi
    theta_star, half_width, sd = asymptotic_cell(regime, regime, ideal_model, theta, PULSES)
    assert theta_star == pytest.approx(theta, abs=ML_TOL)
    bound = crlb(fisher_numeric(noisy_joint_pmf(regime, ideal_model), theta), PULSES)
    assert half_width == pytest.approx(bound, rel=1e-6)
    assert sd == pytest.approx(bound, rel=1e-6)


@pytest.mark.parametrize("theta_pi", EDGES)
def test_edges_are_outside_the_asymptotics(regime, ideal_model, theta_pi):
    with pytest.raises(ValueError, match="do not apply"):
        asymptotic_cell(regime, regime, ideal_model, theta_pi * math.pi, PULSES)


def test_fitted_channel_bias_floor_is_small(regime, fitted_weights, ideal_model):
    """The seed-7 calibration's bias floor theta* - theta stays under a third
    of each interior cell's standard error (at most 0.21 of it, 0.73 mrad)."""
    for theta_pi in INTERIOR:
        theta = theta_pi * math.pi
        theta_star, _, sd = asymptotic_cell(
            regime, fitted_weights.channel, ideal_model, theta, PULSES
        )
        assert abs(theta_star - theta) < sd / math.sqrt(REPLICAS) / 3.0, theta_pi


def test_noisy_scan_follows_its_asymptotics(regime, fitted_weights, ideal_model, noisy_scan):
    """Each interior cell of the scan: the mean half-width within 1% of 1/sqrt(pH),
    and the bias beyond theta* - theta and ``sd_est`` against the sandwich sd each
    within 4 standard errors."""
    for theta_pi in INTERIOR:
        theta = theta_pi * math.pi
        theta_star, half_width, sd = asymptotic_cell(
            regime, fitted_weights.channel, ideal_model, theta, PULSES
        )
        rec = noisy_scan.record(theta, "bayes")
        assert rec.mean_dtheta == pytest.approx(half_width, rel=0.01), theta_pi
        assert abs(rec.bias - (theta_star - theta)) < 4.0 * rec.sd_est / math.sqrt(REPLICAS)
        # the standard error of a normal sample's sd is sd / sqrt(2 (n - 1))
        assert abs(rec.sd_est - sd) < 4.0 * sd / np.sqrt(2.0 * (REPLICAS - 1)), theta_pi
