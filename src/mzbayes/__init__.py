"""Bayesian phase estimation for a coherent-light Mach-Zehnder interferometer.

Simulates photon-number-resolving detection at the two output ports,
grid-based Bayesian phase inference, detector confusion calibration, and
Monte Carlo scans of estimator bias and sensitivity against the
Cramer-Rao bound.
"""

from mzbayes._version import __version__
from mzbayes.photon_model import InterferometerModel, Outcome, PhaseDomainError
from mzbayes.posterior import (
    DegenerateEvidenceError,
    PhaseGrid,
    Posterior,
    CountLikelihood,
    credible_interval,
    ideal_likelihood,
    posterior_mean,
    single_shot_posterior,
)
from mzbayes.detector import (
    CalibrationData,
    ConfusionModel,
    FitError,
    RetrodictiveWeights,
    fit_retrodictive_weights,
    simulate_calibration,
)
from mzbayes.estimators import (
    FringeParams,
    MLEstimate,
    classical_estimate,
    classical_uncertainty,
    fit_fringe,
    ml_estimate,
    noisy_classical_estimate,
    ymk_mean_estimate,
)
from mzbayes.fisher import crlb, fisher_ideal, fisher_numeric
from mzbayes.experiment import (
    ExperimentPlan,
    ScanRecord,
    ScanResult,
    default_theta_grid,
    run_estimation,
    scan,
)

__all__ = [
    "InterferometerModel",
    "Outcome",
    "PhaseDomainError",
    "PhaseGrid",
    "Posterior",
    "DegenerateEvidenceError",
    "single_shot_posterior",
    "CountLikelihood",
    "ideal_likelihood",
    "posterior_mean",
    "credible_interval",
    "ConfusionModel",
    "RetrodictiveWeights",
    "CalibrationData",
    "FitError",
    "simulate_calibration",
    "fit_retrodictive_weights",
    "FringeParams",
    "MLEstimate",
    "classical_estimate",
    "classical_uncertainty",
    "fit_fringe",
    "noisy_classical_estimate",
    "ymk_mean_estimate",
    "ml_estimate",
    "fisher_ideal",
    "fisher_numeric",
    "crlb",
    "ExperimentPlan",
    "ScanRecord",
    "ScanResult",
    "run_estimation",
    "scan",
    "default_theta_grid",
]
