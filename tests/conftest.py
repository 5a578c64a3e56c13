"""Shared fixtures.

The expensive Monte Carlo artifacts (ideal 17-phase scan, noisy
calibration + scan bundle) are session-scoped so the acceptance criteria
and the module tests share one computation.
"""

import contextlib
import os
import warnings

import numpy as np
import pytest

from mzbayes import _pool
from mzbayes.detector import (
    ConfusionModel,
    fit_retrodictive_weights,
    simulate_calibration,
)
from mzbayes.experiment import ExperimentPlan, scan
from mzbayes.photon_model import InterferometerModel
from mzbayes.posterior import PhaseGrid

MASTER_SEED = 7
NBAR = 1.08
PULSES = 1000
REPLICAS = 150


@pytest.fixture
def pin_workers(monkeypatch):
    """``pin_workers(n)`` makes every cell map (scan or calibration) use n workers, whatever its size.

    A call recorded in the test process records nothing that a worker
    process makes, so tests that record calls pin one worker.
    """
    return lambda workers: monkeypatch.setattr(
        _pool, "workers", lambda cells, pulses: workers
    )


@pytest.fixture
def on_workers(pin_workers):
    """``with on_workers(n):`` runs every cell map inside on n workers, with every warning an error.

    Python 3.12 warns (DeprecationWarning) when a process with threads
    forks. No worker may outlive a map, whether it returns or raises: a
    worker is a child of this process, so once every map has returned,
    this process has no child left, running or unreaped.
    """

    @contextlib.contextmanager
    def pinned(workers):
        pin_workers(workers)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                yield
        finally:
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    return pinned


@pytest.fixture(scope="session")
def grid():
    return PhaseGrid()


@pytest.fixture(scope="session")
def ideal_model():
    return InterferometerModel(nbar=NBAR)


@pytest.fixture(scope="session")
def regime():
    return ConfusionModel.paper_regime()


@pytest.fixture(scope="session")
def ideal_scan(ideal_model):
    """17-phase ideal scan, Bayes + classical, 150 x p=1000."""
    plan = ExperimentPlan(
        theta_grid=np.pi * np.linspace(0.1, 0.9, 17),
        p=PULSES,
        replicas=REPLICAS,
        seed=MASTER_SEED,
        model=ideal_model,
        estimators=("bayes", "classical"),
    )
    return scan(plan)


@pytest.fixture(scope="session")
def noisy_calibration(regime, ideal_model):
    """Calibration under the default noisy regime: 33 phases x 200k pulses."""
    rng = np.random.default_rng([MASTER_SEED, 0xCA11])
    phases = np.pi * np.linspace(0.02, 0.98, 33)
    return simulate_calibration(phases, 200_000, regime, ideal_model, rng)


@pytest.fixture(scope="session")
def fitted_weights(noisy_calibration, ideal_model):
    return fit_retrodictive_weights(noisy_calibration, ideal_model)


@pytest.fixture(scope="session")
def noisy_scan(regime, fitted_weights, ideal_model):
    """Bayes + YMK scan under the noisy regime, edges included."""
    plan = ExperimentPlan(
        theta_grid=np.pi * np.array([0.02, 0.1, 0.25, 0.5, 0.75, 0.9, 0.98]),
        p=PULSES,
        replicas=REPLICAS,
        seed=MASTER_SEED,
        model=ideal_model,
        noise=regime,
        channel=fitted_weights.channel,
        estimators=("bayes", "ymk"),
    )
    return scan(plan)
