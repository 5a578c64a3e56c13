"""The public names and the module attributes the traced benchmark patches."""

import importlib

import mzbayes

# perfbench/layers.py wraps these attributes by name; a rename would turn
# the matching per-layer metric absent without failing anything else.
HOOKED = {
    "mzbayes.cli": [
        "scan",
        "load_config",
        "simulate_calibration",
        "fit_retrodictive_weights",
        "fit_fringe",
        "crlb_curve",
    ],
    "mzbayes.experiment": [
        "noisy_log_likelihood_grid",
        "posterior_mean",
        "credible_interval",
        "ml_estimate",
        "replica_rng",
    ],
    "mzbayes.detector": ["apply_noise_counts"],
    "mzbayes.photon_model": ["InterferometerModel.sample_counts"],
    "mzbayes.posterior": ["Posterior.from_log_density"],
}


def test_public_names_resolve():
    missing = [name for name in mzbayes.__all__ if not hasattr(mzbayes, name)]
    assert missing == []


def test_benchmark_hook_points_exist():
    missing = []
    for module, paths in HOOKED.items():
        for path in paths:
            target = importlib.import_module(module)
            for part in path.split("."):
                target = getattr(target, part, None)
            if not callable(target):
                missing.append(f"{module}.{path}")
    assert missing == []
