"""Per-layer instrumentation of mzbayes for the traced benchmark run.

Every public function is wrapped at the name its caller looks it up by:
``cli`` imports the scan and calibration entry points by name,
``experiment`` imports the detector, estimator and posterior helpers by
name, and ``sample_counts``/``from_log_density`` are looked up on their
classes. A name the program no longer has is reported as absent.
"""

from __future__ import annotations

import hashlib
import warnings

import numpy as np

from tracer import Tracer

# (metric, unit, better, span or counter group it is read from)
PER_LAYER = [
    ("photon_model.sample_counts.calls", "count", "lower", "photon_model.sample_counts"),
    ("photon_model.sample_counts.self_s", "s", "lower", "photon_model.sample_counts"),
    ("photon_model.pulses", "count", "lower", "photon_model.sample_counts"),
    ("detector.simulate_calibration.self_s", "s", "lower", "detector.simulate_calibration"),
    ("detector.fit_retrodictive_weights.self_s", "s", "lower",
     "detector.fit_retrodictive_weights"),
    ("detector.uniform_fallback_pairs", "count", "lower", "detector.fit_retrodictive_weights"),
    ("detector.apply_noise_counts.calls", "count", "lower", "detector.apply_noise_counts"),
    ("detector.apply_noise_counts.self_s", "s", "lower", "detector.apply_noise_counts"),
    ("detector.log_posterior_fit.calls", "count", "lower", "detector.log_posterior_fit"),
    ("detector.log_posterior_fit.self_s", "s", "lower", "detector.log_posterior_fit"),
    ("detector.noisy_loglik.grid_calls", "count", "lower", "detector.noisy_loglik"),
    ("detector.noisy_loglik.point_calls", "count", "lower", "detector.noisy_loglik"),
    ("detector.noisy_loglik.self_s", "s", "lower", "detector.noisy_loglik"),
    ("detector.noisy_loglik.phase_evals", "count", "lower", "detector.noisy_loglik"),
    ("posterior.from_log_density.calls", "count", "lower", "posterior.from_log_density"),
    ("posterior.from_log_density.self_s", "s", "lower", "posterior.from_log_density"),
    ("posterior.posterior_mean.self_s", "s", "lower", "posterior.posterior_mean"),
    ("posterior.credible_interval.self_s", "s", "lower", "posterior.credible_interval"),
    ("estimators.classical_estimate.self_s", "s", "lower", "estimators.classical_estimate"),
    ("estimators.ymk_sequence_estimate.self_s", "s", "lower", "estimators.ymk_sequence_estimate"),
    ("estimators.ymk_dropped_frac", "ratio", "lower", "estimators.ymk_sequence_estimate"),
    ("estimators.ml_estimate.calls", "count", "lower", "estimators.ml_estimate"),
    ("estimators.ml_estimate.self_s", "s", "lower", "estimators.ml_estimate"),
    ("estimators.ml_flat_frac", "ratio", "lower", "estimators.ml_estimate"),
    ("estimators.noisy_classical_estimate.self_s", "s", "lower",
     "estimators.noisy_classical_estimate"),
    ("estimators.fit_fringe.self_s", "s", "lower", "estimators.fit_fringe"),
    ("experiment.scan.self_s", "s", "lower", "experiment.scan"),
    ("experiment.replicas", "count", "lower", "experiment.replica_rng"),
    ("experiment.outcome_objects", "count", "lower", "experiment.outcomes"),
    ("fisher.crlb_curve.self_s", "s", "lower", "fisher.crlb_curve"),
    ("fisher.pmf_evals", "count", "lower", "fisher.crlb_curve"),
    ("cli.load_config.self_s", "s", "lower", "cli.load_config"),
    ("cli.self_s", "s", "lower", "cli"),
    ("cli.bytes_written", "B", "lower", "cli"),
    ("trace.wall_s", "s", "lower", "trace"),
    ("trace.unattributed_s", "s", "lower", "trace"),
    ("trace.hooks_s", "s", "lower", "trace"),
    ("trace.overhead_s", "s", "lower", "trace"),
]

# Metrics that are counts of work: identical on every traced repeat.
COUNT_METRICS = {name for name, unit, _, _ in PER_LAYER if unit in ("count", "ratio", "B")}


class Instruments:
    """Counters and draw digests fed by the wrappers of one traced run."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._outcomes_counted = False
        self.reset_digests()

    def reset_digests(self) -> None:
        self.true_draws = hashlib.sha256()
        self.measured_draws = hashlib.sha256()

    def digests(self) -> dict[str, str]:
        """sha256 of every (n_c, n_d) array drawn, before and after misreads."""
        return {
            "true_counts": self.true_draws.hexdigest(),
            "measured_counts": self.measured_draws.hexdigest(),
        }

    def _count(self, key: str, value: float = 1.0) -> None:
        self.tracer.counters[key] += value

    # -- hooks -------------------------------------------------------------

    def _after_sample(self, result, args):
        n_c, n_d = result
        self._count("pulses", len(n_c))
        self.true_draws.update(np.ascontiguousarray(n_c).tobytes())
        self.true_draws.update(np.ascontiguousarray(n_d).tobytes())

    def _after_noise(self, result, args):
        for arr in result:
            self.measured_draws.update(np.ascontiguousarray(arr).tobytes())

    def _count_outcomes(self, args, kwargs):
        # One per-pulse outcome list is built per replica and shared by all
        # non-Bayes estimators of that replica; count it once.
        outcomes = args[0] if args else None
        if not self._outcomes_counted and isinstance(outcomes, list):
            self._count("outcome_objects", len(outcomes))
            self._outcomes_counted = True
        return args, kwargs

    def _prepare_ymk(self, args, kwargs):
        outcomes = args[0] if args else ()
        self._count("ymk_shots", len(outcomes))
        self._count("ymk_dropped", sum(1 for o in outcomes if o.n_c + o.n_d == 0))
        return self._count_outcomes(args, kwargs)

    def _after_ml(self, result, args):
        self._count("ml_calls")
        self._count("ml_flat", float(bool(getattr(result, "flat", False))))

    def _after_loglik(self, result, args):
        n = int(np.size(args[0]))
        self._count("phase_evals", n)
        self._count("grid_calls" if n > 1 else "point_calls")

    def _prepare_crlb(self, args, kwargs):
        pmf = args[0]

        def counted_pmf(*a, **k):
            self.tracer.counters["pmf_evals"] += 1
            return pmf(*a, **k)

        return (counted_pmf, *args[1:]), kwargs

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, prepare=None, after=None):
        return lambda fn: self.tracer.wrap(name, fn, prepare=prepare, after=after)

    def _replica_rng(self, fn):
        def counted(*args, **kwargs):
            self.tracer.counters["replicas"] += 1
            self._outcomes_counted = False
            return fn(*args, **kwargs)

        return counted

    def _loglik_factory(self, fn):
        def factory(*args, **kwargs):
            return self.tracer.wrap(
                "detector.noisy_loglik", fn(*args, **kwargs), after=self._after_loglik
            )

        return factory

    def _fit_weights(self, fn):
        def counted(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
            for w in caught:
                if "uniform retrodictive weights" in str(w.message):
                    self.tracer.counters["uniform_fallback_pairs"] += 1
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)
            return result

        return self.tracer.wrap("detector.fit_retrodictive_weights", counted)

    def install(self) -> None:
        t = self.tracer
        cli, exp = "mzbayes.cli", "mzbayes.experiment"
        outcomes = self._count_outcomes
        t.patch_any("cli.load_config", [(cli, "load_config")], self._span("cli.load_config"))
        t.patch_any(
            "experiment.scan",
            [(cli, "bias_scan"), (cli, "sensitivity_scan"), (cli, "scan")],
            self._span("experiment.scan"),
        )
        t.patch_any(
            "detector.simulate_calibration",
            [(cli, "simulate_calibration")],
            self._span("detector.simulate_calibration"),
        )
        t.patch_any(
            "detector.fit_retrodictive_weights",
            [(cli, "fit_retrodictive_weights")],
            self._fit_weights,
        )
        t.patch_any(
            "estimators.fit_fringe", [(cli, "fit_fringe")], self._span("estimators.fit_fringe")
        )
        t.patch_any(
            "fisher.crlb_curve",
            [(cli, "crlb_curve")],
            self._span("fisher.crlb_curve", prepare=self._prepare_crlb),
        )
        t.patch_any(
            "photon_model.sample_counts",
            [("mzbayes.photon_model", "InterferometerModel.sample_counts")],
            self._span("photon_model.sample_counts", after=self._after_sample),
        )
        t.patch_any(
            "detector.apply_noise_counts",
            [(exp, "apply_noise_counts"), ("mzbayes.detector", "apply_noise_counts")],
            self._span("detector.apply_noise_counts", after=self._after_noise),
        )
        t.patch_any(
            "detector.log_posterior_fit",
            [(exp, "log_posterior_fit")],
            self._span("detector.log_posterior_fit"),
        )
        t.patch_any(
            "detector.noisy_loglik", [(exp, "noisy_log_likelihood_grid")], self._loglik_factory
        )
        t.patch_any(
            "posterior.from_log_density",
            [("mzbayes.posterior", "Posterior.from_log_density")],
            self._span("posterior.from_log_density"),
        )
        for name in ("posterior_mean", "credible_interval"):
            t.patch_any(f"posterior.{name}", [(exp, name)], self._span(f"posterior.{name}"))
        for name in ("classical_estimate", "noisy_classical_estimate"):
            span = self._span(f"estimators.{name}", prepare=outcomes)
            t.patch_any(f"estimators.{name}", [(exp, name)], span)
        t.patch_any(
            "estimators.ymk_sequence_estimate",
            [(exp, "ymk_sequence_estimate")],
            self._span("estimators.ymk_sequence_estimate", prepare=self._prepare_ymk),
        )
        t.patch_any(
            "estimators.ml_estimate",
            [(exp, "ml_estimate")],
            self._span("estimators.ml_estimate", prepare=outcomes, after=self._after_ml),
        )
        t.patch_any("experiment.replica_rng", [(exp, "replica_rng")], self._replica_rng)
        if "estimators.classical_estimate" in t.absent and "estimators.ml_estimate" in t.absent:
            t.absent.append("experiment.outcomes")


def layer_metrics(summary: dict, counters: dict) -> dict[str, float]:
    """One traced repeat's per-layer metrics (the ``trace.*`` ones excepted)."""

    def calls(span):
        return float(summary.get(span, {}).get("calls", 0))

    def self_s(span):
        return float(summary.get(span, {}).get("self_s", 0.0))

    def ratio(num, den):
        return counters.get(num, 0.0) / counters[den] if counters.get(den) else 0.0

    out: dict[str, float] = {}
    for name, unit, _, _ in PER_LAYER:
        if name.startswith("trace.") or name == "cli.bytes_written":
            continue
        span, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls(span)
        elif field == "self_s":
            out[name] = self_s(span)
    out["photon_model.pulses"] = counters.get("pulses", 0.0)
    out["detector.uniform_fallback_pairs"] = counters.get("uniform_fallback_pairs", 0.0)
    for key in ("grid_calls", "point_calls", "phase_evals"):
        out[f"detector.noisy_loglik.{key}"] = counters.get(key, 0.0)
    out["estimators.ymk_dropped_frac"] = ratio("ymk_dropped", "ymk_shots")
    out["estimators.ml_flat_frac"] = ratio("ml_flat", "ml_calls")
    out["experiment.replicas"] = counters.get("replicas", 0.0)
    out["experiment.outcome_objects"] = counters.get("outcome_objects", 0.0)
    out["fisher.pmf_evals"] = counters.get("pmf_evals", 0.0)
    return out
