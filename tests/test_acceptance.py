"""Acceptance suite: one test and one printed verdict per criterion.

Statistical criteria run at the fixed master seed from conftest; the
heavy Monte Carlo artifacts are shared session fixtures.
"""

import json
import math

import numpy as np

from mzbayes.cli import EXIT_OK, main as cli_main
from mzbayes.detector import noisy_joint_pmf
from mzbayes.estimators import classical_estimate, classical_uncertainty
from mzbayes.experiment import ExperimentPlan, replica_rng, run_estimation
from mzbayes.fisher import crlb, fisher_numeric
from mzbayes.photon_model import InterferometerModel, Outcome
from mzbayes.posterior import Posterior, single_shot_posterior

from conftest import MASTER_SEED, NBAR, PULSES, REPLICAS

TARGET = 1.0 / math.sqrt(NBAR)  # sqrt(p) * CRLB for the ideal model


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {number}] {name}: {status}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_crlb_saturation(ideal_scan):
    """sqrt(p)*mean(dtheta) within 10% of 1/sqrt(nbar) at 17 ideal phases."""
    worst = 0.0
    for rec in ideal_scan.records:
        if rec.estimator != "bayes":
            continue
        scaled = math.sqrt(PULSES) * rec.mean_dtheta
        worst = max(worst, abs(scaled / TARGET - 1.0))
    verdict(1, "CRLB saturation", worst < 0.10, f"worst deviation {worst:.1%}")


def test_criterion_2_unbiasedness(ideal_scan):
    """|bias| < 3 standard errors and replica scatter >= 5x |bias|."""
    worst_se = worst_frac = 0.0
    for rec in ideal_scan.records:
        if rec.estimator != "bayes":
            continue
        se = rec.sd_est / math.sqrt(REPLICAS)
        worst_se = max(worst_se, abs(rec.bias) / se)
        worst_frac = max(worst_frac, abs(rec.bias) / rec.sd_est)
    ok = worst_se < 3.0 and worst_frac < 0.2
    verdict(2, "unbiasedness", ok,
            f"max |bias|/se {worst_se:.2f}, min sd/|bias| {1 / worst_frac:.1f}x")


def test_criterion_3_fisher_identity():
    """Numerical Fisher information equals nbar to 1e-6, phase-independent."""
    worst = 0.0
    for nbar in (0.5, 1.08, 3.0):
        model = InterferometerModel(nbar=nbar)
        for theta in np.pi * np.linspace(0.1, 0.9, 9):
            worst = max(worst, abs(fisher_numeric(model.joint_pmf, theta) - nbar))
    verdict(3, "Fisher identity F=nbar", worst < 1e-6, f"worst |F-nbar| {worst:.2e}")


def test_criterion_4_posterior_oracle_equivalence(grid):
    """Bayes-from-Poisson posterior equals the closed form, nbar-independent."""
    worst = 0.0
    zeros_match = True
    for nbar in (0.5, 1.08, 3.0):
        model = InterferometerModel(nbar=nbar)
        for nc in range(7):
            for nd in range(7 - nc):
                outcome = Outcome(nc, nd)
                from_likelihood = Posterior.from_log_density(
                    grid, model.log_likelihood_grid(grid.nodes, outcome)
                )
                closed_form = single_shot_posterior(outcome, grid)
                a, b = from_likelihood.density, closed_form.density
                mask = b > 0.0
                worst = max(worst, float(np.max(np.abs(a[mask] / b[mask] - 1.0))))
                zeros_match = zeros_match and np.array_equal(a == 0.0, b == 0.0)
    verdict(4, "posterior/likelihood equivalence", worst < 1e-10 and zeros_match,
            f"worst relative error {worst:.2e}")


def test_criterion_5_classical_divergence(ideal_scan, ideal_model):
    """Fringe-inverted uncertainty follows 1/(sqrt(p nbar) sin(theta))."""
    replicas = 1500  # quantile half-width needs tighter statistics than sd
    level = 0.6827
    worst = 0.0
    ratio_at_edge = None
    for k, theta_pi in enumerate((0.1, 0.25, 0.5)):
        theta = theta_pi * math.pi
        estimates = []
        for r in range(replicas):
            rng = replica_rng(MASTER_SEED, 100 + k, r)
            n_c, n_d = ideal_model.sample_counts(theta, PULSES, rng)
            estimates.append(classical_estimate(n_c, n_d, NBAR))
        lo, hi = np.quantile(estimates, [0.5 - level / 2, 0.5 + level / 2])
        half_width = (hi - lo) / 2.0
        predicted = classical_uncertainty(theta, NBAR, PULSES)
        worst = max(worst, abs(half_width / predicted - 1.0))
        if theta_pi == 0.1:
            bayes_dtheta = ideal_scan.record(theta, "bayes").mean_dtheta
            ratio_at_edge = half_width / bayes_dtheta
    ok = worst < 0.15 and ratio_at_edge >= 2.5
    verdict(5, "classical-estimator divergence", ok,
            f"worst deviation {worst:.1%}, 0.1pi ratio {ratio_at_edge:.2f}")


def test_criterion_6_noise_robustness(regime, fitted_weights, noisy_scan,
                                      ideal_model):
    """Finite edge CRLB; edge sensitivity rises yet stays < 3x the plateau."""
    targets = {(0, 0): 0.54, (0, 1): 0.67, (1, 1): 0.67, (0, 2): 0.87}
    diag_ok = all(
        abs(fitted_weights.diagonal(*pair) - val) < 0.04
        for pair, val in targets.items()
    )
    pmf = noisy_joint_pmf(regime, ideal_model)
    edge_bounds = [crlb(fisher_numeric(pmf, t * math.pi), PULSES)
                   for t in (0.02, 0.98)]
    crlb_ok = all(math.isfinite(b) and b > 0 for b in edge_bounds)
    plateau = math.sqrt(PULSES) * noisy_scan.record(0.5 * math.pi, "bayes").mean_dtheta
    edges = [math.sqrt(PULSES) * noisy_scan.record(t * math.pi, "bayes").mean_dtheta
             for t in (0.02, 0.98)]
    rise_ok = all(plateau < e < 3.0 * plateau for e in edges)
    verdict(6, "noise robustness", diag_ok and crlb_ok and rise_ok,
            f"plateau {plateau:.3f}, edges {edges[0]:.3f}/{edges[1]:.3f}")


def test_criterion_7_ymk_bias_contrast(noisy_scan):
    """YMK goes many standard errors off; weighted Bayes stays unbiased."""
    interior = [0.1, 0.25, 0.5, 0.75, 0.9]
    ymk_worst = bayes_worst = 0.0
    for theta_pi in interior:
        theta = theta_pi * math.pi
        ymk = noisy_scan.record(theta, "ymk")
        bayes = noisy_scan.record(theta, "bayes")
        ymk_worst = max(ymk_worst, abs(ymk.bias) / (ymk.sd_est / math.sqrt(REPLICAS)))
        bayes_worst = max(
            bayes_worst, abs(bayes.bias) / (bayes.sd_est / math.sqrt(REPLICAS))
        )
    ok = ymk_worst > 3.0 and bayes_worst <= 3.0
    verdict(7, "YMK bias contrast", ok,
            f"YMK max |bias|/se {ymk_worst:.0f}, Bayes max {bayes_worst:.2f}")


def test_criterion_8_clt_scaling():
    """sqrt(p)-scaling of the posterior width at theta = 0.24*pi."""
    theta = 0.24 * math.pi
    means = {}
    for p in (1, 10, 100, 1000):
        plan = ExperimentPlan(theta_grid=np.array([theta]), p=p,
                              replicas=REPLICAS, seed=MASTER_SEED)
        widths = [
            run_estimation(theta, plan, replica_rng(MASTER_SEED, 0, r))[1]
            for r in range(REPLICAS)
        ]
        means[p] = float(np.mean(widths))
    scaling_dev = abs(
        math.sqrt(100) * means[100] / (math.sqrt(1000) * means[1000]) - 1.0
    )
    # dtheta is a half-width; the 68.27% interval spans twice that
    single_pulse_width = 2.0 * means[1]
    ok = scaling_dev < 0.15 and single_pulse_width > 1.0
    verdict(8, "CLT scaling", ok,
            f"p=100 vs p=1000 deviation {scaling_dev:.1%}, "
            f"p=1 interval width {single_pulse_width:.2f} rad")


def test_criterion_9_determinism(tmp_path):
    """Same seed, same config: byte-identical scan CSV output."""
    cfg_doc = {
        "plan": {
            "theta_grid_pi": [0.1, 0.5, 0.9],
            "p": PULSES,
            "replicas": 20,
            "seed": MASTER_SEED,
        },
    }
    outputs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        cfg = tmp_path / f"config_{name}.json"
        cfg.write_text(json.dumps({**cfg_doc, "output": {"dir": str(out_dir)}}))
        code = cli_main(["scan", "sensitivity", "--config", str(cfg), "--quiet"])
        assert code == EXIT_OK
        outputs.append((out_dir / "sensitivity_scan.csv").read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    verdict(9, "determinism", ok, f"{len(outputs[0])} bytes, identical reruns")
