"""Monte Carlo harness: plans, seeding, scans, and result export."""

import json
import math
from dataclasses import astuple

import numpy as np
import pytest

import mzbayes.experiment as experiment
import mzbayes.posterior as posterior
from mzbayes.detector import ConfusionModel
from mzbayes.estimators import FringeParams, noisy_classical_estimate
from mzbayes.experiment import (
    ESTIMATOR_NAMES,
    ExperimentPlan,
    _aggregate,
    _block_rows,
    _estimators,
    default_theta_grid,
    replica_rng,
    run_estimation,
    scan,
)
from mzbayes.posterior import CountLikelihood, PhaseGrid, credible_interval, posterior_mean


def small_plan(**kwargs):
    defaults = dict(
        theta_grid=np.pi * np.array([0.3, 0.7]),
        p=50,
        replicas=5,
        seed=7,
        grid=PhaseGrid(512),
    )
    defaults.update(kwargs)
    return ExperimentPlan(**defaults)


class TestPlan:
    def test_default_grid(self):
        grid = default_theta_grid()
        assert len(grid) == 19
        assert grid[0] == pytest.approx(0.05 * math.pi)
        assert grid[-1] == pytest.approx(0.95 * math.pi)

    def test_validation(self):
        with pytest.raises(ValueError):
            small_plan(p=0)
        with pytest.raises(ValueError):
            small_plan(replicas=0)
        with pytest.raises(ValueError):
            small_plan(theta_grid=np.array([4.0]))
        with pytest.raises(ValueError, match="theta_grid"):
            small_plan(theta_grid=np.array([0.5, np.nan]))
        with pytest.raises(ValueError):
            small_plan(estimators=("bayes", "psychic"))
        with pytest.raises(ValueError):
            small_plan(seed=-1)
        with pytest.raises(ValueError):
            small_plan(grid=PhaseGrid(1))
        with pytest.raises(ValueError):
            small_plan(estimators=())
        with pytest.raises(ValueError):
            small_plan(estimators=("bayes", "bayes"))
        with pytest.raises(ValueError, match="n_max"):
            small_plan(
                noise=ConfusionModel.paper_regime(n_max=4),
                channel=ConfusionModel.identity(n_max=3),
            )
        with pytest.raises(ValueError, match="come together"):
            small_plan(channel=ConfusionModel.identity())

    def test_noise_requires_channel(self):
        with pytest.raises(ValueError, match="come together"):
            small_plan(noise=ConfusionModel.paper_regime())
        # fine once the calibrated channel is supplied
        small_plan(
            noise=ConfusionModel.paper_regime(),
            channel=ConfusionModel.identity(),
        )

    def test_ideal_plan_builds_one_table(self, monkeypatch):
        # Bayes and ML of a plan, ideal or noisy, read its one table
        read = []
        on_grid = CountLikelihood.on_grid
        monkeypatch.setattr(
            CountLikelihood,
            "on_grid",
            lambda table, stats, out=None: read.append(table) or on_grid(table, stats, out),
        )
        for channel in (None, ConfusionModel.paper_regime()):
            plan = small_plan(noise=channel, channel=channel, estimators=("bayes", "ml"))
            read.clear()
            scan(plan)
            # at each phase, one Bayes read per block of replicas and one ML read per replica
            blocks = math.ceil(plan.replicas / _block_rows(plan.grid))
            assert len(read) == (blocks + plan.replicas) * plan.theta_grid.size
            assert all(table is plan.table for table in read)

    def test_estimators_share_one_reduction(self, monkeypatch):
        # ideal Bayes, classical and fringe all read the port totals: once per replica
        calls = []
        port_totals = posterior.port_totals

        def counted(n_c, n_d):
            calls.append(None)
            return port_totals(n_c, n_d)

        monkeypatch.setattr(posterior, "port_totals", counted)
        monkeypatch.setattr(experiment, "port_totals", counted)
        plan = small_plan(estimators=("bayes", "classical", "fringe"))
        scan(plan)
        assert len(calls) == plan.replicas * plan.theta_grid.size

    def test_manifest_contents(self):
        plan = small_plan()
        doc = plan.manifest()
        assert doc["p"] == 50 and doc["replicas"] == 5 and doc["seed"] == 7
        assert doc["theta_grid_pi"] == pytest.approx([0.3, 0.7])
        assert doc["noise"] is False


class TestSeeding:
    def test_replica_rng_reproducible(self):
        a = replica_rng(3, 1, 2).random(8)
        b = replica_rng(3, 1, 2).random(8)
        np.testing.assert_array_equal(a, b)

    def test_replica_rng_streams_differ(self):
        a = replica_rng(3, 1, 2).random(8)
        b = replica_rng(3, 1, 3).random(8)
        c = replica_rng(3, 2, 2).random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestRunEstimation:
    def test_deterministic(self):
        plan = small_plan()
        one = run_estimation(1.0, plan, replica_rng(plan.seed, 0, 0))
        two = run_estimation(1.0, plan, replica_rng(plan.seed, 0, 0))
        assert one == two

    def test_reference_phase_sensitivity(self):
        # p=1000 at theta = 0.24*pi: sqrt(p)*dtheta near 1/sqrt(1.08)
        plan = ExperimentPlan(theta_grid=np.array([0.24 * math.pi]), p=1000,
                              replicas=1, seed=11)
        mean, dtheta = run_estimation(0.24 * math.pi, plan, replica_rng(11, 0, 0))
        assert abs(mean - 0.24 * math.pi) < 3 * dtheta
        assert math.sqrt(1000) * dtheta == pytest.approx(1 / math.sqrt(1.08), rel=0.10)

    def test_single_pulse_width_of_order_prior(self):
        plan = ExperimentPlan(theta_grid=np.array([0.24 * math.pi]), p=1,
                              replicas=1, seed=11)
        widths = [
            run_estimation(0.24 * math.pi, plan, replica_rng(11, 0, r))[1]
            for r in range(40)
        ]
        # half-widths a sizable fraction of the prior half-width 1.07 rad
        assert np.mean(widths) > 0.5


class TestScans:
    def test_record_shape_and_lookup(self):
        plan = small_plan(estimators=("bayes", "ml", "classical", "fringe", "ymk"))
        result = scan(plan)
        assert len(result.records) == 2 * 5
        rec = result.record(0.3 * math.pi, "ymk")
        assert rec.estimator == "ymk"
        with pytest.raises(KeyError):
            result.record(0.5 * math.pi, "bayes")

    def test_estimator_table_serves_every_name(self):
        plan = small_plan()
        table = _estimators(plan)
        assert set(table) == set(ESTIMATOR_NAMES)
        n_c, n_d = plan.model.sample_counts(0.3 * math.pi, plan.p, np.random.default_rng(0))
        for name in ESTIMATOR_NAMES:
            estimator = table[name]
            (value,), (dtheta,) = estimator.score(np.array([estimator.reduce(n_c, n_d)]))
            assert 0.0 <= value <= math.pi
            assert math.isnan(dtheta) == (name != "bayes")

    @pytest.mark.parametrize("replicas", [1, 8, 11])
    def test_blocks_match_one_replica_estimates(self, replicas):
        # 4096 nodes give 8-row blocks: a short block, a full one, a full one and a remainder
        plan = small_plan(grid=PhaseGrid(), replicas=replicas, estimators=("bayes", "fringe"))
        assert _block_rows(plan.grid) == 8
        fringe = FringeParams(amplitude=plan.model.nbar)
        result = scan(plan)
        for phase_idx, theta in enumerate(plan.theta_grid):
            bayes, inverted = [], []
            for r in range(replicas):
                rng = replica_rng(plan.seed, phase_idx, r)
                n_c, n_d = plan.model.sample_counts(theta, plan.p, rng)
                post = plan.posterior(n_c, n_d)
                bayes.append((posterior_mean(post), credible_interval(post)))
                inverted.append(noisy_classical_estimate(n_c, n_d, fringe))
            means, widths = np.array(bayes).T
            want = _aggregate(float(theta), "bayes", means, widths)
            got = result.record(theta, "bayes")
            np.testing.assert_allclose(astuple(got)[2:], astuple(want)[2:], rtol=0, atol=1e-14)
            values = np.array(inverted)
            want = _aggregate(float(theta), "fringe", values, np.full(replicas, math.nan))
            got = result.record(theta, "fringe")
            np.testing.assert_array_equal(astuple(got)[2:], astuple(want)[2:])

    def test_degenerate_single_replica(self):
        result = scan(small_plan(replicas=1))
        rec = result.records[0]
        assert math.isnan(rec.sd_est)

    def test_non_bayes_estimators_have_no_dtheta(self):
        result = scan(small_plan(estimators=("classical",)))
        assert all(math.isnan(r.mean_dtheta) for r in result.records)

    def test_scan_determinism(self):
        a = scan(small_plan())
        b = scan(small_plan())
        assert a.records == b.records

    def test_bayesian_efficiency(self, ideal_scan):
        # replica scatter of the estimate agrees with the mean reported
        # credible half-width at every interior phase (CRLB saturation as
        # coverage calibration)
        for rec in ideal_scan.records:
            if rec.estimator != "bayes":
                continue
            assert rec.sd_est == pytest.approx(rec.mean_dtheta, rel=0.20)

    def test_csv_and_manifest_export(self):
        result = scan(small_plan())
        rows = result.to_csv().strip().splitlines()
        assert rows[0] == "theta,estimator,mean_est,bias,mean_dtheta,sd_est,sd_dtheta"
        assert len(rows) == 1 + len(result.records)
        first = rows[1].split(",")
        assert float(first[0]) == pytest.approx(0.3)  # theta in units of pi
        doc = json.loads(json.dumps(result.plan.manifest()))
        assert doc["seed"] == 7 and doc["p"] == 50
        assert doc["nbar"] == 1.08 and doc["ideal_n_max"] == 25
        assert doc["grid_points"] == 512
