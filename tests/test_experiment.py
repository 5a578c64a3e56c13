"""Monte Carlo harness: plans, seeding, scans, and result export."""

import contextlib
import json
import math
import multiprocessing
import time
import warnings
from dataclasses import astuple, replace
from functools import cached_property

import numpy as np
import pytest
from scipy.stats import chi2

import mzbayes.experiment as experiment
from mzbayes import _pool
from mzbayes.cli import EXIT_NUMERICAL, main
from mzbayes.detector import ConfusionModel, apply_noise_counts
from mzbayes.estimators import (
    FringeParams,
    UndefinedEstimateError,
    classical_estimate,
    ml_estimate,
    noisy_classical_estimate,
    ymk_mean_estimate,
)
from mzbayes.experiment import (
    ESTIMATOR_NAMES,
    ExperimentPlan,
    _aggregate,
    _Block,
    _block_rows,
    _estimators,
    default_theta_grid,
    replica_rng,
    run_estimation,
    scan,
)
from mzbayes.photon_model import InterferometerModel
from mzbayes.posterior import (
    CountLikelihood,
    PhaseGrid,
    Posterior,
    credible_interval,
    posterior_mean,
)
from oracles import expected_bayes_moments, expected_classical_moments, run_statistics


def _block_bytes(plan, rows):
    """A block budget that holds ``rows`` of the plan's replicas."""
    return rows * 8 * max(plan.grid.n_points, plan.p * (2 if plan.noise is None else 4))


def _sd_band(replicas: int, rows: int, level: float = 1e-3) -> tuple[float, float]:
    """Bounds on sd_est / exact sd for ``rows`` rows of ``replicas`` normal estimates.

    (replicas - 1) sd_est^2 / sd^2 is chi-square with replicas - 1 degrees
    of freedom; each row's two-sided band holds ``level`` / ``rows`` of
    it, so that all rows fall inside with probability at least
    1 - ``level`` (Bonferroni).
    """
    dof = replicas - 1
    tail = level / rows / 2.0
    return tuple(math.sqrt(chi2.ppf(q, dof) / dof) for q in (tail, 1.0 - tail))


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

    def test_port_totals_fit_in_int64(self):
        # p pulses at nbar photons each sum to about p * nbar per replica
        with pytest.raises(ValueError, match=r"plan.p \* model.nbar <= 2\*\*62"):
            small_plan(p=1000, model=InterferometerModel(nbar=1e17))
        small_plan(p=4, model=InterferometerModel(nbar=2.0**60))

    def test_noisy_fringe_needs_its_fitted_fringe(self):
        # the ideal fringe would stand in for it: classical under another name
        regime = ConfusionModel.paper_regime()
        with pytest.raises(ValueError, match="a fitted fringe"):
            small_plan(noise=regime, channel=regime, estimators=("bayes", "fringe"))
        small_plan(noise=regime, channel=regime, estimators=("bayes", "classical"))
        small_plan(noise=regime, channel=regime, fringe=FringeParams(amplitude=0.8),
                   estimators=("fringe",))
        # an ideal plan, and an identity channel, keep the ideal fringe
        small_plan(estimators=("fringe",))
        identity = ConfusionModel.identity()
        small_plan(noise=identity, channel=identity, estimators=("fringe",))

    def test_noise_requires_channel(self):
        with pytest.raises(ValueError, match="come together"):
            small_plan(noise=ConfusionModel.paper_regime())
        # fine once the calibrated channel is supplied
        small_plan(
            noise=ConfusionModel.paper_regime(),
            channel=ConfusionModel.identity(),
        )

    def test_ideal_plan_builds_one_table(self, monkeypatch, pin_workers):
        # Bayes and ML of a plan, ideal or noisy, read its one table
        pin_workers(1)  # the calls are recorded in this process
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
            blocks = math.ceil(plan.replicas / _block_rows(plan))
            assert len(read) == (blocks + plan.replicas) * plan.theta_grid.size
            assert all(table is plan.table for table in read)

    def test_estimators_share_one_reduction(self, monkeypatch, pin_workers):
        # ideal Bayes, ML, classical and fringe read the port totals; noisy
        # classical and fringe read the totals, and noisy Bayes, ML and YMK
        # the pair histogram; Bayes and ML read the table's statistics of
        # either: each once per block
        pin_workers(1)  # the calls are recorded in this process
        cases = [(False, "totals"), (False, "statistics"),
                 (True, "totals"), (True, "pairs"), (True, "statistics")]
        for noisy, statistic in cases:
            calls = []
            counted = cached_property(
                lambda block, reduce=getattr(_Block, statistic).func, calls=calls: (
                    calls.append(None) or reduce(block)
                )
            )
            counted.__set_name__(_Block, statistic)
            monkeypatch.setattr(_Block, statistic, counted)
            regime = ConfusionModel.paper_regime() if noisy else None
            fringe = FringeParams(amplitude=0.8) if noisy else None  # a noisy plan's fitted fringe
            estimators = ("bayes", "ml", "classical", "fringe") + (("ymk",) if noisy else ())
            plan = small_plan(noise=regime, channel=regime, fringe=fringe, estimators=estimators)
            monkeypatch.setattr(experiment, "_BLOCK_BYTES", _block_bytes(plan, rows=2))
            assert _block_rows(plan) == 2
            scan(plan)
            assert len(calls) == math.ceil(plan.replicas / 2) * plan.theta_grid.size

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

    @pytest.mark.parametrize("noisy", [False, True], ids=["ideal", "noisy"])
    def test_is_the_scans_bayes_value(self, noisy):
        # one replica: the scan's mean over replicas is that replica's value
        regime = ConfusionModel.paper_regime() if noisy else None
        plan = small_plan(replicas=1, noise=regime, channel=regime)
        result = scan(plan)
        for phase_idx, theta in enumerate(plan.theta_grid):
            mean, dtheta = run_estimation(theta, plan, replica_rng(plan.seed, phase_idx, 0))
            rec = result.record(theta, "bayes")
            assert (mean, dtheta) == (rec.mean_est, rec.mean_dtheta)

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
        block = _Block(plan, n_c[None], n_d[None])
        for name in ESTIMATOR_NAMES:
            (value,), (dtheta,) = table[name](block)
            assert 0.0 <= value <= math.pi
            assert math.isnan(dtheta) == (name != "bayes")

    @pytest.mark.parametrize("replicas", [1, 16, 21])
    def test_blocks_match_one_replica_estimates(self, replicas):
        # 4096 nodes give 16-row blocks: a short block, a full one, a full one and a remainder
        plan = small_plan(grid=PhaseGrid(), replicas=replicas, estimators=("bayes", "fringe"))
        assert _block_rows(plan) == min(16, replicas)
        fringe = FringeParams(amplitude=plan.model.nbar)
        result = scan(plan)
        for phase_idx, theta in enumerate(plan.theta_grid):
            bayes, inverted = [], []
            for r in range(replicas):
                rng = replica_rng(plan.seed, phase_idx, r)
                n_c, n_d = plan.model.sample_counts(theta, plan.p, rng)
                stats = run_statistics(plan, n_c, n_d)
                post = Posterior.from_log_density(plan.grid, plan.table.on_grid(stats))
                bayes.append((posterior_mean(post), credible_interval(post)))
                inverted.append(noisy_classical_estimate(n_c, n_d, fringe))
            means, widths = np.array(bayes).T
            want = _aggregate(float(theta), "bayes", means, widths)
            got = result.record(theta, "bayes")
            np.testing.assert_array_equal(astuple(got)[2:], astuple(want)[2:])
            values = np.array(inverted)
            want = _aggregate(float(theta), "fringe", values, np.full(replicas, math.nan))
            got = result.record(theta, "fringe")
            np.testing.assert_array_equal(astuple(got)[2:], astuple(want)[2:])

    @pytest.mark.parametrize("noisy", [False, True], ids=["ideal", "noisy"])
    def test_run_estimation_is_each_scanned_replica(self, monkeypatch, pin_workers, noisy):
        # 17 replicas at 4096 nodes: a 16-row block, then the last replica alone
        pin_workers(1)  # the calls are recorded in this process
        regime = ConfusionModel.paper_regime() if noisy else None
        plan = small_plan(grid=PhaseGrid(), replicas=17, noise=regime, channel=regime,
                          estimators=("bayes",))
        assert _block_rows(plan) == 16
        scored = {}
        aggregate = experiment._aggregate

        def recorded(theta, estimator, values, dthetas):
            scored[theta] = values, dthetas
            return aggregate(theta, estimator, values, dthetas)

        monkeypatch.setattr(experiment, "_aggregate", recorded)
        scan(plan)
        for phase_idx, theta in enumerate(plan.theta_grid):
            for r, scanned in enumerate(zip(*scored[theta])):
                one = run_estimation(theta, plan, replica_rng(plan.seed, phase_idx, r))
                assert one == scanned

    @pytest.mark.parametrize("noisy", [False, True], ids=["ideal", "noisy"])
    @pytest.mark.parametrize("replicas", [1, 3, 5], ids=["one", "one-block", "block-and-rest"])
    def test_draw_blocks_match_one_replica_at_a_time(
        self, monkeypatch, pin_workers, noisy, replicas
    ):
        # 3-replica blocks; the reference draws, misreads, reduces and
        # scores each replica on its own, through the per-pulse estimators
        # and one-row posteriors
        pin_workers(1)  # the calls are recorded in this process
        regime = ConfusionModel.paper_regime() if noisy else None
        plan = small_plan(replicas=replicas, noise=regime, channel=regime,
                          fringe=FringeParams(a=0.1, b=0.05, amplitude=1.0),
                          estimators=ESTIMATOR_NAMES)
        monkeypatch.setattr(experiment, "_BLOCK_BYTES", _block_bytes(plan, rows=3))
        assert _block_rows(plan) == min(3, replicas)
        scored = {}
        aggregate = experiment._aggregate

        def recorded(theta, estimator, values, dthetas):
            scored[theta, estimator] = values, dthetas
            return aggregate(theta, estimator, values, dthetas)

        monkeypatch.setattr(experiment, "_aggregate", recorded)
        scan(plan)
        for phase_idx, theta in enumerate(plan.theta_grid):
            runs = []
            for r in range(replicas):
                rng = replica_rng(plan.seed, phase_idx, r)
                n_c, n_d = plan.model.sample_counts(theta, plan.p, rng)
                if noisy:
                    n_c, n_d = apply_noise_counts(n_c, n_d, plan.noise, rng)
                runs.append((n_c, n_d))
            assert any(np.any(n_c + n_d == 0) for n_c, n_d in runs)  # zero-photon shots
            stats = np.array([run_statistics(plan, *run) for run in runs])
            posteriors = [Posterior.from_log_density(plan.grid, plan.table.on_grid(row))
                          for row in stats]
            want = {
                "bayes": (
                    [posterior_mean(post) for post in posteriors],
                    [credible_interval(post) for post in posteriors],
                ),
                "ml": [ml_estimate(row, plan.table).phase for row in stats],
                "classical": [classical_estimate(*run, plan.model.nbar) for run in runs],
                "fringe": [noisy_classical_estimate(*run, plan.fringe) for run in runs],
            }
            for name, expected in want.items():
                values, dthetas = scored[float(theta), name]
                if name == "bayes":
                    np.testing.assert_array_equal(dthetas, expected[1])
                    expected = expected[0]
                np.testing.assert_array_equal(values, expected)
            ymk = [ymk_mean_estimate(*run) for run in runs]
            np.testing.assert_allclose(scored[float(theta), "ymk"][0], ymk, rtol=1e-15, atol=0)

    def test_noisy_replica_without_photons_is_undefined_for_ymk(self):
        # one pulse per replica at pi/2: of three replicas, some read no photon
        regime = ConfusionModel.paper_regime()
        plan = small_plan(theta_grid=np.array([math.pi / 2]), p=1, replicas=3, seed=3,
                          noise=regime, channel=regime, estimators=("ymk",))
        photons = []
        for r in range(plan.replicas):
            rng = replica_rng(plan.seed, 0, r)
            counts = plan.model.sample_counts(math.pi / 2, plan.p, rng)
            n_c, n_d = apply_noise_counts(*counts, regime, rng)
            photons.append(int(n_c[0] + n_d[0]))
        assert 0 in photons and any(photons)
        with pytest.raises(UndefinedEstimateError):
            scan(plan)

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

    @pytest.fixture(scope="class")
    def p100_scan(self, ideal_scan):
        # The conftest ideal scan's phases, seed, replicas and estimators at
        # p = 100: its exact Bayes expectations sum about 80k count pairs in
        # all, where p = 1000 would take about a second per phase.
        return scan(replace(ideal_scan.plan, p=100))

    def test_ideal_bayes_moments_match_their_expectation(self, p100_scan):
        plan = p100_scan.plan
        rows = [rec for rec in p100_scan.records if rec.estimator == "bayes"]
        # all rows' sd_est in their chi-square bands at family-wise level 1e-3
        lo, hi = _sd_band(plan.replicas, len(rows))
        for rec in rows:
            bias, dtheta, sd = expected_bayes_moments(rec.theta, plan.p, plan.model.nbar)
            assert abs(rec.bias - bias) <= 4 * rec.sd_est / math.sqrt(plan.replicas)
            assert abs(rec.mean_dtheta - dtheta) <= 4 * rec.sd_dtheta / math.sqrt(plan.replicas)
            assert lo <= rec.sd_est / sd <= hi

    def test_ideal_classical_moments_match_their_expectation(self, p100_scan):
        plan = p100_scan.plan
        rows = [rec for rec in p100_scan.records if rec.estimator == "classical"]
        assert len(rows) == len(plan.theta_grid)
        lo, hi = _sd_band(plan.replicas, len(rows))
        for rec in rows:
            bias, sd = expected_classical_moments(rec.theta, plan.p, plan.model.nbar)
            assert abs(rec.bias - bias) <= 4 * rec.sd_est / math.sqrt(plan.replicas)
            assert lo <= rec.sd_est / sd <= hi

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


class TestWorkers:
    def test_worker_rule(self, monkeypatch):
        monkeypatch.setattr(_pool, "_cpus", lambda: 4)
        # the shipped ideal plan: 19 cells of 150 x 1000 pulses, 10 workers' worth
        assert _pool.workers(19, 19 * 150 * 1000) == 4
        # 2 * 150 * 2000 pulses fill two workers, 2 * 150 * 1000 one, and 1 * 2 * 2000 none
        assert _pool.workers(2, 2 * 150 * 2000) == 2
        assert _pool.workers(2, 2 * 150 * 1000) < 2
        assert _pool.workers(1, 1 * 2 * 2000) < 2
        monkeypatch.setattr(_pool, "_PULSES_PER_WORKER", 1)
        assert _pool.workers(2, 2 * 5 * 50) == 2
        monkeypatch.delattr(_pool.os, "fork")
        assert _pool.workers(19, 19 * 150 * 1000) == 1

    def test_scan_asks_for_its_cells_and_pulses(self, monkeypatch):
        asked = []
        monkeypatch.setattr(_pool, "workers", lambda *args: asked.append(args) or 1)
        scan(small_plan())
        assert asked == [(2, 2 * 5 * 50)]

    @pytest.mark.parametrize("noisy", [False, True], ids=["ideal", "noisy"])
    def test_pool_scan_is_byte_identical(self, monkeypatch, on_workers, noisy):
        regime = ConfusionModel.paper_regime() if noisy else None
        fringe = FringeParams(amplitude=0.8) if noisy else None  # a noisy plan's fitted fringe
        plan = small_plan(theta_grid=np.pi * np.array([0.2, 0.5, 0.8]), noise=regime,
                          channel=regime, fringe=fringe, estimators=ESTIMATOR_NAMES)
        # a cell scored in this process is recorded; a worker's record stays in the worker
        here = []
        score = experiment._CellScanner.__call__
        monkeypatch.setattr(experiment._CellScanner, "__call__",
                            lambda scanner, i: here.append(i) or score(scanner, i))
        with on_workers(1):
            one = scan(plan)
        assert here == [0, 1, 2]
        here.clear()
        with on_workers(2):
            two = scan(plan)
        assert here == []
        assert two.to_csv() == one.to_csv()
        # and every bit, beyond the CSV's 12 digits
        np.testing.assert_array_equal([astuple(rec)[2:] for rec in two.records],
                                      [astuple(rec)[2:] for rec in one.records])

    def test_unallocatable_buffers_reach_the_caller(self, on_workers):
        # the scanner allocates its block buffers before any worker starts,
        # so numpy's own error reaches the caller
        plan = small_plan(p=10**15, replicas=1)
        with pytest.raises((MemoryError, ValueError), match="Unable to allocate|Maximum allowed"):
            with on_workers(2):
                scan(plan)

    @staticmethod
    def _cells_fail_out_of_order(monkeypatch):
        """Cell 0 scores nothing, cell 1 scores (slowly), cell 2 fails at once."""
        score = experiment._CellScanner.__call__

        def cell(scanner, i):
            if i == 0:
                return []
            if i == 2:
                raise FloatingPointError("cell 2")
            time.sleep(0.2)  # so cell 2 fails first
            return score(scanner, i)

        monkeypatch.setattr(experiment._CellScanner, "__call__", cell)

    def test_first_failing_cell_reaches_the_caller(self, monkeypatch, on_workers):
        # at nbar 1e-9 no replica detects a photon, so cell 1's YMK is
        # undefined; cell 2 fails earlier, but later in theta order
        self._cells_fail_out_of_order(monkeypatch)
        plan = small_plan(theta_grid=np.pi * np.array([0.25, 0.5, 0.75]), p=2,
                          model=InterferometerModel(nbar=1e-9), estimators=("ymk",))
        with pytest.raises(UndefinedEstimateError):
            with on_workers(2):
                scan(plan)

    def test_failing_cell_stops_the_cells_not_started(self, monkeypatch, on_workers, tmp_path):
        # each call leaves a file, which a worker process can; cell 1 stays
        # in flight until cell 0 has raised and its worker has seen it
        raised = multiprocessing.get_context("fork").Event()

        def cell(scanner, i):
            (tmp_path / str(i)).touch()
            if i == 0:
                raised.set()
                raise RuntimeError("cell 0 failed")
            raised.wait(timeout=5.0)
            time.sleep(0.05)
            return []

        monkeypatch.setattr(experiment._CellScanner, "__call__", cell)
        with pytest.raises(RuntimeError, match="cell 0 failed"):
            with on_workers(2):
                scan(small_plan(theta_grid=np.pi * np.linspace(0.1, 0.9, 9)))
        calls = sorted(int(path.name) for path in tmp_path.iterdir())
        assert 0 in calls and len(calls) <= 2

    def test_only_cells_after_a_failed_one_are_skipped(self, monkeypatch):
        # a worker that takes cell 1 only once cell 2 has failed on another
        # still runs it, so the first failing cell in order is re-raised
        # whatever the timing
        ran = []

        def task(cell):
            ran.append(cell)
            if cell == 2:
                raise FloatingPointError("cell 2")
            return cell

        monkeypatch.setattr(_pool, "_task", task)
        monkeypatch.setattr(_pool, "_failed", multiprocessing.get_context("fork").Value("q", 4))
        with pytest.raises(FloatingPointError):
            _pool._run_cell(2)
        assert _pool._run_cell(1) == 1 and _pool._run_cell(3) is None
        assert ran == [2, 1]

    def test_failing_pool_scan_exits_3(self, monkeypatch, on_workers, tmp_path, capsys):
        self._cells_fail_out_of_order(monkeypatch)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "model": {"nbar": 1e-9},
            "plan": {"theta_grid_pi": [0.25, 0.5, 0.75], "p": 2, "replicas": 5,
                     "estimators": ["ymk"]},
        }))
        with on_workers(2):
            code = main(["scan", "bias", "--config", str(cfg), "--out-dir",
                         str(tmp_path / "out"), "--quiet"])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure:")
        assert not (tmp_path / "out").exists()
