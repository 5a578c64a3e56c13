"""Detector confusion channel, calibration, and retrodictive weights."""

import json
import math
import multiprocessing
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from mzbayes import _pool, detector
from mzbayes.detector import (
    CalibrationError,
    ConfusionModel,
    FitError,
    RetrodictiveWeights,
    _fit_port,
    apply_noise_counts,
    exact_retrodictive_weights,
    fit_confusion_model,
    fit_retrodictive_weights,
    measured_port_distributions,
    misread_rows,
    noisy_joint_pmf,
    pair_histogram,
    simulate_calibration,
)
from mzbayes.experiment import ExperimentPlan, _Block
from mzbayes.photon_model import InterferometerModel, Outcome
from mzbayes.posterior import PhaseGrid, posterior_mean, single_shot_posterior
from oracles import (
    apply_noise,
    choice_port,
    einsum_em_step,
    em_fit,
    em_step,
    log_likelihood,
    posterior_fit,
)


# The fewest distinct phases that resolve the five true counts 0..4.
FIVE_PHASES = [0.3, 0.8, 1.3, 1.8, 2.3]


def _variance(post):
    mean = posterior_mean(post)
    nodes = post.grid.nodes
    return float(np.trapezoid((nodes - mean) ** 2 * post.density, nodes))


@pytest.fixture(scope="module")
def dead_detector():
    K = np.zeros((5, 5))
    K[0, :] = 1.0
    return ConfusionModel(forward_c=K, forward_d=K)


@pytest.fixture(scope="module")
def off_by_one():
    """Diagonal 0.9, mass 0.1 one count low (one up at t=0)."""
    K = 0.9 * np.eye(5)
    for t in range(1, 5):
        K[t - 1, t] = 0.1
    K[1, 0] = 0.1
    return ConfusionModel(forward_c=K, forward_d=K)


class TestConfusionModel:
    def test_column_stochasticity_enforced(self):
        K = np.eye(5)
        K[0, 0] = 0.5
        with pytest.raises(ValueError):
            ConfusionModel(forward_c=K, forward_d=np.eye(5))

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            ConfusionModel(forward_c=np.eye(3), forward_d=np.eye(3), n_max=4)

    def test_entries_in_unit_interval(self):
        K = np.eye(5)
        K[0, 0], K[1, 0] = 1.5, -0.5
        with pytest.raises(ValueError):
            ConfusionModel(forward_c=K, forward_d=np.eye(5))
        K[0, 0], K[1, 0] = np.nan, 0.0
        with pytest.raises(ValueError, match="forward_d"):
            ConfusionModel(forward_c=np.eye(5), forward_d=K)

    @pytest.mark.parametrize(
        "build",
        [
            ConfusionModel.identity,
            ConfusionModel.paper_regime,
            lambda n_max: ConfusionModel(np.eye(1), np.eye(1), n_max=n_max),
        ],
        ids=["identity", "paper-regime", "matrix"],
    )
    def test_negative_n_max_rejected(self, build):
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            build(-1)

    def test_identity_flag(self):
        assert ConfusionModel.identity().is_identity()
        assert not ConfusionModel.paper_regime().is_identity()

    def test_paper_regime_is_stochastic(self, regime):
        np.testing.assert_allclose(regime.forward_c.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(regime.forward_d.sum(axis=0), 1.0, atol=1e-12)


class TestApplyNoise:
    def test_identity_channel_passthrough(self):
        model = ConfusionModel.identity()
        rng = np.random.default_rng(0)
        for nc in range(5):
            for nd in range(5):
                assert apply_noise(Outcome(nc, nd), model, rng) == Outcome(nc, nd)

    def test_counts_above_n_max_fold(self):
        model = ConfusionModel.identity()
        rng = np.random.default_rng(0)
        assert apply_noise(Outcome(9, 7), model, rng) == Outcome(4, 4)

    def test_dead_detector_reports_nothing(self, dead_detector):
        rng = np.random.default_rng(1)
        for nc, nd in [(0, 0), (3, 1), (4, 4)]:
            assert apply_noise(Outcome(nc, nd), dead_detector, rng) == Outcome(0, 0)

    def test_misread_fraction_five_sigma(self, off_by_one):
        rng = np.random.default_rng(2)
        n = 10**5
        true = np.full(n, 2)
        reported = apply_noise_counts(true, np.zeros(n, dtype=int), off_by_one, rng)[0]
        misreads = int(np.sum(reported != 2))
        sigma = math.sqrt(n * 0.1 * 0.9)
        assert abs(misreads - 0.1 * n) < 5 * sigma

    def test_negative_true_count_rejected(self, regime):
        n_c, n_d = np.array([1, -1]), np.array([0, 0])
        with pytest.raises(ValueError, match=">= 0"):
            apply_noise_counts(n_c, n_d, regime, np.random.default_rng(0))
        with pytest.raises(ValueError, match=">= 0"):
            misread_rows(n_c[None], np.zeros((1, 2)), regime.column_reads[0])

    def test_vectorized_matches_scalar_distribution(self, off_by_one):
        # same channel statistics whichever API draws the counts
        rng = np.random.default_rng(3)
        n = 20_000
        vec = apply_noise_counts(
            np.full(n, 1), np.full(n, 3), off_by_one, np.random.default_rng(4)
        )
        scalars = [apply_noise(Outcome(1, 3), off_by_one, rng) for _ in range(n)]
        vec_frac = np.mean(vec[0] == 1)
        sca_frac = np.mean([o.n_c == 1 for o in scalars])
        assert abs(vec_frac - sca_frac) < 0.02


@st.composite
def forward_matrices(draw, n_max):
    """Column-stochastic K with silent (all-zero) rows and four kinds of column.

    - deterministic: all the mass on one live row;
    - weights: integer weights on the live rows, normalised;
    - saturating: dyadic masses whose running sum reaches exactly 1.0 before
      the last live row; the later live rows hold 0 or masses below half an
      ulp of 1, which the running sum absorbs;
    - near-edge: ``1 - eps`` on one live row and ``eps`` on another, with
      ``eps`` a few ulps of 0 (subnormal) or of 1 (2**-53), so a cdf entry
      sits just inside 0 or 1.
    """
    bins = n_max + 1
    silent = draw(st.sets(st.integers(0, n_max), max_size=n_max))
    live = [m for m in range(bins) if m not in silent]
    K = np.zeros((bins, bins))
    kinds = ["deterministic", "weights"] + (["saturating", "near-edge"] if len(live) > 1 else [])
    for t in range(bins):
        kind = draw(st.sampled_from(kinds))
        if kind == "deterministic":
            K[draw(st.sampled_from(live)), t] = 1.0
        elif kind == "weights":
            w = draw(st.lists(st.integers(0, 1000), min_size=len(live), max_size=len(live)))
            w = np.array(w if sum(w) > 0 else np.eye(len(live))[0], dtype=float)
            K[live, t] = w / w.sum()
        elif kind == "saturating":
            k = draw(st.integers(1, len(live) - 1))
            cuts = sorted(draw(st.sets(st.integers(1, 63), min_size=k - 1, max_size=k - 1)))
            K[live[:k], t] = np.diff([0, *cuts, 64]) / 64.0
            tiny = st.sampled_from([0.0, 1e-17, 2.0**-60])
            K[live[k:], t] = draw(st.lists(tiny, min_size=len(live) - k, max_size=len(live) - k))
        else:
            a, b = draw(st.permutations(live))[:2]
            eps = draw(st.integers(1, 4)) * draw(st.sampled_from([5e-324, 2.0**-53]))
            K[a, t], K[b, t] = 1.0 - eps, eps
    return K


def _random_channel(seed, n_max=4):
    rng = np.random.default_rng(seed)
    K_c, K_d = rng.random((2, n_max + 1, n_max + 1))
    return ConfusionModel(
        forward_c=K_c / K_c.sum(axis=0), forward_d=K_d / K_d.sum(axis=0), n_max=n_max
    )


class _Uniforms:
    """A stand-in generator whose ``random(n)`` hands out given uniforms in order."""

    def __init__(self, u):
        self.u = list(u)

    def random(self, n):
        drawn, self.u = self.u[:n], self.u[n:]
        return np.array(drawn)


class TestChannelDraws:
    @given(data=st.data(), n_max=st.integers(0, 6), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_choice_draw_for_draw(self, data, n_max, seed):
        model = ConfusionModel(
            forward_c=data.draw(forward_matrices(n_max)),
            forward_d=data.draw(forward_matrices(n_max)),
            n_max=n_max,
        )
        pulses = data.draw(st.integers(0, 300))
        counts = st.lists(st.integers(0, n_max + 3), min_size=pulses, max_size=pulses)
        n_c = np.array(data.draw(counts), dtype=np.int64)
        n_d = np.array(data.draw(counts), dtype=np.int64)
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = apply_noise_counts(n_c, n_d, model, rng)
        want = (
            choice_port(n_c, model.forward_c, n_max, oracle_rng),
            choice_port(n_d, model.forward_d, n_max, oracle_rng),
        )
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
        assert rng.random() == oracle_rng.random()

    @given(data=st.data(), n_max=st.integers(0, 15), rows=st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_rows_match_choice_row_by_row(self, data, n_max, rows):
        """Each row's misreads, pair histogram and stream against ``choice_port`` on its seed.

        Rows differ in their group sizes, true counts run past ``n_max``,
        and at ``n_max`` 15 the pair index reaches 255.
        """
        model = ConfusionModel(
            forward_c=data.draw(forward_matrices(n_max)),
            forward_d=data.draw(forward_matrices(n_max)),
            n_max=n_max,
        )
        pulses = data.draw(st.integers(0, 80))
        counts = st.lists(st.integers(0, n_max + 3), min_size=pulses, max_size=pulses)
        n_c = np.array([data.draw(counts) for _ in range(rows)], dtype=np.int64).reshape(rows, -1)
        n_d = np.array([data.draw(counts) for _ in range(rows)], dtype=np.int64).reshape(rows, -1)
        seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=rows, max_size=rows))
        streams = [np.random.default_rng(seed) for seed in seeds]
        uniforms = np.array([stream.random(2 * pulses) for stream in streams]).reshape(rows, -1)
        reads_c, reads_d = model.column_reads
        got_c = misread_rows(n_c, uniforms[:, :pulses], reads_c)
        got_d = misread_rows(n_d, uniforms[:, pulses:], reads_d)
        plan = ExperimentPlan(p=max(pulses, 1), noise=model, channel=model)
        pairs = _Block(plan, got_c, got_d).pairs
        for r, (seed, stream) in enumerate(zip(seeds, streams)):
            oracle = np.random.default_rng(seed)
            want_c = choice_port(n_c[r], model.forward_c, n_max, oracle)
            want_d = choice_port(n_d[r], model.forward_d, n_max, oracle)
            assert got_c.dtype == got_d.dtype == want_c.dtype
            np.testing.assert_array_equal(got_c[r], want_c)
            np.testing.assert_array_equal(got_d[r], want_d)
            np.testing.assert_array_equal(pairs[r], pair_histogram(want_c, want_d, n_max))
            assert stream.bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize(
        "pulses", [0, 1, 2 * detector._CHUNK + 7], ids=["empty", "one-pulse", "three-chunks"]
    )
    def test_edge_sizes_match_choice(self, regime, pulses):
        n_c, n_d = np.full(pulses, 7), np.full(pulses, 2)
        rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = apply_noise_counts(n_c, n_d, regime, rng)
        want = (
            choice_port(n_c, regime.forward_c, regime.n_max, oracle_rng),
            choice_port(n_d, regime.forward_d, regime.n_max, oracle_rng),
        )
        for g, w in zip(got, want):
            assert g.shape == (pulses,)
            np.testing.assert_array_equal(g, w)
        assert rng.random() == oracle_rng.random()

    @given(data=st.data(), n_max=st.integers(0, 6))
    @settings(max_examples=200, deadline=None)
    def test_reads_equal_searchsorted_at_every_edge(self, data, n_max):
        K = data.draw(forward_matrices(n_max))
        model = ConfusionModel(forward_c=K, forward_d=K, n_max=n_max)
        for t in range(n_max + 1):
            cdf = K[:, t].cumsum()  # as rng.choice builds it
            cdf /= cdf[-1]
            # uniforms on, and one ulp either side of, each cdf entry and each end of [0, 1)
            probes = np.concatenate(
                [cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0), [0.0, 1.0 - 2.0**-53]]
            )
            u = probes[(probes >= 0.0) & (probes < 1.0)]
            # port d has no pulses, so port c's reads take every uniform
            got, _ = apply_noise_counts(np.full(u.size, t), np.zeros(0, int), model, _Uniforms(u))
            np.testing.assert_array_equal(got, cdf.searchsorted(u, side="right"))

    @pytest.mark.parametrize(
        "model", [ConfusionModel.paper_regime(), _random_channel(11)], ids=["paper-regime", "dense"]
    )
    def test_calibration_matches_choice_oracle(self, model, ideal_model, monkeypatch, pin_workers):
        """Five phases x 50k pulses: sample_counts then choice_port on the same spawned streams."""
        _assert_calibration_matches_oracle(
            monkeypatch, pin_workers, FIVE_PHASES, 50_000, model, ideal_model, seed=[7, 0xCA11]
        )

    @pytest.mark.parametrize(
        "phases, pulses, model, nbar",
        [
            (FIVE_PHASES, 2 * detector._CHUNK + 7, ConfusionModel.paper_regime(), 1.08),
            (FIVE_PHASES, 20_000, _random_channel(12), 7.0),
            (np.linspace(0.2, 2.9, 16), 8_000, _random_channel(13, n_max=15), 8.0),
        ],
        ids=["across-chunk-edges", "folded-above-n-max", "256-pairs"],
    )
    def test_calibration_chunks_match_choice_oracle(
        self, phases, pulses, model, nbar, monkeypatch, pin_workers
    ):
        """Chunked, folded draws: a pulse count that is no multiple of the chunk,
        true counts above ``n_max``, and pair indices up to 255."""
        ideal = InterferometerModel(nbar=nbar)
        _assert_calibration_matches_oracle(
            monkeypatch, pin_workers, phases, pulses, model, ideal, seed=3
        )


def _assert_calibration_matches_oracle(monkeypatch, pin_workers, phases, pulses, model, ideal,
                                       seed):
    """``simulate_calibration`` against ``sample_counts`` then ``choice_port`` per spawned stream.

    The streams are recorded through the per-phase helper, so the phases
    run in this process, and matched to the oracle's by spawn key.
    """
    pin_workers(1)
    streams = []
    phase = detector._calibration_phase

    def recording(phi, stream, **kwargs):
        streams.append(stream)
        return phase(phi, stream, **kwargs)

    monkeypatch.setattr(detector, "_calibration_phase", recording)
    calib = simulate_calibration(phases, pulses, model, ideal, np.random.default_rng(seed))
    oracle_streams = np.random.default_rng(seed).spawn(len(phases))
    want = np.zeros_like(calib.counts)
    for j, (phi, stream) in enumerate(zip(phases, oracle_streams)):
        n_c, n_d = ideal.sample_counts(phi, pulses, stream)
        m_c = choice_port(n_c, model.forward_c, model.n_max, stream)
        m_d = choice_port(n_d, model.forward_d, model.n_max, stream)
        np.add.at(want[j], (m_c, m_d), 1)
    np.testing.assert_array_equal(calib.counts, want)
    by_key = {s.bit_generator.seed_seq.spawn_key: s for s in streams}
    assert len(streams) == len(by_key) == len(oracle_streams)
    for oracle in oracle_streams:
        got = by_key[oracle.bit_generator.seed_seq.spawn_key]
        assert got.bit_generator.state == oracle.bit_generator.state


class TestNoisyLikelihood:
    def test_identity_channel_matches_ideal(self, ideal_model):
        model = ConfusionModel.identity()
        for phi in (0.1, 1.2, 3.0):
            for nc in range(4):
                for nd in range(4):
                    noisy = noisy_joint_pmf(model, ideal_model)(phi)[nc, nd]
                    log_ideal = ideal_model.log_likelihood_grid(np.array([phi]), Outcome(nc, nd))
                    assert noisy == pytest.approx(math.exp(log_ideal[0]), rel=1e-12)

    def test_dead_detector_all_mass_at_origin(self, dead_detector, ideal_model):
        for phi in (0.2, 1.5):
            assert noisy_joint_pmf(dead_detector, ideal_model)(phi)[0, 0] == pytest.approx(
                1.0, rel=1e-9
            )

    def test_matches_brute_force_double_sum(self, off_by_one, ideal_model):
        phi = math.pi / 2
        pmf = ideal_model.joint_pmf(phi)
        for meas in [Outcome(0, 0), Outcome(2, 1), Outcome(4, 4)]:
            brute = 0.0
            for tc in range(ideal_model.n_max + 1):
                for td in range(ideal_model.n_max + 1):
                    brute += (
                        off_by_one.forward_c[meas.n_c, min(tc, 4)]
                        * off_by_one.forward_d[meas.n_d, min(td, 4)]
                        * pmf[tc, td]
                    )
            assert noisy_joint_pmf(off_by_one, ideal_model)(phi)[
                meas.n_c, meas.n_d
            ] == pytest.approx(brute, rel=1e-9)

    def test_pmf_sums_to_one(self, regime, ideal_model):
        pmf = noisy_joint_pmf(regime, ideal_model)
        for phi in (0.05, 1.0, 3.1):
            assert pmf(phi).sum() == pytest.approx(1.0, abs=1e-9)

    def test_out_of_range_measurement_rejected(self, regime, ideal_model):
        # measured counts enter the noisy likelihood through the statistics
        # of the scan's block, reduced from its pair histograms
        plan = ExperimentPlan(p=1, noise=regime, channel=regime)
        with pytest.raises(ValueError):
            _Block(plan, np.array([[5]]), np.array([[0]])).statistics


class TestCalibration:
    def test_zero_pulses_rejected(self, regime, ideal_model):
        with pytest.raises(CalibrationError):
            simulate_calibration([1.0], 0, regime, ideal_model, np.random.default_rng(0))

    def test_out_of_range_phases_rejected(self, regime, ideal_model):
        with pytest.raises(CalibrationError):
            simulate_calibration(
                [-0.1], 100, regime, ideal_model, np.random.default_rng(0)
            )
        with pytest.raises(CalibrationError):
            simulate_calibration(
                [0.5, np.nan], 100, regime, ideal_model, np.random.default_rng(0)
            )

    def test_histogram_totals(self, regime, ideal_model):
        calib = simulate_calibration(
            FIVE_PHASES, 500, regime, ideal_model, np.random.default_rng(5)
        )
        assert calib.counts.shape == (5, 5, 5)
        np.testing.assert_array_equal(calib.counts.sum(axis=(1, 2)), [500] * 5)

    @pytest.mark.parametrize("phases", [[0.5], [0.3, 1.0, 2.0], [0.5] * 5])
    def test_unresolvable_phases_rejected_before_sampling(self, regime, ideal_model, phases):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(CalibrationError, match="too few distinct calibration phases"):
            simulate_calibration(phases, 100, regime, ideal_model, rng)
        assert rng.bit_generator.state == state

    def test_noiseless_empirical_curve_matches_closed_form(self, ideal_model, grid):
        phases = np.pi * np.linspace(0.02, 0.98, 33)
        calib = simulate_calibration(
            phases, 200_000, ConfusionModel.identity(), ideal_model,
            np.random.default_rng(6),
        )
        # flat prior, equal pulse budgets: the pair's frequencies normalized as a density
        y = calib.counts[:, 0, 1].astype(float)
        emp = y / np.trapezoid(y, phases)
        post = single_shot_posterior(Outcome(0, 1), PhaseGrid(512))
        exact = np.interp(phases, post.grid.nodes, post.density)
        # both curves normalized over the truncated calibration range
        exact /= np.trapezoid(exact, phases)
        # binomial scatter at 200k pulses/phase is ~1% of the peak
        assert np.max(np.abs(emp - exact)) < 0.03 * exact.max()

    def test_csv_export(self, regime, ideal_model):
        calib = simulate_calibration(
            FIVE_PHASES, 200, regime, ideal_model, np.random.default_rng(7)
        )
        rows = calib.to_csv().strip().splitlines()
        assert rows[0] == "phi,nc,nd,count"
        assert len(rows) == 1 + 5 * 25

    @pytest.mark.parametrize("workers", [1, 3])
    def test_counts_do_not_depend_on_worker_count(
        self, regime, ideal_model, on_workers, workers
    ):
        phases = np.pi * np.linspace(0.02, 0.98, 9)
        want = simulate_calibration(phases, 3000, regime, ideal_model, np.random.default_rng(4))
        with on_workers(workers):
            got = simulate_calibration(phases, 3000, regime, ideal_model, np.random.default_rng(4))
        np.testing.assert_array_equal(got.counts, want.counts)

    def test_peak_memory_per_pulse(self, ideal_model, pin_workers):
        """The tracemalloc peak of a phase of 400k pulses, run in this process, stays below
        24 B per pulse.

        Measured at 8.6 B with one phase in flight; a phase that holds its
        int64 counts, int64 misreads and pulse-sized channel temporaries
        peaks at about 55 B per pulse on its own.
        """
        K = np.array([[0.9, 0.2], [0.1, 0.8]])
        model = ConfusionModel(forward_c=K, forward_d=K, n_max=1)
        pulses = 400_000
        pin_workers(1)
        tracemalloc.start()
        try:
            simulate_calibration([0.8, 2.0], pulses, model, ideal_model, np.random.default_rng(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / pulses < 24

    def test_calibration_asks_for_its_phases_and_pulses(self, regime, ideal_model, monkeypatch):
        """Calibration takes the scan's worker rule: 33 phases x 200k pulses get 25
        workers of 64 CPUs."""
        monkeypatch.setattr(_pool, "_cpus", lambda: 64)
        asked, rule = [], _pool.workers
        # the phases then run in this process, and draw nothing
        monkeypatch.setattr(_pool, "workers", lambda *args: asked.append(args) or 1)
        monkeypatch.setattr(detector, "_calibration_phase",
                            lambda phi, stream, **kwargs: np.zeros((5, 5), dtype=np.int64))
        phases = np.pi * np.linspace(0.02, 0.98, 33)
        simulate_calibration(phases, 200_000, regime, ideal_model, np.random.default_rng(3))
        assert asked == [(33, 33 * 200_000)]
        assert rule(*asked[0]) == 25

    def test_failing_phase_stops_the_phases_not_started(
        self, regime, ideal_model, monkeypatch, on_workers, tmp_path
    ):
        # each call leaves a file, which a worker process can; phase 1 stays
        # in flight until phase 0 has raised and its worker has seen it
        phases = np.pi * np.linspace(0.02, 0.98, 33)
        raised = multiprocessing.get_context("fork").Event()

        def failing(phi, stream, **kwargs):
            (tmp_path / str(np.flatnonzero(phases == phi)[0])).touch()
            if phi == phases[0]:
                raised.set()
                raise RuntimeError("phase 0 failed")
            raised.wait(timeout=5.0)
            time.sleep(0.05)
            return np.zeros((5, 5), dtype=np.int64)

        monkeypatch.setattr(detector, "_calibration_phase", failing)
        with pytest.raises(RuntimeError, match="phase 0 failed"):
            with on_workers(2):
                simulate_calibration(phases, 100, regime, ideal_model, np.random.default_rng(0))
        calls = sorted(int(path.name) for path in tmp_path.iterdir())
        assert 0 in calls and len(calls) <= 2


class TestRetrodictiveWeights:
    def test_identity_weights(self):
        w = RetrodictiveWeights.identity()
        for nc in range(5):
            for nd in range(5):
                assert w.diagonal(nc, nd) == 1.0

    def test_distributions_sum_to_one_enforced(self):
        table = np.zeros((5, 5, 5, 5))
        with pytest.raises(ValueError):
            RetrodictiveWeights(table=table)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        table = RetrodictiveWeights.identity().table.copy()
        table[0, 0, 0, 0] = bad
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            RetrodictiveWeights(table=table)

    def test_json_roundtrip(self, fitted_weights):
        back = RetrodictiveWeights.from_json(fitted_weights.to_json())
        np.testing.assert_allclose(back.table, fitted_weights.table, atol=1e-12)
        assert back.nbar == fitted_weights.nbar == 1.08
        assert np.array_equal(back.channel.forward_c, fitted_weights.channel.forward_c)
        assert np.array_equal(back.channel.forward_d, fitted_weights.channel.forward_d)

    @given(
        seed=st.integers(0, 2**64 - 1),
        n_max=st.integers(0, 5),
        nbar=st.none() | st.floats(0.01, 10.0),
        sparse=st.floats(0.0, 0.95),
    )
    @settings(max_examples=100, deadline=None)
    def test_json_round_trip_keeps_any_table(self, seed, n_max, nbar, sparse):
        gen = np.random.default_rng(seed)
        bins = n_max + 1
        table = gen.random((bins, bins, bins * bins))
        table[gen.random(table.shape) < sparse] = 0.0
        table[..., 0] += table.sum(axis=-1) == 0.0  # every measured pair keeps some mass
        table /= table.sum(axis=-1, keepdims=True)
        weights = RetrodictiveWeights(table=table.reshape((bins,) * 4), n_max=n_max, nbar=nbar)
        back = RetrodictiveWeights.from_json(weights.to_json())
        assert back.table.tobytes() == weights.table.tobytes()
        assert (back.n_max, back.nbar, back.channel) == (n_max, nbar, None)

    def test_records_the_channel_it_inverts(self, regime, ideal_model):
        assert exact_retrodictive_weights(regime, ideal_model).channel is regime
        assert RetrodictiveWeights.identity(3).channel.is_identity()
        with pytest.raises(ValueError, match="n_max"):
            RetrodictiveWeights(
                table=RetrodictiveWeights.identity().table, channel=ConfusionModel.identity(3)
            )

    def test_worst_diagonal_takes_first_minimum_on_ties(self):
        table = RetrodictiveWeights.identity().table.copy()
        for nc, nd in [(3, 0), (1, 2)]:
            table[nc, nd, nc, nd] = table[nc, nd, 0, 4] = 0.5
        assert RetrodictiveWeights(table=table).worst_diagonal() == (0.5, (1, 2))

    def test_exact_weights_identity_channel(self, ideal_model):
        w = exact_retrodictive_weights(ConfusionModel.identity(), ideal_model)
        for nc in range(4):
            for nd in range(4):
                assert w.diagonal(nc, nd) == pytest.approx(1.0, abs=1e-12)

    def test_paper_regime_worst_diagonal(self, regime, ideal_model):
        w = exact_retrodictive_weights(regime, ideal_model)
        worst, pair = w.worst_diagonal()
        assert pair == (0, 0)
        assert worst == pytest.approx(0.548, abs=0.005)


class TestFit:
    def test_noiseless_calibration_recovers_identity(self, ideal_model):
        phases = np.pi * np.linspace(0.02, 0.98, 33)
        calib = simulate_calibration(
            phases, 200_000, ConfusionModel.identity(), ideal_model,
            np.random.default_rng(8),
        )
        w = fit_retrodictive_weights(calib, ideal_model)
        # counts 0..2 dominate the data at nbar = 1.08 and recover tightly;
        # the folded-Poisson responses of counts 3 and 4 are nearly
        # collinear, so their diagonals carry a little more fit noise
        for nc in range(3):
            for nd in range(3):
                assert w.diagonal(nc, nd) >= 0.99
        for nc in range(4):
            for nd in range(4):
                assert w.diagonal(nc, nd) >= 0.95

    def test_round_trip_recovery(self, noisy_calibration, fitted_weights, regime,
                                 ideal_model):
        exact = exact_retrodictive_weights(regime, ideal_model)
        pmf = noisy_joint_pmf(regime, ideal_model)
        phis = np.linspace(0.0, math.pi, 501)
        occurrence = np.mean([pmf(p) for p in phis], axis=0)
        err = np.abs(fitted_weights.table - exact.table)
        # measured pairs actually seen in calibration recover tightly; pairs
        # with vanishing occurrence (~1e-6) carry Monte Carlo noise
        observable = occurrence >= 1e-3
        assert err[observable].max() < 0.02
        assert err.max() < 0.05

    def test_fitted_channel_close_to_truth(self, noisy_calibration, regime,
                                           ideal_model):
        fitted, _ = fit_confusion_model(noisy_calibration, ideal_model)
        assert np.abs(fitted.forward_c - regime.forward_c).max() < 0.05
        assert np.abs(fitted.forward_d - regime.forward_d).max() < 0.05

    def test_too_few_phases_rejected(self, regime, ideal_model):
        # simulate_calibration refuses these phases, so keep three of five
        calib = simulate_calibration(
            FIVE_PHASES, 1000, regime, ideal_model, np.random.default_rng(9)
        )
        calib = replace(calib, phases=calib.phases[:3], counts=calib.counts[:3])
        with pytest.raises(FitError):
            fit_retrodictive_weights(calib, ideal_model)

    def test_unsupported_pair_falls_back_to_uniform(self, ideal_model):
        # a channel that never reports count 4 leaves pair (4,4) with zero
        # support; the inversion assigns uniform weights there
        K = np.eye(5)
        K[4, 4] = 0.0
        K[3, 4] = 1.0
        model = ConfusionModel(forward_c=K, forward_d=K)
        with pytest.warns(UserWarning, match="uniform retrodictive weights") as caught:
            w = exact_retrodictive_weights(model, ideal_model)
        unsupported = [(nc, nd) for nc in range(5) for nd in range(5) if 4 in (nc, nd)]
        assert len(caught) == len(unsupported) == 9
        for record, (nc, nd) in zip(caught, unsupported):
            assert f"measured pair ({nc},{nd})" in str(record.message)
            np.testing.assert_allclose(w.table[nc, nd], 1.0 / 25.0, atol=1e-12)


def _port_data(calib, ideal):
    """Stacked per-port observed histograms and folded true-count distributions."""
    true_c, true_d = measured_port_distributions(
        calib.phases, ConfusionModel.identity(calib.n_max), ideal
    )
    observed = np.stack([calib.counts.sum(axis=2), calib.counts.sum(axis=1)])
    return observed.astype(float), np.stack([true_c.T, true_d.T])


def _gap(K, observed, true_dists):
    """The Frank-Wolfe gap of K: how far at most its log likelihood is below the maximum."""
    G = (observed / (true_dists @ K.T)).T @ true_dists
    return float((G.max(axis=0) - (K * G).sum(axis=0)).sum())


class TestEmStep:
    @given(
        seed=st.integers(0, 2**64 - 1),
        bins=st.integers(1, 6),
        phases=st.integers(1, 40),
        silent_row=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matrix_step_matches_einsum_step(self, seed, bins, phases, silent_row):
        # the EM oracle's matrix step against its per-phase responsibilities
        gen = np.random.default_rng(seed)
        live = np.ones(bins, dtype=bool)
        if silent_row and bins > 1:
            # an underflowed row: p_m is 0 for that reported count at every phase
            live[gen.integers(bins)] = False
        K = gen.random((bins, bins)) ** 4 * live[:, None]
        K[gen.random(K.shape) < 0.3] = 0.0
        K[np.ix_(live, K.sum(axis=0) == 0.0)] = 1.0
        K /= K.sum(axis=0)
        true_dists = gen.random((phases, bins))
        true_dists[gen.random(true_dists.shape) < 0.2] = 0.0
        true_dists /= np.maximum(true_dists.sum(axis=1, keepdims=True), 1e-300)
        observed = np.floor(gen.random((phases, bins)) * 1000.0)
        assert live.all() or np.any(true_dists @ K.T == 0.0)
        try:
            want = einsum_em_step(K, observed, true_dists)
        except FitError:
            with pytest.raises(FitError):
                em_step(K, observed, true_dists)
            return
        np.testing.assert_allclose(em_step(K, observed, true_dists), want, rtol=0, atol=1e-14)

    def test_unpopulated_true_count_is_a_fit_error(self, noisy_calibration, ideal_model):
        observed, true_dists = _port_data(noisy_calibration, ideal_model)
        true_dists[1, :, 3] = 0.0
        with pytest.raises(FitError, match="unpopulated true count"):
            _fit_port(observed[1], true_dists[1])


class TestChannelFit:
    def test_matches_converged_em(self, ideal_model):
        # at n_max 2 and 20k pulses per phase, plain EM converges within 20k steps
        calib = simulate_calibration(
            np.pi * np.linspace(0.02, 0.98, 33), 20_000, ConfusionModel.paper_regime(2),
            ideal_model, np.random.default_rng([7, 0xCA11]),
        )
        fitted, fit = fit_confusion_model(calib, ideal_model)
        for K, obs, true in zip((fitted.forward_c, fitted.forward_d), *_port_data(calib, ideal_model)):
            em = em_fit(obs, true, 20_000)
            assert _gap(em, obs, true) < 1e-6
            np.testing.assert_allclose(K, em, rtol=0, atol=1e-6)
        assert [port["converged"] for port in fit.values()] == [True, True]

    def test_certified_on_the_shipped_calibration(self, noisy_calibration, ideal_model):
        # 5000 plain EM steps leave both ports more than 0.1 nats short of the maximum
        observed, true_dists = _port_data(noisy_calibration, ideal_model)
        tol = detector._GAP_PER_PULSE * noisy_calibration.counts.sum()
        assert tol == pytest.approx(6.6e-6)
        for obs, true in zip(observed, true_dists):
            K, fit = _fit_port(obs, true)
            assert fit["converged"] and fit["gap_nats"] <= tol
            assert _gap(K, obs, true) == pytest.approx(fit["gap_nats"], abs=1e-9)
            assert fit["log_likelihood"] == pytest.approx(log_likelihood(K, obs, true), abs=1e-6)
            assert fit["log_likelihood"] - log_likelihood(em_fit(obs, true, 5000), obs, true) > 0.1

    @given(
        seed=st.integers(0, 2**64 - 1),
        bins=st.integers(1, 6),
        phases=st.integers(1, 12),
        silent=st.integers(0, 2),
    )
    @settings(max_examples=100, deadline=None)
    def test_converges_or_raises_fit_error(self, seed, bins, phases, silent):
        # phases too few to resolve the counts, zero true-count probabilities
        # and reported counts never seen included
        gen = np.random.default_rng(seed)
        true_dists = gen.random((phases, bins))
        true_dists[gen.random(true_dists.shape) < 0.3] = 0.0
        true_dists[np.arange(phases), gen.integers(bins, size=phases)] += 0.1
        true_dists /= true_dists.sum(axis=1, keepdims=True)
        observed = np.floor(gen.random((phases, bins)) * 1000.0)
        observed[:, gen.choice(bins, size=min(silent, bins - 1), replace=False)] = 0.0
        try:
            K, fit = _fit_port(observed, true_dists)
        except FitError:
            return
        unseen = observed.sum(axis=0) == 0.0
        assert np.all(K[unseen] == 0.0) and np.all(K >= 0.0)
        np.testing.assert_allclose(K.sum(axis=0), 1.0, rtol=0, atol=detector._COLUMN_TOL)
        assert fit["converged"] and fit["gap_nats"] <= detector._GAP_PER_PULSE * observed.sum()

    def test_capped_fit_raises(self, noisy_calibration, ideal_model, monkeypatch):
        observed, true_dists = _port_data(noisy_calibration, ideal_model)
        monkeypatch.setattr(detector, "_NEWTON_STEPS", 5)
        with pytest.raises(FitError, match="not converged: gap .* after 5 Newton steps"):
            _fit_port(observed[0], true_dists[0])

    def test_weights_record_the_fit(self, fitted_weights):
        doc = json.loads(fitted_weights.to_json())
        assert doc["fit"] == fitted_weights.fit
        assert set(doc["fit"]) == {"c", "d"}
        for port in doc["fit"].values():
            assert set(port) == {"newton_steps", "gap_nats", "log_likelihood", "converged"}
            assert port["converged"] is True
        # reading the file back takes the weights and channel, not the diagnostics
        back = RetrodictiveWeights.from_json(fitted_weights.to_json())
        assert back.fit is None
        np.testing.assert_array_equal(back.table, fitted_weights.table)


def _scalar_retrodictive_table(model, ideal, n_quad=2001):
    """The per-(tc, td) trapezoid and per-pair inversion loop, as an oracle."""
    n_max = model.n_max
    phis = np.linspace(0.0, np.pi, n_quad)
    mu_c = ideal.nbar * np.cos(phis / 2.0) ** 2
    mu_d = ideal.nbar * np.sin(phis / 2.0) ** 2
    q = np.zeros((n_max + 1, n_max + 1))
    for tc in range(ideal.n_max + 1):
        for td in range(ideal.n_max + 1):
            p = poisson.pmf(tc, mu_c) * poisson.pmf(td, mu_d)
            q[min(tc, n_max), min(td, n_max)] += np.trapezoid(p / np.pi, phis)
    table = np.empty((n_max + 1,) * 4)
    for nc in range(n_max + 1):
        for nd in range(n_max + 1):
            joint = np.outer(model.forward_c[nc], model.forward_d[nd]) * q
            table[nc, nd] = joint / joint.sum()
    return table


@pytest.mark.parametrize(
    "model",
    [ConfusionModel.paper_regime(), _random_channel(11)],
    ids=["paper-regime", "random-channel"],
)
def test_array_inversion_matches_scalar_oracle(model, ideal_model):
    w = exact_retrodictive_weights(model, ideal_model)
    np.testing.assert_allclose(
        w.table, _scalar_retrodictive_table(model, ideal_model), rtol=1e-12
    )
    assert w.nbar == ideal_model.nbar


class TestPosteriorFit:
    def test_identity_weights_match_single_shot(self, grid):
        w = RetrodictiveWeights.identity()
        for outcome in [Outcome(0, 2), Outcome(3, 1)]:
            mix = posterior_fit(outcome, w, grid)
            ideal = single_shot_posterior(outcome, grid)
            np.testing.assert_allclose(mix.density, ideal.density, rtol=1e-9)

    def test_symmetric_mixture_mean_is_center(self, grid):
        table = np.zeros((5, 5, 5, 5))
        table[:, :, 1, 0] = 0.5
        table[:, :, 0, 1] = 0.5
        w = RetrodictiveWeights(table=table)
        post = posterior_fit(Outcome(0, 0), w, grid)
        assert posterior_mean(post) == pytest.approx(math.pi / 2, abs=1e-9)

    def test_noisy_posterior_is_broader_than_ideal(self, fitted_weights, grid):
        # mixing in neighboring true pairs spreads these densities (the
        # direction is channel-dependent; symmetric pairs can narrow)
        for outcome in [Outcome(0, 1), Outcome(0, 2)]:
            noisy = posterior_fit(outcome, fitted_weights, grid)
            ideal = single_shot_posterior(outcome, grid)
            assert _variance(noisy) > _variance(ideal)

    def test_noisy_vacuum_posterior_is_not_flat(self, fitted_weights, grid):
        # the ideal (0,0) posterior is the flat prior; the retrodictive
        # mixture adds photon-bearing components, so structure appears
        noisy = posterior_fit(Outcome(0, 0), fitted_weights, grid)
        assert np.all(noisy.density >= 0.0)
        assert np.trapezoid(noisy.density, grid.nodes) == pytest.approx(1.0, abs=1e-9)
        assert noisy.density.max() - noisy.density.min() > 0.01

    def test_mixture_positivity(self, fitted_weights, grid):
        for nc in range(5):
            for nd in range(5):
                post = posterior_fit(Outcome(nc, nd), fitted_weights, grid)
                assert np.all(post.density >= 0.0)
