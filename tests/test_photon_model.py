"""Ideal interferometer statistics: means, likelihood, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammaln

from mzbayes.photon_model import (
    InterferometerModel,
    Outcome,
    PhaseDomainError,
    _log_factorial,
    _log_factorials,
)

NBAR = 1.08


@pytest.fixture(scope="module")
def model():
    return InterferometerModel(nbar=NBAR)


class TestOutputMeans:
    def test_zero_phase_all_light_in_port_c(self, model):
        mu_c, mu_d = model.output_means(0.0)
        assert mu_c == pytest.approx(NBAR)
        assert mu_d == pytest.approx(0.0, abs=1e-15)

    def test_balanced_point(self, model):
        mu_c, mu_d = model.output_means(math.pi / 2)
        assert mu_c == pytest.approx(0.54)
        assert mu_d == pytest.approx(0.54)

    def test_reference_phase(self, model):
        # direct evaluation of nbar*cos^2(phi/2) at phi = 0.24*pi
        mu_c, mu_d = model.output_means(0.24 * math.pi)
        assert mu_c == pytest.approx(NBAR * math.cos(0.12 * math.pi) ** 2, rel=1e-12)
        assert mu_c == pytest.approx(0.93365, abs=5e-5)
        assert mu_d == pytest.approx(0.14635, abs=5e-5)

    @given(phi=st.floats(min_value=0.0, max_value=math.pi))
    def test_flux_conservation(self, phi):
        model = InterferometerModel(nbar=NBAR)
        mu_c, mu_d = model.output_means(phi)
        assert mu_c >= 0.0 and mu_d >= 0.0
        assert mu_c + mu_d == pytest.approx(NBAR, rel=1e-14)

    def test_phase_domain_error(self, model):
        with pytest.raises(PhaseDomainError):
            model.output_means(-0.1)
        with pytest.raises(PhaseDomainError):
            model.output_means(math.pi + 0.1)

    # a float phase takes the scalar check, an array the elementwise one
    @pytest.mark.parametrize("form", [float, np.float64, np.atleast_1d])
    @pytest.mark.parametrize("phi", [-0.1, math.pi + 0.1, math.nan])
    def test_phase_domain_error_in_every_form(self, model, form, phi):
        with pytest.raises(PhaseDomainError):
            model.output_means(form(phi))

    def test_bad_nbar_rejected(self):
        with pytest.raises(ValueError):
            InterferometerModel(nbar=0.0)
        with pytest.raises(ValueError):
            InterferometerModel(nbar=-1.0)
        for nbar in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                InterferometerModel(nbar=nbar)
        # finite, but above the largest Poisson mean numpy can sample (~9.2e18)
        for nbar in (1e300, 1e19):
            with pytest.raises(ValueError, match="nbar"):
                InterferometerModel(nbar=nbar)


class TestOutcome:
    def test_total(self):
        assert Outcome(2, 3).total == 5

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            Outcome(-1, 0)
        with pytest.raises(ValueError):
            Outcome(0, -2)


class TestLogFactorial:
    def test_equals_gammaln_to_the_bit(self):
        # every branch of Cephes lgam: x < 13, x < 1000, x <= 1e8 and above
        counts = [*range(5001), 10**5, 10**7, 10**8 - 1, 10**8, 10**9, 10**12, 2**53]
        differ = [k for k in counts if _log_factorial(k) != gammaln(k + 1)]
        assert differ == []

    def test_table_is_the_scalar(self):
        table = _log_factorials(40)
        assert table.tolist() == [_log_factorial(k) for k in range(41)]
        assert not table.flags.writeable

    def test_integral_values_of_any_type(self):
        assert _log_factorial(np.int64(30)) == _log_factorial(30) == _log_factorial(30.0)

    @pytest.mark.parametrize("k", [-1, -0.5, 2.5, math.nan, math.inf, np.int64(-3)])
    def test_non_counts_rejected(self, k):
        with pytest.raises(ValueError, match="count"):
            _log_factorial(k)


class TestLikelihood:
    def test_impossible_outcome_at_zero_phase(self, model):
        # mu_d = 0 at phi = 0, so any N_d >= 1 has probability zero
        for k in (1, 2, 5):
            assert model.likelihood(0.0, Outcome(0, k)) == 0.0

    def test_vacuum_outcome_at_balanced_point(self, model):
        assert model.likelihood(math.pi / 2, Outcome(0, 0)) == pytest.approx(
            math.exp(-NBAR), rel=1e-12
        )

    def test_one_one_closed_form(self, model):
        # (nbar/2)^2 * exp(-nbar) for outcome (1,1) at the balanced point
        expected = (NBAR / 2) ** 2 * math.exp(-NBAR)
        assert model.likelihood(math.pi / 2, Outcome(1, 1)) == pytest.approx(
            expected, rel=1e-12
        )

    def test_matches_scipy_poisson_product(self, model):
        phi = 0.3 * math.pi
        mu_c, mu_d = model.output_means(phi)
        for nc, nd in [(0, 0), (2, 1), (4, 3)]:
            expected = stats.poisson.pmf(nc, mu_c) * stats.poisson.pmf(nd, mu_d)
            assert model.likelihood(phi, Outcome(nc, nd)) == pytest.approx(
                expected, rel=1e-12
            )

    @pytest.mark.parametrize("phi_pi", [0.0, 0.1, 0.5, 0.9, 1.0])
    def test_truncated_pmf_nearly_sums_to_one(self, phi_pi):
        for nbar in (0.5, 1.08, 2.0):
            model = InterferometerModel(nbar=nbar, n_max=25)
            total = model.joint_pmf(phi_pi * math.pi).sum()
            assert total >= 1.0 - 1e-9

    def test_port_pmfs_match_scipy_poisson(self, model):
        """Both port pmfs against scipy's, on phases that include 0 and pi.

        At phi = 0 port d has mu = 0: pmf 1 at k = 0 and exactly 0 beyond.
        The two sum the log pmf in different orders, and exp turns a
        last-bit difference in a log near -64 into 2.9e-14 relative, so
        the 1e-14 bound holds down to pmf 1e-25 and 5e-14 below it.
        """
        phis = np.linspace(0.0, math.pi, 41)
        k = np.arange(model.n_max + 1)[:, None]
        mu_c, mu_d = model.output_means(phis)
        for pmf, mu in zip(model.port_pmfs(phis), (mu_c, mu_d)):
            ref = stats.poisson.pmf(k, mu)
            bulk = ref >= 1e-25
            np.testing.assert_allclose(pmf[bulk], ref[bulk], rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(pmf, ref, rtol=5e-14, atol=0.0)
        assert mu_d[0] == 0.0
        np.testing.assert_array_equal(model.port_pmfs(phis)[1][:, 0], k[:, 0] == 0)

    def test_port_pmfs_of_a_phase_are_its_column(self, model):
        phis = np.linspace(0.0, math.pi, 7)
        p_c, p_d = model.port_pmfs(phis)
        for j, phi in enumerate(phis):
            c, d = model.port_pmfs(phi)
            np.testing.assert_array_equal(c, p_c[:, j])
            np.testing.assert_array_equal(d, p_d[:, j])
            np.testing.assert_array_equal(model.joint_pmf(phi), np.outer(c, d))

    def test_log_likelihood_grid_consistent(self, model):
        phis = np.linspace(0.0, math.pi, 101)
        outcome = Outcome(2, 1)
        logs = model.log_likelihood_grid(phis, outcome)
        direct = np.array([model.likelihood(p, outcome) for p in phis])
        with np.errstate(divide="ignore"):
            np.testing.assert_allclose(np.exp(logs), direct, rtol=1e-12, atol=0.0)


class TestSampling:
    def test_zero_phase_never_fires_port_d(self, model):
        rng = np.random.default_rng(1)
        _, n_d = model.sample_counts(0.0, 200, rng)
        assert np.all(n_d == 0)

    def test_pi_phase_never_fires_port_c(self, model):
        rng = np.random.default_rng(2)
        n_c, _ = model.sample_counts(math.pi, 200, rng)
        assert np.all(n_c == 0)

    def test_vacuum_frequency_five_sigma(self, model):
        rng = np.random.default_rng(3)
        n = 10**6
        n_c, n_d = model.sample_counts(math.pi / 2, n, rng)
        hits = int(np.sum((n_c == 0) & (n_d == 0)))
        p0 = math.exp(-NBAR)
        sigma = math.sqrt(n * p0 * (1 - p0))
        assert abs(hits - n * p0) < 5 * sigma

    @pytest.mark.parametrize("phi_pi", [0.1, 0.5, 0.9])
    def test_chi_squared_goodness_of_fit(self, model, phi_pi):
        phi = phi_pi * math.pi
        rng = np.random.default_rng(11)
        n = 10**5
        n_c, n_d = model.sample_counts(phi, n, rng)
        pmf = model.joint_pmf(phi)
        # pool cells with small expectation into one bucket
        observed, expected = [], []
        tail_obs = tail_exp = 0.0
        counts = np.zeros_like(pmf)
        np.add.at(counts, (np.minimum(n_c, 25), np.minimum(n_d, 25)), 1)
        for i in range(pmf.shape[0]):
            for j in range(pmf.shape[1]):
                e = n * pmf[i, j]
                if e >= 5.0:
                    observed.append(counts[i, j])
                    expected.append(e)
                else:
                    tail_obs += counts[i, j]
                    tail_exp += e
        observed.append(tail_obs)
        expected.append(tail_exp)
        expected = np.array(expected) * (np.sum(observed) / np.sum(expected))
        _, pvalue = stats.chisquare(observed, expected)
        assert pvalue > 0.001

    def test_sample_counts_requires_pulses(self, model):
        with pytest.raises(ValueError):
            model.sample_counts(1.0, 0, np.random.default_rng(0))

    @settings(max_examples=25)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_sampling_is_deterministic(self, seed):
        model = InterferometerModel(nbar=NBAR)
        a = model.sample_counts(0.3, 50, np.random.default_rng(seed))
        b = model.sample_counts(0.3, 50, np.random.default_rng(seed))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
