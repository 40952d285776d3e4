"""Marginal Gaussian tests and the joint omnibus chi-square test."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momest import (Covariance2, DomainError, LawSpec, SigmaMethod,
                    SimulationConfig, SingularCovarianceError, marginal_test,
                    normal_quantile, omnibus_test, run_simulation)
from momest import montecarlo
from momest.significance import ALPHA, Q_CRIT, Z_CRIT
from momest.special import chisq_sf

IDENTITY = Covariance2.build(1.0, 1.0, 0.0, SigmaMethod.EXACT_MOMENTS)


def cov(s11, s22, s12):
    return Covariance2.build(s11, s22, s12, SigmaMethod.EXACT_MOMENTS)


class TestMarginal:
    def test_null_value(self):
        rep = marginal_test(2.0, 2.0, var_entry=5.0, n=100)
        assert rep.statistic == 0.0
        assert rep.p_value == 1.0
        assert not rep.reject_at_5pct
        assert rep.df == 0

    def test_statistic_formula(self):
        rep = marginal_test(2.5, 2.0, var_entry=4.0, n=400)
        # sqrt(400/4) * 0.5 = 5
        assert rep.statistic == pytest.approx(5.0, rel=1e-14)
        assert rep.reject_at_5pct

    def test_boundary_not_rejected(self):
        # statistic lands exactly on the 0.975 quantile: p = 0.05, strict
        # inequality keeps the null
        z_crit = normal_quantile(0.975)
        rep = marginal_test(z_crit / 2.0, 0.0, var_entry=1.0, n=4)
        assert rep.statistic == pytest.approx(z_crit, rel=1e-15)
        assert rep.p_value == pytest.approx(0.05, abs=1e-12)
        assert not rep.reject_at_5pct

    def test_just_above_1p96_rejects(self):
        rep = marginal_test(0.98, 0.0, var_entry=1.0, n=4)  # z = 1.96
        assert rep.reject_at_5pct  # 1.96 exceeds the exact quantile

    def test_two_sided_symmetry(self):
        lo = marginal_test(-0.3, 0.0, 1.0, 100)
        hi = marginal_test(0.3, 0.0, 1.0, 100)
        assert lo.p_value == pytest.approx(hi.p_value, rel=1e-14)

    def test_degenerate_variance(self):
        with pytest.raises(DomainError):
            marginal_test(1.0, 0.0, var_entry=0.0, n=10)

    @pytest.mark.parametrize("var_entry", [math.inf, -math.inf, math.nan])
    def test_non_finite_variance_refused(self, var_entry):
        """An infinite variance gives z = 0, a silent accept, unless
        refused."""
        with pytest.raises(DomainError, match="positive finite variance"):
            marginal_test(2.5, 2.0, var_entry, 100)

    @pytest.mark.parametrize("theta_hat, theta0, name", [
        (math.nan, 2.0, "theta_hat"), (math.inf, 2.0, "theta_hat"),
        (2.5, -math.inf, "theta0")])
    def test_non_finite_estimate_refused(self, theta_hat, theta0, name):
        """A NaN estimate gives z = p = nan, a silent accept, unless
        refused."""
        with pytest.raises(DomainError, match=(
                f"^marginal test requires a finite {name}, got ")):
            marginal_test(theta_hat, theta0, 1.0, 100)

    def test_calibration_under_null(self):
        # seeded replications from the true law, exact variance entry 12
        law = LawSpec.gamma(2.0, 3.0)
        cfg = SimulationConfig(law=law, n=10_000, replications=2000,
                               master_seed=13579,
                               sigma_methods=(SigmaMethod.EXACT_MOMENTS,))
        report = run_simulation(cfg)
        rate = report.marginal_rates["a:exact-moments"]
        assert 0.035 <= rate <= 0.065


class TestCriticalZ:
    """The harness counts a marginal rejection as |z| >= Z_CRIT; that must
    be the decision of the p-value that ``momest test`` prints."""

    @pytest.fixture(scope="class")
    def ndtr(self):
        return pytest.importorskip("scipy.special").ndtr

    @staticmethod
    def assert_same_decisions(z, ndtr):
        by_p = 2.0 * ndtr(-np.abs(z)) < ALPHA
        assert np.array_equal(np.abs(z) >= Z_CRIT, by_p)

    def test_least_double_below_5pct(self, ndtr):
        below = np.nextafter(Z_CRIT, 0.0)
        assert 2.0 * ndtr(-Z_CRIT) < ALPHA
        assert 2.0 * ndtr(-below) == ALPHA
        assert marginal_test(Z_CRIT / 2.0, 0.0, 1.0, 4).reject_at_5pct
        rep = marginal_test(below / 2.0, 0.0, 1.0, 4)
        assert rep.p_value == ALPHA and not rep.reject_at_5pct

    def test_same_decisions_near_the_edge(self, ndtr):
        steps = np.arange(-2 ** 19, 2 ** 19 + 1)
        z = (np.float64(Z_CRIT).view(np.int64) + steps).view(np.float64)
        self.assert_same_decisions(np.concatenate([z, -z]), ndtr)

    def test_same_decisions_on_random_z(self, ndtr):
        rng = np.random.default_rng(31)
        z = np.concatenate([
            rng.standard_normal(1_000_000) * 3.0,
            rng.uniform(-40.0, 40.0, 500_000),
            [math.inf, -math.inf, math.nan, 0.0, -0.0]])
        self.assert_same_decisions(z, ndtr)


class TestCriticalQ:
    """The omnibus test and the harness reject when Q >= Q_CRIT; that must
    be the decision of the p-value that ``momest test`` prints."""

    @staticmethod
    def assert_same_decisions(q):
        assert np.array_equal(q >= Q_CRIT, chisq_sf(q, 2) < ALPHA)

    def test_least_double_below_5pct(self):
        below = np.nextafter(Q_CRIT, 0.0)
        assert chisq_sf(Q_CRIT, 2) < ALPHA
        assert not chisq_sf(below, 2) < ALPHA

    def test_same_decisions_near_the_edge(self):
        steps = np.arange(-2 ** 19, 2 ** 19 + 1)
        q = (np.float64(Q_CRIT).view(np.int64) + steps).view(np.float64)
        self.assert_same_decisions(q)
        for chunk in np.array_split(q[2 ** 19 - 3000:2 ** 19 + 3000], 2000):
            self.assert_same_decisions(chunk)  # three values each
        for value in q[2 ** 19 - 300:2 ** 19 + 300]:
            self.assert_same_decisions(np.array(value))  # 0-d

    def test_same_decisions_on_random_q(self):
        rng = np.random.default_rng(32)
        q = np.concatenate([
            rng.chisquare(2, 1_000_000),
            rng.uniform(0.0, 1500.0, 500_000),
            [0.0, -0.0, math.inf]])
        self.assert_same_decisions(q)

    def test_omnibus_test_decides_at_the_edge(self):
        """With the identity Σ and b_hat = b0, Q = n a_hat^2 here exactly
        at Q_CRIT (n = 2) and at the double below it (n = 4)."""
        below = float(np.nextafter(Q_CRIT, 0.0))
        at = omnibus_test(math.sqrt(Q_CRIT / 2), 0.0, 0.0, 0.0, 2, IDENTITY)
        assert at.statistic == Q_CRIT and at.reject_at_5pct
        assert at.p_value < ALPHA
        under = omnibus_test(math.sqrt(below / 4), 0.0, 0.0, 0.0, 4,
                             IDENTITY)
        assert under.statistic == below and not under.reject_at_5pct
        assert under.p_value == chisq_sf(below, 2) > ALPHA

    def test_nan_q_refused_by_the_test(self):
        """Finite estimates whose quadratic form overflows give
        Q = inf - inf = nan, which would accept; it is refused by name."""
        with pytest.raises(DomainError, match="^omnibus statistic Q is NaN"):
            omnibus_test(1e200, 1e200, 0.0, 0.0, 100, cov(1.0, 1.0, 0.5))

    def test_nan_q_refused_by_the_harness(self):
        """An overflowed estimate fails the study rather than counting as
        an acceptance."""
        a_hat = np.array([2.1, math.inf, 1.9])
        b_hat = np.array([3.2, 3.0, 2.8])
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
                DomainError, match="^omnibus statistic Q is NaN"):
            montecarlo._rates(LawSpec.gamma(2.0, 3.0), 100, a_hat, b_hat,
                              [cov(12.0, 30.0, 15.0)])


class TestOmnibus:
    def test_null_value(self):
        rep = omnibus_test(2.0, 3.0, 2.0, 3.0, 100, IDENTITY)
        assert rep.statistic == 0.0
        assert rep.p_value == 1.0
        assert rep.df == 2

    def test_identity_sigma_hand_value(self):
        rep = omnibus_test(0.1, 0.1, 0.0, 0.0, 100, IDENTITY)
        assert rep.statistic == pytest.approx(2.0, rel=1e-12)
        assert rep.p_value == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_relabeling_invariance(self):
        sig = cov(3.0, 7.0, 2.5)
        swapped = cov(7.0, 3.0, 2.5)
        q1 = omnibus_test(2.3, 3.8, 2.0, 3.0, 50, sig).statistic
        q2 = omnibus_test(3.8, 2.3, 3.0, 2.0, 50, swapped).statistic
        assert q1 == pytest.approx(q2, rel=1e-12)

    def test_diagonal_recombines_marginals(self):
        sig = cov(4.0, 9.0, 0.0)
        n = 64
        za = marginal_test(2.5, 2.0, 4.0, n).statistic
        zb = marginal_test(3.7, 3.0, 9.0, n).statistic
        q = omnibus_test(2.5, 3.7, 2.0, 3.0, n, sig).statistic
        assert q == pytest.approx(za ** 2 + zb ** 2, rel=1e-12)

    @given(st.floats(-5, 5), st.floats(-5, 5),
           st.floats(0.1, 10), st.floats(0.1, 10), st.floats(-0.99, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_for_positive_definite(self, da, db, s11, s22, rho):
        sig = cov(s11, s22, rho * math.sqrt(s11 * s22))
        rep = omnibus_test(da, db, 0.0, 0.0, 100, sig)
        assert rep.statistic >= 0.0
        assert 0.0 <= rep.p_value <= 1.0
        assert rep.reject_at_5pct == (rep.p_value < 0.05)

    def test_singular_sigma_refused(self):
        sig = cov(1.0, 1.0, 1.0)  # determinant zero
        with pytest.raises(SingularCovarianceError):
            omnibus_test(1.0, 1.0, 0.0, 0.0, 100, sig)

    def test_nan_sigma_refused(self):
        """A NaN determinant is never usable: the joint test raises rather
        than returning Q = nan as a silent accept."""
        nan = float("nan")
        sig = Covariance2(s11=nan, s22=1.0, s12=0.0, det=nan,
                          method=SigmaMethod.PLUGIN)
        with pytest.raises(SingularCovarianceError):
            omnibus_test(2.5, 3.0, 2.0, 3.0, 100, sig)
        with pytest.raises(DomainError):
            Covariance2.build(nan, 1.0, 0.0, SigmaMethod.PLUGIN)

    @pytest.mark.parametrize("name", ["a_hat", "b_hat", "a0", "b0"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_estimate_refused(self, name, bad):
        """Refused naming the test and the value, not by the chi-square
        tail."""
        args = {"a_hat": 2.5, "b_hat": 3.5, "a0": 2.0, "b0": 3.0, name: bad}
        with pytest.raises(DomainError, match=(
                f"^omnibus test requires a finite {name}, got {bad}$")):
            omnibus_test(n=100, sigma=IDENTITY, **args)

    def test_pvalues_uniform_under_null(self):
        # Kolmogorov distance of the omnibus p-values from uniform
        law = LawSpec.gamma(2.0, 3.0)
        cfg = SimulationConfig(law=law, n=1000, replications=2000,
                               master_seed=8642,
                               sigma_methods=(SigmaMethod.EXACT_MOMENTS,))
        report = run_simulation(cfg)
        sig = report.sigma_exact
        q = (sig.s22 * report.dev_a ** 2 + sig.s11 * report.dev_b ** 2
             - 2.0 * sig.s12 * report.dev_a * report.dev_b) / sig.det
        pvalues = np.exp(-0.5 * q)
        sorted_p = np.sort(pvalues)
        grid = np.arange(1, sorted_p.size + 1) / sorted_p.size
        ks = float(np.max(np.abs(sorted_p - grid)))
        assert ks <= 0.05
