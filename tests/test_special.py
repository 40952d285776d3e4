"""Special functions against brute-force oracles, and the trapezoid engine."""

import math
import warnings

import numpy as np
import pytest

from momest import (DEFAULT_QUAD_CONFIG, DomainError, LawSpec,
                    QuadratureConfig, QuadratureError, chisq_cdf,
                    chisq_quantile, chisq_sf, ln_gamma, normal_cdf,
                    normal_quantile, quantile, reg_inc_beta, reg_inc_gamma,
                    trapezoid_integrate)
from momest import special


class TestLnGamma:
    def test_integer_factorials(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_half(self):
        assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi),
                                              rel=1e-14)

    def test_accuracy_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        for x in np.logspace(-3, 3, 40):
            want = float(mp.loggamma(mp.mpf(float(x))))
            assert ln_gamma(float(x)) == pytest.approx(want, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            ln_gamma(0.0)
        with pytest.raises(DomainError):
            ln_gamma(-1.5)


def brute_force_cdf(density, lo, hi, panels=10**6):
    """Independent oracle: one-shot high-resolution trapezoid of a density."""
    xs = np.linspace(lo, hi, panels + 1)
    return float(np.trapezoid(density(xs), xs))


class TestRegIncGamma:
    def test_trivial(self):
        assert reg_inc_gamma(1.0, 0.0) == 0.0
        assert reg_inc_gamma(1.0, math.log(2.0)) == pytest.approx(0.5,
                                                                  abs=1e-14)

    def test_against_quadrature_oracle(self):
        # P(2, x) integrates t e^(-t)
        for x in np.linspace(0.25, 6.0, 12):
            want = brute_force_cdf(lambda t: t * np.exp(-t), 0.0, float(x),
                                   panels=200_000)
            assert reg_inc_gamma(2.0, float(x)) == pytest.approx(want,
                                                                 abs=1e-9)

    def test_dense_oracle_grid(self):
        # 10^6-panel oracle at 20 grid points for a non-integer shape
        a = 2.5
        norm = math.exp(ln_gamma(a))
        grid = np.linspace(0.3, 9.0, 20)
        for x in grid:
            want = brute_force_cdf(
                lambda t: t ** (a - 1.0) * np.exp(-t) / norm, 0.0, float(x))
            assert reg_inc_gamma(a, float(x)) == pytest.approx(want, abs=1e-8)

    def test_monotone_and_clamped(self):
        xs = np.linspace(0.0, 40.0, 200)
        vals = np.asarray(reg_inc_gamma(1.7, xs))
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_inc_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_gamma(1.0, -0.1)


class TestRegIncBeta:
    def test_trivial(self):
        assert reg_inc_beta(1.0, 1.0, 0.3) == pytest.approx(0.3, abs=1e-14)
        assert reg_inc_beta(2.0, 2.0, 0.5) == pytest.approx(0.5, abs=1e-14)
        assert reg_inc_beta(2.0, 3.0, 0.0) == 0.0
        assert reg_inc_beta(2.0, 3.0, 1.0) == 1.0

    def test_against_quadrature_oracle(self):
        # I_0.4(2, 3) integrates the x (1-x)^2 density, 1/B(2,3) = 12
        want = brute_force_cdf(lambda t: 12.0 * t * (1.0 - t) ** 2, 0.0, 0.4)
        assert reg_inc_beta(2.0, 3.0, 0.4) == pytest.approx(want, abs=1e-9)

    def test_dense_oracle_grid(self):
        a, b = 2.5, 1.5
        norm = math.exp(ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b))
        for x in np.linspace(0.04, 0.96, 20):
            want = brute_force_cdf(
                lambda t: t ** (a - 1.0) * (1.0 - t) ** (b - 1.0) / norm,
                0.0, float(x))
            assert reg_inc_beta(a, b, float(x)) == pytest.approx(want,
                                                                 abs=1e-8)

    def test_reflection_identity(self):
        for (a, b) in [(2.0, 3.0), (0.7, 4.2), (5.5, 1.1)]:
            for x in np.linspace(0.05, 0.95, 10):
                lhs = reg_inc_beta(a, b, float(x))
                rhs = 1.0 - reg_inc_beta(b, a, 1.0 - float(x))
                assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_inc_beta(-1.0, 2.0, 0.5)
        with pytest.raises(DomainError):
            reg_inc_beta(2.0, 3.0, 1.2)


class TestNormal:
    def test_center(self):
        assert normal_cdf(0.0) == 0.5

    def test_two_sided_5pct_threshold(self):
        assert normal_quantile(0.975) == pytest.approx(1.959963985, abs=1e-8)

    def test_roundtrip(self):
        for u in np.arange(0.01, 1.0, 0.01):
            assert normal_cdf(normal_quantile(float(u))) == pytest.approx(
                float(u), abs=1e-9)

    def test_quantile_domain(self):
        for u in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                normal_quantile(u)


class TestChiSquare:
    def test_trivial(self):
        assert chisq_cdf(0.0, 2) == 0.0
        assert chisq_cdf(5.991465, 2) == pytest.approx(0.95, abs=1e-7)

    def test_quantile_inverts(self):
        q = chisq_quantile(0.95, 2)
        assert q == pytest.approx(-2.0 * math.log(0.05), abs=1e-8)
        assert q == pytest.approx(5.991465, abs=1e-6)
        assert chisq_cdf(q, 2) == pytest.approx(0.95, abs=1e-12)

    def test_df2_closed_form(self):
        for x in np.linspace(0.0, 50.0, 101):
            want = -math.expm1(-0.5 * float(x))
            assert abs(chisq_cdf(float(x), 2) - want) <= 1e-12
            assert abs(chisq_sf(float(x), 2) - math.exp(-0.5 * float(x))) \
                <= 1e-12

    def test_general_df_matches_reg_inc_gamma(self):
        for x in (0.3, 2.0, 7.7, 21.0):
            assert chisq_cdf(x, 5) == pytest.approx(
                reg_inc_gamma(2.5, 0.5 * x), abs=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            chisq_cdf(-1.0, 2)
        with pytest.raises(DomainError):
            chisq_quantile(1.0, 2)
        with pytest.raises(DomainError):
            chisq_cdf(1.0, 0)


NAN = float("nan")


@pytest.mark.parametrize("call, message", [
    (lambda u: normal_quantile(u),
     "normal_quantile requires u in (0, 1), got {}"),
    (lambda u: chisq_quantile(u, 3),
     "chisq_quantile requires u in [0, 1), got {}"),
    (lambda p: special.reg_inc_gamma_inv(2.0, p),
     "reg_inc_gamma_inv requires p in [0, 1), got {}"),
    (lambda p: special.reg_inc_beta_inv(2.0, 3.0, p),
     "reg_inc_beta_inv requires p in [0, 1], got {}"),
    (lambda u: quantile(LawSpec.gamma(2.0, 3.0), u),
     "quantile requires u strictly inside (0, 1)"),
], ids=["normal_quantile", "chisq_quantile", "reg_inc_gamma_inv",
        "reg_inc_beta_inv", "laws.quantile"])
@pytest.mark.parametrize("prob", [NAN, np.array([0.5, NAN])],
                         ids=["scalar", "array"])
def test_nan_probability_refused(call, message, prob):
    """NaN fails every comparison, so a probability check must test that
    each value lies inside the domain, not that none lies outside."""
    with pytest.raises(DomainError) as info:
        call(prob)
    assert str(info.value) == message.format(prob)


@pytest.mark.parametrize("call, message", [
    (lambda x: reg_inc_gamma(2.0, x),
     "reg_inc_gamma requires x >= 0, got x={}"),
    (lambda x: reg_inc_beta(2.0, 3.0, x),
     "reg_inc_beta requires x in [0, 1], got x={}"),
    (lambda x: chisq_cdf(x, 3), "chisq_cdf requires x >= 0, got {}"),
    (lambda x: chisq_sf(x, 2), "chisq_sf requires x >= 0, got {}"),
], ids=["reg_inc_gamma", "reg_inc_beta", "chisq_cdf", "chisq_sf"])
@pytest.mark.parametrize("x", [NAN, np.array([0.5, NAN])],
                         ids=["scalar", "array"])
def test_nan_point_refused(call, message, x):
    """The x-checks, like the probability checks, test that each point
    lies inside the domain, so that NaN is refused."""
    with pytest.raises(DomainError) as info:
        call(x)
    assert str(info.value) == message.format(x)


class TestTrapezoid:
    def test_constant_exact(self):
        assert trapezoid_integrate(lambda x: np.ones_like(x), 0.0, 1.0) == 1.0

    def test_linear_exact(self):
        got = trapezoid_integrate(lambda x: x, 0.0, 1.0)
        assert got == pytest.approx(0.5, abs=1e-15)

    def test_linearity_on_fixed_grid(self):
        # a fixed grid (tiny tol never converges early, so every integrand
        # sees the same final panel count)
        cfg = QuadratureConfig(panels=64, tol=1e-300, max_doublings=3)
        f = lambda x: np.sin(3.0 * x) + 0.5
        g = lambda x: np.exp(-x) * x
        alpha, beta = 2.25, -0.75
        combo = trapezoid_integrate(
            lambda x: alpha * f(x) + beta * g(x), 0.0, 2.0, cfg)
        parts = (alpha * trapezoid_integrate(f, 0.0, 2.0, cfg)
                 + beta * trapezoid_integrate(g, 0.0, 2.0, cfg))
        assert combo == pytest.approx(parts, abs=1e-12)

    def test_gamma_quantile_mean(self):
        # integral of the Gamma(2,3) quantile over (0,1) is the mean 2/3
        law = LawSpec.gamma(2.0, 3.0)
        eps = 1e-9
        got = trapezoid_integrate(lambda u: quantile(law, u), eps, 1.0 - eps,
                                  DEFAULT_QUAD_CONFIG)
        assert got == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_scalar_only_callable(self):
        # integrands must be vectorised; the integrand's own error surfaces
        with pytest.raises(TypeError):
            trapezoid_integrate(lambda x: float(x) ** 2, 0.0, 1.0)

    def test_wrong_shape_integrand(self):
        with pytest.raises(DomainError, match="shape"):
            trapezoid_integrate(lambda x: x.sum(), 0.0, 1.0)

    def test_nonfinite_reports_abscissa(self):
        def f(x):
            return np.where(np.abs(x - 0.5) < 0.01, np.nan, 1.0)

        with pytest.raises(QuadratureError) as err:
            trapezoid_integrate(f, 0.0, 1.0)
        assert abs(err.value.abscissa - 0.5) < 0.02

    @pytest.mark.parametrize("bad", [0.375, 0.0625, 0.03125])
    def test_nonfinite_first_seen_at_a_refinement_level(self, bad):
        # midpoints of doubling levels 1, 2 and 3 of 4 panels on [0, 1]; a
        # non-constant integrand keeps the tiny tol from stopping early
        cfg = QuadratureConfig(panels=4, tol=1e-300, max_doublings=3)
        with pytest.raises(QuadratureError) as err:
            trapezoid_integrate(lambda x: np.where(x == bad, np.nan, x * x),
                                0.0, 1.0, cfg)
        assert err.value.abscissa == bad

    @pytest.mark.parametrize("f, hi, cfg, at", [
        # the first sum of finite node values overflows
        (lambda x: np.full_like(x, 1e308), 10.0, DEFAULT_QUAD_CONFIG, 0.0),
        # the sums stay finite, the first refined total does not: on 2
        # panels of [0, 2] the total is 1e308 and the midpoint sum 1e308
        (lambda x: np.where((x == 1.0) | (x == 0.5), 1e308, 0.0), 2.0,
         QuadratureConfig(panels=2, tol=1e-300, max_doublings=3), 0.5),
    ], ids=["sum", "refined-total"])
    def test_overflow_of_finite_values_raises(self, f, hi, cfg, at):
        """The error is the only report: numpy's overflow warning is not
        printed before it."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match="overflowed") as err:
                trapezoid_integrate(f, 0.0, hi, cfg)
        assert err.value.abscissa == at

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            trapezoid_integrate(lambda x: x, 1.0, 0.0)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            QuadratureConfig(panels=1)
        with pytest.raises(DomainError):
            QuadratureConfig(tol=0.0)
        with pytest.raises(DomainError):
            QuadratureConfig(max_doublings=0)
