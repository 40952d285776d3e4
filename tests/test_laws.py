"""Densities, cdfs, quantiles, sampling and closed-form moments of the four
laws."""

import math
import re
import sys
import warnings

import numpy as np
import pytest

from momest import (DEFAULT_QUAD_CONFIG, DomainError, LawKind, LawSpec,
                    MomentDomainError, cdf, pdf, quantile, sample,
                    sample_rows, theoretical_moments, trapezoid_integrate)
from momest.laws import _family

ACCEPTANCE_LAWS = [
    LawSpec.gamma(2.0, 3.0),
    LawSpec.beta(2.0, 3.0),
    LawSpec.uniform(0.0, 1.0),
    LawSpec.fisher(5.0, 12.0),
]


def truncated_support(law, eps=1e-9):
    return float(quantile(law, eps)), float(quantile(law, 1.0 - eps))


class TestLawSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            LawSpec.gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            LawSpec.beta(2.0, -1.0)
        with pytest.raises(DomainError):
            LawSpec.uniform(1.0, 1.0)
        # negative endpoints are fine for the uniform law
        LawSpec.uniform(-3.0, -1.0)
        LawSpec.fisher(5.0, 3.0)  # constructible; moment ops flag b <= 4

    def test_uniform_width_must_be_finite(self):
        """b - a overflowing to inf would make the pdf 0, the cdf 0 at the
        midpoint and every quantile and draw inf."""
        with pytest.raises(DomainError, match=re.escape(
                "uniform law requires a finite width b - a, got "
                "(-1e+308, 1e+308)")):
            LawSpec.uniform(-1e308, 1e308)

    def test_kind_parse(self):
        assert LawKind.parse(" Gamma ") is LawKind.GAMMA
        with pytest.raises(DomainError):
            LawKind.parse("cauchy")


class TestPdf:
    def test_point_values(self):
        assert pdf(LawSpec.uniform(0.0, 1.0), 0.4) == 1.0
        assert pdf(LawSpec.gamma(1.0, 1.0), 2.0) == pytest.approx(
            math.exp(-2.0), rel=1e-14)

    def test_zero_outside_support(self):
        assert pdf(LawSpec.gamma(2.0, 3.0), -1.0) == 0.0
        assert pdf(LawSpec.beta(2.0, 3.0), 1.5) == 0.0
        assert pdf(LawSpec.uniform(2.0, 5.0), 1.9) == 0.0
        assert pdf(LawSpec.fisher(5.0, 10.0), -0.1) == 0.0

    def test_boundary_values(self):
        # exponential special case is finite at zero, smaller shapes diverge
        assert pdf(LawSpec.gamma(1.0, 3.0), 0.0) == 3.0
        assert pdf(LawSpec.gamma(0.5, 1.0), 0.0) == math.inf
        assert pdf(LawSpec.gamma(2.0, 3.0), 0.0) == 0.0
        assert pdf(LawSpec.beta(0.5, 2.0), 0.0) == math.inf
        assert pdf(LawSpec.beta(1.0, 1.0), 0.0) == 1.0
        assert pdf(LawSpec.fisher(2.0, 7.0), 0.0) == 1.0

    @pytest.mark.parametrize("law", ACCEPTANCE_LAWS, ids=str)
    def test_normalization_by_quadrature(self, law):
        lo, hi = truncated_support(law)
        mass = trapezoid_integrate(lambda x: pdf(law, x), lo, hi,
                                   DEFAULT_QUAD_CONFIG)
        assert mass == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("law", ACCEPTANCE_LAWS, ids=str)
    def test_mean_by_quadrature(self, law):
        lo, hi = truncated_support(law)
        m1 = trapezoid_integrate(lambda x: x * pdf(law, x), lo, hi,
                                 DEFAULT_QUAD_CONFIG)
        assert m1 == pytest.approx(theoretical_moments(law).require(1),
                                   abs=1e-6)

    @pytest.mark.parametrize("law", ACCEPTANCE_LAWS, ids=str)
    @pytest.mark.parametrize("func", [pdf, cdf], ids=["pdf", "cdf"])
    @pytest.mark.parametrize("x", [math.nan, np.array([0.5, math.nan])],
                             ids=["scalar", "array"])
    def test_nan_point_refused(self, law, func, x):
        """pdf and cdf refuse a NaN point with one error, instead of a
        density of 0 and a cdf of nan."""
        with pytest.raises(DomainError) as info:
            func(law, x)
        assert str(info.value) == f"x must not be NaN, got x={x}"

    @pytest.mark.parametrize("law", ACCEPTANCE_LAWS, ids=str)
    @pytest.mark.parametrize("wrap", [lambda x: x, lambda x: np.array([x])],
                             ids=["scalar", "array"])
    def test_infinite_points(self, law, wrap):
        """The density vanishes at both infinities and the cdf runs from
        0 to 1, without an inf - inf or inf / inf on the way."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, density, mass in ((-math.inf, 0.0, 0.0),
                                     (math.inf, 0.0, 1.0)):
                assert np.all(pdf(law, wrap(x)) == density)
                assert np.all(cdf(law, wrap(x)) == mass)

    @pytest.mark.parametrize("law", ACCEPTANCE_LAWS, ids=str)
    @pytest.mark.parametrize("x", [1e300, 1e308, sys.float_info.max])
    def test_huge_points(self, law, x):
        """Where b x or a x overflows to inf, the density is 0 and the cdf
        1, with no overflow warning; finite points beside them keep their
        values."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pdf(law, x) == 0.0 and cdf(law, x) == 1.0
            for func in (pdf, cdf):
                both = func(law, np.array([x, 0.5]))
                assert both[0] == func(law, x)
                assert both[1] == func(law, 0.5)

    def test_fisher_normalization(self):
        law = LawSpec.fisher(5.0, 10.0)
        lo, hi = truncated_support(law)
        mass = trapezoid_integrate(lambda x: pdf(law, x), lo, hi,
                                   DEFAULT_QUAD_CONFIG)
        assert mass == pytest.approx(1.0, abs=1e-6)


class TestCdfQuantile:
    def test_medians(self):
        assert quantile(LawSpec.uniform(2.0, 5.0), 0.5) == pytest.approx(3.5)
        assert quantile(LawSpec.gamma(1.0, 1.0), 0.5) == pytest.approx(
            math.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("law", ACCEPTANCE_LAWS + [
        LawSpec.gamma(10.0, 3.0), LawSpec.fisher(5.0, 10.0),
        LawSpec.beta(0.6, 0.8), LawSpec.uniform(-2.0, 7.0)], ids=str)
    def test_roundtrip_cdf_of_quantile(self, law):
        us = np.linspace(0.001, 0.999, 97)
        got = cdf(law, quantile(law, us))
        assert np.max(np.abs(got - us)) <= 1e-8

    @pytest.mark.parametrize("law", ACCEPTANCE_LAWS, ids=str)
    def test_roundtrip_quantile_of_cdf(self, law):
        xs = quantile(law, np.linspace(0.01, 0.99, 61))
        back = quantile(law, np.clip(cdf(law, xs), 1e-12, 1 - 1e-12))
        scale = np.maximum(1.0, np.abs(xs))
        assert np.max(np.abs(back - xs) / scale) <= 1e-7

    def test_cdf_monotone_clamped(self):
        law = LawSpec.fisher(5.0, 12.0)
        xs = np.linspace(-2.0, 60.0, 300)
        vals = np.asarray(cdf(law, xs))
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_quantile_domain(self):
        with pytest.raises(DomainError):
            quantile(LawSpec.gamma(2.0, 3.0), 0.0)
        with pytest.raises(DomainError):
            quantile(LawSpec.gamma(2.0, 3.0), 1.0)

    def test_beta11_is_uniform01(self):
        b = LawSpec.beta(1.0, 1.0)
        u = LawSpec.uniform(0.0, 1.0)
        xs = np.linspace(0.01, 0.99, 50)
        assert np.max(np.abs(pdf(b, xs) - pdf(u, xs))) <= 1e-12
        assert np.max(np.abs(cdf(b, xs) - cdf(u, xs))) <= 1e-12
        assert np.max(np.abs(np.asarray(quantile(b, xs))
                             - np.asarray(quantile(u, xs)))) <= 1e-12


class TestTheoreticalMoments:
    def test_gamma_frozen(self):
        m = theoretical_moments(LawSpec.gamma(2.0, 3.0))
        assert (m.m1, m.m2) == pytest.approx((2 / 3, 2 / 3), rel=1e-14)
        assert (m.m3, m.m4) == pytest.approx((8 / 9, 40 / 27), rel=1e-14)
        assert m.variance == pytest.approx(2 / 9, rel=1e-14)

    def test_beta_frozen(self):
        m = theoretical_moments(LawSpec.beta(2.0, 3.0))
        assert (m.m1, m.m2) == pytest.approx((0.4, 0.2), rel=1e-14)
        assert (m.m3, m.m4) == pytest.approx((4 / 35, 1 / 14), rel=1e-14)

    def test_uniform_frozen(self):
        m = theoretical_moments(LawSpec.uniform(0.0, 1.0))
        assert (m.m1, m.m2, m.m3, m.m4) == pytest.approx(
            (1 / 2, 1 / 3, 1 / 4, 1 / 5), rel=1e-14)
        assert m.variance == pytest.approx(1 / 12, rel=1e-14)

    def test_fisher_frozen(self):
        m = theoretical_moments(LawSpec.fisher(5.0, 10.0))
        assert m.m1 == pytest.approx(1.25, rel=1e-14)
        assert m.variance == pytest.approx(65 / 48, rel=1e-13)
        m12 = theoretical_moments(LawSpec.fisher(5.0, 12.0))
        assert (m12.m1, m12.m2) == pytest.approx((1.2, 2.52), rel=1e-13)
        assert (m12.m3, m12.m4) == pytest.approx(
            (1134 / 125, 37422 / 625), rel=1e-13)

    def test_fisher_variance_closed_form(self):
        # variance formula 2 b^2 (a+b-2) / (a (b-2)^2 (b-4)) vs m2 - m1^2
        for (a, b) in [(5.0, 10.0), (5.0, 12.0), (3.3, 9.7)]:
            m = theoretical_moments(LawSpec.fisher(a, b))
            closed = 2 * b * b * (a + b - 2) / (a * (b - 2) ** 2 * (b - 4))
            assert m.variance == pytest.approx(closed, rel=1e-12)
            assert m.m2 - m.m1 ** 2 == pytest.approx(closed, rel=1e-10)

    def test_fisher_availability_flags(self):
        m = theoretical_moments(LawSpec.fisher(5.0, 3.0))
        assert m.m1 is not None and m.m2 is None and m.variance is None
        with pytest.raises(MomentDomainError, match="second moment requires "
                                                    "b > 4"):
            m.require(2)
        m7 = theoretical_moments(LawSpec.fisher(5.0, 7.0))
        assert m7.m3 is not None and m7.m4 is None
        with pytest.raises(MomentDomainError, match="fourth moment requires "
                                                    "b > 8"):
            m7.require(4)

    def test_jensen_inequalities(self):
        for law in ACCEPTANCE_LAWS:
            m = theoretical_moments(law)
            assert m.m2 >= m.m1 ** 2
            assert m.m4 >= m.m2 ** 2
            assert m.variance == pytest.approx(m.m2 - m.m1 ** 2, rel=1e-9)

    @pytest.mark.parametrize("law,what", [
        (LawSpec.gamma(2.0, 1e-200), "second moment"),
        (LawSpec.gamma(2.0, 1e200), "second moment"),
        (LawSpec.uniform(1e100, 2e100), "fourth moment"),
        (LawSpec.fisher(1e-300, 12.0), "second moment"),
        (LawSpec.beta(1e-200, 1e-200), "variance"),
        (LawSpec.gamma(1e300, 1e-10), "first moment"),
        (LawSpec.gamma(1e300, 1.0), "second moment")], ids=str)
    def test_out_of_float_range(self, law, what):
        """A power, product or quotient that overflows, or a divisor that
        underflows to zero, is a typed error naming the law and the
        moment."""
        with pytest.raises(DomainError,
                           match=f"the {what} of {re.escape(str(law))} "):
            theoretical_moments(law)


class TestSampling:
    def test_determinism(self):
        law = LawSpec.gamma(2.0, 3.0)
        assert np.array_equal(sample(law, 1000, 99), sample(law, 1000, 99))

    def test_uniform_mean(self):
        x = sample(LawSpec.uniform(0.0, 1.0), 10**6, 2024)
        assert abs(x.mean() - 0.5) < 0.003

    def test_gamma_mean(self):
        x = sample(LawSpec.gamma(2.0, 3.0), 10**6, 2025)
        assert abs(x.mean() - 2.0 / 3.0) < 0.01 * (2.0 / 3.0)

    @pytest.mark.parametrize("law", ACCEPTANCE_LAWS, ids=str)
    def test_first_two_sample_moments(self, law):
        n = 10**6
        x = sample(law, n, 31415)
        m = theoretical_moments(law)
        se1 = math.sqrt(m.variance / n)
        assert abs(x.mean() - m.m1) < 5.0 * se1
        var_m2 = m.require(4) - m.require(2) ** 2
        se2 = math.sqrt(var_m2 / n)
        assert abs(np.mean(x * x) - m.m2) < 5.0 * se2

    def test_fisher_matches_cdf(self):
        law = LawSpec.fisher(5.0, 10.0)
        x = sample(law, 200_000, 7)
        for u in (0.1, 0.25, 0.5, 0.75, 0.9):
            q = quantile(law, u)
            hit = float(np.mean(x <= q))
            assert abs(hit - u) < 5.0 * math.sqrt(u * (1 - u) / x.size)

    def test_size_validation(self):
        with pytest.raises(DomainError):
            sample(LawSpec.gamma(2.0, 3.0), 0, 1)

    @pytest.mark.parametrize("call, message", [
        (lambda law: sample(law, 2.5, 1), "n must be an integer, got 2.5"),
        (lambda law: sample_rows(law, 2.5, [1, 2]),
         "n must be an integer, got 2.5"),
        (lambda law: sample(law, 5, 7.9), "seed must be an integer, got 7.9"),
        (lambda law: sample(law, 5, "7"), "seed must be an integer, got '7'"),
    ], ids=["size", "rows-size", "float-seed", "str-seed"])
    def test_non_integer_argument_refused(self, call, message):
        """Neither truncated nor a bare TypeError."""
        with pytest.raises(DomainError) as info:
            call(LawSpec.gamma(2.0, 3.0))
        assert str(info.value) == message

    @pytest.mark.parametrize("a, b", [(-0.1, 0.3), (0.0, 1.0)])
    def test_uniform_draw_of_one_is_b(self, a, b):
        """A uniform u = 1.0 draws b itself, where (b - a) + a alone can
        round one ulp above it, out of the support."""
        class Ones:
            def uniforms(self, n):
                return np.ones(n)

        x = _family(LawKind.UNIFORM).draw(a, b, Ones(), None, 3)
        assert x.tolist() == [b] * 3
