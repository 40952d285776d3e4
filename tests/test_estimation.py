"""Empirical moments and the closed-form moment estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momest import (DegenerateSampleError, DomainError, EmpiricalMoments,
                    InfeasibleMomentError, InsufficientDataError, LawKind,
                    LawSpec, empirical_moments, estimate, estimate_rows,
                    sample, theoretical_moments)


def moments_at(m1, m2, n=1000):
    """EmpiricalMoments object pinned at exact raw moments (S^2 = m2-m1^2)."""
    var = m2 - m1 * m1
    return EmpiricalMoments(n=n, mean=m1, mean_sq=m2, var_unbiased=var,
                            var_biased=var)


class TestEmpiricalMoments:
    def test_constant(self):
        em = empirical_moments([1.0, 1.0, 1.0, 1.0])
        assert em.mean == 1.0
        assert em.var_unbiased == 0.0

    def test_two_point(self):
        em = empirical_moments([0.0, 2.0])
        assert em.mean == 1.0
        assert em.mean_sq == 2.0
        assert em.var_unbiased == 2.0
        assert em.var_biased == 1.0

    def test_identities(self):
        x = sample(LawSpec.gamma(2.0, 3.0), 10_000, 5)
        em = empirical_moments(x)
        assert em.var_biased == pytest.approx(em.mean_sq - em.mean ** 2,
                                              rel=1e-12)
        assert em.var_unbiased == pytest.approx(
            em.var_biased * em.n / (em.n - 1), rel=1e-15)
        assert em.var_biased >= 0.0

    def test_uniform_million(self):
        x = sample(LawSpec.uniform(0.0, 1.0), 10**6, 77)
        em = empirical_moments(x)
        assert em.var_unbiased == pytest.approx(1.0 / 12.0, rel=0.01)

    def test_too_small(self):
        with pytest.raises(InsufficientDataError):
            empirical_moments([1.0])


class TestEstimateClosedForms:
    def test_gamma_algebra(self):
        est = estimate(LawKind.GAMMA,
                       EmpiricalMoments(2, 2.0, 4.5, 1.0, 0.5))
        assert (est.a_hat, est.b_hat) == (4.0, 2.0)

    def test_beta_inversion(self):
        est = estimate(LawKind.BETA, moments_at(0.4, 0.2))
        assert est.a_hat == pytest.approx(2.0, abs=1e-12)
        assert est.b_hat == pytest.approx(3.0, abs=1e-12)

    def test_fisher_inversion(self):
        est = estimate(LawKind.FISHER, moments_at(1.25, 65 / 48 + 1.25 ** 2))
        assert est.a_hat == pytest.approx(5.0, abs=1e-12)
        assert est.b_hat == pytest.approx(10.0, abs=1e-12)

    def test_uniform_unit(self):
        est = estimate(LawKind.UNIFORM, moments_at(0.5, 1.0 / 3.0))
        assert est.a_hat == pytest.approx(0.0, abs=1e-12)
        assert est.b_hat == pytest.approx(1.0, abs=1e-12)

    def test_uniform_two_point_sample(self):
        est = estimate(LawKind.UNIFORM, empirical_moments([0.0, 2.0]))
        assert est.a_hat == pytest.approx(1.0 - math.sqrt(6.0), rel=1e-14)
        assert est.b_hat == pytest.approx(1.0 + math.sqrt(6.0), rel=1e-14)


MOMENT_CONSISTENCY_CASES = [
    LawSpec.gamma(2.0, 3.0), LawSpec.gamma(10.0, 3.0),
    LawSpec.gamma(0.7, 2.2),
    LawSpec.beta(2.0, 3.0), LawSpec.beta(5.0, 1.5),
    LawSpec.uniform(0.0, 1.0), LawSpec.uniform(-3.0, 7.0),
    LawSpec.fisher(5.0, 12.0), LawSpec.fisher(5.0, 10.0),
]


class TestMomentConsistency:
    @pytest.mark.parametrize("law", MOMENT_CONSISTENCY_CASES, ids=str)
    def test_theoretical_moments_invert(self, law):
        m = theoretical_moments(law)
        est = estimate(law.kind, moments_at(m.require(1), m.require(2)))
        assert est.a_hat == pytest.approx(law.p1, rel=1e-10, abs=1e-10)
        assert est.b_hat == pytest.approx(law.p2, rel=1e-10, abs=1e-10)


class TestEquivariance:
    def test_gamma_scale_exact_for_pow2(self):
        # scaling by a power of two is exact in floating point
        x = sample(LawSpec.gamma(2.0, 3.0), 5000, 11)
        base = estimate(LawKind.GAMMA, empirical_moments(x))
        scaled = estimate(LawKind.GAMMA, empirical_moments(4.0 * x))
        assert scaled.a_hat == base.a_hat
        assert scaled.b_hat == base.b_hat / 4.0

    def test_gamma_scale_general(self):
        x = sample(LawSpec.gamma(2.0, 3.0), 5000, 12)
        base = estimate(LawKind.GAMMA, empirical_moments(x))
        c = 2.7
        scaled = estimate(LawKind.GAMMA, empirical_moments(c * x))
        assert scaled.a_hat == pytest.approx(base.a_hat, rel=1e-12)
        assert scaled.b_hat == pytest.approx(base.b_hat / c, rel=1e-12)

    def test_uniform_affine(self):
        x = sample(LawSpec.uniform(0.0, 1.0), 4000, 13)
        base = estimate(LawKind.UNIFORM, empirical_moments(x))
        alpha, beta = 2.5, -1.25
        moved = estimate(LawKind.UNIFORM, empirical_moments(alpha * x + beta))
        assert moved.a_hat == pytest.approx(alpha * base.a_hat + beta,
                                            abs=1e-12)
        assert moved.b_hat == pytest.approx(alpha * base.b_hat + beta,
                                            abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(shape=st.floats(0.3, 8.0), rate=st.floats(0.2, 5.0),
           n=st.integers(10, 500), seed=st.integers(0, 2 ** 64 - 1),
           c=st.floats(1e-3, 1e3))
    def test_gamma_scale_property(self, shape, rate, n, seed, c):
        x = sample(LawSpec.gamma(shape, rate), n, seed)
        base = estimate(LawKind.GAMMA, empirical_moments(x))
        scaled = estimate(LawKind.GAMMA, empirical_moments(c * x))
        assert scaled.a_hat == pytest.approx(base.a_hat, rel=1e-9)
        assert scaled.b_hat == pytest.approx(base.b_hat / c, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(lo=st.floats(-5.0, 5.0), width=st.floats(0.01, 10.0),
           n=st.integers(2, 500), seed=st.integers(0, 2 ** 64 - 1),
           c=st.floats(1e-3, 1e3), d=st.floats(-1e3, 1e3))
    def test_uniform_location_scale_property(self, lo, width, n, seed, c, d):
        x = sample(LawSpec.uniform(lo, lo + width), n, seed)
        base = estimate(LawKind.UNIFORM, empirical_moments(x))
        moved = estimate(LawKind.UNIFORM, empirical_moments(c * x + d))
        # relative to the magnitude of the moved values
        scale = abs(d) + c * (abs(lo) + width)
        for got, want in ((moved.a_hat, c * base.a_hat + d),
                          (moved.b_hat, c * base.b_hat + d)):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9 * scale)


class TestDegenerateInputs:
    def test_gamma_zero_variance(self):
        with pytest.raises(DegenerateSampleError, match="S\\^2 > 0"):
            estimate(LawKind.GAMMA, empirical_moments([2.0, 2.0, 2.0]))

    def test_uniform_zero_variance(self):
        """A zero-spread sample has no uniform law: b_hat = a_hat would
        name Uniform(2, 2), which ``LawSpec`` refuses; ``estimate_rows``
        counts the row as infeasible."""
        with pytest.raises(DegenerateSampleError,
                           match="uniform estimator requires S\\^2 > 0, "
                                 "got S\\^2=0.0"):
            estimate(LawKind.UNIFORM, empirical_moments([2.0, 2.0, 2.0]))
        a_hat, b_hat, feasible = estimate_rows(
            LawKind.UNIFORM, np.array([[2.0, 2.0, 2.0], [0.0, 2.0, 1.0]]))
        assert feasible.tolist() == [False, True]
        est = estimate(LawKind.UNIFORM, empirical_moments([0.0, 2.0, 1.0]))
        assert (a_hat.tolist(), b_hat.tolist()) == ([est.a_hat],
                                                    [est.b_hat])

    def test_beta_mean_above_mean_sq(self):
        with pytest.raises(DegenerateSampleError, match="mean - mean_sq"):
            estimate(LawKind.BETA, empirical_moments([1.2, 1.4, 1.5]))

    def test_fisher_mean_not_above_one(self):
        with pytest.raises(InfeasibleMomentError, match="mean > 1"):
            estimate(LawKind.FISHER, empirical_moments([0.5, 0.7, 0.9]))

    def test_fisher_denominator(self):
        # mean above 2 forces S^2 (2 - mean) - mean^2 (mean - 1) below zero
        with pytest.raises(DegenerateSampleError, match="fisher estimator"):
            estimate(LawKind.FISHER, moments_at(3.0, 9.5))


class TestNonFiniteSample:
    @pytest.mark.parametrize("values,count,first", [
        ([0.1, float("nan"), 0.5], 1, 1),
        ([float("inf"), 0.2, 0.3], 1, 0),
        ([0.1, 0.2, float("-inf"), float("nan")], 2, 2),
    ])
    def test_rejected_with_count_and_index(self, values, count, first):
        with pytest.raises(DomainError) as info:
            empirical_moments(values)
        assert f"{count} non-finite value(s)" in str(info.value)
        assert f"index {first}" in str(info.value)

    def test_estimate_never_sees_nan(self):
        """The library path fails loudly instead of returning nan bounds."""
        with pytest.raises(DomainError):
            estimate(LawKind.UNIFORM,
                     empirical_moments([0.1, float("nan"), 0.5]))

    def test_not_a_degenerate_sample(self):
        """Bad input is not counted as an infeasible replication."""
        with pytest.raises(DomainError) as info:
            empirical_moments([1.0, float("inf")])
        assert not isinstance(info.value, DegenerateSampleError)


class TestOverflowingMoments:
    @pytest.mark.parametrize("values,name", [
        ([1e308, 1e308], "mean"),
        ([1e200, 2e200, 3e200], "var_biased"),
        ([1e160, 1.0000001e160], "mean_sq"),
    ])
    def test_named_domain_error(self, values, name):
        with pytest.raises(DomainError) as info:
            empirical_moments(values)
        assert f"sample moment {name} overflowed" in str(info.value)

    def test_large_finite_values_keep_their_bits(self):
        """Just below overflow nothing changes: the library path still
        equals the row-block estimator bit for bit."""
        row = [1e150, 2e150, 3.5e150]
        em = empirical_moments(row)
        assert math.isfinite(em.mean_sq)
        est = estimate(LawKind.GAMMA, em)
        a_hat, b_hat, feasible = estimate_rows(LawKind.GAMMA,
                                               np.array([row]))
        assert feasible.tolist() == [True]
        assert (est.a_hat, est.b_hat) == (a_hat[0], b_hat[0])


class TestConsistency:
    @pytest.mark.parametrize("law", [
        LawSpec.gamma(2.0, 3.0), LawSpec.beta(2.0, 3.0),
        LawSpec.uniform(0.0, 1.0), LawSpec.fisher(5.0, 12.0)], ids=str)
    def test_error_shrinks_with_n(self, law):
        wins = 0
        compared = 0
        for j in range(200):
            try:
                small = estimate(law.kind, empirical_moments(
                    sample(law, 100, 9000 + 2 * j)))
            except DegenerateSampleError:
                continue  # small-n replication infeasible (Fisher mean <= 1)
            big = estimate(law.kind, empirical_moments(
                sample(law, 100_000, 9001 + 2 * j)))
            compared += 1
            if abs(big.a_hat - law.p1) < abs(small.a_hat - law.p1):
                wins += 1
        assert compared >= 150
        assert wins >= 0.95 * compared
