"""Influence coefficients, delta-method gradients and the four covariance
routes, all pinned against independently derived values.

Frozen matrices below were recomputed symbolically (exact fractions) from
the quartic-moment bilinear form Var(c1 X + c2 X^2) = c1^2 Var X
+ 2 c1 c2 Cov(X, X^2) + c2^2 Var X^2 before this module was written.
"""

import numpy as np
import pytest

from momest import (CoefficientMode, Covariance2, DomainError,
                    EmpiricalMoments, InsufficientDataError, LawKind, LawSpec,
                    MomentDomainError, MomestError, QuadraticInfluence,
                    SigmaMethod, covariance_exact_moments,
                    covariance_exact_quadrature, covariance_plugin,
                    covariance_replication, delta_gradient, estimate,
                    influence_pair, sample, sigma_for, theoretical_moments)

GAMMA23 = LawSpec.gamma(2.0, 3.0)

# law -> (gradient da/dm1, da/dm2, db/dm1, db/dm2), (s11, s22, s12)
FROZEN = {
    LawSpec.gamma(2.0, 3.0): ((18.0, -9.0, 22.5, -13.5),
                              (12.0, 31.5, 18.0)),
    LawSpec.gamma(10.0, 3.0): ((66.0, -9.0, 18.9, -2.7),
                               (220.0, 20.7, 66.0)),
    LawSpec.beta(2.0, 3.0): ((55.0, -60.0, 70.0, -90.0),
                             (55 / 7, 130 / 7, 10.0)),
    LawSpec.uniform(0.0, 1.0): ((4.0, -3.0, -2.0, 3.0),
                                (2 / 15, 2 / 15, 1 / 30)),
    LawSpec.fisher(5.0, 12.0): ((1225 / 24, -125 / 18, -50.0, 0.0),
                                (70875 / 64, 2700.0, -656.25)),
}


def estimator_map(kind, m1, m2):
    """The closed-form estimator evaluated at exact raw moments; used as the
    independent finite-difference oracle for the gradients."""
    var = m2 - m1 * m1
    em = EmpiricalMoments(n=1000, mean=m1, mean_sq=m2, var_unbiased=var,
                          var_biased=var)
    est = estimate(kind, em)
    return est.a_hat, est.b_hat


class TestDeltaGradient:
    @pytest.mark.parametrize("law", list(FROZEN), ids=str)
    def test_frozen_values(self, law):
        m = theoretical_moments(law)
        got = delta_gradient(law.kind, m.require(1), m.require(2))
        assert got == pytest.approx(FROZEN[law][0], rel=1e-12)

    @pytest.mark.parametrize("law", list(FROZEN), ids=str)
    def test_matches_finite_differences(self, law):
        m = theoretical_moments(law)
        m1, m2 = m.require(1), m.require(2)
        got = delta_gradient(law.kind, m1, m2)
        h1 = max(1.0, abs(m1)) * 1e-6
        h2 = max(1.0, abs(m2)) * 1e-6
        a_hi, b_hi = estimator_map(law.kind, m1 + h1, m2)
        a_lo, b_lo = estimator_map(law.kind, m1 - h1, m2)
        fd = [(a_hi - a_lo) / (2 * h1), None, (b_hi - b_lo) / (2 * h1), None]
        a_hi, b_hi = estimator_map(law.kind, m1, m2 + h2)
        a_lo, b_lo = estimator_map(law.kind, m1, m2 - h2)
        fd[1] = (a_hi - a_lo) / (2 * h2)
        fd[3] = (b_hi - b_lo) / (2 * h2)
        for g, f in zip(got, fd):
            assert g == pytest.approx(f, rel=1e-5, abs=1e-5)

    def test_infeasible_points(self):
        with pytest.raises(DomainError):
            delta_gradient(LawKind.GAMMA, 1.0, 1.0)  # zero variance
        with pytest.raises(DomainError):
            delta_gradient(LawKind.FISHER, 0.9, 2.0)  # mean below 1


class TestInfluencePair:
    def test_gamma_canonical(self):
        h, l = influence_pair(GAMMA23)
        assert (h.c1, h.c2) == pytest.approx((18.0, -9.0), rel=1e-12)
        assert (l.c1, l.c2) == pytest.approx((22.5, -13.5), rel=1e-12)

    def test_uniform_canonical(self):
        h, l = influence_pair(LawSpec.uniform(0.0, 1.0))
        assert (h.c1, h.c2) == pytest.approx((4.0, -3.0), rel=1e-12)
        assert (l.c1, l.c2) == pytest.approx((-2.0, 3.0), rel=1e-12)

    def test_fisher_canonical_l(self):
        h, l = influence_pair(LawSpec.fisher(5.0, 10.0))
        assert (l.c1, l.c2) == pytest.approx((-32.0, 0.0), abs=1e-12)

    def test_gamma_verbatim_coefficients(self):
        h, l = influence_pair(GAMMA23, CoefficientMode.VERBATIM)
        assert (h.c1, h.c2) == pytest.approx((33.0, -9.0), rel=1e-12)
        assert (l.c1, l.c2) == pytest.approx((31.5, -13.5), rel=1e-12)

    def test_fisher_verbatim_coefficients(self):
        h, l = influence_pair(LawSpec.fisher(5.0, 10.0),
                              CoefficientMode.VERBATIM)
        assert (h.c1, h.c2) == pytest.approx((1.8, -2.16), rel=1e-12)
        assert (l.c1, l.c2) == pytest.approx((-32.0, 0.0), abs=1e-12)

    def test_beta_uniform_verbatim_equals_canonical(self):
        for law in (LawSpec.beta(2.0, 3.0), LawSpec.uniform(0.0, 1.0)):
            hc, lc = influence_pair(law, CoefficientMode.CANONICAL)
            hv, lv = influence_pair(law, CoefficientMode.VERBATIM)
            assert (hv, lv) == (hc, lc)

    @pytest.mark.parametrize("law", list(FROZEN), ids=str)
    def test_centering_by_quadrature(self, law):
        from momest.asymptotics import _expectation
        from momest.special import DEFAULT_QUAD_CONFIG
        h, l = influence_pair(law)
        for infl in (h, l):
            mean = _expectation(law, infl.evaluate, DEFAULT_QUAD_CONFIG)
            assert abs(mean) <= 1e-6 * max(1.0, abs(infl.c1), abs(infl.c2))

    def test_fisher_needs_second_moment(self):
        with pytest.raises(MomentDomainError, match="b > 4"):
            influence_pair(LawSpec.fisher(5.0, 4.0))

    def test_mode_parse(self):
        assert CoefficientMode.parse("paper") is CoefficientMode.VERBATIM
        assert CoefficientMode.parse("Canonical") is CoefficientMode.CANONICAL
        with pytest.raises(DomainError):
            CoefficientMode.parse("bogus")


class TestExactMoments:
    @pytest.mark.parametrize("law", list(FROZEN), ids=str)
    def test_frozen_sigma(self, law):
        h, l = influence_pair(law)
        sig = covariance_exact_moments(law, h, l)
        s11, s22, s12 = FROZEN[law][1]
        assert sig.s11 == pytest.approx(s11, rel=1e-12)
        assert sig.s22 == pytest.approx(s22, rel=1e-12)
        assert sig.s12 == pytest.approx(s12, rel=1e-12)
        assert sig.det == pytest.approx(s11 * s22 - s12 ** 2, rel=1e-10)

    def test_gamma23_determinant(self):
        h, l = influence_pair(GAMMA23)
        assert covariance_exact_moments(GAMMA23, h, l).det == pytest.approx(
            54.0, rel=1e-12)

    def test_identity_influence_gives_variance(self):
        h = QuadraticInfluence(1.0, 0.0, center=2 / 3)
        sig = covariance_exact_moments(GAMMA23, h, h)
        assert sig.s11 == pytest.approx(2 / 9, rel=1e-14)
        assert sig.s11 == sig.s22 == sig.s12

    def test_equal_influences_degenerate(self):
        h, _ = influence_pair(GAMMA23)
        sig = covariance_exact_moments(GAMMA23, h, h)
        assert sig.s11 == sig.s22 == sig.s12
        assert abs(sig.det) <= 1e-10

    def test_fisher_moment_guard(self):
        law = LawSpec.fisher(5.0, 6.0)
        h, l = influence_pair(law)
        with pytest.raises(MomentDomainError, match="fourth moment requires "
                                                    "b > 8"):
            covariance_exact_moments(law, h, l)


class TestExactQuadrature:
    @pytest.mark.parametrize("law", list(FROZEN), ids=str)
    def test_agrees_with_exact_moments(self, law):
        h, l = influence_pair(law)
        ref = covariance_exact_moments(law, h, l)
        quad = covariance_exact_quadrature(law, h, l)
        assert quad.s11 == pytest.approx(ref.s11, rel=1e-5)
        assert quad.s22 == pytest.approx(ref.s22, rel=1e-5)
        assert quad.s12 == pytest.approx(ref.s12, rel=1e-5)

    def test_beta_cross_method(self):
        law = LawSpec.beta(2.0, 3.0)
        h, l = influence_pair(law)
        ref = covariance_exact_moments(law, h, l)
        quad = covariance_exact_quadrature(law, h, l)
        for name in ("s11", "s22", "s12"):
            assert getattr(quad, name) == pytest.approx(
                getattr(ref, name), rel=1e-6)

    def test_equal_influences_degenerate(self):
        h, _ = influence_pair(GAMMA23)
        sig = covariance_exact_quadrature(GAMMA23, h, h)
        assert sig.s11 == pytest.approx(sig.s22, rel=1e-14)
        assert sig.s11 == pytest.approx(sig.s12, rel=1e-14)
        assert abs(sig.det) <= 1e-10 * sig.s11 ** 2

    def test_fisher_moment_guard(self):
        law = LawSpec.fisher(5.0, 8.0)
        h, l = influence_pair(law)
        with pytest.raises(MomentDomainError, match="fourth moment"):
            covariance_exact_quadrature(law, h, l)

    def test_method_tags(self):
        h, l = influence_pair(GAMMA23)
        assert covariance_exact_moments(GAMMA23, h, l).method \
            is SigmaMethod.EXACT_MOMENTS
        assert covariance_exact_quadrature(GAMMA23, h, l).method \
            is SigmaMethod.EXACT_QUADRATURE


class TestSigmaFor:
    def test_matches_each_route(self):
        h, l = influence_pair(GAMMA23)
        x = sample(GAMMA23, 500, 9)
        assert sigma_for(SigmaMethod.EXACT_MOMENTS, GAMMA23, h, l) \
            == covariance_exact_moments(GAMMA23, h, l)
        assert sigma_for(SigmaMethod.EXACT_QUADRATURE, GAMMA23, h, l) \
            == covariance_exact_quadrature(GAMMA23, h, l)
        assert sigma_for(SigmaMethod.PLUGIN, GAMMA23, h, l, x) \
            == covariance_plugin(x, h, l)

    def test_refuses_replication(self):
        h, l = influence_pair(GAMMA23)
        with pytest.raises(MomestError, match="use simulate"):
            sigma_for(SigmaMethod.REPLICATION, GAMMA23, h, l,
                      sample(GAMMA23, 50, 9))


class TestPlugin:
    def test_constant_sample(self):
        h, l = influence_pair(GAMMA23)
        sig = covariance_plugin(np.full(10, 0.4), h, l)
        assert sig.s11 == sig.s22 == sig.s12 == 0.0

    def test_two_point_identity_influence(self):
        h = QuadraticInfluence(1.0, 0.0, 0.0)
        x1, x2 = 0.3, 1.9
        sig = covariance_plugin([x1, x2], h, h)
        assert sig.s11 == pytest.approx((x1 - x2) ** 2 / 2.0, rel=1e-14)

    def test_law_of_large_numbers(self):
        h, l = influence_pair(GAMMA23)
        x = sample(GAMMA23, 10**6, 321)
        sig = covariance_plugin(x, h, l)
        assert sig.s11 == pytest.approx(12.0, rel=0.02)
        assert sig.s22 == pytest.approx(31.5, rel=0.02)
        assert sig.s12 == pytest.approx(18.0, rel=0.02)

    def test_needs_two_points(self):
        h, l = influence_pair(GAMMA23)
        with pytest.raises(InsufficientDataError):
            covariance_plugin([1.0], h, l)


class TestReplication:
    def test_identical_arrays_degenerate(self):
        d = np.array([0.5, -1.0, 2.0])
        sig = covariance_replication(d, d)
        assert sig.s11 == sig.s22 == sig.s12
        assert sig.det == pytest.approx(0.0, abs=1e-12)

    def test_hand_arithmetic(self):
        sig = covariance_replication([-1.0, 1.0], [-2.0, 2.0])
        assert (sig.s11, sig.s22, sig.s12) == (2.0, 8.0, 4.0)

    def test_gamma_clt_convergence(self):
        from momest import empirical_moments
        n, reps = 2000, 2000
        dev_a = np.empty(reps)
        dev_b = np.empty(reps)
        for j in range(reps):
            est = estimate(LawKind.GAMMA,
                           empirical_moments(sample(GAMMA23, n, 50_000 + j)))
            dev_a[j] = np.sqrt(n) * (est.a_hat - 2.0)
            dev_b[j] = np.sqrt(n) * (est.b_hat - 3.0)
        sig = covariance_replication(dev_a, dev_b)
        assert sig.s11 == pytest.approx(12.0, rel=0.10)
        assert sig.s22 == pytest.approx(31.5, rel=0.10)
        assert sig.s12 == pytest.approx(18.0, rel=0.10)

    def test_length_mismatch(self):
        with pytest.raises(InsufficientDataError):
            covariance_replication([1.0, 2.0], [1.0])


class TestCovariance2:
    def test_build_validation(self):
        with pytest.raises(DomainError):
            Covariance2.build(-1.0, 2.0, 0.0, SigmaMethod.EXACT_MOMENTS)
        with pytest.raises(DomainError):
            Covariance2.build(1.0, 1.0, 1.5, SigmaMethod.EXACT_MOMENTS)

    def test_tiny_negative_clamped(self):
        sig = Covariance2.build(-1e-15, 1.0, 0.0, SigmaMethod.REPLICATION)
        assert sig.s11 == 0.0

    def test_correlation(self):
        sig = Covariance2.build(4.0, 9.0, 3.0, SigmaMethod.EXACT_MOMENTS)
        assert sig.correlation == pytest.approx(0.5, rel=1e-14)
