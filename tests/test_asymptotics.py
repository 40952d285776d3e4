"""Influence coefficients, delta-method gradients and the four covariance
routes, all pinned against independently derived values.

Frozen matrices below were recomputed symbolically (exact fractions) from
the quartic-moment bilinear form Var(c1 X + c2 X^2) = c1^2 Var X
+ 2 c1 c2 Cov(X, X^2) + c2^2 Var X^2 before this module was written.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momest import (CoefficientMode, Covariance2, DomainError,
                    EmpiricalMoments, InsufficientDataError, LawKind, LawSpec,
                    MomentDomainError, MomestError, QuadraticInfluence,
                    QuadratureError, SigmaMethod, covariance_exact_moments,
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

    @pytest.mark.parametrize("law", [LawSpec.beta(1e-300, 2.0),
                                     LawSpec.gamma(1e-300, 1.0)], ids=str)
    def test_squared_variance_underflow(self, law):
        """d > 0 whose square underflows to 0 would divide by zero."""
        m = theoretical_moments(law)
        with pytest.raises(DomainError, match="d\\^2 underflows to 0"):
            delta_gradient(law.kind, m.require(1), m.require(2))


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
        from momest.asymptotics import _expectations
        from momest.special import DEFAULT_QUAD_CONFIG
        h, l = influence_pair(law)
        for infl in (h, l):
            (mean,) = _expectations(law, lambda x: infl.evaluate(x)[None],
                                    DEFAULT_QUAD_CONFIG)
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

    @pytest.mark.parametrize("law", [LawSpec.beta(7.0, 0.7),
                                     LawSpec.beta(2.0, 0.5)], ids=str)
    def test_refuses_density_unbounded_at_one(self, law):
        """Beta(7, 0.7) once gave s11 = -862 (exact-moments: 203.8) and
        Beta(2, 0.5) a non-finite integrand at x = 1; both are refused
        before any integration, and exact-moments still answers."""
        h, l = influence_pair(law)
        with pytest.raises(DomainError, match=r"exact-quadrature .* b = "
                           r"\S+ < 1; use exact-moments"):
            sigma_for(SigmaMethod.EXACT_QUADRATURE, law, h, l)
        assert sigma_for(SigmaMethod.EXACT_MOMENTS, law, h, l).s11 > 0.0

    @pytest.mark.parametrize("b", [8.01, 8.1, 8.5])
    def test_heavy_fisher_tail_refused(self, b):
        """Up to about b = 8.8 the fourth-moment integrand of Fisher(5, b)
        decays too slowly for the tail blocks: the result was once returned
        truncated (s11 off by -80% at b = 8.01, -11% at 8.1), now it is
        refused, and exact-moments still answers."""
        law = LawSpec.fisher(5.0, b)
        h, l = influence_pair(law)
        with pytest.raises(QuadratureError, match=rf"fisher\(5, {b}\): the "
                           r"upper tail has not settled .* use exact-moments"):
            covariance_exact_quadrature(law, h, l)
        assert covariance_exact_moments(law, h, l).s11 > 0.0

    def test_density_unbounded_at_zero_converges(self):
        law = LawSpec.beta(0.5, 2.0)
        h, l = influence_pair(law)
        ref = covariance_exact_moments(law, h, l)
        quad = sigma_for(SigmaMethod.EXACT_QUADRATURE, law, h, l)
        assert quad.s11 == pytest.approx(ref.s11, rel=1e-3)
        assert quad.s22 == pytest.approx(ref.s22, rel=1e-3)

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

    EXACT_ROUTES = (SigmaMethod.EXACT_MOMENTS, SigmaMethod.EXACT_QUADRATURE)

    @pytest.mark.parametrize("method", EXACT_ROUTES, ids=lambda m: m.value)
    @pytest.mark.parametrize("b", (5.0, 7.0, 8.0))
    def test_exact_routes_share_moment_guard(self, method, b):
        """Both exact routes refuse a Fisher law without a fourth moment
        with the same message, and take a pair whose c2 are both zero,
        which needs only the second moment: Var L = 180 at b = 5."""
        law = LawSpec.fisher(5.0, b)
        h, l = influence_pair(law)
        with pytest.raises(MomentDomainError,
                           match=r"^fourth moment requires b > 8$"):
            sigma_for(method, law, h, l)
        assert l.c2 == 0.0
        sig = sigma_for(method, law, l, l)
        want = covariance_exact_moments(law, l, l)
        assert sig.s11 == pytest.approx(want.s11, rel=1e-7)
        if b == 5.0:
            assert sig.s11 == pytest.approx(180.0, rel=1e-7)


def feasible_laws(shape_lo):
    """Laws with a fourth moment; shapes from ``shape_lo`` up."""
    shape = st.floats(shape_lo, 8.0)
    return st.one_of(
        st.builds(LawSpec.gamma, shape, st.floats(0.2, 5.0)),
        st.builds(LawSpec.beta, shape, shape),
        st.builds(lambda lo, width: LawSpec.uniform(lo, lo + width),
                  st.floats(-5.0, 5.0), st.floats(0.01, 10.0)),
        st.builds(LawSpec.fisher, st.floats(max(shape_lo, 1.0), 10.0),
                  st.floats(8.5, 30.0)),
    )


def assert_psd(sig):
    assert sig.s11 >= 0.0 and sig.s22 >= 0.0
    assert sig.det >= -1e-9 * sig.s11 * sig.s22


class TestSigmaPSD:
    @settings(max_examples=60, deadline=None)
    @given(law=feasible_laws(0.3), mode=st.sampled_from(CoefficientMode),
           n=st.integers(2, 300), seed=st.integers(0, 2 ** 64 - 1))
    def test_exact_moments_and_plugin(self, law, mode, n, seed):
        h, l = influence_pair(law, mode)
        assert_psd(sigma_for(SigmaMethod.EXACT_MOMENTS, law, h, l))
        assert_psd(sigma_for(SigmaMethod.PLUGIN, law, h, l,
                             sample(law, n, seed)))

    @settings(max_examples=20, deadline=None)
    @given(law=feasible_laws(2.0), mode=st.sampled_from(CoefficientMode))
    def test_exact_quadrature(self, law, mode):
        """Shapes from 2 keep each density and its slope bounded, so that
        the quadrature converges in milliseconds."""
        h, l = influence_pair(law, mode)
        try:
            sig = sigma_for(SigmaMethod.EXACT_QUADRATURE, law, h, l)
        except QuadratureError as exc:
            # a Fisher b close to 8 runs out of tail blocks
            assert law.kind is LawKind.FISHER
            assert "upper tail has not settled" in str(exc)
            return
        assert_psd(sig)


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

    @pytest.mark.parametrize("entries", [
        (float("nan"), 1.0, 0.0), (1.0, float("inf"), 0.0),
        (1.0, 1.0, float("nan")), (float("inf"), float("inf"), 0.0)])
    def test_build_refuses_non_finite(self, entries):
        with pytest.raises(DomainError, match="finite"):
            Covariance2.build(*entries, SigmaMethod.PLUGIN)

    @pytest.mark.parametrize("entries,message", [
        ((-1.0, 2.0, 0.0), "negative variance entries: s11=-1.0, s22=2.0"),
        ((1.0, 1.0, 1.5), "covariance violates |s12| <= sqrt(s11 s22): "
                          "s11=1.0, s22=1.0, s12=1.5"),
        ((-1e-15, 1.0, 0.5), "covariance violates |s12| <= sqrt(s11 s22): "
                             "s11=0.0, s22=1.0, s12=0.5"),
        ((float("nan"), 1.0, 0.0), "covariance entries must be finite, got "
                                   "s11=nan, s22=1.0, s12=0.0"),
    ])
    def test_build_refusal_texts(self, entries, message):
        with pytest.raises(DomainError) as excinfo:
            Covariance2.build(*entries, SigmaMethod.EXACT_MOMENTS)
        assert str(excinfo.value) == message

    def test_tiny_negative_clamped(self):
        sig = Covariance2.build(-1e-15, 1.0, 0.0, SigmaMethod.REPLICATION)
        assert sig.s11 == 0.0

    def test_negative_zero_entry_comes_out_positive(self):
        sig = Covariance2.build(-0.0, -0.0, 0.0, SigmaMethod.PLUGIN)
        assert math.copysign(1.0, sig.s11) == 1.0
        assert math.copysign(1.0, sig.s22) == 1.0
        assert type(sig.s11) is float and type(sig.det) is float

    def test_correlation(self):
        sig = Covariance2.build(4.0, 9.0, 3.0, SigmaMethod.EXACT_MOMENTS)
        assert sig.correlation == pytest.approx(0.5, rel=1e-14)
