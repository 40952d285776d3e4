"""Every per-law refusal, pinned by its exact error class and full message:
parameter validation, the estimator preconditions, the delta-method
gradient guards, the verbatim coefficient guards, the moment-range and
moment-existence errors and the exact-quadrature refusal.

The Beta gradient's "m1 < 1" guard is not listed: m1 > m2 > m1^2 already
implies m1 < 1, so no input reaches it.
"""

import numpy as np
import pytest

from momest import (CoefficientMode, DegenerateSampleError, DomainError,
                    EmpiricalMoments, InfeasibleMomentError, LawKind, LawSpec,
                    MomentDomainError, covariance_exact_quadrature,
                    delta_gradient, estimate, estimate_rows, influence_pair,
                    theoretical_moments)

GAMMA, BETA, UNIFORM, FISHER = (LawKind.GAMMA, LawKind.BETA, LawKind.UNIFORM,
                                LawKind.FISHER)
VERBATIM = CoefficientMode.VERBATIM
NAN, INF = float("nan"), float("inf")


def moments(mean, mean_sq, var_unbiased, var_biased):
    return EmpiricalMoments(n=10, mean=mean, mean_sq=mean_sq,
                            var_unbiased=var_unbiased, var_biased=var_biased)


def quadrature(law):
    return covariance_exact_quadrature(law, *influence_pair(law))


REFUSALS = {
    # LawSpec validation
    "law-nan": (lambda: LawSpec.gamma(NAN, 1.0), DomainError,
                "parameters must be finite, got (nan, 1.0)"),
    "law-inf": (lambda: LawSpec.fisher(2.0, INF), DomainError,
                "parameters must be finite, got (2.0, inf)"),
    "law-str": (lambda: LawSpec.gamma("2", 3), DomainError,
                "parameters must be real numbers, got ('2', 3)"),
    "law-uniform": (lambda: LawSpec.uniform(1.0, 1.0), DomainError,
                    "uniform law requires b > a, got (1.0, 1.0)"),
    "law-gamma": (lambda: LawSpec.gamma(0.0, 1.0), DomainError,
                  "gamma law requires a > 0 and b > 0, got (0.0, 1.0)"),
    "law-beta": (lambda: LawSpec.beta(1.0, -1.0), DomainError,
                 "beta law requires a > 0 and b > 0, got (1.0, -1.0)"),
    "law-fisher": (lambda: LawSpec.fisher(-2.0, 3.0), DomainError,
                   "fisher law requires a > 0 and b > 0, got (-2.0, 3.0)"),
    # estimator preconditions
    "est-gamma-s2": (lambda: estimate(GAMMA, moments(1.0, 1.0, 0.0, 0.0)),
                     DegenerateSampleError,
                     "gamma estimator requires S^2 > 0, got S^2=0.0"),
    "est-beta-vb": (
        lambda: estimate(BETA, moments(0.5, 0.25, 0.0, 0.0)),
        DegenerateSampleError,
        "beta estimator requires a positive biased variance, got 0.0"),
    "est-beta-mean-msq": (
        lambda: estimate(BETA, moments(2.0, 5.0, 1.0, 1.0)),
        DegenerateSampleError,
        "beta estimator requires mean - mean_sq > 0, got -3.0"),
    "est-beta-mean": (lambda: estimate(BETA, moments(1.5, 1.0, 0.1, 0.1)),
                      DegenerateSampleError,
                      "beta estimator requires mean < 1, got 1.5"),
    "est-uniform": (
        lambda: estimate(UNIFORM, moments(1.0, 1.0, -1.0, -1.0)),
        DegenerateSampleError,
        "uniform estimator requires S^2 > 0, got S^2=-1.0"),
    "est-fisher-mean": (
        lambda: estimate(FISHER, moments(0.5, 1.0, 1.0, 1.0)),
        InfeasibleMomentError,
        "fisher estimator requires mean > 1, got 0.5"),
    "est-fisher-denominator": (
        lambda: estimate(FISHER, moments(1.5, 3.0, 0.75, 0.75)),
        DegenerateSampleError,
        "fisher estimator requires S^2 (2 - mean) - mean^2 (mean - 1) > 0, "
        "got -0.75"),
    # delta-method gradient guards
    "grad-gamma-d": (lambda: delta_gradient(GAMMA, 1.0, 1.0), DomainError,
                     "gamma gradient requires m2 > m1^2, got d=0.0"),
    "grad-gamma-d2": (lambda: delta_gradient(GAMMA, 0.0, 1e-200),
                      DomainError,
                      "gamma gradient: d^2 underflows to 0, d=1e-200"),
    "grad-beta-d": (lambda: delta_gradient(BETA, 0.5, 0.25), DomainError,
                    "beta gradient requires m2 > m1^2, got d=0.0"),
    "grad-beta-m1-m2": (lambda: delta_gradient(BETA, 0.5, 0.5), DomainError,
                        "beta gradient requires m1 > m2, got m1-m2=0.0"),
    "grad-beta-d2": (lambda: delta_gradient(BETA, 1e-200, 1e-300),
                     DomainError,
                     "beta gradient: d^2 underflows to 0, d=1e-300"),
    "grad-uniform-d": (lambda: delta_gradient(UNIFORM, 2.0, 4.0),
                       DomainError,
                       "uniform gradient requires m2 > m1^2, got d=0.0"),
    "grad-fisher-m1": (lambda: delta_gradient(FISHER, 1.0, 4.0), DomainError,
                       "fisher gradient requires m1 > 1, got 1.0"),
    "grad-fisher-alpha": (
        lambda: delta_gradient(FISHER, 1.5, 1.0), DomainError,
        "fisher gradient requires (2-m1) m2 - m1^2 > 0, got -1.75"),
    # verbatim coefficient guards
    "verbatim-gamma-s2": (
        lambda: influence_pair(LawSpec.gamma(1e17, 1.0), VERBATIM),
        DomainError, "verbatim coefficients require m2 > m1^2, got 0.0"),
    "verbatim-gamma-s4": (
        lambda: influence_pair(LawSpec.gamma(1e-202, 2.0), VERBATIM),
        DomainError, "gamma verbatim coefficients: sigma^4 underflows to 0, "
                     "sigma^2=2.5e-203"),
    "verbatim-fisher-s2": (
        lambda: influence_pair(LawSpec.fisher(1e20, 1e17), VERBATIM),
        DomainError, "verbatim coefficients require m2 > m1^2, got 0.0"),
    "verbatim-fisher-m1": (
        lambda: influence_pair(LawSpec.fisher(5.0, 1e17), VERBATIM),
        DomainError, "fisher coefficients require m1 > 1, got 1.0"),
    "verbatim-fisher-normalizer": (
        lambda: influence_pair(LawSpec.fisher(69.99999999999979, 7.0),
                               VERBATIM),
        DomainError, "fisher verbatim normalizer vanished"),
    # moment range and existence
    "moments-gamma-range": (
        lambda: theoretical_moments(LawSpec.gamma(1.0, 1e-100)), DomainError,
        "the fourth moment of gamma(1, 1e-100) is out of floating-point "
        "range"),
    "moments-uniform-range": (
        lambda: theoretical_moments(LawSpec.uniform(-1e300, 1e300)),
        DomainError, "the second moment of uniform(-1e+300, 1e+300) is out "
                     "of floating-point range"),
    "moments-fisher-first": (
        lambda: theoretical_moments(LawSpec.fisher(5.0, 2.0)).require(1),
        MomentDomainError, "first moment requires b > 2"),
    "moments-fisher-second": (
        lambda: influence_pair(LawSpec.fisher(5.0, 4.0)), MomentDomainError,
        "second moment requires b > 4"),
    "moments-fisher-fourth": (
        lambda: theoretical_moments(LawSpec.fisher(5.0, 8.0)).require(4),
        MomentDomainError, "fourth moment requires b > 8"),
    # exact quadrature
    "quadrature-beta-b": (
        lambda: quadrature(LawSpec.beta(2.0, 0.5)), DomainError,
        "exact-quadrature sigma needs a density bounded at x = 1, but "
        "beta(2, 0.5) has b = 0.5 < 1; use exact-moments"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("kind", ["cauchy", "gamma", 3], ids=repr)
@pytest.mark.parametrize("call", [
    lambda kind: LawSpec(kind, 2.0, 3.0),
    lambda kind: estimate(kind, moments(2.0, 5.0, 1.0, 1.0)),
    lambda kind: estimate_rows(kind, np.arange(10.0).reshape(2, 5)),
    lambda kind: delta_gradient(kind, 2.0, 5.0),
], ids=["LawSpec", "estimate", "estimate_rows", "delta_gradient"])
def test_unknown_kind_refused(call, kind):
    """A kind that is not a LawKind member, even the string value of one,
    is refused by name instead of computing some other law."""
    with pytest.raises(DomainError) as info:
        call(kind)
    assert type(info.value) is DomainError
    assert str(info.value) == (
        f"law kind must be a LawKind member, got {kind!r}")
