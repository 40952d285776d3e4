"""Empirical moments and the closed-form moment estimators (a_hat, b_hat).

Estimator maps, with Xbar the sample mean, M2 the mean of squares and
S2 the unbiased variance (divisor n-1):

* Gamma:   (Xbar^2 / S2, Xbar / S2)
* Beta:    (Xbar (Xbar - M2) / V, (1 - Xbar)(Xbar - M2) / V) with the
           *biased* variance V = M2 - Xbar^2 in the denominator
* Uniform: Xbar -/+ sqrt(3) * sqrt(S2)
* Fisher:  (2 Xbar^2 / (S2 (2 - Xbar) - Xbar^2 (Xbar - 1)),
            2 Xbar / (Xbar - 1))

Each map is only defined under the positivity conditions checked in
:func:`estimate`; violations raise typed errors naming the condition so that
the Monte-Carlo harness can count infeasible replications.  The conditions
and the maps are written once and evaluate on floats and on arrays alike:
:func:`estimate_rows` applies them to every row of a sample block at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateSampleError, DomainError,
                     InfeasibleMomentError, InsufficientDataError)
from .laws import LawKind

__all__ = [
    "EmpiricalMoments",
    "ParamEstimate",
    "empirical_moments",
    "estimate",
    "estimate_rows",
]

#: sqrt(12)/2, the half-width of a uniform law per standard deviation.
HALF_WIDTH_FACTOR = math.sqrt(3.0)


@dataclass(frozen=True)
class EmpiricalMoments:
    """First two empirical moments of a sample of size n >= 2."""

    n: int
    mean: float
    mean_sq: float
    var_unbiased: float
    var_biased: float


@dataclass(frozen=True)
class ParamEstimate:
    kind: LawKind
    a_hat: float
    b_hat: float
    n: int


def empirical_moments(sample) -> EmpiricalMoments:
    """Mean, mean of squares and both variance flavors of ``sample``.

    Uses the two-pass variance so that var_biased >= 0 holds exactly;
    mean_sq is reconstructed as var_biased + mean^2, keeping the identity
    between the three fields exact in floating point.  Non-finite values,
    and finite values too large for a moment to stay finite, raise
    :class:`DomainError`.
    """
    x = np.asarray(sample, dtype=float)
    if x.ndim != 1:
        x = x.ravel()
    n = x.size
    if n < 2:
        raise InsufficientDataError(
            f"need at least 2 observations, got {n}")
    if not np.isfinite(x).all():
        bad = np.flatnonzero(~np.isfinite(x))
        raise DomainError(
            f"sample has {bad.size} non-finite value(s), the first at "
            f"index {bad[0]}")
    with np.errstate(over="ignore"):  # reported below by name
        mean, var_biased = (float(v[0]) for v in _row_moments(x[None, :]))
    mean_sq, var_unbiased = _derived(mean, var_biased, n)
    moments = {"mean": mean, "var_biased": var_biased, "mean_sq": mean_sq,
               "var_unbiased": var_unbiased}
    for name, value in moments.items():
        if not math.isfinite(value):
            raise DomainError(
                f"sample moment {name} overflowed to {value}: the values are "
                f"too large for double precision")
    return EmpiricalMoments(n=n, **moments)


def _row_moments(x: np.ndarray) -> tuple:
    """Mean and biased two-pass variance of every row of ``x``, bit for bit
    ``np.mean`` and ``np.var``, sharing the first pass."""
    n = x.shape[1]
    mean = np.add.reduce(x, axis=1) / n
    dev = x - mean[:, None]
    dev *= dev
    return mean, np.add.reduce(dev, axis=1) / n


def _derived(mean, var_biased, n: int):
    """(mean_sq, var_unbiased) from the mean and the biased variance."""
    return var_biased + mean * mean, var_biased * n / (n - 1)


def _fisher_denominator(mean, s2):
    return s2 * (2.0 - mean) - mean * mean * (mean - 1.0)


def _conditions(kind: LawKind, mean, msq, s2, vb) -> list:
    """Preconditions of the estimator map of ``kind`` in the order
    :func:`estimate` tests them, as (holds, error class, message, value):
    ``message`` names the condition and takes the offending ``value``."""
    if kind is LawKind.GAMMA:
        return [(s2 > 0.0, DegenerateSampleError,
                 "gamma estimator requires S^2 > 0, got S^2={}", s2)]
    if kind is LawKind.BETA:
        return [
            (vb > 0.0, DegenerateSampleError,
             "beta estimator requires a positive biased variance, got {}",
             vb),
            (mean - msq > 0.0, DegenerateSampleError,
             "beta estimator requires mean - mean_sq > 0, got {}",
             mean - msq),
            (mean < 1.0, DegenerateSampleError,
             "beta estimator requires mean < 1, got {}", mean),
        ]
    if kind is LawKind.UNIFORM:
        # cannot fail with empirical moments, kept as a guard
        return [(np.logical_not(s2 < 0.0), DegenerateSampleError,
                 "negative variance {}", s2)]
    denom = _fisher_denominator(mean, s2)
    return [
        (mean > 1.0, InfeasibleMomentError,
         "fisher estimator requires mean > 1, got {}", mean),
        (denom > 0.0, DegenerateSampleError,
         "fisher estimator requires S^2 (2 - mean) - mean^2 (mean - 1) "
         "> 0, got {}", denom),
    ]


def _estimator_map(kind: LawKind, mean, msq, s2, vb) -> tuple:
    """(a_hat, b_hat) where the conditions of ``kind`` hold."""
    if kind is LawKind.GAMMA:
        return mean * mean / s2, mean / s2
    if kind is LawKind.BETA:
        common = (mean - msq) / vb
        return mean * common, (1.0 - mean) * common
    if kind is LawKind.UNIFORM:
        half = HALF_WIDTH_FACTOR * np.sqrt(s2)
        return mean - half, mean + half
    return (2.0 * mean * mean / _fisher_denominator(mean, s2),
            2.0 * mean / (mean - 1.0))


def estimate(kind: LawKind, em: EmpiricalMoments) -> ParamEstimate:
    """Closed-form moment estimates for ``kind`` from empirical moments."""
    terms = (em.mean, em.mean_sq, em.var_unbiased, em.var_biased)
    for holds, error, message, value in _conditions(kind, *terms):
        if not holds:
            raise error(message.format(value))
    a_hat, b_hat = _estimator_map(kind, *terms)
    return ParamEstimate(kind, float(a_hat), float(b_hat), em.n)


def estimate_rows(kind: LawKind, x) -> tuple:
    """Moment estimates on every row of the 2-D sample block ``x``.

    Returns (a_hat, b_hat, feasible): ``feasible`` marks the rows on which
    :func:`estimate` succeeds, and a_hat/b_hat hold those rows' estimates
    in row order, bit for bit ``estimate(kind, empirical_moments(row))``.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[1]
    if n < 2:
        raise InsufficientDataError(
            f"need at least 2 observations, got {n}")
    mean, var_biased = _row_moments(x)
    terms = (mean, *_derived(mean, var_biased, n), var_biased)
    checks = _conditions(kind, *terms)
    feasible = checks[0][0]
    for holds, *_ in checks[1:]:
        feasible = feasible & holds
    if not feasible.all():
        terms = tuple(t[feasible] for t in terms)
    a_hat, b_hat = _estimator_map(kind, *terms)
    return a_hat, b_hat, feasible
