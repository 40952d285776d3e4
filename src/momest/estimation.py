"""Empirical moments and the closed-form moment estimators (a_hat, b_hat).

The estimator map of each law and its preconditions are written once, in
that law's record in :mod:`momest.laws`, and evaluate on floats and on
arrays alike: :func:`estimate` applies them to one sample's moments and
:func:`estimate_rows` to every row of a sample block at once.
Violations raise typed errors naming the condition so that the
Monte-Carlo harness can count infeasible replications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientDataError
from .laws import LawKind, _family

__all__ = [
    "EmpiricalMoments",
    "ParamEstimate",
    "empirical_moments",
    "estimate",
    "estimate_rows",
]

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

    The mean and var_biased are ``np.mean`` and ``np.var``, whose two-pass
    variance keeps var_biased >= 0 exactly; mean_sq is reconstructed as
    var_biased + mean^2, keeping the identity between the three fields
    exact in floating point.  Non-finite values, and finite values too
    large for a moment to stay finite, raise :class:`DomainError`.
    """
    x = np.asarray(sample, dtype=float).ravel()
    n = x.size
    if n < 2:
        raise InsufficientDataError(
            f"need at least 2 observations, got {n}")
    _require_finite(x)
    with np.errstate(over="ignore"):  # reported below by name
        mean, var_biased = float(np.mean(x)), float(np.var(x))
    mean_sq, var_unbiased = _derived(mean, var_biased, n)
    moments = {"mean": mean, "var_biased": var_biased, "mean_sq": mean_sq,
               "var_unbiased": var_unbiased}
    for name, value in moments.items():
        if not math.isfinite(value):
            raise DomainError(
                f"sample moment {name} overflowed to {value}: the values are "
                f"too large for double precision")
    return EmpiricalMoments(n=n, **moments)


def _require_finite(x: np.ndarray) -> None:
    """Raises :class:`DomainError` naming how many values of the flat
    array ``x`` are not finite and the index of the first."""
    if not np.isfinite(x).all():
        bad = np.flatnonzero(~np.isfinite(x))
        raise DomainError(
            f"sample has {bad.size} non-finite value(s), the first at "
            f"index {bad[0]}")


def _derived(mean, var_biased, n: int):
    """(mean_sq, var_unbiased) from the mean and the biased variance."""
    return var_biased + mean * mean, var_biased * n / (n - 1)


def estimate(kind: LawKind, em: EmpiricalMoments) -> ParamEstimate:
    """Closed-form moment estimates for ``kind`` from empirical moments."""
    family = _family(kind)
    terms = (em.mean, em.mean_sq, em.var_unbiased, em.var_biased)
    for holds, error, message, value in family.conditions(*terms):
        if not holds:
            raise error(message.format(value))
    a_hat, b_hat = family.estimator(*terms)
    return ParamEstimate(kind, float(a_hat), float(b_hat), em.n)


def estimate_rows(kind: LawKind, x) -> tuple:
    """Moment estimates on every row of the 2-D sample block ``x``.

    Returns (a_hat, b_hat, feasible): ``feasible`` marks the rows on which
    :func:`estimate` succeeds, and a_hat/b_hat hold those rows' estimates
    in row order, bit for bit ``estimate(kind, empirical_moments(row))``:
    both take a row's moments from ``np.mean`` and ``np.var``.
    """
    family = _family(kind)
    x = np.asarray(x, dtype=float)
    n = x.shape[1]
    if n < 2:
        raise InsufficientDataError(
            f"need at least 2 observations, got {n}")
    mean, var_biased = np.mean(x, axis=1), np.var(x, axis=1)
    terms = (mean, *_derived(mean, var_biased, n), var_biased)
    checks = family.conditions(*terms)
    feasible = checks[0][0]
    for holds, *_ in checks[1:]:
        feasible = feasible & holds
    a_hat, b_hat = family.estimator(*(t[feasible] for t in terms))
    return a_hat, b_hat, feasible
