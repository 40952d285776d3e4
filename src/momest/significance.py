"""Marginal Gaussian tests per parameter and the joint omnibus chi-square
test on both: ``momest test`` runs them on one estimate, the Monte-Carlo
harness on arrays of estimates, and both reject when p < ALPHA, strictly."""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .asymptotics import Covariance2
from .errors import DomainError, SingularCovarianceError
from .special import chisq_sf, normal_sf

__all__ = ["TestReport", "marginal_test", "omnibus_test"]

ALPHA = 0.05


@dataclass(frozen=True)
class TestReport:
    """Outcome of one test.  ``df`` is 2 for the omnibus statistic and the
    sentinel 0 for marginal statistics (standard normal reference)."""

    statistic: float
    df: int
    p_value: float
    reject_at_5pct: bool
    sigma_method: str = ""


def _marginal_core(theta_hat, theta0: float, var_entry: float, n: int):
    """z and its two-sided normal p-value, elementwise."""
    z = (n / var_entry) ** 0.5 * (theta_hat - theta0)
    return z, 2.0 * normal_sf(np.abs(z))


def _omnibus_core(a_hat, b_hat, a0: float, b0: float, n: int,
                  sigma: Covariance2):
    """Q, clipped at 0, and its chi-square(2) p-value, elementwise."""
    da = a_hat - a0
    db = b_hat - b0
    q = (n / sigma.det) * (sigma.s22 * da * da + sigma.s11 * db * db
                           - 2.0 * sigma.s12 * da * db)
    q = np.maximum(q, 0.0)
    return q, chisq_sf(q, 2)


def _rejects(p):
    return p < ALPHA


def _need_finite(test: str, **values: float) -> None:
    """Refuses an estimate or null value that is NaN or infinite, naming
    it: the statistic would be NaN or inf, and a NaN p-value accepts."""
    for name, value in values.items():
        if not isfinite(value):
            raise DomainError(f"{test} requires a finite {name}, got {value}")


def _usable_variance(var_entry: float) -> bool:
    """A variance entry a marginal test can divide by: 0 < var < inf."""
    return 0.0 < var_entry < np.inf


def marginal_test(theta_hat: float, theta0: float, var_entry: float,
                  n: int, sigma_method: str = "") -> TestReport:
    """Two-sided Gaussian test of one parameter.

    Statistic z = sqrt(n / var_entry) (theta_hat - theta0) with var_entry
    the matching diagonal entry of the asymptotic covariance.
    """
    if not _usable_variance(var_entry):
        raise DomainError(
            f"marginal test requires a positive finite variance entry, got "
            f"{var_entry}")
    if n < 2:
        raise DomainError(f"marginal test requires n >= 2, got {n}")
    _need_finite("marginal test", theta_hat=theta_hat, theta0=theta0)
    z, p = _marginal_core(theta_hat, theta0, var_entry, n)
    return TestReport(statistic=float(z), df=0, p_value=float(p),
                      reject_at_5pct=bool(_rejects(p)),
                      sigma_method=sigma_method)


def det_floor(sigma: Covariance2) -> float:
    """Relative singularity guard below which the joint test is refused."""
    return 1e-12 * max(1.0, sigma.s11 * sigma.s22)


def omnibus_test(a_hat: float, b_hat: float, a0: float, b0: float,
                 n: int, sigma: Covariance2) -> TestReport:
    """Joint chi-square test of both parameters.

    Q = n / det [ s22 (a_hat-a0)^2 + s11 (b_hat-b0)^2
                  - 2 s12 (a_hat-a0)(b_hat-b0) ]
    has a chi-square(2) limit when sigma is nonsingular; a sigma whose det
    is not above :func:`det_floor` (a NaN det never is) is refused.
    """
    if n < 2:
        raise DomainError(f"omnibus test requires n >= 2, got {n}")
    _need_finite("omnibus test", a_hat=a_hat, b_hat=b_hat, a0=a0, b0=b0)
    if not sigma.det > det_floor(sigma):
        raise SingularCovarianceError(
            f"covariance too close to singular for a joint test "
            f"(det={sigma.det}, floor={det_floor(sigma)})")
    q, p = _omnibus_core(a_hat, b_hat, a0, b0, n, sigma)
    return TestReport(statistic=float(q), df=2, p_value=float(p),
                      reject_at_5pct=bool(_rejects(p)),
                      sigma_method=sigma.method.value)
