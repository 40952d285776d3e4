"""Special functions and one-dimensional trapezoid quadrature.

The cumulative/inverse functions wrap scipy.special behind a small validated
API; every one of them is cross-checked in the test suite against brute-force
quadrature of the defining integrals.  They accept scalars or numpy arrays
and return matching shapes.  The trapezoid integrator is implemented here
directly because the whole exact-coefficient pipeline is specified in terms
of panel-doubling trapezoid sums.  :func:`trapezoid_integrate` and the
exact-quadrature Σ route run the same integrator, :func:`_trapezoid_rows`,
which integrates several integrands on shared nodes; one integrand is its
one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy import special as _sp

from .errors import DomainError, QuadratureError

__all__ = [
    "QuadratureConfig",
    "DEFAULT_QUAD_CONFIG",
    "ln_gamma",
    "reg_inc_gamma",
    "reg_inc_beta",
    "normal_cdf",
    "normal_sf",
    "normal_quantile",
    "chisq_cdf",
    "chisq_sf",
    "chisq_quantile",
    "trapezoid_integrate",
]

ArrayLike = Union[float, np.ndarray]


def _prepare(x: ArrayLike) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _finish(arr: np.ndarray, scalar: bool) -> ArrayLike:
    return float(arr) if scalar else arr


def ln_gamma(x: ArrayLike) -> ArrayLike:
    """Natural log of the Gamma function, for x > 0."""
    xs, scalar = _prepare(x)
    if not np.all(xs > 0.0):
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return _finish(_sp.gammaln(xs), scalar)


def reg_inc_gamma(a: float, x: ArrayLike) -> ArrayLike:
    """Lower regularized incomplete gamma P(a, x), in [0, 1]."""
    if not a > 0.0:
        raise DomainError(f"reg_inc_gamma requires a > 0, got a={a}")
    xs, scalar = _prepare(x)
    if not np.all(xs >= 0.0):
        raise DomainError(f"reg_inc_gamma requires x >= 0, got x={x}")
    return _finish(_sp.gammainc(a, xs), scalar)


def reg_inc_gamma_inv(a: float, p: ArrayLike) -> ArrayLike:
    """Inverse of ``reg_inc_gamma`` in its second argument, p in [0, 1)."""
    if not a > 0.0:
        raise DomainError(f"reg_inc_gamma_inv requires a > 0, got a={a}")
    ps, scalar = _prepare(p)
    if not np.all((ps >= 0.0) & (ps < 1.0)):
        raise DomainError(f"reg_inc_gamma_inv requires p in [0, 1), got {p}")
    return _finish(_sp.gammaincinv(a, ps), scalar)


def reg_inc_beta(a: float, b: float, x: ArrayLike) -> ArrayLike:
    """Regularized incomplete beta I_x(a, b), in [0, 1]."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"reg_inc_beta requires a, b > 0, got a={a}, b={b}")
    xs, scalar = _prepare(x)
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise DomainError(f"reg_inc_beta requires x in [0, 1], got x={x}")
    return _finish(_sp.betainc(a, b, xs), scalar)


def reg_inc_beta_inv(a: float, b: float, p: ArrayLike) -> ArrayLike:
    """Inverse of ``reg_inc_beta`` in x, p in [0, 1]."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(
            f"reg_inc_beta_inv requires a, b > 0, got a={a}, b={b}")
    ps, scalar = _prepare(p)
    if not np.all((ps >= 0.0) & (ps <= 1.0)):
        raise DomainError(f"reg_inc_beta_inv requires p in [0, 1], got {p}")
    return _finish(_sp.betaincinv(a, b, ps), scalar)


def normal_cdf(z: ArrayLike) -> ArrayLike:
    """Standard normal cumulative distribution function."""
    zs, scalar = _prepare(z)
    return _finish(_sp.ndtr(zs), scalar)


def normal_sf(z: ArrayLike) -> ArrayLike:
    """Standard normal survival 1 - Phi(z), computed without cancellation."""
    zs, scalar = _prepare(z)
    return _finish(_sp.ndtr(-zs), scalar)


def normal_quantile(u: ArrayLike) -> ArrayLike:
    """Standard normal quantile, u strictly inside (0, 1)."""
    us, scalar = _prepare(u)
    if not np.all((us > 0.0) & (us < 1.0)):
        raise DomainError(f"normal_quantile requires u in (0, 1), got {u}")
    return _finish(_sp.ndtri(us), scalar)


def chisq_cdf(x: ArrayLike, df: int) -> ArrayLike:
    """Chi-square cdf; the df=2 case is the closed form 1 - exp(-x/2)."""
    _check_df(df)
    xs, scalar = _prepare(x)
    if not np.all(xs >= 0.0):
        raise DomainError(f"chisq_cdf requires x >= 0, got {x}")
    if df == 2:
        return _finish(-np.expm1(-0.5 * xs), scalar)
    return _finish(_sp.gammainc(0.5 * df, 0.5 * xs), scalar)


def chisq_sf(x: ArrayLike, df: int) -> ArrayLike:
    """Chi-square survival function, accurate in the far tail."""
    _check_df(df)
    xs, scalar = _prepare(x)
    if not np.all(xs >= 0.0):
        raise DomainError(f"chisq_sf requires x >= 0, got {x}")
    if df == 2:
        return _finish(np.exp(-0.5 * xs), scalar)
    return _finish(_sp.gammaincc(0.5 * df, 0.5 * xs), scalar)


def chisq_quantile(u: ArrayLike, df: int) -> ArrayLike:
    """Chi-square quantile, u in [0, 1)."""
    _check_df(df)
    us, scalar = _prepare(u)
    if not np.all((us >= 0.0) & (us < 1.0)):
        raise DomainError(f"chisq_quantile requires u in [0, 1), got {u}")
    if df == 2:
        return _finish(-2.0 * np.log1p(-us), scalar)
    return _finish(2.0 * _sp.gammaincinv(0.5 * df, us), scalar)


def _check_df(df: int) -> None:
    if not (isinstance(df, (int, np.integer)) and df >= 1):
        raise DomainError(
            f"degrees of freedom must be a positive integer, got {df}")


@dataclass(frozen=True)
class QuadratureConfig:
    """Panel-doubling trapezoid settings.

    ``panels`` is the initial uniform subdivision count, ``tol`` the absolute
    stopping tolerance on successive doubled estimates, ``max_doublings`` the
    refinement cap.
    """

    panels: int = 100
    tol: float = 1e-8
    max_doublings: int = 16

    def __post_init__(self) -> None:
        if self.panels < 2:
            raise DomainError(f"panels must be >= 2, got {self.panels}")
        if not self.tol > 0.0:
            raise DomainError(f"tol must be > 0, got {self.tol}")
        if self.max_doublings < 1:
            raise DomainError(
                f"max_doublings must be >= 1, got {self.max_doublings}")


#: Accurate default used everywhere in the library.
DEFAULT_QUAD_CONFIG = QuadratureConfig()


def trapezoid_integrate(
    f: Callable,
    lo: float,
    hi: float,
    cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG,
) -> float:
    """Composite trapezoid rule with panel doubling: the one-row case of
    :func:`_trapezoid_rows` with the absolute tolerance ``cfg.tol``.

    ``f`` must be vectorised: it maps an array of abscissae to an array of
    the same shape, and any other shape raises :class:`DomainError`.
    Raises :class:`QuadratureError` if the integrand is non-finite at a
    node, or if a sum of its finite values overflows.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"need finite lo < hi, got lo={lo}, hi={hi}")

    def row(xs: np.ndarray) -> np.ndarray:
        ys = np.asarray(f(xs), dtype=float)
        if ys.shape != xs.shape:
            raise DomainError(
                f"integrand returned shape {ys.shape} on a grid of shape "
                f"{xs.shape}; it must be vectorised")
        return ys[None, :]

    total, _ = _trapezoid_rows(row, lo, hi, np.array([cfg.tol]), cfg)
    return float(total[0])


def _trapezoid_rows(f: Callable, lo: float, hi: float, tol,
                    cfg: QuadratureConfig) -> tuple:
    """Panel-doubling trapezoid sums on [lo, hi] of every row of the
    vectorised integrand ``f``, which maps a node array to one row of
    values per integrand.

    The sums start from ``cfg.panels`` uniform panels.  Each doubling
    evaluates ``f`` on the midpoints of the current panels only and halves
    the panel width.  Row k stops at the first doubling that moves its
    estimate by less than ``tol[k]``, or ``cfg.tol * max(1, |first
    estimate|)`` when ``tol`` is None; every row stops after
    ``cfg.max_doublings`` doublings, and the last estimate is kept either
    way.  Raises :class:`QuadratureError` at the first non-finite value,
    or when a sum of finite values overflows.
    Returns the sums and tolerances.
    """
    n = cfg.panels
    xs = np.linspace(lo, hi, n + 1)
    ys = f(xs)
    h = (hi - lo) / n
    with np.errstate(over="ignore"):  # _finite raises on an overflow
        total = h * (0.5 * ys[:, 0] + ys[:, 1:-1].sum(axis=1)
                     + 0.5 * ys[:, -1])
    total = _finite(total, xs, ys)
    if tol is None:
        tol = cfg.tol * np.maximum(1.0, np.abs(total))
    active = np.arange(total.size)
    for _ in range(cfg.max_doublings):
        mids = lo + h * (np.arange(n) + 0.5)
        ym = f(mids)
        if active.size < total.size:
            ym = ym[active]
        with np.errstate(over="ignore"):
            refined = 0.5 * (total[active] + h * ym.sum(axis=1))
        refined = _finite(refined, mids, ym)
        diff = np.abs(refined - total[active])
        total[active] = refined
        n *= 2
        h *= 0.5
        active = active[~(diff < tol[active])]
        if not active.size:
            break
    return total, tol


def _finite(reduced: np.ndarray, xs: np.ndarray, ys: np.ndarray
            ) -> np.ndarray:
    """``reduced``, computed from the rows of integrand values ``ys`` at
    nodes ``xs``, once it is found finite.  A non-finite value makes its
    row's result non-finite, so the values are searched only when a result
    is; when every value is finite, a sum overflowed."""
    if not np.isfinite(reduced).all():
        bad = ~np.isfinite(ys)
        if bad.any():
            x_bad = float(xs[np.argwhere(bad)[0, -1]])
            raise QuadratureError(
                f"integrand is not finite at x={x_bad!r}", abscissa=x_bad)
        row = int(np.argmax(~np.isfinite(reduced)))
        x_big = float(xs[np.argmax(np.abs(ys[row]))])
        raise QuadratureError(
            f"trapezoid sum overflowed; the integrand is largest in "
            f"magnitude at x={x_big!r}", abscissa=x_big)
    return reduced
