"""Special functions and one-dimensional trapezoid quadrature.

The cumulative/inverse functions sit behind a small validated API.  They
accept scalars or numpy arrays and return matching shapes, and every one of
them is cross-checked in the test suite against brute-force quadrature of
the defining integrals.

* The normal functions :func:`normal_cdf`, :func:`normal_sf` and
  :func:`normal_quantile` are ports of Cephes ``ndtr`` (with its ``erf`` and
  ``erfc``) and ``ndtri`` (S. L. Moshier, *Cephes Math Library*, ``ndtr.c``
  and ``ndtri.c``), the code behind ``scipy.special.ndtr`` and ``ndtri``,
  and the test suite holds them bit for bit to scipy.  They evaluate one
  value at a time on Python floats and call libm's ``exp``, ``log`` and
  ``sqrt`` through :mod:`math`, as the C code does; numpy's own ``exp`` and
  ``log`` round differently from libm on some arguments, so a vectorised
  port would not keep scipy's bits.
* The gamma and beta functions and the chi-square cdf, survival and
  quantile with df != 2 wrap scipy.special.  scipy is imported on the first
  call that needs it (:func:`_sp`), so a process that calls none of them,
  such as ``momest estimate``, ``momest test`` with an exact-moments or
  plugin Σ, or a study with the default Σ, never loads it.

The trapezoid integrator is implemented here directly because the whole
exact-coefficient pipeline is specified in terms of panel-doubling
trapezoid sums.  :func:`trapezoid_integrate` and the exact-quadrature Σ
route run the same integrator, :func:`_trapezoid_rows`, which integrates
several integrands on shared nodes; one integrand is its one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

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


def _sp():
    """``scipy.special``, imported on first use."""
    from scipy import special
    return special


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
    return _finish(_sp().gammaln(xs), scalar)


def reg_inc_gamma(a: float, x: ArrayLike) -> ArrayLike:
    """Lower regularized incomplete gamma P(a, x), in [0, 1]."""
    if not a > 0.0:
        raise DomainError(f"reg_inc_gamma requires a > 0, got a={a}")
    xs, scalar = _prepare(x)
    if not np.all(xs >= 0.0):
        raise DomainError(f"reg_inc_gamma requires x >= 0, got x={x}")
    return _finish(_sp().gammainc(a, xs), scalar)


def reg_inc_gamma_inv(a: float, p: ArrayLike) -> ArrayLike:
    """Inverse of ``reg_inc_gamma`` in its second argument, p in [0, 1)."""
    if not a > 0.0:
        raise DomainError(f"reg_inc_gamma_inv requires a > 0, got a={a}")
    ps, scalar = _prepare(p)
    if not np.all((ps >= 0.0) & (ps < 1.0)):
        raise DomainError(f"reg_inc_gamma_inv requires p in [0, 1), got {p}")
    return _finish(_sp().gammaincinv(a, ps), scalar)


def reg_inc_beta(a: float, b: float, x: ArrayLike) -> ArrayLike:
    """Regularized incomplete beta I_x(a, b), in [0, 1]."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"reg_inc_beta requires a, b > 0, got a={a}, b={b}")
    xs, scalar = _prepare(x)
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise DomainError(f"reg_inc_beta requires x in [0, 1], got x={x}")
    return _finish(_sp().betainc(a, b, xs), scalar)


def reg_inc_beta_inv(a: float, b: float, p: ArrayLike) -> ArrayLike:
    """Inverse of ``reg_inc_beta`` in x, p in [0, 1]."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(
            f"reg_inc_beta_inv requires a, b > 0, got a={a}, b={b}")
    ps, scalar = _prepare(p)
    if not np.all((ps >= 0.0) & (ps <= 1.0)):
        raise DomainError(f"reg_inc_beta_inv requires p in [0, 1], got {p}")
    return _finish(_sp().betaincinv(a, b, ps), scalar)


def normal_cdf(z: ArrayLike) -> ArrayLike:
    """Standard normal cumulative distribution function."""
    zs, scalar = _prepare(z)
    return _finish(_each(_ndtr, zs), scalar)


def normal_sf(z: ArrayLike) -> ArrayLike:
    """Standard normal survival 1 - Phi(z), computed without cancellation."""
    zs, scalar = _prepare(z)
    return _finish(_each(_ndtr, -zs), scalar)


def normal_quantile(u: ArrayLike) -> ArrayLike:
    """Standard normal quantile, u strictly inside (0, 1)."""
    us, scalar = _prepare(u)
    if not np.all((us > 0.0) & (us < 1.0)):
        raise DomainError(f"normal_quantile requires u in (0, 1), got {u}")
    return _finish(_each(_ndtri, us), scalar)


def _each(f: Callable[[float], float], xs: np.ndarray) -> np.ndarray:
    """The scalar function ``f`` at each value of ``xs``, same shape."""
    return np.fromiter(map(f, xs.ravel().tolist()), float,
                       xs.size).reshape(xs.shape)


# Cephes ndtr.c and ndtri.c (S. L. Moshier, Cephes Math Library), the code
# behind scipy.special.ndtr and ndtri: the same coefficient tables, Horner
# sums and branch points, with libm's exp, log and sqrt through ``math``.

#: Largest x with exp(-x) > 0 in Cephes (MAXLOG = log(DBL_MAX)).
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 7.07106781186547524401e-1
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)

# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, and R(x) / S(x) past 8
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
# erf(x) = x T(x^2) / U(x^2) for |x| <= 1
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
# ndtri: |y - 1/2| <= 3/8 by P0/Q0; then, with x = sqrt(-2 log y), 2 <= x < 8
# by P1/Q1 and 8 <= x <= 64 by P2/Q2
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
             3.93881025292474443415e0, 1.33303460815807542389e0,
             2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6,
             6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1,
             1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: float, coef: tuple) -> float:
    """Horner sum of ``coef``, highest degree first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple) -> float:
    """:func:`_polevl` with an implied leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    """Cephes ``erf``, for |x| <= 1 (the only calls :func:`_ndtr` makes)."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc(a: float) -> float:
    """Cephes ``erfc``, for a >= 0 (the only calls :func:`_ndtr` makes)."""
    if a < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:
        return 0.0
    z = math.exp(z)
    if a < 8.0:
        p, q = _polevl(a, _ERFC_P), _p1evl(a, _ERFC_Q)
    else:
        p, q = _polevl(a, _ERFC_R), _p1evl(a, _ERFC_S)
    return (z * p) / q


def _ndtr(a: float) -> float:
    """Cephes ``ndtr``: the standard normal cdf at ``a``."""
    if a != a:
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0.0 else y


def _ndtri(y0: float) -> float:
    """Cephes ``ndtri``: the standard normal quantile at y0 in (0, 1)."""
    negate = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2)
    x = x0 - x1
    return -x if negate else x


def chisq_cdf(x: ArrayLike, df: int) -> ArrayLike:
    """Chi-square cdf; the df=2 case is the closed form 1 - exp(-x/2)."""
    _check_df(df)
    xs, scalar = _prepare(x)
    if not np.all(xs >= 0.0):
        raise DomainError(f"chisq_cdf requires x >= 0, got {x}")
    if df == 2:
        return _finish(-np.expm1(-0.5 * xs), scalar)
    return _finish(_sp().gammainc(0.5 * df, 0.5 * xs), scalar)


def chisq_sf(x: ArrayLike, df: int) -> ArrayLike:
    """Chi-square survival function, accurate in the far tail."""
    _check_df(df)
    xs, scalar = _prepare(x)
    if not np.all(xs >= 0.0):
        raise DomainError(f"chisq_sf requires x >= 0, got {x}")
    if df == 2:
        return _finish(np.exp(-0.5 * xs), scalar)
    return _finish(_sp().gammaincc(0.5 * df, 0.5 * xs), scalar)


def chisq_quantile(u: ArrayLike, df: int) -> ArrayLike:
    """Chi-square quantile, u in [0, 1)."""
    _check_df(df)
    us, scalar = _prepare(u)
    if not np.all((us >= 0.0) & (us < 1.0)):
        raise DomainError(f"chisq_quantile requires u in [0, 1), got {u}")
    if df == 2:
        return _finish(-2.0 * np.log1p(-us), scalar)
    return _finish(2.0 * _sp().gammaincinv(0.5 * df, us), scalar)


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
