"""Influence functions of the moment estimators and their 2x2 asymptotic
covariance, computed four ways.

Both estimator coordinates are smooth functions g(m1, m2) of the first two
raw moments, so sqrt(n)(theta_hat - theta) is asymptotically the centered
empirical average of the quadratic influence function

    c1 * x + c2 * x^2 - E[c1 X + c2 X^2],
    (c1, c2) = (dg/dm1, dg/dm2) at the true moments.

``H`` always denotes the influence of a_hat and ``L`` that of b_hat.

Coefficient modes:

* ``canonical`` computes (c1, c2) as the exact delta-method gradient of the
  estimator map, independently cross-checked against finite differences in
  the test suite.
* ``verbatim`` reproduces a historical printed coefficient set for
  comparison tables.  For the Gamma H it carries a known slip -- the factor
  2 mu (sigma^2 + 1) / sigma^4 where the true gradient has
  2 mu (sigma^2 + mu^2) / sigma^4 -- and for the Fisher H the normalizing
  denominator is likewise off; both are kept exactly as printed on purpose.
  The printed Beta and Uniform coefficients are the canonical gradient: a
  law record without verbatim coefficients uses its gradient.

The four covariance routes:

* exact-moments: closed-form bilinear form in (c1, c2) and the raw moments
  m1..m4 (the independent oracle for everything else),
* exact-quadrature: trapezoid integration of the influence functions against
  the density over the truncated support [Q(eps), Q(1-eps)], eps = 1e-9,
  with geometric upper-tail extension for unbounded supports; the five
  integrals E[H], E[L], E[H^2], E[L^2] and E[HL] share every node array and
  its density values, and each stops at its own tolerance; an E[H] or E[L]
  that misses its closed form c1 m1 + c2 m2 is refused,
* plugin: sample variance/covariance of the influence values on one sample
  (:func:`plugin_rows` computes it for every row of a sample block),
* replication: sample covariance of replicated sqrt(n) deviations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (DomainError, InsufficientDataError, MomestError,
                     QuadratureError)
from .laws import (LawKind, LawSpec, _density_over, _family, _member,
                   _need, _parse, quantile, theoretical_moments)
from .rng import Workspace
from .special import DEFAULT_QUAD_CONFIG, QuadratureConfig, _trapezoid_rows

__all__ = [
    "CoefficientMode",
    "SigmaMethod",
    "QuadraticInfluence",
    "Covariance2",
    "delta_gradient",
    "influence_pair",
    "covariance_exact_moments",
    "covariance_exact_quadrature",
    "covariance_plugin",
    "covariance_replication",
    "plugin_rows",
    "sigma_for",
]

#: Quantile-level truncation of unbounded/singular supports in quadrature.
TRUNCATION_EPS = 1e-9

#: Most geometric blocks [x, 2x] appended past Q(1 - eps) in quadrature.
TAIL_BLOCKS = 60

#: How far, relative to max(1, |c1 m1 + c2 m2|), a quadrature E[H] or E[L]
#: may miss its closed form before the quadrature sigma is refused.
MEAN_RTOL = 1e-5


class CoefficientMode(str, Enum):
    CANONICAL = "canonical"
    VERBATIM = "verbatim"

    @classmethod
    def parse(cls, name: str) -> "CoefficientMode":
        return _parse(cls, name, "coefficient mode",
                      {"paper": "verbatim", "legacy": "verbatim"})


class SigmaMethod(str, Enum):
    EXACT_QUADRATURE = "exact-quadrature"
    EXACT_MOMENTS = "exact-moments"
    PLUGIN = "plugin"
    REPLICATION = "replication"

    @classmethod
    def parse(cls, name: str) -> "SigmaMethod":
        return _parse(cls, name, "sigma method")


@dataclass(frozen=True)
class QuadraticInfluence:
    """c1 * x + c2 * x^2 - center, with center = E[c1 X + c2 X^2]."""

    c1: float
    c2: float
    center: float

    def evaluate(self, x):
        """Centered influence value(s) at x."""
        return self.raw(x) - self.center

    def raw(self, x):
        """Uncentered c1 * x + c2 * x^2."""
        xs = np.asarray(x, dtype=float)
        out = self._raw_into(xs, np.empty_like(xs), np.empty_like(xs))
        return float(out) if out.ndim == 0 else out

    def _raw_into(self, xs: np.ndarray, out: np.ndarray,
                  scratch: np.ndarray) -> np.ndarray:
        """c1 * xs + c2 * xs * xs written into ``out``, with ``scratch``
        holding the quadratic term."""
        np.multiply(xs, self.c1, out=out)
        np.multiply(xs, self.c2, out=scratch)
        scratch *= xs
        out += scratch
        return out


@dataclass(frozen=True)
class Covariance2:
    """Symmetric 2x2 covariance with its determinant and provenance tag."""

    s11: float
    s22: float
    s12: float
    det: float
    method: SigmaMethod

    @property
    def correlation(self) -> float:
        denom = math.sqrt(self.s11 * self.s22)
        if denom == 0.0:
            raise DomainError("correlation undefined for zero variance")
        return self.s12 / denom

    @classmethod
    def build(cls, s11: float, s22: float, s12: float,
              method: SigmaMethod) -> "Covariance2":
        """Round-off negative variances clamped to zero; raises
        :class:`DomainError` for a non-finite entry, a clearly negative
        variance or a covariance breaking Cauchy-Schwarz."""
        s11, s22, s12 = float(s11), float(s22), float(s12)
        if not all(math.isfinite(v) for v in (s11, s22, s12)):
            raise DomainError(
                f"covariance entries must be finite, got s11={s11}, "
                f"s22={s22}, s12={s12}")
        tol = 1e-9 * max(abs(s11), abs(s22), 1.0)
        if s11 < -tol or s22 < -tol:
            raise DomainError(
                f"negative variance entries: s11={s11}, s22={s22}")
        # max(0.0, s) keeps +0.0 for a -0.0 entry; max(s, 0.0) would not
        s11, s22 = max(0.0, s11), max(0.0, s22)
        if abs(s12) > math.sqrt(s11 * s22) + tol:
            raise DomainError(
                f"covariance violates |s12| <= sqrt(s11 s22): "
                f"s11={s11}, s22={s22}, s12={s12}")
        return cls(s11=s11, s22=s22, s12=s12, det=s11 * s22 - s12 * s12,
                   method=method)


def delta_gradient(kind: LawKind, m1: float, m2: float
                   ) -> Tuple[float, float, float, float]:
    """Exact partial derivatives (da/dm1, da/dm2, db/dm1, db/dm2) of the
    estimator map at raw moments (m1, m2)."""
    return _family(kind).gradient(m1, m2, m2 - m1 * m1)


def influence_pair(
    law: LawSpec,
    mode: CoefficientMode = CoefficientMode.CANONICAL,
) -> Tuple[QuadraticInfluence, QuadraticInfluence]:
    """The influence functions (H, L) of (a_hat, b_hat) under ``law``.
    ``mode`` is a :class:`CoefficientMode` or its value; any other value
    raises :class:`DomainError`."""
    mode = _member(CoefficientMode, mode, "coefficient mode")
    mom = theoretical_moments(law)
    m1 = mom.require(1)
    m2 = mom.require(2)
    verbatim = _family(law.kind).verbatim
    if mode is CoefficientMode.CANONICAL or verbatim is None:
        da1, da2, db1, db2 = delta_gradient(law.kind, m1, m2)
    else:
        s2 = m2 - m1 * m1
        _need(s2 > 0.0, f"verbatim coefficients require m2 > m1^2, got {s2}")
        da1, da2, db1, db2 = verbatim(m1, s2)
    return (
        QuadraticInfluence(da1, da2, center=da1 * m1 + da2 * m2),
        QuadraticInfluence(db1, db2, center=db1 * m1 + db2 * m2),
    )


def _required_moments(law: LawSpec, h: QuadraticInfluence,
                      l: QuadraticInfluence) -> Tuple[float, ...]:
    """Raw moments (m1, m2, m3, m4) of ``law`` that Var/Cov of the pair
    (h, l) needs, required in the order 1, 2, 4, 3, so that a missing
    fourth moment names its bound (Fisher: b > 8); m3 = m4 = 0 when both
    c2 vanish."""
    mom = theoretical_moments(law)
    m1, m2 = mom.require(1), mom.require(2)
    if h.c2 == 0.0 and l.c2 == 0.0:
        return m1, m2, 0.0, 0.0
    m4 = mom.require(4)
    m3 = mom.require(3)
    return m1, m2, m3, m4


def covariance_exact_moments(
    law: LawSpec,
    h: QuadraticInfluence,
    l: QuadraticInfluence,
) -> Covariance2:
    """Closed-form Var/Cov of the influence pair under ``law``:
    Var(c1 X + c2 X^2) = c1^2 v11 + 2 c1 c2 v12 + c2^2 v22 with
    v11 = Var X, v12 = Cov(X, X^2), v22 = Var X^2."""
    m1, m2, m3, m4 = _required_moments(law, h, l)
    v11 = m2 - m1 * m1
    v12 = m3 - m1 * m2
    v22 = m4 - m2 * m2

    def bilinear(p: QuadraticInfluence, q: QuadraticInfluence) -> float:
        return (p.c1 * q.c1 * v11 + (p.c1 * q.c2 + p.c2 * q.c1) * v12
                + p.c2 * q.c2 * v22)

    return Covariance2.build(bilinear(h, h), bilinear(l, l), bilinear(h, l),
                             SigmaMethod.EXACT_MOMENTS)


def _expectations(law: LawSpec, weights: Callable,
                  cfg: QuadratureConfig) -> np.ndarray:
    """E[w_k(X)] for every row w_k of ``weights``, by trapezoid of
    w_k(x) pdf(x) over [Q(eps), Q(1-eps)].

    ``weights`` maps a node array to a new array with one row of weights
    per integrand, so that all integrands share each node array and its
    density values.  Each row is integrated by :func:`_trapezoid_rows`
    with ``cfg.tol`` scaled by max(1, |first estimate|) of that row.  For
    laws with unbounded upper support the window is extended by shared
    geometric blocks [x, 2x] until two consecutive blocks of a row fall
    below its tolerance, so that slowly decaying tails (Fisher) are
    captured; a row still open after ``TAIL_BLOCKS`` blocks raises
    :class:`QuadratureError`.
    """
    lo = quantile(law, TRUNCATION_EPS)
    hi = quantile(law, 1.0 - TRUNCATION_EPS)
    density = _density_over(law, lo, hi)

    def integrand(x):
        w = weights(x)
        w *= density(x)
        return w

    total, tol = _trapezoid_rows(integrand, lo, hi, None, cfg)
    if _family(law.kind).unbounded_above:
        quiet = np.zeros(total.size, dtype=int)
        x0 = hi
        for _ in range(TAIL_BLOCKS):
            rows = np.flatnonzero(quiet < 2)
            if not rows.size:
                break
            block, _ = _trapezoid_rows(lambda x: integrand(x)[rows], x0,
                                       2.0 * x0, tol[rows], cfg)
            total[rows] += block
            quiet[rows] = np.where(np.abs(block) < tol[rows],
                                   quiet[rows] + 1, 0)
            x0 *= 2.0
        if np.any(quiet < 2):
            raise QuadratureError(
                f"exact-quadrature sigma of {law}: the upper tail has not "
                f"settled after {TAIL_BLOCKS} blocks [x, 2x] up to "
                f"x = {x0:g}; use exact-moments", abscissa=x0)
    return total


def covariance_exact_quadrature(
    law: LawSpec,
    h: QuadraticInfluence,
    l: QuadraticInfluence,
    cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG,
) -> Covariance2:
    """Var/Cov of the influence pair by density-weighted trapezoid
    quadrature: s11 = E[H(X)^2] - E[H(X)]^2 and so on, each expectation an
    integral over the truncated support.  Beta laws with b < 1, whose
    density is unbounded at x = 1, are refused: the rule cannot integrate
    that endpoint.  So is a result whose E[H] or E[L] misses c1 m1 + c2 m2
    by more than ``MEAN_RTOL`` relative to max(1, |c1 m1 + c2 m2|): the
    rule has not resolved the density (x^(a-1) of a Beta law with a tiny
    a), and its sums are wrong by as much."""
    _family(law.kind).check_quadrature(law)
    m1, m2 = _required_moments(law, h, l)[:2]  # also the integrability guard

    def weights(x):
        w = np.empty((5, x.size))
        w[0], w[1] = h.raw(x), l.raw(x)
        np.square(w[:2], out=w[2:4])
        np.multiply(w[0], w[1], out=w[4])
        return w

    eh, el, eh2, el2, ehl = _expectations(law, weights, cfg).tolist()
    for name, infl, got in (("H", h, eh), ("L", l, el)):
        want = infl.c1 * m1 + infl.c2 * m2
        if abs(got - want) > MEAN_RTOL * max(1.0, abs(want)):
            raise QuadratureError(
                f"exact-quadrature sigma of {law}: E[{name}] came to "
                f"{got:.10g}, not c1 m1 + c2 m2 = {want:.10g}; the rule has "
                f"not resolved the density; use exact-moments",
                abscissa=math.nan)
    return Covariance2.build(eh2 - eh * eh, el2 - el * el, ehl - eh * el,
                             SigmaMethod.EXACT_QUADRATURE)


def covariance_plugin(sample, h: QuadraticInfluence,
                      l: QuadraticInfluence) -> Covariance2:
    """Sample variance/covariance (divisor n-1) of the influence values
    evaluated on one observed sample."""
    x = np.asarray(sample, dtype=float).ravel()
    if x.size < 2:
        raise InsufficientDataError(
            f"plugin covariance needs n >= 2, got {x.size}")
    s11, s22, s12 = plugin_rows(x[None, :], h, l)
    return Covariance2.build(s11[0], s22[0], s12[0], SigmaMethod.PLUGIN)


def plugin_rows(x, h: QuadraticInfluence, l: QuadraticInfluence,
                workspace: Optional[Workspace] = None) -> tuple:
    """Plugin (s11, s22, s12) arrays, one entry per row of the 2-D sample
    block ``x``, unchecked: each diagonal entry is a sum of squares times
    1/(n-1), and Cauchy-Schwarz holds up to the round-off of a dot product
    of length n, far inside :meth:`Covariance2.build`'s tolerance.

    Bit for bit ``np.cov`` of each row's influence values: the centred
    stack of H and L values is multiplied by its transpose, which runs the
    same BLAS product as ``np.cov``, and scaled by 1/(n-1).  The stack and
    its scratch rows come from ``workspace`` (a new one if none is given).
    """
    x = np.asarray(x, dtype=float)
    rows, n = x.shape
    ws = Workspace() if workspace is None else workspace
    stack = ws.take("plugin_stack", (rows, 2, n))
    scratch = ws.take("plugin_scratch", (rows, n))
    for k, infl in enumerate((h, l)):
        infl._raw_into(x, stack[:, k], scratch)
        stack[:, k] -= infl.center
    stack -= np.add.reduce(stack, axis=2, keepdims=True) / n
    c = np.matmul(stack, stack.transpose(0, 2, 1))
    c *= 1.0 / (n - 1)
    return c[:, 0, 0], c[:, 1, 1], c[:, 0, 1]


def covariance_replication(dev_a, dev_b) -> Covariance2:
    """Sample covariance (divisor B-1) of paired replicated deviations."""
    da = np.asarray(dev_a, dtype=float).ravel()
    db = np.asarray(dev_b, dtype=float).ravel()
    if da.size != db.size:
        raise InsufficientDataError(
            f"deviation arrays differ in length: {da.size} vs {db.size}")
    if da.size < 2:
        raise InsufficientDataError(
            f"replication covariance needs B >= 2, got {da.size}")
    c = np.cov(da, db, ddof=1)
    return Covariance2.build(c[0, 0], c[1, 1], c[0, 1],
                             SigmaMethod.REPLICATION)


def sigma_for(method: SigmaMethod, law: LawSpec, h: QuadraticInfluence,
              l: QuadraticInfluence, sample=None) -> Covariance2:
    """Covariance of the influence pair (h, l) under ``law`` by ``method``.

    The exact routes use ``law`` alone, the plugin route the observed
    ``sample``.  The replication route needs replicated runs and is
    refused here.
    """
    if method is SigmaMethod.EXACT_MOMENTS:
        return covariance_exact_moments(law, h, l)
    if method is SigmaMethod.EXACT_QUADRATURE:
        return covariance_exact_quadrature(law, h, l)
    if method is SigmaMethod.PLUGIN:
        return covariance_plugin(sample, h, l)
    raise MomestError("replication sigma needs replicated runs; use simulate")
