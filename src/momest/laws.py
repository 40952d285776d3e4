"""The four parametric laws: densities, cdfs, quantiles, sampling,
closed-form moments and the moment estimators' maps.

Estimator maps are written with Xbar the sample mean, M2 the mean of
squares and S2 the unbiased variance (divisor n-1).  Each map is only
defined under positivity conditions; violations raise typed errors naming
the condition so that the Monte-Carlo harness can count infeasible
replications.  The conditions and the maps evaluate on floats and on arrays
alike.

Everything that differs from law to law lives in one private record per
law, a :class:`_Family` found by :func:`_family`: parameter domain,
support, density and its values at the support edges, cdf, quantile and
sampler; moments; estimator conditions and map; the map's delta-method
gradient and the verbatim coefficients; and the laws the exact-quadrature
route refuses.  Each record's docstring gives its law's parameterization,
estimator map and sampler.  :mod:`momest.estimation` and
:mod:`momest.asymptotics` reach a law only through that lookup.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Optional, Union

import numpy as np

from . import special
from .errors import (DegenerateSampleError, DomainError,
                     InfeasibleMomentError, MomentDomainError, _integer)
from .rng import RowStreams, Workspace

__all__ = [
    "LawKind",
    "LawSpec",
    "MomentSet",
    "pdf",
    "cdf",
    "quantile",
    "sample",
    "sample_rows",
    "theoretical_moments",
]

ArrayLike = Union[float, np.ndarray]

_ORDINALS = {1: "first", 2: "second", 3: "third", 4: "fourth"}

#: sqrt(12)/2, the half-width of a uniform law per standard deviation.
HALF_WIDTH_FACTOR = math.sqrt(3.0)


class LawKind(str, Enum):
    GAMMA = "gamma"
    BETA = "beta"
    UNIFORM = "uniform"
    FISHER = "fisher"

    @classmethod
    def parse(cls, name: str) -> "LawKind":
        return _parse(cls, name, "law")


def _parse(enum, name: str, what: str, aliases=None):
    """The member of ``enum`` whose value is ``name``, stripped and lower
    cased, or the value ``aliases`` maps that name to; any other name
    raises :class:`DomainError` naming the ``what`` and the valid values."""
    key = name.strip().lower()
    return _member(enum, (aliases or {}).get(key, key), what, name)


def _member(enum, value, what: str, shown=None):
    """``value`` if it is a member of ``enum``, else the member whose value
    it is; anything else raises :class:`DomainError` naming the ``what``,
    ``shown`` (``value`` by default) and the valid values."""
    try:
        return enum(value)
    except ValueError:
        valid = ", ".join(m.value for m in enum)
        shown = value if shown is None else shown
        raise DomainError(f"unknown {what} {shown!r}; expected one of {valid}")


@dataclass(frozen=True)
class LawSpec:
    """A law kind with its two parameters (a, b), stored as floats so that
    equal laws print and serialize alike."""

    kind: LawKind
    p1: float
    p2: float

    def __post_init__(self) -> None:
        family = _family(self.kind)
        if not all(isinstance(p, numbers.Real) for p in (self.p1, self.p2)):
            raise DomainError(f"parameters must be real numbers, got "
                              f"({self.p1!r}, {self.p2!r})")
        a, b = float(self.p1), float(self.p2)
        object.__setattr__(self, "p1", a)
        object.__setattr__(self, "p2", b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DomainError(f"parameters must be finite, got ({a}, {b})")
        if not family.in_domain(a, b):
            raise DomainError(f"{self.kind.value} law requires "
                              f"{family.domain}, got ({a}, {b})")
        family.check_range(a, b)

    def __str__(self) -> str:
        return f"{self.kind.value}({self.p1:g}, {self.p2:g})"

    @classmethod
    def gamma(cls, a: float, b: float) -> "LawSpec":
        return cls(LawKind.GAMMA, a, b)

    @classmethod
    def beta(cls, a: float, b: float) -> "LawSpec":
        return cls(LawKind.BETA, a, b)

    @classmethod
    def uniform(cls, a: float, b: float) -> "LawSpec":
        return cls(LawKind.UNIFORM, a, b)

    @classmethod
    def fisher(cls, a: float, b: float) -> "LawSpec":
        return cls(LawKind.FISHER, a, b)


@dataclass(frozen=True)
class MomentSet:
    """Raw moments m_k = E X^k and the variance, with ``None`` marking
    moments that do not exist for the given parameters."""

    m1: Optional[float]
    m2: Optional[float]
    m3: Optional[float]
    m4: Optional[float]
    variance: Optional[float]
    constraint: str = ""  # human-readable existence condition, e.g. "b > 2k"

    def moment(self, order: int) -> Optional[float]:
        return (self.m1, self.m2, self.m3, self.m4)[order - 1]

    def require(self, order: int) -> float:
        """The raw moment of the given order, or a MomentDomainError naming
        the violated existence condition."""
        value = self.moment(order)
        if value is None:
            need = self.constraint.format(k=order, bound=2 * order)
            raise MomentDomainError(
                f"{_ORDINALS[order]} moment requires {need}")
        return value


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise DomainError(message)


def _ln_beta(p: float, q: float) -> float:
    """ln B(p, q) = ln G(p) + ln G(q) - ln G(p + q)."""
    lg_p, lg_q, lg_pq = special.ln_gamma(np.array([p, q, p + q]))
    return lg_p + lg_q - lg_pq


class _Family:
    """The formulas of one law.  The defaults here are those of a law
    supported on (0, inf); each subclass defines, for parameters (a, b):

    * ``density(a, b)``: the density for points in :meth:`support`, its
      constants computed once; ``cdf(a, b, xs)``, ``quantile(a, b, us)``
      and ``draw(a, b, streams, workspace, n)``, the sampler;
    * ``raw_moment(a, b, k)`` and ``variance(a, b)``, ``None`` where the
      moment does not exist;
    * ``conditions(mean, msq, s2, vb)``: the estimator map's preconditions
      in the order :func:`momest.estimation.estimate` tests them, as
      (holds, error class, message, value), ``message`` naming the
      condition and taking the offending ``value``; and
      ``estimator(mean, msq, s2, vb)``, the map where they hold;
    * ``gradient(m1, m2, d)``: (da/dm1, da/dm2, db/dm1, db/dm2) of the
      map at raw moments (m1, m2), with d = m2 - m1^2.
    """

    #: The support is unbounded above: exact quadrature extends its window
    #: by tail blocks.
    unbounded_above = True
    #: Existence condition of the k-th moment, formatted with bound = 2k.
    moment_constraint = ""
    #: (mu, sigma^2) -> the historical printed coefficients, for laws
    #: whose printed coefficients are not the canonical gradient.
    verbatim = None
    #: The parameter domain, as :class:`LawSpec` names it when it refuses
    #: parameters outside :meth:`in_domain`.
    domain = "a > 0 and b > 0"

    def in_domain(self, a: float, b: float) -> bool:
        return a > 0.0 and b > 0.0

    def check_range(self, a: float, b: float) -> None:
        """Refuses parameters in the domain whose formulas overflow."""

    def support(self, a, b, xs: np.ndarray) -> np.ndarray:
        """Mask of the points of ``xs`` where :meth:`density` holds: the
        closed support of a Uniform law, the open support of the others."""
        return (xs > 0.0) & (xs < np.inf)

    def at_edges(self, a, b, xs: np.ndarray, out: np.ndarray) -> None:
        """Writes into ``out`` the pdf at the points of ``xs`` on an edge
        of the support, where :meth:`density` does not hold."""

    def _edge(self, s, edge, value, xs, out):
        """Writes into ``out`` the pdf at the points of ``xs`` equal to
        ``edge``, for a density that behaves like |x - edge|^(s-1) there:
        ``value()`` when s = 1, +inf when s < 1 (and 0, already in ``out``,
        when s > 1)."""
        if s <= 1.0:
            out[xs == edge] = value() if s == 1.0 else np.inf

    def check_quadrature(self, law: LawSpec) -> None:
        """Refuses a law whose density the exact-quadrature rule cannot
        integrate."""


class _Gamma(_Family):
    """Gamma(a, b): shape a > 0, **rate** b > 0, density
    b^a x^(a-1) e^(-bx) / G(a).  Estimator map (Xbar^2 / S2, Xbar / S2);
    the squeeze rejection sampler of :mod:`momest.rng`."""

    def at_edges(self, a, b, xs, out):
        self._edge(a, 0.0, lambda: b, xs, out)

    def density(self, a, b):
        c0 = a * math.log(b) - special.ln_gamma(a)
        return lambda x: np.exp(c0 + (a - 1.0) * np.log(x) - b * x)

    def cdf(self, a, b, xs):
        return np.asarray(special.reg_inc_gamma(a, np.maximum(xs, 0.0) * b))

    def quantile(self, a, b, us):
        return np.asarray(special.reg_inc_gamma_inv(a, us)) / b

    def draw(self, a, b, streams, ws, n):
        x = streams.gammas(a, n)
        x /= b
        return x

    def raw_moment(self, a, b, k):
        return a / b ** k * math.prod(a + j for j in range(1, k))

    def variance(self, a, b):
        return a / b ** 2

    def conditions(self, mean, msq, s2, vb):
        return [(s2 > 0.0, DegenerateSampleError,
                 "gamma estimator requires S^2 > 0, got S^2={}", s2)]

    def estimator(self, mean, msq, s2, vb):
        return mean * mean / s2, mean / s2

    def gradient(self, m1, m2, d):
        _need(d > 0.0, f"gamma gradient requires m2 > m1^2, got d={d}")
        d2 = d * d
        _need(d2 > 0.0, f"gamma gradient: d^2 underflows to 0, d={d}")
        return (2.0 * m1 * m2 / d2, -m1 * m1 / d2,
                (m2 + m1 * m1) / d2, -m1 / d2)

    def verbatim(self, mu, s2):
        s4 = s2 * s2
        _need(s4 > 0.0, f"gamma verbatim coefficients: sigma^4 underflows "
                        f"to 0, sigma^2={s2}")
        # known slip kept on purpose: (sigma^2 + 1) instead of
        # (sigma^2 + mu^2), and (sigma^2 + 2 mu) instead of
        # (sigma^2 + 2 mu^2)
        return (2.0 * mu * (s2 + 1.0) / s4, -mu * mu / s4,
                (s2 + 2.0 * mu) / s4, -mu / s4)


class _Beta(_Family):
    """Beta(a, b): a, b > 0 on [0, 1].  Estimator map
    (Xbar (Xbar - M2) / V, (1 - Xbar)(Xbar - M2) / V) with the *biased*
    variance V = M2 - Xbar^2 in the denominator; sampled as the two-Gamma
    ratio G1 / (G1 + G2)."""

    unbounded_above = False

    def support(self, a, b, xs):
        return (xs > 0.0) & (xs < 1.0)

    def at_edges(self, a, b, xs, out):
        for edge, s in ((0.0, a), (1.0, b)):
            self._edge(s, edge, lambda: math.exp(-_ln_beta(a, b)), xs, out)

    def density(self, a, b):
        ln_b = _ln_beta(a, b)
        return lambda x: np.exp((a - 1.0) * np.log(x)
                                + (b - 1.0) * np.log1p(-x) - ln_b)

    def cdf(self, a, b, xs):
        return np.asarray(special.reg_inc_beta(a, b, np.clip(xs, 0.0, 1.0)))

    def quantile(self, a, b, us):
        return np.asarray(special.reg_inc_beta_inv(a, b, us))

    def draw(self, a, b, streams, ws, n):
        # the first gamma batch is drawn into the array returned, the
        # second into the workspace
        x = streams.gammas(a, n)
        g2 = streams.gammas(b, n, ws.take("batch", x.shape))
        g2 += x
        x /= g2
        return x

    def raw_moment(self, a, b, k):
        return math.prod((a + j) / (a + b + j) for j in range(k))

    def variance(self, a, b):
        return a * b / ((a + b) ** 2 * (a + b + 1.0))

    def conditions(self, mean, msq, s2, vb):
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

    def estimator(self, mean, msq, s2, vb):
        common = (mean - msq) / vb
        return mean * common, (1.0 - mean) * common

    def gradient(self, m1, m2, d):
        _need(d > 0.0, f"beta gradient requires m2 > m1^2, got d={d}")
        _need(m1 - m2 > 0.0,
              f"beta gradient requires m1 > m2, got m1-m2={m1 - m2}")
        _need(m1 < 1.0, f"beta gradient requires m1 < 1, got {m1}")
        na = m1 * (m1 - m2)
        nb = (1.0 - m1) * (m1 - m2)
        d2 = d * d
        _need(d2 > 0.0, f"beta gradient: d^2 underflows to 0, d={d}")
        return (((2.0 * m1 - m2) * d + 2.0 * m1 * na) / d2,
                (-m1 * d - na) / d2,
                ((1.0 - 2.0 * m1 + m2) * d + 2.0 * m1 * nb) / d2,
                ((m1 - 1.0) * d - nb) / d2)

    def check_quadrature(self, law):
        """b < 1 makes the density unbounded at x = 1, an endpoint the
        trapezoid rule cannot integrate."""
        if law.p2 < 1.0:
            raise DomainError(
                f"exact-quadrature sigma needs a density bounded at x = 1, "
                f"but {law} has b = {law.p2:g} < 1; use exact-moments")


class _Uniform(_Family):
    """Uniform(a, b): any a < b.  (Some references additionally restrict
    a > 0; nothing here needs it, so it is not enforced.)  Estimator map
    Xbar -/+ sqrt(3) * sqrt(S2)."""

    unbounded_above = False
    domain = "b > a"

    def in_domain(self, a, b):
        return b > a

    def check_range(self, a, b):
        _need(math.isfinite(b - a), f"uniform law requires a finite width "
                                    f"b - a, got ({a}, {b})")

    def support(self, a, b, xs):
        return (xs >= a) & (xs <= b)

    def density(self, a, b):
        height = 1.0 / (b - a)
        return lambda x: np.full_like(x, height)

    def cdf(self, a, b, xs):
        return np.clip((xs - a) / (b - a), 0.0, 1.0)

    def quantile(self, a, b, us):
        return a + (b - a) * us

    def draw(self, a, b, streams, ws, n):
        x = streams.uniforms(n)
        x *= b - a
        x += a
        # u = 1.0 gives (b - a) + a, which can round one ulp above b
        np.minimum(x, b, out=x)
        return x

    def raw_moment(self, a, b, k):
        # (b^(k+1) - a^(k+1)) / ((k+1)(b-a)), written as a stable power sum
        return sum(a ** (k - j) * b ** j for j in range(k + 1)) / (k + 1.0)

    def variance(self, a, b):
        return (b - a) ** 2 / 12.0

    def conditions(self, mean, msq, s2, vb):
        return [(s2 > 0.0, DegenerateSampleError,
                 "uniform estimator requires S^2 > 0, got S^2={}", s2)]

    def estimator(self, mean, msq, s2, vb):
        half = HALF_WIDTH_FACTOR * np.sqrt(s2)
        return mean - half, mean + half

    def gradient(self, m1, m2, d):
        _need(d > 0.0, f"uniform gradient requires m2 > m1^2, got d={d}")
        s = math.sqrt(d)
        lam = HALF_WIDTH_FACTOR
        return (1.0 + lam * m1 / s, -lam / (2.0 * s),
                1.0 - lam * m1 / s, lam / (2.0 * s))


class _Fisher(_Family):
    """Fisher(a, b): degrees of freedom a, b > 0, the ratio (Z1/a)/(Z2/b)
    of two independent chi-squares, which is also how it is sampled.  The
    density is the standard F density; the k-th moment exists only for
    b > 2k.  Estimator map (2 Xbar^2 / (S2 (2 - Xbar) - Xbar^2 (Xbar - 1)),
    2 Xbar / (Xbar - 1))."""

    moment_constraint = "b > {bound}"

    def at_edges(self, a, b, xs, out):
        self._edge(0.5 * a, 0.0, lambda: 1.0, xs, out)

    def density(self, a, b):
        half_a, half_b = 0.5 * a, 0.5 * b
        ln_c = half_a * math.log(a / b) - _ln_beta(half_a, half_b)
        return lambda x: np.exp(ln_c + (half_a - 1.0) * np.log(x)
                                - (half_a + half_b) * np.log1p(a * x / b))

    def cdf(self, a, b, xs):
        ax = a * np.maximum(xs, 0.0)
        with np.errstate(invalid="ignore"):  # inf / inf at x = +inf
            y = np.where(ax < np.inf, ax / (ax + b), 1.0)
        return np.asarray(special.reg_inc_beta(0.5 * a, 0.5 * b, y))

    def quantile(self, a, b, us):
        y = np.asarray(special.reg_inc_beta_inv(0.5 * a, 0.5 * b, us))
        return b * y / (a * (1.0 - y))

    def draw(self, a, b, streams, ws, n):
        # (chi2_a / a) / (chi2_b / b) with chi2_k = 2 Gamma(k/2, 1)
        x = streams.gammas(0.5 * a, n)
        g2 = streams.gammas(0.5 * b, n, ws.take("batch", x.shape))
        x *= b
        g2 *= a
        x /= g2
        return x

    def raw_moment(self, a, b, k):
        # E X^k = (b/a)^k prod_j (a/2 + j)/(b/2 - 1 - j), needs b > 2k
        if not b > 2 * k:
            return None
        value = (b / a) ** k
        for j in range(k):
            value *= (0.5 * a + j) / (0.5 * b - 1.0 - j)
        return value

    def variance(self, a, b):
        if not b > 4.0:
            return None
        return 2.0 * b ** 2 * (a + b - 2.0) / (a * (b - 2.0) ** 2 * (b - 4.0))

    def denominator(self, mean, s2):
        return s2 * (2.0 - mean) - mean * mean * (mean - 1.0)

    def conditions(self, mean, msq, s2, vb):
        denom = self.denominator(mean, s2)
        return [
            (mean > 1.0, InfeasibleMomentError,
             "fisher estimator requires mean > 1, got {}", mean),
            (denom > 0.0, DegenerateSampleError,
             "fisher estimator requires S^2 (2 - mean) - mean^2 (mean - 1) "
             "> 0, got {}", denom),
        ]

    def estimator(self, mean, msq, s2, vb):
        return (2.0 * mean * mean / self.denominator(mean, s2),
                2.0 * mean / (mean - 1.0))

    def gradient(self, m1, m2, d):
        _need(m1 > 1.0, f"fisher gradient requires m1 > 1, got {m1}")
        alpha = (2.0 - m1) * m2 - m1 * m1
        _need(alpha > 0.0,
              f"fisher gradient requires (2-m1) m2 - m1^2 > 0, got {alpha}")
        a2 = alpha * alpha
        return ((4.0 * m1 * alpha + 2.0 * m1 * m1 * (m2 + 2.0 * m1)) / a2,
                -2.0 * m1 * m1 * (2.0 - m1) / a2,
                -2.0 / (m1 - 1.0) ** 2, 0.0)

    def verbatim(self, mu, s2):
        # the printed normalizer, which differs from the true
        # denominator (2 - mu) sigma^2 - mu^2 (mu - 1) of the gradient
        _need(mu > 1.0, f"fisher coefficients require m1 > 1, got {mu}")
        beta = s2 + 2.0 * mu * (2.0 - mu) - mu * (3.0 * mu - 2.0)
        _need(beta != 0.0, "fisher verbatim normalizer vanished")
        return (2.0 * mu * (2.0 - mu) / beta,
                -2.0 * mu * mu * (2.0 - mu) / (beta * beta),
                -2.0 / (mu - 1.0) ** 2, 0.0)


_FAMILIES = {LawKind.GAMMA: _Gamma(), LawKind.BETA: _Beta(),
             LawKind.UNIFORM: _Uniform(), LawKind.FISHER: _Fisher()}


def _family(kind) -> _Family:
    """The record of the law ``kind``.  Anything but a :class:`LawKind`
    member, a plain string included, raises :class:`DomainError`."""
    if not isinstance(kind, LawKind):
        raise DomainError(f"law kind must be a LawKind member, got {kind!r}")
    return _FAMILIES[kind]


def _points(x: ArrayLike) -> tuple[np.ndarray, bool]:
    """``x`` as a float array and whether it was a scalar; a NaN point
    raises :class:`DomainError`, for :func:`pdf` and :func:`cdf` alike."""
    xs, scalar = special._prepare(x)
    if np.isnan(xs).any():
        raise DomainError(f"x must not be NaN, got x={x}")
    return xs, scalar


def pdf(law: LawSpec, x: ArrayLike) -> ArrayLike:
    """Density of ``law`` at ``x``; zero outside the support.  A NaN
    ``x`` raises :class:`DomainError`."""
    family, a, b = _family(law.kind), law.p1, law.p2
    raw, scalar = _points(x)
    xs = np.atleast_1d(raw)
    out = np.zeros_like(xs)
    inside = family.support(a, b, xs)
    with np.errstate(over="ignore"):  # b x or a x / b is inf: density 0
        out[inside] = family.density(a, b)(xs[inside])
    family.at_edges(a, b, xs, out)
    return special._finish(out.reshape(raw.shape), scalar)


def _density_over(law: LawSpec, lo: float,
                  hi: float) -> Callable[[np.ndarray], np.ndarray]:
    """The density of ``law`` for nodes in [lo, hi], and above hi where
    the support is unbounded above: the record's density, its constants
    computed once, when lo and hi both lie where it holds, else
    :func:`pdf` with its values at the support edges (a quantile may round
    onto an edge)."""
    if _family(law.kind).support(law.p1, law.p2, np.array([lo, hi])).all():
        return _family(law.kind).density(law.p1, law.p2)
    return partial(pdf, law)


def cdf(law: LawSpec, x: ArrayLike) -> ArrayLike:
    """Cumulative distribution function of ``law`` at ``x``.  A NaN ``x``
    raises :class:`DomainError`."""
    xs, scalar = _points(x)
    with np.errstate(over="ignore"):  # b x or a x is inf: cdf 1
        out = _family(law.kind).cdf(law.p1, law.p2, xs)
    return special._finish(out, scalar)


def quantile(law: LawSpec, u: ArrayLike) -> ArrayLike:
    """Quantile (generalized inverse cdf) of ``law`` at u in (0, 1)."""
    us, scalar = special._prepare(u)
    if not np.all((us > 0.0) & (us < 1.0)):
        raise DomainError("quantile requires u strictly inside (0, 1)")
    out = _family(law.kind).quantile(law.p1, law.p2, us)
    return special._finish(out, scalar)


def sample(law: LawSpec, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws from ``law``; identical seeds give identical arrays.
    Each law's record names its sampler; the exact draw algorithm is
    documented in :mod:`momest.rng`."""
    return sample_rows(law, n, [seed])[0]


def sample_rows(law: LawSpec, n: int, seeds,
                workspace: Optional[Workspace] = None) -> np.ndarray:
    """Array of shape (len(seeds), n) whose row r is bit for bit
    ``sample(law, n, seeds[r])``, drawn for every row at once.

    The draws take their scratch arrays from ``workspace`` (a new one if
    none is given); consecutive calls of one thread may share it.
    """
    if _integer(n, "n") < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    ws = Workspace() if workspace is None else workspace
    streams = RowStreams(seeds, ws)
    return _family(law.kind).draw(law.p1, law.p2, streams, ws, n)


def theoretical_moments(law: LawSpec) -> MomentSet:
    """Closed-form m1..m4 and variance; nonexistent moments are ``None``.
    A moment that is not finite in floating point, because a power, product
    or quotient overflows or a divisor underflows to zero, raises a
    DomainError naming the law and the moment."""
    family = _family(law.kind)
    values = []
    for order in (1, 2, 3, 4, None):
        try:
            value = (family.raw_moment(law.p1, law.p2, order) if order
                     else family.variance(law.p1, law.p2))
        except (OverflowError, ZeroDivisionError):
            value = math.inf
        if value is not None and not math.isfinite(value):
            what = f"{_ORDINALS[order]} moment" if order else "variance"
            raise DomainError(f"the {what} of {law} is out of "
                              f"floating-point range")
        values.append(value)
    return MomentSet(*values, constraint=family.moment_constraint)
