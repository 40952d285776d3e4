"""The four parametric laws: densities, cdfs, quantiles, sampling and
closed-form moments.

Parameterizations:

* Gamma(a, b): shape a > 0, **rate** b > 0, density b^a x^(a-1) e^(-bx)/G(a).
* Beta(a, b): a, b > 0 on [0, 1].
* Uniform(a, b): any a < b.  (Some references additionally restrict a > 0;
  nothing here needs it, so it is not enforced.)
* Fisher(a, b): degrees of freedom a, b > 0, the ratio (Z1/a)/(Z2/b) of two
  independent chi-squares.  The density is the standard F density; the k-th
  moment exists only for b > 2k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from . import special
from .errors import DomainError, MomentDomainError
from .rng import Stream

__all__ = [
    "LawKind",
    "LawSpec",
    "MomentSet",
    "pdf",
    "cdf",
    "quantile",
    "sample",
    "theoretical_moments",
]

ArrayLike = Union[float, np.ndarray]

_ORDINALS = {1: "first", 2: "second", 3: "third", 4: "fourth"}


class LawKind(str, Enum):
    GAMMA = "gamma"
    BETA = "beta"
    UNIFORM = "uniform"
    FISHER = "fisher"

    @classmethod
    def parse(cls, name: str) -> "LawKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise DomainError(f"unknown law {name!r}; expected one of {valid}")


@dataclass(frozen=True)
class LawSpec:
    """A law kind with its two parameters (a, b)."""

    kind: LawKind
    p1: float
    p2: float

    def __post_init__(self) -> None:
        a, b = self.p1, self.p2
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DomainError(f"parameters must be finite, got ({a}, {b})")
        if self.kind is LawKind.UNIFORM:
            if not b > a:
                raise DomainError(f"uniform law requires b > a, got ({a}, {b})")
        elif not (a > 0.0 and b > 0.0):
            raise DomainError(
                f"{self.kind.value} law requires a > 0 and b > 0, got ({a}, {b})")

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


def pdf(law: LawSpec, x: ArrayLike) -> ArrayLike:
    """Density of ``law`` at ``x``; zero outside the support."""
    a, b = law.p1, law.p2
    raw, scalar = special._prepare(x)
    xs = np.atleast_1d(raw)
    out = np.zeros_like(xs)
    if law.kind is LawKind.UNIFORM:
        inside = (xs >= a) & (xs <= b)
        out[inside] = 1.0 / (b - a)
    elif law.kind is LawKind.GAMMA:
        pos = xs > 0.0
        xp = xs[pos]
        out[pos] = np.exp(a * math.log(b) - special.ln_gamma(a)
                          + (a - 1.0) * np.log(xp) - b * xp)
        if a == 1.0:
            out[xs == 0.0] = b
        elif a < 1.0:
            out[xs == 0.0] = np.inf
    elif law.kind is LawKind.BETA:
        ln_b = (special.ln_gamma(a) + special.ln_gamma(b)
                - special.ln_gamma(a + b))
        inside = (xs > 0.0) & (xs < 1.0)
        xp = xs[inside]
        out[inside] = np.exp((a - 1.0) * np.log(xp)
                             + (b - 1.0) * np.log1p(-xp) - ln_b)
        for edge, shape in ((0.0, a), (1.0, b)):
            at = xs == edge
            if at.any():
                out[at] = (np.inf if shape < 1.0
                           else (math.exp(-ln_b) if shape == 1.0 else 0.0))
    else:  # Fisher
        half_a, half_b = 0.5 * a, 0.5 * b
        ln_c = (half_a * math.log(a / b)
                - (special.ln_gamma(half_a) + special.ln_gamma(half_b)
                   - special.ln_gamma(half_a + half_b)))
        pos = xs > 0.0
        xp = xs[pos]
        out[pos] = np.exp(ln_c + (half_a - 1.0) * np.log(xp)
                          - (half_a + half_b) * np.log1p(a * xp / b))
        if a == 2.0:
            out[xs == 0.0] = 1.0
        elif a < 2.0:
            out[xs == 0.0] = np.inf
    return special._finish(out.reshape(raw.shape), scalar)


def cdf(law: LawSpec, x: ArrayLike) -> ArrayLike:
    """Cumulative distribution function of ``law`` at ``x``."""
    a, b = law.p1, law.p2
    xs, scalar = special._prepare(x)
    if law.kind is LawKind.UNIFORM:
        out = np.clip((xs - a) / (b - a), 0.0, 1.0)
    elif law.kind is LawKind.GAMMA:
        out = np.asarray(special.reg_inc_gamma(a, np.maximum(xs, 0.0) * b))
    elif law.kind is LawKind.BETA:
        out = np.asarray(special.reg_inc_beta(a, b, np.clip(xs, 0.0, 1.0)))
    else:  # Fisher
        pos = np.maximum(xs, 0.0)
        y = a * pos / (a * pos + b)
        out = np.asarray(special.reg_inc_beta(0.5 * a, 0.5 * b, y))
    return special._finish(out, scalar)


def quantile(law: LawSpec, u: ArrayLike) -> ArrayLike:
    """Quantile (generalized inverse cdf) of ``law`` at u in (0, 1)."""
    a, b = law.p1, law.p2
    us, scalar = special._prepare(u)
    if np.any((us <= 0.0) | (us >= 1.0)):
        raise DomainError("quantile requires u strictly inside (0, 1)")
    if law.kind is LawKind.UNIFORM:
        out = a + (b - a) * us
    elif law.kind is LawKind.GAMMA:
        out = np.asarray(special.reg_inc_gamma_inv(a, us)) / b
    elif law.kind is LawKind.BETA:
        out = np.asarray(special.reg_inc_beta_inv(a, b, us))
    else:  # Fisher
        y = np.asarray(special.reg_inc_beta_inv(0.5 * a, 0.5 * b, us))
        out = b * y / (a * (1.0 - y))
    return special._finish(out, scalar)


def sample(law: LawSpec, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws from ``law``; identical seeds give identical arrays.

    Gamma uses the squeeze rejection sampler, Beta the two-Gamma ratio
    G1/(G1+G2), Fisher the scaled chi-square quotient (Z1/a)/(Z2/b); the
    exact draw algorithm is documented in :mod:`momest.rng`.
    """
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    a, b = law.p1, law.p2
    stream = Stream(seed)
    if law.kind is LawKind.UNIFORM:
        return a + (b - a) * stream.uniforms(n)
    if law.kind is LawKind.GAMMA:
        return stream.gammas(a, n) / b
    if law.kind is LawKind.BETA:
        g1 = stream.gammas(a, n)
        g2 = stream.gammas(b, n)
        return g1 / (g1 + g2)
    # Fisher: (chi2_a / a) / (chi2_b / b) with chi2_k = 2 Gamma(k/2, 1)
    g1 = stream.gammas(0.5 * a, n)
    g2 = stream.gammas(0.5 * b, n)
    return (b * g1) / (a * g2)


def theoretical_moments(law: LawSpec) -> MomentSet:
    """Closed-form m1..m4 and variance; nonexistent moments are ``None``."""
    a, b = law.p1, law.p2
    if law.kind is LawKind.GAMMA:
        ms = [a / b ** k * math.prod(a + j for j in range(1, k))
              for k in (1, 2, 3, 4)]
        return MomentSet(*ms, variance=a / b ** 2)
    if law.kind is LawKind.BETA:
        ms = []
        for k in (1, 2, 3, 4):
            ms.append(math.prod((a + j) / (a + b + j) for j in range(k)))
        var = a * b / ((a + b) ** 2 * (a + b + 1.0))
        return MomentSet(*ms, variance=var)
    if law.kind is LawKind.UNIFORM:
        ms = [_uniform_moment(a, b, k) for k in (1, 2, 3, 4)]
        return MomentSet(*ms, variance=(b - a) ** 2 / 12.0)
    # Fisher: E X^k = (b/a)^k prod_j (a/2 + j)/(b/2 - 1 - j), needs b > 2k
    ms: list[Optional[float]] = []
    for k in (1, 2, 3, 4):
        if b > 2 * k:
            value = (b / a) ** k
            for j in range(k):
                value *= (0.5 * a + j) / (0.5 * b - 1.0 - j)
            ms.append(value)
        else:
            ms.append(None)
    var = None
    if b > 4.0:
        var = (2.0 * b ** 2 * (a + b - 2.0)
               / (a * (b - 2.0) ** 2 * (b - 4.0)))
    return MomentSet(ms[0], ms[1], ms[2], ms[3], variance=var,
                     constraint="b > {bound}")


def _uniform_moment(a: float, b: float, k: int) -> float:
    # (b^(k+1) - a^(k+1)) / ((k+1)(b-a)), written as a stable power sum
    return sum(a ** (k - j) * b ** j for j in range(k + 1)) / (k + 1.0)
