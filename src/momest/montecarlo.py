"""Replicated-estimation Monte-Carlo harness.

For a configured law, sample size n and replication count B, the harness
draws B independent samples (replication j uses the documented substream
seed of the master seed), estimates (a_hat, b_hat) on each, and aggregates:

* scaled deviations sqrt(n)(a_hat - a), sqrt(n)(b_hat - b),
* per-replication plugin statistics sd(H(X)), sd(L(X)), cov(H(X), L(X)),
* point-estimation error summaries (ME, MAE, RMSE and the sd variant),
* estimated-over-exact variance ratios,
* empirical rejection rates of the marginal and omnibus tests under every
  selected covariance method.

Replications violating an estimator precondition are counted as infeasible
and excluded (never resampled, which would bias calibration rates).
Reports are bit-identical for identical configurations regardless of the
worker count: replication j depends only on its own substream and
aggregation runs in replication order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .asymptotics import (CoefficientMode, Covariance2, QuadraticInfluence,
                          SigmaMethod, covariance_plugin,
                          covariance_replication, influence_pair, sigma_for)
from .errors import (DegenerateSampleError, DomainError,
                     InsufficientDataError, MomestError)
from .estimation import empirical_moments, estimate
from .laws import LawSpec, sample
from .rng import substream_seed
from .significance import Z_CRIT_5PCT, det_floor
from .special import chisq_quantile, normal_quantile

__all__ = [
    "SimulationConfig",
    "SimulationReport",
    "ErrorStats",
    "run_simulation",
    "error_table",
    "ratio_table",
    "qq_plot_data",
    "parzen_density",
    "silverman_bandwidth",
]

_CHI2_CRIT_5PCT = chisq_quantile(0.95, 2)

DEFAULT_SIGMA_METHODS = (
    SigmaMethod.EXACT_MOMENTS,
    SigmaMethod.PLUGIN,
    SigmaMethod.REPLICATION,
)


@dataclass(frozen=True)
class SimulationConfig:
    law: LawSpec
    n: int
    replications: int
    master_seed: int
    coefficient_mode: CoefficientMode = CoefficientMode.CANONICAL
    sigma_methods: Tuple[SigmaMethod, ...] = DEFAULT_SIGMA_METHODS

    def __post_init__(self) -> None:
        if self.n < 2:
            raise DomainError(f"n must be >= 2, got {self.n}")
        if self.replications < 2:
            raise DomainError(
                f"replications must be >= 2, got {self.replications}")
        if not 0 <= self.master_seed < 2 ** 64:
            raise DomainError("master_seed must fit in 64 unsigned bits")
        if not self.sigma_methods:
            raise DomainError("at least one sigma method must be selected")


@dataclass(frozen=True)
class ErrorStats:
    """me = mean error, mae = mean absolute error, rmse = root mean squared
    error, sd = standard deviation of the estimates (rmse without bias)."""

    me: float
    mae: float
    rmse: float
    sd: float


@dataclass
class SimulationReport:
    config: SimulationConfig
    influence_a: QuadraticInfluence
    influence_b: QuadraticInfluence
    a_hat: np.ndarray
    b_hat: np.ndarray
    dev_a: np.ndarray
    dev_b: np.ndarray
    sd_h: np.ndarray
    sd_l: np.ndarray
    cov_hl: np.ndarray
    infeasible_count: int
    error_a: ErrorStats
    error_b: ErrorStats
    sigma_exact: Optional[Covariance2]
    sigma_plugin: Optional[Covariance2]
    sigma_replication: Optional[Covariance2]
    ratios: Optional[Dict[str, float]]
    marginal_rates: Dict[str, float] = field(default_factory=dict)
    omnibus_rates: Dict[str, Optional[float]] = field(default_factory=dict)

    @property
    def feasible(self) -> int:
        return int(self.a_hat.size)


def error_table(a_hat, b_hat, a: float, b: float
                ) -> Tuple[ErrorStats, ErrorStats]:
    """Point-estimation error summaries for both parameters."""
    out = []
    for values, truth in ((a_hat, a), (b_hat, b)):
        v = np.asarray(values, dtype=float).ravel()
        if v.size == 0:
            raise InsufficientDataError("error table of an empty array")
        err = v - truth
        out.append(ErrorStats(
            me=float(err.mean()),
            mae=float(np.abs(err).mean()),
            rmse=float(np.sqrt(np.mean(err * err))),
            sd=float(np.std(err, ddof=1)) if v.size > 1 else 0.0,
        ))
    return out[0], out[1]


def ratio_table(
    sd_h: np.ndarray,
    sd_l: np.ndarray,
    cov_hl: np.ndarray,
    sigma_replication: Covariance2,
    sigma_exact: Covariance2,
    mode: CoefficientMode = CoefficientMode.CANONICAL,
) -> Dict[str, float]:
    """Estimated-over-exact ratios for the six covariance entries.

    Plugin rows aggregate the per-replication statistics; in canonical mode
    the variances average as mean(sd^2), in verbatim mode as mean(sd)^2
    (the historical average-then-square order).  Replication rows divide the
    replication covariance entries by the exact ones.  All six are on the
    variance scale.
    """
    for name, value in (("s11", sigma_exact.s11), ("s22", sigma_exact.s22),
                        ("s12", sigma_exact.s12)):
        if value == 0.0:
            raise DomainError(f"exact covariance entry {name} is zero")
    p11, p22, p12 = _aggregate_plugin(sd_h, sd_l, cov_hl, mode)
    return {
        "a_plugin": p11 / sigma_exact.s11,
        "b_plugin": p22 / sigma_exact.s22,
        "ab_plugin": p12 / sigma_exact.s12,
        "a_replication": sigma_replication.s11 / sigma_exact.s11,
        "b_replication": sigma_replication.s22 / sigma_exact.s22,
        "ab_replication": sigma_replication.s12 / sigma_exact.s12,
    }


def _aggregate_plugin(sd_h, sd_l, cov_hl, mode: CoefficientMode
                      ) -> Tuple[float, float, float]:
    if mode is CoefficientMode.VERBATIM:
        s11 = float(np.mean(sd_h)) ** 2
        s22 = float(np.mean(sd_l)) ** 2
    else:
        s11 = float(np.mean(np.square(sd_h)))
        s22 = float(np.mean(np.square(sd_l)))
    return s11, s22, float(np.mean(cov_hl))


def _simulate_block(law: LawSpec, n: int, master_seed: int,
                    j_lo: int, j_hi: int,
                    h: QuadraticInfluence, l: QuadraticInfluence):
    """Replications j_lo..j_hi-1 (1-based indices); returns per-rep arrays."""
    a_hat, b_hat, sd_h, sd_l, cov_hl = [], [], [], [], []
    infeasible = 0
    for j in range(j_lo, j_hi):
        x = sample(law, n, substream_seed(master_seed, j))
        try:
            est = estimate(law.kind, empirical_moments(x))
        except DegenerateSampleError:
            infeasible += 1
            continue
        sig = covariance_plugin(x, h, l)
        a_hat.append(est.a_hat)
        b_hat.append(est.b_hat)
        sd_h.append(math.sqrt(sig.s11))
        sd_l.append(math.sqrt(sig.s22))
        cov_hl.append(sig.s12)
    return a_hat, b_hat, sd_h, sd_l, cov_hl, infeasible


def run_simulation(cfg: SimulationConfig, workers: int = 1
                   ) -> SimulationReport:
    """Run the full replication study described by ``cfg``.

    ``workers`` > 1 distributes replications over processes; the report is
    byte-identical to a serial run.
    """
    law, n, b_total = cfg.law, cfg.n, cfg.replications
    h, l = influence_pair(law, cfg.coefficient_mode)

    exact_routes = (SigmaMethod.EXACT_MOMENTS, SigmaMethod.EXACT_QUADRATURE)
    sigmas = {m: sigma_for(m, law, h, l)
              for m in exact_routes if m in cfg.sigma_methods}
    sigma_exact = sigmas.get(SigmaMethod.EXACT_MOMENTS,
                             sigmas.get(SigmaMethod.EXACT_QUADRATURE))

    bounds = _chunk_bounds(b_total, workers)
    if workers <= 1 or len(bounds) <= 1:
        blocks = [_simulate_block(law, n, cfg.master_seed, lo, hi, h, l)
                  for lo, hi in bounds]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_simulate_block, law, n, cfg.master_seed,
                                   lo, hi, h, l) for lo, hi in bounds]
            blocks = [f.result() for f in futures]

    a_hat = np.array([v for blk in blocks for v in blk[0]])
    b_hat = np.array([v for blk in blocks for v in blk[1]])
    sd_h = np.array([v for blk in blocks for v in blk[2]])
    sd_l = np.array([v for blk in blocks for v in blk[3]])
    cov_hl = np.array([v for blk in blocks for v in blk[4]])
    infeasible = sum(blk[5] for blk in blocks)
    if a_hat.size < 2:
        raise MomestError(
            f"only {a_hat.size} of {b_total} replications were feasible")

    dev_a = np.sqrt(n) * (a_hat - law.p1)
    dev_b = np.sqrt(n) * (b_hat - law.p2)
    err_a, err_b = error_table(a_hat, b_hat, law.p1, law.p2)

    if SigmaMethod.REPLICATION in cfg.sigma_methods:
        sigmas[SigmaMethod.REPLICATION] = covariance_replication(dev_a, dev_b)
    if SigmaMethod.PLUGIN in cfg.sigma_methods:
        p11, p22, p12 = _aggregate_plugin(sd_h, sd_l, cov_hl,
                                          cfg.coefficient_mode)
        # aggregated across replications; not guaranteed PSD, so built
        # without the Cauchy-Schwarz check
        sigmas[SigmaMethod.PLUGIN] = Covariance2(
            s11=p11, s22=p22, s12=p12, det=p11 * p22 - p12 * p12,
            method=SigmaMethod.PLUGIN)
    sigma_rep = sigmas.get(SigmaMethod.REPLICATION)
    sigma_plug = sigmas.get(SigmaMethod.PLUGIN)

    ratios = None
    if sigma_exact is not None and sigma_rep is not None:
        ratios = ratio_table(sd_h, sd_l, cov_hl, sigma_rep, sigma_exact,
                             cfg.coefficient_mode)

    report = SimulationReport(
        config=cfg, influence_a=h, influence_b=l,
        a_hat=a_hat, b_hat=b_hat, dev_a=dev_a, dev_b=dev_b,
        sd_h=sd_h, sd_l=sd_l, cov_hl=cov_hl,
        infeasible_count=infeasible,
        error_a=err_a, error_b=err_b,
        sigma_exact=sigma_exact, sigma_plugin=sigma_plug,
        sigma_replication=sigma_rep, ratios=ratios,
    )
    _attach_rates(report, sigmas)
    return report


def _chunk_bounds(b_total: int, workers: int) -> list[tuple[int, int]]:
    chunks = 1 if workers <= 1 else min(b_total, 4 * workers)
    step = (b_total + chunks - 1) // chunks
    return [(lo, min(lo + step, b_total + 1))
            for lo in range(1, b_total + 1, step)]


def _attach_rates(report: SimulationReport,
                  sigmas: Dict[SigmaMethod, Covariance2]) -> None:
    """Empirical rejection rates of the marginal and omnibus tests for every
    selected covariance method."""
    for method in report.config.sigma_methods:
        sig = sigmas[method]
        tag = method.value
        for param, dev in (("a", report.dev_a), ("b", report.dev_b)):
            var_entry = sig.s11 if param == "a" else sig.s22
            if var_entry > 0.0:
                rate = float(np.mean(
                    np.abs(dev) > Z_CRIT_5PCT * np.sqrt(var_entry)))
            else:
                rate = float("nan")
            report.marginal_rates[f"{param}:{tag}"] = rate
        if sig.det > det_floor(sig):
            q = (sig.s22 * report.dev_a ** 2 + sig.s11 * report.dev_b ** 2
                 - 2.0 * sig.s12 * report.dev_a * report.dev_b) / sig.det
            report.omnibus_rates[tag] = float(np.mean(q > _CHI2_CRIT_5PCT))
        else:
            report.omnibus_rates[tag] = None


def qq_plot_data(values) -> np.ndarray:
    """Pairs (normal quantile at (i - 1/2)/n, i-th order statistic)."""
    v = np.sort(np.asarray(values, dtype=float).ravel())
    if v.size < 2:
        raise InsufficientDataError("qq plot needs at least 2 values")
    u = (np.arange(1, v.size + 1) - 0.5) / v.size
    return np.column_stack([normal_quantile(u), v])


def silverman_bandwidth(values) -> float:
    """0.9 min(sd, IQR/1.34) n^(-1/5)."""
    v = np.asarray(values, dtype=float).ravel()
    sd = float(np.std(v, ddof=1))
    q75, q25 = np.percentile(v, [75.0, 25.0])
    spread = min(sd, (q75 - q25) / 1.34)
    return 0.9 * spread * v.size ** (-0.2)


def parzen_density(values, grid_lo: float, grid_hi: float, grid_points: int,
                   bandwidth: Optional[float] = None) -> np.ndarray:
    """Gaussian-kernel density estimate on a uniform grid.

    Returns an array of (x, density) rows.  Without an explicit bandwidth
    the Silverman rule is applied; a zero-spread sample then raises.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size < 2:
        raise InsufficientDataError("density estimate needs >= 2 values")
    if not grid_lo < grid_hi:
        raise DomainError(f"need grid_lo < grid_hi, got {grid_lo}, {grid_hi}")
    if grid_points < 2:
        raise DomainError(f"need grid_points >= 2, got {grid_points}")
    if bandwidth is None:
        bandwidth = silverman_bandwidth(v)
        if not bandwidth > 0.0:
            raise DegenerateSampleError(
                "sample has zero spread; pass an explicit bandwidth")
    elif not bandwidth > 0.0:
        raise DomainError(f"bandwidth must be > 0, got {bandwidth}")
    xs = np.linspace(grid_lo, grid_hi, grid_points)
    z = (xs[:, None] - v[None, :]) / bandwidth
    dens = np.exp(-0.5 * z * z).sum(axis=1) / (
        v.size * bandwidth * np.sqrt(2.0 * np.pi))
    return np.column_stack([xs, dens])
