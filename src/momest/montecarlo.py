"""Replicated-estimation Monte-Carlo harness.

For a configured law, sample size n and replication count B, the engine
(``_replicate``) draws B independent samples (replication j uses the
documented substream seed of the master seed) and returns one record: per
replication (a_hat, b_hat) and the plugin statistics sd(H(X)), sd(L(X)),
cov(H(X), L(X)), with the count of infeasible replications.  The summary
(:func:`run_simulation`) reduces that record to a report:

* scaled deviations sqrt(n)(a_hat - a), sqrt(n)(b_hat - b),
* point-estimation error summaries (ME, MAE, RMSE and the sd variant),
* estimated-over-exact variance ratios,
* the share of replications that the marginal and omnibus tests of
  ``momest test`` (:mod:`momest.significance`) reject at 5%, per sigma method.

Replications violating an estimator precondition are counted as infeasible
and excluded (never resampled, which would bias calibration rates).
Reports are bit-identical for identical configurations regardless of the
worker count: replication j depends only on its own substream, and the
records of row blocks and thread ranges merge in replication order.

Three things outlive a study, so that a process running many studies (a
sweep over n and seeds) pays for them once: the influence pair and the
exact-route Σs of a law, memoized per (law, coefficient mode, exact routes),
the spare row-block workspaces that replication ranges take and give back,
and the normal quantiles of a qq plot, memoized per value count.  None
changes a report bit.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from math import isfinite
from typing import Dict, Iterable, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .asymptotics import (CoefficientMode, Covariance2, QuadraticInfluence,
                          SigmaMethod, covariance_replication, influence_pair,
                          plugin_rows, sigma_for)
from .errors import (DegenerateSampleError, DomainError,
                     InsufficientDataError, MomestError, _integer)
from .estimation import _require_finite, estimate_rows
from .laws import LawSpec, _member, sample_rows
from .rng import Workspace, _substream_seeds
from .significance import (_marginal_core, _omnibus_core, _rejects,
                           _usable_variance, det_floor)
from .special import normal_quantile

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

#: Sample values per row block of the replication engine: 327 replications
#: at n = 200, 13 at n = 5000, one at n >= 32769.  Larger blocks spend less
#: per-call overhead per replication; the gamma sampler keeps its largest
#: buffers cache-sized by running its first round in chunks of
#: ``rng.FIRST_ROUND_VALUES`` values.
ROW_BLOCK_VALUES = 65536

#: Kernel values per chunk of :func:`parzen_density`; its two chunk buffers
#: take 256 KB each.
PARZEN_CHUNK_VALUES = 32768

DEFAULT_SIGMA_METHODS = (
    SigmaMethod.EXACT_MOMENTS,
    SigmaMethod.PLUGIN,
    SigmaMethod.REPLICATION,
)


@dataclass(frozen=True)
class SimulationConfig:
    """One replication study.  The coefficient mode and each sigma method
    may be given as the enum member or its value and are stored as the
    member; any other value raises :class:`DomainError`."""

    law: LawSpec
    n: int
    replications: int
    master_seed: int
    coefficient_mode: CoefficientMode = CoefficientMode.CANONICAL
    sigma_methods: Tuple[SigmaMethod, ...] = DEFAULT_SIGMA_METHODS

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficient_mode", _member(
            CoefficientMode, self.coefficient_mode, "coefficient mode"))
        object.__setattr__(self, "sigma_methods", tuple(
            _member(SigmaMethod, m, "sigma method")
            for m in self.sigma_methods))
        for name in ("n", "replications", "master_seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.n < 2:
            raise DomainError(f"n must be >= 2, got {self.n}")
        if self.replications < 2:
            raise DomainError(
                f"replications must be >= 2, got {self.replications}")
        if not 0 <= self.master_seed < 2 ** 64:
            raise DomainError("master_seed must fit in 64 unsigned bits")
        if not self.sigma_methods:
            raise DomainError("at least one sigma method must be selected")
        if len(set(self.sigma_methods)) < len(self.sigma_methods):
            names = " ".join(m.value for m in self.sigma_methods)
            raise DomainError(f"sigma methods must not repeat, got {names}")


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
    marginal_rates: Dict[str, float]
    omnibus_rates: Dict[str, Optional[float]]

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


class _Replicates(NamedTuple):
    """Per-replication record of a study, in replication order: the
    estimates and plugin statistics of the feasible replications, and the
    number of infeasible ones."""

    a_hat: np.ndarray
    b_hat: np.ndarray
    sd_h: np.ndarray
    sd_l: np.ndarray
    cov_hl: np.ndarray
    infeasible: int


def _merge(parts: Iterable[_Replicates]) -> _Replicates:
    """The records of consecutive replication ranges joined into one."""
    *arrays, counts = zip(*parts)
    return _Replicates(*map(np.concatenate, arrays), int(sum(counts)))


def _simulate_block(law: LawSpec, n: int, master_seed: int,
                    j_lo: int, j_hi: int,
                    h: QuadraticInfluence, l: QuadraticInfluence
                    ) -> list[_Replicates]:
    """Records of replications j_lo..j_hi-1 (1-based indices), one per
    row block.

    Replications run in row blocks of ``ROW_BLOCK_VALUES // n`` samples
    (at least one): each block is drawn, estimated and reduced to its plugin
    statistics at once, giving the same bits as one replication at a time.
    The blocks draw and reduce into one workspace, see :func:`_workspace`.
    """
    rows = max(1, ROW_BLOCK_VALUES // n)
    parts = []
    with _workspace(n) as workspace:
        for lo in range(j_lo, j_hi, rows):
            seeds = _substream_seeds(master_seed, lo, min(lo + rows, j_hi))
            x = sample_rows(law, n, seeds, workspace)
            a_hat, b_hat, feasible = estimate_rows(law.kind, x)
            if not feasible.all():
                x = x[feasible]
            s11, s22, s12 = plugin_rows(x, h, l, workspace)
            parts.append(_Replicates(
                a_hat, b_hat, np.sqrt(s11), np.sqrt(s22), s12,
                feasible.size - np.count_nonzero(feasible)))
    return parts


_SPARE: list[Workspace] = []
_SPARE_LOCK = threading.Lock()


@contextmanager
def _workspace(n: int) -> Iterator[Workspace]:
    """A workspace for one range's row blocks of n values a row.

    For n <= ``ROW_BLOCK_VALUES`` a range takes a spare workspace, or makes
    one if none is spare, and gives it back when it ends, so that the
    ranges after the first, on any thread and in any study, fault no buffer
    in; two live ranges never share one, and the buffers stay within a few
    row blocks of values.  A larger n gets a workspace of its own, freed
    with its range.
    """
    if n > ROW_BLOCK_VALUES:
        yield Workspace()
        return
    with _SPARE_LOCK:
        workspace = _SPARE.pop() if _SPARE else Workspace()
    try:
        yield workspace
    finally:
        with _SPARE_LOCK:
            _SPARE.append(workspace)


def _replicate(cfg: SimulationConfig, h: QuadraticInfluence,
               l: QuadraticInfluence, workers: int) -> _Replicates:
    """The record of every replication of ``cfg``, the same whatever the
    worker count: ``workers`` > 1 splits the replications into contiguous
    ranges over up to that many threads (numpy releases the GIL), and the
    calling thread runs the first range; one range makes no pool."""
    first, *others = _thread_ranges(cfg.replications, workers)
    args = (cfg.law, cfg.n, cfg.master_seed)
    if not others:
        return _merge(_simulate_block(*args, *first, h, l))
    with ThreadPoolExecutor(max_workers=len(others)) as pool:
        futures = [pool.submit(_simulate_block, *args, lo, hi, h, l)
                   for lo, hi in others]
        parts = _simulate_block(*args, *first, h, l)
        for future in futures:
            parts += future.result()
    return _merge(parts)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else the machine's CPU count (1 if unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_ranges(b_total: int, workers: int) -> list[tuple[int, int]]:
    """Near-equal contiguous ranges of 1-based replications, one per thread,
    at most one per usable CPU."""
    threads = min(workers, b_total, _usable_cpus())
    cuts = [1 + b_total * k // threads for k in range(threads + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


_EXACT_ROUTES = (SigmaMethod.EXACT_MOMENTS, SigmaMethod.EXACT_QUADRATURE)


@lru_cache
def _law_constants(law: LawSpec, mode: CoefficientMode,
                   routes: Tuple[SigmaMethod, ...]) -> tuple:
    """The influence pair (h, l) of ``law`` in ``mode`` and the pairs
    (route, Σ) of the exact Σ routes in ``routes``: they depend on neither n
    nor the seed, so a process computes them once per key and its studies
    share the frozen objects.  A refusal is not stored, so it raises
    again."""
    h, l = influence_pair(law, mode)
    return h, l, tuple((m, sigma_for(m, law, h, l)) for m in routes)


def run_simulation(cfg: SimulationConfig, workers: int = 1
                   ) -> SimulationReport:
    """Run the full replication study described by ``cfg``.

    ``workers`` > 1 splits the replications over up to that many threads;
    the report is byte-identical to a serial run.  The influence pair and
    the exact Σ routes come from :func:`_law_constants`, computed by the
    first study of a law in the process; they run before the replications,
    so a law they refuse fails at once, in every study.  The plugin and
    replication Σ depend on the draws and are computed per study.
    """
    if _integer(workers, "workers") < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    law, n, methods = cfg.law, cfg.n, cfg.sigma_methods
    h, l, exact = _law_constants(law, cfg.coefficient_mode, tuple(
        m for m in _EXACT_ROUTES if m in methods))
    sigmas = dict(exact)

    rep = _replicate(cfg, h, l, workers)
    if rep.a_hat.size < 2:
        raise MomestError(f"only {rep.a_hat.size} of {cfg.replications} "
                          f"replications were feasible")
    dev_a = np.sqrt(n) * (rep.a_hat - law.p1)
    dev_b = np.sqrt(n) * (rep.b_hat - law.p2)
    if SigmaMethod.REPLICATION in methods:
        sigmas[SigmaMethod.REPLICATION] = covariance_replication(dev_a, dev_b)
    if SigmaMethod.PLUGIN in methods:
        p11, p22, p12 = _aggregate_plugin(rep.sd_h, rep.sd_l, rep.cov_hl,
                                          cfg.coefficient_mode)
        # aggregated across replications; not guaranteed PSD, so built
        # without the Cauchy-Schwarz check
        sigmas[SigmaMethod.PLUGIN] = Covariance2(
            s11=p11, s22=p22, s12=p12, det=p11 * p22 - p12 * p12,
            method=SigmaMethod.PLUGIN)
    sigma_exact = sigmas.get(SigmaMethod.EXACT_MOMENTS,
                             sigmas.get(SigmaMethod.EXACT_QUADRATURE))
    sigma_rep = sigmas.get(SigmaMethod.REPLICATION)
    err_a, err_b = error_table(rep.a_hat, rep.b_hat, law.p1, law.p2)
    marginal, omnibus = _rates(law, n, rep.a_hat, rep.b_hat,
                               [sigmas[m] for m in methods])
    return SimulationReport(
        config=cfg, influence_a=h, influence_b=l,
        a_hat=rep.a_hat, b_hat=rep.b_hat, dev_a=dev_a, dev_b=dev_b,
        sd_h=rep.sd_h, sd_l=rep.sd_l, cov_hl=rep.cov_hl,
        infeasible_count=rep.infeasible, error_a=err_a, error_b=err_b,
        sigma_exact=sigma_exact, sigma_plugin=sigmas.get(SigmaMethod.PLUGIN),
        sigma_replication=sigma_rep,
        ratios=(None if sigma_exact is None or sigma_rep is None else
                ratio_table(rep.sd_h, rep.sd_l, rep.cov_hl, sigma_rep,
                            sigma_exact, cfg.coefficient_mode)),
        marginal_rates=marginal, omnibus_rates=omnibus)


def _rates(law: LawSpec, n: int, a_hat: np.ndarray, b_hat: np.ndarray,
           sigmas: Iterable[Covariance2]
           ) -> Tuple[Dict[str, float], Dict[str, Optional[float]]]:
    """Marginal and omnibus rates: the share of the estimates on which each
    test of ``momest test`` rejects at 5%, keyed by each Σ's method in the
    order given; nan for a variance entry that is not positive and finite,
    None for a Σ too close to singular."""
    marginal, omnibus = {}, {}
    for sig in sigmas:
        tag = sig.method.value
        for param, est, theta0, var_entry in (("a", a_hat, law.p1, sig.s11),
                                              ("b", b_hat, law.p2, sig.s22)):
            rate = float("nan")
            if _usable_variance(var_entry):
                _, p = _marginal_core(est, theta0, var_entry, n)
                rate = float(np.mean(_rejects(p)))
            marginal[f"{param}:{tag}"] = rate
        rate = None
        if sig.det > det_floor(sig):
            _, p = _omnibus_core(a_hat, b_hat, law.p1, law.p2, n, sig)
            rate = float(np.mean(_rejects(p)))
        omnibus[tag] = rate
    return marginal, omnibus


def _figure_values(values, too_few: str) -> np.ndarray:
    """``values`` as a flat float array; fewer than 2 values raise
    :class:`InsufficientDataError` with the message ``too_few``, and a
    non-finite value raises :class:`DomainError`."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size < 2:
        raise InsufficientDataError(too_few)
    _require_finite(v)
    return v


@lru_cache(maxsize=8)
def _normal_scores(m: int) -> np.ndarray:
    """The normal quantiles at (i - 1/2)/m, i = 1..m, the theoretical
    column of a qq plot of m values.  They depend on m alone, so a process
    computes them once per m; the array is shared and read-only."""
    scores = normal_quantile((np.arange(1, m + 1) - 0.5) / m)
    scores.flags.writeable = False
    return scores


def qq_plot_data(values) -> np.ndarray:
    """Pairs (normal quantile at (i - 1/2)/n, i-th order statistic).
    Non-finite values raise :class:`DomainError`."""
    v = np.sort(_figure_values(values, "qq plot needs at least 2 values"))
    return np.column_stack([_normal_scores(v.size), v])


def silverman_bandwidth(values) -> float:
    """0.9 min(sd, IQR/1.34) n^(-1/5).  Non-finite values raise
    :class:`DomainError`."""
    return _silverman(_figure_values(values,
                                     "bandwidth needs at least 2 values"))


def _silverman(v: np.ndarray) -> float:
    """:func:`silverman_bandwidth` of checked values."""
    sd = float(np.std(v, ddof=1))
    q75, q25 = np.percentile(v, [75.0, 25.0])
    spread = min(sd, (q75 - q25) / 1.34)
    return 0.9 * spread * v.size ** (-0.2)


def parzen_density(values, grid_lo: float, grid_hi: float, grid_points: int,
                   bandwidth: Optional[float] = None) -> np.ndarray:
    """Gaussian-kernel density estimate on a uniform grid.

    Returns an array of (x, density) rows.  Without an explicit bandwidth
    the Silverman rule is applied; a zero-spread sample then raises.
    Non-finite values, grid bounds or bandwidth, and a grid_points that is
    not an integer, raise :class:`DomainError`.
    """
    v = _figure_values(values, "density estimate needs >= 2 values")
    if not (isfinite(grid_lo) and isfinite(grid_hi)):
        raise DomainError(f"need finite grid bounds, got {grid_lo}, "
                          f"{grid_hi}")
    if not grid_lo < grid_hi:
        raise DomainError(f"need grid_lo < grid_hi, got {grid_lo}, {grid_hi}")
    if _integer(grid_points, "grid_points") < 2:
        raise DomainError(f"need grid_points >= 2, got {grid_points}")
    if bandwidth is not None and not (bandwidth > 0.0
                                      and isfinite(bandwidth)):
        raise DomainError(
            f"bandwidth must be finite and > 0, got {bandwidth}")
    xs = np.linspace(grid_lo, grid_hi, grid_points)
    return np.column_stack([xs, _density(v, xs, bandwidth)])


def _density(v: np.ndarray, xs: np.ndarray,
             bandwidth: Optional[float] = None) -> np.ndarray:
    """The density column of :func:`parzen_density` for checked values
    ``v`` at the grid ``xs``; a bandwidth of None is the Silverman rule,
    which refuses a zero-spread sample."""
    if bandwidth is None:
        bandwidth = _silverman(v)
        if not bandwidth > 0.0:
            raise DegenerateSampleError(
                "sample has zero spread; pass an explicit bandwidth")
    # kernel rows in chunks of about PARZEN_CHUNK_VALUES values; each row is
    # summed whole, so the sums keep the bits of the full kernel matrix
    step = max(1, PARZEN_CHUNK_VALUES // v.size)
    z = np.empty((min(step, xs.size), v.size))
    kernel = np.empty_like(z)
    sums = np.empty(xs.size)
    for lo in range(0, xs.size, step):
        hi = min(lo + step, xs.size)
        zc, kc = z[:hi - lo], kernel[:hi - lo]
        np.subtract(xs[lo:hi, None], v, out=zc)
        zc /= bandwidth
        np.multiply(zc, -0.5, out=kc)
        kc *= zc
        np.exp(kc, out=kc)
        kc.sum(axis=1, out=sums[lo:hi])
    return sums / (v.size * bandwidth * np.sqrt(2.0 * np.pi))
