"""Deterministic CSV/JSON serialization of simulation reports.

Every file a run writes is a pure function of the configuration, so repeated
runs are byte-identical:

* ``error_table.csv``   parameter,me,mae,rmse,sd
* ``ratio_table.csv``   ratio,value (six estimated-over-exact ratios)
* ``pvalues.csv``       parameter,sigma,rate (marginal rejection rates)
* ``omnibus.csv``       sigma,rate (omnibus rejection rates)
* ``qq_a.csv, qq_b.csv``        theoretical,empirical (deviations
  standardized by their replication standard deviation)
* ``parzen_a.csv, parzen_b.csv``  x,density of the same standardized
  deviations on [-4, 4], 201 points, Silverman bandwidth
* ``report.json``       one document with the configuration echo, counts,
  covariance estimates and all tables (schema_version "1")

Floats are rendered with ``repr``, the shortest round-trip decimal form.
The columns that depend on no draw, the qq quantiles for each feasible count
and the Parzen grid, are rendered once per process and reused.

A file that already exists is rewritten in place: it is opened without
truncation, overwritten and then cut to its new length, which on ext4 costs
a small fraction of truncating it first (that makes the kernel flush it on
close).  A crash in the middle of a write can leave a file that mixes the
new bytes with the tail of the old ones, as a truncating write can leave a
short one.  A run whose configuration gives no ratios removes any
``ratio_table.csv`` left by an earlier run.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np

from .asymptotics import Covariance2
from .montecarlo import (SimulationReport, _density, _figure_values,
                         _normal_scores)

__all__ = ["write_report", "report_to_dict"]

SCHEMA_VERSION = "1"


#: The files of a bundle, in the order ``write_report`` writes them.
FILE_NAMES = ("error_table.csv", "ratio_table.csv", "pvalues.csv",
              "omnibus.csv", "qq_a.csv", "parzen_a.csv", "qq_b.csv",
              "parzen_b.csv", "report.json")


def _num(value) -> str:
    return repr(float(value))


def _cells(column: np.ndarray) -> list[str]:
    """The ``repr`` of each value of a float column."""
    return list(map(repr, column.tolist()))


@lru_cache(maxsize=8)
def _score_cells(m: int) -> tuple[str, ...]:
    """The rendered quantile column of a qq file of m values."""
    return tuple(_cells(_normal_scores(m)))


#: The x column of both Parzen files: 201 points on [-4, 4], and its cells.
_GRID = np.linspace(-4.0, 4.0, 201)
_GRID_CELLS = tuple(_cells(_GRID))


def _csv(header: str, rows) -> str:
    """CSV text of a header line and rows of rendered cells."""
    return "\n".join([header, *map(",".join, rows)]) + "\n"


#: Flags that open a bundle file for rewriting in place: without O_TRUNC
#: (see the module docstring), and binary where the platform has text mode.
_REWRITE = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _write(path: Path, text: str) -> None:
    """Write ``text`` as UTF-8 over ``path`` in place and cut the file to
    the length written."""
    data = text.encode("utf-8")
    fd = os.open(path, _REWRITE, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        os.ftruncate(fd, written)
    finally:
        os.close(fd)


def _sigma_dict(sigma: Optional[Covariance2]) -> Optional[dict]:
    if sigma is None:
        return None
    return {"s11": sigma.s11, "s22": sigma.s22, "s12": sigma.s12,
            "det": sigma.det, "method": sigma.method.value}


def report_to_dict(report: SimulationReport) -> dict:
    """JSON-ready dictionary of everything except the bulk arrays."""
    cfg = report.config
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "law": cfg.law.kind.value,
            "a": cfg.law.p1,
            "b": cfg.law.p2,
            "n": cfg.n,
            "replications": cfg.replications,
            "master_seed": cfg.master_seed,
            "coefficient_mode": cfg.coefficient_mode.value,
            "sigma_methods": [m.value for m in cfg.sigma_methods],
        },
        "influence": {
            "a": vars(report.influence_a).copy(),
            "b": vars(report.influence_b).copy(),
        },
        "feasible": report.feasible,
        "infeasible": report.infeasible_count,
        "errors": {
            "a": vars(report.error_a).copy(),
            "b": vars(report.error_b).copy(),
        },
        "sigma": {
            "exact": _sigma_dict(report.sigma_exact),
            "plugin": _sigma_dict(report.sigma_plugin),
            "replication": _sigma_dict(report.sigma_replication),
        },
        "ratios": report.ratios,
        "marginal_rejection_rates": report.marginal_rates,
        "omnibus_rejection_rates": report.omnibus_rates,
    }


def render_json(document: dict) -> str:
    """Canonical JSON rendering: sorted keys, two-space indent, newline."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def write_report(report: SimulationReport, outdir) -> list[Path]:
    """Write all report files into ``outdir``; returns the paths written.

    Every file is rendered before the first one is written, and each is
    rewritten in place (see the module docstring).  When ``report.ratios``
    is None no ratio table is written, and a ``ratio_table.csv`` already in
    ``outdir`` is removed, so the directory holds exactly the files
    returned."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    files = {"error_table.csv": _csv(
        "parameter,me,mae,rmse,sd",
        [[param, *map(_num, (e.me, e.mae, e.rmse, e.sd))]
         for param, e in (("a", report.error_a), ("b", report.error_b))])}
    if report.ratios is not None:
        files["ratio_table.csv"] = _csv(
            "ratio,value", [[k, _num(v)] for k, v in report.ratios.items()])
    files["pvalues.csv"] = _csv(
        "parameter,sigma,rate",
        [[*key.split(":"), _num(rate)]
         for key, rate in report.marginal_rates.items()])
    files["omnibus.csv"] = _csv(
        "sigma,rate", [[key, "" if rate is None else _num(rate)]
                       for key, rate in report.omnibus_rates.items()])
    # both deviation arrays hold one value per feasible replication, so the
    # qq files share their quantile column and the parzen files their grid,
    # each rendered once per process
    for param, dev in (("a", report.dev_a), ("b", report.dev_b)):
        sd = float(np.std(dev, ddof=1))
        std = _figure_values(dev / sd if sd > 0.0 else dev,
                             "qq plot needs at least 2 values")
        files[f"qq_{param}.csv"] = _csv("theoretical,empirical", zip(
            _score_cells(std.size), _cells(np.sort(std))))
        files[f"parzen_{param}.csv"] = _csv("x,density", zip(
            _GRID_CELLS, _cells(_density(std, _GRID))))
    files["report.json"] = render_json(report_to_dict(report))

    if report.ratios is None:
        (out / "ratio_table.csv").unlink(missing_ok=True)
    written = []
    for name, text in files.items():
        path = out / name
        _write(path, text)
        written.append(path)
    return written
