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
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Optional

import numpy as np

from .asymptotics import Covariance2
from .montecarlo import SimulationReport, parzen_density, qq_plot_data

__all__ = ["write_report", "report_to_dict"]

SCHEMA_VERSION = "1"


def _write_csv(path: Path, header: list[str], rows) -> None:
    """``rows`` is a 2-D float array, or lists of str and float cells."""
    if isinstance(rows, np.ndarray):
        body = [",".join(map(repr, row)) for row in rows.tolist()]
    else:
        body = [",".join(cell if isinstance(cell, str) else repr(float(cell))
                         for cell in row) for row in rows]
    path.write_text("\n".join([",".join(header), *body]) + "\n",
                    encoding="utf-8")


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
            "a": asdict(report.influence_a),
            "b": asdict(report.influence_b),
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
    """Write all report files into ``outdir``; returns the paths written."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def emit_csv(name, header, rows):
        path = out / name
        _write_csv(path, header, rows)
        written.append(path)

    emit_csv("error_table.csv", ["parameter", "me", "mae", "rmse", "sd"],
             [["a", report.error_a.me, report.error_a.mae,
               report.error_a.rmse, report.error_a.sd],
              ["b", report.error_b.me, report.error_b.mae,
               report.error_b.rmse, report.error_b.sd]])

    if report.ratios is not None:
        emit_csv("ratio_table.csv", ["ratio", "value"],
                 [[k, v] for k, v in report.ratios.items()])

    emit_csv("pvalues.csv", ["parameter", "sigma", "rate"],
             [[*key.split(":"), rate]
              for key, rate in report.marginal_rates.items()])

    emit_csv("omnibus.csv", ["sigma", "rate"],
             [[key, "" if rate is None else rate]
              for key, rate in report.omnibus_rates.items()])

    for param, dev in (("a", report.dev_a), ("b", report.dev_b)):
        sd = float(np.std(dev, ddof=1))
        std = dev / sd if sd > 0.0 else dev
        emit_csv(f"qq_{param}.csv", ["theoretical", "empirical"],
                 qq_plot_data(std))
        emit_csv(f"parzen_{param}.csv", ["x", "density"],
                 parzen_density(std, -4.0, 4.0, 201))

    path = out / "report.json"
    path.write_text(render_json(report_to_dict(report)), encoding="utf-8")
    written.append(path)
    return written
