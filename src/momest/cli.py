"""Command-line front end.

Subcommands::

    momest coeffs KIND A B [--mode canonical|verbatim] [--format text|json]
    momest estimate KIND --input FILE [--column NAME] [--format text|json]
    momest test KIND A0 B0 --input FILE [--sigma METHOD] [--format ...]
    momest simulate KIND A B --n N --replications B --seed S [--out DIR] ...

Exit codes (so pipelines can branch without parsing text):

* 0  success; for ``test``, the omnibus test did not reject at 5%
* 2  input or domain error (unparsable sample, infeasible moments, ...)
* 3  the omnibus test rejected at the 5% level
* 4  the covariance estimate was too close to singular for a joint test

Sample files are UTF-8, with or without a leading byte-order mark, one
decimal per line; ``#`` starts a comment.  With ``--column NAME`` the input
is parsed as a headered CSV instead, reading the one column headed NAME;
blank cells and short rows are skipped.  Errors name the line of the file.
The only environment variable consulted is ``MOMEST_OUTDIR``, the default
output directory of ``simulate``.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import re
import sys
import warnings
from dataclasses import asdict
from math import isfinite
from pathlib import Path
from typing import Optional

import numpy as np

from .asymptotics import (CoefficientMode, SigmaMethod, influence_pair,
                          sigma_for)
from .errors import (DomainError, MomestError, SampleParseError,
                     SingularCovarianceError)
from .estimation import empirical_moments, estimate
from .laws import LawKind, LawSpec
from .montecarlo import (DEFAULT_SIGMA_METHODS, SimulationConfig,
                         run_simulation)
from .reportio import _sigma_dict, render_json, write_report
from .significance import marginal_test, omnibus_test

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REJECT = 3
EXIT_SINGULAR = 4

#: A ``#`` comment to the end of its line; the class is exactly the line
#: boundaries of ``str.splitlines``.  A comment becomes one space, so that
#: one between "\r" and "\n" does not join them into one boundary.
_COMMENT = re.compile("#[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*")


def _choice(parse):
    """``parse`` as an argparse ``type``: its :class:`DomainError` becomes
    the message argparse prints before it exits with code 2."""
    def convert(name: str):
        try:
            return parse(name)
        except DomainError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momest",
        description="Moment estimation, asymptotic covariances, marginal and "
                    "omnibus tests, and Monte-Carlo calibration runs.")
    sub = parser.add_subparsers(dest="command", required=True)
    law_kind, mode, sigma = map(_choice, (LawKind.parse, CoefficientMode.parse,
                                          SigmaMethod.parse))

    def add_law(p, hypothesized=False):
        p.add_argument("kind", type=law_kind, help=" | ".join(LawKind))
        names = ("a0", "b0") if hypothesized else ("a", "b")
        p.add_argument(names[0], type=float)
        p.add_argument(names[1], type=float)
        p.add_argument("--mode", type=mode, default="canonical",
                       help=" | ".join(CoefficientMode) + " (alias: paper)")

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    def add_input(p):
        p.add_argument("--input", required=True,
                       help="sample file; one value per line, or CSV with "
                            "--column")
        p.add_argument("--column", default=None,
                       help="read this column of a headered CSV")

    p = sub.add_parser("coeffs",
                       help="influence coefficients and exact covariance")
    add_law(p)
    add_format(p)

    p = sub.add_parser("estimate", help="moment estimates from a sample")
    p.add_argument("kind", type=law_kind)
    add_input(p)
    add_format(p)

    p = sub.add_parser("test",
                       help="marginal and omnibus tests of (a0, b0)")
    add_law(p, hypothesized=True)
    add_input(p)
    p.add_argument("--sigma", type=sigma, default="exact-moments",
                   help=" | ".join(m for m in SigmaMethod
                                   if m is not SigmaMethod.REPLICATION))
    add_format(p)

    p = sub.add_parser("simulate", help="replicated calibration study")
    add_law(p)
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--replications", "-B", type=int, required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="master seed (required: runs must be reproducible)")
    p.add_argument("--sigma-methods", nargs="+", type=sigma,
                   default=DEFAULT_SIGMA_METHODS,
                   help="subset of " + " ".join(SigmaMethod))
    p.add_argument("--out", default=None,
                   help="output directory (default: $MOMEST_OUTDIR or "
                        "./momest-report)")
    p.add_argument("--workers", type=int, default=1,
                   help="thread count; affects wall clock only, never bytes")
    return parser


def read_sample(path: str, column: Optional[str]) -> np.ndarray:
    """One value per line, or the ``column`` of a headered CSV.

    The values come from the first of three passes that accepts the file:

    1. a CSV file that :func:`_column_in_c` can read gives its column
       through numpy's C text reader in one call;
    2. otherwise the stripped cells that are not blank go through
       ``float`` in one Python pass;
    3. if the first pass that ran refuses a cell, a value is not finite,
       or the CSV reader fails, the text is walked again cell by cell in
       file order through :func:`_walk_cells`, so the first bad cell
       raises its own message with its line.

    Both readers parse a cell with CPython's correctly rounded
    ``PyOS_string_to_double``, so passes 1 and 2 give the same bits.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise SampleParseError(f"cannot read {path}: {exc}")
    values = None if column is None else _column_in_c(text, path, column)
    if values is None:
        cells, _ = _cells(text, path, column)
        stripped = filter(None, map(str.strip, cells))
        try:
            values = np.array(list(map(float, stripped)))
        except (ValueError, csv.Error):
            values = None
    if values is None or not np.isfinite(values).all():
        _walk_cells(text, path, column)
    if not values.size:
        raise SampleParseError(f"{path}: no values found")
    return values


def _column_in_c(text: str, path: str, column: str) -> Optional[np.ndarray]:
    """The CSV ``column`` parsed by ``np.loadtxt``, or None where the
    Python pass must read it.

    ``loadtxt`` runs only where ``csv.reader`` would split each line into
    the same cells: the text holds no quote (so no cell spans lines) and
    no NUL, and no line is longer than ``csv.field_size_limit()``, which
    ``csv.reader`` enforces on every cell, read or not.  It raises
    ``ValueError`` on a short row, a blank cell, a whitespace-only line, a
    bare ``"\r"`` or a cell ``float`` alone accepts (``1_000``, non-ASCII
    digits), and the Python pass then decides.  ``comments=None`` keeps a
    ``#`` inside its cell.  The header is checked by :func:`_column_index`
    on the first line, which is the first row ``csv.reader`` yields.
    """
    if '"' in text or "\0" in text:
        return None
    lines = text.split("\n")
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    index = _column_index(csv.reader(io.StringIO(text[:len(lines[0]) + 1])),
                          path, column)
    try:
        with warnings.catch_warnings():
            # a header-only file; the caller raises "no values found"
            warnings.filterwarnings("ignore", "loadtxt: input contained no "
                                    "data", UserWarning)
            return np.loadtxt(lines[1:], delimiter=",", usecols=index,
                              comments=None, ndmin=1)
    except ValueError:
        return None


def _column_index(reader, path: str, column: str) -> int:
    """The index of ``column`` in the header, the first row of ``reader``;
    a header that is missing, unreadable, or lacks or repeats the column
    is refused."""
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise SampleParseError(f"{path}:{reader.line_num}: {exc}")
    if header is None or column not in header:
        raise SampleParseError(
            f"{path}: no CSV column named {column!r} (found {header})")
    if header.count(column) > 1:
        raise SampleParseError(
            f"{path}: CSV column {column!r} is named more than once")
    return header.index(column)


def _cells(text: str, path: str, column: Optional[str]):
    """The cells of a sample file in file order, unstripped, and the CSV
    reader that yields them (None for a plain file).

    A plain file has one cell per line, the part before any ``#``; a CSV
    file one per row after the header that reaches the column, produced
    as the rows are read.
    """
    if column is None:
        return _COMMENT.sub(" ", text).splitlines(), None
    reader = csv.reader(io.StringIO(text))
    index = _column_index(reader, path, column)
    return (row[index] for row in reader if index < len(row)), reader


def _walk_cells(text: str, path: str, column: Optional[str]) -> None:
    """Raises the error of the first bad cell: each cell that is not blank
    is parsed and checked by :func:`_number` in file order.  A CSV file
    that the reader refuses (a cell longer than ``csv.field_size_limit()``)
    raises at the line where the reader stopped."""
    cells, reader = _cells(text, path, column)
    try:
        for lineno, cell in enumerate(cells, start=1):
            cell = cell.strip()
            if cell:
                _number(cell, path,
                        lineno if reader is None else reader.line_num)
    except csv.Error as exc:
        raise SampleParseError(f"{path}:{reader.line_num}: {exc}")


def _number(cell: str, path: str, lineno: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise SampleParseError(
            f"{path}:{lineno}: could not parse {cell!r} as a number")
    if not isfinite(value):
        raise SampleParseError(
            f"{path}:{lineno}: {cell!r} is not a finite number")
    return value


def _emit(args, text_lines: list[str], payload: dict) -> None:
    if args.format == "json":
        sys.stdout.write(render_json(payload))
    else:
        print("\n".join(text_lines))


def cmd_coeffs(args) -> int:
    law = LawSpec(args.kind, args.a, args.b)
    h, l = influence_pair(law, args.mode)
    payload = {"law": str(law), "mode": args.mode.value,
               "influence_a": asdict(h), "influence_b": asdict(l)}
    lines = [
        f"law: {law}   mode: {args.mode.value}",
        f"influence of a_hat: c1={h.c1:.10g} c2={h.c2:.10g} "
        f"center={h.center:.10g}",
        f"influence of b_hat: c1={l.c1:.10g} c2={l.c2:.10g} "
        f"center={l.center:.10g}",
    ]
    for method in (SigmaMethod.EXACT_MOMENTS, SigmaMethod.EXACT_QUADRATURE):
        key = f"sigma_{method.name.lower()}"
        try:
            sig = sigma_for(method, law, h, l)
        except MomestError as exc:
            # the quadrature route refuses some laws whose exact-moments
            # sigma exists; that sigma is still shown
            if method is SigmaMethod.EXACT_MOMENTS:
                raise
            payload[key] = {"refused": str(exc)}
            lines.append(f"sigma [{method.value}]: refused: {exc}")
            continue
        payload[key] = {**_sigma_dict(sig), "correlation": sig.correlation}
        lines.append(
            f"sigma [{method.value}]: s11={sig.s11:.10g} s22={sig.s22:.10g} "
            f"s12={sig.s12:.10g} det={sig.det:.10g} "
            f"correlation={sig.correlation:.6f}")
    _emit(args, lines, payload)
    return EXIT_OK


def _estimate_input(args):
    values = read_sample(args.input, args.column)
    em = empirical_moments(values)
    return values, em, estimate(args.kind, em)


def cmd_estimate(args) -> int:
    _, em, est = _estimate_input(args)
    payload = {
        "law": args.kind.value,
        "n": em.n,
        "moments": {"mean": em.mean, "mean_sq": em.mean_sq,
                    "var_unbiased": em.var_unbiased,
                    "var_biased": em.var_biased},
        "a_hat": est.a_hat,
        "b_hat": est.b_hat,
    }
    lines = [
        f"law: {args.kind.value}   n: {em.n}",
        f"mean={em.mean:.10g} mean_sq={em.mean_sq:.10g} "
        f"S2={em.var_unbiased:.10g} var_biased={em.var_biased:.10g}",
        f"a_hat={est.a_hat:.10g} b_hat={est.b_hat:.10g}",
    ]
    _emit(args, lines, payload)
    return EXIT_OK


def cmd_test(args) -> int:
    law0 = LawSpec(args.kind, args.a0, args.b0)
    values, em, est = _estimate_input(args)
    h, l = influence_pair(law0, args.mode)
    sigma = sigma_for(args.sigma, law0, h, l, values)
    rep_a = marginal_test(est.a_hat, args.a0, sigma.s11, em.n,
                          sigma.method.value)
    rep_b = marginal_test(est.b_hat, args.b0, sigma.s22, em.n,
                          sigma.method.value)
    rep_q = omnibus_test(est.a_hat, est.b_hat, args.a0, args.b0, em.n, sigma)

    payload = {
        "law": str(law0), "n": em.n,
        "a_hat": est.a_hat, "b_hat": est.b_hat,
        "marginal_a": asdict(rep_a),
        "marginal_b": asdict(rep_b),
        "omnibus": asdict(rep_q),
    }
    lines = [
        f"H0: {law0}   n={em.n}   sigma={sigma.method.value}",
        f"a_hat={est.a_hat:.10g} b_hat={est.b_hat:.10g}",
        f"marginal a: z={rep_a.statistic:+.6f} p={rep_a.p_value:.6f} "
        f"{'REJECT' if rep_a.reject_at_5pct else 'accept'}",
        f"marginal b: z={rep_b.statistic:+.6f} p={rep_b.p_value:.6f} "
        f"{'REJECT' if rep_b.reject_at_5pct else 'accept'}",
        f"omnibus:    Q={rep_q.statistic:.6f} (df=2) p={rep_q.p_value:.6f} "
        f"{'REJECT' if rep_q.reject_at_5pct else 'accept'}",
    ]
    _emit(args, lines, payload)
    return EXIT_REJECT if rep_q.reject_at_5pct else EXIT_OK


def cmd_simulate(args) -> int:
    law = LawSpec(args.kind, args.a, args.b)
    cfg = SimulationConfig(law=law, n=args.n, replications=args.replications,
                           master_seed=args.seed,
                           coefficient_mode=args.mode,
                           sigma_methods=tuple(args.sigma_methods))
    outdir = Path(args.out or os.environ.get("MOMEST_OUTDIR")
                  or "momest-report")
    for part in (outdir, *outdir.parents):
        if part.exists() and not part.is_dir():
            raise MomestError(f"cannot write the report to {outdir}: {part} "
                              f"is not a directory")
    report = run_simulation(cfg, workers=args.workers)
    paths = write_report(report, outdir)
    print(f"{law}  n={cfg.n}  replications={cfg.replications}  "
          f"seed={cfg.master_seed}  mode={cfg.coefficient_mode.value}")
    print(f"feasible={report.feasible}  infeasible={report.infeasible_count}")
    ea, eb = report.error_a, report.error_b
    print(f"errors a: me={ea.me:+.4g} mae={ea.mae:.4g} rmse={ea.rmse:.4g}")
    print(f"errors b: me={eb.me:+.4g} mae={eb.mae:.4g} rmse={eb.rmse:.4g}")
    for key, rate in report.marginal_rates.items():
        print(f"marginal rejection {key}: {100.0 * rate:.2f}%")
    for key, rate in report.omnibus_rates.items():
        shown = "singular" if rate is None else f"{100.0 * rate:.2f}%"
        print(f"omnibus rejection {key}: {shown}")
    print(f"wrote {len(paths)} files to {outdir.resolve()}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"coeffs": cmd_coeffs, "estimate": cmd_estimate,
                "test": cmd_test, "simulate": cmd_simulate}
    try:
        return handlers[args.command](args)
    except MomestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_SINGULAR if isinstance(exc, SingularCovarianceError)
                else EXIT_INPUT)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
