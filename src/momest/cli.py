"""Command-line front end.

Subcommands::

    momest coeffs KIND A B [--mode canonical|verbatim] [--format text|json]
    momest estimate KIND --input FILE [--column NAME] [--format text|json]
    momest test KIND A0 B0 --input FILE [--sigma METHOD] [--format ...]
    momest simulate KIND A B --n N --replications B --seed S [--out DIR] ...

One table, :data:`COMMANDS`, gives each command's help, arguments and
handler.  A call whose first argument names a command is parsed by that
command's parser alone; any other call, and one that leaves arguments
over, by the parser of every command, so usage, help and errors read as
with every command built.

Exit codes (so pipelines can branch without parsing text):

* 0  success; for ``test``, the omnibus test did not reject at 5%
* 2  input or domain error (unparsable sample, infeasible moments, ...)
* 3  the omnibus test rejected at the 5% level
* 4  the covariance estimate was too close to singular for a joint test

Sample files are UTF-8, with or without a leading byte-order mark, one
decimal per line; ``#`` starts a comment.  With ``--column NAME`` the input
is parsed as a headered CSV instead, reading the one column headed NAME;
blank cells and short rows are skipped.  Errors name the line of the file.
A sample is read in one of two passes (see :func:`read_sample`): numpy's C
reader on the path itself, for plain and CSV files whose bytes pass checks
that each keep it from reading what the Python reader would not (a pipe, a
compressed file, line ends and quotes that only one of them honours, long
CSV lines); otherwise, or where it refuses a cell, one Python walk over the
cells in file order that returns the values or raises the first bad cell's
error with its line.
The only environment variable consulted is ``MOMEST_OUTDIR``, the default
output directory of ``simulate``.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import io
import os
import re
import sys
import warnings
from dataclasses import asdict
from math import isfinite
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from .asymptotics import (CoefficientMode, SigmaMethod, influence_pair,
                          sigma_for)
from .errors import (DomainError, MomestError, SampleParseError,
                     SingularCovarianceError)
from .estimation import empirical_moments, estimate
from .laws import LawKind, LawSpec
from .montecarlo import (DEFAULT_SIGMA_METHODS, SimulationConfig,
                         run_simulation)
from .reportio import FILE_NAMES, _sigma_dict, render_json, write_report
from .significance import marginal_test, omnibus_test

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REJECT = 3
EXIT_SINGULAR = 4

#: Bytes after which :func:`_read_in_c` leaves a file to the Python pass:
#: NUL, and the ASCII line boundaries of ``str.splitlines`` that do not
#: end a line of a text-mode file.
_REFUSED = (b"\0", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")

#: Suffixes of the files that ``np.loadtxt`` opens through a decompressor.
_PACKED = (".bz2", ".gz", ".lzma", ".xz")

#: The first line of a file, with its end.
_FIRST_LINE = re.compile(rb"[^\n\r]*[\n\r]?")


def _choice(parse):
    """``parse`` as an argparse ``type``: its :class:`DomainError` becomes
    the message argparse prints before it exits with code 2."""
    def convert(name: str):
        try:
            return parse(name)
        except DomainError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return convert


_LAW_KIND, _MODE, _SIGMA = map(_choice, (LawKind.parse, CoefficientMode.parse,
                                       SigmaMethod.parse))


def _add_law(p, hypothesized=False):
    p.add_argument("kind", type=_LAW_KIND, help=" | ".join(LawKind))
    names = ("a0", "b0") if hypothesized else ("a", "b")
    p.add_argument(names[0], type=float)
    p.add_argument(names[1], type=float)
    p.add_argument("--mode", type=_MODE, default="canonical",
                   help=" | ".join(CoefficientMode) + " (alias: paper)")


def _add_format(p):
    p.add_argument("--format", choices=("text", "json"), default="text")


def _add_input(p):
    p.add_argument("--input", required=True,
                   help="sample file; one value per line, or CSV with "
                        "--column")
    p.add_argument("--column", default=None,
                   help="read this column of a headered CSV")


def _coeffs_arguments(p):
    _add_law(p)
    _add_format(p)


def _estimate_arguments(p):
    p.add_argument("kind", type=_LAW_KIND)
    _add_input(p)
    _add_format(p)


def _test_arguments(p):
    _add_law(p, hypothesized=True)
    _add_input(p)
    p.add_argument("--sigma", type=_SIGMA, default="exact-moments",
                   help=" | ".join(m for m in SigmaMethod
                                   if m is not SigmaMethod.REPLICATION))
    _add_format(p)


def _simulate_arguments(p):
    _add_law(p)
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--replications", "-B", type=int, required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="master seed (required: runs must be reproducible)")
    p.add_argument("--sigma-methods", nargs="+", type=_SIGMA,
                   default=DEFAULT_SIGMA_METHODS,
                   help="subset of " + " ".join(SigmaMethod))
    p.add_argument("--out", default=None,
                   help="output directory (default: $MOMEST_OUTDIR or "
                        "./momest-report)")
    p.add_argument("--workers", type=int, default=1,
                   help="thread count; affects wall clock only, never bytes")


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command in :data:`COMMANDS`: the full tree,
    whose usage, ``-h`` and choice errors name them all."""
    parser = argparse.ArgumentParser(
        prog="momest",
        description="Moment estimation, asymptotic covariances, marginal and "
                    "omnibus tests, and Monte-Carlo calibration runs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, entry in COMMANDS.items():
        entry.arguments(sub.add_parser(name, prog=f"momest {name}",
                                       help=entry.help))
    return parser


def _parse_alone(argv: list[str]) -> Optional[argparse.Namespace]:
    """``argv`` parsed by the parser of the command ``argv[0]`` names,
    built alone.  The full tree hands that parser ``argv[1:]`` as they
    stand, so help, errors and the namespace are the tree's.  None where
    the tree must parse ``argv``: it names no command, or arguments are
    left over, which the tree's root reports."""
    if not argv or argv[0] not in COMMANDS:
        return None
    parser = argparse.ArgumentParser(prog=f"momest {argv[0]}")
    COMMANDS[argv[0]].arguments(parser)
    args, extra = parser.parse_known_args(argv[1:])
    if extra:
        return None
    args.command = argv[0]
    return args


def read_sample(path: str, column: Optional[str]) -> np.ndarray:
    """One value per line, or the ``column`` of a headered CSV.

    The values come from the first of two passes that accepts the file:

    1. a file whose bytes pass the checks of :func:`_read_in_c`, plain or
       CSV, is read by numpy's C text reader from its path in one call;
       each check keeps that reader from reading a value, or accepting a
       file, that pass 2 would treat otherwise (a file it splits into
       other lines or cells, reads differently or not at all), and a
       blank cell in the read CSV column makes it fail;
    2. otherwise, or if that reader refuses a cell, :func:`_walk_cells`
       parses the cells one by one in file order, so a bad cell, a value
       that is not finite or a CSV reader failure raises its own message
       with its line.

    Both readers parse a cell with CPython's correctly rounded
    ``PyOS_string_to_double``, so both passes give the same bits.  Values
    read in C that are not all finite are read again in pass 2, which
    names the first one.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise SampleParseError(f"cannot read {path}: {exc}")
    values = _read_in_c(data, path, column)
    if values is None or not np.isfinite(values).all():
        values = _walk_cells(_text(data, path), path, column)
    if not values.size:
        raise SampleParseError(f"{path}: no values found")
    return values


def _text(data: bytes, path: str) -> str:
    """The text of a sample file as a text-mode read gives it: decoded as
    UTF-8 without a leading byte-order mark, with "\\r\\n" and "\\r" read
    as "\\n"."""
    try:
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig").read()
    except UnicodeDecodeError as exc:
        raise SampleParseError(f"cannot read {path}: {exc}")


def _read_in_c(data: bytes, path: str, column: Optional[str]
               ) -> Optional[np.ndarray]:
    """The values of the sample file ``path``, whose bytes are ``data``,
    read by ``np.loadtxt`` from the path itself, or None where the Python
    pass must read them.

    Given a path, ``loadtxt`` reads the file in C chunks.  Each check keeps
    it from reading a value, or accepting a file, that the Python pass
    would treat otherwise:

    * a regular file: ``loadtxt`` opens the path again, so a pipe, whose
      bytes the Python pass has already read, would read empty;
    * no suffix that ``loadtxt`` decompresses, since the Python pass reads
      the bytes as they are (and ``loadtxt`` is given the absolute path,
      since numpy downloads a relative path that parses as a URL);
    * after an optional byte-order mark, ASCII bytes and none of
      ``\\x0b \\x0c \\x1c \\x1d \\x1e``: ``str.splitlines`` ends a
      plain line, and its ``#`` comment, at these and at U+0085, U+2028
      and U+2029, and a text-mode file does not;
    * no NUL, which ``csv.reader`` refuses in a line before Python 3.11;
    * a plain file is split at whitespace and only one value per row is
      taken, since ``float`` refuses a line ``1.5 2.5``;
    * a CSV file holds no quote, since ``csv.reader`` keeps a quoted comma
      in its cell and reads a quoted cell across lines;
    * no CSV line is longer than ``csv.field_size_limit()``, which
      ``csv.reader`` enforces on every cell, read or not;
    * the CSV header goes through :func:`_column_index` on the first line,
      which is the first row ``csv.reader`` yields, so a missing or
      repeated column gets the same message; ``comments=None`` keeps a
      ``#`` in its cell, as ``csv.reader`` does.

    A blank cell in a column that is not read is skipped by ``usecols``,
    as by the Python pass.  ``loadtxt`` raises ``ValueError`` on a blank or
    whitespace-only cell in the read column, a short row or a cell only
    ``float`` accepts (``1_000``), and the Python pass then decides.
    """
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    if (not os.path.isfile(path) or path.endswith(_PACKED)
            or np.frombuffer(data, np.uint8, offset=start).max(initial=0)
            > 0x7F or any(map(data.__contains__, _REFUSED))):
        return None
    if column is None:
        options = {"comments": "#"}
    else:
        if b'"' in data or not _lines_fit(data, csv.field_size_limit()):
            return None
        header = _FIRST_LINE.match(data, start).group().decode("ascii")
        options = {"delimiter": ",", "comments": None, "skiprows": 1,
                   "usecols": _column_index(csv.reader(io.StringIO(header)),
                                            path, column)}
    try:
        with warnings.catch_warnings():
            # an empty file; the caller raises "no values found"
            warnings.filterwarnings("ignore", "loadtxt: input contained no "
                                    "data", UserWarning)
            values = np.loadtxt(os.path.abspath(path), ndmin=2,
                                encoding="utf-8-sig", **options)
    except (ValueError, OSError):  # OSError: the file went since read
        return None
    return values[:, 0] if values.shape[1] == 1 else None


def _lines_fit(data: bytes, limit: int) -> bool:
    """Whether no line of ``data`` is longer than ``limit`` bytes.  Only a
    file longer than ``limit`` is scanned: each step searches the next
    ``limit + 1`` bytes backwards for a line end and goes on after it."""
    pos = 0
    while len(data) - pos > limit:
        window = pos, pos + limit + 1
        pos = max(data.rfind(b"\n", *window), data.rfind(b"\r", *window)) + 1
        if not pos:
            return False
    return True


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
        return [line.split("#", 1)[0] for line in text.splitlines()], None
    reader = csv.reader(io.StringIO(text))
    index = _column_index(reader, path, column)
    return (row[index] for row in reader if index < len(row)), reader


def _walk_cells(text: str, path: str, column: Optional[str]) -> np.ndarray:
    """The values of the cells that are not blank, each stripped, parsed
    and checked by :func:`_number` in file order, so the first bad cell
    raises its error.  A CSV file that the reader refuses (a cell longer
    than ``csv.field_size_limit()``) raises at the line where the reader
    stopped."""
    cells, reader = _cells(text, path, column)
    values = []
    try:
        for lineno, cell in enumerate(cells, start=1):
            cell = cell.strip()
            if cell:
                values.append(_number(
                    cell, path, lineno if reader is None else reader.line_num))
    except csv.Error as exc:
        raise SampleParseError(f"{path}:{reader.line_num}: {exc}")
    return np.array(values)


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
    refusal = f"cannot write the report to {outdir}"
    try:  # a name too long raises from exists() and is_dir()
        for part in (outdir, *outdir.parents):
            if part.exists() and not part.is_dir():
                raise MomestError(f"{refusal}: {part} is not a directory")
        for name in FILE_NAMES:
            if (outdir / name).is_dir():
                raise MomestError(f"{refusal}: {outdir / name} is a directory")
    except OSError as exc:
        raise MomestError(f"{refusal}: {exc}") from None
    report = run_simulation(cfg, workers=args.workers)
    try:  # a full disk, no permission
        paths = write_report(report, outdir)
    except OSError as exc:
        raise MomestError(f"{refusal}: {exc}") from None
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


class _Command(NamedTuple):
    help: str
    arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


#: Each command's help, argument builder and handler, in usage order.
COMMANDS = {
    "coeffs": _Command("influence coefficients and exact covariance",
                       _coeffs_arguments, cmd_coeffs),
    "estimate": _Command("moment estimates from a sample",
                         _estimate_arguments, cmd_estimate),
    "test": _Command("marginal and omnibus tests of (a0, b0)",
                     _test_arguments, cmd_test),
    "simulate": _Command("replicated calibration study",
                         _simulate_arguments, cmd_simulate),
}


def main(argv=None) -> int:
    """Runs the command that ``argv`` (default ``sys.argv[1:]``) names and
    returns its exit code.  A call is parsed by its own command's parser
    alone where it can be (:func:`_parse_alone`), else by the full tree;
    usage, help, every error and the namespace are the full tree's."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_alone(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command].run(args)
    except MomestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_SINGULAR if isinstance(exc, SingularCovarianceError)
                else EXIT_INPUT)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
