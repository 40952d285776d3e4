"""Where the time of a simulation study, or of one ``momest test`` call,
goes: process CPU of each phase, measured in this process.

    python tools/split.py [--n N] [--replications B] [--rounds R]
    python tools/split.py --cli [--rounds R]
    python tools/split.py --proc [--rounds R]

Without ``--cli`` it runs one warm-up cycle and then R timed cycles
(defaults: n = 200, B = 400, R = 10).  A cycle is one study of each of
Gamma(2, 3), Beta(2, 3), Uniform(0, 1) and Fisher(5, 12) with all four Σ
methods on one worker, each written as a bundle into a directory of its
law; cycle r uses master seed r.  The phases are timed by wrapping, for the
run, the functions that do them:

* ``sample_rows``, ``estimate_rows``, ``plugin_rows`` and ``_rates`` as
  ``montecarlo`` calls them;
* the rejection rounds after the first: the ``RowStreams._candidates``
  calls of the later rounds of a gamma draw, inside ``sample_rows``;
* ``write_report`` and, inside it, the Parzen densities, the qq columns
  (the sort of each deviation array and its cached quantile cells), the
  ``repr`` of float columns, the JSON document and the file writes.

With ``--cli`` it writes a 100-line Gamma(2, 3) sample file and, for each
of the Σ routes exact-moments, exact-quadrature and plugin, makes one
warm-up and then R timed in-process ``cli.main(["test", "gamma", "2", "3",
"--input", FILE, "--sigma", ROUTE, "--format", "json"])`` calls (default
R = 400), with standard output captured as the benchmark's ``cli-test``
captures it.  Its phases are the functions ``cli`` calls for them: the
parse (``_parse_alone``), ``read_sample``, the estimation
(``empirical_moments`` and ``estimate``), Σ (``influence_pair`` and
``sigma_for``), the tests (``marginal_test`` and ``omnibus_test``) and the
JSON output (``_emit``).

Each line gives the median over the timed cycles, or calls, of a phase's
process CPU per study, or per call, with its share of the whole; a phase
includes the phases indented under it, and ``repr`` overlaps ``qq``.
Unlike a profiler, the wrappers add two clock reads per call and nothing
per Python call inside a phase, so pure-Python phases are not inflated.

With ``--proc`` it measures what a user waits for instead: whole ``momest``
calls, each in a fresh interpreter that runs ``cli.main`` the way the
console script does.  It writes a 200-line Gamma(2, 3) sample file and runs
``estimate``, ``test`` with each Σ route, and ``simulate`` with the default
Σ (n = 200, B = 400), one after another, R times (default R = 9).  Each
line gives a call's median wall time, as seen from this process, its median
peak RSS, and whether scipy was loaded when it returned.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from momest import (LawSpec, SigmaMethod, SimulationConfig,  # noqa: E402
                    cli, montecarlo, reportio, rng, sample)

LAWS = (LawSpec.gamma(2.0, 3.0), LawSpec.beta(2.0, 3.0),
        LawSpec.uniform(0.0, 1.0), LawSpec.fisher(5.0, 12.0))

#: (label, depth) of each phase, in print order.
PHASES = (("study", 0), ("run_simulation", 1), ("sample_rows", 2),
          ("later rejection rounds", 3), ("estimate_rows", 2),
          ("plugin_rows", 2), ("_rates", 2), ("write_report", 1),
          ("parzen", 2), ("qq", 2), ("repr", 2), ("json", 2),
          ("file write", 2))

#: The Σ routes of ``--cli``.
CLI_ROUTES = (SigmaMethod.EXACT_MOMENTS, SigmaMethod.EXACT_QUADRATURE,
              SigmaMethod.PLUGIN)

#: The ``cli`` functions that each ``--cli`` phase inside a call times, in
#: print order.
CLI_WRAPPED = {"parse": ("_parse_alone",), "read_sample": ("read_sample",),
               "estimation": ("empirical_moments", "estimate"),
               "sigma": ("influence_pair", "sigma_for"),
               "tests": ("marginal_test", "omnibus_test"),
               "json output": ("_emit",)}
CLI_PHASES = (("call", 0), *((phase, 1) for phase in CLI_WRAPPED))

#: The ``--proc`` calls: the arguments after ``momest``, less the sample
#: file (``--input``) or the bundle directory (``--out``, for ``simulate``).
PROC_CALLS = (("estimate", "gamma"),
              *(("test", "gamma", "2", "3", "--sigma", route.value)
                for route in CLI_ROUTES),
              ("simulate", "gamma", "2", "3", "--n", "200", "-B", "400",
               "--seed", "1"))

#: A fresh interpreter's ``momest`` call; its last line on standard error
#: is [exit code, peak RSS in KiB, whether scipy is loaded].
PROC_CHILD = """\
import json, resource, sys
from momest.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "scipy" in sys.modules]), file=sys.stderr)
"""


class _Clock:
    """Process CPU nanoseconds per phase, since the last :meth:`take`."""

    def __init__(self):
        self.spent = defaultdict(int)

    def wrap(self, phase: str, func, when=lambda *args: True):
        def timed(*args, **kwargs):
            if not when(*args):
                return func(*args, **kwargs)
            start = time.process_time_ns()
            try:
                return func(*args, **kwargs)
            finally:
                self.spent[phase] += time.process_time_ns() - start
        return timed

    def take(self) -> dict:
        spent, self.spent = self.spent, defaultdict(int)
        return spent


class _Numpy:
    """numpy for ``reportio``, with ``sort`` timed as part of qq."""

    def __init__(self, sort):
        self.sort = sort

    def __getattr__(self, name):
        return getattr(np, name)


def instrument(clock: _Clock) -> None:
    """Wrap the functions of every phase below ``study`` for this
    process."""
    for name in ("sample_rows", "estimate_rows", "plugin_rows", "_rates"):
        setattr(montecarlo, name, clock.wrap(name, getattr(montecarlo, name)))
    # the first round passes a span of rows, the later ones the slot rows
    rng.RowStreams._candidates = clock.wrap(
        "later rejection rounds", rng.RowStreams._candidates,
        when=lambda self, d, c, m, row=None, span=None: row is not None)
    reportio._density = clock.wrap("parzen", reportio._density)
    reportio._score_cells = clock.wrap("qq", reportio._score_cells)
    reportio.np = _Numpy(clock.wrap("qq", np.sort))
    reportio._cells = clock.wrap("repr", reportio._cells)
    reportio.report_to_dict = clock.wrap("json", reportio.report_to_dict)
    reportio.render_json = clock.wrap("json", reportio.render_json)
    reportio._write = clock.wrap("file write", reportio._write)


def cycle(clock: _Clock, n: int, replications: int, seed: int,
          out: Path) -> dict:
    """Run one cycle; returns the process CPU nanoseconds of each phase."""
    simulate = clock.wrap("run_simulation", montecarlo.run_simulation)
    write = clock.wrap("write_report", reportio.write_report)
    clock.take()
    for law in LAWS:
        start = time.process_time_ns()
        report = simulate(SimulationConfig(
            law=law, n=n, replications=replications, master_seed=seed,
            sigma_methods=tuple(SigmaMethod)))
        write(report, out / law.kind.value)
        clock.spent["study"] += time.process_time_ns() - start
    return clock.take()


def cli_calls(clock: _Clock, rounds: int, route: SigmaMethod,
              path: str) -> list:
    """One warm-up and ``rounds`` timed ``momest test`` calls on the sample
    file ``path`` with Σ route ``route``; returns the process CPU
    nanoseconds of each phase of each timed call."""
    call = clock.wrap("call", cli.main)
    argv = ["test", "gamma", "2", "3", "--input", path, "--sigma",
            route.value, "--format", "json"]
    spent = []
    for _ in range(rounds + 1):
        clock.take()
        with contextlib.redirect_stdout(io.StringIO()):
            call(argv)
        spent.append(clock.take())
    return spent[1:]


def print_split(title: str, phases, rounds: list, per: int = 1) -> None:
    """Print the median over ``rounds`` of each phase's nanoseconds over
    ``per``, in ms, with its share of the first phase's median."""
    medians = {phase: statistics.median(spent[phase] / per / 1e6
                                        for spent in rounds)
               for phase, _ in phases}
    whole = medians[phases[0][0]]
    print(title)
    for phase, depth in phases:
        ms = medians[phase]
        print(f"{'  ' * depth + phase:<28}{ms:9.3f} ms "
              f"{100.0 * ms / whole:6.1f}%")


def split_cli(rounds: int) -> None:
    clock = _Clock()
    for phase, names in CLI_WRAPPED.items():
        for name in names:
            setattr(cli, name, clock.wrap(phase, getattr(cli, name)))
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "gamma.txt")
        values = sample(LawSpec.gamma(2.0, 3.0), 100, seed=2112)
        Path(path).write_text("".join(f"{v!r}\n" for v in values.tolist()))
        for route in CLI_ROUTES:
            print_split(f"test gamma 2 3, 100 lines, sigma={route.value}: "
                        f"process CPU per call, median of {rounds} calls",
                        CLI_PHASES, cli_calls(clock, rounds, route, path))


def proc_call(argv: list, env: dict) -> tuple:
    """(wall seconds, peak RSS in KiB, scipy loaded) of one ``momest``
    call in a fresh interpreter."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", PROC_CHILD, *argv],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, env=env)
    wall = time.perf_counter() - start
    try:
        code, rss_kib, scipy = json.loads(proc.stderr.splitlines()[-1])
    except (ValueError, IndexError):
        code = None
    if proc.returncode != 0 or code not in (cli.EXIT_OK, cli.EXIT_REJECT):
        raise SystemExit(f"momest {' '.join(argv)} failed:\n{proc.stderr}")
    return wall, rss_kib, scipy


def split_proc(rounds: int) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    runs = {call: [] for call in PROC_CALLS}
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "gamma.txt")
        values = sample(LawSpec.gamma(2.0, 3.0), 200, seed=2112)
        Path(path).write_text("".join(f"{v!r}\n" for v in values.tolist()))
        for _ in range(rounds):
            for call in PROC_CALLS:
                where = (["--out", str(Path(tmp) / "out")]
                         if call[0] == "simulate" else ["--input", path])
                runs[call].append(proc_call([*call, *where], env))
    print(f"fresh-process momest calls on a 200-line file, median of "
          f"{rounds} runs each:")
    print(f"{'call':<44}{'wall':>10} {'peak RSS':>11}  scipy")
    for call, got in runs.items():
        wall = statistics.median(w for w, _, _ in got)
        rss = statistics.median(r for _, r, _ in got) / 1024.0
        scipy = "yes" if any(s for _, _, s in got) else "no"
        print(f"{' '.join(call):<44}{1e3 * wall:7.1f} ms {rss:8.1f} MB  "
              f"{scipy}")


def split_studies(n: int, replications: int, rounds: int) -> None:
    clock = _Clock()
    instrument(clock)
    with tempfile.TemporaryDirectory() as tmp:
        cycle(clock, n, replications, 0, Path(tmp))
        spent = [cycle(clock, n, replications, r, Path(tmp))
                 for r in range(1, rounds + 1)]
    print_split(f"n={n} B={replications}: process CPU per study, "
                f"median of {rounds} cycles of {len(LAWS)} studies",
                PHASES, spent, per=len(LAWS))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--cli", action="store_true",
                   help="split one 'momest test' call instead of a study")
    p.add_argument("--proc", action="store_true",
                   help="time whole 'momest' calls in fresh interpreters")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--replications", type=int, default=400)
    p.add_argument("--rounds", type=int, default=None,
                   help="timed cycles (default 10), calls per route with "
                        "--cli (default 400), or runs per call with --proc "
                        "(default 9)")
    args = p.parse_args(argv)
    if args.rounds is not None and args.rounds < 1:
        p.error("--rounds must be >= 1")
    if args.cli and args.proc:
        p.error("--cli and --proc exclude each other")
    if args.cli:
        split_cli(args.rounds or 400)
    elif args.proc:
        split_proc(args.rounds or 9)
    else:
        split_studies(args.n, args.replications, args.rounds or 10)
    return 0


if __name__ == "__main__":
    sys.exit(main())
