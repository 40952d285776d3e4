"""Where a simulation study's time goes: process CPU per study of each phase
of a study cycle, measured in this process.

    python tools/split.py [--n N] [--replications B] [--rounds R]

runs one warm-up cycle and then R timed cycles (defaults: n = 200, B = 400,
R = 10).  A cycle is one study of each of Gamma(2, 3), Beta(2, 3),
Uniform(0, 1) and Fisher(5, 12) with all four Σ methods on one worker,
each written as a bundle into a directory of its law; cycle r uses master
seed r.  The phases are timed by wrapping, for the run, the functions that
do them:

* ``sample_rows``, ``estimate_rows``, ``plugin_rows`` and ``_rates`` as
  ``montecarlo`` calls them;
* the rejection rounds after the first: the ``RowStreams._candidates``
  calls of the later rounds of a gamma draw, inside ``sample_rows``;
* ``write_report`` and, inside it, the Parzen densities, the qq columns
  (the sort of each deviation array and its cached quantile cells), the
  ``repr`` of float columns, the JSON document and the file writes.

Each line gives the median over the timed cycles of a phase's process CPU
per study, with its share of the whole study; a phase includes the phases
indented under it, and ``repr`` overlaps ``qq``.  Unlike a profiler, the
wrappers add two clock reads per call and nothing per Python call inside a
phase, so pure-Python phases are not inflated.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from momest import (LawSpec, SigmaMethod, SimulationConfig,  # noqa: E402
                    montecarlo, reportio, rng)

LAWS = (LawSpec.gamma(2.0, 3.0), LawSpec.beta(2.0, 3.0),
        LawSpec.uniform(0.0, 1.0), LawSpec.fisher(5.0, 12.0))

#: (label, depth) of each phase, in print order.
PHASES = (("study", 0), ("run_simulation", 1), ("sample_rows", 2),
          ("later rejection rounds", 3), ("estimate_rows", 2),
          ("plugin_rows", 2), ("_rates", 2), ("write_report", 1),
          ("parzen", 2), ("qq", 2), ("repr", 2), ("json", 2),
          ("file write", 2))


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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--replications", type=int, default=400)
    p.add_argument("--rounds", type=int, default=10)
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be >= 1")
    clock = _Clock()
    instrument(clock)
    with tempfile.TemporaryDirectory() as tmp:
        cycle(clock, args.n, args.replications, 0, Path(tmp))
        rounds = [cycle(clock, args.n, args.replications, r, Path(tmp))
                  for r in range(1, args.rounds + 1)]
    per_study = {phase: statistics.median(
        spent[phase] / len(LAWS) / 1e6 for spent in rounds)
        for phase, _ in PHASES}
    print(f"n={args.n} B={args.replications}: process CPU per study, "
          f"median of {args.rounds} cycles of {len(LAWS)} studies")
    for phase, depth in PHASES:
        ms = per_study[phase]
        print(f"{'  ' * depth + phase:<28}{ms:9.3f} ms "
              f"{100.0 * ms / per_study['study']:6.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
