"""Benchmark of momest: calibration studies at small and large n, one-shot
``momest test`` calls, and the process pool.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-small-n --seed 2112 \\
        --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it records the machine.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5

# ``workloads`` and ``tracing`` import momest from SRC, so they are imported
# inside functions, after main() has checked SRC and put it on sys.path.

# A fresh interpreter imports the CLI and prepares every law the benchmark
# uses: the influence pair and both exact covariance routes.
SETUP_CODE = """\
import json, sys
import momest.cli
from momest import (LawKind, LawSpec, covariance_exact_moments,
                    covariance_exact_quadrature, influence_pair)
out = []
for kind, a, b in json.loads(sys.argv[1]):
    law = LawSpec(LawKind(kind), a, b)
    h, l = influence_pair(law)
    sm = covariance_exact_moments(law, h, l)
    covariance_exact_quadrature(law, h, l)
    out.append([sm.s11, sm.s22, sm.s12])
print(json.dumps(out))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(laws, repeats: int, tally) -> float:
    """Median calibrated CPU time of ``repeats`` fresh set-ups, each
    checked for the Gamma(2, 3) covariance."""
    import workloads
    spec = json.dumps([[law.kind.value, law.p1, law.p2] for law in laws])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    calibrated = workloads.Calibrated()
    for _ in range(repeats):
        start = workloads.clocks()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, spec],
                              env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        times.append(calibrated.rescale(workloads.elapsed(start)).cpu)
        try:
            got = tuple(json.loads(proc.stdout)[0])
        except (ValueError, IndexError):
            tally.add([f"setup failed: {proc.stderr.strip()[-300:]}"])
            continue
        tally.add(workloads.gamma_sigma_problems("setup", got))
    return statistics.median(times)


def machine_info() -> dict:
    import numpy
    import scipy
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower()}"] = (
                index / "size").read_text().strip()
        except OSError:
            continue
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "note": ("rng probes draw 10^6 values per array (8 MB), which stays "
                 "resident in the last-level cache listed here; bytes per "
                 "draw are computed from array sizes, not measured "
                 "bandwidth"),
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def units_of(seed: int, shape, tmp: Path) -> tuple:
    """(cycle of units, unit runner) for a workload."""
    import workloads as w
    if isinstance(shape, w.CliShape):
        return w.call_cycle(shape, seed, tmp), w.call_unit
    return w.study_cycle(shape, seed), w.study_unit


def measure(cycle, unit, tmp, expected, seconds, tally) -> list:
    """Whole cycles of timed units until ``seconds`` have passed, after one
    untimed warm-up unit; returns [(unit, timing, calibrated timing)] of
    every unit that did not raise."""
    import workloads as w
    tally.add(unit(cycle[0], tmp, expected)[1])
    timed = []
    calibrated = w.Calibrated()
    start = time.perf_counter()
    while True:
        for u in cycle:
            timing, found, _ = unit(u, tmp, expected)
            tally.add(found)
            if timing is not None:
                timed.append((u, timing, calibrated.rescale(timing)))
        if time.perf_counter() - start >= seconds:
            return timed


def end_to_end(timed, setup_s: float) -> dict:
    import workloads as w
    p50, p90, throughput = w.summarize(
        [(u, w.cost(u, c)) for u, _, c in timed])
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "cost_ms_p50": (1e3 * p50, "ms"),
        "cost_ms_p90": (1e3 * p90, "ms"),
        "work_per_s": (throughput, "1/s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def uncalibrated(timed) -> dict:
    """Wall-clock and plain CPU figures of the same units, for the log.  The
    CPU figures of a pooled workload are the pool's whole CPU cost."""
    import workloads as w
    out = {"units": len(timed), "calibration_factor": statistics.median(
        c.cpu / t.cpu for _, t, c in timed), "stolen_share": sum(
        t.stolen for _, t, _ in timed) / (os.cpu_count() or 1) / sum(
        t.wall for _, t, _ in timed)}
    for clock in ("wall", "cpu"):
        p50, p90, throughput = w.summarize(
            [(u, getattr(t, clock)) for u, t, _ in timed])
        out[clock] = {"ms_p50": 1e3 * p50, "ms_p90": 1e3 * p90,
                      "work_per_s": throughput}
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        tmp: Path, shapes=None, frozen=None,
        setup_repeats: int = SETUP_REPEATS,
        trace_dir: Path = ROOT / ".bench_out") -> dict:
    """One benchmark run; returns the result object."""
    import workloads as w
    shapes = shapes or w.WORKLOADS
    shape = shapes[workload]
    expected = w.Expected(frozen)
    if trace:
        import tracing
        return tracing.traced_run(workload, seed, seconds, shapes, expected,
                                  tmp, trace_dir)
    tally = w.Tally()
    setup_s = measure_setup(w.LAWS, setup_repeats, tally)
    cycle, unit = units_of(seed, shape, tmp)
    if getattr(shape, "workers", 1) > 1:
        # the pool must write the bytes a serial run writes, so the serial
        # digests become the expected ones
        serial = w.Expected(None)
        for study in cycle:
            _, found, _ = unit(w.Study(study.key, study.cfg, 1), tmp, serial)
            tally.add(found + expected.check(study.key,
                                             serial.seen.get(study.key, "")))
        expected = w.Expected(serial.seen)
    timed = measure(cycle, unit, tmp, expected, seconds, tally)
    if not timed:
        raise SystemExit("error: every unit raised:\n"
                         + "\n".join(tally.problems[:20]))
    print("uncalibrated: " + json.dumps(uncalibrated(timed)))
    return tally.result(end_to_end(timed, setup_s))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "momest" / "__init__.py").is_file():
        print(f"error: no momest sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as w
    if args.workload not in w.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(w.WORKLOADS)}", file=sys.stderr)
        return 2
    frozen = None
    if args.seed == w.DEFAULT_SEED:
        frozen = json.loads((HERE / "refs.json").read_text())["digests"]
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  frozen=frozen, tmp=tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()
    print("machine: " + json.dumps(machine_info(), sort_keys=True))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
