"""Workloads of the momest benchmark: their generated inputs, one timed unit
of work, and the checks made on the output of every unit.

A unit is one calibration study (``run_simulation`` plus ``write_report``
into a bundle directory) on the ``sim-*`` workloads, and one in-process
``momest test ... --format json`` call on ``cli-test``.  Every input is
derived from the workload seed; the program only sees the generated values.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time
from typing import NamedTuple, Optional

import numpy as np

from momest import (DegenerateSampleError, LawKind, LawSpec, SigmaMethod,
                    SimulationConfig, empirical_moments, estimate,
                    run_simulation, sample, write_report)
from momest import cli

#: Seed whose outputs are pinned by the digests in ``refs.json``.
DEFAULT_SEED = 2112
#: Second seed, never used to tune the benchmark; a gain must hold on it too.
HOLDOUT_SEED = 4589

#: The acceptance laws of the test suite.
LAWS = (LawSpec.gamma(2.0, 3.0), LawSpec.beta(2.0, 3.0),
        LawSpec.uniform(0.0, 1.0), LawSpec.fisher(5.0, 12.0))

#: Null hypotheses far enough from LAWS that n >= 10^4 always rejects.
FALSE_H0 = {LawKind.GAMMA: (2.5, 3.75), LawKind.BETA: (2.5, 3.75),
            LawKind.UNIFORM: (0.1, 1.1), LawKind.FISHER: (7.5, 18.0)}

#: Exact-moments covariance (s11, s22, s12) of Gamma(2, 3).
GAMMA23_SIGMA = (12.0, 31.5, 18.0)

BUNDLE_FILES = 9
POWERFUL_N = 10_000
#: Master seeds per law in a cycle of studies.
MASTERS = 2

ALL_METHODS = tuple(SigmaMethod)
CLI_METHODS = (SigmaMethod.EXACT_MOMENTS, SigmaMethod.EXACT_QUADRATURE,
               SigmaMethod.PLUGIN)


@dataclass(frozen=True)
class StudyShape:
    """Studies of one pool: every law, ``MASTERS`` master seeds per law.
    Workloads naming the same pool get identical studies for a seed."""

    pool: str
    n: int
    replications: int
    methods: tuple
    workers: int = 1


@dataclass(frozen=True)
class CliShape:
    """Sample files of each size for every law, plain and CSV."""

    sizes: tuple


WORKLOADS = {
    "sim-small-n": StudyShape("small", 200, 400, ALL_METHODS),
    "sim-large-n": StudyShape("large", 5000, 100,
                              (SigmaMethod.EXACT_MOMENTS,
                               SigmaMethod.REPLICATION)),
    "cli-test": CliShape((100, 10_000, 100_000)),
    "sim-small-n-w2": StudyShape("small", 200, 400, ALL_METHODS, workers=2),
}


class Timing(NamedTuple):
    """Seconds of one unit.  ``cpu`` counts this process, its threads and
    the child processes reaped during the unit; ``stolen`` is the time the
    hypervisor took from the machine's CPUs, summed over them."""

    wall: float
    cpu: float
    stolen: float


_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def machine_steal() -> float:
    """Seconds stolen from this machine's CPUs by the hypervisor since boot,
    summed over them (the steal column of /proc/stat; 0 where there is
    none)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) * _TICK_S
    except (OSError, IndexError, ValueError):
        return 0.0


def clocks() -> Timing:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return Timing(perf_counter(),
                  process_time() + children.ru_utime + children.ru_stime,
                  machine_steal())


def elapsed(start: Timing) -> Timing:
    end = clocks()
    return Timing(*(e - s for e, s in zip(end, start)))


#: Typical median CPU seconds of :func:`calibration` on the reference
#: machine (2 vCPU Intel Xeon, KVM).
CALIBRATION_NOMINAL_S = 0.0018
_VECTOR = np.linspace(0.5, 2.0, 4096)
_SMALL = np.linspace(0.5, 2.0, 200)
_DECIMALS = [repr(v) for v in np.linspace(0.1, 9.9, 1500).tolist()]


def calibration() -> float:
    """CPU seconds of a fixed kernel that uses nothing from momest.  It mixes
    the three kinds of work the program does: vector maths on a
    cache-resident array, numpy calls on small arrays, where call overhead
    dominates, and interpreter work parsing decimals.  Its drift measures
    the machine's speed."""
    start = process_time()
    for _ in range(10):
        float((np.log(_VECTOR) * 1.5 + np.sqrt(_VECTOR)).sum())
    for _ in range(40):
        float(np.mean(_SMALL))
        float(np.var(_SMALL))
    total = 0.0
    for text in _DECIMALS:
        total += float(text)
    return process_time() - start


class Calibrated:
    """Rescales times to the nominal calibration speed, using the
    calibration kernel run just before and just after each measurement."""

    def __init__(self):
        self.last = calibration()

    def rescale(self, timing: Timing) -> Timing:
        now = calibration()
        factor = CALIBRATION_NOMINAL_S / (0.5 * (self.last + now))
        self.last = now
        return Timing(*(t * factor for t in timing))


def cost(unit, calibrated: Timing) -> float:
    """The seconds a unit costs its user.  A serial unit costs its CPU time,
    which is its wall time on a quiet machine.  A pooled unit costs its wall
    time less the hypervisor's steal: its CPU time also counts the second
    worker and the pool's own work, which the user does not wait on.  Only
    a busy CPU is stolen from, so the wait is the steal per busy CPU, the
    machine's steal over the unit's CPU time and steal per wall second."""
    if getattr(unit, "workers", 1) > 1:
        wall, cpu, stolen = calibrated
        return wall - stolen * wall / (cpu + stolen)
    return calibrated.cpu


def summarize(timed) -> tuple:
    """(p50, p90, work per second) of [(unit, seconds)].  The time of an
    input case is the median over its repeats; p50 is the geometric mean of
    the case times, throughput the work of one unit of each case over the
    sum of the case times, p90 is taken over every unit."""
    by_case = defaultdict(list)
    work = {}
    for u, seconds in timed:
        by_case[u.key].append(seconds)
        work[u.key] = u.work
    med = [statistics.median(v) for v in by_case.values()]
    every = [s for _, s in timed]
    p90 = statistics.quantiles(every, n=10)[-1] if len(every) > 1 else \
        every[0]
    return (math.exp(statistics.fmean(math.log(v) for v in med)), p90,
            sum(work.values()) / sum(med))


def live_children() -> list:
    """Pids of this process's children that are still running."""
    pids = []
    for path in Path("/proc/self/task").glob("*/children"):
        pids += path.read_text().split()
    return pids


def derive(seed: int, *parts) -> int:
    """A 64-bit input seed from the workload seed and a path of labels."""
    text = "/".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def failure(exc: BaseException) -> str:
    """One-line description of an exception raised by a unit."""
    last = traceback.extract_tb(exc.__traceback__)[-1:]
    where = f" at {last[0].filename}:{last[0].lineno}" if last else ""
    return f"{type(exc).__name__}: {exc}{where}"


class Tally:
    """Units attempted and failed in one run, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def add(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems

    def result(self, metrics: dict) -> dict:
        """The result object; ``metrics`` maps name to (value, unit)."""
        for line in self.problems[:20]:
            print(f"FAILED {line}", file=sys.stderr)
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }


class Expected:
    """Expected output digest per unit key: the frozen reference when one is
    given, otherwise the digest the key produced the first time."""

    def __init__(self, frozen: Optional[dict]):
        self.frozen = frozen
        self.seen: dict = {}

    def check(self, key: str, digest: str) -> list:
        if self.frozen is not None:
            want = self.frozen.get(key)
            if want is None:
                return [f"{key}: no reference digest"]
        else:
            want = self.seen.setdefault(key, digest)
        if digest != want:
            return [f"{key}: digest {digest[:16]} != expected {want[:16]}"]
        return []


# --------------------------------------------------------------- studies


@dataclass(frozen=True)
class Study:
    key: str
    cfg: SimulationConfig
    workers: int

    @property
    def work(self) -> int:
        return self.cfg.replications


def study_cycle(shape: StudyShape, seed: int) -> list:
    """The studies of one cycle, laws interleaved."""
    out = []
    for k in range(MASTERS):
        for law in LAWS:
            cfg = SimulationConfig(
                law=law, n=shape.n, replications=shape.replications,
                master_seed=derive(seed, shape.pool, law.kind.value, k),
                sigma_methods=shape.methods)
            key = (f"{shape.pool}/{law.kind.value}/n{shape.n}"
                   f"/B{shape.replications}/k{k}")
            out.append(Study(key, cfg, shape.workers))
    return out


def run_study(study: Study, outdir: Path):
    """One timed unit; returns (timing, report)."""
    start = clocks()
    report = run_simulation(study.cfg, workers=study.workers)
    write_report(report, outdir)
    return elapsed(start), report


def bundle_digest(outdir: Path) -> tuple:
    """(SHA-256 over every file name and content, file count, bytes)."""
    h = hashlib.sha256()
    files = sorted(p for p in outdir.iterdir() if p.is_file())
    size = 0
    for path in files:
        data = path.read_bytes()
        size += len(data)
        h.update(path.name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest(), len(files), size


def check_study(study: Study, report, outdir: Path) -> tuple:
    """Checks that hold for any seed; returns (digest, problems)."""
    cfg = study.cfg
    digest, count, _ = bundle_digest(outdir)
    problems = []
    if count != BUNDLE_FILES:
        problems.append(f"{study.key}: {count} files, expected {BUNDLE_FILES}")
    if report.feasible + report.infeasible_count != cfg.replications:
        problems.append(f"{study.key}: feasible + infeasible != B")
    try:
        doc = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
        counted = doc["feasible"] + doc["infeasible"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"{study.key}: report.json unreadable: {exc}")
    else:
        if counted != cfg.replications:
            problems.append(f"{study.key}: report.json counts {counted} "
                            f"replications, expected {cfg.replications}")
    if cfg.law == LAWS[0] and report.sigma_exact is not None:
        sigma = report.sigma_exact
        problems += gamma_sigma_problems(study.key,
                                         (sigma.s11, sigma.s22, sigma.s12))
    return digest, problems


def gamma_sigma_problems(label: str, got: tuple) -> list:
    """The exact covariance (s11, s22, s12) of Gamma(2, 3) is known."""
    if all(math.isclose(g, w, rel_tol=1e-9)
           for g, w in zip(got, GAMMA23_SIGMA)):
        return []
    return [f"{label}: Gamma(2, 3) exact sigma {got} != {GAMMA23_SIGMA}"]


def study_unit(study: Study, tmp: Path, expected: Expected) -> tuple:
    """Run, time and check one study; returns (timing, problems, report)."""
    outdir = tmp / study.key.replace("/", "_")
    try:
        timing, report = run_study(study, outdir)
        digest, problems = check_study(study, report, outdir)
    except Exception as exc:  # a failing unit is counted, the run goes on
        return None, [f"{study.key}: {failure(exc)}"], None
    return (timing, problems + unit_leftovers(study.key)
            + expected.check(study.key, digest), report)


def unit_leftovers(key: str) -> list:
    """A child process outliving its unit would hide its CPU time."""
    pids = live_children()
    return [f"{key}: child processes {pids} outlived the unit"] if pids \
        else []


# ------------------------------------------------------------ cli-test


@dataclass(frozen=True)
class Call:
    key: str
    argv: tuple
    size: int
    h0_true: bool
    sigma: str
    work: int = 1


def feasible_sample(law: LawSpec, size: int, seed: int, label: str):
    """The first seeded sample whose moment estimates exist, so that every
    generated call can succeed."""
    for attempt in range(100):
        values = sample(law, size, derive(seed, label, attempt))
        try:
            estimate(law.kind, empirical_moments(values))
        except DegenerateSampleError:
            continue
        return values
    raise RuntimeError(f"no feasible {law} sample of size {size}")


def write_sample_files(law: LawSpec, size: int, seed: int, tmp: Path):
    """Plain and CSV sample files; returns their paths."""
    values = feasible_sample(law, size, seed,
                             f"cli/{law.kind.value}/{size}").tolist()
    stem = tmp / f"{law.kind.value}-{size}"
    plain = stem.with_suffix(".txt")
    plain.write_text(f"# {law}, n={size}\n"
                     + "\n".join(map(repr, values)) + "\n", encoding="utf-8")
    table = stem.with_suffix(".csv")
    table.write_text("index,value\n" + "".join(
        f"{i},{v!r}\n" for i, v in enumerate(values)), encoding="utf-8")
    return plain, table


def call_cycle(shape: CliShape, seed: int, tmp: Path) -> list:
    """Write the sample files and return one cycle of calls in a seeded
    order.  Each (law, size) pair gets H0 true for half of its six calls."""
    calls = []
    for law in LAWS:
        for size in shape.sizes:
            files = write_sample_files(law, size, seed, tmp)
            for f_idx, (fmt, path) in enumerate(zip(("plain", "csv"), files)):
                column = ("--column", "value") if fmt == "csv" else ()
                for m_idx, method in enumerate(CLI_METHODS):
                    h0_true = (f_idx + m_idx) % 2 == 0
                    a0, b0 = ((law.p1, law.p2) if h0_true
                              else FALSE_H0[law.kind])
                    argv = ("test", law.kind.value, repr(a0), repr(b0),
                            "--input", str(path), *column,
                            "--sigma", method.value, "--format", "json")
                    key = (f"cli/{law.kind.value}/{size}/{fmt}/"
                           f"{method.value}/h0-{str(h0_true).lower()}")
                    calls.append(Call(key, argv, size, h0_true, method.value))
    random.Random(seed).shuffle(calls)
    return calls


def run_call(call: Call) -> tuple:
    """One timed unit; returns (timing, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = clocks()
        code = cli.main(list(call.argv))
        timing = elapsed(start)
    return timing, code, out.getvalue(), err.getvalue()


def check_call(call: Call, code: int, stdout: str, stderr: str) -> tuple:
    """Checks that hold for any seed; returns (digest, problems)."""
    problems = []
    if code not in (0, 3):
        problems.append(f"{call.key}: exit code {code}")
    if stderr:
        problems.append(f"{call.key}: stderr {stderr.strip()[:200]!r}")
    try:
        doc = json.loads(stdout)
        n, omnibus = doc["n"], doc["omnibus"]
        rejected, method = omnibus["reject_at_5pct"], omnibus["sigma_method"]
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"{call.key}: stdout is not the test report: {exc}")
    else:
        if n != call.size:
            problems.append(f"{call.key}: n={n}, expected {call.size}")
        if rejected != (code == 3):
            problems.append(f"{call.key}: exit {code} disagrees with "
                            f"reject_at_5pct={rejected}")
        if method != call.sigma:
            problems.append(f"{call.key}: sigma {method}, expected "
                            f"{call.sigma}")
        if not call.h0_true and call.size >= POWERFUL_N and code != 3:
            problems.append(f"{call.key}: false H0 not rejected")
    digest = hashlib.sha256(f"{stdout}exit={code}\n".encode()).hexdigest()
    return digest, problems


def call_unit(call: Call, tmp: Path, expected: Expected) -> tuple:
    """Run, time and check one call; returns (timing, problems, None)."""
    try:
        timing, code, stdout, stderr = run_call(call)
        digest, problems = check_call(call, code, stdout, stderr)
    except Exception as exc:  # a failing unit is counted, the run goes on
        return None, [f"{call.key}: {failure(exc)}"], None
    return (timing, problems + unit_leftovers(call.key)
            + expected.check(call.key, digest), None)
