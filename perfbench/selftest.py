"""Self-test of the benchmark at tiny sizes.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

It checks that every workload reports every metric named in
``BENCHMARK.json`` with its unit, untraced and traced; that a corrupted
reference digest counts as a failed unit; that the command prints its
result as the last line; and that without the program's sources the command
fails without printing a result.  Exit code 0 means every check passed.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import subprocess
import sys

import run

sys.path.insert(0, str(run.SRC))

import workloads as w  # noqa: E402  (needs the sources on sys.path)

TINY = {
    "sim-small-n": w.StudyShape("small", 200, 20, w.ALL_METHODS),
    "sim-large-n": w.StudyShape("large", 500, 10,
                                w.WORKLOADS["sim-large-n"].methods),
    "cli-test": w.CliShape((100, 1000)),
    "sim-small-n-w2": w.StudyShape("small", 200, 20, w.ALL_METHODS,
                                   workers=2),
}
SEED = w.HOLDOUT_SEED


def tiny_run(workload, trace, tmp, frozen=None) -> dict:
    return run.run(workload, SEED, 0.01, trace, tmp=tmp, shapes=TINY,
                   frozen=frozen, setup_repeats=1, trace_dir=tmp / "trace")


def metric_problems(label, out, declared) -> list:
    problems = []
    if not (out["correct"] and out["failed"] == 0 and out["attempted"] >= 1):
        problems.append(f"{label}: not a clean run: correct={out['correct']}"
                        f" failed={out['failed']}")
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    if got != declared:
        wrong = sorted(set(got.items()) ^ set(declared.items()))
        problems.append(f"{label}: metrics or units differ from "
                        f"BENCHMARK.json: {wrong}")
    for name, v in out["metrics"].items():
        if not (isinstance(v["value"], (int, float))
                and math.isfinite(v["value"])):
            problems.append(f"{label}: {name} = {v['value']!r}")
    return problems


def corrupted_digest_problems(tmp) -> list:
    """A wrong reference digest must fail the unit it belongs to."""
    problems = []
    for workload in ("sim-small-n", "cli-test"):
        seen = w.Expected(None)
        units, unit = run.units_of(SEED, TINY[workload], tmp)
        for u in units:
            unit(u, tmp, seen)
        good = dict(seen.seen)
        if not tiny_run(workload, False, tmp, frozen=good)["correct"]:
            problems.append(f"{workload}: true reference digests fail")
        key = sorted(good)[0]
        bad = dict(good)
        bad[key] = ("0" if good[key][0] != "0" else "1") + good[key][1:]
        out = tiny_run(workload, False, tmp, frozen=bad)
        if out["correct"] or out["failed"] < 1:
            problems.append(f"{workload}: corrupted digest of {key} was not "
                            f"counted as a failed unit")
    return problems


def command_problems(tmp) -> list:
    """The real command prints its result last; without sources it fails."""
    problems = []
    argv = [sys.executable, "perfbench/run.py", "--workload", "sim-large-n",
            "--seed", str(SEED), "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=170)
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        keys = set(out)
    except (ValueError, IndexError):
        keys = set()
    if proc.returncode != 0 or keys != {"correct", "attempted", "failed",
                                        "metrics"}:
        problems.append(f"command: exit {proc.returncode}, last line keys "
                        f"{sorted(keys)}")
    bare = tmp / "bare"
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append(f"bare checkout: exit {proc.returncode}, stdout "
                        f"{proc.stdout[-200:]!r}")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if sorted(m["name"] for m in spec["workloads"]) != sorted(w.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from WORKLOADS")
    tmp = run.ROOT / ".bench_tmp" / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        for workload in TINY:
            for trace in (False, True):
                label = f"{workload} trace={int(trace)}"
                problems += metric_problems(label, tiny_run(workload, trace,
                                                            tmp),
                                            declared[trace])
                print(f"checked {label}", flush=True)
        print("checking corrupted digests: two FAILED lines are expected",
              flush=True)
        problems += corrupted_digest_problems(tmp)
        print("checked corrupted digests", flush=True)
        problems += command_problems(tmp)
        print("checked the command", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()
    for line in problems:
        print(f"FAILED {line}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
