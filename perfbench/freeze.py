"""Freeze the reference digests in ``refs.json`` from the current sources.

Usage, from the root of a checkout::

    python3 perfbench/freeze.py

Every unit of every workload runs once with the default seed; the SHA-256
of each study bundle and of each ``momest test`` stdout (with its exit code)
is recorded.  Re-freeze only in a change meant to alter output bytes.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads as w
    tmp = run.ROOT / ".bench_tmp" / "freeze"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    expected = w.Expected(None)
    tally = w.Tally()
    try:
        for shape in w.WORKLOADS.values():
            units, unit = run.units_of(w.DEFAULT_SEED, shape, tmp)
            for u in units:
                if u.key not in expected.seen:
                    tally.add(unit(u, tmp, expected)[1])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()
    if tally.failed:
        for line in tally.problems:
            print(f"FAILED {line}", file=sys.stderr)
        return 1
    doc = {"seed": w.DEFAULT_SEED, "commit": run.git_commit(),
           "digests": expected.seen}
    (run.HERE / "refs.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"froze {len(expected.seen)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
