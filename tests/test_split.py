"""``tools/split.py``, the per-phase CPU split of a study cycle, on one small
cycle.  The tool wraps momest functions for its whole process, so it runs
in a child interpreter."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "split.py"

LINE = re.compile(r"^( *)(\S.*?) +(\d+\.\d{3}) ms +(\d+\.\d)%$")


def test_prints_each_phase_within_its_parent():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--n", "20", "--replications", "10",
         "--rounds", "1"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header == ("n=20 B=10: process CPU per study, median of 1 "
                      "cycles of 4 studies")
    rows = [LINE.match(line).groups() for line in lines]
    assert [(len(indent) // 2, phase) for indent, phase, _, _ in rows] == [
        (0, "study"), (1, "run_simulation"), (2, "sample_rows"),
        (3, "later rejection rounds"), (2, "estimate_rows"),
        (2, "plugin_rows"), (2, "_rates"), (1, "write_report"),
        (2, "parzen"), (2, "qq"), (2, "repr"), (2, "json"),
        (2, "file write")]
    assert rows[0][3] == "100.0" and float(rows[0][2]) > 0.0
    # one cycle: each phase ran inside the last phase one level up
    parents = {}
    for indent, _, ms, _ in rows:
        depth = len(indent) // 2
        parents[depth] = float(ms)
        if depth:
            assert parents[depth] <= parents[depth - 1]


def test_cli_prints_each_phase_within_the_call():
    proc = subprocess.run([sys.executable, str(TOOL), "--cli", "--rounds",
                           "1"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    routes = ("exact-moments", "exact-quadrature", "plugin")
    assert len(lines) == 8 * len(routes)
    for k, route in enumerate(routes):
        header, *block = lines[8 * k:8 * (k + 1)]
        assert header == (f"test gamma 2 3, 100 lines, sigma={route}: "
                          f"process CPU per call, median of 1 calls")
        rows = [LINE.match(line).groups() for line in block]
        assert [(len(indent) // 2, phase) for indent, phase, _, _ in rows] == [
            (0, "call"), (1, "parse"), (1, "read_sample"), (1, "estimation"),
            (1, "sigma"), (1, "tests"), (1, "json output")]
        call, *phases = [float(ms) for _, _, ms, _ in rows]
        assert rows[0][3] == "100.0" and call > 0.0
        # one call: its phases ran one after another inside it
        assert all(ms > 0.0 for ms in phases)
        assert sum(phases) <= call
