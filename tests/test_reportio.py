"""Report bundles on disk: a bundle written over an existing one has the
bytes of the same bundle written into an empty directory."""

import pytest

from momest import (LawSpec, SigmaMethod, SimulationConfig, run_simulation,
                    write_report)
from momest.reportio import FILE_NAMES


def study(replications):
    return run_simulation(SimulationConfig(
        law=LawSpec.gamma(2.0, 3.0), n=30, replications=replications,
        master_seed=17, sigma_methods=tuple(SigmaMethod)))


def contents(outdir) -> dict:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


@pytest.mark.parametrize("first, second", [(400, 40), (40, 400)])
def test_rewrite_in_place_equals_fresh_bundle(tmp_path, first, second):
    """A shorter bundle written over a longer one, and a longer one over a
    shorter one, give file by file the bytes of the second study written
    into an empty directory."""
    fresh = tmp_path / "fresh"
    write_report(study(second), fresh)
    reused = tmp_path / "reused"
    write_report(study(first), reused)
    before = contents(reused)
    paths = write_report(study(second), reused)
    after = contents(reused)
    assert after == contents(fresh)
    assert [p.name for p in paths] == list(FILE_NAMES)
    shrunk = first > second
    assert all((len(after[name]) < len(before[name])) == shrunk
               for name in ("qq_a.csv", "qq_b.csv"))
