"""The benchmark under ``perfbench/`` imports public names of momest
(``Stream``, ``trapezoid_integrate``, ``DEFAULT_QUAD_CONFIG``, ...).  Its
full runs are too slow for this suite, so importing its modules here makes a
removed or renamed name fail fast."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


MODULES = ("run", "workloads", "tracing")


@pytest.fixture
def perfbench_path(monkeypatch):
    """``perfbench/`` first on sys.path, no bytecode written, and its
    modules forgotten afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    yield
    for name in MODULES:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("module", MODULES)
def test_benchmark_module_imports(perfbench_path, module):
    mod = importlib.import_module(module)
    assert Path(mod.__file__).resolve().parent == PERFBENCH
