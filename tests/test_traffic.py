"""``tools/traffic.py``, the statement trace of momest, on one small call."""

import importlib.util
import sys
from pathlib import Path

import pytest

from momest import empirical_moments

TOOL = Path(__file__).resolve().parent.parent / "tools" / "traffic.py"


@pytest.fixture
def traffic(monkeypatch):
    """The tool as a module, registered only for the test."""
    spec = importlib.util.spec_from_file_location("traffic", TOOL)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "traffic", module)
    spec.loader.exec_module(module)
    return module


def test_traces_which_statements_ran(traffic):
    ran, not_run = traffic.trace(
        lambda: empirical_moments([1.0, 2.0, 4.0]))["estimation.py"]
    assert any(s.scope == "_require_finite" and s.text.startswith("raise ")
               for s in not_run)
    assert any(s.scope == "_require_finite" and s.text.startswith("if ")
               for s in ran)
    returns = [s for s in ran + not_run if s.scope == "empirical_moments"
               and s.text.startswith("return ")]
    assert returns and all(s in ran for s in returns)
    # the estimator was not called, and docstrings are never listed
    assert all(s.scope != "estimate" for s in ran)
    assert not any(s.text.startswith('"""') for s in ran + not_run)


def test_compound_statement_runs_with_its_body(traffic):
    source = "def f(x):\n    if x:\n        return 1\n    return 2\n"
    ran, not_run = traffic.traffic(source, {3})
    assert [s.text for s in ran] == ["if x:", "return 1"]
    assert [(s.line, s.scope) for s in not_run] == [(4, "f")]
