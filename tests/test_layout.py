"""Only :mod:`momest.laws` names the individual laws: every other module
reaches a law's formulas through that law's record there."""

import ast
from pathlib import Path

import momest
from momest import LawKind

SOURCES = sorted(Path(momest.__file__).parent.glob("*.py"))


def test_only_laws_names_a_law_kind_member():
    assert "laws.py" in [path.name for path in SOURCES]
    named = []
    for path in SOURCES:
        if path.name == "laws.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "LawKind"
                    and node.attr in LawKind.__members__):
                named.append(f"{path.name}:{node.lineno}: LawKind.{node.attr}")
    assert named == []
