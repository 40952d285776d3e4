"""Only :mod:`momest.laws` names the individual laws, and there only the
records' table and the ``LawSpec`` constructors do: every other piece of
code reaches a law's formulas through that law's record, and the command
line lists the laws from :class:`LawKind`."""

import ast
from pathlib import Path

import momest
import momest.cli
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


def law_kind_members(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "LawKind"
            and node.attr in LawKind.__members__]


def test_laws_names_a_member_only_in_the_records_table_and_constructors():
    """Inside :mod:`momest.laws` a law is known by its record: a
    ``LawKind`` member appears in the ``_FAMILIES`` table and in the
    ``LawSpec`` constructor of that law, nowhere else."""
    tree = ast.parse(Path(momest.laws.__file__).read_text())
    allowed = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["_FAMILIES"]):
            allowed.update(map(id, law_kind_members(node)))
        if isinstance(node, ast.ClassDef) and node.name == "LawSpec":
            for method in node.body:
                if (isinstance(method, ast.FunctionDef)
                        and method.name.upper() in LawKind.__members__):
                    allowed.update(map(id, law_kind_members(method)))
    assert len(allowed) == 2 * len(LawKind)
    stray = [f"laws.py:{node.lineno}: LawKind.{node.attr}"
             for node in law_kind_members(tree) if id(node) not in allowed]
    assert stray == []


def test_cli_types_out_no_law_name():
    """The command line lists the laws from :class:`LawKind`, so no string
    constant of :mod:`momest.cli` holds a law's name."""
    tree = ast.parse(Path(momest.cli.__file__).read_text())
    named = [f"cli.py:{node.lineno}: {node.value!r}"
             for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and any(kind.value in node.value.lower() for kind in LawKind)]
    assert named == []
