"""Which statements of momest a script runs: a line trace of
``src/momest/*.py`` in every thread of one process.

    python tools/traffic.py SCRIPT [ARGS...]

runs SCRIPT in this process as ``python SCRIPT ARGS...`` would (its
directory first on ``sys.path``, ``__name__`` set to ``"__main__"``), with
no bytecode written, then prints for each module how many of its statements
ran and lists, by line, those that did not.  For example::

    python tools/traffic.py perfbench/run.py --workload cli-test \\
        --seed 2112 --seconds 3

Statements come from ``ast``.  Def, class, import, global and nonlocal
statements are left out, and so are bare constants such as docstrings: none
of them runs code of its own.  A compound statement counts as run when one
of its own lines, or any statement inside it, ran.  Only threads started
after the trace began are traced, and child processes are not; module-level
statements count only when the module is first imported under the trace.
Tracing slows Python code, so a timed script may do less work under it,
but it takes the same paths.
"""

from __future__ import annotations

import ast
import runpy
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "momest"

_NO_CODE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
            ast.ImportFrom, ast.Global, ast.Nonlocal)
_DEFINES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass(frozen=True)
class Statement:
    """A statement by its first line, its enclosing defs and classes
    (dotted; "" at module level) and the text of its first line."""

    line: int
    scope: str
    text: str


def _child_statements(node: ast.AST) -> list:
    out = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            out.append(child)
        else:  # an except handler, a match case or an expression
            out += _child_statements(child)
    return out


def traffic(source: str, hits: set) -> tuple[list, list]:
    """(statements that ran, statements that did not) of the module
    ``source``, in source order, given the set of its lines that ran.  A
    line belongs to the innermost statement that spans it."""
    text = source.splitlines()
    owner, found = {}, []

    def visit(node: ast.stmt, scope: str) -> None:
        first = min([node.lineno]
                    + [d.lineno for d in getattr(node, "decorator_list", ())])
        for line in range(first, node.end_lineno + 1):
            owner[line] = node  # a child visited later takes its lines
        children = _child_statements(node)
        found.append((node, scope, children))
        if isinstance(node, _DEFINES):
            scope = f"{scope}.{node.name}" if scope else node.name
        for child in children:
            visit(child, scope)

    for node in ast.parse(source).body:
        visit(node, "")
    ran = {node for line, node in owner.items() if line in hits}
    for node, _, children in reversed(found):  # children follow parents
        if any(child in ran for child in children):
            ran.add(node)
    out = ([], [])
    for node, scope, _ in found:
        if isinstance(node, _NO_CODE) or (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant)):
            continue
        statement = Statement(node.lineno, scope,
                              text[node.lineno - 1].strip())
        out[node not in ran].append(statement)
    return out


def trace(run: Callable[[], object], package: Path = PACKAGE
          ) -> dict[str, tuple[list, list]]:
    """Calls ``run()`` with every line of ``package/*.py`` traced, in this
    thread and in threads it starts; returns, by module file name,
    ``traffic`` of that module."""
    paths = {path.resolve(): path for path in sorted(package.glob("*.py"))}
    hits = {path: set() for path in paths.values()}
    tracers: dict[str, object] = {}

    def tracer_of(filename: str):
        path = paths.get(Path(filename).resolve())
        if path is None:
            return None
        lines = hits[path]

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in tracers:
            tracers[filename] = tracer_of(filename)
        local = tracers[filename]
        return local and local(frame, event, arg)

    before = sys.gettrace(), threading.gettrace()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])
    return {path.name: traffic(path.read_text(encoding="utf-8"), lines)
            for path, lines in hits.items()}


def report(by_module: dict[str, tuple[list, list]]) -> str:
    out = []
    for name, (ran, not_run) in by_module.items():
        out.append(f"{name}: {len(ran)} of {len(ran) + len(not_run)} "
                   f"statements ran" + ("; not run:" if not_run else ""))
        out += [f"  {s.line:5d}  {s.scope or '<module>'}: {s.text}"
                for s in not_run]
    return "\n".join(out)


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    script = Path(argv[0])
    sys.argv = list(argv)
    sys.path[0] = str(script.resolve().parent)
    sys.dont_write_bytecode = True
    status = 0

    def run() -> None:
        nonlocal status
        try:
            runpy.run_path(str(script), run_name="__main__")
        except SystemExit as exc:
            status = exc.code

    by_module = trace(run)
    print(f"traffic of {script} {' '.join(argv[1:])}".rstrip())
    print(report(by_module))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
