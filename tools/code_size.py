"""Print three size counts of the Python files of a source tree.

    python tools/code_size.py [DIR]        (DIR defaults to src/momest)

* ``lines``: every physical line, as ``cat DIR/*.py | wc -l`` counts them;
* ``non-blank non-comment``: lines that are neither blank nor a ``#``
  comment, as ``grep -hvE '^\\s*(#|$)' DIR/*.py | wc -l`` counts them;
* ``code``: lines that hold a token of code, which leaves out blank lines,
  comments and the lines of every module, class and function docstring.
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

_BLANK_OR_COMMENT = re.compile(r"^\s*(#|$)")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold a code token outside a docstring."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def sizes(directory: Path) -> tuple[int, int, int]:
    total = non_blank = code = 0
    for path in sorted(directory.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        physical = source.splitlines()
        total += len(physical)
        non_blank += sum(not _BLANK_OR_COMMENT.match(line)
                         for line in physical)
        code += code_lines(source)
    return total, non_blank, code


def main(argv: list[str]) -> int:
    directory = Path(argv[0] if argv else "src/momest")
    total, non_blank, code = sizes(directory)
    print(f"lines: {total}")
    print(f"non-blank non-comment: {non_blank}")
    print(f"code: {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
