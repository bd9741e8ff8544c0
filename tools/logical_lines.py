"""Count the logical lines of Python modules, docstrings left out.

A logical line is one ``tokenize.NEWLINE`` token: one statement, however
many physical lines it spans.  Comments, blank lines and the line breaks
inside brackets do not count.  A docstring (the string statement that
opens a module, class or function) is left out.

Usage::

    python tools/logical_lines.py                  # src/bsi/{jmap,vba,_linalg,model}.py
    python tools/logical_lines.py src/bsi/*.py     # any modules

Prints one ``count  path`` line per module and their total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

DEFAULT = ("jmap.py", "vba.py", "_linalg.py", "model.py")


def _docstring_rows(tree: ast.AST) -> set:
    """The end rows of every docstring statement in ``tree``."""
    rows = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                rows.add(first.end_lineno)
    return rows


def logical_lines(path: Path) -> int:
    """NEWLINE tokens of the module at ``path``, docstrings left out."""
    source = path.read_text()
    docstrings = _docstring_rows(ast.parse(source))
    with path.open("rb") as fh:
        return sum(tok.type == tokenize.NEWLINE and tok.start[0] not in docstrings
                   for tok in tokenize.tokenize(fh.readline))


def main(argv) -> int:
    src = Path(__file__).resolve().parent.parent / "src" / "bsi"
    paths = [Path(a) for a in argv] or [src / name for name in DEFAULT]
    total = 0
    for path in paths:
        count = logical_lines(path)
        total += count
        print(f"{count:5d}  {path}")
    print(f"{total:5d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
