"""Count the code lines of the ``pwvae`` package.

A code line is a line of ``src/pwvae/*.py`` that is not blank, not only a
comment, and not inside the docstring of a module, class or function.
Prints the count per module and then the total.  Uses only the standard
library.

    python3 tools/code_lines.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pwvae"


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the docstrings of the module, its classes and its functions."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    count = 0
    for lineno, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if text and not text.startswith("#") and lineno not in docstrings:
            count += 1
    return count


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.name}\t{n}")
    print(f"total\t{total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
