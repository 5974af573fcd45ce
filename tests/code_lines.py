"""Count the code lines of Python modules.

A code line is a line that holds a token of code: blank lines, comments
and docstrings (the first string of a module, class or function) do not
count.  A statement or string that spans lines counts each line it
spans.

    python tests/code_lines.py src/ozk tests

prints the count of each module under each directory given, and the
directory's total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = frozenset((tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                       tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER))


def _docstring_lines(tree: ast.AST) -> set:
    out: set = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """The number of code lines in the Python text `source`."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def count_tree(root: Path) -> dict:
    """Each module under `root` (by its path relative to `root`) with its
    code lines."""
    return {str(path.relative_to(root)): code_lines(path.read_text())
            for path in sorted(root.rglob("*.py"))}


def main(argv: list) -> int:
    for arg in argv:
        counts = count_tree(Path(arg))
        for name, n in counts.items():
            print(f"{n:6d}  {arg}/{name}")
        print(f"{sum(counts.values()):6d}  {arg} (total)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
