"""Every module of ozk uses each name it imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ozk"


def unused_imports(text: str) -> list:
    """The ``(line, name)`` of each name a module imports and never reads,
    apart from ``__future__`` features.  A name is read where it occurs
    as a name, as at the start of an attribute chain, or as a string that
    is just that name (a quoted annotation)."""
    tree = ast.parse(text)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    text = ("from __future__ import annotations\n"
            "import os, sys as system\n"
            "from typing import Optional, Union\n"
            "def f(x: 'Optional') -> None:\n"
            "    return os.sep\n")
    assert unused_imports(text) == [(2, "system"), (3, "Union")]
