"""Every module of ozk uses each name it imports, and each name it
defines at module level, each method of its classes and each attribute
it assigns, is read somewhere.  Only ``terms`` touches the store's
trail stack and owns rule, and only it wakes threads.  Only ``search``
runs generated code, and no module evaluates or compiles text.
Importing ozk loads neither ``dataclasses`` nor ``inspect``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ozk"
READERS = ("src", "tests", "perfbench")


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


def defined_names(text: str) -> list:
    """The ``(line, name)`` of each function, class and constant that a
    module defines at module level, apart from dunder names."""
    out = []
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, ast.Assign):
            out.extend((node.lineno, t.id) for t in node.targets
                       if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            out.append((node.lineno, node.target.id))
    return [(line, name) for line, name in out
            if not (name.startswith("__") and name.endswith("__"))]


def read_names(text: str) -> set:
    """Every name a module reads: as a name, as an attribute, as a name it
    imports, or as a string that is just that name."""
    out = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unread_names(defining: dict, reading: list) -> list:
    """The ``(module, line, name)`` of each name that a module of
    `defining` (module name to text) defines and no text of `reading`
    reads."""
    read = set().union(*map(read_names, reading))
    return [(module, line, name) for module, text in sorted(defining.items())
            for line, name in defined_names(text) if name not in read]


def test_every_module_level_name_is_read():
    reading = [p.read_text() for d in READERS for p in (ROOT / d).rglob("*.py")]
    defining = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unread_names(defining, reading) == []


def test_an_unread_name_is_found():
    lib = ("import os\n"
           "LIMIT: int = 3\n"
           "SPARE = OTHER = 0\n"
           "__all__ = ['Used']\n"
           "class Used: pass\n"
           "def helper(): return os.sep\n"
           "def unused(): return LIMIT\n")
    user = "from lib import Used\nprint(Used, helper(), lib.OTHER)\n"
    assert unread_names({"lib.py": lib}, [lib, user]) == [
        ("lib.py", 3, "SPARE"), ("lib.py", 7, "unused")]


def defined_methods(text: str) -> list:
    """The ``(line, class, name)`` of each method that a class defined at
    module level defines, apart from dunder methods."""
    out = []
    for node in ast.parse(text).body:
        if isinstance(node, ast.ClassDef):
            out.extend((item.lineno, node.name, item.name) for item in node.body
                       if isinstance(item, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))
                       and not (item.name.startswith("__")
                                and item.name.endswith("__")))
    return out


def read_attributes(text: str) -> set:
    """Every name a module reads as an attribute, or as a string that is
    just that name."""
    out = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unread_methods(defining: dict, reading: list) -> list:
    """The ``(module, line, class.method)`` of each method that a class of
    a module of `defining` defines and no text of `reading` reads."""
    read = set().union(*map(read_attributes, reading))
    return [(module, line, f"{cls}.{name}")
            for module, text in sorted(defining.items())
            for line, cls, name in defined_methods(text) if name not in read]


def test_every_method_is_read():
    reading = [p.read_text() for d in READERS for p in (ROOT / d).rglob("*.py")]
    defining = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unread_methods(defining, reading) == []


def test_an_unread_method_is_found():
    lib = ("class Box:\n"
           "    def __init__(self): self.size = 0\n"
           "    def get(self): return self.size\n"
           "    def put(self, x): self.put_count = x\n"
           "    def by_name(self): pass\n"
           "    def spare(self): pass\n")
    user = ("b = Box()\n"
            "b.put_count = b.get()\n"
            "getattr(b, 'by_name')()\n"
            "b.spare = None\n")
    assert unread_methods({"lib.py": lib}, [lib, user]) == [
        ("lib.py", 4, "Box.put"), ("lib.py", 6, "Box.spare")]


def written_attributes(text: str) -> list:
    """The ``(line, name)`` of each attribute that a module assigns
    (``x.name = ...``, ``x.name += ...``), apart from dunders."""
    return sorted((node.lineno, node.attr)
                  for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)
                  and not (node.attr.startswith("__")
                           and node.attr.endswith("__")))


def loaded_attributes(text: str) -> set:
    """Every name a module reads as an attribute, or names to
    ``getattr`` or ``hasattr``.  A string that only holds the name, as a
    ``__slots__`` entry does, is no read."""
    out = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr")
              and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            out.add(node.args[1].value)
    return out


def unread_attributes(defining: dict, reading: list) -> list:
    """The ``(module, line, name)`` of each attribute that a module of
    `defining` assigns and no text of `reading` reads: state that is
    written but never read."""
    read = set().union(*map(loaded_attributes, reading))
    return [(module, line, name)
            for module, text in sorted(defining.items())
            for line, name in written_attributes(text) if name not in read]


def test_every_attribute_written_is_read():
    reading = [p.read_text() for d in READERS for p in (ROOT / d).rglob("*.py")]
    defining = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unread_attributes(defining, reading) == []


def test_an_attribute_written_and_never_read_is_found():
    lib = ("class Box:\n"
           "    __slots__ = ('size', 'spare', 'count', 'named')\n"
           "    def __init__(self):\n"
           "        self.size = 0\n"
           "        self.spare = None\n"
           "        self.__doc__ = 'a box'\n"
           "    def put(self, x):\n"
           "        self.count += 1\n"
           "        self.named = x\n"
           "        return self.size\n")
    user = "print(getattr(Box(), 'named'))\n"
    assert unread_attributes({"lib.py": lib}, [lib, user]) == [
        ("lib.py", 5, "spare"), ("lib.py", 8, "count")]


# The state of the store that only a computation space (``terms.Space``)
# decides: which trail is innermost and which variables the running
# speculation owns.
SPACE_STATE = {"owns", "trails", "push_trail", "pop_trail", "undo_to"}
SPACE_MODULES = {"terms.py"}


def space_state_uses(defining: dict) -> list:
    """The ``(module, name)`` of each name of ``SPACE_STATE`` that a
    module of `defining`, other than those of ``SPACE_MODULES``, uses as
    an attribute."""
    return [(module, name) for module, text in sorted(defining.items())
            if module not in SPACE_MODULES
            for name in sorted({node.attr for node in ast.walk(ast.parse(text))
                                if isinstance(node, ast.Attribute)}
                               & SPACE_STATE)]


def test_only_the_space_touches_the_trail_and_the_owns_rule():
    defining = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert space_state_uses(defining) == []


def test_a_use_of_the_space_state_is_found():
    lib = ("def guard(store):\n"
           "    store.push_trail()\n"
           "    outer, store.owns = store.owns, None\n"
           "    return store.trail, store.trails_seen\n")
    assert space_state_uses({"lib.py": lib, "terms.py": lib}) == [
        ("lib.py", "owns"), ("lib.py", "push_trail")]


# Only the store wakes the threads that a binding or a need mark wakes
# (``Store.wake``, ``Store._bind_local``): no other module reads a set of
# woken threads or calls a ``wake``.
WAKE_MODULES = {"terms.py"}


def wake_uses(defining: dict) -> list:
    """The ``(module, line, use)`` of each read of a ``.woken`` attribute
    and each call of a ``.wake`` attribute in a module of `defining`, other
    than those of ``WAKE_MODULES``."""
    out = []
    for module, text in sorted(defining.items()):
        if module in WAKE_MODULES:
            continue
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Attribute) and node.attr == "woken"
                    and isinstance(node.ctx, ast.Load)):
                out.append((module, node.lineno, "woken"))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "wake"):
                out.append((module, node.lineno, "wake()"))
    return sorted(out)


def test_only_the_store_wakes_threads():
    defining = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert wake_uses(defining) == []


def test_a_wake_outside_the_store_is_found():
    lib = ("def bind(rt, store, x, v):\n"
           "    res = store.unify(x, v)\n"
           "    if res.woken:\n"
           "        rt.wake(res.woken)\n"
           "    store.wake = rt.wake\n"
           "    rt.wake_due()\n"
           "    res.woken = None\n")
    assert wake_uses({"lib.py": lib, "terms.py": lib}) == [
        ("lib.py", 3, "woken"), ("lib.py", 4, "wake()"),
        ("lib.py", 4, "woken")]


# Only the search engine turns code it generates into functions (a choice
# alternative's compiled head, ``search.compile_head``), with ``exec``; no
# module calls ``eval`` or ``compile``.
EXEC_MODULES = {"search.py"}


def code_from_text_calls(defining: dict) -> list:
    """The ``(module, line, name)`` of each call of ``exec`` in a module of
    `defining` other than those of ``EXEC_MODULES``, and of each call of
    ``eval`` or ``compile`` in any."""
    out = []
    for module, text in sorted(defining.items()):
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and (node.func.id in ("eval", "compile")
                         or node.func.id == "exec"
                         and module not in EXEC_MODULES)):
                out.append((module, node.lineno, node.func.id))
    return sorted(out)


def test_only_search_runs_generated_code():
    defining = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert code_from_text_calls(defining) == []


def test_a_call_that_runs_text_is_found():
    lib = ("import re\n"
           "def run(src, ns):\n"
           "    exec(src, ns)\n"
           "    code = compile(src, '<x>', 'exec')\n"
           "    return eval('1'), re.compile('a'), ns.exec_unify()\n")
    assert code_from_text_calls({"lib.py": lib, "search.py": lib}) == [
        ("lib.py", 3, "exec"), ("lib.py", 4, "compile"), ("lib.py", 5, "eval"),
        ("search.py", 4, "compile"), ("search.py", 5, "eval")]


def test_importing_ozk_loads_neither_dataclasses_nor_inspect():
    # Every run of ozk pays for its import.  Building its classes with
    # dataclasses (which imports inspect) was about a quarter of that.
    code = ("import sys\n"
            "import ozk.cli, ozk.interp, ozk.dist, ozk.prolog\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
