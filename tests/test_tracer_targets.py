"""Every function and method that ``perfbench/tracer.py`` wraps exists in
ozk, and the event loop's steps among them are called.

The tracer patches ozk by name and skips a name it cannot find, so a
renamed or removed target silently reads 0 in its per-layer count.  This
reads the tracer's ``fn(...)`` and ``meth(...)`` calls with ``ast``
(string arguments, or the names of a ``for`` loop over a literal tuple)
and looks each target up the way the tracer does."""

import ast
import importlib
from collections import Counter
from pathlib import Path

from ozk.dist import Simulation
from ozk.interp import run_text

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Targets already gone, each of whose counts reads 0; ROADMAP direction 6
# moves the counts into ozk and retires these wrappers.
KNOWN_GAPS = {
    ("ozk.runtime", "env_get"),
    ("ozk.runtime", "match_pattern"),
    ("ozk.search", "solve_step"),
}

_PATCHERS = {"fn": "_patch_function", "meth": "_patch_method"}


def _values(node, env: dict):
    """The constant ``node`` stands for: a string, a tuple of them, or a
    name bound by an enclosing ``for`` loop."""
    if isinstance(node, ast.Name):
        return env[node.id]
    return ast.literal_eval(node)


def _bindings(target, value):
    """The names a ``for`` target binds to one item of its tuple."""
    if isinstance(target, ast.Name):
        return {target.id: value}
    out = {}
    for t, v in zip(target.elts, value):
        out.update(_bindings(t, v))
    return out


def tracer_targets(text: str) -> list:
    """``(module, owner, attribute)`` for each wrapped target, ``owner``
    being None for a module-level function."""
    found = []

    def walk(stmts, env):
        for stmt in stmts:
            if isinstance(stmt, ast.For) and isinstance(stmt.iter, ast.Tuple):
                for item in ast.literal_eval(stmt.iter):
                    walk(stmt.body, {**env, **_bindings(stmt.target, item)})
                continue
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute)
                        else None)
                kind = next((k for k, v in _PATCHERS.items()
                             if name in (k, v)), None)
                if kind is None:
                    continue
                args = [_values(a, env) for a in node.args[:-1]]
                if kind == "fn":
                    found.append((args[0], None, args[1]))
                else:
                    found.append(tuple(args))

    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.FunctionDef) and node.name == "_build":
            walk(node.body, {})
    return found


def _exists(module: str, owner, attr: str) -> bool:
    mod = importlib.import_module(module)
    if owner is None:
        return getattr(mod, attr, None) is not None
    cls = getattr(mod, owner, None)
    return cls is not None and attr in cls.__dict__


def test_every_tracer_target_exists_but_the_known_gaps():
    targets = tracer_targets(TRACER.read_text())
    assert len(targets) > 20
    missing = {(m, attr) for m, owner, attr in targets
               if not _exists(m, owner, attr)}
    assert missing == KNOWN_GAPS


def test_the_reader_finds_loop_targets_and_methods():
    text = ("class T:\n"
            "    def _build(self):\n"
            "        fn, meth = self._patch_function, self._patch_method\n"
            "        fn('ozk.a', 'f', w)\n"
            "        for name, key in (('g', 1), ('h', 2)):\n"
            "            fn('ozk.b', name, lambda f, key=key: f)\n"
            "        meth('ozk.c', 'C', 'm', w)\n")
    assert tracer_targets(text) == [
        ("ozk.a", None, "f"), ("ozk.b", None, "g"), ("ozk.b", None, "h"),
        ("ozk.c", "C", "m")]


# The scheduler and network targets are the event loop's steps: each must
# still be called, or its span (``runtime.sched_self_s``,
# ``dist.take_self_s``) reads 0 while the target exists.
LOOP_STEPS = [("ozk.runtime", "Runtime", name)
              for name in ("run", "drain", "next_wake", "wake_due")] + [
    ("ozk.dist", "Network", "take"), ("ozk.dist", "Simulation", "run")]


def _count_calls(monkeypatch) -> Counter:
    calls: Counter = Counter()
    for module, owner, attr in LOOP_STEPS:
        cls = getattr(importlib.import_module(module), owner)
        original = cls.__dict__[attr]

        def counted(*args, _key=f"{owner}.{attr}", _f=original, **kwargs):
            calls[_key] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(cls, attr, counted)
    return calls


def test_the_loop_steps_are_called(monkeypatch):
    assert set(tracer_targets(TRACER.read_text())) >= set(LOOP_STEPS)
    calls = _count_calls(monkeypatch)
    assert run_text("thread {Delay 10} {Browse 1} end").browses == ["1"]
    assert all(calls[f"Runtime.{name}"] for name in
               ("run", "drain", "next_wake", "wake_due")), calls
    source = (TRACER.parent.parent / "docs" / "programs"
              / "dist_gen_map.ozk").read_text()
    for net_seed in (None, 7):      # a node drains, or runs one slice
        sim = Simulation(source, {"a": 0, "b": 1}, net_seed=net_seed)
        calls.clear()               # the nodes' preludes ran Runtime.run
        assert sim.run().status == "done"
        assert all(calls[key] for key in (
            "Runtime.drain", "Runtime.next_wake", "Runtime.wake_due",
            "Network.take", "Simulation.run")), calls
