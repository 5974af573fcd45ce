"""The compiled form the compile pass gives each core tree.

Goldens pin it: a readable dump of ``compiler.compile_top`` of the core
of every ``docs/programs/*.ozk`` program, of the prelude and of the
``repl_session`` chunks of ``test_core.REPL_CHUNKS`` is compared with the
files in ``tests/golden/compiled/``.  A change that alters any of them,
on purpose, shows it by regenerating the files and committing the
difference:

    PYTHONPATH=src python tests/test_compiled.py

The dump (:func:`dump`) shows each instruction with its operands, in the
order in which a run pushes and enters them: a slot as ``Name@slot``, a
first use as ``^Name@slot``, a void as ``_``, a literal as itself and a
compound to build as ``label(args)``.  It shows every ``Body``'s
``made``, every ``clear`` that is not empty (an arm's and an ``else``'s
too), each read ``Plan``'s ``firsts`` and ``reads``, and of each
``Code`` its name, arity, blank locals, captures and slot names.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from ozk import compiler as c
from ozk.builtins import make_builtins
from ozk.parser import parse_interactive
from ozk.prelude import PRELUDE, PRELUDE_NAMES
from ozk.terms import Atom, Int
from test_core import PROGRAMS, REPL_CHUNKS

COMPILED = Path(__file__).resolve().parent / "golden" / "compiled"

_TESTS = {c.GUARD: "guard", c.OP_TEST: "op-test", c.EQ_TEST: "eq-test",
          c.TEST: "test"}
_TAGS = {c.READ_SLOT: "slot", c.READ_LITERAL: "literal",
         c.READ_BUILD: "build"}


class _Dump:
    def __init__(self):
        self.lines: list = []
        self.names: list = []       # the slot names of each enclosing code

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("  " * depth + text)

    def slot(self, s: int) -> str:
        return f"{self.names[-1].get(s, '?')}@{s}"

    def slots(self, slots) -> str:
        return " ".join(self.slot(s) for s in slots) or "-"

    def operand(self, e) -> str:
        kind = type(e)
        if kind is int:
            return self.slot(e)
        if kind is c.Fresh:
            return "^" + self.slot(e.slot)
        if e is None:
            return "_"
        if kind is c.Build:
            return f"{e.label}({' '.join(self.operand(a) for a in e.args)})"
        if kind is Atom:
            return repr(e.name)
        if kind is Int:
            return str(e.value)
        raise TypeError(f"not an operand: {e!r}")

    def pattern(self, p) -> str:
        if type(p) is tuple:
            label, arity, args = p
            return f"{label}/{arity}({' '.join(self.pattern(a) for a in args)})"
        return self.operand(p)

    @staticmethod
    def clear(positions) -> str:
        return f"  clear {' '.join(map(str, positions))}" if positions else ""

    def code(self, depth: int, code: c.Code) -> None:
        self.names.append(dict(code.names))
        captures = " ".join(map(str, code.captures)) or "-"
        names = " ".join(f"{n}@{s}" for s, n in code.names) or "-"
        self.emit(depth, f"code {code.name or '-'}/{code.arity} "
                         f"blank {len(code.blank)} captures {captures}")
        self.emit(depth + 1, f"names {names}")
        self.ins(depth + 1, code.body)
        self.names.pop()

    def run(self, depth: int, pushed) -> None:
        for ins in reversed(pushed):
            self.ins(depth, ins)

    def ins(self, depth: int, ins) -> None:
        kind = type(ins)
        emit = self.emit
        clear = self.clear(getattr(ins, "clear", ()))
        if kind is c.Body:
            emit(depth, f"body made {self.slots(ins.made)}")
            self.run(depth + 1, ins.pushed)
        elif kind is c.Unify:
            emit(depth, f"unify {self.operand(ins.lhs)} = "
                        f"{self.operand(ins.rhs)}{clear}")
            plan = ins.plan
            if plan is not None:
                firsts = " ".join(f"{i}:{self.slot(s)}"
                                  for i, s in plan.firsts) or "-"
                reads = " ".join(f"{i}:{_TAGS[tag]}:{self.operand(a)}"
                                 for i, tag, a in plan.reads) or "-"
                side = "left" if plan.value_left else "right"
                emit(depth + 1, f"plan {self.slot(plan.slot)} {side} "
                                f"{plan.label}/{plan.arity} firsts {firsts} "
                                f"reads {reads}")
        elif kind is c.Call:
            args = " ".join(self.operand(a) for a in (ins.target,) + ins.args)
            emit(depth, f"call {{{args}}}{clear}")
        elif kind is c.Op:
            ops = f"{self.operand(ins.a)} {ins.name} {self.operand(ins.b)}"
            r = "" if ins.r is None else f" -> {self.operand(ins.r)}"
            emit(depth, f"op {ops}{r}{clear}")
        elif kind is c.Builtin:
            args = " ".join(self.operand(a) for a in ins.args)
            emit(depth, f"builtin {ins.name} {args}{clear}")
        elif kind is c.Case:
            emit(depth, f"case {self.operand(ins.subject)}")
            for pattern, body, arm_clear in ins.arms:
                emit(depth + 1,
                     f"of {self.pattern(pattern)}{self.clear(arm_clear)}")
                self.ins(depth + 2, body)
            emit(depth + 1, f"else{self.clear(ins.else_clear)}")
            self.ins(depth + 2, ins.otherwise)
        elif kind is c.If:
            emit(depth, "if")
            for arm in ins.arms:
                emit(depth + 1, f"arm made {self.slots(arm.made)} "
                                f"{_TESTS[arm.test]}{self.clear(arm.clear)}")
                self.ins(depth + 2, arm.guard)
                emit(depth + 1, "then")
                self.ins(depth + 2, arm.body)
            emit(depth + 1, f"else{self.clear(ins.else_clear)}")
            self.ins(depth + 2, ins.otherwise)
        elif kind is c.Choice:
            emit(depth, "choice")
            for alt in ins.alts:
                emit(depth + 1, f"alt made {self.slots(alt.made)}")
                for head in alt.head:
                    self.ins(depth + 2, head)
                emit(depth + 1, "rest")
                self.run(depth + 2, alt.pushed)
        elif kind is c.Proc:
            emit(depth, f"proc {self.slot(ins.slot)}{clear}")
            self.code(depth + 1, ins.code)
        elif kind is c.Thread:
            emit(depth, f"thread{clear}")
            self.code(depth + 1, ins.code)
        elif kind is c.Lazy:
            emit(depth, f"lazy {self.slot(ins.slot)}{clear}")
            self.code(depth + 1, ins.code)
        elif kind is c.Skip:
            emit(depth, "skip")
        elif kind is c.Fail:
            emit(depth, "fail")
        else:
            raise TypeError(f"not an instruction: {ins!r}")


def dump(code: c.Code) -> str:
    """The compiled form ``code`` as text, one instruction a line."""
    d = _Dump()
    d.code(0, code)
    return "\n".join(d.lines) + "\n"


def _compiled(text: str, names) -> tuple:
    """The dump of a chunk compiled against the global `names`, and the
    names it exposes."""
    stmt, exposed = parse_interactive(text, names)
    return dump(c.compile_top(stmt)), exposed


def goldens() -> dict:
    """Golden file name -> its text."""
    native = tuple(make_builtins())
    ambient = native + PRELUDE_NAMES
    out = {"prelude.compiled": _compiled(PRELUDE, native)[0]}
    for program in sorted(PROGRAMS.glob("*.ozk")):
        out[f"{program.name}.compiled"] = _compiled(program.read_text(),
                                                    ambient)[0]
    texts, names = [], ambient
    for i, chunk in enumerate(REPL_CHUNKS):
        text, exposed = _compiled(chunk, names)
        texts.append(f"%% {i}\n{text}")
        names += exposed
    out["repl_chunks.compiled"] = "".join(texts)
    return out


GOLDENS = goldens()


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_compiled_form_matches_golden(name):
    assert GOLDENS[name] == (COMPILED / name).read_text()


def test_every_compiled_golden_has_a_text():
    assert sorted(p.name for p in COMPILED.iterdir()) == sorted(GOLDENS)


def regenerate() -> None:
    COMPILED.mkdir(parents=True, exist_ok=True)
    for stale in COMPILED.iterdir():
        stale.unlink()
    for name, text in GOLDENS.items():
        (COMPILED / name).write_text(text)


if __name__ == "__main__":
    regenerate()
