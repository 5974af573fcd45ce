"""Core statement AST and its pretty printer.

Everything the machine executes is one of these nodes; surface sugar
(functions, nested calls, operators in expressions, anonymous variables)
is compiled away by the desugarer in parser.py.

Expressions at this level are pure constructors: a variable reference, a
literal, a void (``CAnon``, an argument written ``_``), or a compound of
those.  A void stands for a variable that nothing else names: building
the compound makes a fresh variable for it, and unifying a variable that
is already bound to the compound's label and arity skips the argument
and makes none.  Arithmetic, comparisons and equality tests live in
BuiltinCall statements; `op(a, b, r)` computes into r while the
two-argument form is a test that fails the current context when the
answer is false.

A sequence of statements is one flat ``Block``, built by :func:`seq_all`
and never nested directly in another: running it pushes all of its
statements in one reduction, and a ``Local`` whose body is a block pushes
the block's statements itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .terms import Atom, Int

# -- expressions -------------------------------------------------------


@dataclass(frozen=True)
class CVar:
    name: str


@dataclass(frozen=True)
class CLit:
    value: Union[Atom, Int]


@dataclass(frozen=True)
class CAnon:
    pass


@dataclass(frozen=True)
class CCompound:
    label: str
    args: tuple


Expr = Union[CVar, CLit, CAnon, CCompound]

# -- patterns ----------------------------------------------------------


@dataclass(frozen=True)
class PVar:
    name: str


@dataclass(frozen=True)
class PAnon:
    pass


@dataclass(frozen=True)
class PLit:
    value: Union[Atom, Int]


@dataclass(frozen=True)
class PCompound:
    label: str
    args: tuple


Pattern = Union[PVar, PAnon, PLit, PCompound]


def pattern_names(p: Pattern) -> list[str]:
    """The names a pattern binds, left to right (walked with a stack)."""
    out = []
    todo = [p]
    while todo:
        q = todo.pop()
        if isinstance(q, PVar):
            out.append(q.name)
        elif isinstance(q, PCompound):
            todo.extend(reversed(q.args))
    return out


# -- statements ----------------------------------------------------------


@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class Fail:
    pass


@dataclass(frozen=True)
class Block:
    # `pushed` is not a field: the statements last first, in the order in
    # which a task pushes them.
    __slots__ = ("stmts", "pushed")
    stmts: tuple

    def __post_init__(self):
        object.__setattr__(self, "pushed", self.stmts[::-1])


@dataclass(frozen=True)
class Local:
    names: tuple
    body: "Statement"


@dataclass(frozen=True)
class Unify:
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class IfArm:
    guard_vars: tuple
    guard: "Statement"
    body: "Statement"


@dataclass(frozen=True)
class IfStmt:
    arms: tuple
    otherwise: "Statement"


@dataclass(frozen=True)
class CaseArm:
    pattern: Pattern
    body: "Statement"


@dataclass(frozen=True)
class CaseStmt:
    subject: Expr
    arms: tuple
    otherwise: "Statement"


@dataclass(frozen=True)
class Choice:
    alternatives: tuple


@dataclass(frozen=True)
class ProcDef:
    name: str
    params: tuple
    body: "Statement"


@dataclass(frozen=True)
class Call:
    target: Expr
    args: tuple


@dataclass(frozen=True)
class BuiltinCall:
    name: str
    args: tuple


@dataclass(frozen=True)
class ThreadStmt:
    body: "Statement"


Statement = Union[Skip, Fail, Block, Local, Unify, IfStmt, CaseStmt, Choice,
                  ProcDef, Call, BuiltinCall, ThreadStmt]


def seq_all(stmts) -> Statement:
    """The statements in order as one statement: Skip when there are
    none, the statement itself when there is one, else a flat Block (the
    items of a Block among them are spliced in)."""
    flat = []
    for s in stmts:
        if type(s) is Block:
            flat.extend(s.stmts)
        else:
            flat.append(s)
    if not flat:
        return Skip()
    if len(flat) == 1:
        return flat[0]
    return Block(tuple(flat))


def seq_items(s: Statement) -> list:
    """The statements of a Block, or the statement alone."""
    return list(s.stmts) if type(s) is Block else [s]


# -- pretty printer -------------------------------------------------------

_ARITH = {"+", "-", "*", "div"}
_COMPARE = {"==", "<", ">", "=<", ">="}

# precedence levels for expression printing; higher binds tighter
_PREC_EQ = 1
_PREC_CMP = 2
_PREC_CONS = 3
_PREC_ADD = 4
_PREC_MUL = 5
_PREC_ATOMIC = 6

_OP_PREC = {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "div": _PREC_MUL}


def _expr_text(e: Expr, prec: int = 0) -> str:
    if isinstance(e, CVar):
        return e.name
    if isinstance(e, CLit):
        if isinstance(e.value, Int):
            v = e.value.value
            return str(v) if v >= 0 else f"~{-v}"
        return e.value.name
    if isinstance(e, CAnon):
        return "_"
    if isinstance(e, CCompound):
        if e.label == "|" and len(e.args) == 2:
            # proper-list sugar when the spine is all conses ending in nil
            items, tail = [], e
            while isinstance(tail, CCompound) and tail.label == "|" and len(tail.args) == 2:
                items.append(tail.args[0])
                tail = tail.args[1]
            if isinstance(tail, CLit) and tail.value == Atom("nil"):
                return "[" + " ".join(_expr_text(i) for i in items) + "]"
            parts = [_expr_text(i, _PREC_CONS + 1) for i in items]
            parts.append(_expr_text(tail, _PREC_CONS))
            text = "|".join(parts)
            return f"({text})" if prec > _PREC_CONS else text
        args = " ".join(_expr_text(a) for a in e.args)
        return f"{e.label}({args})"
    raise TypeError(f"not an expression: {e!r}")


def _pattern_text(p: Pattern, prec: int = 0) -> str:
    if isinstance(p, PVar):
        return p.name
    if isinstance(p, PAnon):
        return "_"
    if isinstance(p, PLit):
        if isinstance(p.value, Int):
            v = p.value.value
            return str(v) if v >= 0 else f"~{-v}"
        return p.value.name
    if isinstance(p, PCompound):
        if p.label == "|" and len(p.args) == 2:
            items, tail = [], p
            while isinstance(tail, PCompound) and tail.label == "|" and len(tail.args) == 2:
                items.append(tail.args[0])
                tail = tail.args[1]
            if isinstance(tail, PLit) and tail.value == Atom("nil"):
                return "[" + " ".join(_pattern_text(i) for i in items) + "]"
            parts = [_pattern_text(i, _PREC_CONS + 1) for i in items]
            parts.append(_pattern_text(tail, _PREC_CONS))
            text = "|".join(parts)
            return f"({text})" if prec > _PREC_CONS else text
        args = " ".join(_pattern_text(a) for a in p.args)
        return f"{p.label}({args})"
    raise TypeError(f"not a pattern: {p!r}")


class _Printer:
    def __init__(self):
        self.lines: list[str] = []
        self.depth = 0

    def emit(self, text: str):
        self.lines.append("   " * self.depth + text)

    def block(self, s: Statement):
        self.depth += 1
        self.stmt(s)
        self.depth -= 1

    def stmt(self, s: Statement):
        if isinstance(s, Block):
            for item in s.stmts:
                self.stmt(item)
        elif isinstance(s, Skip):
            self.emit("skip")
        elif isinstance(s, Fail):
            self.emit("fail")
        elif isinstance(s, Local):
            self.emit("local " + " ".join(s.names) + " in")
            self.block(s.body)
            self.emit("end")
        elif isinstance(s, Unify):
            self.emit(f"{_expr_text(s.lhs, _PREC_CMP)}={_expr_text(s.rhs, _PREC_CMP)}")
        elif isinstance(s, BuiltinCall):
            self.emit(self._builtin_text(s))
        elif isinstance(s, Call):
            parts = [_expr_text(s.target)] + [_expr_text(a) for a in s.args]
            self.emit("{" + " ".join(parts) + "}")
        elif isinstance(s, ProcDef):
            self.emit("proc {" + " ".join([s.name] + list(s.params)) + "}")
            self.block(s.body)
            self.emit("end")
        elif isinstance(s, ThreadStmt):
            self.emit("thread")
            self.block(s.body)
            self.emit("end")
        elif isinstance(s, Choice):
            self.emit("choice")
            for i, alt in enumerate(s.alternatives):
                if i:
                    self.emit("[]")
                self.block(alt)
            self.emit("end")
        elif isinstance(s, IfStmt):
            for i, arm in enumerate(s.arms):
                kw = "if" if i == 0 else "elseif"
                self.emit(f"{kw} {self._guard_text(arm)} then")
                self.block(arm.body)
            if not isinstance(s.otherwise, Skip):
                self.emit("else")
                self.block(s.otherwise)
            self.emit("end")
        elif isinstance(s, CaseStmt):
            self.emit(f"case {_expr_text(s.subject)} of {_pattern_text(s.arms[0].pattern)} then")
            self.block(s.arms[0].body)
            for arm in s.arms[1:]:
                self.emit(f"[] {_pattern_text(arm.pattern)} then")
                self.block(arm.body)
            if not isinstance(s.otherwise, Fail):
                self.emit("else")
                self.block(s.otherwise)
            self.emit("end")
        else:
            raise TypeError(f"not a statement: {s!r}")

    def _builtin_text(self, s: BuiltinCall) -> str:
        if s.name in _ARITH and len(s.args) == 3:
            a, b, r = s.args
            return (f"{_expr_text(r, _PREC_CMP)}="
                    f"{_expr_text(a, _OP_PREC[s.name])}{s.name if s.name != 'div' else ' div '}"
                    f"{_expr_text(b, _OP_PREC[s.name] + 1)}")
        if s.name in _COMPARE and len(s.args) == 2:
            a, b = s.args
            return f"{_expr_text(a, _PREC_CMP + 1)}{s.name}{_expr_text(b, _PREC_CMP + 1)}"
        if s.name in _COMPARE and len(s.args) == 3:
            a, b, r = s.args
            return (f"{_expr_text(r, _PREC_CMP)}=("
                    f"{_expr_text(a, _PREC_CMP + 1)}{s.name}{_expr_text(b, _PREC_CMP + 1)})")
        raise TypeError(f"unprintable builtin: {s.name}/{len(s.args)}")

    def _guard_text(self, arm: IfArm) -> str:
        g = arm.guard
        if not arm.guard_vars:
            if isinstance(g, BuiltinCall) and g.name in _COMPARE and len(g.args) == 2:
                a, b = g.args
                return f"{_expr_text(a, _PREC_CMP + 1)}{g.name}{_expr_text(b, _PREC_CMP + 1)}"
            if isinstance(g, BuiltinCall) and g.name == "$test" and len(g.args) == 1:
                return _expr_text(g.args[0], _PREC_CMP + 1)
        # statement guard: <vars> in <stmts>, printed on one line
        sub = _Printer()
        sub.stmt(g)
        inline = " ".join(line.strip() for line in sub.lines)
        return " ".join(list(arm.guard_vars) + ["in", inline])


def pretty(s: Statement) -> str:
    p = _Printer()
    p.stmt(s)
    return "\n".join(p.lines) + "\n"
