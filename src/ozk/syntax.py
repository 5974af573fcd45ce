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
answer is false.  The integer operators (``OPERATORS``) are run by the
runtime itself; their operands are names or literals (a compound is
accepted, and is a type error when it runs).

A sequence of statements is one flat ``Block``, built by :func:`seq_all`
and never nested directly in another: running it pushes all of its
statements in one reduction.  A ``Local``, a procedure body and an
``if`` or ``case`` arm whose statement is a block push the block's
statements themselves, without the reduction.

A ``Local`` carries a compiled form beside its fields (``made`` and
``pushed``, see :func:`compile_local`): a name whose first use is an
argument of, or the variable of, a unification ``X = f(...)`` that the
body runs directly, or the result of an integer operator there, is not
made at entry.  That argument becomes a ``CFresh``, which stores the
value it meets in the frame (the WAM's ``unify_variable`` for a first
occurrence), so the common ``local T in X = _|T ... end`` makes no
variable when ``X`` is already a list cell, and the desugarer's
``local T in T = I+1 {Gen T N Xr} end`` stores the sum in the frame
with no variable at all.  The AST, and so the printer, never sees a
``CFresh``.

A ``CaseArm`` carries its pattern compiled once (``compiled``, see
:func:`compile_pattern`): a literal, a name, a void, or a label and
arity with the compiled forms of the arguments.

A ``Choice`` likewise carries ``compiled``, one :class:`Alternative` per
alternative (see :func:`compile_alternative`): its head, the leading run
of unifications of its body, which a search engine runs before it makes
a choicepoint, and the rest, pushed as a block's statements are.  The
body of a ``Local`` alternative is its compiled one, run in the local's
frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .terms import Atom, Int

# -- expressions -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CVar:
    name: str


@dataclass(frozen=True, slots=True)
class CLit:
    value: Union[Atom, Int]


@dataclass(frozen=True, slots=True)
class CAnon:
    pass


@dataclass(frozen=True, slots=True)
class CCompound:
    label: str
    args: tuple


@dataclass(frozen=True, slots=True)
class CFresh:
    """The first use of a name of the enclosing ``Local`` that the local
    does not make (compiled form only).  Where a term is built it makes
    the variable; where it meets a value already there it takes that
    value; as an operator's result it is the value computed.  Either way
    the frame's name is set to what it stands for."""
    name: str


Expr = Union[CVar, CLit, CAnon, CCompound]

# -- patterns ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PVar:
    name: str


@dataclass(frozen=True, slots=True)
class PAnon:
    pass


@dataclass(frozen=True, slots=True)
class PLit:
    value: Union[Atom, Int]


@dataclass(frozen=True, slots=True)
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


def compile_pattern(p: Pattern):
    """The compiled form of a ``case`` pattern, which
    ``runtime.match_case`` runs: a name is the name (a str), ``_`` is
    None, a literal is its value (an Atom or Int), and a compound is the
    tuple ``(label, arity, args)`` of its arguments' compiled forms.  The
    chain of last arguments (a list's spine) is built in a loop; only the
    other arguments recurse."""
    kind = type(p)
    if kind is PVar:
        return p.name
    if kind is PAnon:
        return None
    if kind is PLit:
        return p.value
    spine = []
    while type(p) is PCompound and p.args:
        spine.append(p)
        p = p.args[-1]
    form = (p.label, 0, ()) if type(p) is PCompound else compile_pattern(p)
    for q in reversed(spine):
        form = (q.label, len(q.args),
                tuple(compile_pattern(a) for a in q.args[:-1]) + (form,))
    return form


# -- statements ----------------------------------------------------------

# The integer operators, which the runtime runs itself (``runtime.exec_op``):
# ``op(a, b, r)`` computes into r, and a comparison's two-argument form is
# a test.  Every other BuiltinCall is looked up in the builtins registry.
OPERATORS = frozenset(("+", "-", "*", "div", "<", ">", "=<", ">="))


@dataclass(frozen=True, slots=True)
class Skip:
    pass


@dataclass(frozen=True, slots=True)
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
    # `made` and `pushed` are not fields: the compiled form of
    # `compile_local`, built once, as a Block's `pushed` is.
    __slots__ = ("names", "body", "made", "pushed")
    names: tuple
    body: "Statement"

    def __post_init__(self):
        made, pushed = compile_local(self.names, self.body)
        object.__setattr__(self, "made", made)
        object.__setattr__(self, "pushed", pushed)


@dataclass(frozen=True, slots=True)
class Unify:
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True, slots=True)
class IfArm:
    guard_vars: tuple
    guard: "Statement"
    body: "Statement"


@dataclass(frozen=True, slots=True)
class IfStmt:
    arms: tuple
    otherwise: "Statement"


@dataclass(frozen=True)
class CaseArm:
    # `compiled` is not a field: the pattern's compiled form, built once
    # by `compile_pattern`, as a Local's `made`/`pushed` are.
    __slots__ = ("pattern", "body", "compiled")
    pattern: Pattern
    body: "Statement"

    def __post_init__(self):
        object.__setattr__(self, "compiled", compile_pattern(self.pattern))


@dataclass(frozen=True, slots=True)
class CaseStmt:
    subject: Expr
    arms: tuple
    otherwise: "Statement"


@dataclass(frozen=True)
class Choice:
    # `compiled` is not a field: one `Alternative` per alternative, built
    # once by `compile_alternative`, as a Local's `made`/`pushed` are.
    __slots__ = ("alternatives", "compiled")
    alternatives: tuple

    def __post_init__(self):
        object.__setattr__(self, "compiled", tuple(
            compile_alternative(alt) for alt in self.alternatives))


@dataclass(frozen=True, slots=True)
class ProcDef:
    name: str
    params: tuple
    body: "Statement"


@dataclass(frozen=True, slots=True)
class Call:
    target: Expr
    args: tuple


@dataclass(frozen=True, slots=True)
class BuiltinCall:
    name: str
    args: tuple


@dataclass(frozen=True, slots=True)
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


# -- free names of a statement ---------------------------------------------


def _expr_free(expr, bound, out: set) -> None:
    todo = [expr]
    while todo:
        e = todo.pop()
        if type(e) is CVar:
            if e.name not in bound:
                out.add(e.name)
        elif type(e) is CCompound:
            todo.extend(e.args)


def free_names(stmt) -> set:
    """Names a statement reads or writes but does not itself declare.

    The walk keeps its own stack of (statement, names bound around it),
    so a long sequence or a deep nesting takes no Python stack."""
    out: set = set()
    todo = [(stmt, frozenset())]
    while todo:
        s, bound = todo.pop()
        t = type(s)
        if t is Block:
            todo.extend((item, bound) for item in s.stmts)
        elif t is Local:
            todo.append((s.body, bound | set(s.names)))
        elif t is Unify:
            _expr_free(s.lhs, bound, out)
            _expr_free(s.rhs, bound, out)
        elif t is IfStmt:
            todo.append((s.otherwise, bound))
            for arm in s.arms:
                inner = bound | set(arm.guard_vars)
                if arm.guard is not None:
                    todo.append((arm.guard, inner))
                todo.append((arm.body, inner))
        elif t is CaseStmt:
            _expr_free(s.subject, bound, out)
            for arm in s.arms:
                todo.append((arm.body, bound.union(pattern_names(arm.pattern))))
            todo.append((s.otherwise, bound))
        elif t is Choice:
            for alt in s.alternatives:
                todo.append((alt, bound))
        elif t is ProcDef:
            if s.name not in bound:
                out.add(s.name)
            todo.append((s.body, bound | set(s.params)))
        elif t is Call:
            _expr_free(s.target, bound, out)
            for arg in s.args:
                _expr_free(arg, bound, out)
        elif t is BuiltinCall:
            for arg in s.args:
                _expr_free(arg, bound, out)
        elif t is ThreadStmt:
            todo.append((s.body, bound))
        # Skip and Fail mention nothing.
    return out


# -- compiled locals ---------------------------------------------------------


def _unify_counts(s: Unify) -> dict:
    """How often each name occurs in a unification (walked with a stack)."""
    counts: dict = {}
    todo = [s.lhs, s.rhs]
    while todo:
        e = todo.pop()
        if type(e) is CVar:
            counts[e.name] = counts.get(e.name, 0) + 1
        elif type(e) is CCompound:
            todo.extend(e.args)
    return counts


def _compile_first_uses(s: Unify, first: set) -> tuple:
    """``s`` with each name of ``first`` that is its variable or an
    argument of its compound turned into a CFresh, and those names."""
    var, comp = s.lhs, s.rhs
    var_left = type(var) is CVar
    if not var_left:
        var, comp = comp, var
    if type(var) is not CVar or type(comp) is not CCompound:
        return s, ()
    done = []
    args = []
    for a in comp.args:
        if type(a) is CVar and a.name in first:
            done.append(a.name)
            a = CFresh(a.name)
        args.append(a)
    if done:
        comp = CCompound(comp.label, tuple(args))
    if var.name in first:
        # nothing is unified, so the orientation is moot: one form
        done.append(var.name)
        return Unify(CFresh(var.name), comp), done
    if not done:
        return s, ()
    return (Unify(var, comp) if var_left else Unify(comp, var)), done


def _operator_names(exprs) -> set:
    """The names that operands of an operator statement read: a name or a
    literal, and rarely a compound (a type error when it runs)."""
    out: set = set()
    for e in exprs:
        if type(e) is CVar:
            out.add(e.name)
        elif type(e) is CCompound:
            _expr_free(e, (), out)
    return out


def compile_local(names: tuple, body: Statement) -> tuple:
    """The compiled form of ``local <names> in <body> end``: ``(made,
    pushed)``, the names to make at entry and the body's statements last
    first, as a task pushes them.

    A name is left out of ``made`` when no earlier statement of the body
    mentions it and its first use is, in a statement of the body itself
    (not nested in another statement), either an occurrence in ``X =
    f(...)`` or ``f(...) = X``, once, as ``X`` or as an argument of
    ``f``, or the result of an integer operator ``R = A op B`` of which it
    is not also an operand.  That occurrence is compiled to a ``CFresh``.
    Nothing can read the name before it runs, and it runs in this very
    frame, so storing the value there is all the variable would have been
    for.  A shallow scan finds the last such statement; one pass over the
    statements up to it, in order, decides, and stops once every name has
    been met.  An operator's operands are names or literals and are read
    directly, without ``free_names``."""
    block = type(body) is Block
    stmts = body.stmts if block else (body,)
    end = 0
    for i, s in enumerate(stmts):
        kind = type(s)
        if kind is Unify:
            if CCompound in (type(s.lhs), type(s.rhs)):
                end = i + 1
        elif (kind is BuiltinCall and len(s.args) == 3
              and s.name in OPERATORS and type(s.args[2]) is CVar
              and s.args[2].name in names):
            end = i + 1
    if not end:
        return names, (body.pushed if block else stmts)
    stmts = list(stmts)
    unseen = set(names)
    fresh: set = set()
    for i in range(end):
        s = stmts[i]
        if not unseen:
            break
        kind = type(s)
        if kind is Unify:
            counts = _unify_counts(s)
            first = {n for n in unseen.intersection(counts) if counts[n] == 1}
            unseen.difference_update(counts)
            if first:
                stmts[i], done = _compile_first_uses(s, first)
                fresh.update(done)
        elif kind is BuiltinCall and s.name in OPERATORS:
            args = s.args
            unseen.difference_update(_operator_names(args[:2]))
            if len(args) == 3:
                r = args[2]
                if type(r) is CVar and r.name in unseen:
                    stmts[i] = BuiltinCall(s.name, args[:2] + (CFresh(r.name),))
                    fresh.add(r.name)
                    unseen.discard(r.name)
                else:
                    unseen.difference_update(_operator_names(args[2:]))
        else:
            unseen -= free_names(s)
    if not fresh:
        return names, (body.pushed if block else (body,))
    return tuple(n for n in names if n not in fresh), tuple(reversed(stmts))


# -- compiled choice alternatives ---------------------------------------------


class Alternative:
    """The compiled form of a ``choice`` alternative.

    ``head`` is the leading run of unifications of its body, in order;
    ``pushed`` is the rest, last first, as a task pushes it.  ``made`` is
    None when the body runs in the choice's own environment; for a
    ``Local`` it is the local's ``made``, the names of the frame that
    the head and the rest run in."""
    __slots__ = ("made", "head", "pushed")

    def __init__(self, made, head, pushed):
        self.made = made
        self.head = head
        self.pushed = pushed


def compile_alternative(alt: Statement) -> Alternative:
    """Split ``alt`` into its head and the rest: the statements of a
    block, the compiled body of a local, or the statement alone."""
    if type(alt) is Local:
        made, stmts = alt.made, alt.pushed[::-1]
    else:
        made, stmts = None, alt.stmts if type(alt) is Block else (alt,)
    n = 0
    while n < len(stmts) and type(stmts[n]) is Unify:
        n += 1
    return Alternative(made, stmts[:n], stmts[n:][::-1])


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
