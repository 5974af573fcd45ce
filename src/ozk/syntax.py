"""Core statement AST and its pretty printer.

Everything the machine executes is compiled from these nodes (see
compiler.py); surface sugar (functions, nested calls, operators in
expressions, anonymous variables) is lowered away by the parser in
parser.py as it reads.  The AST itself is pure data: the parser builds
it, and the printer, the compile pass and ``dist.split_program`` read
it.

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

A ``case`` pattern is an expression too, as a record with variables in
it is in Oz's kernel language.  A name's role comes from where it
stands: in a pattern it is a binding occurrence, everywhere else a use.
A void in a pattern matches anything and binds nothing.
:func:`expr_names` lists the names of either.

A sequence of statements is one flat ``Block``, built by :func:`seq_all`
and never nested directly in another.
"""

from __future__ import annotations

from typing import Optional, Union

from .terms import Atom, Int


class _Node:
    """A node of the tree, whose fields are its class's ``__slots__``.
    Two nodes are equal when they are of one class and their fields are
    equal, and a node prints as its class called with its fields."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash((type(self), self._fields()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"


# -- expressions -------------------------------------------------------


class CVar(_Node):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class CLit(_Node):
    __slots__ = ("value",)

    def __init__(self, value: Union[Atom, Int]):
        self.value = value


class CAnon(_Node):
    __slots__ = ()


class CCompound(_Node):
    __slots__ = ("label", "args")

    def __init__(self, label: str, args: tuple):
        self.label = label
        self.args = args


Expr = Union[CVar, CLit, CAnon, CCompound]


def expr_names(*exprs) -> list:
    """The names the expressions mention, left to right, each as often as
    it occurs (walked with a stack)."""
    out = []
    todo = list(exprs)
    todo.reverse()
    while todo:
        e = todo.pop()
        if type(e) is CVar:
            out.append(e.name)
        elif type(e) is CCompound:
            todo.extend(reversed(e.args))
    return out


# -- statements ----------------------------------------------------------

# The integer operators, which the runtime runs itself (``runtime.exec_op``):
# ``op(a, b, r)`` computes into r, and a comparison's two-argument form is
# a test.  The only other BuiltinCalls are ``==`` (a test, or with a result)
# and ``$test``, which the runtime also runs itself.
OPERATORS = frozenset(("+", "-", "*", "div", "<", ">", "=<", ">="))


class Skip(_Node):
    __slots__ = ()


class Fail(_Node):
    __slots__ = ()


class Block(_Node):
    __slots__ = ("stmts",)

    def __init__(self, stmts: tuple):
        self.stmts = stmts


class Local(_Node):
    __slots__ = ("names", "body")

    def __init__(self, names: tuple, body: Statement):
        self.names = names
        self.body = body


class Unify(_Node):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Expr, rhs: Expr):
        self.lhs = lhs
        self.rhs = rhs


class IfArm(_Node):
    __slots__ = ("guard_vars", "guard", "body")

    def __init__(self, guard_vars: tuple, guard: Statement, body: Statement):
        self.guard_vars = guard_vars
        self.guard = guard
        self.body = body


class IfStmt(_Node):
    __slots__ = ("arms", "otherwise")

    def __init__(self, arms: tuple, otherwise: Statement):
        self.arms = arms
        self.otherwise = otherwise


class CaseArm(_Node):
    __slots__ = ("pattern", "body")

    def __init__(self, pattern: Expr, body: Statement):
        self.pattern = pattern
        self.body = body


class CaseStmt(_Node):
    __slots__ = ("subject", "arms", "otherwise")

    def __init__(self, subject: Expr, arms: tuple, otherwise: Statement):
        self.subject = subject
        self.arms = arms
        self.otherwise = otherwise


class Choice(_Node):
    __slots__ = ("alternatives",)

    def __init__(self, alternatives: tuple):
        self.alternatives = alternatives


class ProcDef(_Node):
    __slots__ = ("name", "params", "body")

    def __init__(self, name: str, params: tuple, body: Statement):
        self.name = name
        self.params = params
        self.body = body


class Call(_Node):
    __slots__ = ("target", "args")

    def __init__(self, target: Expr, args: tuple):
        self.target = target
        self.args = args


class BuiltinCall(_Node):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple):
        self.name = name
        self.args = args


class ThreadStmt(_Node):
    __slots__ = ("body",)

    def __init__(self, body: Statement):
        self.body = body


class LazyStmt(_Node):
    """``lazy R then S end``: a by-need trigger on the variable ``R``,
    which runs ``S`` once ``R`` is needed (the body of a ``fun lazy``,
    with ``R`` its result).  The parser reads it as a statement only so
    that a printed program reads back."""
    __slots__ = ("result", "body")

    def __init__(self, result: str, body: Statement):
        self.result = result
        self.body = body


Statement = Union[Skip, Fail, Block, Local, Unify, IfStmt, CaseStmt, Choice,
                  ProcDef, Call, BuiltinCall, ThreadStmt, LazyStmt]


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
_PREC_CMP = 2
_PREC_CONS = 3
_PREC_ADD = 4
_PREC_MUL = 5

_OP_PREC = {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "div": _PREC_MUL}


def _expr_text(e: Expr, prec: int = 0, lifted=None) -> str:
    """The text of ``e``, in parentheses where ``prec`` binds tighter.  A
    temporary of ``lifted`` is printed as the expression it stands for
    (see :func:`_lifted_text`)."""
    if isinstance(e, CVar):
        if lifted and e.name in lifted:
            return _lifted_text(lifted, e.name, prec)
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
                return "[" + " ".join(_expr_text(i, _PREC_CONS + 1, lifted)
                                      for i in items) + "]"
            parts = [_expr_text(i, _PREC_CONS + 1, lifted) for i in items]
            parts.append(_expr_text(tail, _PREC_CONS, lifted))
            text = "|".join(parts)
            return f"({text})" if prec > _PREC_CONS else text
        args = " ".join(_expr_text(a, 0, lifted) for a in e.args)
        return f"{e.label}({args})"
    raise TypeError(f"not an expression: {e!r}")


def _operation_text(name: str, a, b, prec: int, lifted=None) -> str:
    """``a name b``, an integer operator or a comparison, in parentheses
    where ``prec`` binds tighter."""
    if name in _ARITH:
        own = _OP_PREC[name]
        text = (f"{_expr_text(a, own, lifted)}"
                f"{name if name != 'div' else ' div '}"
                f"{_expr_text(b, own + 1, lifted)}")
    else:
        own = _PREC_CMP
        text = (f"{_expr_text(a, own + 1, lifted)}{name}"
                f"{_expr_text(b, own + 1, lifted)}")
    return f"({text})" if prec > own else text


def _lifted_text(lifted: dict, name: str, prec: int) -> str:
    """The expression that the parser lifted out of an ``if`` condition
    into the temporary ``name``: the call whose result it is (``$`` where
    the result is not the last argument), the operation that computes it,
    or the procedure value it names; a temporary that nothing computes
    was a ``_``."""
    s = lifted[name]
    if s is None:
        return "_"
    if isinstance(s, Call):
        parts = [_expr_text(s.target, 0, lifted)]
        for i, a in enumerate(s.args):
            if isinstance(a, CVar) and a.name == name:
                if i < len(s.args) - 1:
                    parts.append("$")
            else:
                parts.append(_expr_text(a, 0, lifted))
        return "{" + " ".join(parts) + "}"
    if isinstance(s, BuiltinCall):
        a, b, _ = s.args
        return _operation_text(s.name, a, b, prec, lifted)
    sub = _Printer()
    sub.stmt(ProcDef("$", s.params, s.body))
    return " ".join(line.strip() for line in sub.lines)


def _lifted_condition(guard) -> Optional[str]:
    """The condition of ``if E then`` from its guard, or None when the
    guard is not of that form.  The parser lifts each call, operation and
    procedure value out of ``E`` into a temporary, so the guard is a
    ``local`` of the temporaries, the statements that compute them, and
    ``$test`` of ``E``'s value: each temporary is printed as the expression
    it stands for."""
    if not isinstance(guard, Local):
        return None
    items = seq_items(guard.body)
    test = items.pop()
    if not (isinstance(test, BuiltinCall) and test.name == "$test"
            and len(test.args) == 1):
        return None
    temps = set(guard.names)
    uses: dict = {}
    for s in items + [test]:
        if isinstance(s, ProcDef):
            continue
        exprs = list(s.args)
        if isinstance(s, Call):
            exprs.append(s.target)
        for n in expr_names(*exprs):
            uses[n] = uses.get(n, 0) + 1
    lifted: dict = dict.fromkeys(temps)
    for s in items:
        if isinstance(s, Call):
            made = [a.name for a in s.args if isinstance(a, CVar)
                    and a.name in temps and uses[a.name] > 1
                    and lifted[a.name] is None]
        elif isinstance(s, BuiltinCall) and len(s.args) == 3:
            made = [s.args[2].name] if isinstance(s.args[2], CVar) else []
        elif isinstance(s, ProcDef):
            made = [s.name]
        else:
            return None
        if len(made) != 1 or made[0] not in temps:
            return None
        lifted[made[0]] = s
    return _expr_text(test.args[0], _PREC_CMP + 1, lifted)


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
        elif isinstance(s, LazyStmt):
            self.emit(f"lazy {s.result} then")
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
            self.emit(f"case {_expr_text(s.subject)} of {_expr_text(s.arms[0].pattern)} then")
            self.block(s.arms[0].body)
            for arm in s.arms[1:]:
                self.emit(f"[] {_expr_text(arm.pattern)} then")
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
            return f"{_expr_text(r, _PREC_CMP)}={_operation_text(s.name, a, b, 0)}"
        if s.name in _COMPARE and len(s.args) == 2:
            a, b = s.args
            return _operation_text(s.name, a, b, 0)
        if s.name in _COMPARE and len(s.args) == 3:
            a, b, r = s.args
            return (f"{_expr_text(r, _PREC_CMP)}="
                    f"{_operation_text(s.name, a, b, _PREC_CMP + 1)}")
        raise TypeError(f"unprintable builtin: {s.name}/{len(s.args)}")

    def _guard_text(self, arm: IfArm) -> str:
        g = arm.guard
        if not arm.guard_vars:
            if isinstance(g, BuiltinCall) and g.name in _COMPARE and len(g.args) == 2:
                return self._builtin_text(g)
            if isinstance(g, BuiltinCall) and g.name == "$test" and len(g.args) == 1:
                return _expr_text(g.args[0], _PREC_CMP + 1)
            condition = _lifted_condition(g)
            if condition is not None:
                return condition
        # statement guard: <vars> in <stmts>, printed on one line
        sub = _Printer()
        sub.stmt(g)
        inline = " ".join(line.strip() for line in sub.lines)
        return " ".join(list(arm.guard_vars) + ["in", inline])


def pretty(s: Statement) -> str:
    p = _Printer()
    p.stmt(s)
    return "\n".join(p.lines) + "\n"
