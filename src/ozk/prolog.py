"""Prolog front end: read a pure subset and translate it to kernel procedures.

The subset: facts and rules built from user predicates, `=`, `is`,
arithmetic comparisons, `==`, true/fail, at most one `!` per clause, and
bagof/3 / setof/3 with `^` qualification.  Everything else (assert,
negation as failure, disjunction, if-then-else, quoted atoms, ...) is
rejected by name with UnsupportedConstruct.  A term the kernel cannot
write is a syntax error on its clause's line: an integer outside the
kernel's range, and as data a functor or atom that is not a kernel label
(an operator such as ``^`` or ``,``, or a kernel keyword).

Each predicate is translated on its own, from its clause list alone:

* clauses guarded by cuts become an if/elseif chain; when a guard calls
  user predicates, the guards become the alternatives of one choice that
  one SolveOne runs encapsulated, and one flat case on its answer commits
  to the first clause whose guard has a solution, so a call runs one
  engine however many clauses the predicate has;
* cut-free clauses discriminated by pairwise-distinct constants in one
  argument position become a case statement;
* a single cut-free clause becomes a plain procedure body;
* everything else becomes a choice statement with one alternative per
  clause and explicit head unifications, preserving Prolog's
  clause-order backtracking under the search engine.

bagof/setof calls translate to SolveAll over an anonymous one-argument
goal procedure; setof sorts the result and drops duplicates.  Free
variables of the collected goal are treated as inputs; with
``generators=True`` the goal is additionally run once before SolveAll,
template and qualified variables anonymized, so an enclosing search can
enumerate bindings for the free variables.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .errors import ParseError, QuietGuardViolation, UnsupportedConstruct
from .parser import DIGITS, KEYWORDS, MAX_NESTING
from .syntax import (BuiltinCall, Call, CaseArm, CaseStmt, CAnon, CCompound,
                     Choice, CLit, CVar, Fail, IfArm, IfStmt, Local, ProcDef,
                     Statement, Unify, pretty, seq_all)
from .terms import INT_MAX, INT_MIN, Atom, Int

# ---------------------------------------------------------------------------
# Source terms
# ---------------------------------------------------------------------------


class PTerm:
    __slots__ = ()


class PV(PTerm):
    """A clause variable; anonymous `_` occurrences get unique objects."""
    __slots__ = ("name", "anon")

    def __init__(self, name: str, anon: bool = False):
        self.name = name
        self.anon = anon

    def __repr__(self):
        return self.name


class PA(PTerm):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name


class PI(PTerm):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __repr__(self):
        return str(self.value)


class PS(PTerm):
    __slots__ = ("functor", "args")

    def __init__(self, functor: str, args: tuple):
        self.functor = functor
        self.args = args

    def __repr__(self):
        # the last argument in a loop: a long list prints without recursion
        opened, t = [], self
        while isinstance(t, PS):
            opened.append(f"{t.functor}(" + "".join(f"{a!r}, " for a in t.args[:-1]))
            t = t.args[-1]
        return "".join(opened) + repr(t) + ")" * len(opened)


NIL = PA("[]")
CUT = PA("!")


class Clause:
    __slots__ = ("head", "body", "cut_index", "line")

    def __init__(self, head: PTerm, body: list, cut_index: Optional[int],
                 line: int):
        self.head = head             # PA (arity 0) or PS
        self.body = body             # goal terms, the `!` removed
        self.cut_index = cut_index   # index in body where the cut sat
        self.line = line

    @property
    def functor(self) -> str:
        return self.head.functor if isinstance(self.head, PS) else self.head.name

    @property
    def arity(self) -> int:
        return len(self.head.args) if isinstance(self.head, PS) else 0

    @property
    def head_args(self) -> tuple:
        return self.head.args if isinstance(self.head, PS) else ()


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------

# The reader refuses a clause nested deeper than this, and leaves the rest
# of the parser's levels to what the translation wraps around the clause's
# terms, so that all it reads translates to text that reads back.  The
# first goal of a cut guard that calls a user predicate is nested deepest,
# five levels more than in the reader: in the `local` that declares the
# guard procedure, the procedure, its `choice`, the clause's alternative
# and that alternative's `local`.  A bagof/setof goal procedure and its
# `local` take one level more than the reader's one for the call's
# arguments, so the reader charges each bagof/setof term one level.
MAX_READ_NESTING = MAX_NESTING - 5

_PUNCT2 = (":-", "=<", ">=", "==", "//", "->", "\\+")

_REJECTED_TOKENS = {
    "\\+": "negation as failure (\\+)",
    ";": "disjunction (;)",
    "->": "if-then-else (->)",
}


def _tokenize(text: str):
    toks = []
    line = 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isspace():
            i += 1
            continue
        if c == "'":
            raise UnsupportedConstruct(
                f"line {line}: quoted atoms are outside the subset")
        if c in DIGITS:
            j = i
            while j < n and text[j] in DIGITS:
                j += 1
            toks.append(("int", int(text[i:j]), line))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "var" if (c == "_" or c.isupper()) else "name"
            toks.append((kind, word, line))
            i = j
            continue
        for sym in _PUNCT2:
            if text.startswith(sym, i):
                toks.append(("punct", sym, line))
                i += len(sym)
                break
        else:
            toks.append(("punct", c, line))
            i += 1
    toks.append(("end", "", line))
    return toks


class _Reader:
    """Recursive-descent reader with the standard operator precedences:
    :- (1200) < , (1000) < =,is,<,>,=<,>=,== (700) < +,- (500)
    < *,div,// (400) < ^ (200, right-associative).

    Each nested ``term`` and each link of a left-leaning operator chain is
    a level, and a bagof/setof term one more; more than
    ``MAX_READ_NESTING`` levels is a syntax error.
    List items and right-associative chains (``a, b, c``) are read in a
    loop, so only a list's spine or a conjunction grows without limit."""

    BINOPS = {
        ":-": 1200, ",": 1000, "=": 700, "is": 700, "<": 700, ">": 700,
        "=<": 700, ">=": 700, "==": 700, "+": 500, "-": 500, "*": 400,
        "div": 400, "//": 400, "^": 200,
    }
    RIGHT = {":-", ",", "^"}

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.vars: dict[str, PV] = {}
        self._anon = itertools.count(1)

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, val: str):
        kind, v, line = self.take()
        if v != val:
            raise ParseError(f"expected {val!r}, found {v!r}", line, 0)

    def at_end(self) -> bool:
        return self.peek()[0] == "end"

    def enter(self) -> None:
        self.depth += 1
        if self.depth > MAX_READ_NESTING:
            raise ParseError(f"nesting deeper than {MAX_READ_NESTING} levels",
                             self.peek()[2], 0)

    def clauses(self) -> list[Clause]:
        out = []
        while not self.at_end():
            self.vars = {}
            kind, v, line = self.peek()
            if (kind, v) == ("punct", ":-"):
                raise UnsupportedConstruct(
                    f"line {line}: directives (:- ...) are outside the subset")
            term = self.term(1200)
            self.expect(".")
            if isinstance(term, PS) and term.functor == ":-" and len(term.args) == 2:
                head, body = term.args
                out.append(_make_clause(head, conj_list(body), line))
            else:
                out.append(_make_clause(term, [], line))
        return out

    def query(self) -> tuple[list, list[PV]]:
        """Read one goal conjunction; returns (goals, named variables in
        first-appearance order)."""
        self.vars = {}
        term = self.term(1200)
        if self.peek()[1] == ".":
            self.take()
        if not self.at_end():
            kind, v, line = self.peek()
            raise ParseError(f"unexpected {v!r} after the query", line, 0)
        goals = conj_list(term)
        for g in goals:
            _check_goal(g, 0)
        return goals, list(self.vars.values())

    def term(self, maxp: int):
        outer = self.depth
        self.enter()
        left = self.primary()
        while True:
            kind, v, line = self.peek()
            if kind == "punct" and v in _REJECTED_TOKENS:
                raise UnsupportedConstruct(
                    f"line {line}: {_REJECTED_TOKENS[v]} is outside the subset")
            if (kind not in ("punct", "name") or v not in self.BINOPS
                    or self.BINOPS[v] > maxp):
                self.depth = outer
                return left
            p = self.BINOPS[v]
            self.take()
            if v in self.RIGHT:
                # one precedence level holds one right-associative
                # operator, so its chain ends at any other operator
                operands = [left, self.term(p - 1)]
                while self.peek()[1] == v:
                    self.take()
                    operands.append(self.term(p - 1))
                left = operands.pop()
                while operands:
                    left = PS(v, (operands.pop(), left))
            else:
                self.enter()
                left = PS(v, (left, self.term(p - 1)))

    def primary(self):
        kind, v, line = self.take()
        if kind == "punct" and v == "-" and self.peek()[0] == "int":
            kind, v, line = self.take()
            v = -v
        if kind == "int":
            if not INT_MIN <= v <= INT_MAX:
                raise ParseError("integer literal out of range", line, 0)
            return PI(v)
        if kind == "var":
            if v == "_":
                return PV(f"_{next(self._anon)}", anon=True)
            if v not in self.vars:
                self.vars[v] = PV(v)
            return self.vars[v]
        if kind == "punct" and v == "(":
            t = self.term(1200)
            self.expect(")")
            return t
        if kind == "punct" and v == "[":
            return self.list_term()
        if kind == "punct" and v == "!":
            return CUT
        if kind == "punct" and v in _REJECTED_TOKENS:
            raise UnsupportedConstruct(
                f"line {line}: {_REJECTED_TOKENS[v]} is outside the subset")
        if kind == "name":
            if self.peek()[:2] == ("punct", "("):
                self.take()
                charge = 1 if v in ("bagof", "setof") else 0
                self.depth += charge
                args = [self.term(999)]
                while self.peek()[:2] == ("punct", ","):
                    self.take()
                    args.append(self.term(999))
                self.depth -= charge
                self.expect(")")
                return PS(v, tuple(args))
            return PA(v)
        raise ParseError(f"unexpected {v!r}", line, 0)

    def list_term(self):
        if self.peek()[:2] == ("punct", "]"):
            self.take()
            return NIL
        items = [self.term(999)]
        while self.peek()[:2] == ("punct", ","):
            self.take()
            items.append(self.term(999))
        tail: PTerm = NIL
        if self.peek()[:2] == ("punct", "|"):
            self.take()
            tail = self.term(999)
        self.expect("]")
        out = tail
        for x in reversed(items):
            out = PS(".", (x, out))
        return out


def conj_list(t: PTerm) -> list:
    goals = []
    while isinstance(t, PS) and t.functor == "," and len(t.args) == 2:
        goals += conj_list(t.args[0])
        t = t.args[1]
    return goals + [t]


_COMPARISONS = ("<", ">", "=<", ">=")
_REJECTED_GOALS = {
    "assert": "assert", "asserta": "asserta", "assertz": "assertz",
    "retract": "retract", "call": "call/N", "findall": "findall/3",
    "not": "not/1",
}


def _check_goal(g: PTerm, line: int):
    if g is CUT:
        return
    name = g.functor if isinstance(g, PS) else g.name if isinstance(g, PA) else None
    if name in _REJECTED_GOALS:
        raise UnsupportedConstruct(
            f"line {line}: {_REJECTED_GOALS[name]} is outside the subset")
    if isinstance(g, PS) and name in ("bagof", "setof") and len(g.args) != 3:
        raise UnsupportedConstruct(f"line {line}: {name} takes 3 arguments")
    if isinstance(g, (PS, PA)):
        return
    raise UnsupportedConstruct(f"line {line}: {g!r} cannot be called")


def _make_clause(head: PTerm, goals: list, line: int) -> Clause:
    if not isinstance(head, (PA, PS)) or head is CUT:
        raise UnsupportedConstruct(f"line {line}: bad clause head {head!r}")
    if isinstance(head, PS) and head.functor in (".", ",", "=", "is", "==", "^"):
        raise UnsupportedConstruct(f"line {line}: bad clause head {head!r}")
    cut_index = None
    body = []
    for g in goals:
        if g is CUT:
            if cut_index is not None:
                raise UnsupportedConstruct(
                    f"line {line}: a second cut in one clause (red cut)")
            cut_index = len(body)
            continue
        _check_goal(g, line)
        body.append(g)
    return Clause(head, body, cut_index, line)


def parse_prolog(text: str) -> list[Clause]:
    return _Reader(text).clauses()


def parse_query(text: str) -> tuple[list, list[PV]]:
    return _Reader(text).query()


# ---------------------------------------------------------------------------
# Term helpers
# ---------------------------------------------------------------------------


def term_vars(t: PTerm, out: Optional[list] = None) -> list:
    if out is None:
        out = []
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, PV):
            if t not in out:
                out.append(t)
        elif isinstance(t, PS):
            todo.extend(reversed(t.args))
    return out


def goals_vars(goals: list) -> list:
    out: list = []
    for g in goals:
        term_vars(g, out)
    return out


def _is_test(g: PTerm) -> bool:
    return (isinstance(g, PS) and len(g.args) == 2
            and g.functor in _COMPARISONS + ("==",))


def _is_binder(g: PTerm) -> bool:
    return (isinstance(g, PS) and len(g.args) == 2
            and g.functor in ("is", "="))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

DETERMINISTIC = "deterministic"
GUARDED_CUT = "guarded_cut"
NONDETERMINISTIC = "nondeterministic"


class PredicateClass:
    __slots__ = ("kind", "deterministic_guard", "case_position")

    def __init__(self, kind: str, deterministic_guard: bool = True,
                 case_position: Optional[int] = None):
        self.kind = kind
        self.deterministic_guard = deterministic_guard
        # for DETERMINISTIC with more than one clause
        self.case_position = case_position


def _guard_goals(clause: Clause) -> list:
    """The committing prefix: pre-cut goals, or for a cut-free final
    clause its leading run of tests."""
    if clause.cut_index is not None:
        return clause.body[:clause.cut_index]
    guard = []
    for g in clause.body:
        if _is_test(g):
            guard.append(g)
        else:
            break
    return guard


def _rest_goals(clause: Clause) -> list:
    return clause.body[len(_guard_goals(clause)):]


def _guard_is_deterministic(goals: list) -> bool:
    """True when the prefix only uses tests and local bindings, so it can
    sit directly in an if guard without encapsulation."""
    return all(_is_test(g) or _is_binder(g) for g in goals)


def _const_key(t: PTerm):
    if isinstance(t, PA):
        return ("atom", "nil" if t.name == "[]" else t.name)
    if isinstance(t, PI):
        return ("int", t.value)
    return None


def _case_test(clause: Clause, var: PV):
    """The first leading test of the clause comparing `var` with a
    constant: returns (constant key, the test goal) or None."""
    for g in clause.body:
        if not _is_test(g):
            break
        if g.functor != "==":
            continue
        a, b = g.args
        if a is var and _const_key(b) is not None:
            return _const_key(b), g
        if b is var and _const_key(a) is not None:
            return _const_key(a), g
    return None


def _check_quiet(clause: Clause):
    """Reject pre-cut bindings that visibly touch head variables; guards
    calling user predicates are left to the dynamic check."""
    if clause.cut_index is None:
        return
    head_vars = set(term_vars(clause.head))
    fresh: set = set()
    for g in clause.body[:clause.cut_index]:
        if _is_test(g):
            continue
        if _is_binder(g):
            lhs, rhs = g.args
            if isinstance(lhs, PV) and lhs not in head_vars and lhs not in fresh:
                fresh.add(lhs)
                continue
            if g.functor == "is":
                continue  # non-variable left side: a mere test
            suspects = [v for v in term_vars(lhs) + term_vars(rhs)
                        if v in head_vars or v in fresh]
            if suspects:
                raise QuietGuardViolation(
                    f"line {clause.line}: the guard of "
                    f"{clause.functor}/{clause.arity} binds "
                    f"{suspects[0].name} before the cut")


def classify(clauses: list[Clause]) -> PredicateClass:
    """Pick a translation scheme from the clause list alone."""
    first = clauses[0]
    for c in clauses:
        if (c.functor, c.arity) != (first.functor, first.arity):
            raise ValueError("classify needs the clauses of one predicate")
    if any(c.cut_index is not None for c in clauses):
        for c in clauses[:-1]:
            if c.cut_index is None:
                raise UnsupportedConstruct(
                    f"line {c.line}: {c.functor}/{c.arity} has a cut-free "
                    f"clause before a clause with a cut")
        for c in clauses:
            _check_quiet(c)
        det = all(_guard_is_deterministic(_guard_goals(c)) for c in clauses)
        return PredicateClass(GUARDED_CUT, deterministic_guard=det)
    if len(clauses) == 1:
        return PredicateClass(DETERMINISTIC)
    for pos in range(first.arity):
        args = [c.head_args[pos] for c in clauses]
        if not all(isinstance(a, PV) and not a.anon for a in args):
            continue
        found = [_case_test(c, a) for c, a in zip(clauses, args)]
        if None in found:
            continue
        keys = [key for key, _test in found]
        if len(set(keys)) == len(keys):
            return PredicateClass(DETERMINISTIC, case_position=pos)
    return PredicateClass(NONDETERMINISTIC)


# ---------------------------------------------------------------------------
# Kernel name management
# ---------------------------------------------------------------------------

# Names the emitted code itself calls; user predicates are steered away
# from them so bagof/setof and query plumbing keep working.
_RESERVED = frozenset(("SolveOne", "SolveAll", "Solve", "Sort", "Dedup",
                       "Browse", "QGoal", "QS", "QR"))


def camel(name: str) -> str:
    return "".join(p[:1].upper() + p[1:] for p in name.split("_") if p)


class _Names:
    """Stable mapping from predicate indicators to kernel procedure names."""

    def __init__(self, indicators: list[tuple[str, int]]):
        self.map: dict[tuple[str, int], str] = {}
        arities: dict[str, set] = {}
        for f, a in indicators:
            arities.setdefault(f, set()).add(a)
        taken: set[str] = set()
        for functor, arity in indicators:
            base = camel(functor)
            if not base or not base[0].isupper():
                raise UnsupportedConstruct(
                    f"predicate name {functor}/{arity} cannot be renamed "
                    f"to a kernel variable")
            if len(arities[functor]) > 1 or base in _RESERVED or base in taken:
                base = f"{base}{arity}"
            if base in taken or base in _RESERVED:
                raise UnsupportedConstruct(
                    f"predicate name {functor}/{arity} collides after renaming")
            taken.add(base)
            self.map[(functor, arity)] = base
        self.taken = taken

    def __getitem__(self, key: tuple[str, int]) -> str:
        return self.map[key]

    def __contains__(self, key: tuple[str, int]) -> bool:
        return key in self.map


class _Ctx:
    """Per-scope translation state: the variable renaming, declared
    locals, and a fresh-name supply."""

    def __init__(self, names: _Names, reserved: set, generators: bool,
                 line: int):
        self.names = names
        self.generators = generators
        self.line = line                   # the clause's, for refusals
        self.used: set[str] = set(reserved) | names.taken | set(_RESERVED)
        self.m: dict[int, str] = {}        # id(PV) -> kernel name
        self.locals: list[str] = []
        self._counter = itertools.count(1)

    def unused(self, base: str, bare: bool = False) -> str:
        """A name not used yet, now taken: ``base`` with the next free
        number, or ``base`` itself when ``bare`` and it is free."""
        tries = itertools.chain([base] if bare else [],
                                (f"{base}{n}" for n in self._counter))
        name = next(n for n in tries if n not in self.used)
        self.used.add(name)
        return name

    def fresh(self, base: str = "T", bare: bool = False) -> str:
        """An :meth:`unused` name, declared here."""
        name = self.unused(base, bare)
        self.locals.append(name)
        return name

    def alias(self, v: PV, name: str):
        """Map a variable to an existing name without declaring it."""
        self.m[id(v)] = name
        self.used.add(name)

    def var_name(self, v: PV) -> str:
        got = self.m.get(id(v))
        if got is None:
            if v.anon or v.name.startswith("_") or v.name in self.used:
                got = self.fresh("V")
            else:
                got = v.name
                self.used.add(got)
                self.locals.append(got)
            self.m[id(v)] = got
        return got

    def mark(self) -> int:
        return len(self.locals)

    def since(self, mark: int) -> list[str]:
        return self.locals[mark:]

    def child(self) -> "_Ctx":
        """A nested scope: existing mappings stay visible, new variables
        are declared in the child."""
        c = _Ctx.__new__(_Ctx)
        c.names = self.names
        c.generators = self.generators
        c.line = self.line
        c.used = self.used          # shared on purpose: one namespace
        c.m = dict(self.m)
        c.locals = []
        c._counter = self._counter
        return c


# ---------------------------------------------------------------------------
# Goal translation
# ---------------------------------------------------------------------------


def term_expr(t: PTerm, ctx: _Ctx):
    """Translate a term, arguments left to right.  A compound's last
    argument is walked in a loop, so a long list's spine costs no
    recursion; the reader bounds how deep the other arguments nest.  An
    anonymous variable that is an argument of a compound becomes a void
    (printed `_`)."""
    spine = []
    while isinstance(t, PS) and t.args:
        if t.functor == "." and len(t.args) == 2:
            label = "|"
        else:
            label = _label(t.functor, len(t.args), ctx.line)
        spine.append((label, tuple(_arg_expr(a, ctx) for a in t.args[:-1])))
        t = t.args[-1]
    if spine and _is_void(t, ctx):
        expr = CAnon()
    elif isinstance(t, PV):
        expr = CVar(ctx.var_name(t))
    elif isinstance(t, PA):
        expr = CLit(Atom("nil" if t.name == "[]"
                         else _label(t.name, 0, ctx.line)))
    elif isinstance(t, PI):
        expr = CLit(Int(t.value))
    else:
        raise TypeError(f"cannot translate {t!r}")
    for label, first in reversed(spine):
        expr = CCompound(label, first + (expr,))
    return expr


def _label(name: str, arity: int, line: int) -> str:
    """``name`` as the kernel's label of a record or atom of ``arity``
    arguments.  A name the reader makes is a word, or an operator such as
    ``^`` or ``,``; the kernel reads a word that is not a keyword, and
    has no quoted atoms to write the rest in."""
    if name[0].isalpha() and name not in KEYWORDS and name != "div":
        return name
    raise ParseError(f"the kernel cannot read {name}/{arity} as a label",
                     line, 0)


def _is_void(t: PTerm, ctx: _Ctx) -> bool:
    return isinstance(t, PV) and t.anon and id(t) not in ctx.m


def _arg_expr(t: PTerm, ctx: _Ctx):
    return CAnon() if _is_void(t, ctx) else term_expr(t, ctx)


def _refusal(line: int, msg: str) -> UnsupportedConstruct:
    """A refusal that names the clause's line (a query's goals, read as
    line 0, have none)."""
    return UnsupportedConstruct(f"line {line}: {msg}" if line else msg)


def arith_expr(t: PTerm, ctx: _Ctx, out: list):
    """Translate an arithmetic expression, emitting helper statements
    into ``out``; returns the core expression holding the value."""
    if isinstance(t, (PV, PI)):
        return term_expr(t, ctx)
    if isinstance(t, PS) and len(t.args) == 2 and t.functor in (
            "+", "-", "*", "div", "//"):
        a = arith_expr(t.args[0], ctx, out)
        b = arith_expr(t.args[1], ctx, out)
        op = "div" if t.functor == "//" else t.functor
        r = ctx.fresh()
        out.append(BuiltinCall(op, (a, b, CVar(r))))
        return CVar(r)
    raise _refusal(ctx.line, f"{t!r} is not arithmetic")


def _strip_carets(t: PTerm, line: int) -> tuple[list, PTerm]:
    ex = []
    while isinstance(t, PS) and t.functor == "^" and len(t.args) == 2:
        q = t.args[0]
        if not isinstance(q, PV):
            raise _refusal(line, f"{q!r} cannot be ^-quantified")
        ex.append(q)
        t = t.args[1]
    return ex, t


def goal_stmts(g: PTerm, ctx: _Ctx) -> list:
    if isinstance(g, PA):
        if g.name == "true":
            return []
        if g.name == "fail":
            return [Fail()]
        key = (g.name, 0)
        if key not in ctx.names:
            raise _refusal(ctx.line, f"unknown predicate {g.name}/0")
        return [Call(CVar(ctx.names[key]), ())]
    if isinstance(g, PS):
        f, args = g.functor, g.args
        if f == "=" and len(args) == 2:
            return [Unify(term_expr(args[0], ctx), term_expr(args[1], ctx))]
        if f == "is" and len(args) == 2:
            out: list = []
            value = arith_expr(args[1], ctx, out)
            target = args[0]
            if (isinstance(target, PV) and out and isinstance(value, CVar)
                    and value.name == out[-1].args[2].name):
                # steer the final operation straight into the target
                ctx.locals.remove(value.name)
                last = out.pop()
                out.append(BuiltinCall(
                    last.name,
                    last.args[:2] + (CVar(ctx.var_name(target)),)))
                return out
            out.append(Unify(term_expr(target, ctx), value))
            return out
        if f in _COMPARISONS and len(args) == 2:
            out = []
            a = arith_expr(args[0], ctx, out)
            b = arith_expr(args[1], ctx, out)
            out.append(BuiltinCall(f, (a, b)))
            return out
        if f == "==" and len(args) == 2:
            return [BuiltinCall("==", (term_expr(args[0], ctx),
                                       term_expr(args[1], ctx)))]
        if f in ("bagof", "setof") and len(args) == 3:
            return _bagof_stmts(g, ctx)
        key = (f, len(args))
        if key not in ctx.names:
            raise _refusal(ctx.line, f"unknown predicate {f}/{len(args)}")
        return [Call(CVar(ctx.names[key]),
                     tuple(term_expr(a, ctx) for a in args))]
    raise _refusal(ctx.line, f"{g!r} cannot be called")


def _body_stmts(goals: list, ctx: _Ctx) -> list:
    out: list = []
    for g in goals:
        out.extend(goal_stmts(g, ctx))
    return out


def _local_or_seq(names: list, stmts: list) -> Statement:
    body = seq_all(stmts)
    return Local(tuple(names), body) if names else body


def _bagof_stmts(g: PS, ctx: _Ctx) -> list:
    """bagof/setof: SolveAll over an anonymous goal procedure."""
    template, qualified, result = g.args
    ex_vars, inner = _strip_carets(qualified, ctx.line)
    inner_goals = conj_list(inner)
    for ig in inner_goals:
        _check_goal(ig, ctx.line)
    tmpl_vars = term_vars(template)
    inner_vars = goals_vars(inner_goals)
    free = [v for v in inner_vars
            if v not in tmpl_vars and v not in ex_vars and not v.anon]
    # free variables are inputs: they live in the enclosing scope
    for v in free:
        ctx.var_name(v)

    out: list = []
    if ctx.generators and free:
        # run the goal once outside the collection, everything that is
        # not free anonymized, so an enclosing search enumerates inputs
        gctx = ctx.child()
        for v in inner_vars:
            if v not in free:
                gctx.m[id(v)] = gctx.fresh("V")
        gen = _body_stmts(inner_goals, gctx)
        out.append(_local_or_seq(gctx.locals, gen))

    proc_name = ctx.fresh("P")
    param = ctx.unused(f"{proc_name}R", bare=True)
    inner_ctx = ctx.child()
    for v in ex_vars:
        inner_ctx.m[id(v)] = inner_ctx.fresh("V")
    if isinstance(template, PV):
        inner_ctx.alias(template, param)
        stmts = _body_stmts(inner_goals, inner_ctx)
    else:
        stmts = _body_stmts(inner_goals, inner_ctx)
        stmts.append(Unify(CVar(param), term_expr(template, inner_ctx)))
    out.append(ProcDef(proc_name, (param,),
                       _local_or_seq(inner_ctx.locals, stmts)))

    if isinstance(result, PV):
        res_expr = CVar(ctx.var_name(result))
        res_fixup = None
    else:
        res_expr = CVar(ctx.fresh())
        res_fixup = Unify(res_expr, term_expr(result, ctx))
    if g.functor == "setof":
        raw = ctx.fresh()
        ordered = ctx.fresh()
        out.append(Call(CVar("SolveAll"), (CVar(proc_name), CVar(raw))))
        out.append(Call(CVar("Sort"), (CVar(raw), CVar(ordered))))
        out.append(Call(CVar("Dedup"), (CVar(ordered), res_expr)))
    else:
        out.append(Call(CVar("SolveAll"), (CVar(proc_name), res_expr)))
    if res_fixup is not None:
        out.append(res_fixup)
    return out


# ---------------------------------------------------------------------------
# Head translation
# ---------------------------------------------------------------------------


def _derive_params(clauses: list[Clause], names: _Names) -> tuple[str, ...]:
    """Parameter names: the first clause variable sitting alone in that
    argument position, else A<n>."""
    taken = set(names.taken) | set(_RESERVED)
    params = []
    for j in range(clauses[0].arity):
        pick = None
        for c in clauses:
            a = c.head_args[j]
            if (isinstance(a, PV) and not a.anon
                    and not a.name.startswith("_") and a.name not in taken):
                pick = a.name
                break
        if pick is None:
            k = j + 1
            pick = f"A{k}"
            while pick in taken:
                k += 1
                pick = f"A{k}"
        taken.add(pick)
        params.append(pick)
    return tuple(params)


def _head_stmts(clause: Clause, params, ctx: _Ctx,
                skip: tuple[int, ...] = ()) -> list:
    """Explicit head unifications; a plain variable on its first
    occurrence just aliases its parameter."""
    stmts = []
    for j, arg in enumerate(clause.head_args):
        if j in skip:
            continue
        if isinstance(arg, PV) and id(arg) not in ctx.m:
            ctx.alias(arg, params[j])
            continue
        stmts.append(Unify(CVar(params[j]), term_expr(arg, ctx)))
    return stmts


def _clause_block(ctx: _Ctx, clause: Clause, params, goals: list) -> Statement:
    """The clause's head unifications, then ``goals``, in a `local` that
    declares the variables they bring in."""
    stmts = _head_stmts(clause, params, ctx)
    stmts.extend(_body_stmts(goals, ctx))
    return _local_or_seq(ctx.locals, stmts)


# ---------------------------------------------------------------------------
# Scheme: nondeterministic choice
# ---------------------------------------------------------------------------


def _translate_choice(name, params, clauses, names, generators) -> ProcDef:
    return ProcDef(name, params, Choice(tuple(
        _clause_block(_Ctx(names, set(params), generators, c.line), c,
                      params, c.body)
        for c in clauses)))


# ---------------------------------------------------------------------------
# Scheme: deterministic (single clause, or constant-indexed case)
# ---------------------------------------------------------------------------


def _translate_single(name, params, clause, names, generators) -> ProcDef:
    return ProcDef(name, params, _clause_block(
        _Ctx(names, set(params), generators, clause.line), clause, params,
        clause.body))


def _translate_case(name, params, clauses, names, pos, generators) -> ProcDef:
    """The clauses dispatch on one head variable compared with distinct
    constants; that test becomes the case pattern."""
    arms = []
    for c in clauses:
        (kind, key), test = _case_test(c, c.head_args[pos])
        pattern = CLit(Int(key) if kind == "int"
                       else Atom(_label(key, 0, c.line)))
        body = list(c.body)
        body.remove(test)
        arms.append(CaseArm(pattern, _clause_block(
            _Ctx(names, set(params), generators, c.line), c, params,
            body)))
    return ProcDef(name, params, CaseStmt(CVar(params[pos]), tuple(arms), Fail()))


# ---------------------------------------------------------------------------
# Scheme: guarded cuts, deterministic guards -> if/elseif chain
# ---------------------------------------------------------------------------


def _guard_positions(clauses: list[Clause]) -> set:
    """Head positions taking part in guard evaluation: positions whose
    variable some clause's guard tests mention.  Everything else is an
    output the clause binds after committing."""
    out = set()
    for j in range(clauses[0].arity):
        for c in clauses:
            arg = c.head_args[j]
            tested = set(goals_vars([g for g in _guard_goals(c) if _is_test(g)]))
            if isinstance(arg, PV) and arg in tested:
                out.add(j)
    return out


_PRINTABLE_TESTS = frozenset(("==", "<", ">", "=<", ">="))


def _translate_if_arm(clause: Clause, params, guard_pos, names, generators):
    """One clause -> (guard_vars, guard statement or None, body)."""
    ctx = _Ctx(names, set(params), generators, clause.line)
    guard_goals = _guard_goals(clause)
    body_goals = _rest_goals(clause)
    tested = set(goals_vars([g for g in guard_goals if _is_test(g)]))

    guard_mark = ctx.mark()
    guard_stmts = []
    deferred = []       # (param index, head term) pairs handled after commit
    for j, arg in enumerate(clause.head_args):
        if isinstance(arg, PV):
            if id(arg) not in ctx.m:
                ctx.alias(arg, params[j])
            else:
                deferred.append((j, arg))
            continue
        if j in guard_pos and _const_key(arg) is not None:
            guard_stmts.append(
                BuiltinCall("==", (CVar(params[j]), term_expr(arg, ctx))))
        elif j in guard_pos and any(v in tested for v in term_vars(arg)):
            guard_stmts.append(Unify(CVar(params[j]), term_expr(arg, ctx)))
        else:
            deferred.append((j, arg))

    body_prefix = []
    for g in guard_goals:
        if _is_test(g):
            guard_stmts.extend(goal_stmts(g, ctx))
        elif any(v in tested for v in term_vars(g.args[0])):
            guard_stmts.extend(goal_stmts(g, ctx))
        else:
            body_prefix.append(g)
    guard_vars = list(ctx.since(guard_mark))

    if guard_stmts and not guard_vars:
        only = guard_stmts[0]
        simple = (len(guard_stmts) == 1 and isinstance(only, BuiltinCall)
                  and only.name in _PRINTABLE_TESTS and len(only.args) == 2)
        if not simple:
            # a statement-form guard prints as `<vars> in <stmts>`, so it
            # needs at least one declared variable
            guard_vars = [ctx.fresh("G")]

    body_mark = ctx.mark()
    body_stmts = [Unify(CVar(params[j]), term_expr(arg, ctx))
                  for j, arg in deferred]
    body_stmts.extend(_body_stmts(body_prefix, ctx))
    body_stmts.extend(_body_stmts(body_goals, ctx))
    body = _local_or_seq(ctx.since(body_mark), body_stmts)

    guard = seq_all(guard_stmts) if guard_stmts else None
    return tuple(guard_vars), guard, body


def _translate_if_chain(name, params, clauses, names, generators) -> ProcDef:
    guard_pos = _guard_positions(clauses)
    arms = []
    otherwise: Statement = Fail()
    for k, c in enumerate(clauses):
        guard_vars, guard, body = _translate_if_arm(
            c, params, guard_pos, names, generators)
        if guard is None:
            if k != len(clauses) - 1:
                raise UnsupportedConstruct(
                    f"line {c.line}: clause {k + 1} of {c.functor}/{c.arity} "
                    f"commits unconditionally before later clauses")
            otherwise = Local(guard_vars, body) if guard_vars else body
            break
        arms.append(IfArm(guard_vars, guard, body))
    return ProcDef(name, params,
                   IfStmt(tuple(arms), otherwise) if arms else otherwise)


# ---------------------------------------------------------------------------
# Scheme: guarded cuts with user predicates -> one SolveOne over a choice
# ---------------------------------------------------------------------------


def _translate_solve_cascade(name, params, clauses, names, generators) -> ProcDef:
    """The guards are the alternatives of one `choice`, run encapsulated
    by one SolveOne.  Its first answer comes from the first clause whose
    guard has a solution, which is the clause the cut commits to: the
    answer `c<k>(outputs)` names the clause and carries the guard's
    bindings to its arm of one flat case.  A trailing clause with no guard
    is the case's `else`."""
    scope = _Ctx(names, set(params), generators, 0)
    guard, res, param = (scope.fresh(base, bare=True)
                         for base in ("Guard", "GR", "R"))
    answer_var = PV(param)
    last = clauses[-1]
    final: Statement = Fail()
    if last.cut_index is None and not _guard_goals(last):
        clauses = clauses[:-1]
        final = _clause_block(_Ctx(names, scope.used, generators, last.line),
                              last, params, last.body)
    alts, arms = [], []
    for k, c in enumerate(clauses, 1):
        guard_goals = _guard_goals(c)
        head_vars = term_vars(c.head)
        outputs = tuple(v for v in goals_vars(guard_goals)
                        if v not in head_vars and not v.anon)
        # the guard ends with `R = c<k>(outputs)`, and the arm's pattern
        # takes that answer apart under the guard's names for the outputs
        answer = PS(f"c{k}", outputs) if outputs else PA(f"c{k}")
        gctx = _Ctx(names, scope.used, generators, c.line)
        gctx.alias(answer_var, param)
        alts.append(_clause_block(gctx, c, params, guard_goals
                                  + [PS("=", (answer_var, answer))]))
        bctx = _Ctx(names, scope.used, generators, c.line)
        for v in outputs:
            bctx.alias(v, gctx.m[id(v)])
        arms.append(CaseArm(term_expr(PS(".", (answer, NIL)), bctx),
                            _clause_block(bctx, c, params, _rest_goals(c))))
    return ProcDef(name, params, Local((guard, res), seq_all([
        ProcDef(guard, (param,), Choice(tuple(alts))),
        Call(CVar("SolveOne"), (CVar(guard), CVar(res))),
        CaseStmt(CVar(res), tuple(arms), final)])))


# ---------------------------------------------------------------------------
# Putting a program together
# ---------------------------------------------------------------------------


def predicate_indicators(clauses: list[Clause]) -> list[tuple[str, int]]:
    seen: list[tuple[str, int]] = []
    for c in clauses:
        key = (c.functor, c.arity)
        if key not in seen:
            seen.append(key)
    return seen


def translate_predicate(cls: PredicateClass, clauses: list[Clause],
                        names: _Names, generators: bool = False) -> ProcDef:
    name = names[(clauses[0].functor, clauses[0].arity)]
    params = _derive_params(clauses, names)
    if cls.kind == GUARDED_CUT:
        if cls.deterministic_guard:
            return _translate_if_chain(name, params, clauses, names, generators)
        return _translate_solve_cascade(name, params, clauses, names, generators)
    if cls.kind == DETERMINISTIC:
        if len(clauses) == 1:
            return _translate_single(name, params, clauses[0], names, generators)
        return _translate_case(name, params, clauses, names,
                               cls.case_position, generators)
    return _translate_choice(name, params, clauses, names, generators)


def translate_clauses(clauses: list[Clause],
                      generators: bool = False) -> list[ProcDef]:
    indicators = predicate_indicators(clauses)
    names = _Names(indicators)
    groups: dict[tuple[str, int], list[Clause]] = {}
    for c in clauses:
        groups.setdefault((c.functor, c.arity), []).append(c)
    return [translate_predicate(classify(groups[key]), groups[key],
                                names, generators)
            for key in indicators]


def translate_source(text: str, generators: bool = False) -> str:
    """Prolog program text -> kernel program text."""
    clauses = parse_prolog(text)
    if not clauses:
        return ""
    procs = translate_clauses(clauses, generators)
    return "\n".join(pretty(p) for p in procs)


def translate_query_source(query_text: str, clauses: list[Clause],
                           generators: bool = False,
                           all_solutions: bool = False) -> str:
    """A query against a translated program: encapsulate it, solve, and
    browse the solution list (first solution only by default)."""
    goals, qvars = parse_query(query_text)
    names = _Names(predicate_indicators(clauses))
    ctx = _Ctx(names, {"QGoal", "QS", "QR"}, generators, 0)
    body_stmts = _body_stmts(goals, ctx)
    if len(qvars) == 1:
        template = CVar(ctx.var_name(qvars[0]))
    elif not qvars:
        template = CLit(Atom("true"))
    else:
        template = CCompound("q", tuple(CVar(ctx.var_name(v)) for v in qvars))
    body_stmts.append(Unify(CVar("QR"), template))
    goal_proc = ProcDef("QGoal", ("QR",), _local_or_seq(ctx.locals, body_stmts))
    solver = "SolveAll" if all_solutions else "SolveOne"
    stmt = Local(
        ("QGoal", "QS"),
        seq_all([
            goal_proc,
            Call(CVar(solver), (CVar("QGoal"), CVar("QS"))),
            Call(CVar("Browse"), (CVar("QS"),)),
        ]))
    return pretty(stmt)
