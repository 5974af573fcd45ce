"""Independent reference implementations used to check the package.

Nothing in this file imports from ozk, apart from the reference matcher,
runner, graph equality and choice heads at its end, which work on ozk's
own patterns, statements and terms.
Terms here use a tiny tuple encoding of their own:

    variables   OVar instances
    atoms       ("a", name)
    integers    plain Python ints
    structures  ("s", functor, (arg, ...))
    lists       built from ("s", ".", (head, tail)) with ("a", "[]") nil

The meta-interpreter is a plain depth-first Prolog solver (leftmost goal,
clauses in program order, green/blue cut) over a mutable binding dict with
a trail, which keeps the queens corpus fast enough to run in tests.
"""

from __future__ import annotations

import itertools

# ---------------------------------------------------------------------------
# Brute-force oracles with frozen values
# ---------------------------------------------------------------------------


def queens_brute(n: int) -> list[list[int]]:
    """All n-queens solutions as column lists, one queen per row; a
    solution s has queen i (1-based) in column s[i-1]."""
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        if all(abs(perm[i] - perm[j]) != j - i
               for i in range(n) for j in range(i + 1, n)):
            out.append(list(perm))
    return out


QUEENS8_COUNT = 92  # len(queens_brute(8)), frozen
QUEENS8_FIRST = [1, 7, 5, 8, 2, 4, 6, 3]  # first solution in program order

GEN_MAP_SQUARES = [1, 4, 9, 16, 25, 36, 49, 64, 81, 100]


def append_splits(xs: list) -> list[tuple[list, list]]:
    """All (front, back) with front ++ back == xs, in the order a
    depth-first solver using append([],L,L) first would produce."""
    return [(xs[:i], xs[i:]) for i in range(len(xs) + 1)]


APPEND_123_SPLITS = [
    ([], [1, 2, 3]),
    ([1], [2, 3]),
    ([1, 2], [3]),
    ([1, 2, 3], []),
]

# The family database used throughout: father(terach,abraham),
# father(abraham,isaac), father(haran,milcah), father(haran,yiscah).
FATHER_FACTS = [
    ("terach", "abraham"),
    ("abraham", "isaac"),
    ("haran", "milcah"),
    ("haran", "yiscah"),
]


def children_of(parent: str) -> list[str]:
    return [c for f, c in FATHER_FACTS if f == parent]


CHILDREN_TERACH = ["abraham"]
CHILDREN_HARAN = ["milcah", "yiscah"]
ALL_CHILDREN_FACT_ORDER = ["abraham", "isaac", "milcah", "yiscah"]
ALL_CHILDREN_SETOF = ["abraham", "isaac", "milcah", "yiscah"]  # sorted, deduped


# ---------------------------------------------------------------------------
# Reference Prolog machinery
# ---------------------------------------------------------------------------


class OVar:
    __slots__ = ("name",)
    _counter = itertools.count(1)

    def __init__(self, name=None):
        self.name = name or f"_R{next(self._counter)}"

    def __repr__(self):
        return self.name


NIL = ("a", "[]")


def olist(items, tail=NIL):
    out = tail
    for x in reversed(items):
        out = ("s", ".", (x, out))
    return out


def walk(t, binds):
    while isinstance(t, OVar) and t in binds:
        t = binds[t]
    return t


def deep(t, binds):
    t = walk(t, binds)
    if isinstance(t, tuple) and t[0] == "s":
        return ("s", t[1], tuple(deep(a, binds) for a in t[2]))
    return t


def unify(a, b, binds, trail) -> bool:
    a = walk(a, binds)
    b = walk(b, binds)
    if a is b:
        return True
    if isinstance(a, OVar):
        binds[a] = b
        trail.append(a)
        return True
    if isinstance(b, OVar):
        binds[b] = a
        trail.append(b)
        return True
    if isinstance(a, int) or isinstance(b, int):
        return a == b
    if a[0] == "a" or b[0] == "a":
        return a == b
    if a[1] != b[1] or len(a[2]) != len(b[2]):
        return False
    return all(unify(x, y, binds, trail) for x, y in zip(a[2], b[2]))


def undo(trail, mark, binds):
    while len(trail) > mark:
        del binds[trail.pop()]


def rename(t, mapping):
    if isinstance(t, OVar):
        if t not in mapping:
            mapping[t] = OVar()
        return mapping[t]
    if isinstance(t, tuple) and t[0] == "s":
        return ("s", t[1], tuple(rename(a, mapping) for a in t[2]))
    return t


def eval_arith(t, binds):
    t = walk(t, binds)
    if isinstance(t, int):
        return t
    if isinstance(t, tuple) and t[0] == "s":
        f = t[1]
        if len(t[2]) == 2:
            x = eval_arith(t[2][0], binds)
            y = eval_arith(t[2][1], binds)
            if f == "+":
                return x + y
            if f == "-":
                return x - y
            if f == "*":
                return x * y
            if f in ("div", "//"):
                return x // y
    raise ValueError(f"not arithmetic: {t!r}")


class _Cut(Exception):
    def __init__(self, barrier):
        self.barrier = barrier


_COMPARE = {
    "<": lambda x, y: x < y,
    ">": lambda x, y: x > y,
    "=<": lambda x, y: x <= y,
    ">=": lambda x, y: x >= y,
}


def _struct_eq(a, b, binds) -> bool:
    a = walk(a, binds)
    b = walk(b, binds)
    if isinstance(a, OVar) or isinstance(b, OVar):
        return a is b
    if isinstance(a, int) or isinstance(b, int):
        return a == b
    if a[0] != b[0]:
        return False
    if a[0] == "a":
        return a == b
    return (a[1] == b[1] and len(a[2]) == len(b[2])
            and all(_struct_eq(x, y, binds) for x, y in zip(a[2], b[2])))


class Database:
    def __init__(self, clauses):
        # clauses: list of (head, [body goals]) in program order
        self.preds: dict[tuple[str, int], list] = {}
        for head, body in clauses:
            key = (head[1], len(head[2])) if head[0] == "s" else (head[1], 0)
            self.preds.setdefault(key, []).append((head, body))

    def lookup(self, goal):
        if isinstance(goal, tuple) and goal[0] == "s":
            return self.preds.get((goal[1], len(goal[2])))
        if isinstance(goal, tuple) and goal[0] == "a":
            return self.preds.get((goal[1], 0))
        return None


def solve(db: Database, goals, binds, trail, barrier_ids=None):
    """Yield once per solution; bindings are live in ``binds`` at yield
    time, so callers must extract what they need before advancing."""
    if barrier_ids is None:
        goals = [(g, None) for g in goals]
    stackless = goals  # list of (goal, cut_barrier)
    yield from _solve(db, stackless, binds, trail)


_barrier_counter = itertools.count(1)


def _solve(db, goals, binds, trail):
    if not goals:
        yield True
        return
    (goal, barrier), rest = goals[0], goals[1:]
    goal = walk(goal, binds)
    if isinstance(goal, tuple) and goal == ("a", "true"):
        yield from _solve(db, rest, binds, trail)
        return
    if isinstance(goal, tuple) and goal == ("a", "fail"):
        return
    if isinstance(goal, tuple) and goal == ("a", "!"):
        yield from _solve(db, rest, binds, trail)
        raise _Cut(barrier)
    if isinstance(goal, tuple) and goal[0] == "s":
        f, args = goal[1], goal[2]
        if f == "=" and len(args) == 2:
            mark = len(trail)
            if unify(args[0], args[1], binds, trail):
                yield from _solve(db, rest, binds, trail)
            undo(trail, mark, binds)
            return
        if f == "is" and len(args) == 2:
            val = eval_arith(args[1], binds)
            mark = len(trail)
            if unify(args[0], val, binds, trail):
                yield from _solve(db, rest, binds, trail)
            undo(trail, mark, binds)
            return
        if f in _COMPARE and len(args) == 2:
            x = eval_arith(args[0], binds)
            y = eval_arith(args[1], binds)
            if _COMPARE[f](x, y):
                yield from _solve(db, rest, binds, trail)
            return
        if f == "==" and len(args) == 2:
            if _struct_eq(args[0], args[1], binds):
                yield from _solve(db, rest, binds, trail)
            return
    clauses = db.lookup(goal)
    if clauses is None:
        raise ValueError(f"unknown predicate: {goal!r}")
    my_barrier = next(_barrier_counter)
    try:
        for head, body in clauses:
            mapping: dict = {}
            h = rename(head, mapping)
            mark = len(trail)
            if unify(goal, h, binds, trail):
                b = [(rename(g, mapping), my_barrier) for g in body]
                yield from _solve(db, b + rest, binds, trail)
            undo(trail, mark, binds)
    except _Cut as c:
        if c.barrier != my_barrier:
            raise
        undo(trail, mark, binds)  # noqa: F821  (mark from the cut clause)


def solve_all(db: Database, goals, template):
    """All solutions of ``goals`` in program order, as deep-walked copies
    of ``template``."""
    binds: dict = {}
    trail: list = []
    out = []
    for _ in solve(db, goals, binds, trail):
        out.append(deep(template, binds))
    return out


# ---------------------------------------------------------------------------
# A minimal independent Prolog reader (subset: the corpus syntax)
# ---------------------------------------------------------------------------


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j])))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "var" if (c == "_" or c.isupper()) else "name"
            toks.append((kind, word))
            i = j
            continue
        for sym in (":-", "=<", ">=", "==", "//", "^"):
            if text.startswith(sym, i):
                toks.append(("punct", sym))
                i += len(sym)
                break
        else:
            toks.append(("punct", c))
            i += 1
    toks.append(("end", ""))
    return toks


class _Reader:
    """Recursive-descent reader for the corpus subset.  Operator
    precedences: :- (1200) < , (1000) < =,is,<,>,=<,>=,== (700)
    < +,- (500) < *,div,// (400) < ^ (200, right)."""

    def __init__(self, text):
        self.toks = _tokenize(text)
        self.pos = 0
        self.vars: dict[str, OVar] = {}

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, val):
        kind, v = self.take()
        if v != val:
            raise ValueError(f"expected {val!r}, got {v!r}")

    def clauses(self):
        out = []
        while self.peek()[0] != "end":
            self.vars = {}
            term = self.term(1200)
            self.expect(".")
            if isinstance(term, tuple) and term[0] == "s" and term[1] == ":-":
                head, body = term[2]
                out.append((head, self._conj(body)))
            else:
                out.append((term, []))
        return out

    def _conj(self, t):
        if isinstance(t, tuple) and t[0] == "s" and t[1] == "," and len(t[2]) == 2:
            return self._conj(t[2][0]) + self._conj(t[2][1])
        return [t]

    BINOPS = {
        ":-": 1200, ",": 1000, "=": 700, "is": 700, "<": 700, ">": 700,
        "=<": 700, ">=": 700, "==": 700, "+": 500, "-": 500, "*": 400,
        "div": 400, "//": 400, "^": 200,
    }

    def term(self, maxp):
        left = self.primary()
        while True:
            kind, v = self.peek()
            if (kind in ("punct", "name")) and v in self.BINOPS and self.BINOPS[v] <= maxp:
                p = self.BINOPS[v]
                # 'div'/'is' as infix only when a term can follow
                self.take()
                right = self.term(p if v in (":-", "^") else p - 1)
                left = ("s", v, (left, right))
            else:
                return left

    def primary(self):
        kind, v = self.take()
        if kind == "int":
            return v
        if kind == "punct" and v == "-" and self.peek()[0] == "int":
            return -self.take()[1]
        if kind == "var":
            if v == "_":
                return OVar()
            if v not in self.vars:
                self.vars[v] = OVar(v)
            return self.vars[v]
        if kind == "punct" and v == "(":
            t = self.term(1200)
            self.expect(")")
            return t
        if kind == "punct" and v == "[":
            return self.list_term()
        if kind == "punct" and v == "!":
            return ("a", "!")
        if kind == "name":
            if self.peek() == ("punct", "("):
                self.take()
                args = [self.term(999)]
                while self.peek() == ("punct", ","):
                    self.take()
                    args.append(self.term(999))
                self.expect(")")
                return ("s", v, tuple(args))
            return ("a", v)
        raise ValueError(f"unexpected token {v!r}")

    def list_term(self):
        if self.peek() == ("punct", "]"):
            self.take()
            return NIL
        items = [self.term(999)]
        while self.peek() == ("punct", ","):
            self.take()
            items.append(self.term(999))
        tail = NIL
        if self.peek() == ("punct", "|"):
            self.take()
            tail = self.term(999)
        self.expect("]")
        return olist(items, tail)


def read_program(text: str) -> Database:
    return Database(_Reader(text).clauses())


def read_query(text: str):
    """Parse a query; returns (goals, var_name -> OVar)."""
    r = _Reader(text)
    t = r.term(1200)
    if r.peek()[1] == ".":
        r.take()
    return r._conj(t), dict(r.vars)


# ---------------------------------------------------------------------------
# Conversion helpers used by comparison tests
# ---------------------------------------------------------------------------


def to_plain(t, binds=None, fresh=None):
    """Deep-convert a reference term to a comparable plain structure:
    ints stay ints, atoms -> str, structures -> (functor, args...),
    unbound vars -> ('_', k) numbered in encounter order."""
    if binds is not None:
        t = walk(t, binds)
    if fresh is None:
        fresh = {}
    if isinstance(t, OVar):
        if t not in fresh:
            fresh[t] = len(fresh) + 1
        return ("_", fresh[t])
    if isinstance(t, int):
        return t
    if t[0] == "a":
        return t[1]
    return (t[1],) + tuple(to_plain(a, binds, fresh) for a in t[2])


def plain_list(t, binds=None):
    out = []
    if binds is not None:
        t = walk(t, binds)
    while isinstance(t, tuple) and t[0] == "s" and t[1] == ".":
        out.append(to_plain(t[2][0], binds))
        t = t[2][1]
        if binds is not None:
            t = walk(t, binds)
    assert t == NIL, f"improper list tail {t!r}"
    return out


# ---------------------------------------------------------------------------
# Reference `case` matcher: a work list over the pattern AST
# ---------------------------------------------------------------------------

from ozk.syntax import CAnon, CCompound, CLit, CVar  # noqa: E402
from ozk.terms import Atom, Compound, Int, Var  # noqa: E402

MATCH_OK = 0
MATCH_FAIL = 1
MATCH_UNDET = 2


def match_pattern(store, pattern, term):
    """One-way match of a value against a linear pattern.

    Returns (status, payload): payload is the capture dict on success and
    the blocking variable when undetermined.  The store is never changed.
    """
    captures: dict = {}
    work = [(pattern, term)]
    while work:
        p, t = work.pop()
        t = store.deref(t)
        if isinstance(p, CVar):
            captures[p.name] = t
            continue
        if isinstance(p, CAnon):
            continue
        if isinstance(t, Var):
            return MATCH_UNDET, t
        if isinstance(p, CLit):
            if isinstance(t, (Atom, Int)) and t == p.value:
                continue
            return MATCH_FAIL, None
        if isinstance(p, CCompound):
            if (isinstance(t, Compound) and t.label == p.label
                    and len(t.args) == len(p.args)):
                work.extend(reversed(list(zip(p.args, t.args))))
                continue
            return MATCH_FAIL, None
        raise TypeError(f"bad pattern {p!r}")
    return MATCH_OK, captures


# ---------------------------------------------------------------------------
# Reference statement runner: dict frames, every local name made at entry
# ---------------------------------------------------------------------------

from ozk.errors import OzkError  # noqa: E402
from ozk.syntax import (Block, BuiltinCall, CAnon, CCompound, CLit,  # noqa: E402
                        CVar, IfStmt, Local, Unify)
from ozk.terms import FALSE, INT_MAX, INT_MIN, TRUE, render  # noqa: E402

_REF_ARITH = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
              "*": lambda x, y: x * y, "div": lambda x, y: x // y}
_REF_COMPARE = {"<": lambda x, y: x < y, ">": lambda x, y: x > y,
                "=<": lambda x, y: x <= y, ">=": lambda x, y: x >= y}


class RefFailure(Exception):
    pass


class RefSuspend(Exception):
    def __init__(self, var):
        super().__init__()
        self.var = var


class DictFrameRunner:
    """Runs unifications, integer operators, `if`s on an operator test,
    blocks and locals the plain way: each `local` makes a frame, a dict
    over its enclosing one, with a variable for every name at entry, and
    every expression is built before it is unified.  The outcome of a run
    is the one the compiled runtime must give: the failure's or error's
    text, the variable a suspension waits for, the threads woken."""

    def __init__(self, store):
        self.store = store
        self.woken: set = set()
        store.wake = self.woken.update
        self.frames: list = []      # every frame a local made, in order

    def lookup(self, env, name):
        while env is not None:
            if name in env[0]:
                return env[0][name]
            env = env[1]
        raise OzkError(f"variable {name} has no binding at run time")

    def build(self, expr, env):
        if isinstance(expr, CVar):
            return self.lookup(env, expr.name)
        if isinstance(expr, CLit):
            return expr.value
        if isinstance(expr, CAnon):
            return self.store.new_var()
        if isinstance(expr, CCompound):
            return Compound(expr.label, [self.build(a, env) for a in expr.args])
        raise TypeError(f"cannot build {expr!r}")

    def unify(self, a, b):
        clash = self.store.unify(a, b)
        if clash is not None:
            raise RefFailure("unification failed: " + clash.reason)

    def integer(self, expr, env) -> int:
        t = self.store.deref(self.build(expr, env))
        if isinstance(t, Var):
            raise RefSuspend(t)
        if not isinstance(t, Int):
            raise OzkError(f"expected an integer, got {render(self.store, t)}")
        return t.value

    def run(self, stmt, env):
        if isinstance(stmt, Block):
            for item in stmt.stmts:
                self.run(item, env)
        elif isinstance(stmt, Local):
            frame = {name: self.store.new_var() for name in stmt.names}
            self.frames.append(frame)
            self.run(stmt.body, (frame, env))
        elif isinstance(stmt, Unify):
            self.unify(self.build(stmt.lhs, env), self.build(stmt.rhs, env))
        elif isinstance(stmt, BuiltinCall):
            x = self.integer(stmt.args[0], env)
            y = self.integer(stmt.args[1], env)
            if stmt.name in _REF_ARITH:
                if stmt.name == "div" and y == 0:
                    raise OzkError("division by zero")
                v = _REF_ARITH[stmt.name](x, y)
                if not INT_MIN <= v <= INT_MAX:
                    raise OzkError(f"integer overflow in {stmt.name}")
                value = Int(v)
            elif len(stmt.args) == 2:
                if not _REF_COMPARE[stmt.name](x, y):
                    raise RefFailure(f"{x}{stmt.name}{y} is false")
                return
            else:
                value = TRUE if _REF_COMPARE[stmt.name](x, y) else FALSE
            self.unify(self.build(stmt.args[2], env), value)
        elif isinstance(stmt, IfStmt):
            for arm in stmt.arms:
                try:
                    self.run(arm.guard, env)
                except RefFailure:
                    continue
                self.run(arm.body, env)
                return
            self.run(stmt.otherwise, env)
        else:
            raise TypeError(f"cannot run {stmt!r}")


# ---------------------------------------------------------------------------
# Cross-store structural equality
# ---------------------------------------------------------------------------


def bisimilar(store_a, ta, store_b, tb, strict_vars: bool = False) -> bool:
    """Structural (bisimulation) equality of two term graphs, possibly
    living in different stores.  Unbound variables match one-to-one; with
    ``strict_vars`` they must carry the same VarId.  A pair of nodes is
    visited once, an unbound variable keyed by its VarId and any other
    node by its identity, so cycles end."""
    def key(t):
        return t.vid if isinstance(t, Var) else id(t)

    fwd: dict = {}
    bwd: dict = {}
    visited: set = set()
    stack = [(ta, tb)]
    while stack:
        a, b = stack.pop()
        a = store_a.deref(a)
        b = store_b.deref(b)
        pair = (key(a), key(b))
        if pair in visited:
            continue
        visited.add(pair)
        if isinstance(a, Var) or isinstance(b, Var):
            if not (isinstance(a, Var) and isinstance(b, Var)):
                return False
            if strict_vars:
                if a.vid != b.vid:
                    return False
                continue
            if fwd.get(a.vid, b.vid) != b.vid or bwd.get(b.vid, a.vid) != a.vid:
                return False
            fwd[a.vid] = b.vid
            bwd[b.vid] = a.vid
        elif isinstance(a, Atom) and isinstance(b, Atom):
            if a.name != b.name:
                return False
        elif isinstance(a, Int) and isinstance(b, Int):
            if a.value != b.value:
                return False
        elif isinstance(a, Compound) and isinstance(b, Compound):
            if a.label != b.label or len(a.args) != len(b.args):
                return False
            stack.extend(zip(a.args, b.args))
        elif a is not b:
            return False
    return True


# ---------------------------------------------------------------------------
# Reference snapshot encoder
# ---------------------------------------------------------------------------

from ozk.errors import RuntimeFailure  # noqa: E402


def ref_snapshot(term, keep_var, for_network=False):
    """Encode the graph of ``term`` as ``terms.Snapshot``'s docstring says,
    recursively: ``(root, nodes, kept, exported)``, ``exported`` being the
    frontier variables a snapshot for the network exports, in order.
    Bindings are followed by reading ``ref``, and the store is not
    touched."""
    nodes: list = []
    index: dict = {}
    kept: dict = {}
    exported: list = []

    def number(t):
        """The index of ``t``, and ``(cell, compound)`` when it is a
        compound numbered just now, still to expand."""
        while isinstance(t, Var) and t.ref is not None:
            t = t.ref
        key = ("var", t.vid) if isinstance(t, Var) else id(t)
        if key in index:
            return index[key], None
        index[key] = len(nodes)
        if isinstance(t, Compound):
            cell = ["compound", t.label, None]
            nodes.append(cell)
            return index[key], (cell, t)
        if isinstance(t, Var):
            if keep_var(t.vid):
                nodes.append(("var", t.vid))
                if for_network:
                    exported.append(t)
                else:
                    kept[t.vid] = t
            else:
                nodes.append(("var", None))
        elif isinstance(t, Atom):
            nodes.append(("atom", t.name))
        elif isinstance(t, Int):
            nodes.append(("int", t.value))
        elif for_network:
            raise RuntimeFailure(f"{t!r} cannot be sent between nodes")
        else:
            nodes.append(("closure", t))
        return index[key], None

    def expand(cell, t):
        children, opened = [], []
        for arg in t.args:
            i, new = number(arg)
            children.append(i)
            if new is not None:
                opened.append(new)
        cell[2] = children
        for new in reversed(opened):
            expand(*new)

    root, new = number(term)
    if new is not None:
        expand(*new)
    return root, nodes, (None if for_network else kept), exported


# ---------------------------------------------------------------------------
# Reference choice heads: one unification statement at a time
# ---------------------------------------------------------------------------

from ozk.runtime import exec_unify, unify_compound  # noqa: E402


def ref_first_head(engine, alts, i, frame, mark):
    """What ``search.Engine._first_head`` computes, with each head run
    statement by statement through ``unify_compound`` (a statement with a
    read plan) or ``exec_unify`` (any other), where the engine runs one
    compiled function per head.  The trail is checked after a head that
    succeeds, and before the undo to ``mark`` of one that fails, up to the
    start of its failing statement: ``(index, None)`` for the first head
    that succeeds, else ``(index, why)`` with the last failure."""
    store = engine.store
    trail = engine.trail
    why = None
    for i in range(i, len(alts)):
        alt = alts[i]
        for slot in alt.made:
            frame[slot] = store.new_var()
        for stmt in alt.head:
            start = len(trail)
            plan = stmt.plan
            why = (exec_unify(store, stmt, frame) if plan is None
                   else unify_compound(store, frame[plan.slot], plan, frame))
            if why is not None:
                break
        else:
            if len(trail) > engine.checked:
                engine.check_escapes()
            return i, None
        if start > engine.checked:
            engine.check_escapes(start)
        engine.undo(mark)
    return i, why
