"""Built-in procedures: waiting, browsing, sorting, search.

Each is a NativeProc value in the global environment under a
user-callable name (``Browse``, ``Wait``, ``SolveAll`` ...).  The
statements the parser makes of operators and tests are not here: the
runtime runs the integer operators (``runtime.exec_op``), ``==`` and
``$test`` itself.

Four serve the Prolog translator's bagof/3 and setof/3, and any program
may call them.  ``{CopyTerm X Y}`` binds Y to a copy of X whose unbound
variables are all fresh, sharing kept.  ``{FreeVars T B W}`` binds W to
``w(V1 ... Vn)``, the unbound variables of T that B does not hold, in the
order ``terms.snapshot`` numbers them, or to ``w`` when there are none.
``{Bagof Pairs Gs}`` and ``{Setof Pairs Gs}`` group a list of ``wt(W
T)`` pairs by the variant of W, in the order the first of each group
comes, into a list of ``wt(W Ts)``; each W of a group is unified with its
first.  Setof also sorts each Ts into Prolog's standard order of terms
and drops equal neighbours.  Both fail on an empty list.

Every function takes (task, args) with args as store terms and either
returns after binding its outputs or raises one of the control signals
(Suspend, Failure, SleepRequest).
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Optional

from .errors import OzkError, ThreadInSearchError
from .compiler import compile_top
from .runtime import Failure, SleepRequest, Suspend, Task, int_value
from .search import Engine, solve_answers
from .syntax import Call, CVar, Unify
from .terms import (NIL, Atom, Closure, Compound, Int, NativeProc, Store,
                    Term, Var, compare_terms, cons, make_list, materialize,
                    render, snapshot)

# -- helpers -------------------------------------------------------------------


def _value(store: Store, t: Term) -> Term:
    t = store.deref(t)
    if isinstance(t, Var):
        raise Suspend([t])
    return t


# A bind of another node's variable waits for its owner and then runs
# again (``dist.Simulation.request_bind``); the native that computed the
# value does not, so that a search or an answer taken is not repeated.
_BIND_AGAIN = compile_top(Unify(CVar("S"), CVar("T")))


def _bind(task: Task, lhs: Term, value: Term):
    try:
        clash = task.rt.store.unify(lhs, value)
    except Suspend as s:
        s.again = _BIND_AGAIN.body, _BIND_AGAIN.frame({"S": lhs, "T": value})
        raise
    if clash is not None:
        raise Failure(clash)


# -- waiting and time ----------------------------------------------------------


def _wait(task: Task, args):
    _value(task.rt.store, args[0])


def _wait_needed(task: Task, args):
    store = task.rt.store
    t = store.deref(args[0])
    if isinstance(t, Var) and not t.needed:
        raise Suspend([t], byneed=True)


def _delay(task: Task, args):
    ms = int_value(task.rt.store, args[0])
    if task.tid is None:
        raise OzkError("Delay is only allowed in a regular thread")
    raise SleepRequest(ms)


def _browse(task: Task, args):
    task.rt.browse(args[0])


# -- lists ---------------------------------------------------------------------


def _spine(store: Store, t: Term) -> list:
    items = []
    cur = store.deref(t)
    while True:
        if isinstance(cur, Var):
            raise Suspend([cur])
        if isinstance(cur, Atom) and cur.name == "nil":
            return items
        if isinstance(cur, Compound) and cur.label == "|" and len(cur.args) == 2:
            items.append(cur.args[0])
            cur = store.deref(cur.args[1])
            continue
        raise OzkError(f"expected a list, got {render(store, cur)}")


def _sort(task: Task, args):
    store = task.rt.store
    items = _spine(store, args[0])
    key = cmp_to_key(lambda a, b: compare_terms(store, a, b))
    items.sort(key=key)
    _bind(task, args[1], make_list(items))


# -- bagof/3 and setof/3 ----------------------------------------------------------


def _copy_term(task: Task, args):
    store = task.rt.store
    copy = materialize(store, snapshot(store, args[0], lambda vid: False), None)
    _bind(task, args[1], copy)


def _free_vars(task: Task, args):
    store = task.rt.store
    held, bound = (snapshot(store, t, lambda vid: True).kept
                   for t in args[:2])
    free = [v for vid, v in held.items() if vid not in bound]
    _bind(task, args[2], Compound("w", free) if free else Atom("w"))


# Prolog orders its lists and `[]` by the names `.` and `[]`
_PROLOG_NAMES = {"|": ".", "nil": "[]"}


def _pair(store: Store, t: Term) -> list:
    t = _value(store, t)
    if isinstance(t, Compound) and t.label == "wt" and len(t.args) == 2:
        return t.args
    raise OzkError(f"expected wt(W T), got {render(store, t)}")


def _variant_key(store: Store, term: Term) -> tuple:
    """A key of ``term``'s structure, equal for two terms when they are
    variants.  The unbound variables are numbered in the order met, a
    cycle is the depth of the compound it returns to, and a procedure is
    itself, as two procedures are equal only when they are one."""
    out: list = []
    numbers: dict = {}
    path: dict = {}     # id of each compound above the walk -> its depth
    work: list = [term]
    while work:
        t = work.pop()
        if type(t) is int:          # the walk leaves the compound of this id
            del path[t]
            continue
        t = store.deref(t)
        kind = type(t)
        if kind is Var:
            out.append(("var", numbers.setdefault(t.vid, len(numbers))))
        elif kind is Atom:
            out.append(("atom", t.name))
        elif kind is Int:
            out.append(("int", t.value))
        elif kind is not Compound:
            out.append(t)
        elif id(t) in path:
            out.append(("cycle", path[id(t)]))
        else:
            path[id(t)] = len(path)
            out.append(("compound", t.label, len(t.args)))
            work.append(id(t))
            work.extend(reversed(t.args))
    return tuple(out)


def _groups(setof: bool):
    def fn(task: Task, args):
        store = task.rt.store
        groups: dict = {}
        for w, t in [_pair(store, p) for p in _spine(store, args[0])]:
            first, ts = groups.setdefault(_variant_key(store, w), (w, []))
            store.unify(first, w)    # variants with no variable in common
            ts.append(t)
        if not groups:
            raise Failure("no solutions")
        out = []
        for w, ts in groups.values():
            if setof:
                ts.sort(key=cmp_to_key(
                    lambda a, b: compare_terms(store, a, b, _PROLOG_NAMES)))
                ts = [t for k, t in enumerate(ts) if not k or compare_terms(
                    store, ts[k - 1], t, _PROLOG_NAMES)]
            out.append(Compound("wt", [w, make_list(ts)]))
        _bind(task, args[1], make_list(out))
    return fn


# -- encapsulated search ----------------------------------------------------------


def _goal(store: Store, t: Term) -> Closure:
    g = store.deref(t)
    if isinstance(g, Var):
        raise Suspend([g])
    if not isinstance(g, Closure):
        raise OzkError("a search goal must be a one-argument function")
    return g


def _solve_eager(limit: Optional[int]):
    def fn(task: Task, args):
        goal = _goal(task.rt.store, args[0])
        _bind(task, args[1], make_list(solve_answers(task.rt, goal, limit)))
    return fn


# A lazy Solve list is a by-need trigger on each of its cells, as a ``fun
# lazy`` result is (``runtime.Runtime.by_need``): the trigger's one
# statement runs the engine one answer further when the cell is needed.
_SOLVE_NEXT = compile_top(Call(CVar("SolveNext"), (CVar("E"), CVar("S"))))


def _solve_next(task: Task, args):
    engine, stream = args
    answer = engine.next_answer()
    if answer is None:
        _bind(task, stream, NIL)
        return
    rest = task.rt.store.new_var()
    _solve_later(task.rt, engine, rest)
    _bind(task, stream, cons(answer, rest))


_SOLVE_NEXT_PROC = NativeProc("SolveNext", 2, _solve_next)


def _solve_later(rt, engine: Engine, stream: Term):
    """Leave on ``stream`` the trigger that runs ``engine`` to its next
    answer."""
    rt.by_need(stream, _SOLVE_NEXT.frame(
        {"SolveNext": _SOLVE_NEXT_PROC, "E": engine, "S": stream}))


def _solve_lazy(task: Task, args):
    if task.tid is None:
        raise ThreadInSearchError(
            "lazy solving needs a thread of its own and is only allowed "
            "in regular threads")
    goal = _goal(task.rt.store, args[0])
    _solve_later(task.rt, Engine(task.rt, goal), args[1])


# -- the global environment ------------------------------------------------------


def make_builtins() -> dict:
    """Return the name->NativeProc map of the built-in procedures."""
    procs = [("Wait", 1, _wait), ("WaitNeeded", 1, _wait_needed),
             ("Delay", 1, _delay), ("Browse", 1, _browse), ("Sort", 2, _sort),
             ("SolveOne", 2, _solve_eager(1)),
             ("SolveAll", 2, _solve_eager(None)), ("Solve", 2, _solve_lazy),
             ("CopyTerm", 2, _copy_term), ("FreeVars", 3, _free_vars),
             ("Bagof", 2, _groups(False)),
             ("Setof", 2, _groups(True))]
    return {name: NativeProc(name, arity, fn) for name, arity, fn in procs}
