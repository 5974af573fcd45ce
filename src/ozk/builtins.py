"""Built-in operations: arithmetic, tests, waiting, browsing, search.

One registry serves two call paths: operator statements compiled by the
desugarer (``BuiltinCall``) look functions up by name, and user-callable
names (``Browse``, ``Wait``, ``SolveAll`` ...) are the same functions
wrapped as NativeProc values in the global environment.

Every function takes (task, args) with args as store terms and either
returns after binding its outputs or raises one of the control signals
(Suspend, Failure, SleepRequest).
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Optional

from .errors import OzkError, ThreadInSearchError
from .runtime import Failure, SleepRequest, Suspend, Task, env_child
from .parser import parse_program
from .search import Engine, solve_answers
from .syntax import CVar, Call, Local, ProcDef
from .terms import (Atom, Closure, Compound, INT_MAX, INT_MIN, Int,
                    NativeProc, Opaque, Store, Term, Var, compare_terms,
                    make_list, render)

# -- helpers -------------------------------------------------------------------


def _value(store: Store, t: Term) -> Term:
    t = store.deref(t)
    if isinstance(t, Var):
        raise Suspend([t])
    return t


def _int(store: Store, t: Term) -> int:
    t = _value(store, t)
    if not isinstance(t, Int):
        raise OzkError(f"expected an integer, got {render(store, t)}")
    return t.value


def _bind(task: Task, lhs: Term, value: Term):
    res = task.rt.store.unify(lhs, value)
    if res.woken:
        task.rt.wake(res.woken)
    if not res.ok:
        raise Failure(f"unification failed: {res.reason}")


def _bool_term(b: bool) -> Atom:
    return Atom("true") if b else Atom("false")


# -- arithmetic ---------------------------------------------------------------


def _arith(name: str, op):
    def fn(task: Task, args):
        store = task.rt.store
        a = _int(store, args[0])
        b = _int(store, args[1])
        v = op(a, b)
        if not INT_MIN <= v <= INT_MAX:
            raise OzkError(f"integer overflow in {name}")
        _bind(task, args[2], Int(v))
    return fn


def _div(a: int, b: int) -> int:
    if b == 0:
        raise OzkError("division by zero")
    return a // b


# -- comparison and equality ----------------------------------------------------


def _compare(name: str, op):
    def fn(task: Task, args):
        store = task.rt.store
        a = _int(store, args[0])
        b = _int(store, args[1])
        if len(args) == 2:
            if not op(a, b):
                raise Failure(f"{a}{name}{b} is false")
        else:
            _bind(task, args[2], _bool_term(op(a, b)))
    return fn


def _equal(task: Task, args):
    store = task.rt.store
    res, frontier = store.equals(args[0], args[1])
    if res is None:
        raise Suspend(frontier)
    if len(args) == 2:
        if not res:
            raise Failure("== is false")
    else:
        _bind(task, args[2], _bool_term(res))


def _test(task: Task, args):
    store = task.rt.store
    v = _value(store, args[0])
    if v == Atom("true"):
        return
    if v == Atom("false"):
        raise Failure("condition is false")
    raise OzkError(f"a condition must be true or false, got {render(store, v)}")


# -- waiting and time ----------------------------------------------------------


def _wait(task: Task, args):
    _value(task.rt.store, args[0])


def _wait_needed(task: Task, args):
    store = task.rt.store
    t = store.deref(args[0])
    if isinstance(t, Var) and not t.needed:
        raise Suspend([t], byneed=True)


def _delay(task: Task, args):
    ms = _int(task.rt.store, args[0])
    if task.mode != "thread":
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


# The lazy driver: a thread that runs the engine one answer further each
# time the stream's next cell is needed.  SolveStep is bound only in the
# loop's own frame.
_SOLVE_LOOP_TEXT = """
proc {SolveLoop E S}
   A in
   {WaitNeeded S}
   {SolveStep E A}
   case A of none then S = nil
   [] some(X) then S2 in S = X|S2 {SolveLoop E S2} end
end
"""


def _solve_step(task: Task, args):
    engine = task.rt.store.deref(args[0]).payload
    answer = engine.next_answer()
    _bind(task, args[1],
          Atom("none") if answer is None else Compound("some", [answer]))


def _make_solve_loop() -> Closure:
    frame = env_child(None, {
        "WaitNeeded": NativeProc("WaitNeeded", 1, _wait_needed),
        "SolveStep": NativeProc("SolveStep", 2, _solve_step)})
    stmt = parse_program(_SOLVE_LOOP_TEXT, frame)
    if not (isinstance(stmt, Local) and isinstance(stmt.body, ProcDef)):
        raise AssertionError(f"the lazy driver is not one procedure: {stmt}")
    proc = stmt.body
    loop = Closure(proc.name, proc.params, proc.body, frame)
    frame[proc.name] = loop
    return loop


_SOLVE_LOOP = _make_solve_loop()


def _solve_lazy(task: Task, args):
    if task.mode != "thread":
        raise ThreadInSearchError(
            "lazy solving needs a thread of its own and is only allowed "
            "in regular threads")
    goal = _goal(task.rt.store, args[0])
    env = env_child(_SOLVE_LOOP.env, {"E": Opaque("engine", Engine(task.rt, goal)),
                                      "S": args[1]})
    task.rt.spawn(Call(CVar(_SOLVE_LOOP.name), (CVar("E"), CVar("S"))), env)


# -- registry ----------------------------------------------------------------------


def make_builtins():
    """Return (name->function registry, name->NativeProc environment)."""
    funcs = {
        "+": _arith("+", lambda a, b: a + b),
        "-": _arith("-", lambda a, b: a - b),
        "*": _arith("*", lambda a, b: a * b),
        "div": _arith("div", _div),
        "<": _compare("<", lambda a, b: a < b),
        ">": _compare(">", lambda a, b: a > b),
        "=<": _compare("=<", lambda a, b: a <= b),
        ">=": _compare(">=", lambda a, b: a >= b),
        "==": _equal,
        "$test": _test,
        "Wait": _wait,
        "WaitNeeded": _wait_needed,
        "Delay": _delay,
        "Browse": _browse,
        "Sort": _sort,
        "SolveOne": _solve_eager(1),
        "SolveAll": _solve_eager(None),
        "Solve": _solve_lazy,
    }
    arities = {"Wait": 1, "WaitNeeded": 1, "Delay": 1, "Browse": 1,
               "Sort": 2, "SolveOne": 2, "SolveAll": 2, "Solve": 2}
    native = {name: NativeProc(name, arity, funcs[name])
              for name, arity in arities.items()}
    return funcs, native
