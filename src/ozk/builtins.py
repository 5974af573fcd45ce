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
from .search import Engine, solve_answers, solve_step
from .syntax import (BuiltinCall, CaseArm, CaseStmt, CCompound, CLit, CVar,
                     Call, Fail, Local, PCompound, PLit, PVar, Seq, Unify,
                     seq_all)
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


def _solve_one(task: Task, args):
    goal = _goal(task.rt.store, args[0])
    sols = solve_answers(task.rt, goal, limit=1)
    _bind(task, args[1], make_list(sols))


def _solve_all(task: Task, args):
    goal = _goal(task.rt.store, args[0])
    sols = solve_answers(task.rt, goal, limit=None)
    _bind(task, args[1], make_list(sols))


def _make_solve_loop() -> Closure:
    """The lazy enumeration driver, written as a core-statement loop:

       proc {$SolveLoop E S}
          {WaitNeeded S}
          case {$solve_step E} of none then S=nil
          [] some(X) then S2 in S=X|S2 {$SolveLoop E S2} end
       end
    """
    body = Local(
        ("A",),
        seq_all([
            BuiltinCall("WaitNeeded", (CVar("S"),)),
            BuiltinCall("$solve_step", (CVar("E"), CVar("A"))),
            CaseStmt(
                CVar("A"),
                (
                    CaseArm(PLit(Atom("none")), Unify(CVar("S"), CLit(Atom("nil")))),
                    CaseArm(
                        PCompound("some", (PVar("X"),)),
                        Local(
                            ("S2",),
                            Seq(
                                Unify(CVar("S"),
                                      CCompound("|", (CVar("X"), CVar("S2")))),
                                Call(CVar("$SolveLoop"),
                                     (CVar("E"), CVar("S2"))),
                            ),
                        ),
                    ),
                ),
                Fail(),
            ),
        ]))
    env = env_child(None, {})
    loop = Closure("$SolveLoop", ("E", "S"), body, env)
    env["$SolveLoop"] = loop
    return loop


_SOLVE_LOOP = _make_solve_loop()


def _solve_lazy(task: Task, args):
    if task.mode != "thread":
        raise ThreadInSearchError(
            "lazy solving needs a thread of its own and is only allowed "
            "in regular threads")
    goal = _goal(task.rt.store, args[0])
    engine = Engine(task.rt, goal)
    engine.start()
    engine.park()
    handle = Opaque("engine", engine)
    env = env_child(None, {"e": handle, "s": args[1],
                           "$SolveLoop": _SOLVE_LOOP})
    task.rt.spawn(Call(CVar("$SolveLoop"), (CVar("e"), CVar("s"))), env)


def _solve_step_builtin(task: Task, args):
    store = task.rt.store
    h = store.deref(args[0])
    if not isinstance(h, Opaque) or h.tag != "engine":
        raise OzkError("$solve_step needs an engine handle")
    sol = solve_step(h.payload)
    if sol is None:
        _bind(task, args[1], Atom("none"))
    else:
        _bind(task, args[1], Compound("some", [sol]))


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
        "$solve_step": _solve_step_builtin,
        "Wait": _wait,
        "WaitNeeded": _wait_needed,
        "Delay": _delay,
        "Browse": _browse,
        "Sort": _sort,
        "SolveOne": _solve_one,
        "SolveAll": _solve_all,
        "Solve": _solve_lazy,
    }
    arities = {"Wait": 1, "WaitNeeded": 1, "Delay": 1, "Browse": 1,
               "Sort": 2, "SolveOne": 2, "SolveAll": 2, "Solve": 2}
    native = {name: NativeProc(name, arity, funcs[name])
              for name, arity in arities.items()}
    return funcs, native
