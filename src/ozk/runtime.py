"""Statement execution, green threads and the cooperative scheduler.

One statement reduction at a time: a task owns a stack of (statement,
environment) frames, and `Task.run` is the one loop that reduces them.
It pops the top frame, counts it against the step budget and has
`exec_stmt` interpret it, which pushes continuations.  Threads, the
guards of `if` arms and search engines are all tasks run by that loop;
a task's mode decides what it may do (only a thread creates threads and
sleeps, only an engine pushes choicepoints) and how a signal leaves it.
A thread runs a timeslice of its own reductions at a time; a guard or an
engine runs to its end inside one reduction of the task that started
it, so its reductions do not use up that task's timeslice.

A block pushes all of its statements in one reduction, and a body that
is a block (of a `local`, a procedure, a `choice` alternative, an `if`
or `case` arm) is pushed flat with the statement that runs it.  Tail calls replace the popped frame, so the
stack stays flat through recursion.  `X = f(...)` is compiled
unification: when `X` is already a compound of the same label and arity,
its arguments are unified in place and nothing is built
(`unify_compound`).

A `local` makes only the names of its compiled form's `made`.  Each other
name is first used in a `X = f(...)` of its body as a `CFresh`: in read
mode it takes the compound's argument as its value, with no variable and
no binding; where the term is built it makes the variable there.  Either
way the name is stored in the local's frame, which is the environment
the statement runs in.

Threads are cooperatively scheduled in timeslices over a single store.
Blocking is dataflow only: a thread that needs a variable's value parks
on it and is woken by the binding.  Time is virtual: `Delay` sleeps the
thread, and the clock jumps forward only when nothing is runnable.
"""

from __future__ import annotations

import heapq
import random as _random
import time as _time
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import repeat as _repeat
from typing import Callable, Optional

from .errors import (ChoiceOutsideSearchError, OzkError, QuietGuardViolation,
                     RuntimeFailure, ThreadInSearchError)
from .syntax import (Block, BuiltinCall, Call, CaseStmt, CAnon, CCompound,
                     CFresh, Choice, CLit, CVar, Fail, IfStmt, Local, PAnon,
                     PCompound, PLit, ProcDef, PVar, Skip, ThreadStmt, Unify)
from .terms import (Atom, Closure, Compound, Int, NativeProc, Store, Term,
                    Var, render)

# -- control-flow signals -----------------------------------------------------


class Failure(Exception):
    """Declarative failure: a unification or test came out false."""

    def __init__(self, reason: str = ""):
        super().__init__(reason)
        self.reason = reason


class Suspend(Exception):
    """The current statement needs variables that are still unbound."""

    def __init__(self, vars_: list, byneed: bool = False):
        super().__init__()
        self.vars = vars_
        self.byneed = byneed


class SleepRequest(Exception):
    def __init__(self, ms: int):
        super().__init__()
        self.ms = ms


class StepLimit(Exception):
    pass


# -- environments ------------------------------------------------------------

_UP = "\x00up"


def env_child(parent: Optional[dict], bindings: dict) -> dict:
    env = dict(bindings)
    env[_UP] = parent
    return env


def env_get(env: Optional[dict], name: str) -> Term:
    e = env
    while e is not None:
        v = e.get(name)
        if v is not None:
            return v
        e = e[_UP]
    raise OzkError(f"variable {name} has no binding at run time")


def env_names(env: Optional[dict]):
    """Yield (name, term) pairs, innermost scope first."""
    e = env
    while e is not None:
        for name, term in e.items():
            if not name.startswith("\x00"):
                yield name, term
        e = e[_UP]


def build_term(store: Store, expr, env: dict) -> Term:
    kind = type(expr)
    if kind is CVar:
        return env_get(env, expr.name)
    if kind is CLit:
        return expr.value
    if kind is CAnon:
        return store.new_var()
    if kind is CFresh:
        v = env[expr.name] = store.new_var()
        return v
    if kind is CCompound:
        exprs = expr.args
        if exprs and type(exprs[-1]) is CCompound:
            return _build_spine(store, expr, env)
        args = []
        for a in exprs:
            k = type(a)
            if k is CVar:
                # env_get, inlined: most arguments are variables
                name = a.name
                e = env
                while True:
                    v = e.get(name)
                    if v is not None:
                        break
                    e = e[_UP]
                    if e is None:
                        raise OzkError(
                            f"variable {name} has no binding at run time")
                args.append(v)
            elif k is CLit:
                args.append(a.value)
            elif k is CAnon:
                args.append(store.new_var())
            elif k is CFresh:
                v = env[a.name] = store.new_var()
                args.append(v)
            else:
                args.append(build_term(store, a, env))
        return Compound(expr.label, args)
    raise TypeError(f"cannot build {expr!r}")


def _build_spine(store: Store, expr: CCompound, env: dict) -> Term:
    """Build a compound down the chain of its last arguments in a loop.

    Only the other arguments are built by recursion, so a long list (a
    chain of '|' cells) takes no stack.  Arguments are built in the same
    order as by plain recursion."""
    cells = []
    while type(expr) is CCompound and expr.args:
        cells.append(Compound(expr.label, [build_term(store, a, env)
                                           for a in expr.args[:-1]]))
        expr = expr.args[-1]
    term = build_term(store, expr, env)
    for cell in reversed(cells):
        cell.args.append(term)
        term = cell
    return term


# -- compiled unification ---------------------------------------------------------


def unify_compound(store: Store, value: Term, pattern: CCompound, env: dict,
                   value_left: bool):
    """Unify ``value`` with the compound expression ``pattern``.

    The statement ``X = f(A1 ... An)`` (or ``f(A1 ... An) = X``) comes
    here with the value of ``X``, dereferenced once.  If it is a compound
    of the same label and arity, nothing is built (read mode): each
    argument that is not a void is paired with the compound's argument
    in the statement's orientation, and the pairs are settled by one
    :meth:`Store.unify` whose stack they seed, so they are taken last to
    first, as if the term had been built and unified.  A first use
    (``CFresh``) takes the compound's argument as its value in ``env``
    and adds no pair: unifying a fresh variable would only have bound it
    to that argument.  The exception is another node's unbound variable,
    which unification would bind (through a message to its owner) rather
    than the fresh one; there the variable is made and paired as before.
    A compound of another label or arity fails with the text that
    unification gives.  Any other value is unified with the built term
    (write mode).  Returns the :class:`UnifyResult`, or None when there
    is nothing to settle."""
    t = value
    if type(t) is Var and t.ref is not None:
        t = store.deref(t)
    if type(t) is not Compound:
        built = build_term(store, pattern, env)
        return store.unify(t, built) if value_left else store.unify(built, t)
    xs, exprs = t.args, pattern.args
    if t.label != pattern.label or len(xs) != len(exprs):
        mine = f"{t.label}/{len(xs)}"
        theirs = f"{pattern.label}/{len(exprs)}"
        raise Failure("unification failed: " + (
            f"{mine} = {theirs}" if value_left else f"{theirs} = {mine}"))
    pairs = []
    for x, a in zip(xs, exprs):
        k = type(a)
        if k is CVar:
            v = env_get(env, a.name)
        elif k is CLit:
            v = a.value
        elif k is CAnon:
            continue
        elif k is CFresh:
            if store.dist is None or not _is_proxy(store, x):
                env[a.name] = x
                continue
            v = env[a.name] = store.new_var()
        else:
            v = build_term(store, a, env)
        pairs.append((x, v) if value_left else (v, x))
    if not pairs:
        return None
    a, b = pairs.pop()
    return store.unify(a, b, pairs)


def _is_proxy(store: Store, t: Term) -> bool:
    """Whether ``t`` is an unbound replica of another node's variable
    (followed without path compression, which would change the store)."""
    while type(t) is Var and t.ref is not None:
        t = t.ref
    return type(t) is Var and t.vid[0] != store.node_id


# -- pattern matching -----------------------------------------------------------

_MATCH_OK = 0
_MATCH_FAIL = 1
_MATCH_UNDET = 2


def match_pattern(store: Store, pattern, term):
    """One-way match of a value against a linear pattern.

    Returns (status, payload): payload is the capture dict on success and
    the blocking variable when undetermined.  The store is never changed.
    """
    captures: dict = {}
    work = [(pattern, term)]
    while work:
        p, t = work.pop()
        t = store.deref(t)
        if isinstance(p, PVar):
            captures[p.name] = t
            continue
        if isinstance(p, PAnon):
            continue
        if isinstance(t, Var):
            return _MATCH_UNDET, t
        if isinstance(p, PLit):
            if isinstance(t, (Atom, Int)) and t == p.value:
                continue
            return _MATCH_FAIL, None
        if isinstance(p, PCompound):
            if (isinstance(t, Compound) and t.label == p.label
                    and len(t.args) == len(p.args)):
                work.extend(reversed(list(zip(p.args, t.args))))
                continue
            return _MATCH_FAIL, None
        raise TypeError(f"bad pattern {p!r}")
    return _MATCH_OK, captures


# -- tasks --------------------------------------------------------------------


class Task:
    """A stack of (statement, env) frames and the one loop that reduces them.

    A task runs in one of three modes.  A ``thread`` task is a thread's,
    sliced by the scheduler; only it may create threads and sleep.  A
    ``guard`` task runs the guard of an ``if`` arm to its end inside one
    reduction of the task that reached the ``if``.  An ``engine`` task is
    a search engine's (``engine``), run to its next answer; only it may
    push choicepoints.  A guard inside an engine is a guard."""

    def __init__(self, rt: "Runtime", mode: str = "thread", engine=None):
        self.rt = rt
        self.mode = mode
        self.engine = engine
        self.stack: list = []

    def push(self, stmt, env):
        self.stack.append((stmt, env))

    def push_block(self, block, env):
        """Push the statements of a block, or the compiled body of a
        local, so that the first runs next."""
        stack = self.stack
        for stmt in block.pushed:
            stack.append((stmt, env))

    def push_body(self, stmt, env):
        """Push a body: a block's statements flat, any other statement
        as one frame."""
        stack = self.stack
        if type(stmt) is Block:
            for s in stmt.pushed:
                stack.append((s, env))
        else:
            stack.append((stmt, env))

    def run(self, budget: Optional[int] = None) -> bool:
        """Reduce frames until the stack is empty (True) or ``budget``
        reductions have run (False; no budget is no bound).

        Each reduction pops a frame, counts it in ``stats.reductions``
        (``StepLimit`` past ``rt.step_limit``) and runs it.  A suspended
        frame goes back on the stack and the ``Suspend`` propagates, as
        do a ``SleepRequest`` and any error.  An engine's failure
        backtracks to its newest choicepoint, which swaps the stack, and
        propagates only when none is left; a reduction that grew an
        engine's trail is checked for escapes.  A thread's deepest stack,
        at the start of a reduction or at the end of the budget, goes to
        ``stats.max_depth``."""
        stack = self.stack
        stats = self.rt.stats
        limit = self.rt.step_limit
        engine = self.engine
        depth = stats.max_depth
        try:
            for _ in (_repeat(None) if budget is None else range(budget)):
                if not stack:
                    return True
                if len(stack) > depth:
                    depth = len(stack)
                stmt, env = stack.pop()
                stats.reductions += 1
                if limit is not None and stats.reductions > limit:
                    raise StepLimit()
                try:
                    exec_stmt(self, stmt, env)
                except Suspend:
                    stack.append((stmt, env))
                    raise
                except Failure:
                    if engine is None or not engine.backtrack():
                        raise
                    stack = self.stack
                    continue
                if engine is not None and len(engine.trail) > engine.checked:
                    engine.check_escapes()
            if len(stack) > depth:
                depth = len(stack)
            return not stack
        finally:
            # no thread runs inside another's run, so none has gone deeper
            if self.mode == "thread":
                stats.max_depth = depth


# -- one statement reduction -------------------------------------------------------


def exec_stmt(task: Task, stmt, env):
    rt = task.rt
    store = rt.store
    kind = type(stmt)

    if kind is Block:
        task.push_block(stmt, env)
        return

    if kind is Unify:
        e1, e2 = stmt.lhs, stmt.rhs
        k1, k2 = type(e1), type(e2)
        if k1 is CVar and k2 is CCompound:
            res = unify_compound(store, env_get(env, e1.name), e2, env, True)
        elif k2 is CVar and k1 is CCompound:
            res = unify_compound(store, env_get(env, e2.name), e1, env, False)
        elif k1 is CFresh:
            # the first use of a local name (compiled to the left): it is
            # the built term
            env[e1.name] = build_term(store, e2, env)
            return
        else:
            t1 = env_get(env, e1.name) if k1 is CVar else build_term(store, e1, env)
            t2 = env_get(env, e2.name) if k2 is CVar else build_term(store, e2, env)
            res = store.unify(t1, t2)
        if res is not None:
            if res.woken:
                rt.wake(res.woken)
            if not res.ok:
                raise Failure(f"unification failed: {res.reason}")
        return

    if kind is Local:
        frame = {}
        for name in stmt.made:
            frame[name] = store.new_var()
        frame[_UP] = env
        task.push_block(stmt, frame)
        return

    if kind is Call:
        target = stmt.target
        target = (env_get(env, target.name) if type(target) is CVar
                  else build_term(store, target, env))
        target = store.deref(target)
        if isinstance(target, Closure):
            if len(stmt.args) != len(target.params):
                raise OzkError(
                    f"{{{target.name or 'a procedure'}}} expects "
                    f"{len(target.params)} arguments, got {len(stmt.args)}")
            args = {}
            for p, a in zip(target.params, stmt.args):
                args[p] = (env_get(env, a.name) if type(a) is CVar
                           else build_term(store, a, env))
            args[_UP] = target.env
            task.push_body(target.body, args)
            return
        if isinstance(target, NativeProc):
            if len(stmt.args) != target.arity:
                raise OzkError(f"{{{target.name}}} expects {target.arity} "
                               f"arguments, got {len(stmt.args)}")
            args = [build_term(store, a, env) for a in stmt.args]
            target.fn(task, args)
            return
        if isinstance(target, Var):
            raise Suspend([target])
        raise OzkError(f"cannot call {render(store, target)}")

    if kind is CaseStmt:
        subject = build_term(store, stmt.subject, env)
        for arm in stmt.arms:
            status, payload = match_pattern(store, arm.pattern, subject)
            if status == _MATCH_OK:
                payload[_UP] = env
                task.push_body(arm.body, payload)
                return
            if status == _MATCH_UNDET:
                raise Suspend([payload])
        task.push_body(stmt.otherwise, env)
        return

    if kind is BuiltinCall:
        fn = rt.builtins.get(stmt.name)
        if fn is None:
            raise OzkError(f"unknown builtin {stmt.name}")
        args = [build_term(store, a, env) for a in stmt.args]
        fn(task, args)
        return

    if kind is IfStmt:
        exec_if(task, stmt, env)
        return

    if kind is Skip:
        return

    if kind is ProcDef:
        closure = Closure(stmt.name, stmt.params, stmt.body, env)
        res = store.unify(env_get(env, stmt.name), closure)
        if res.woken:
            rt.wake(res.woken)
        if not res.ok:
            raise Failure(f"{stmt.name} is already bound to something else")
        return

    if kind is ThreadStmt:
        if task.mode != "thread":
            raise ThreadInSearchError(
                "cannot create a thread inside a " + (
                    "guard" if task.mode == "guard" else "search engine"))
        rt.spawn(stmt.body, env)
        return

    if kind is Fail:
        raise Failure("fail statement")

    if kind is Choice:
        if task.engine is None:
            raise ChoiceOutsideSearchError(
                "choice is only allowed inside a search engine")
        task.engine.push_choicepoint(stmt.alternatives, env)
        return

    raise TypeError(f"cannot execute {stmt!r}")


_PURE_TESTS = frozenset(("==", "<", ">", "=<", ">=", "$test"))


def exec_if(task: Task, stmt: IfStmt, env):
    """Try the arms in order; commit to the first whose guard succeeds.

    Guards run speculatively on a fresh trail.  An undetermined guard
    suspends the whole conditional (sequential semantics), a failing one
    moves on to the next arm, and a successful one must not have bound
    anything that existed before it started.
    """
    rt = task.rt
    store = rt.store
    for arm in stmt.arms:
        guard = arm.guard
        if (not arm.guard_vars and type(guard) is BuiltinCall
                and guard.name in _PURE_TESTS and len(guard.args) <= 2):
            # pure test: cannot bind anything, so no trail is needed
            try:
                exec_stmt(task, guard, env)
            except Failure:
                continue
            task.push_body(arm.body, env)
            return
        age_mark = store.next_seq
        genv = (env_child(env, {n: store.new_var() for n in arm.guard_vars})
                if arm.guard_vars else env)
        store.push_trail()
        guard = Task(rt, "guard")
        guard.push(arm.guard, genv)
        try:
            guard.run()
        except Failure:
            store.undo_to(0)
            store.pop_trail(merge=False)
            continue
        except BaseException:
            # a suspension, the step budget or an error: the guard's
            # trail goes with it, or every later binding would be trailed
            store.undo_to(0)
            store.pop_trail(merge=False)
            raise
        entries = store.trails[-1]
        for entry_kind, var in entries:
            if entry_kind == "bind" and (var.vid[0] != store.node_id
                                         or var.vid[1] < age_mark):
                store.undo_to(0)
                store.pop_trail(merge=False)
                raise QuietGuardViolation(
                    "guard bound a variable that exists outside it")
        store.pop_trail(merge=True)
        task.push_body(arm.body, genv)
        return
    task.push_body(stmt.otherwise, env)


# -- threads -----------------------------------------------------------------

RUNNABLE = "runnable"
SUSPENDED = "suspended"
SLEEPING = "sleeping"
TERMINATED = "terminated"
FAILED = "failed"
STOPPED = "stopped"      # by the step budget or an error


class OzThread:
    __slots__ = ("tid", "task", "status", "waiting_on", "byneed")

    def __init__(self, tid: int, task: Task):
        self.tid = tid
        self.task = task
        self.status = RUNNABLE
        self.waiting_on: list = []
        self.byneed = False


@dataclass
class Stats:
    reductions: int = 0
    spawned: int = 0
    exits: Counter = field(default_factory=Counter)   # exit status -> count
    max_depth: int = 0               # the deepest stack of any thread


@dataclass
class RunResult:
    status: str                      # done | failed | deadlock | limit
    clock: int
    browses: list
    browse_log: list
    failures: list
    suspended: list
    stats: Stats
    idle: list = field(default_factory=list)


TIMESLICE = 1000


class Runtime:
    """The scheduler over one store.

    Only live state is kept.  After :meth:`run` returns, the runtime
    holds the threads that are still suspended (``threads``) and the
    failure texts of threads that failed since the last verdict
    (``unreported_failures``); between the runs of a network simulation,
    which drives :meth:`drain` itself, it also holds sleeping threads in
    the heap of ``(wake_at, tid)`` pairs.  A thread that ends leaves
    ``threads`` at once and is counted in ``stats.exits``.  When the step
    budget or an error stops a run, the thread that ran and every other
    runnable or sleeping thread leave with status ``stopped``.  The lines
    browsed during a run go to its :class:`RunResult` and leave
    ``browses`` and ``browse_log``; a run stopped by an error drops them,
    and its failures, with the exception."""

    def __init__(self, store: Optional[Store] = None, builtins: Optional[dict] = None,
                 policy: str = "fifo", seed: Optional[int] = None,
                 max_steps: Optional[int] = None, real_time: bool = False,
                 on_browse: Optional[Callable[[str], None]] = None,
                 on_trace: Optional[Callable[[str, dict], None]] = None):
        self.store = store if store is not None else Store()
        self.builtins = builtins if builtins is not None else {}
        self.policy = policy
        self.rng = _random.Random(seed)
        self.max_steps = max_steps
        self.step_limit: Optional[int] = None   # see renew_budget
        self.real_time = real_time
        self.on_browse = on_browse
        self.on_trace = on_trace
        self.clock = 0
        self.threads: dict[int, OzThread] = {}
        self.runq: deque = deque()
        self.sleepers: list[tuple[int, int]] = []
        self.unreported_failures: dict[int, str] = {}
        self.next_tid = 1
        self.stats = Stats()
        self.browses: list = []
        self.browse_log: list = []
        self.renew_budget()

    # -- bookkeeping -----------------------------------------------------

    def renew_budget(self) -> None:
        """Give the work that starts now ``max_steps`` reductions of its
        own: each :meth:`run`, each network simulation and each answer an
        engine is asked for outside a run (the REPL's ``:solve`` and
        ``:next``).  ``step_limit`` is the count of ``stats.reductions``
        past which ``StepLimit`` is raised."""
        if self.max_steps is not None:
            self.step_limit = self.stats.reductions + self.max_steps

    def trace(self, kind: str, **payload):
        if self.on_trace is not None:
            self.on_trace(kind, payload)

    def browse(self, term: Term):
        text = render(self.store, term)
        self.browses.append(text)
        self.browse_log.append((self.clock, text))
        if self.on_browse is not None:
            self.on_browse(text)

    # -- thread management --------------------------------------------------

    def spawn(self, stmt, env) -> int:
        tid = self.next_tid
        self.next_tid += 1
        thread = OzThread(tid, Task(self))
        thread.task.push(stmt, env)
        self.threads[tid] = thread
        self.runq.append(tid)
        self.stats.spawned += 1
        self.trace("spawn", tid=tid)
        return tid

    def wake(self, tids):
        for tid in tids:
            t = self.threads.get(tid)
            if t is None or t.status != SUSPENDED:
                continue
            for v in t.waiting_on:
                self.store.drop_waiter(v, tid)
            t.waiting_on = []
            t.status = RUNNABLE
            self.runq.append(tid)
            self.trace("wake", tid=tid)

    def _park(self, thread: OzThread, susp: Suspend):
        woken: set[int] = set()
        thread.waiting_on = list(susp.vars)
        thread.byneed = susp.byneed
        for v in susp.vars:
            if susp.byneed:
                self.store.add_byneed_waiter(v, thread.tid)
            else:
                woken |= self.store.add_waiter(v, thread.tid)
        thread.status = SUSPENDED
        self.trace("suspend", tid=thread.tid,
                   vids=[v.vid for v in susp.vars], byneed=susp.byneed)
        if woken:
            self.wake(woken)

    def _sleep(self, thread: OzThread, ms: int):
        wake_at = self.clock + max(0, ms)
        thread.status = SLEEPING
        heapq.heappush(self.sleepers, (wake_at, thread.tid))
        self.trace("sleep", tid=thread.tid, until=wake_at)

    def _finish(self, thread: OzThread, status: str, failure: Optional[str] = None):
        del self.threads[thread.tid]
        self.stats.exits[status] += 1
        if status == FAILED:
            self.unreported_failures[thread.tid] = failure
        self.trace("exit", tid=thread.tid, status=status, failure=failure)

    # -- scheduling -----------------------------------------------------------

    def _pick(self) -> int:
        if self.policy == "random":
            i = self.rng.randrange(len(self.runq))
            self.runq.rotate(-i)
            tid = self.runq.popleft()
            self.runq.rotate(i)
            return tid
        return self.runq.popleft()

    def _slice(self, thread: OzThread):
        self.trace("run", tid=thread.tid)
        try:
            done = thread.task.run(TIMESLICE)
        except Suspend as s:
            self._park(thread, s)
            return
        except SleepRequest as s:
            self._sleep(thread, s.ms)
            return
        except Failure as f:
            self._finish(thread, FAILED, f.reason)
            return
        except BaseException:
            # StepLimit or an error: the thread is not resumed, so it
            # leaves with its frames before the exception goes on
            self._finish(thread, STOPPED)
            raise
        if done:
            self._finish(thread, TERMINATED)
        else:
            self.runq.append(thread.tid)

    def drain(self) -> None:
        """Run runnable threads until none is left.

        The clock is never advanced and no verdict is reached: :meth:`run`,
        or a network simulation, owns time and decides when the whole
        system is quiescent.  ``StepLimit`` propagates."""
        while self.runq:
            self._slice(self.threads[self._pick()])

    def next_wake(self) -> Optional[int]:
        """Earliest wake-up time among sleeping threads, or None."""
        return self.sleepers[0][0] if self.sleepers else None

    def wake_due(self) -> None:
        """Move sleepers whose time has come back onto the run queue, in
        (wake time, tid) order."""
        sleepers = self.sleepers
        while sleepers and sleepers[0][0] <= self.clock:
            tid = heapq.heappop(sleepers)[1]
            self.threads[tid].status = RUNNABLE
            self.runq.append(tid)

    def verdict(self) -> tuple[list, list, list]:
        """``(failures, suspended, idle)`` for the threads at rest.

        Each failure is reported once, in tid order: a later verdict on
        the same runtime (the interactive loop) does not repeat old news.
        A thread parked until someone *needs* a value is an idle producer;
        only threads stuck waiting for a value count as deadlocked."""
        failures = [self.unreported_failures[tid]
                    for tid in sorted(self.unreported_failures)]
        self.unreported_failures.clear()
        suspended, idle = [], []
        for t in self.threads.values():
            if t.status != SUSPENDED:
                continue
            if t.byneed:
                idle.append(t.tid)
            else:
                suspended.append((t.tid, [v.vid for v in t.waiting_on]))
        return failures, suspended, idle

    def _stop(self) -> None:
        """End a run that the step budget or an error stopped: every
        runnable or sleeping thread leaves with status ``stopped``, in tid
        order, so the next run does not resume it.  Suspended threads
        stay, as they do after a deadlock."""
        for tid in sorted(self.threads):
            thread = self.threads[tid]
            if thread.status != SUSPENDED:
                self._finish(thread, STOPPED)
        self.runq.clear()
        self.sleepers.clear()

    def run(self) -> RunResult:
        status = "done"
        self.renew_budget()
        try:
            while True:
                self.drain()
                wake_at = self.next_wake()
                if wake_at is None:
                    break
                if self.real_time and wake_at > self.clock:
                    _time.sleep((wake_at - self.clock) / 1000.0)
                self.clock = max(self.clock, wake_at)
                self.trace("clock", now=self.clock)
                self.wake_due()
        except StepLimit:
            status = "limit"
            self._stop()
        except BaseException:
            # an error: the run's output and failures go with it
            self._stop()
            self.browses, self.browse_log = [], []
            self.unreported_failures.clear()
            raise

        failures, suspended, idle = self.verdict()
        if status == "done":
            if failures:
                status = "failed"
            elif suspended:
                status = "deadlock"
        # The run's output goes to its result and leaves the runtime, so
        # a long session keeps no lines from earlier runs.
        browses, self.browses = self.browses, []
        browse_log, self.browse_log = self.browse_log, []
        return RunResult(status, self.clock, browses, browse_log,
                         failures, suspended, self.stats, idle)
