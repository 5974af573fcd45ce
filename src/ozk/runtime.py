"""Statement execution, green threads and the cooperative scheduler.

The runtime runs only the compiled form (see compiler.py).  One
instruction reduction at a time: a task owns a stack of (instruction,
frame) pairs, and `Task.run` is the one loop that reduces them.  It pops
the top pair, counts it against the step budget and has `exec_stmt`
interpret it, which pushes continuations.  Threads, the guards of `if`
arms and search engines are all tasks run by that loop; what a task
holds decides what it may do (only a thread, which has a tid, creates
threads and sleeps; only an engine's task, which holds the engine,
pushes choicepoints) and how a signal leaves it.  A thread
runs a timeslice of its own reductions at a time; a guard or an engine
runs to its end inside one reduction of the task that started it, so
its reductions do not use up that task's timeslice.  Each of those two
runs in a computation space (`terms.Space`; an engine is one with
choicepoints), which holds its trail and the rule of which variables it
owns, and checks that it binds no other; this module keeps no trail.

A frame is a list, one per procedure call, per thread and per top-level
piece: the code, the arguments, a slot for every name the body declares
and the values the closure captured.  Every operand that names a
variable is a slot index, so a name costs one list index and never a
lookup.  A call makes the frame (`call_frame`, inlined in `exec_stmt`),
and so does a `thread`, which captures the values of the names its body
uses when it is created, so that its temporaries die with it; a
`local`, a `case` arm, a guard or a choice alternative writes its names
into the slots of the frame it runs in and makes none of its own.

A thread clears each frame slot once its last read is done: after a
reduction completes, `Task.run` writes None into each slot that
`exec_stmt` returns, the instruction's `clear`, or for a `case` or an
`if` the clear of the arm it entered (the compiler's clearing rule,
compiler.py).  A `{Delay T}` completes by raising `SleepRequest`, and
clears first.  A suspended statement clears nothing, as it runs again,
and a guard or an engine never clears, as a failed guard's next arm and
a choicepoint's untried alternatives read the same frame.

A block pushes all of its statements in one reduction, and a body that
is a block or a `local` (of a procedure, an `if` or `case` arm, an
`else`, a `thread`, a search engine's goal or a trigger) is entered by
what pushes it: its variables are made and its statements pushed, with
no reduction of its own (`Task.push_body`).  A `thread`'s body is
entered when the thread is spawned, so its variables are made then.  A
nested block that makes no variable is not there to enter: the compiler
splices its statements into the block around it.  Tail calls replace
the popped pair, so the stack stays flat through recursion.  A call
reads its target's slot and follows the one link from the variable
there (a global or a captured name) to the procedure inline; only a
longer chain goes through `Store.deref`.

A lazy call leaves a by-need trigger on its result and spawns nothing:
the frame of its body, which captures its free names as a `thread`'s
does, kept on the variable itself (`Var.trigger`, `Runtime.by_need`),
so that a trigger nothing needs is freed with its variable (Van Roy &
Haridi, *Concepts, Techniques, and Models of Computer Programming*,
2004, sections 4.5 and 13.1.13).  When a statement of a thread task
suspends on a variable's value and the variable has a trigger, the task
pushes the statement back, enters the trigger's body above it and
carries on (`Task.enter`): the body runs as a call would, and the
statement runs again once it ends.  Every other need fires the trigger
as a thread of its own (`Runtime.fire`): a later variable of a thread
that parks, the value suspension of a guard inside a thread reaching
that thread, a binding that spreads need, the binding of the variable
itself, or a lazy call whose result is already needed or bound.  A
binding of the variable to another one that is unbound and not needed
moves the trigger there.  `{WaitNeeded X}` is a suspension by need and
fires nothing; an engine's suspension stops it as before
(`SearchStuckError`), and a lazy call in a guard or an engine is an
error, as a `thread` there is.

A body entered in place is a thread's to split, as in lazy task
creation (Mohr, Kranz & Halstead, IEEE TPDS 1991): the task remembers
the height of its stack where each entered body starts, and the
statement that needed the value, below it (`Task.entered`).  When a
statement of the body suspends, sleeps or fails before the body ends,
the pairs above that height become a thread of their own, which parks
on the same variables, sleeps or fails with the same text
(`Task.split`, `Runtime.split`); the needer runs the statement that
needed the value again, and parks on it if the body left it unbound.
A body that has not ended when the timeslice does is split off too, as
a runnable thread (`Task.split_unended`).  So a body that binds its
result and then blocks, or runs on, still lets its needer go on.

A unification statement runs through `exec_unify`, as a reduction of
its own.  An engine's `choice` runs its alternatives' leading
unifications inside its own reduction, each alternative's as one
generated function that settles the common cases inline and calls
`unify_compound` or `exec_unify` for the others, and pushes only the
rest of the one it enters (`search.Engine.choose`).  An engine's call of a procedure whose body
is a `choice` enters that choice in the same step, counting it as a
reduction of its own; a thread or a guard pushes it.

`X = f(...)` is compiled unification, run from the read plan the
compiler gave its compound (`compiler.Plan`; `unify_compound`).  When
`X` is already a compound of the same label and arity, nothing is built
(read mode): the plan lists the arguments that are not voids, each a
first use, a value, a literal or a nested compound, split into the first
uses and the other pairs, and is taken in place of a dispatch on each
argument's type.  The first uses take the compound's arguments in one
loop, and each other entry pairs its value with its argument; a plan
with no pair is done, and the pairs, one or several, go to one
`Store.unify`.  A nested compound argument is built and paired, so read
mode stops at the first level.  Any other value of `X` is unified with
the built term (write mode).

A unification returns None when it succeeds and the failed
`terms.UnifyResult`, which names the clash, when it fails; it returns no
threads to wake.  The store wakes them itself: each binding and each
need mark makes the threads suspended on that variable runnable through
the store's `wake` hook, which is `Runtime.wake`, as it fires triggers
through its `fire` hook, `Runtime.fire`.  No statement wakes a thread.

The integer operators `+ - * div` and `< > =< >=` run inline
(`exec_op`): each operand comes from its slot or is the literal and is
dereferenced once, and an unbound one suspends the statement.  `==` as
the test of an `if` compares two integers or two atoms inline
(`exec_equal_test`); any other `==`, and `$test`, run in `_equal` and
`_test`.  A `case` runs the compiled patterns of its arms
(`match_case`), which write their captures straight into their slots.

A `local` makes a variable only for the slots of its `made`.  Each other
name is first used as a `Fresh`, in a `X = f(...)` of its body or as the
result of an operator.  In read mode it takes the compound's argument as
its value, with no variable and no binding; where the term is built it
makes the variable there; an operator stores the integer (or `true` or
`false`) it computes.  Either way the value is stored in the name's
slot.

A failure's text is made only when something reads it (`Failure`): an
engine backtracks from most failures without ever showing one.

Threads are cooperatively scheduled in timeslices over a single store.
Blocking is dataflow only: a thread that needs a variable's value parks
on it and is woken by the binding; threads wake in the order their
variables are bound.  Time is virtual: `Delay` sleeps the thread, and
the clock jumps forward only when nothing is runnable.  A timeslice
returns the signal that stopped its thread, where a guard or an engine
raises it to its caller, and the scheduler parks, sleeps or fails the
thread from that value (`Task.run`, `Runtime._slice`).

Every choice of what goes next is made by `take_next`'s rule, over
candidates listed oldest first and an order: None takes the first, a
seeded `random.Random` any; each scheduler takes its next runnable
thread by it.  One event loop, `run_events`, runs both a single runtime
(`Runtime.run`) and a network simulation's nodes (dist.py): each step
picks a runtime with a runnable thread, in node order, or a pending
message, oldest first.  With no order every runtime drains before the
oldest message goes; with a net seed a picked runtime runs one
timeslice, so a delivery can come between any two slices.  The policy
names of the command line and of `Session` are mapped to an order in
one place, `sched_order`.
"""

from __future__ import annotations

import heapq
import operator as _operator
import random as _random
import time as _time
from collections import Counter, deque
from functools import cached_property
from itertools import repeat as _repeat
from typing import Callable, Optional

from .errors import ChoiceOutsideSearchError, OzkError, ThreadInSearchError
from .compiler import (EQ_TEST, OP_TEST, READ_LITERAL, READ_SLOT, TEST,
                       Body, Build, Builtin, Call, Case, Choice, Fail,
                       Fresh, If, Lazy, Op, Plan, Proc, Skip, Thread, Unify)
from .terms import (FALSE, INT_MAX, INT_MIN, TRUE, Atom, Closure, Compound,
                    Int, NativeProc, Space, Store, Term, UnifyResult, Var,
                    render)

# -- control-flow signals -----------------------------------------------------


class Failure(Exception):
    """Declarative failure: a unification or test came out false.

    Its text is made only when it is read (``reason``): ``why`` is the
    text, a failed :class:`UnifyResult`, or a false comparison ``(x,
    name, y)``.  A search engine fails and backtracks far more often than
    anything shows a failure's text."""

    def __init__(self, why=""):
        super().__init__(why)
        self.why = why

    @property
    def reason(self) -> str:
        why = self.why
        if type(why) is str:
            return why
        if type(why) is tuple:
            x, name, y = why
            return f"{x}{name}{y} is false"
        return "unification failed: " + why.reason


class Suspend(Exception):
    """The current statement needs variables that are still unbound.  It
    goes back on the stack to run again, unless ``again`` is the pair to
    run in its place (``builtins._bind``)."""
    again = None

    def __init__(self, vars_: list, byneed: bool = False):
        self.vars = vars_
        self.byneed = byneed


class SleepRequest(Exception):
    def __init__(self, ms: int):
        self.ms = ms


class StepLimit(Exception):
    pass


# -- building terms ------------------------------------------------------------


def build_term(store: Store, expr, frame: list) -> Term:
    """The term an operand stands for in ``frame``; a void or a first use
    makes a variable."""
    kind = type(expr)
    if kind is int:
        return frame[expr]
    if kind is Build:
        exprs = expr.args
        if exprs and type(exprs[-1]) is Build:
            return _build_spine(store, expr, frame)
        args = []
        for a in exprs:
            k = type(a)
            if k is int:
                args.append(frame[a])
            elif a is None:
                args.append(store.new_var())
            elif k is Fresh:
                v = frame[a.slot] = store.new_var()
                args.append(v)
            elif k is Build:
                args.append(build_term(store, a, frame))
            else:
                args.append(a)
        return Compound(expr.label, args)
    if expr is None:
        return store.new_var()
    if kind is Fresh:
        v = frame[expr.slot] = store.new_var()
        return v
    return expr


def _build_spine(store: Store, expr: Build, frame: list) -> Term:
    """Build a compound down the chain of its last arguments in a loop.

    Only the other arguments are built by recursion, so a long list (a
    chain of '|' cells) takes no stack.  Arguments are built in the same
    order as by plain recursion."""
    cells = []
    while type(expr) is Build and expr.args:
        cells.append(Compound(expr.label, [build_term(store, a, frame)
                                           for a in expr.args[:-1]]))
        expr = expr.args[-1]
    term = build_term(store, expr, frame)
    for cell in reversed(cells):
        cell.args.append(term)
        term = cell
    return term


# -- compiled unification ---------------------------------------------------------


def unify_compound(store: Store, value: Term, plan: Plan, frame: list):
    """Unify ``value`` with the compound operand of ``plan``.

    The statement ``X = f(A1 ... An)`` (or ``f(A1 ... An) = X``) comes
    here with the value of ``X``.  If it is a compound of the same label
    and arity, nothing is built (read mode): the plan's steps, one for
    each argument that is not a void, are taken in place of a dispatch on
    each argument's type (the WAM's ``get_structure`` with
    ``unify_variable`` and ``unify_value``, the voids being
    ``unify_void``).  A first use (``Fresh``) takes the compound's
    argument as its value in ``frame`` and adds no pair: unifying a fresh
    variable would only have bound it to that argument.  A value or a
    literal is paired with the compound's argument in the statement's
    orientation, and a nested compound is built and paired, so read mode
    stops at the first level.

    The first uses (``plan.firsts``) are written in one loop before
    anything is paired; no step reads a slot they write, as each first
    use occurs once in the statement.  A plan with no other step is then
    done.  The other steps (``plan.reads``) go, one or several, to one
    :meth:`Store.unify`, whose stack the pairs seed, so they are taken
    last to first, as if the term had been built and unified.

    A compound of another label or arity gives a failed result, whose
    text is the one unification gives, and so does a value that is
    neither a compound nor a variable, with nothing built.  A variable is
    unified with the built term (write mode).  As :meth:`Store.unify`,
    returns None when it succeeded, else the failed :class:`UnifyResult`;
    a binding wakes its own waiters.

    A statement of a thread or a guard runs here (``exec_unify``).  A
    search engine's compiled heads (``search.compile_head``) settle most
    of theirs inline and call this for the rest, so it is also their
    reference."""
    t = value
    if type(t) is Var and t.ref is not None:
        t = t.ref
        if type(t) is Var and t.ref is not None:
            t = store.deref(t)
    if type(t) is not Compound:
        if type(t) is not Var:
            return UnifyResult((t, plan.build) if plan.value_left
                               else (plan.build, t))
        built = build_term(store, plan.build, frame)
        return (store.unify(t, built) if plan.value_left
                else store.unify(built, t))
    xs = t.args
    if t.label != plan.label or len(xs) != plan.arity:
        return UnifyResult((t, plan.build) if plan.value_left
                           else (plan.build, t))
    for i, slot in plan.firsts:
        frame[slot] = xs[i]
    reads = plan.reads
    if not reads:
        return None
    pairs = []
    for i, tag, a in reads:
        pairs.append((xs[i], frame[a] if tag is READ_SLOT
                      else a if tag is READ_LITERAL
                      else build_term(store, a, frame)))
    if not plan.value_left:
        pairs = [(v, x) for x, v in pairs]
    a, b = pairs.pop()
    return store.unify(a, b, pairs)


def exec_unify(store: Store, stmt: Unify, frame: list):
    """Run the unification statement ``stmt`` in ``frame``: None when it
    succeeds, else the failed :class:`UnifyResult`.  The store wakes the
    threads its bindings wake.  A reduction of ``stmt`` runs it this way,
    and so does a ``choice`` head for a statement that its compiled form
    does not settle inline (``search``)."""
    plan = stmt.plan
    if plan is not None:
        return unify_compound(store, frame[plan.slot], plan, frame)
    e1, e2 = stmt.lhs, stmt.rhs
    k1, k2 = type(e1), type(e2)
    if k1 is Fresh:
        # the first use of a local name (compiled to the left): it is the
        # built term
        frame[e1.slot] = build_term(store, e2, frame)
        return None
    return store.unify(frame[e1] if k1 is int else build_term(store, e1, frame),
                       frame[e2] if k2 is int else build_term(store, e2, frame))


# -- integer operators ------------------------------------------------------------


def int_value(store: Store, t: Term) -> int:
    """The integer ``t`` stands for, dereferenced once: an unbound
    variable suspends, and any other value that is not an integer is an
    error."""
    if type(t) is Var:
        t = store.deref(t)
        if type(t) is Var:
            raise Suspend([t])
    if type(t) is not Int:
        raise OzkError(f"expected an integer, got {render(store, t)}")
    return t.value


def exec_op(rt: "Runtime", stmt: Op, frame: list):
    """Run the integer operator statement ``stmt`` (``+ - * div`` and
    ``< > =< >=``) in ``frame``: None when it succeeds, else why it
    failed (see :class:`Failure`).  Each operand is a slot or a literal;
    the first is checked, and suspended on, before the second.  A result
    that is a first use (``Fresh``) stores the value in the frame, with no
    variable and no binding; any other result is unified with it.  A
    comparison with no result is a test."""
    store = rt.store
    a = stmt.a
    k = type(a)
    t = frame[a] if k is int else a if k is Int else build_term(store, a, frame)
    x = t.value if type(t) is Int else int_value(store, t)
    a = stmt.b
    k = type(a)
    t = frame[a] if k is int else a if k is Int else build_term(store, a, frame)
    y = t.value if type(t) is Int else int_value(store, t)
    r = stmt.r
    if stmt.arith:
        if not y and stmt.fn is _operator.floordiv:
            raise OzkError("division by zero")
        v = stmt.fn(x, y)
        if not INT_MIN <= v <= INT_MAX:
            raise OzkError(f"integer overflow in {stmt.name}")
        value = Int(v)
    elif r is None:
        return None if stmt.fn(x, y) else (x, stmt.name, y)
    else:
        value = TRUE if stmt.fn(x, y) else FALSE
    k = type(r)
    if k is Fresh:
        frame[r.slot] = value
        return None
    return store.unify(frame[r] if k is int else build_term(store, r, frame),
                       value)


def exec_equal_test(task: "Task", stmt: Builtin, frame: list) -> bool:
    """Whether the test ``A == B`` holds.  Two integers or two atoms are
    compared here; anything else goes to :func:`_equal`, which suspends
    on the variables that could still decide it."""
    store = task.rt.store
    a, b = stmt.args
    x = frame[a] if type(a) is int else build_term(store, a, frame)
    y = frame[b] if type(b) is int else build_term(store, b, frame)
    if type(x) is Var:
        x = store.deref(x)
    if type(y) is Var:
        y = store.deref(y)
    kind = type(x)
    if kind is type(y):
        if kind is Int:
            return x.value == y.value
        if kind is Atom:
            return x.name == y.name
    try:
        _equal(task, [x, y])
    except Failure:
        return False
    return True


def _equal(task: "Task", args) -> None:
    """``A == B`` as a test, or ``R = (A == B)`` with three arguments."""
    store = task.rt.store
    res, frontier = store.equals(args[0], args[1])
    if res is None:
        raise Suspend(frontier)
    if len(args) == 2:
        if not res:
            raise Failure("== is false")
        return
    clash = store.unify(args[2], TRUE if res else FALSE)
    if clash is not None:
        raise Failure(clash)


def _test(task: "Task", args) -> None:
    """``$test``: an ``if`` condition, which must be true or false."""
    store = task.rt.store
    v = store.deref(args[0])
    if type(v) is Var:
        raise Suspend([v])
    if v == TRUE:
        return
    if v == FALSE:
        raise Failure("condition is false")
    raise OzkError(f"a condition must be true or false, got {render(store, v)}")


# -- pattern matching -----------------------------------------------------------


def match_case(store: Store, pattern, t: Term, frame: list):
    """Match the dereferenced value ``t`` against a compiled ``case``
    pattern, writing each capture, dereferenced, into its slot of
    ``frame``: True on a match, False on a clash, or the unbound variable
    that decides it.  Arguments are taken left to right, depth first, and
    the first variable or clash met decides.  The store is not changed;
    the chain of last arguments is followed in a loop."""
    while True:
        if type(pattern) is not tuple:
            if type(pattern) is int:
                frame[pattern] = t
                return True
            if pattern is None:
                return True
            if type(t) is Var:
                return t
            return t == pattern
        if type(t) is not Compound:
            return t if type(t) is Var else False
        label, arity, args = pattern
        xs = t.args
        if t.label != label or len(xs) != arity:
            return False
        last = arity - 1
        for i in range(arity):
            p = args[i]
            if p is None:
                continue
            x = xs[i]
            if type(x) is Var and x.ref is not None:
                x = store.deref(x)
            if type(p) is int:
                frame[p] = x
            elif type(p) is not tuple:
                if type(x) is Var:
                    return x
                if not x == p:
                    return False
            elif i == last:
                pattern, t = p, x
                break
            else:
                res = match_case(store, p, x, frame)
                if res is not True:
                    return res
        else:
            return True


# -- tasks --------------------------------------------------------------------

# the status of a thread
RUNNABLE = "runnable"
SUSPENDED = "suspended"
SLEEPING = "sleeping"
TERMINATED = "terminated"
FAILED = "failed"
STOPPED = "stopped"      # by the step budget or an error


class Task:
    """A stack of (instruction, frame) pairs and the one loop that reduces
    them.

    What a task holds says what it is.  A task with a ``tid`` is a
    thread, sliced by the scheduler, which keeps its state here:
    ``status``, and while it is suspended the variables it waits on
    (``waiting_on``) and whether it waits by need (``byneed``).  Only a
    thread may create threads and sleep.  A task with an ``engine`` is a
    search engine's, run to its next answer; only it may push
    choicepoints.  A task with neither runs the guard of an ``if`` arm to
    its end inside one reduction of the task that reached the ``if``; a
    guard inside an engine is a guard.  Only a thread clears the slots of
    a frame (see :meth:`run`), and only it enters a trigger's body on its
    own stack (see :meth:`suspended`): ``entered`` holds ``(height,
    pair)`` for each body it entered, the height of the stack where the
    body starts and the pair below it, the statement that needed the
    value, so that the body is known to have ended once that pair is no
    longer there."""
    __slots__ = ("rt", "tid", "engine", "stack", "entered", "status",
                 "waiting_on", "byneed")

    def __init__(self, rt: "Runtime", tid: Optional[int] = None,
                 engine=None):
        self.rt = rt
        self.tid = tid
        self.engine = engine
        self.stack: list = []
        self.entered = ()           # a list once a body is entered
        self.status = RUNNABLE
        self.waiting_on = ()
        self.byneed = False

    def push_block(self, block, frame):
        """Push the statements of a body or of the rest of a choice
        alternative, so that the first runs next."""
        stack = self.stack
        for stmt in block.pushed:
            stack.append((stmt, frame))

    def push_body(self, stmt, frame):
        """Push a body: a ``Body`` entered (a variable made in each slot of
        its ``made``, its statements pushed), any other statement as one
        pair."""
        if type(stmt) is Body:
            if stmt.made:
                new_var = self.rt.store.new_var
                for i in stmt.made:
                    frame[i] = new_var()
            stack = self.stack
            for s in stmt.pushed:
                stack.append((s, frame))
        else:
            self.stack.append((stmt, frame))

    def run(self, budget: Optional[int] = None):
        """Reduce pairs until the stack is empty (True), ``budget``
        reductions have run (False; no budget is no bound), or a thread
        stops on a signal, which is returned.

        Each reduction pops a pair, counts it in ``stats.reductions``
        (``StepLimit`` past ``rt.step_limit``) and runs it.  A suspended
        pair goes back on the stack, or the ``again`` pair of its
        ``Suspend`` in its place.  A thread task returns the
        ``Suspend``, ``SleepRequest`` or ``Failure`` that stopped it, its
        ``__traceback__`` cleared so that it holds no frame of the run;
        a guard or engine task raises it instead, as its caller acts on
        the exception.  An engine's failure backtracks to its newest
        choicepoint, which swaps the stack, and propagates only when none
        is left; a reduction that grew an engine's trail is checked for
        escapes.  Any error propagates.  In a thread, a reduction that
        completes then writes None into each slot that ``exec_stmt``
        returns, as one that ends in a ``SleepRequest`` does into each of
        its ``clear``; a suspended one clears nothing, as it runs again,
        unless an ``again`` pair runs in its place.
        A thread does not stop on a suspension, a ``SleepRequest`` or a
        failure while it can enter a trigger or split off an entered body
        instead (:meth:`suspended`, :meth:`split`), and a budget that
        runs out inside an entered body splits it off
        (:meth:`split_unended`)."""
        stack = self.stack
        stats = self.rt.stats
        limit = self.rt.step_limit
        engine = self.engine
        clears = self.tid is not None
        for _ in (_repeat(None) if budget is None else range(budget)):
            if not stack:
                return True
            stmt, frame = stack.pop()
            stats.reductions += 1
            if limit is not None and stats.reductions > limit:
                raise StepLimit()
            try:
                clear = exec_stmt(self, stmt, frame)
            except Suspend as s:
                if s.again is not None:
                    # done but for a bind, which alone runs again
                    for i in stmt.clear if clears else ():
                        frame[i] = None
                    stmt, frame = s.again
                stack.append((stmt, frame))
                if not clears:
                    raise
                if self.suspended(s):
                    continue
                s.__traceback__ = None
                return s
            except Failure as f:
                if engine is not None:
                    if engine.backtrack():
                        stack = self.stack
                        continue
                    raise
                if not clears:
                    raise
                if self.split(f):
                    continue
                f.__traceback__ = None
                return f
            except SleepRequest as s:
                # only a thread sleeps (``builtins._delay``)
                for i in stmt.clear:
                    frame[i] = None
                if self.split(s):
                    continue
                s.__traceback__ = None
                return s
            if clears:
                for i in clear:
                    frame[i] = None
            elif engine is not None and len(engine.trail) > engine.checked:
                engine.check_escapes()
        if self.entered:
            self.split_unended()
        return not stack

    def suspended(self, susp: Suspend) -> bool:
        """A statement of this thread suspended, and is back on the stack.
        On a value suspension, enter the trigger of the first of its
        variables that has one; else split off the body the statement is
        part of, if it was entered here.  False when neither is left, and
        the thread parks."""
        if not susp.byneed:
            for var in susp.vars:
                if var.trigger:
                    self.enter(var, susp.vars)
                    return True
        return self.split(susp)

    def enter(self, var: Var, needed: list) -> None:
        """Enter the trigger of ``var``, which the statement on top of the
        stack needs, above that statement, as a call enters a body: the
        statement runs again once the body ends.  Every variable of
        ``needed`` is marked needed, as parking on them would, so that
        their by-need waiters wake and their other triggers fire."""
        rt = self.rt
        store = rt.store
        frames = var.trigger
        var.trigger = None
        if len(frames) > 1:
            rt.fire(frames[1:])
        trigger = frames[0]
        store.mark_needed(var)
        if len(needed) > 1:
            for v in needed:
                store.mark_needed(v)
        stack = self.stack
        height = len(stack)
        entered = self.entered or []
        # forget the bodies that have ended
        while entered:
            mark, pair = entered[-1]
            if mark < height and stack[mark - 1] is pair:
                break
            entered.pop()
        entered.append((height, stack[-1]))
        self.entered = entered
        self.push_body(trigger[0].body, trigger)
        rt.stats.entered += 1
        if rt.on_trace is not None:
            rt.on_trace("enter", {"vid": var.vid})

    def split(self, signal) -> bool:
        """A statement of a body this thread entered suspended, slept or
        failed before the body ended (``signal`` is the ``Suspend``,
        ``SleepRequest`` or ``Failure``): the pairs above the innermost
        body's start become a thread of their own, which parks, sleeps or
        fails (``Runtime.split``), and the statement that needed the value
        runs next, again.  False when no entered body is left."""
        entered = self.entered
        stack = self.stack
        height = len(stack)
        while entered:
            mark, pair = entered.pop()
            if mark <= height and stack[mark - 1] is pair:
                break
        else:
            return False
        part = stack[mark:]
        del stack[mark:]
        self.rt.split(part, signal)
        return True

    def split_unended(self) -> None:
        """The budget ran out: each body this thread entered that has not
        ended becomes a runnable thread of its own, innermost first, and
        the statement that needed its value runs again in this thread's
        next slice.  So a body that binds its result and runs on holds up
        its needer for no more than a timeslice, as a thread would."""
        entered = self.entered
        stack = self.stack
        while entered:
            mark, pair = entered.pop()
            if mark < len(stack) and stack[mark - 1] is pair:
                part = stack[mark:]
                del stack[mark:]
                self.rt.split(part, None)


def call_frame(closure: Closure, args: list) -> list:
    """The frame of a call of ``closure`` with the values ``args``."""
    frame = [closure.code]
    frame += args
    frame += closure.code.blank
    frame += closure.env
    return frame


# -- one statement reduction -------------------------------------------------------


def exec_stmt(task: Task, stmt, frame: list):
    """Reduce ``stmt`` in ``frame``: the slots that a thread clears after
    it (see :meth:`Task.run`), the instruction's ``clear``, or for a
    ``case`` or an ``if`` the clear of the arm it entered."""
    rt = task.rt
    store = rt.store
    kind = type(stmt)

    if kind is Call:
        target = stmt.target
        target = (frame[target] if type(target) is int
                  else build_term(store, target, frame))
        # a global or a captured name is a variable one link from its
        # value: read that link here
        if type(target) is Var and target.ref is not None:
            target = target.ref
            if type(target) is Var and target.ref is not None:
                target = store.deref(target)
        if type(target) is Closure:
            code = target.code
            args = stmt.args
            if len(args) != code.arity:
                raise OzkError(
                    f"{{{code.name or 'a procedure'}}} expects "
                    f"{code.arity} arguments, got {len(args)}")
            callee = [code]
            for a in args:
                callee.append(frame[a] if type(a) is int
                              else build_term(store, a, frame))
            callee += code.blank
            callee += target.env
            body = code.body
            if type(body) is Choice and task.engine is not None:
                # an engine enters a callee's choice in this step, as a
                # reduction of its own
                stats, limit = rt.stats, rt.step_limit
                stats.reductions += 1
                if limit is not None and stats.reductions > limit:
                    raise StepLimit()
                task.engine.choose(body, callee)
                return stmt.clear
            task.push_body(body, callee)
            return stmt.clear
        if type(target) is NativeProc:
            if len(stmt.args) != target.arity:
                raise OzkError(f"{{{target.name}}} expects {target.arity} "
                               f"arguments, got {len(stmt.args)}")
            args = [build_term(store, a, frame) for a in stmt.args]
            target.fn(task, args)
            return stmt.clear
        if type(target) is Var:
            raise Suspend([target])
        raise OzkError(f"cannot call {render(store, target)}")

    if kind is Op:
        why = exec_op(rt, stmt, frame)
        if why is not None:
            raise Failure(why)
        return stmt.clear

    if kind is Case:
        subject = stmt.subject
        t = (frame[subject] if type(subject) is int
             else build_term(store, subject, frame))
        if type(t) is Var and t.ref is not None:
            t = store.deref(t)
        for pattern, body, clear in stmt.arms:
            res = match_case(store, pattern, t, frame)
            if res is True:
                task.push_body(body, frame)
                return clear
            if res is not False:
                raise Suspend([res])
        task.push_body(stmt.otherwise, frame)
        return stmt.else_clear

    if kind is Unify:
        why = exec_unify(store, stmt, frame)
        if why is not None:
            raise Failure(why)
        return stmt.clear

    if kind is Choice:
        if task.engine is None:
            raise ChoiceOutsideSearchError(
                "choice is only allowed inside a search engine")
        task.engine.choose(stmt, frame)
        return ()

    if kind is Body:
        task.push_body(stmt, frame)
        return ()

    if kind is If:
        return exec_if(task, stmt, frame)

    if kind is Builtin:
        args = [build_term(store, a, frame) for a in stmt.args]
        (_equal if stmt.name == "==" else _test)(task, args)
        return stmt.clear

    if kind is Proc:
        code = stmt.code
        closure = Closure(code.name, code, [frame[i] for i in code.captures])
        if store.unify(frame[stmt.slot], closure) is not None:
            raise Failure(f"{code.name} is already bound to something else")
        return stmt.clear

    if kind is Thread or kind is Lazy:
        if task.tid is None:
            raise ThreadInSearchError("cannot %s inside a %s" % (
                "create a thread" if kind is Thread else "make a lazy call",
                "guard" if task.engine is None else "search engine"))
        code = stmt.code
        child = [code]
        child += code.blank
        child += [frame[i] for i in code.captures]
        if kind is Thread:
            rt.spawn(code.body, child)
        else:
            rt.by_need(frame[stmt.slot], child)
        return stmt.clear

    if kind is Skip:
        return ()

    if kind is Fail:
        raise Failure("fail statement")

    raise TypeError(f"cannot execute {stmt!r}")


def exec_if(task: Task, stmt: If, frame: list):
    """Try the arms in order; commit to the first whose guard succeeds.

    A deep guard runs in a space of its own (``terms.Space``): the space
    is entered, a guard task runs the guard to its end, and the space is
    left.  An undetermined guard suspends the whole conditional
    (sequential semantics), and a failing one moves on to the next arm:
    either way the space undoes what the guard did.  A successful one
    must not have bound anything that existed before it started (the
    space's check of its whole trail); it commits, and its trail merges
    into the enclosing one.  A pure test binds nothing and needs no
    space.  Returns the clear of the arm taken (or of ``otherwise``).
    """
    rt = task.rt
    store = rt.store
    for arm in stmt.arms:
        test = arm.test
        if test is OP_TEST:
            if exec_op(rt, arm.guard, frame) is None:
                task.push_body(arm.body, frame)
                return arm.clear
            continue
        if test is EQ_TEST:
            if exec_equal_test(task, arm.guard, frame):
                task.push_body(arm.body, frame)
                return arm.clear
            continue
        if test is TEST:
            try:
                exec_stmt(task, arm.guard, frame)
            except Failure:
                continue
            task.push_body(arm.body, frame)
            return arm.clear
        space = Space(store)
        for i in arm.made:
            frame[i] = store.new_var()
        guard = Task(rt)
        guard.stack.append((arm.guard, frame))
        try:
            guard.run()
            space.check_escapes()
        except Failure:
            space.leave("undo")
            continue
        except BaseException as exc:
            # a suspension, the step budget or an error: the guard's
            # trail goes with it, or every later binding would be trailed
            space.abandon(exc)
            raise
        space.leave("merge")
        task.push_body(arm.body, frame)
        return arm.clear
    task.push_body(stmt.otherwise, frame)
    return stmt.else_clear


# -- counts and results -------------------------------------------------------

class Stats:
    """Counts over a runtime's life."""

    __slots__ = ("reductions", "spawned", "exits", "triggers", "entered",
                 "fired", "splits")

    def __init__(self):
        self.reductions = 0
        self.spawned = 0             # threads started by `thread` or a fire
        self.exits: Counter = Counter()   # exit status -> count
        # by-need triggers: left on a variable, entered on a needer's
        # stack, fired as a thread, and entered bodies split off as a thread
        self.triggers = 0
        self.entered = 0
        self.fired = 0
        self.splits = 0


class RunResult:
    """What one run did: ``status`` is done, failed, deadlock or limit,
    and ``browse_log`` holds a (clock, text) pair per line browsed."""

    # no __slots__: ``browses`` is a cached_property, kept in __dict__

    def __init__(self, status: str, clock: int, browse_log: list,
                 failures: list, suspended: list, stats: Stats,
                 idle: list):
        self.status = status
        self.clock = clock
        self.browse_log = browse_log
        self.failures = failures
        self.suspended = suspended
        self.stats = stats
        self.idle = idle

    def __repr__(self):
        return (f"RunResult(status={self.status!r}, clock={self.clock}, "
                f"browse_log={self.browse_log!r}, "
                f"failures={self.failures!r}, "
                f"suspended={self.suspended!r}, idle={self.idle!r})")

    @cached_property
    def browses(self) -> list:
        """The texts of ``browse_log``, made when first read."""
        return [text for _, text in self.browse_log]


# -- what goes next -------------------------------------------------------------

SCHED_POLICIES = ("fifo", "random")


def sched_order(policy: str, seed: Optional[int]) -> Optional[_random.Random]:
    """The order a scheduling policy name stands for (see
    :func:`take_next`): None for ``fifo``, and for ``random`` a
    ``random.Random`` seeded with ``seed``."""
    if policy == "fifo":
        return None
    if policy == "random":
        return _random.Random(seed)
    raise ValueError(f"unknown scheduling policy {policy!r}")


def take_next(queue: deque, order):
    """Remove and return the next item of ``queue``, whose items are listed
    oldest first: the oldest when ``order`` is None, else the item at
    ``order.randrange(len(queue))``.  A scheduler takes its next runnable
    thread here, and :func:`run_events` picks its next event by the same
    rule."""
    if order is None:
        return queue.popleft()
    i = order.randrange(len(queue))
    item = queue[i]
    del queue[i]
    return item


TIMESLICE = 1000


class Runtime:
    """The scheduler over one store.

    Only live state is kept.  After :meth:`run` returns, the runtime
    holds the threads that are still suspended (``threads``, each a
    :class:`Task` by its tid) and the
    failure texts of threads that failed since the last verdict
    (``unreported_failures``); while :func:`run_events` runs it, alone or
    as a node of a network simulation, it also holds sleeping threads in
    the heap of ``(wake_at, tid)`` pairs.  A thread that ends leaves
    ``threads`` at once and is counted in ``stats.exits``.  When the step
    budget or an error stops a run, the thread that ran and every other
    runnable or sleeping thread leave with status ``stopped``.  The lines
    browsed during a run go to its :class:`RunResult` and leave
    ``browse_log``; a run stopped by an error drops them, and its
    failures, with the exception.  The next runnable thread is taken from
    ``runq``, which holds the thread tasks themselves, in ``order`` (see
    :func:`take_next`)."""

    def __init__(self, store: Optional[Store] = None,
                 order: Optional[_random.Random] = None,
                 real_time: bool = False,
                 on_browse: Optional[Callable[[str], None]] = None,
                 on_trace: Optional[Callable[[str, dict], None]] = None):
        self.store = store if store is not None else Store()
        self.order = order
        # the budget of each run; a session sets it once its prelude ran
        self.max_steps: Optional[int] = None
        self.step_limit: Optional[int] = None   # see renew_budget
        self.real_time = real_time
        self.on_browse = on_browse
        self.on_trace = on_trace
        self.clock = 0
        self.threads: dict[int, Task] = {}
        self.runq: deque = deque()
        self.sleepers: list[tuple[int, int]] = []
        self.unreported_failures: dict[int, str] = {}
        self.next_tid = 1
        self.stats = Stats()
        self.browse_log: list = []
        self.store.fire = self.fire
        self.store.wake = self.wake

    # -- bookkeeping -----------------------------------------------------

    def renew_budget(self) -> None:
        """Give the work that starts now ``max_steps`` reductions of its
        own: each :meth:`run`, each network simulation and each answer an
        engine is asked for outside a run (the REPL's ``:solve`` and
        ``:next``).  ``step_limit`` is the count of ``stats.reductions``
        past which ``StepLimit`` is raised."""
        if self.max_steps is not None:
            self.step_limit = self.stats.reductions + self.max_steps

    def browse(self, term: Term):
        text = render(self.store, term)
        self.browse_log.append((self.clock, text))
        if self.on_browse is not None:
            self.on_browse(text)

    # -- thread management --------------------------------------------------

    def _thread(self) -> Task:
        """A new thread: a task with the next tid."""
        tid = self.next_tid
        self.next_tid += 1
        thread = self.threads[tid] = Task(self, tid)
        return thread

    def spawn(self, stmt, frame) -> int:
        """Start a thread that runs the body ``stmt`` in ``frame``, entered
        now (``Task.push_body``)."""
        thread = self._thread()
        thread.push_body(stmt, frame)
        self.runq.append(thread)
        self.stats.spawned += 1
        if self.on_trace is not None:
            self.on_trace("spawn", {"tid": thread.tid})
        return thread.tid

    def by_need(self, value: Term, trigger: list) -> None:
        """A lazy call: leave ``trigger``, the frame of its body, on its
        result ``value`` while that is an unbound variable nothing needs
        yet; else the need has come, and it fires."""
        if type(value) is Var and value.ref is not None:
            value = self.store.deref(value)
        if type(value) is Var and not value.needed:
            value.add_trigger((trigger,))
            self.stats.triggers += 1
            if self.on_trace is not None:
                self.on_trace("trigger", {"vid": value.vid})
        else:
            self.fire((trigger,))

    def fire(self, frames: tuple) -> None:
        """Run the triggers ``frames`` each as a thread of its own: their
        variable was needed other than by a thread's value suspension,
        which enters one in place (``Task.enter``), or bound."""
        for frame in frames:
            tid = self.spawn(frame[0].body, frame)
            self.stats.fired += 1
            if self.on_trace is not None:
                self.on_trace("fire", {"tid": tid})

    def split(self, stack: list, signal) -> None:
        """Make the pairs ``stack``, split off an entered body
        (``Task.split``, ``Task.split_unended``), a thread of their own,
        which parks on the ``Suspend``, sleeps for the ``SleepRequest`` or
        fails with the ``Failure`` that ``signal`` is, or is runnable when
        ``signal`` is None."""
        thread = self._thread()
        thread.stack = stack
        self.stats.splits += 1
        if self.on_trace is not None:
            self.on_trace("split", {"tid": thread.tid})
        self._settle(thread, signal)

    def _settle(self, thread: Task, signal) -> None:
        """Put ``thread`` where ``signal`` sends it: on the run queue when
        it is None, parked on a ``Suspend``, asleep for a
        ``SleepRequest``, or failed with a ``Failure``."""
        if signal is None:
            self.runq.append(thread)
        elif type(signal) is Suspend:
            self._park(thread, signal)
        elif type(signal) is SleepRequest:
            self._sleep(thread, signal.ms)
        else:
            self._finish(thread, FAILED, signal.reason)

    def wake(self, tids):
        """The store's ``wake`` hook: make each suspended thread of
        ``tids`` runnable, dropped from every variable it waits on.  The
        store detaches ``tids`` from its variable before the call, so
        the drops change no set being walked."""
        for tid in tids:
            t = self.threads.get(tid)
            if t is None or t.status != SUSPENDED:
                continue
            for v in t.waiting_on:
                self.store.drop_waiter(v, tid)
            t.waiting_on = ()
            t.status = RUNNABLE
            self.runq.append(t)
            if self.on_trace is not None:
                self.on_trace("wake", {"tid": tid})

    def _park(self, thread: Task, susp: Suspend):
        """Suspend ``thread`` on the variables of ``susp``.  The suspension
        is traced before the by-need waiters that a value wait wakes
        (``Store.add_waiter``)."""
        thread.waiting_on = list(susp.vars)
        thread.byneed = susp.byneed
        thread.status = SUSPENDED
        if self.on_trace is not None:
            self.on_trace("suspend", {"tid": thread.tid,
                                      "vids": [v.vid for v in susp.vars],
                                      "byneed": susp.byneed})
        store = self.store
        for v in susp.vars:
            if susp.byneed:
                store.add_byneed_waiter(v, thread.tid)
            else:
                store.add_waiter(v, thread.tid)

    def _sleep(self, thread: Task, ms: int):
        wake_at = self.clock + max(0, ms)
        thread.status = SLEEPING
        heapq.heappush(self.sleepers, (wake_at, thread.tid))
        if self.on_trace is not None:
            self.on_trace("sleep", {"tid": thread.tid, "until": wake_at})

    def _finish(self, thread: Task, status: str, failure: Optional[str] = None):
        del self.threads[thread.tid]
        self.stats.exits[status] += 1
        if status == FAILED:
            self.unreported_failures[thread.tid] = failure
        if self.on_trace is not None:
            self.on_trace("exit", {"tid": thread.tid, "status": status,
                                   "failure": failure})

    # -- scheduling -----------------------------------------------------------

    def _slice(self, thread: Task):
        """Run ``thread`` for one timeslice, then act on how it ended
        (:meth:`Task.run`): it terminates, goes back on the run queue, or
        settles on the signal that stopped it (:meth:`_settle`)."""
        if self.on_trace is not None:
            self.on_trace("run", {"tid": thread.tid})
        try:
            end = thread.run(TIMESLICE)
        except BaseException:
            # StepLimit or an error: the thread is not resumed, so it
            # leaves with its frames before the exception goes on
            self._finish(thread, STOPPED)
            raise
        if end is True:
            self._finish(thread, TERMINATED)
        elif end is False:
            self.runq.append(thread)
        else:
            self._settle(thread, end)

    def drain(self, once: bool = False) -> None:
        """Run runnable threads, a timeslice at a time, until none is left,
        or for one timeslice when ``once``.

        The clock is never advanced and no verdict is reached:
        :func:`run_events` owns time and decides when the whole system is
        quiescent.  ``StepLimit`` propagates."""
        while self.runq:
            self._slice(take_next(self.runq, self.order))
            if once:
                return

    def next_wake(self) -> Optional[int]:
        """Earliest wake-up time among sleeping threads, or None."""
        return self.sleepers[0][0] if self.sleepers else None

    def wake_due(self) -> None:
        """Move sleepers whose time has come back onto the run queue, in
        (wake time, tid) order."""
        sleepers = self.sleepers
        while sleepers and sleepers[0][0] <= self.clock:
            thread = self.threads[heapq.heappop(sleepers)[1]]
            thread.status = RUNNABLE
            self.runq.append(thread)

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

    def stop(self) -> None:
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
        status, _ = run_events((self,))
        failures, suspended, idle = self.verdict()
        status = run_status(status, failures, suspended)
        # The run's output goes to its result and leaves the runtime, so
        # a long session keeps no lines from earlier runs.
        browse_log, self.browse_log = self.browse_log, []
        return RunResult(status, self.clock, browse_log, failures, suspended,
                         self.stats, idle)


def run_status(status: str, failures: list, suspended) -> str:
    """The status of a run that :func:`run_events` ended with ``status``
    and whose threads at rest left ``failures`` and ``suspended``: a
    run cut by the budget stays ``limit``; else a failed thread makes it
    ``failed``, and a thread that waits for a value ``deadlock``."""
    if status == "done" and (failures or suspended):
        return "failed" if failures else "deadlock"
    return status


def run_events(runtimes, order=None, network=None,
               deliver=None) -> tuple[str, int]:
    """The one event loop: run ``runtimes``, which share a clock, and the
    pending messages of ``network``, if any, until nothing is left to do.

    Each step picks one event by :func:`take_next`'s rule from the
    candidates: first each runtime with a runnable thread, in the order
    given, then each message of ``network.queue``, oldest first.  With
    ``order`` None the first candidate goes: the first runtime with a
    runnable thread drains, or else the oldest message is delivered.
    Else ``order.randrange(n)`` picks among the ``n`` candidates, and a
    runtime runs one timeslice of the thread its own scheduler picks.  A
    message is taken off the network (``Network.take``) and handed to
    ``deliver``.  With no candidate, the clock of every runtime jumps to
    the earliest sleeper's wake time and the sleepers due wake, or the
    run ends; with ``real_time`` set on the first runtime, the jump
    sleeps for as long in wall time.  The candidates are counted and the
    pick is found by walking the runtimes again, so that a step builds
    no list.

    Each runtime gets a fresh step budget.  When it runs out every
    runtime stops its runnable and sleeping threads (``Runtime.stop``);
    an error does that too, drops the runtimes' browsed lines and
    unreported failures, and propagates.  Returns ``(status, steps)``:
    status ``done`` or ``limit``, and one step per delivery and per clock
    jump, plus the last look, at rest or cut by the budget."""
    for rt in runtimes:
        rt.renew_budget()
    once = order is not None
    first = runtimes[0]
    steps = 0
    try:
        while True:
            ready = 0
            for rt in runtimes:
                if rt.runq:
                    ready += 1
            count = ready + (network.pending if network is not None else 0)
            if count:
                i = 0 if order is None else order.randrange(count)
                if i < ready:
                    # the i-th runtime with a runnable thread
                    for rt in runtimes:
                        if rt.runq:
                            if not i:
                                break
                            i -= 1
                    rt.drain(once)
                else:
                    steps += 1
                    deliver(network.take(i - ready))
                continue
            steps += 1
            now = None
            for rt in runtimes:
                wake = rt.next_wake()
                if wake is not None and (now is None or wake < now):
                    now = wake
            if now is None:
                break
            if first.real_time and now > first.clock:
                _time.sleep((now - first.clock) / 1000.0)
            for rt in runtimes:
                rt.clock = now
                if rt.on_trace is not None:
                    rt.on_trace("clock", {"now": now})
                rt.wake_due()
    except StepLimit:
        for rt in runtimes:
            rt.stop()
        return "limit", steps + 1
    except BaseException:
        # an error: the run's output and failures go with it
        for rt in runtimes:
            rt.stop()
            rt.browse_log = []
            rt.unreported_failures.clear()
        raise
    return "done", steps
