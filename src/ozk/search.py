"""Encapsulated search: run a goal speculatively and enumerate answers.

An engine is a computation space with choicepoints: a ``terms.Space``,
the one a deep guard runs in, so that it executes ``{Goal Root}`` on the
shared store under its own trail and owns rule.  It runs in a task of
mode ``engine`` through the reduction loop that threads and guards use,
``Task.run``: only such a task may run ``choice``.

A ``choice`` is reduced by :meth:`Engine.choose`, with shallow
backtracking (the WAM's; M. Carlsson, "On the Efficiency of Optimising
Shallow Backtracking in Compiled Prolog", ICLP 1989).  Each alternative
is compiled into the slots it makes, its head, the leading unifications
of its body, and the rest (``compiler.Alt``).  The first time an engine
runs an alternative, its head becomes one generated Python function
(:func:`compile_head`), kept on the alternative, as the Aquarius compiler
compiled clause heads to host code (P. Van Roy and A. Despain, IEEE
Computer 1992).  The function makes the alternative's slots and settles
inline, with no network, each head statement ``X = f(...)`` whose plan
pairs at most one argument, and that with a value or a literal.  When
``X``'s value, one link dereferenced, is a compound of that label and
arity (read mode), nothing is built: the voids are skipped, the first
uses take their arguments, and the lone pair is settled as
``runtime.unify_compound`` settles it.  When it is an unbound variable
(write mode), the compound is built left to right, making its variables
in ``runtime.build_term``'s order, and bound to it by
``Store._bind_local``, which is what ``Store.unify`` does with the two.
Any other statement, value or case (several pairs, a nested compound, no
plan, a longer chain, a network) goes to ``unify_compound`` or
``runtime.exec_unify``, which stay the reference the function must
agree with.  Its text holds only slot numbers and names: the labels,
literals, plans and statements it uses are values of its namespace, so
no program text reaches ``exec``.  So ``Cs=_|Cs2`` pairs nothing and
``Cs=N|_`` compares or binds one argument, each with no call.  The
alternatives' heads run in order inside the choice's own reduction, in
the frame the choice runs in; a head that fails is undone to the
trail's length before it, with no choicepoint and no exception, and the
next is tried.  Only when a
head succeeds and alternatives are left is a choicepoint made: a copy of
the stack as the choice found it, the frame, the trail mark taken before
the head, and the untried alternatives.  Then the rest of the
alternative is pushed.  When every head fails, the choice fails.  The
frames themselves are not copied or trailed: the path taken after a
backtrack writes each slot it reads before reading it.

An engine that calls a procedure whose body is a ``choice`` enters the
choice in the call's own step (``runtime.exec_stmt``): the choice is
not pushed and popped, but it still counts as a reduction of its own,
in ``stats.reductions`` and against the step budget.  A thread or a
guard, even a guard inside an engine, pushes the body as before, and
the choice then raises ``ChoiceOutsideSearchError``.

On a failure the loop calls :meth:`Engine.backtrack`, which undoes the
trail to the newest choicepoint and runs the heads of its untried
alternatives the same way, depth-first and left to right; a choicepoint
whose heads all fail is dropped for the next older one, and the failure
leaves the loop only when none is left.  The last alternative takes the
saved stack itself, as the choicepoint is gone.  The engine checks its
trail for escapes (the space's ``check_escapes``, which raises
``EscapeError`` for an engine) after each reduction that grew it, and
once per head: after the head, or, when it fails, over the statements of
it that succeeded, before the undo; a failed head that bound nothing
needs neither.  So a binding of an outside variable
is an escape even when a later failure undoes it, where a guard checks
only when it commits.  A binding on the trail is the variable itself
and a need mark a 1-tuple (see ``terms``), so the check tells them apart
by type alone.

Answers are copied out in two phases: snapshot the root while the
speculative bindings are live, then materialize the snapshot for the
caller; the engine backtracks from the answer when it is asked for the
next one.  Variables from outside the engine stay shared;
everything the engine made is fresh in the copy.

One driver, :meth:`Engine.next_answer`, serves eager and lazy search
alike: a lazy ``Solve`` list is a by-need trigger on each cell, whose
body asks the engine for one more answer (``builtins._solve_next``).
Between answers the engine's bindings stay in place: its space is
entered only while it runs, and is left without undo (``"keep"``) when
it stops at an answer.  This is safe because only the engine can reach
its own variables: answers are copies, and binding any other variable
is an EscapeError.  By the space's rule an engine owns exactly the
variables made while it was being built or running, so a variable that
another thread makes while a lazy engine waits is an outside variable,
as one made before the engine is; of an own and an outside variable,
the engine binds its own.
"""

from __future__ import annotations

from itertools import islice
from typing import Optional

from .errors import EscapeError, SearchStuckError, ThreadInSearchError
from .compiler import READ_BUILD, Alt, Choice, Code, Fresh, Plan
from .runtime import (Failure, Suspend, Task, call_frame, exec_unify,
                      unify_compound)
from .terms import (Atom, Closure, Compound, Int, Snapshot, Space, Term,
                    UnifyResult, Var, materialize, snapshot)


# -- compiled heads ------------------------------------------------------------

# The texts a head function is made of (see ``compile_head``).  A
# statement settled inline: ``X`` is ``frame[{slot}]``, and ``{read}`` and
# ``{write}`` are the two modes' texts.
_INLINE = """\
t = frame[{slot}]
if type(t) is Var and t.ref is not None:
    t = t.ref
if dist is None and type(t) is Compound:
    if t.label != label{n} or len(t.args) != {arity}:
        return len(trail), UnifyResult({clash})
{read}elif dist is None and type(t) is Var and t.ref is None:
{write}else:
{call}"""

# Read mode's lone pair, settled as ``runtime.unify_compound`` settles it.
_PAIR = """\
x = xs[{i}]
if type(x) is Var and x.ref is not None:
    x = x.ref
    if type(x) is Var and x.ref is not None:
        x = store.deref(x)
v = {value}
{deref}kx = type(x)
kv = type(v)
if kx is Var and kv is not Var and kv is not Compound:
    store._bind_local(x, v)
elif kv is Var and kx is not Var and kx is not Compound:
    store._bind_local(v, x)
elif kx is kv and (kx is Int or kx is Atom):
    if x.value != v.value if kx is Int else x.name != v.name:
        return len(trail), UnifyResult({clash})
else:
{call}"""

_DEREF_V = """\
if type(v) is Var and v.ref is not None:
    v = v.ref
    if type(v) is Var and v.ref is not None:
        v = store.deref(v)
"""

# A call of ``unify_compound`` or ``exec_unify``.
_CALL = """\
start = len(trail)
why = {}
if why is not None:
    return start, why
"""


def _indent(text: str) -> str:
    return "".join("    " + line for line in text.splitlines(True))


def _inline(plan: Plan) -> bool:
    """Whether the compiled head settles ``plan``'s statement itself: it
    pairs at most one argument, and that one is a value or a literal."""
    reads = plan.reads
    return not reads or len(reads) == 1 and reads[0][1] is not READ_BUILD


def _read_mode(n: int, plan: Plan) -> str:
    """Read mode of the inlined statement ``n``: the first uses take the
    compound's arguments ``xs``, and the lone pair, if any, is settled."""
    text = "xs = t.args\n" if plan.firsts or plan.reads else ""
    for i, slot in plan.firsts:
        text += "frame[%d] = xs[%d]\n" % (slot, i)
    if plan.reads:
        i, _, a = plan.reads[0]
        slot = type(a) is int
        value = "frame[%d]" % a if slot else "lit%d_%d" % (n, i)
        pair, clash = (("xs[%d], %s" % (i, value), "(x, v)") if plan.value_left
                       else ("%s, xs[%d]" % (value, i), "(v, x)"))
        text += _PAIR.format(i=i, value=value, deref=_DEREF_V if slot else "",
                             clash=clash, call=_indent(_CALL.format(
                                 "store.unify(%s)" % pair)))
    return text


def _write_mode(n: int, plan: Plan) -> str:
    """Write mode of the inlined statement ``n``: build its compound left
    to right, as ``runtime.build_term`` does, and bind the unbound
    variable ``t`` to it."""
    text, args = "", []
    for i, a in enumerate(plan.build.args):
        if a is None:
            text += "a%d = new_var()\n" % i
        elif type(a) is Fresh:
            text += "a%d = frame[%d] = new_var()\n" % (i, a.slot)
        args.append("a%d" % i if a is None or type(a) is Fresh
                    else "frame[%d]" % a if type(a) is int
                    else "lit%d_%d" % (n, i))
    return text + "store._bind_local(t, Compound(label%d, [%s]))\n" % (
        n, ", ".join(args))


def head_source(alt: Alt) -> tuple[str, dict]:
    """The text of ``alt``'s compiled head, a function ``head(store, trail,
    frame)``, and the namespace it runs in.  The text holds only slot
    numbers and names: the labels, literals, plans and statements it uses
    are values of the namespace."""
    ns = {"Var": Var, "Compound": Compound, "Int": Int, "Atom": Atom,
          "UnifyResult": UnifyResult, "unify_compound": unify_compound,
          "exec_unify": exec_unify}
    body = "".join("frame[%d] = new_var()\n" % slot for slot in alt.made)
    inlined = False
    for n, stmt in enumerate(alt.head):
        plan = stmt.plan
        if plan is None:
            ns["stmt%d" % n] = stmt
            body += _CALL.format("exec_unify(store, stmt%d, frame)" % n)
            continue
        ns["plan%d" % n] = plan
        if not _inline(plan):
            body += _CALL.format("unify_compound(store, frame[%d], plan%d, "
                                 "frame)" % (plan.slot, n))
            continue
        inlined = True
        ns["label%d" % n] = plan.label
        ns["build%d" % n] = plan.build
        for i, a in enumerate(plan.build.args):
            if a is not None and type(a) not in (int, Fresh):
                ns["lit%d_%d" % (n, i)] = a
        body += _INLINE.format(
            slot=plan.slot, n=n, arity=plan.arity,
            clash=("(t, build%d)" if plan.value_left else "(build%d, t)") % n,
            read=_indent(_read_mode(n, plan)),
            write=_indent(_write_mode(n, plan)),
            call=_indent(_CALL.format(
                "unify_compound(store, t, plan%d, frame)" % n)))
    head = "def head(store, trail, frame):\n"
    if inlined:
        head += "    dist = store.dist\n"
    if "new_var()" in body:
        head += "    new_var = store.new_var\n"
    return head + _indent(body + "return None\n"), ns


def compile_head(alt: Alt, code: Code, index: int):
    """Generate ``alt``'s head function, keep it as ``alt.head_fn`` and
    return it.  ``code`` and ``index`` (from 0) name the procedure and the
    place of the alternative in its choice, in the function's file name,
    which a traceback or a profile shows."""
    source, ns = head_source(alt)
    exec(source, ns)
    fn = ns["head"]
    fn.__code__ = fn.__code__.replace(
        co_filename="<head %s/%d alt %d>" % (code.name or "top", code.arity,
                                             index + 1))
    alt.head_fn = fn
    return fn


class _ChoicePoint:
    __slots__ = ("stack", "alts", "next_alt", "frame", "trail_mark")

    def __init__(self, stack, alts, frame):
        self.stack = stack
        self.alts = alts         # the choice's alternatives
        self.next_alt = 0        # the first not yet tried: set by the maker
        self.frame = frame
        self.trail_mark = None   # set by the maker, taken before the head


class Engine(Space):
    """Depth-first enumeration of the answers of a unary goal: a space
    with choicepoints.

    Construction makes the root variable and schedules the goal; each
    :meth:`next_answer` runs to the next answer and copies it out."""

    __slots__ = ("rt", "task", "cps", "finished", "root")

    Escape = EscapeError
    escape_text = "search tried to bind a variable from outside the engine"

    def __init__(self, rt, goal: Closure):
        if goal.arity != 1:
            raise ThreadInSearchError(
                "a search goal takes exactly one argument (its result)")
        super().__init__(rt.store)   # what it makes here is its own
        self.rt = rt
        self.task = Task(rt, "engine", self)
        self.cps: list[_ChoicePoint] = []
        self.finished = False
        self.root = self.store.new_var()
        self.task.push_body(goal.code.body, call_frame(goal, [self.root]))
        self.leave("keep")

    # -- choicepoints ------------------------------------------------------------

    def choose(self, choice: Choice, frame: list):
        """Reduce ``choice``: enter the first alternative whose head
        succeeds, with a choicepoint for the others when any are left."""
        alts = choice.alts
        mark = len(self.trail)
        i, why = self._first_head(alts, 0, frame, mark)
        if why is not None:
            raise Failure(why)   # the last head's failure
        if i + 1 < len(alts):
            cp = self.push_choicepoint(alts, frame)
            cp.next_alt = i + 1
            cp.trail_mark = mark
        self.task.push_block(alts[i], frame)

    def push_choicepoint(self, alternatives, frame) -> _ChoicePoint:
        """Save the stack as it is and the ``alternatives`` of a choice run
        in ``frame``; the caller sets the first untried one and the
        choicepoint's trail mark, which it took before the head that
        succeeded."""
        cp = _ChoicePoint(list(self.task.stack), alternatives, frame)
        self.cps.append(cp)
        return cp

    def backtrack(self) -> bool:
        """Undo to the newest choicepoint and enter its first untried
        alternative whose head succeeds; a choicepoint with none left is
        dropped and the next older one tried.  False when none is left."""
        cps = self.cps
        while cps:
            cp = cps[-1]
            mark = cp.trail_mark
            self.undo(mark)
            alts = cp.alts
            i, why = self._first_head(alts, cp.next_alt, cp.frame, mark)
            if why is not None:
                cps.pop()
                continue
            if i + 1 < len(alts):
                cp.next_alt = i + 1
                self.task.stack = list(cp.stack)
            else:
                # the last alternative: the saved stack has no other use
                cps.pop()
                self.task.stack = cp.stack
            self.task.push_block(alts[i], cp.frame)
            return True
        return False

    def _first_head(self, alts, i: int, frame: list, mark: int):
        """Run the heads of ``alts`` from the ``i``-th on, in order and in
        ``frame``, until one succeeds: ``(index, None)``.  Each head is one
        call of its compiled function (``compile_head``), which returns
        None or, when a statement fails, ``(start, why)``: the trail's
        length before that statement and its failure.  The trail is
        checked for escapes once per head: after it succeeds, or, when it
        fails, before it is undone to ``mark``, the trail's length before
        it.  What a failing unification bound is undone with it, unchecked,
        as after a failing reduction, so the check of a failed head stops
        at ``start``; a failed head that left the trail at ``mark`` needs
        neither.  When every head fails: ``(index, why)``, the last failure
        (see ``Failure``).  A shallow failure like this costs no reduction,
        no choicepoint and no exception, and its text is never made."""
        store = self.store
        trail = self.trail
        why = None
        for i in range(i, len(alts)):
            alt = alts[i]
            head = alt.head_fn or compile_head(alt, frame[0], i)
            failed = head(store, trail, frame)
            if failed is None:
                if len(trail) > self.checked:
                    self.check_escapes()
                return i, None
            start, why = failed
            if len(trail) > mark:
                if start > self.checked:
                    self.check_escapes(start)
                self.undo(mark)
        return i, why

    # -- enumeration ----------------------------------------------------------

    def next_snapshot(self) -> Optional[Snapshot]:
        """Run to the next answer; None when exhausted.

        The snapshot is taken while the answer's bindings are live, and
        they stay in place until the next call, which backtracks from
        them: the task's stack is empty only at an answer.  When
        exhausted, or on an error, every binding is undone and the engine
        is finished.
        """
        if self.finished:
            return None
        self.enter()
        try:
            if self.task.stack or self.backtrack():
                self.task.run()
                snap = snapshot(self.store, self.root, self.outside)
            else:
                snap = None
        except Failure:
            # the task backtracks in place: a failure is the last one
            snap = None
        except BaseException as exc:
            self.leave("undo")
            self.finished = True
            if isinstance(exc, Suspend):
                vids = [v.vid for v in exc.vars]
                raise SearchStuckError(
                    f"the search goal suspended on {vids}; a complete goal "
                    f"must not wait on outside values") from None
            raise
        self.finished = snap is None
        self.leave("undo" if self.finished else "keep")
        return snap

    def next_answer(self) -> Optional[Term]:
        """Run to the next answer and copy it out; None when exhausted.
        The outside variables are the ones the snapshot kept, the others
        are fresh in the copy."""
        snap = self.next_snapshot()
        if snap is None:
            return None
        return materialize(self.store, snap, snap.kept.__getitem__)


def solve_answers(rt, goal: Closure, limit: Optional[int] = None) -> list[Term]:
    """Collect up to ``limit`` answers eagerly (all of them when None)."""
    return list(islice(iter(Engine(rt, goal).next_answer, None), limit))
