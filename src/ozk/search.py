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
of its body, and the rest (``compiler.Alt``).  A head unification ``X =
f(...)`` goes straight to its compound's read plan
(``runtime.unify_compound``): when ``X`` is already a compound of that
label and arity, the voids are skipped, the first uses take their
arguments in one loop, and a lone pair of an atomic value is settled
inline, with no call of ``Store.unify``.  So ``Cs=_|Cs2`` pairs nothing
and ``Cs=N|_`` compares or binds one argument; a nested compound
argument is still built and unified.  The alternatives' heads run in
order inside the choice's own reduction, in the frame the choice runs
in; a head that fails is undone to the trail's length before it, with
no choicepoint and no exception, and the next is tried.  Only when a
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
it that succeeded, before the undo.  So a binding of an outside variable
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
from .compiler import Choice
from .runtime import (Failure, Suspend, Task, call_frame, exec_unify,
                      unify_compound)
from .terms import Closure, Snapshot, Space, Term, materialize, snapshot


class _ChoicePoint:
    __slots__ = ("stack", "alts", "next_alt", "frame", "trail_mark")

    def __init__(self, stack, alts, frame):
        self.stack = stack
        self.alts = alts         # alternatives not yet tried
        self.next_alt = 0
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
            self.push_choicepoint(alts[i + 1:], frame).trail_mark = mark
        self.task.push_block(alts[i], frame)

    def push_choicepoint(self, alternatives, frame) -> _ChoicePoint:
        """Save the stack as it is and the untried ``alternatives`` of a
        choice run in ``frame``; the caller sets the choicepoint's trail
        mark, which it took before the head that succeeded."""
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
        ``frame``, until one succeeds: ``(index, None)``.  A head
        unification with a read plan goes straight to ``unify_compound``,
        any other through ``exec_unify``.  The trail is checked for
        escapes once per head: after it succeeds, or, when it fails,
        before it is undone to ``mark``, the trail's length before it.  What
        a failing unification bound is undone with it, unchecked, as after
        a failing reduction, so the check of a failed head stops where its
        failing statement began.  When every head fails: ``(index, why)``,
        the last failure (see ``Failure``).  A shallow failure like this
        costs no reduction, no choicepoint and no exception, and its text
        is never made."""
        rt = self.rt
        store = self.store
        trail = self.trail
        new_var = store.new_var
        why = None
        for i in range(i, len(alts)):
            alt = alts[i]
            for slot in alt.made:
                frame[slot] = new_var()
            for stmt in alt.head:
                start = len(trail)
                plan = stmt.plan
                why = (exec_unify(rt, stmt, frame) if plan is None
                       else unify_compound(store, frame[plan.slot], plan, frame))
                if why is not None:
                    break
            else:
                if len(trail) > self.checked:
                    self.check_escapes()
                return i, None
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
