"""Encapsulated search: run a goal speculatively and enumerate answers.

An engine executes ``{Goal Root}`` on the shared store but under its own
trail.  It runs in a task of mode ``engine`` through the reduction loop
that threads and guards use, ``Task.run``: only such a task may run
``choice``.

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
saved stack itself, as the choicepoint is gone.  The engine checks the
trail for escapes (:meth:`Engine.check_escapes`) after each reduction
that grew it, and once per head: after the head, or, when it fails,
over the statements of it that succeeded, before the undo.  A binding
on the trail is the variable itself and a need mark a 1-tuple (see
``terms``), so the check tells them apart by type alone.

Answers are copied out in two phases: snapshot the root while the
speculative bindings are live, then materialize the snapshot for the
caller; the engine backtracks from the answer when it is asked for the
next one.  Variables from outside the engine stay shared;
everything the engine made is fresh in the copy.

One driver, :meth:`Engine.next_answer`, serves eager and lazy search
alike: a lazy ``Solve`` list is a by-need trigger on each cell, whose
body asks the engine for one more answer (``builtins._solve_next``).
Between answers the engine's bindings stay in place: its trail
is on the store's trail stack only while it runs, and is taken off
without undo when it stops at an answer.  This is safe because only the
engine can reach its own variables: answers are copies, and binding any
other variable is an EscapeError.  An engine owns exactly the variables
made while it was running, so a variable that another thread makes
while a lazy engine waits is an outside variable, as one made before the
engine is; of an own and an outside variable, the engine binds its own.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice
from typing import Optional

from .errors import EscapeError, SearchStuckError, ThreadInSearchError
from .compiler import Choice
from .runtime import (Failure, Suspend, Task, call_frame, exec_unify,
                      unify_compound)
from .terms import Closure, Snapshot, Term, Var, materialize, snapshot


class _ChoicePoint:
    __slots__ = ("stack", "alts", "next_alt", "frame", "trail_mark")

    def __init__(self, stack, alts, frame):
        self.stack = stack
        self.alts = alts         # alternatives not yet tried
        self.next_alt = 0
        self.frame = frame
        self.trail_mark = None   # set by the maker, taken before the head


class Engine:
    """Depth-first enumeration of the answers of a unary goal.

    Construction makes the root variable and schedules the goal; each
    :meth:`next_answer` runs to the next answer and copies it out."""

    def __init__(self, rt, goal: Closure):
        if goal.arity != 1:
            raise ThreadInSearchError(
                "a search goal takes exactly one argument (its result)")
        self.rt = rt
        self.store = rt.store
        self.task = Task(rt, "engine", self)
        self.cps: list[_ChoicePoint] = []
        self.trail: list = []    # on the store's stack only while running
        # It owns the seqs from `mark` on while it runs, and the [lo, hi)
        # ranges of its earlier runs, flat in `bounds` (lo1, hi1, ...).
        self.bounds: list[int] = []
        self.mark = self.store.next_seq
        self.finished = False
        self.checked = 0         # trail entries already escape-checked
        self._outer_owns = None  # the store's `owns` while this one runs
        self.root = self.store.new_var()
        self.task.push_body(goal.code.body, call_frame(goal, [self.root]))
        self.bounds += (self.mark, self.store.next_seq)

    def _enter(self):
        store = self.store
        store.trails.append(self.trail)
        self._outer_owns, store.owns = store.owns, self._owns
        self.mark = store.next_seq
        if self.bounds and self.bounds[-1] == self.mark:
            # nothing was made since the last run: continue its range
            self.mark = self.bounds[-2]
            del self.bounds[-2:]

    def _leave(self, finished: bool):
        """Stop running: undo every binding when finished, else keep them
        in place for the next run."""
        store = self.store
        if finished:
            store.undo_to(0)
        store.pop_trail(merge=False)
        store.owns = self._outer_owns
        self.bounds += (self.mark, store.next_seq)
        self.finished = finished

    def _owns(self, vid) -> bool:
        return vid[0] == self.store.node_id and (
            vid[1] >= self.mark or bisect_right(self.bounds, vid[1]) % 2 == 1)

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
            self.store.undo_to(mark)
            if self.checked > mark:
                self.checked = mark
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
                if plan is None:
                    why = exec_unify(rt, stmt, frame)
                    if why is not None:
                        break
                    continue
                res = unify_compound(store, frame[plan.slot], plan, frame)
                if res is not None:
                    if res.woken:
                        rt.wake(res.woken)
                    if not res.ok:
                        why = res
                        break
            else:
                if len(trail) > self.checked:
                    self.check_escapes()
                return i, None
            if start > self.checked:
                self.check_escapes(start)
            store.undo_to(mark)
            if self.checked > mark:
                self.checked = mark
        return i, why

    def check_escapes(self, end: Optional[int] = None):
        """Raise ``EscapeError`` when a binding on the trail from
        ``checked`` to ``end`` (its end when None) is of a variable the
        engine does not own; need marks (1-tuples) are skipped."""
        trail = self.trail
        if end is None:
            end = len(trail)
        node = self.store.node_id
        mark = self.mark
        for k in range(self.checked, end):
            var = trail[k]
            if type(var) is Var:
                vid = var.vid
                if (vid[1] < mark or vid[0] != node) and not self._owns(vid):
                    self.checked = k + 1
                    raise EscapeError("search tried to bind a variable from "
                                      "outside the engine")
        self.checked = end

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
        self._enter()
        try:
            if self.task.stack or self.backtrack():
                self.task.run()
                snap = snapshot(self.store, self.root,
                                lambda vid: not self._owns(vid))
            else:
                snap = None
        except Failure:
            # the task backtracks in place: a failure is the last one
            snap = None
        except BaseException as exc:
            self._leave(finished=True)
            if isinstance(exc, Suspend):
                vids = [v.vid for v in exc.vars]
                raise SearchStuckError(
                    f"the search goal suspended on {vids}; a complete goal "
                    f"must not wait on outside values") from None
            raise
        self._leave(finished=snap is None)
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
