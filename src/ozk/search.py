"""Encapsulated search: run a goal speculatively and enumerate answers.

An engine executes ``{Goal Root}`` on the shared store but under its own
trail.  It runs in a task of mode ``engine`` through the reduction loop
that threads and guards use, ``Task.run``: only such a task may run
``choice``, which pushes a choicepoint (a copy of the frame stack plus
the remaining alternatives).  On a failure the loop calls
:meth:`Engine.backtrack`, which undoes the trail to the newest
choicepoint and resumes with the next alternative, depth-first and left
to right; the failure leaves the loop only when no choicepoint is left.
The last alternative takes the saved stack itself, as the choicepoint is
gone.  After each reduction that grew the trail the loop checks it for
escapes (:meth:`Engine.check_escapes`).

Answers are copied out in two phases: snapshot the root while the
speculative bindings are live, backtrack, then materialize the snapshot
for the caller.  Variables from outside the engine stay shared;
everything the engine made is fresh in the copy.

One driver, :meth:`Engine.next_answer`, serves eager and lazy search
alike.  Between answers the engine's bindings stay in place: its trail
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
from .runtime import Failure, Suspend, Task, env_child
from .terms import Closure, Snapshot, Term, materialize, snapshot


class _ChoicePoint:
    __slots__ = ("stack", "alts", "next_alt", "env", "trail_mark")

    def __init__(self, stack, alts, env, trail_mark):
        self.stack = stack
        self.alts = alts
        self.next_alt = 1        # the first alternative runs at once
        self.env = env
        self.trail_mark = trail_mark


class Engine:
    """Depth-first enumeration of the answers of a unary goal.

    Construction makes the root variable and schedules the goal; each
    :meth:`next_answer` runs to the next answer and copies it out."""

    def __init__(self, rt, goal: Closure):
        if len(goal.params) != 1:
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
        self.task.push(goal.body, env_child(goal.env, {goal.params[0]: self.root}))
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

    def push_choicepoint(self, alternatives, env):
        cp = _ChoicePoint(list(self.task.stack), alternatives, env,
                          self.store.trail_mark())
        self.cps.append(cp)
        self.task.push_body(alternatives[0], env)

    def backtrack(self) -> bool:
        while self.cps:
            cp = self.cps[-1]
            self.store.undo_to(cp.trail_mark)
            self.checked = min(self.checked, cp.trail_mark)
            if cp.next_alt >= len(cp.alts):
                self.cps.pop()
                continue
            alt = cp.alts[cp.next_alt]
            cp.next_alt += 1
            if cp.next_alt >= len(cp.alts):
                # the last alternative: the saved stack has no other use
                self.cps.pop()
                self.task.stack = cp.stack
            else:
                self.task.stack = list(cp.stack)
            self.task.push_body(alt, cp.env)
            return True
        return False

    def check_escapes(self):
        trail = self.trail
        node = self.store.node_id
        while self.checked < len(trail):
            kind, var = trail[self.checked]
            self.checked += 1
            vid = var.vid
            if kind == "bind" and (vid[1] < self.mark or vid[0] != node) \
                    and not self._owns(vid):
                raise EscapeError(
                    "search tried to bind a variable from outside the engine")

    # -- enumeration ----------------------------------------------------------

    def next_snapshot(self) -> Optional[Snapshot]:
        """Run to the next answer; None when exhausted.

        On an answer the engine backtracks into the following alternative
        before returning, so the snapshot is taken while the answer's
        bindings are live and the engine's variables afterwards hold the
        *next* speculative state.  When exhausted, or on an error, every
        binding is undone and the engine is finished.
        """
        if self.finished:
            return None
        self._enter()
        try:
            self.task.run()
            snap = snapshot(self.store, self.root,
                            lambda vid: not self._owns(vid))
        except Failure:
            # the task backtracks in place: a failure is the last one
            self._leave(finished=True)
            return None
        except BaseException as exc:
            self._leave(finished=True)
            if isinstance(exc, Suspend):
                vids = [v.vid for v in exc.vars]
                raise SearchStuckError(
                    f"the search goal suspended on {vids}; a complete goal "
                    f"must not wait on outside values") from None
            raise
        self._leave(finished=not self.backtrack())
        return snap

    def next_answer(self) -> Optional[Term]:
        """Run to the next answer and copy it out; None when exhausted.
        The outside variables are the ones the snapshot kept, the others
        are fresh in the copy."""
        snap = self.next_snapshot()
        if snap is None:
            return None
        kept = snap.kept
        new_var = self.store.new_var

        def resolve(vid):
            return new_var() if vid is None else kept[vid]
        return materialize(self.store, snap, resolve)


def solve_answers(rt, goal: Closure, limit: Optional[int] = None) -> list[Term]:
    """Collect up to ``limit`` answers eagerly (all of them when None)."""
    return list(islice(iter(Engine(rt, goal).next_answer, None), limit))
