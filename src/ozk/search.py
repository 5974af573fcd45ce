"""Encapsulated search: run a goal speculatively and enumerate answers.

An engine executes ``{Goal Root}`` on the shared store but under its own
trail.  ``choice`` statements push choicepoints (a copy of the frame
stack plus the remaining alternatives); failure undoes the trail to the
newest choicepoint and resumes with the next alternative, depth-first
and left to right.

Answers are copied out in two phases: snapshot the root while the
speculative bindings are live, undo, then materialize the snapshot for
the caller.  Variables that predate the engine stay shared; everything
created inside is fresh in the copy.

The engine may be parked between answers (for lazy enumeration): its
trail is saved and fully undone so the store is clean, and re-applied on
resume.  Only engine-private variables can appear on that trail, because
binding anything older raises EscapeError.
"""

from __future__ import annotations

from typing import Optional

from .errors import EscapeError, SearchStuckError, ThreadInSearchError
from .runtime import Failure, StepLimit, Suspend, Task, env_child
from .terms import Closure, Snapshot, Term, Var, materialize, snapshot


class EngineTask(Task):
    mode = "engine"

    def __init__(self, rt, engine: "Engine"):
        super().__init__(rt)
        self.engine = engine

    def on_choice(self, alternatives, env):
        self.engine.push_choicepoint(alternatives, env)

    def on_thread(self, body, env):
        raise ThreadInSearchError("cannot create a thread inside a search engine")


class _ChoicePoint:
    __slots__ = ("stack", "alts", "next_alt", "env", "trail_mark")

    def __init__(self, stack, alts, env, trail_mark):
        self.stack = stack
        self.alts = alts
        self.next_alt = 0
        self.env = env
        self.trail_mark = trail_mark


class Engine:
    """Depth-first enumeration of the answers of a unary goal."""

    def __init__(self, rt, goal: Closure):
        if len(goal.params) != 1:
            raise ThreadInSearchError(
                "a search goal takes exactly one argument (its result)")
        self.rt = rt
        self.store = rt.store
        self.goal = goal
        self.task = EngineTask(rt, self)
        self.cps: list[_ChoicePoint] = []
        self.mark = 0            # variables at or above this seq are ours
        self.root: Optional[Var] = None
        self.active = False      # trail currently pushed on the store
        self.finished = False
        self._checked = 0        # trail entries already escape-checked
        self._saved: Optional[list] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        self.store.push_trail()
        self.active = True
        self.mark = self.store.next_seq
        self.root = self.store.new_var()
        env = env_child(self.goal.env, {self.goal.params[0]: self.root})
        self.task.push(self.goal.body, env)

    def park(self):
        """Save and undo all speculative bindings; the store is clean."""
        if not self.active:
            return
        saved = []
        for kind, var in self.store.trails[-1]:
            saved.append((kind, var, var.ref if kind == "bind" else None))
        self.store.undo_to(0)
        self.store.pop_trail(merge=False)
        self._saved = saved
        self.active = False

    def resume(self):
        if self.active or self.finished:
            return
        self.store.push_trail()
        trail = self.store.trails[-1]
        for kind, var, value in self._saved or []:
            if kind == "bind":
                var.ref = value
            else:
                var.needed = True
            trail.append((kind, var))
        self._checked = len(trail)
        self._saved = None
        self.active = True

    def abort(self):
        if self.active:
            self.store.undo_to(0)
            self.store.pop_trail(merge=False)
            self.active = False
        self.finished = True

    # -- choicepoints ------------------------------------------------------------

    def push_choicepoint(self, alternatives, env):
        cp = _ChoicePoint(list(self.task.stack), alternatives, env,
                          self.store.trail_mark())
        self.cps.append(cp)
        cp.next_alt = 1
        self.task.push(alternatives[0], env)

    def _backtrack(self) -> bool:
        while self.cps:
            cp = self.cps[-1]
            self.store.undo_to(cp.trail_mark)
            self._checked = min(self._checked, cp.trail_mark)
            if cp.next_alt >= len(cp.alts):
                self.cps.pop()
                continue
            alt = cp.alts[cp.next_alt]
            cp.next_alt += 1
            self.task.stack = list(cp.stack)
            if cp.next_alt >= len(cp.alts):
                self.cps.pop()
            self.task.push(alt, cp.env)
            return True
        return False

    def _check_escapes(self):
        trail = self.store.trails[-1]
        node = self.store.node_id
        while self._checked < len(trail):
            kind, var = trail[self._checked]
            self._checked += 1
            if kind == "bind" and (var.vid[0] != node or var.vid[1] < self.mark):
                self.abort()
                raise EscapeError(
                    "search tried to bind a variable from outside the engine")

    # -- enumeration ----------------------------------------------------------

    def next_snapshot(self) -> Optional[Snapshot]:
        """Run to the next answer; None when exhausted.

        On an answer the engine backtracks into the following alternative
        before returning, so the snapshot is taken while the answer's
        bindings are live and the store afterwards holds the *next*
        speculative state.  When exhausted the trail is gone entirely.
        """
        from .runtime import exec_stmt  # local import to avoid cycle noise
        if self.finished:
            return None
        task = self.task
        stats = self.rt.stats
        limit = self.rt.max_steps
        trail = self.store.trails[-1]
        while True:
            if not task.stack:
                keep = self._keep_var
                snap = snapshot(self.store, self.root, keep)
                if not self._backtrack():
                    self.abort()
                return snap
            stmt, env = task.stack.pop()
            try:
                stats.reductions += 1
                if limit is not None and stats.reductions > limit:
                    raise StepLimit()
                exec_stmt(task, stmt, env)
                if len(trail) > self._checked:
                    self._check_escapes()
            except Failure:
                if not self._backtrack():
                    self.abort()
                    return None
            except Suspend as s:
                vids = [v.vid for v in s.vars]
                self.abort()
                raise SearchStuckError(
                    f"the search goal suspended on {vids}; a complete goal "
                    f"must not wait on outside values") from None
            except StepLimit:
                self.abort()
                raise

    def _keep_var(self, vid) -> bool:
        return vid[0] != self.store.node_id or vid[1] < self.mark

    # -- high-level drivers ----------------------------------------------------

    def materialize_answer(self, snap: Snapshot) -> Term:
        """Copy an answer out: the variables that predate the engine are
        the ones the snapshot kept, the others are fresh."""
        kept = snap.kept
        new_var = self.store.new_var

        def resolve(vid):
            return new_var() if vid is None else kept[vid]
        return materialize(self.store, snap, resolve)


def solve_answers(rt, goal: Closure, limit: Optional[int] = None) -> list[Term]:
    """Collect up to ``limit`` answers eagerly (all of them when None)."""
    engine = Engine(rt, goal)
    engine.start()
    snaps: list[Snapshot] = []
    while limit is None or len(snaps) < limit:
        snap = engine.next_snapshot()
        if snap is None:
            break
        snaps.append(snap)
    engine.abort()
    return [engine.materialize_answer(s) for s in snaps]


def solve_step(engine: Engine) -> Optional[Term]:
    """Advance a parked engine to its next answer (lazy enumeration)."""
    if engine.finished:
        return None
    engine.resume()
    snap = engine.next_snapshot()
    engine.park()
    if snap is None:
        return None
    return engine.materialize_answer(snap)
