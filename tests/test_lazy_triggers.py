"""By-need triggers: a lazy call leaves a trigger, which the thread that
needs the value enters on its own stack.

* The trigger form gives the answers of the thread form it replaced,
  ``thread {WaitNeeded R} Body end``: the same browse multiset, status
  and failure texts, under FIFO, ten scheduling seeds and two nodes.
  The thread form is made here by rewriting each ``lazy R then Body
  end`` as the compiler meets it (:func:`thread_form`).
* What a lazy call did is counted (``Stats``) and traced.
* A trigger that is never needed is freed with its variable.
"""

from __future__ import annotations

import contextlib
import gc
import io
from pathlib import Path

import pytest

from ozk import compiler, dist, interp
from ozk import syntax as syn
from ozk.cli import main
from ozk.errors import OzkError
from ozk.interp import Session, run_text
from ozk.syntax import Call, CVar, ThreadStmt, seq_all
from test_golden import _placement
from test_runtime import LAZY_INTS

PROGRAMS = Path(__file__).resolve().parent.parent / "docs" / "programs"


@contextlib.contextmanager
def thread_form():
    """Within it, each ``lazy R then Body end`` compiles as ``thread
    {WaitNeeded R} Body end``, the form a ``fun lazy`` had before
    triggers.  The compile caches are emptied on the way in and out, so no
    code crosses the boundary."""
    table = compiler._COMPILE
    lazy = table[syn.LazyStmt]

    def as_thread(self, s, first):
        wait = Call(CVar("WaitNeeded"), (CVar(s.result),))
        return self.thread(ThreadStmt(seq_all([wait, s.body])), first)

    saved = dict(interp._PARSES)
    interp._PARSES.clear()
    dist._compiled_pieces.cache_clear()
    table[syn.LazyStmt] = as_thread
    try:
        yield
    finally:
        table[syn.LazyStmt] = lazy
        interp._PARSES.clear()
        interp._PARSES.update(saved)
        dist._compiled_pieces.cache_clear()


def run_outcome(text: str, seed) -> tuple:
    """The browse multiset, status and failure texts of ``text`` under
    FIFO (``seed`` None) or a random order, or the error it stops with."""
    try:
        r = run_text(text, policy="fifo" if seed is None else "random",
                     seed=seed, max_steps=200_000)
    except OzkError as e:
        return type(e).__name__, str(e)
    return sorted(r.browses), r.status, sorted(r.failures)


def dist_outcome(text: str, placement: dict) -> tuple:
    try:
        r = dist.run_simulation(text, placement, max_steps=200_000)
    except OzkError as e:
        return type(e).__name__, str(e)
    return ({node: sorted(lines) for node, lines in r.outputs.items()},
            r.status, sorted(r.failures))


SEEDS = [None] + list(range(10))


def assert_forms_agree(text: str, placement=None) -> None:
    runs = [lambda seed=seed: run_outcome(text, seed) for seed in SEEDS]
    if placement:
        runs.append(lambda: dist_outcome(text, placement))
    for run in runs:
        triggers = run()
        with thread_form():
            threads = run()
        assert triggers == threads


# -- the two forms agree ---------------------------------------------------------

NAMED = {
    # the body binds R, then blocks forever: the needer still browses a
    "binds_then_blocks": """
        fun {H} X in {Wait X} X end
        fun lazy {F} a|{H} end
        L in L = {F}
        case L of X|_ then {Browse X} end
        {Browse done}
    """,
    # the body binds R, then runs on until the step limit: the needer
    # still browses a, in the slice after the body's first
    "binds_then_spins": """
        fun {Spin} {Spin} end
        fun lazy {F} a|{Spin} end
        case {F} of X|_ then {Browse X} end
    """,
    "failing_body": """
        fun lazy {F} X in X = 1 X = 2 X end
        thread {Browse {F}+1} end
        {Browse other}
    """,
    "delay_in_body": """
        fun lazy {F N} {Delay 10} {Browse slept(N)} N end
        thread {Browse got({F 1}+0)} end
        thread {Delay 5} {Browse five} end
        thread {Browse {F 2}+{F 3}} end
    """,
    "lazy_needs_lazy": """
        fun lazy {G N} {Browse g(N)} N*2 end
        fun lazy {F N} {Browse f(N)} {G N}+1 end
        fun lazy {Ints N} N|{Ints N+1} end
        {Browse {F 5}}
        {Browse {Nth {Map {Ints 1} fun {$ X} {F X} end} 3}}
    """,
    "need_through_guards": """
        fun lazy {F N} {Browse f(N)} N end
        X = {F 3} Y = {F 4} Z = {F 5}
        if X > 2 then {Browse big} else {Browse small} end
        if A in A = Y A > 3 then {Browse bigger} else skip end
        if Z == 5 then {Browse five} end
    """,
    "need_through_equality": """
        fun lazy {F N} {Browse f(N)} g(N) end
        X = {F 1} Y = {F 2} P = {F 3} Q = {F 3}
        {Browse X == Y}
        {Browse P == Q}
    """,
    "need_through_unification": """
        fun lazy {F N} {Browse f(N)} N end
        local X Y in
           X = {F 1}
           thread {Wait Y} {Browse y(Y)} end
           X = Y
        end
        local A B in
           B = {F 2}
           A = B
           {Browse A}
           {Wait A}
           {Browse a(A)}
        end
        local C in
           C = {F 3}
           C = 3
           {Browse c}
        end
    """,
    "need_through_wait_needed": """
        fun lazy {F N} {Browse f(N)} N end
        X = {F 1}
        thread {WaitNeeded X} {Browse needed} end
        thread Y in {WaitNeeded Y} {Browse never} end
        {Browse x(X+1)}
    """,
    "never_needed": """
        fun lazy {F N} {Browse f(N)} N end
        X = {F 1} Y = {F 2}
        {Browse Y}
        {Wait Y}
        {Browse y(Y)}
    """,
    "engine_needs_outside_lazy": """
        fun lazy {F} {Browse f} 1 end
        X = {F}
        {Browse {SolveAll proc {$ R} R = X + 1 end}}
    """,
    "lazy_call_in_guard": """
        fun lazy {F} 1 end
        if Y in Y = {F} then {Browse yes} else {Browse no} end
    """,
    "lazy_call_in_engine": """
        fun lazy {F} 1 end
        {Browse {SolveAll proc {$ R} R = {F} end}}
    """,
    "two_triggers_on_one_variable": """
        fun lazy {F N} {Browse f(N)} N end
        local A B in
           A = {F 1}
           B = {F 1}
           A = B
           {Wait A}
           {Browse A}
        end
    """,
    "threads_on_two_nodes": """
        fun lazy {Ints N} N|{Ints N+1} end
        local Xs in
           thread Xs = {Ints 0} {Browse {Nth Xs 3}} end
           thread {Browse {Nth {Ints 10} 2}} end
        end
    """,
}


# A lazy call in a guard or an engine is refused, as the thread of the
# thread form is, but each form names what it met.
REFUSED_IN = {"lazy_call_in_guard": "guard",
              "lazy_call_in_engine": "search engine"}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_case_gives_the_thread_form_answers(name):
    text = NAMED[name]
    where = REFUSED_IN.get(name)
    if where is not None:
        for seed in SEEDS:
            assert run_outcome(text, seed) == (
                "ThreadInSearchError",
                f"cannot make a lazy call inside a {where}")
            with thread_form():
                assert run_outcome(text, seed) == (
                    "ThreadInSearchError",
                    f"cannot create a thread inside a {where}")
        return
    placement = {"a": 0, "b": 1} if name == "threads_on_two_nodes" else None
    assert_forms_agree(text, placement)


@pytest.mark.parametrize("n", [0, 1, 5, 100])
def test_lazy_ints_give_the_thread_form_answers(n):
    assert_forms_agree(LAZY_INTS % n)


@pytest.mark.parametrize("path", sorted(PROGRAMS.glob("*.ozk")),
                         ids=lambda p: p.name)
def test_example_gives_the_thread_form_answers(path):
    places = _placement(path)
    placement = dict(p.split("=") for p in places.split(",")) if places else {}
    assert_forms_agree(path.read_text(),
                       {k: int(v) for k, v in placement.items()} or None)


def test_the_named_cases_show_what_they_are_named_for():
    # the browses the thread form gives, pinned, so that a case that
    # stops exercising its path shows
    with thread_form():
        blocks = run_outcome(NAMED["binds_then_blocks"], None)
        spins = run_outcome(NAMED["binds_then_spins"], None)
        fails = run_outcome(NAMED["failing_body"], None)
        stuck = run_outcome(NAMED["engine_needs_outside_lazy"], None)
        guard = run_outcome(NAMED["lazy_call_in_guard"], None)
        engine = run_outcome(NAMED["lazy_call_in_engine"], None)
    assert blocks == (["a", "done"], "deadlock", [])
    assert spins == (["a"], "limit", [])
    assert fails == (["other"], "failed", ["unification failed: 1 = 2"])
    assert stuck[0] == "SearchStuckError"
    assert guard == ("ThreadInSearchError",
                     "cannot create a thread inside a guard")
    assert engine == ("ThreadInSearchError",
                      "cannot create a thread inside a search engine")


def test_the_rewrite_makes_the_thread_form():
    text = "fun lazy {F} 1 end {Browse {F}+0}"
    with thread_form():
        r = run_text(text)
    assert r.browses == ["1"]
    assert (r.stats.triggers, r.stats.entered) == (0, 0)
    r = run_text(text)
    assert (r.stats.triggers, r.stats.entered) == (1, 1)


# -- what a lazy call did ---------------------------------------------------------

INTS = "fun lazy {Ints N} N|{Ints N+1} end\n"


def test_a_consumed_stream_enters_every_trigger_in_place():
    s = Session()
    before = s.rt.stats.spawned
    r = s.feed(INTS + "{Browse {Length {Take {Ints 0} 2000}}}")
    assert r.browses == ["2000"]
    stats = r.stats
    # the one split is a body that the first timeslice ended inside
    assert (stats.triggers, stats.entered, stats.fired, stats.splits) == \
        (2001, 2000, 0, 1)
    assert stats.spawned - before == 1      # the program's own thread
    assert r.idle == []


def test_each_trigger_event_is_counted_once():
    r = run_text(NAMED["binds_then_blocks"] + """
        fun lazy {Two} 2 end
        thread {Wait {Two}} end
        local P Q in P = {Two} thread {Wait Q} end {Delay 1} P = Q end
    """)
    s = r.stats
    # the three lazy calls leave three triggers: F's is entered and then
    # split off when {H} blocks; the first of Two's is entered; the
    # second is fired when P is bound to Q, which is needed
    assert (s.triggers, s.entered, s.fired, s.splits) == (3, 2, 1, 1)


def test_sched_trace_shows_every_trigger_event(tmp_path):
    path = tmp_path / "events.ozk"
    path.write_text(NAMED["binds_then_blocks"] + """
        local P Q in
           fun lazy {Two} 2 end
           P = {Two} thread {Wait Q} end {Delay 1} P = Q
        end
    """)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        main(["run", str(path), "--trace", "sched"])
    lines = err.getvalue().splitlines()
    kinds = {line.split()[1] for line in lines}
    assert {"trigger", "enter", "fire", "split"} <= kinds
    assert any(line.startswith("sched trigger vid=(0, ") for line in lines)
    assert any(line.startswith("sched enter vid=(0, ") for line in lines)


# -- an unneeded trigger is freed with its variable ----------------------------------


def test_a_never_needed_trigger_leaves_no_frame_alive():
    s = Session()
    r = s.feed("fun lazy {F N} N|{F N+1} end\n"
               "local X in X = {F 1} {Browse made} end")
    assert r.browses == ["made"] and r.idle == []
    code = s.store.deref(s.globals["F"]).code.body.code

    def frames():
        gc.collect()
        return [o for o in gc.get_referrers(code)
                if type(o) is list and o and o[0] is code]
    assert frames() == []
    # while the variable lives, so does its trigger's frame
    r = s.feed("Kept = {F 1}")
    assert len(frames()) == 1
    s.globals.pop("Kept")
    assert frames() == []
