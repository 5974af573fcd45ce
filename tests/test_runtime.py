"""Threads, dataflow synchronization, virtual time, laziness, guards."""

from pathlib import Path

import pytest

import oracles
from oracles import GEN_MAP_SQUARES
from ozk import runtime
from ozk.errors import (ChoiceOutsideSearchError, EscapeError, OzkError,
                        QuietGuardViolation, SearchStuckError,
                        ThreadInSearchError)
from ozk.interp import Session, run_text


# -- dataflow synchronization ---------------------------------------------------

def test_consumer_blocks_until_producer_binds():
    r = run_text("""
    X Y in
    thread Y = X + 1 end
    thread {Browse Y} end
    X = 41
    """)
    assert r.status == "done"
    assert r.browses == ["42"]


def test_wait_on_bound_value_is_immediate():
    r = run_text("{Wait 5} {Browse ok}")
    assert r.status == "done"
    assert r.browses == ["ok"]


def test_binding_order_is_irrelevant():
    producer_first = run_text("X in X = 7  thread {Browse X + 1} end")
    consumer_first = run_text("X in thread {Browse X + 1} end  X = 7")
    assert producer_first.browses == consumer_first.browses == ["8"]


def test_stream_producer_consumer():
    r = run_text("""
    proc {Count I N Xs}
       if I > N then Xs = nil
       else Xr in Xs = I|Xr {Count I+1 N Xr} end
    end
    proc {Sum Xs A}
       case Xs of nil then {Browse A}
       [] X|Xr then {Sum Xr A+X} end
    end
    Xs in
    thread {Sum Xs 0} end
    thread {Count 1 100 Xs} end
    """)
    assert r.status == "done"
    assert r.browses == ["5050"]


# -- deadlock and idleness ------------------------------------------------------

def test_value_wait_with_no_producer_is_deadlock():
    r = run_text("X in {Wait X}")
    assert r.status == "deadlock"
    assert len(r.suspended) == 1
    (tid, vids), = r.suspended
    assert len(vids) == 1


def test_mutual_wait_is_deadlock():
    r = run_text("""
    X Y in
    thread X = Y + 1 end
    thread Y = X + 1 end
    """)
    assert r.status == "deadlock"
    assert len(r.suspended) == 2


def test_unneeded_byneed_producer_is_idle_not_deadlocked():
    r = run_text("X in thread {WaitNeeded X} X = 5 end {Browse ok}")
    assert r.status == "done"
    assert r.browses == ["ok"]
    assert r.suspended == []
    assert len(r.idle) == 1


# -- failure isolation ----------------------------------------------------------

def test_failed_thread_does_not_stop_others():
    r = run_text("thread 1 = 2 end {Browse ok}")
    assert r.status == "failed"
    assert r.browses == ["ok"]
    assert len(r.failures) == 1
    assert "unification failed" in r.failures[0]


def test_failures_reported_once_in_tid_order():
    # The first thread fails last; the report still lists it first.
    s = Session()
    r = s.feed("thread {Delay 10} 1 = 2 end  thread fail end")
    assert r.status == "failed"
    assert r.failures == ["unification failed: 1 = 2", "fail statement"]
    r = s.feed("{Browse ok}")
    assert r.status == "done"
    assert r.failures == []


def test_bindings_made_before_a_failure_survive():
    r = run_text("X in thread X = 5  1 = 2 end  {Wait X} {Browse X}")
    assert r.status == "failed"
    assert r.browses == ["5"]


def test_browse_shows_unbound_variables_without_waiting():
    r = run_text("X in {Browse X} X = 5")
    assert r.status == "done"
    assert r.browses == ["_G1"]


def test_fail_statement_fails_the_thread():
    r = run_text("thread fail end {Browse ok}")
    assert r.status == "failed"
    assert r.browses == ["ok"]


# -- conditionals and guards ------------------------------------------------------

def test_if_selects_by_comparison():
    r = run_text("""
    proc {Classify N}
       if N < 0 then {Browse neg}
       elseif N == 0 then {Browse zero}
       else {Browse pos} end
    end
    {Classify ~3} {Classify 0} {Classify 12}
    """)
    assert r.browses == ["neg", "zero", "pos"]


def test_undetermined_guard_suspends_whole_conditional():
    r = run_text("X in if X == 1 then {Browse a} else {Browse b} end")
    assert r.status == "deadlock"
    assert r.browses == []


def test_guard_with_local_variables_binds_them_for_the_body():
    r = run_text("""
    Xs = [1 2 3] in
    if T in Xs = _|T then {Browse T} end
    """)
    assert r.status == "done"
    assert r.browses == ["[2 3]"]


def test_failing_guard_leaves_no_trace_and_takes_else():
    r = run_text("""
    Xs = [1] in
    if T in Xs = 2|T then {Browse yes(T)} else {Browse Xs} end
    """)
    assert r.status == "done"
    assert r.browses == ["[1]"]


def test_guard_may_not_bind_outside_variables():
    with pytest.raises(QuietGuardViolation):
        run_text("""
        proc {Sneak Y} Y = 1 end
        X in
        if B in {Sneak X} B = true then skip end
        """)


SNEAK = "proc {Sneak Y} Y = 1 end\n"


def test_a_guard_that_binds_an_outside_variable_and_fails_takes_the_next_arm():
    # a guard's quiet check is made once, when it commits: a binding of an
    # outside variable that its own failure undoes is no error
    s = Session()
    s.feed(SNEAK)
    r = s.feed("X in if B in {Sneak X} 1 = 2 B = true then {Browse yes} "
               "else {Browse no} end")
    assert (r.status, r.browses) == ("done", ["no"])
    assert s.lookup("X").ref is None


@pytest.mark.parametrize("outside", [False, True],
                         ids=["engine-variable", "outside-variable"])
def test_a_guard_in_an_engine_that_binds_an_outside_variable_and_fails(
        outside):
    # the guard fails before it commits, so the engine never sees Y bound:
    # no escape, whether Y is the engine's or from outside the engine
    guard = "if B in {Sneak Y} 1 = 2 B = true then 1 else 2 end"
    program = ("Y S in {SolveAll fun {$} %s end S}" if outside
               else "S in {SolveAll fun {$} Y in %s end S}")
    s = Session()
    s.feed(SNEAK)
    r = s.feed(program % guard + " {Browse S}")
    assert (r.status, r.browses) == ("done", ["[2]"])
    if outside:
        assert s.lookup("Y").ref is None


def test_a_guard_in_an_engine_may_not_bind_the_engines_variable():
    with pytest.raises(QuietGuardViolation,
                       match="^guard bound a variable that exists outside it$"):
        run_text(SNEAK + "S in {SolveAll fun {$} Y in "
                 "if B in {Sneak Y} B = true then 1 else 2 end end S}")


def test_an_engine_in_a_guard_may_not_bind_the_guards_variable():
    with pytest.raises(EscapeError, match="^search tried to bind a variable "
                                          "from outside the engine$"):
        run_text("if B S in {SolveAll fun {$} B = true 1 end S} "
                 "then skip end")


def test_thread_creation_inside_guard_is_rejected():
    with pytest.raises(ThreadInSearchError):
        run_text("if B in thread skip end B = true then skip end")


def test_delay_inside_guard_is_rejected():
    with pytest.raises(OzkError, match="Delay"):
        run_text("if B in {Delay 1} B = true then skip end")


def test_choice_outside_search_is_rejected():
    with pytest.raises(ChoiceOutsideSearchError):
        run_text("X in choice X = 1 [] X = 2 end")


# -- virtual time ------------------------------------------------------------------

GEN_MAP = """
proc {Gen I N Xs}
   {Delay 1000}
   if I > N then Xs = nil
   else Xr in Xs = I|Xr {Gen I+1 N Xr} end
end
proc {Mon Ys}
   case Ys of nil then {Browse alldone}
   [] Y|Yr then {Browse Y} {Mon Yr} end
end
Xs Ys in
thread {Gen 1 10 Xs} end
thread Ys = {Map Xs fun {$ X} X*X end} end
thread {Mon Ys} end
"""


def test_delay_drives_the_virtual_clock():
    r = run_text("{Delay 250} {Browse ok}")
    assert r.status == "done"
    assert r.clock == 250
    assert r.browse_log == [(250, "ok")]


def test_gen_map_timing_golden():
    r = run_text(GEN_MAP)
    assert r.status == "done"
    expected = [((i + 1) * 1000, str(sq)) for i, sq in enumerate(GEN_MAP_SQUARES)]
    expected.append((11000, "alldone"))
    assert r.browse_log == expected
    assert r.clock == 11000


def test_clock_jumps_only_when_nothing_is_runnable():
    # the busy thread finishes its work at clock 0; only then does the
    # sleeper's wake-up time become the new clock
    r = run_text("""
    proc {Spin N} if N == 0 then {Browse spun} else {Spin N-1} end end
    thread {Delay 10} {Browse woke} end
    {Spin 5000}
    """)
    assert r.browse_log == [(0, "spun"), (10, "woke")]


def test_sleepers_wake_in_time_order():
    r = run_text("""
    thread {Delay 20} {Browse a} end
    thread {Delay 10} {Browse b} end
    """)
    assert r.browse_log == [(10, "b"), (20, "a")]


def test_parallel_delays_overlap():
    # Sleepers due at the same time wake in tid order.
    r = run_text("""
    thread {Delay 100} {Browse a} end
    thread {Delay 100} {Browse b} end
    """)
    assert r.status == "done"
    assert r.clock == 100
    assert r.browse_log == [(100, "a"), (100, "b")]


REAL_TIME = """
thread {Delay 30} {Browse a} end
thread {Delay 50} {Browse b} end
"""


def test_real_time_sleeps_each_clock_jump(monkeypatch):
    slept = []
    monkeypatch.setattr(runtime._time, "sleep", slept.append)
    virtual = run_text(REAL_TIME)
    assert slept == []
    real = run_text(REAL_TIME, real_time=True)
    assert real.browse_log == virtual.browse_log == [(30, "a"), (50, "b")]
    assert slept == pytest.approx([0.03, 0.02])
    assert sum(slept) == pytest.approx(real.clock / 1000)


# -- tail calls and scale --------------------------------------------------------

def test_deep_recursion_runs_in_constant_stack(monkeypatch):
    # the height of a thread's stack at each of its reductions, the pair
    # being reduced counted: Task.run calls the module's exec_stmt, so
    # the wrapper sees every reduction
    heights = []
    exec_stmt = runtime.exec_stmt

    def measured(task, stmt, frame):
        if task.tid is not None:
            heights.append(len(task.stack) + 1)
        return exec_stmt(task, stmt, frame)

    monkeypatch.setattr(runtime, "exec_stmt", measured)
    r = run_text("""
    proc {MakeList N Xs}
       if N == 0 then Xs = nil
       else T in Xs = N|T {MakeList N-1 T} end
    end
    A B C in
    {MakeList 5000 A}
    {MakeList 5000 B}
    {Append A B C}
    {Browse {Length C}}
    """)
    assert r.status == "done"
    assert r.browses == ["10000"]
    assert heights and max(heights) <= 8


def test_ten_thousand_threads():
    s = Session()
    r = s.feed("""
    proc {Par I N Xs}
       if I > N then Xs = nil
       else X Xr in Xs = X|Xr thread X = I*I end {Par I+1 N Xr} end
    end
    Xs in
    {Par 1 10000 Xs}
    {WaitList Xs}
    {Browse {Length Xs}}
    {Browse {Nth Xs 5}}
    """)
    assert r.status == "done"
    assert r.browses == ["10000", "25"]
    assert r.stats.spawned >= 10001
    # Ended threads are counted, not kept.
    assert s.rt.threads == {}
    assert r.stats.exits == {"terminated": r.stats.spawned}


def test_step_limit_stops_runaway_programs():
    r = run_text("proc {Loop} {Loop} end {Loop}", max_steps=10_000)
    assert r.status == "limit"


def test_each_run_has_its_own_step_budget():
    s = Session(max_steps=10_000)
    assert s.feed("proc {Loop} {Loop} end {Loop}").status == "limit"
    r = s.feed("{Browse 1}")
    assert (r.status, r.browses) == ("done", ["1"])


def test_a_thread_stopped_by_the_step_budget_leaves_the_runtime():
    s = Session(max_steps=5000)
    s.feed("proc {Loop} {Loop} end")
    for _ in range(3):
        assert s.feed("{Loop}").status == "limit"
    assert len(s.rt.threads) == 0
    assert s.rt.stats.exits["stopped"] == 3


def test_a_thread_stopped_by_an_error_leaves_the_runtime():
    s = Session()
    with pytest.raises(ThreadInSearchError):
        s.feed("S in {SolveOne fun {$} thread skip end 1 end S}")
    assert len(s.rt.threads) == 0
    assert s.rt.stats.exits["stopped"] == 1


@pytest.mark.parametrize("chunk, error", [
    ("if X in {Loop} then skip end", None),
    ("if B in thread skip end B = true then skip end", ThreadInSearchError),
    ("S in {SolveAll fun {$} Y in "
     "if B in {Sneak Y} B = true then 1 else 2 end end S}",
     QuietGuardViolation),
    ("if B S in {SolveAll fun {$} B = true 1 end S} then skip end",
     EscapeError),
    ("if B S in {SolveAll fun {$} Z in {Wait Z} 1 end S} then skip end",
     SearchStuckError),
])
def test_a_guard_stopped_by_the_budget_or_an_error_drops_its_trail(chunk, error):
    s = Session(max_steps=5000)
    s.feed("proc {Loop} {Loop} end " + SNEAK)
    if error is None:
        assert s.feed(chunk).status == "limit"
    else:
        with pytest.raises(error):
            s.feed(chunk)
    assert s.store.trails == []
    assert s.store.owns is None
    # later bindings are not trailed, and the session goes on
    assert s.feed("Y in Y = 1 {Browse Y}").browses == ["1"]
    assert s.store.trails == []


@pytest.mark.parametrize("chunk", [
    "thread {Loop} end thread {Loop} end",
    "thread {Delay 10} {Browse late} end {Loop}",
], ids=["two-loops", "a-sleeper"])
def test_a_run_stopped_by_the_step_budget_leaves_no_thread_to_resume(chunk):
    s = Session(max_steps=3000)
    s.feed("proc {Loop} {Loop} end")
    assert s.feed(chunk).status == "limit"
    assert s.rt.threads == {} and s.rt.sleepers == []
    r = s.feed("{Browse 2}")
    assert (r.status, r.browses) == ("done", ["2"])


def test_a_run_stopped_by_an_error_leaves_no_thread_or_output_behind():
    s = Session()
    with pytest.raises(ThreadInSearchError):
        s.feed("thread fail end {Delay 1} {Browse 1} "
               "S in {SolveOne fun {$} thread skip end 1 end S}")
    assert s.rt.threads == {}
    r = s.feed("{Browse 2}")
    assert (r.status, r.browses, r.failures) == ("done", ["2"], [])


def test_a_run_stopped_by_the_budget_keeps_its_suspended_threads():
    s = Session(max_steps=3000)
    s.feed("proc {Loop} {Loop} end")
    assert s.feed("X in thread {Wait X} {Browse x} end {Loop}").status == "limit"
    assert [t.status for t in s.rt.threads.values()] == ["suspended"]
    assert s.feed("X = 1").browses == ["x"]


def test_a_search_inside_a_thread_does_not_use_up_its_timeslice():
    # the timeslice counts the thread's own reductions, so the first
    # thread browses before the second runs, though its SolveAll ran
    # more reductions than a timeslice has
    r = run_text("""
    proc {Count N} if N > 0 then {Count N-1} end end
    thread S in {SolveAll fun {$} {Count 2000} 1 end S} {Browse a} end
    thread {Browse b} end
    """)
    assert r.browses == ["a", "b"]


def test_a_block_costs_one_reduction():
    # the local is the body of the piece's thread, entered when the
    # thread is spawned, so only its three statements are reductions
    r = run_text("local X Y in X = 1 Y = X {Browse Y} end", prelude=False)
    assert r.stats.reductions == 3


@pytest.mark.parametrize("body", [
    "proc {P} X = 1 {Browse X} end {P}",
    "if true then X = 1 {Browse X} end",
    "case f(1) of f(A) then X = A {Browse X} end",
])
def test_a_block_body_is_pushed_with_what_runs_it(body):
    # the local, entered with the thread, then the definition (if any)
    # and the call, if or case, which pushes its body flat: then each of
    # the body's two statements
    r = run_text("local X in " + body + " end", prelude=False)
    assert r.browses == ["1"]
    assert r.stats.reductions == (4 if body.startswith("proc") else 3)


def test_a_first_use_makes_no_variable():
    s = Session(prelude=False)
    s.feed("X = f(1)")
    before = s.store.next_seq
    r = s.feed("local Y in X = f(Y) {Browse Y} end")
    assert r.browses == ["1"]
    assert s.store.next_seq == before


def test_a_bind_that_wakes_a_thread_still_writes_the_later_first_uses():
    # X = f(1 Z) matches f(A 5) in read mode: its one pair binds A, which
    # wakes the waiting thread, and the first use Z after it still takes 5
    r = run_text("local X A Z in X = f(A 5) thread {Wait A} {Browse woke} end "
                 "{Delay 1} X = f(1 Z) {Browse Z} end")
    assert r.status == "done"
    assert r.browses == ["5", "woke"]


# A binding wakes the threads that wait on its variable as it is made
# (``Store._bind_local``), even when the unification goes on to bind more
# or to fail, or runs in a guard that is then undone.
TWO_WAITERS = ("local A B in thread {Wait A} {Browse a} end "
               "thread {Wait B} {Browse b} end {Delay 1} f(A B) = f(1 2) end")


def test_a_unification_that_binds_two_variables_wakes_both_waiters():
    for policy, seed in [("fifo", None)] + [("random", n) for n in range(5)]:
        r = run_text(TWO_WAITERS, policy=policy, seed=seed)
        assert r.status == "done", (policy, seed)
        assert sorted(r.browses) == ["a", "b"], (policy, seed)


def test_threads_wake_in_the_order_their_variables_are_bound():
    # the argument pairs are taken last to first, so B is bound, and its
    # waiter woken, before A; under FIFO that waiter runs first
    r = run_text(TWO_WAITERS)
    assert (r.status, r.browses) == ("done", ["b", "a"])


def test_a_unification_that_fails_still_wakes_what_it_bound_before():
    # the pair (A 5) is settled before the clash of 1 with 2
    r = run_text("local A in thread {Wait A} {Browse A} end "
                 "{Delay 1} f(1 A) = f(2 5) end")
    assert (r.status, r.browses) == ("failed", ["5"])
    assert r.failures == ["unification failed: 1 = 2"]


def test_a_guard_that_fails_wakes_the_waiter_of_what_it_bound():
    # {Sneak X} binds X in the guard, which wakes the waiter; the guard's
    # failure undoes the binding, so the waiter parks on X again, and the
    # later X = 2 wakes it for good
    events = []
    s = Session(on_trace=lambda kind, data: events.append((kind, data)))
    s.feed(SNEAK)
    events.clear()
    r = s.feed("X in thread {Wait X} {Browse X} end {Delay 1} "
               "if B in {Sneak X} 1 = 2 B = true then {Browse yes} "
               "else {Browse no} end {Delay 1} X = 2")
    assert (r.status, r.browses) == ("done", ["no", "2"])
    # the chunk's thread is spawned first, and the waiter next
    waiter = [data["tid"] for kind, data in events if kind == "spawn"][1]
    assert [kind for kind, data in events if data.get("tid") == waiter
            and kind in ("suspend", "wake")] == [
        "suspend", "wake", "suspend", "wake"]


# -- laziness ------------------------------------------------------------------

LAZY_INTS = """
fun lazy {Ints N} {Browse N} N|{Ints N+1} end
L in
L = {Take {Ints 0} %d}
{WaitList L}
{Browse {Length L}}
"""


@pytest.mark.parametrize("n", [0, 1, 5, 100])
def test_lazy_function_runs_exactly_as_often_as_demanded(n):
    # each run of the body browses its argument, then the length follows
    for policy, seed in (("fifo", None), ("random", 3), ("random", 11)):
        r = run_text(LAZY_INTS % n, policy=policy, seed=seed)
        assert r.status == "done"
        assert r.browses == [str(i) for i in range(n)] + [str(n)]


def test_lazy_values_are_computed_once():
    r = run_text("""
    fun lazy {Ints N} {Browse N} N|{Ints N+1} end
    Xs in
    Xs = {Ints 0}
    {Browse {Nth Xs 3}}
    {Browse {Nth Xs 3}}
    {Browse {Nth Xs 2}}
    """)
    assert r.status == "done"
    # the body runs once for each of elements 0..2, then the three answers
    assert r.browses == ["0", "1", "2", "2", "2", "1"]


def test_need_propagates_through_var_var_binding():
    # the producer waits for Y to be needed; the consumer needs X; the
    # unification X=Y must carry the need across, in either direction
    for first, second in (("X", "Y"), ("Y", "X")):
        r = run_text(f"""
        {first} {second} in
        thread {{Wait X}} {{Browse X}} end
        thread {{WaitNeeded Y}} Y = 7 end
        thread {{Delay 5}} X = Y end
        """)
        assert r.status == "done", (first, second)
        assert r.browses == ["7"]


def test_waiting_marks_the_variable_needed():
    r = run_text("""
    X in
    thread {WaitNeeded X} X = 3 end
    {Browse X + 1}
    """)
    assert r.status == "done"
    assert r.browses == ["4"]


# -- builtins ---------------------------------------------------------------------

def test_sort_integers():
    r = run_text("S in {Sort [3 1 2 1] S} {Browse S}")
    assert r.browses == ["[1 1 2 3]"]


def test_sort_atoms():
    r = run_text("S in {Sort [banana apple cherry] S} {Browse S}")
    assert r.browses == ["[apple banana cherry]"]


def test_arithmetic_and_comparison_builtins():
    r = run_text("""
    {Browse 7 + 35}
    {Browse 7 - 10}
    {Browse 6 * 7}
    {Browse 17 div 5}
    {Browse 2 < 3}
    {Browse 2 > 3}
    {Browse 3 =< 3}
    {Browse 4 >= 5}
    {Browse a == a}
    {Browse f(1) == f(2)}
    """)
    assert r.browses == ["42", "~3", "42", "3", "true", "false", "true",
                         "false", "true", "false"]


def test_division_by_zero_is_an_error():
    with pytest.raises(OzkError, match="division by zero"):
        run_text("{Browse 7 div 0}")


def test_integer_overflow_is_an_error():
    with pytest.raises(OzkError, match="overflow"):
        run_text("{Browse 9223372036854775807 + 1}")


# -- integer operators, run inline -------------------------------------------------

def test_an_unbound_operand_suspends_until_a_later_binding():
    # T's first use is the result of `+`: it is stored when the woken
    # statement runs again, and nothing is stored while it waits
    events = []
    s = Session(on_trace=lambda kind, p: events.append((kind, p)))
    x = s.feed("X Z in skip")
    assert x.status == "done"
    vid = s.lookup("X").vid
    r = s.feed("thread local T in T = X + 1 {Browse T} Z = T * 2 end end")
    assert r.status == "deadlock" and r.browses == []
    assert [p["vids"] for k, p in events if k == "suspend"] == [[vid]]
    r = s.feed("X = 41 {Wait Z} {Browse Z}")
    assert r.status == "done"
    assert r.browses == ["42", "84"]


def test_the_first_operand_is_checked_and_suspended_on_first():
    s = Session()
    s.feed("X Y R in skip")
    x = s.lookup("X").vid
    r = s.feed("thread R = X + Y end")
    assert [vids for _, vids in r.suspended] == [[x]]
    r = s.feed("Y = 2")          # not what the thread waits for
    assert [vids for _, vids in r.suspended] == [[x]]
    r = s.feed("X = 1 {Wait R} {Browse R}")
    assert r.status == "done" and r.browses == ["3"]
    # a first operand that is no integer is an error before the second
    # operand is looked at; an unbound first operand suspends first
    with pytest.raises(OzkError, match="expected an integer, got a"):
        run_text("X in {Browse a + X}")
    assert run_text("X in thread {Browse X + a} end").status == "deadlock"


_OPERATOR_ERRORS = [
    ("f(1) + 1", "expected an integer, got f\\(1\\)"),
    ("9223372036854775807 + 1", "integer overflow in \\+"),
    ("~9223372036854775807 - 2", "integer overflow in -"),
    ("4611686018427387904 * 2", "integer overflow in \\*"),
    ("7 div 0", "division by zero"),
    ("(1 < a)", "expected an integer, got a"),
]


@pytest.mark.parametrize("context", [
    "thread X in X = %s {Browse X} end",
    "if X in X = %s then {Browse X} end",
    "S in {SolveAll proc {$ R} R = %s end S}",
])
@pytest.mark.parametrize("expr, message", _OPERATOR_ERRORS)
def test_operator_errors_in_a_thread_a_guard_and_an_engine(
        context, expr, message):
    with pytest.raises(OzkError, match=message):
        run_text(context % expr)


def test_an_operator_test_in_an_if_reports_a_non_integer():
    with pytest.raises(OzkError, match="expected an integer, got a"):
        run_text("if a < 1 then skip end")


@pytest.mark.parametrize("statement, failure", [
    ("1 > 2", "1>2 is false"),
    ("~1 >= 0", "-1>=0 is false"),
    ("R = 5 R = 1 + 1", "unification failed: 5 = 2"),
    ("R = true R = (2 < 1)", "unification failed: true = false"),
])
def test_operator_failures_in_a_thread_a_guard_and_an_engine(
        statement, failure):
    r = run_text(f"thread R in {statement} end")
    assert r.status == "failed" and r.failures == [failure]
    r = run_text(f"if R in {statement} then {{Browse yes}} "
                 f"else {{Browse no}} end")
    assert r.status == "done" and r.browses == ["no"]
    r = run_text(f"S in {{SolveAll proc {{$ R}} choice {statement} [] R = b "
                 f"end end S}} {{Browse S}}")
    assert r.status == "done" and r.browses == ["[b]"]


def test_a_first_use_result_is_recomputed_after_a_backtrack():
    # T is stored in the local's frame, which the choicepoint's stack
    # shares; the backtrack runs `T = X * 10` again and overwrites it
    r = run_text("""
    S in
    {SolveAll proc {$ R} X in
                 local T in
                    choice X = 1 [] X = 2 [] X = 3 end
                    T = X * 10
                    X < 3
                    R = T + X
                 end
              end S}
    {Browse S}
    """)
    assert r.status == "done" and r.browses == ["[11 22]"]


def test_gen_map_runs_in_a_pinned_number_of_reductions_and_variables():
    # The exact counts of docs/programs/gen_map.ozk.  They fall when an
    # operator stores a result that is a local's first use in the frame
    # (`{Gen I+1 N Xr}` makes no variable for I+1), a `case` matches its
    # compiled patterns, a local that is a body is entered by the
    # statement that pushes it, or a thread's body is entered when the
    # thread is spawned (before these: 177 reductions and 44 variables;
    # 157 before the last).  The ten suspensions are the consumer thread's, one for
    # each cell it waits for.
    suspends = []
    s = Session(on_trace=lambda kind, p: suspends.append(p)
                if kind == "suspend" else None)
    r0, seq0 = s.rt.stats.reductions, s.store.next_seq
    r = s.feed((Path(__file__).resolve().parent.parent / "docs" / "programs"
                / "gen_map.ozk").read_text())
    assert r.status == "done"
    assert r.browses == ["[" + " ".join(map(str, GEN_MAP_SQUARES)) + "]"]
    assert s.rt.stats.reductions - r0 == 145
    assert s.store.next_seq - seq0 == 34
    assert len(suspends) == 10


def test_calling_a_non_procedure_is_an_error():
    with pytest.raises(OzkError, match="cannot call"):
        run_text("X in X = 5 {X 1}")


def test_equality_on_cyclic_structures():
    r = run_text("""
    X Y in
    X = f(1 X)
    Y = f(1 f(1 Y))
    {Browse X == Y}
    {Browse X}
    """)
    assert r.status == "done"
    assert r.browses[0] == "true"
    assert r.browses[1] == "f(1 @1)"


# -- scheduling policies ------------------------------------------------------------

def test_random_policy_reaches_the_same_answer():
    program = """
    proc {Count I N Xs}
       if I > N then Xs = nil
       else Xr in Xs = I|Xr {Count I+1 N Xr} end
    end
    proc {Sum Xs A}
       case Xs of nil then {Browse A}
       [] X|Xr then {Sum Xr A+X} end
    end
    Xs Ys in
    thread {Sum Ys 0} end
    thread Ys = {Map Xs fun {$ X} X*X end} end
    thread {Count 1 20 Xs} end
    """
    want = run_text(program).browses
    for seed in range(5):
        got = run_text(program, policy="random", seed=seed)
        assert got.status == "done"
        assert got.browses == want


def test_random_policy_is_reproducible_per_seed():
    program = "thread {Browse a} end thread {Browse b} end thread {Browse c} end"
    runs = [run_text(program, policy="random", seed=99).browses
            for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


# -- sessions (the interactive loop's substrate) --------------------------------------

# -- names and frames -------------------------------------------------------
# Each name resolves to a slot of its activation's frame; a name that
# shadows another has a slot of its own, and a closure captures the values
# of its free names when it is made.

@pytest.mark.parametrize("program, browses", [
    # a nested local X shadows another X
    ("local X in X = 1 local X in X = 2 {Browse X} end {Browse X} end",
     ["2", "1"]),
    # a case capture shadows an outer name
    ("local X Y in X = 5 Y = f(7) case Y of f(X) then {Browse X} end "
     "{Browse X} end", ["7", "5"]),
    # guard variables of two arms with one name; the first guard fails
    ("local X in X = 3 "
     "if Y in Y = X + 1 Y > 10 then {Browse big(Y)} "
     "elseif Y in Y = X * 2 then {Browse twice(Y)} "
     "else {Browse no} end {Browse X} end", ["twice(6)", "3"]),
    # a thread and a sibling local declare the same name; both are alive
    # in one activation, and the thread reads its X after the sibling has
    # made and bound its own
    ("local R S in "
     "thread local X in X = 1 S = unit {Wait R} {Browse X} end end "
     "{Wait S} local X in X = 2 R = unit {Browse X} end end", ["2", "1"]),
    # a closure captures a name that is bound after the closure is made
    ("local Y F in fun {F} Y end Y = 42 {Browse {F}} end", ["42"]),
    # mutually recursive local procedures capture each other
    ("local Even Odd in "
     "fun {Even N} if N == 0 then true else {Odd N - 1} end end "
     "fun {Odd N} if N == 0 then false else {Even N - 1} end end "
     "{Browse {Even 10}} {Browse {Odd 7}} end", ["true", "true"]),
])
def test_names_resolve_to_their_own_declarations(program, browses):
    for policy, seed in (("fifo", None), ("random", 1), ("random", 2)):
        r = run_text(program, policy=policy, seed=seed)
        assert r.status == "done"
        assert r.browses == browses


def test_a_choice_alternative_local_is_made_again_after_a_backtrack():
    # The alternatives' locals are slots of the goal's one frame; each
    # path writes them before it reads them.
    r = run_text("""
    S in
    {SolveAll proc {$ R} X in
                 choice X = 1 [] X = 2 end
                 choice A in A = X * 10 R = a(X A)
                 [] A B in A = X + 1 B = f(A) R = b(X B)
                 end
              end S}
    {Browse S}
    """)
    db = oracles.read_program("""
    q(R) :- x(X), y(X, R).
    x(1). x(2).
    y(X, a(X, A)) :- A is X * 10.
    y(X, b(X, B)) :- A is X + 1, B = f(A).
    """)
    goals, qvars = oracles.read_query("q(R)")
    answers = [oracles.to_plain(a)
               for a in oracles.solve_all(db, goals, qvars["R"])]

    def text(t):
        if isinstance(t, tuple):
            return f"{t[0]}({' '.join(text(a) for a in t[1:])})"
        return str(t)
    assert r.status == "done"
    assert r.browses == ["[" + " ".join(text(a) for a in answers) + "]"]
    assert answers == [("a", 1, 10), ("b", 1, ("f", 2)),
                       ("a", 2, 20), ("b", 2, ("f", 3))]


def test_a_later_local_does_not_change_what_a_closure_captured():
    s = Session()
    s.feed("X = 5")
    s.feed("fun {F} X end")
    assert s.feed("local X in X = 3 {Browse X} end").browses == ["3"]
    assert s.feed("{Browse {F}}").browses == ["5"]


def test_session_keeps_declarations_across_feeds():
    s = Session()
    assert s.feed("X = 41").status == "done"
    r = s.feed("Y in Y = X + 1 {Browse Y}")
    assert r.browses == ["42"]
    s.feed("fun {Twice A} A * 2 end")
    assert s.feed("{Browse {Twice 21}}").browses == ["42"]


def test_later_feed_wakes_a_blocked_thread():
    s = Session()
    r1 = s.feed("Q in thread {Wait Q} {Browse got(Q)} end")
    assert r1.status == "deadlock"
    assert r1.browses == []
    r2 = s.feed("Q = 99")
    assert r2.status == "done"
    assert r2.browses == ["got(99)"]


def test_browses_are_reported_per_feed():
    s = Session()
    s.feed("{Browse one}")
    r = s.feed("{Browse two}")
    assert r.browses == ["two"]


def test_runtime_keeps_no_browsed_lines_between_feeds():
    s = Session()
    feeds = [
        ("{Browse one} {Delay 10} {Browse two}",
         "done", [(0, "one"), (10, "two")]),
        ("Q in thread {Wait Q} {Browse got(Q)} end", "deadlock", []),
        ("Q = 3 {Browse set}", "done", [(10, "set"), (10, "got(3)")]),
        ("skip", "done", []),
    ]
    for text, status, log in feeds:
        r = s.feed(text)
        assert (r.status, r.browse_log) == (status, log)
        assert r.browses == [line for _, line in log]
        assert s.rt.browse_log == []


def test_parse_cache_respects_globals():
    # The same text means something else once X is already global.
    assert Session().feed("X = 5 {Browse X}").browses == ["5"]
    s = Session()
    s.feed("X = 4")
    assert s.feed("X = 5 {Browse X}").status == "failed"


def test_temporaries_do_not_hide_globals():
    s = Session()
    s.feed("_R1 = 7 fun {Inc N} N + 1 end")
    # A temporary may shadow a global the chunk does not mention ...
    assert s.feed("{Browse {Inc {Inc 1}}}").browses == ["3"]
    # ... but never one it does.
    assert s.feed("{Browse {Inc {Inc _R1}}}").browses == ["9"]
