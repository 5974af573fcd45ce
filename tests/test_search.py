"""Encapsulated search: choicepoints, answer copying, laziness, isolation."""

import io
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (APPEND_123_SPLITS, QUEENS8_COUNT, QUEENS8_FIRST,
                     queens_brute, ref_first_head)
from ozk import prolog
from ozk.compiler import SKIP, Alt, Build, Code, Fresh, Unify
from ozk.cli import main
from ozk.errors import (ChoiceOutsideSearchError, EscapeError, OzkError,
                        SearchStuckError, ThreadInSearchError)
from ozk.interp import Session, run_text
from ozk.runtime import Runtime, unify_compound
from ozk.search import Engine
from ozk.terms import Atom, Closure, Compound, Int, Var
from test_prolog import oracle_all_text, translated_all_text

PROGRAMS = Path(__file__).resolve().parent.parent / "docs" / "programs"

QUEENS = """
fun {Queens N}
   fun {MakeList N}
      if N==0 then nil else _|{MakeList N-1} end
   end
   proc {PlaceQueens N Cs Us Ds}
      if N==0 then skip
      elseif N>0 then Ds2 Us2=_|Us in
         Ds=_|Ds2
         {PlaceQueens N-1 Cs Us2 Ds2}
         {PlaceQueen N Cs Us Ds2}
      else fail end
   end
   proc {PlaceQueen N Cs Us Ds}
      choice
         Cs=N|_ Us=N|_ Ds=N|_
      [] Cs2 Us2 Ds2 in
         Cs=_|Cs2 Us=_|Us2 Ds=_|Ds2
         {PlaceQueen N Cs2 Us2 Ds2}
      end
   end
   Qs={MakeList N}
in
   {PlaceQueens N Qs _ _}
   Qs
end
"""

DIGIT = """
proc {Digit D} choice D = 1 [] D = 2 [] D = 3 end end
"""


def fmt_list(xs):
    return "[" + " ".join(str(x) for x in xs) + "]" if xs else "nil"


# -- enumeration order and completeness ----------------------------------------

def test_alternatives_are_tried_left_to_right():
    r = run_text(DIGIT + "S in {SolveAll fun {$} D in {Digit D} D end S} {Browse S}")
    assert r.browses == ["[1 2 3]"]


def test_depth_first_enumeration_order():
    r = run_text(DIGIT + """
    S in
    {SolveAll fun {$} A B in {Digit A} {Digit B} pair(A B) end S}
    {Browse S}
    """)
    pairs = [f"pair({a} {b})" for a in (1, 2, 3) for b in (1, 2, 3)]
    assert r.browses == ["[" + " ".join(pairs) + "]"]


def test_failed_alternatives_are_skipped():
    r = run_text("""
    S in
    {SolveAll fun {$} X in choice fail [] X = 2 [] 1 = 2 [] X = 4 end X end S}
    {Browse S}
    """)
    assert r.browses == ["[2 4]"]


def test_no_answers_gives_the_empty_list():
    r = run_text("S in {SolveOne fun {$} fail 1 end S} {Browse S}")
    assert r.browses == ["nil"]


def test_solve_one_returns_a_singleton():
    r = run_text(DIGIT + "S in {SolveOne fun {$} D in {Digit D} D end S} {Browse S}")
    assert r.browses == ["[1]"]


def test_relational_append_enumerates_all_splits():
    r = run_text("""
    proc {AppendR As Bs Cs}
       choice As = nil Cs = Bs
       [] A Ar Cr in As = A|Ar Cs = A|Cr {AppendR Ar Bs Cr}
       end
    end
    S in
    {SolveAll fun {$} A B in {AppendR A B [1 2 3]} split(A B) end S}
    {Browse S}
    """)
    expected = "[" + " ".join(f"split({fmt_list(f)} {fmt_list(b)})"
                              for f, b in APPEND_123_SPLITS) + "]"
    assert r.browses == [expected]


# -- the queens benchmark --------------------------------------------------------

def test_queens_first_solution_matches_the_oracle():
    r = run_text(QUEENS + "S in {SolveOne fun {$} {Queens 8} end S} {Browse S}")
    assert r.browses == ["[" + fmt_list(QUEENS8_FIRST) + "]"]


def test_queens_solution_count_matches_the_oracle():
    r = run_text(QUEENS + """
    S in
    {SolveAll fun {$} {Queens 8} end S}
    {Browse {Length S}}
    {Browse {Nth S 1}}
    """)
    assert r.browses == [str(QUEENS8_COUNT), fmt_list(QUEENS8_FIRST)]


# -- answers are copied out, not shared -----------------------------------------

def test_answers_are_independent_copies():
    r = run_text("""
    S A B in
    {SolveAll fun {$} Y in choice skip [] skip end Y end S}
    S = [A B]
    A = 1
    B = 2
    {Browse S}
    """)
    assert r.status == "done"
    assert r.browses == ["[1 2]"]


def test_variables_from_outside_stay_shared_in_answers():
    r = run_text("""
    X S in
    {SolveAll fun {$} f(X) end S}
    X = 5
    {Browse S}
    """)
    assert r.browses == ["[f(5)]"]


def test_cyclic_answers_survive_the_copy():
    r = run_text("""
    S in
    {SolveAll fun {$} X in X = f(X) X end S}
    case S of X|nil then {Browse X == f(X)} {Browse X} end
    """)
    assert r.browses == ["true", "f(@1)"]


# -- isolation: speculation never leaks ------------------------------------------

def test_store_is_clean_after_search():
    s = Session()
    s.feed(DIGIT)
    r = s.feed("S in {SolveAll fun {$} D in {Digit D} D end S} {Browse S}")
    assert r.browses == ["[1 2 3]"]
    assert s.store.trails == []


def test_search_registers_no_variables():
    # The registry holds only variables whose VarId leaves the store; a
    # search on one store exports none, so all it made can be freed.
    s = Session()
    s.feed(QUEENS)
    r = s.feed("{Browse {Length {SolveAll fun {$} {Queens 8} end}}}")
    assert r.browses == [str(QUEENS8_COUNT)]
    assert s.store.vars == {}


def test_answers_share_the_variables_that_predate_the_engine():
    s = Session()
    r = s.feed("""
    X S in
    {SolveAll fun {$} Y in choice Y = a [] Y = b end f(X Y) end S}
    case S of [f(X1 _) f(X2 _)] then
       X = 1 {Browse p(X1 X2)}
    end
    """)
    assert r.browses == ["p(1 1)"]
    assert s.store.vars == {}


def test_binding_an_outside_variable_is_an_escape_error():
    s = Session()
    with pytest.raises(EscapeError):
        s.feed("X S in {SolveAll fun {$} X = 1 unit end S}")
    assert s.store.trails == []
    # the session is still usable and X is still unbound
    assert s.feed("X = 2 {Browse X}").browses == ["2"]


def test_a_first_use_that_aliases_an_outside_variable_cannot_bind_it():
    # A is a first use: it takes X's argument, the outside Y, as its
    # value, and binding it binds Y
    s = Session()
    s.feed("X Y in X = f(Y)")
    with pytest.raises(EscapeError):
        s.feed("S in {SolveAll fun {$} local A in X = f(A) A = 1 end unit end S}")
    assert s.store.trails == []
    assert s.feed("{Browse X}").browses == ["f(_G1)"]


@pytest.mark.parametrize("goal", ["X = f(1) unit",
                                  "choice X = f(1) [] skip end unit"],
                         ids=["reduction", "choice-head"])
def test_a_read_mode_bind_of_an_outside_argument_is_an_escape_error(goal):
    # X = f(1) meets f(Y) in read mode and binds the outside Y inline, in a
    # reduction or in a choice's head; the escape check still sees it
    s = Session()
    s.feed("X Y in X = f(Y)")
    with pytest.raises(EscapeError):
        s.feed(f"S in {{SolveAll fun {{$}} {goal} end S}}")
    assert s.store.trails == []
    assert s.feed("{Browse X}").browses == ["f(_G1)"]


def test_waiting_on_an_outside_variable_is_a_stuck_error():
    s = Session()
    with pytest.raises(SearchStuckError):
        s.feed("X S in {SolveOne fun {$} X + 1 end S}")
    assert s.store.trails == []


def test_a_runtime_error_inside_search_leaves_the_store_clean():
    s = Session()
    with pytest.raises(OzkError, match="division by zero"):
        s.feed("S in {SolveAll fun {$} X in X = 1 X div 0 end S}")
    assert s.store.trails == [] and s.store.owns is None


def test_thread_creation_inside_search_is_rejected():
    with pytest.raises(ThreadInSearchError):
        run_text("S in {SolveOne fun {$} thread skip end 1 end S}")


def test_delay_inside_search_is_rejected():
    with pytest.raises(OzkError, match="Delay"):
        run_text("S in {SolveOne fun {$} {Delay 1} 1 end S}")


def test_lazy_solve_inside_search_is_rejected():
    with pytest.raises(ThreadInSearchError):
        run_text(DIGIT + """
        S in
        {SolveOne fun {$} L in {Solve fun {$} D in {Digit D} D end L} 1 end S}
        """)


# The same statements in each kind of task: the top-level thread, a guard,
# an engine and a guard inside an engine.  A pair not in _REJECTED runs.
_CONTEXTS = {
    "thread": "%s",
    "guard": "if B in %s B = true then skip end",
    "engine": "S in {SolveOne fun {$} %s 1 end S}",
    "guard-in-engine":
        "S in {SolveOne fun {$} if B in %s B = true then skip end 1 end S}",
}
_STATEMENTS = {
    "thread": "thread skip end",
    "Delay": "{Delay 1}",
    "choice": "choice skip [] skip end",
    # an engine enters a called choice in the call's step; the others push
    # the body and reject the choice when they reach it
    "called choice": "local P in proc {P} choice skip [] skip end end {P} end",
    "Solve": "L in {Solve fun {$} D in {Digit D} D end L}",
    "lazy call": "local F X in fun lazy {F} 1 end X = {F} end",
}
_CHOICE = (ChoiceOutsideSearchError,
           "choice is only allowed inside a search engine")
_DELAY = (OzkError, "Delay is only allowed in a regular thread")
_SOLVE = (ThreadInSearchError, "lazy solving needs a thread of its own")
_IN_GUARD = (ThreadInSearchError, "cannot create a thread inside a guard")
_IN_ENGINE = (ThreadInSearchError,
              "cannot create a thread inside a search engine")
_LAZY_IN_GUARD = (ThreadInSearchError,
                  "cannot make a lazy call inside a guard")
_LAZY_IN_ENGINE = (ThreadInSearchError,
                   "cannot make a lazy call inside a search engine")
_REJECTED = {
    ("thread", "choice"): _CHOICE,
    ("thread", "called choice"): _CHOICE,
    ("guard", "thread"): _IN_GUARD,
    ("guard", "Delay"): _DELAY,
    ("guard", "choice"): _CHOICE,
    ("guard", "called choice"): _CHOICE,
    ("guard", "Solve"): _SOLVE,
    ("guard", "lazy call"): _LAZY_IN_GUARD,
    ("engine", "thread"): _IN_ENGINE,
    ("engine", "Delay"): _DELAY,
    ("engine", "Solve"): _SOLVE,
    ("engine", "lazy call"): _LAZY_IN_ENGINE,
    ("guard-in-engine", "thread"): _IN_GUARD,
    ("guard-in-engine", "Delay"): _DELAY,
    ("guard-in-engine", "choice"): _CHOICE,
    ("guard-in-engine", "called choice"): _CHOICE,
    ("guard-in-engine", "Solve"): _SOLVE,
    ("guard-in-engine", "lazy call"): _LAZY_IN_GUARD,
}


@pytest.mark.parametrize("context", list(_CONTEXTS))
@pytest.mark.parametrize("statement", list(_STATEMENTS))
def test_each_kind_of_task_rejects_what_it_cannot_run(context, statement):
    program = DIGIT + _CONTEXTS[context] % _STATEMENTS[statement]
    expected = _REJECTED.get((context, statement))
    if expected is None:
        assert run_text(program).status == "done"
        return
    error, text = expected
    with pytest.raises(error, match=text):
        run_text(program)


def test_a_called_choice_in_an_engine_is_a_reduction_of_its_own():
    # {P R} and the choice it enters count two reductions, as when the
    # choice was pushed by the call and popped: the run takes 6 (7 before
    # a thread's body was entered when it is spawned), and a budget of
    # any fewer stops it.
    for steps in range(7):
        s = Session()
        s.feed("proc {P X} choice X = 1 [] X = 2 end end")
        s.rt.max_steps = steps
        before = s.rt.stats.reductions
        r = s.feed("S in {SolveAll proc {$ R} {P R} end S} {Browse S}")
        assert r.status == ("done" if steps == 6 else "limit")
        assert s.rt.stats.reductions - before == min(steps + 1, 6)
    assert r.browses == ["[1 2]"]


def test_a_goal_body_is_entered_where_the_engine_pushes_it():
    # the goal's body is entered as a call's is, so `skip` is the only
    # reduction the block adds: one, not two
    def cost(goal):
        s = Session()
        s.feed(goal)
        before = s.rt.stats.reductions
        r = s.feed("S in {SolveAll Q S} {Browse S}")
        assert r.browses == ["[1 2]"]
        return s.rt.stats.reductions - before
    plain = cost("proc {Q X} choice X = 1 [] X = 2 end end")
    block = cost("proc {Q X} skip choice X = 1 [] X = 2 end end")
    assert block == plain + 1


@pytest.mark.parametrize("chunk", [
    "{Loop}",
    "if X in {Loop} then skip end",
    "S in {SolveAll fun {$} {Loop} 1 end S}",
    "S in {SolveAll fun {$} if X in {Loop} then skip end 1 end S}",
], ids=["thread", "guard", "engine", "guard-in-engine"])
def test_the_step_budget_stops_every_kind_of_task_at_the_same_count(chunk):
    s = Session(max_steps=5000)
    s.feed("proc {Loop} {Loop} end")
    before = s.rt.stats.reductions
    assert s.feed(chunk).status == "limit"
    assert s.rt.stats.reductions - before == 5001


def test_a_search_that_loops_through_heads_still_ends_at_the_step_budget(
        capsys, tmp_path):
    # A head that fails costs no reduction of its own: the budget still
    # bounds a search whose every alternative is entered by its head.
    program = tmp_path / "loop.ozk"
    program.write_text("proc {P X} choice X = b [] {P X} end end\n"
                       "S in {SolveOne proc {$ R} {P R} R = a end S}\n")
    assert main(["run", str(program), "--max-steps", "5000"]) == 1
    assert "step budget exhausted" in capsys.readouterr().err


# -- shallow backtracking: the heads of a choice's alternatives -------------------

def test_a_head_that_binds_an_outside_variable_and_then_fails_escapes():
    # The head binds X and then fails; the escape is found before its
    # undo, as it would be after a reduction that bound X.
    s = Session()
    with pytest.raises(EscapeError):
        s.feed("X S in {SolveAll fun {$} choice X = 1 1 = 2 [] skip end "
               "unit end S}")
    assert s.store.trails == []
    assert s.feed("X = 2 {Browse X}").browses == ["2"]


@pytest.mark.parametrize("alternative", ["T = f(1 X)", "skip T = f(1 X)"],
                         ids=["head", "reduction"])
def test_a_failing_unification_that_bound_an_outside_variable_fails(
        alternative):
    # The pairs are settled last to first: X = 5 binds X, then 2 = 1
    # clashes.  The failure undoes X unchecked, in a head as after a
    # reduction, and the next alternative is taken.
    s = Session()
    r = s.feed("X S in {SolveAll fun {$} T in T = f(2 5) "
               f"choice {alternative} [] skip end 1 end S}} {{Browse S}}")
    assert r.browses == ["[1]"]
    assert s.lookup("X").ref is None


def test_a_need_spread_in_an_engine_is_undone_with_its_escape():
    # Z is needed (a thread waits on it) and is the greater of two outside
    # variables, so the engine's Y = Z binds Z to Y and spreads the need to
    # Y: a need mark on the engine's trail.  The binding escapes, and the
    # undo clears both.  Only an escape puts a need mark on an engine's
    # trail: the engine binds an outside variable in no other way, and
    # none of its own variables is needed.
    s = Session()
    assert s.feed("Y Z in thread {Wait Z} end").status == "deadlock"
    y, z = s.lookup("Y"), s.lookup("Z")
    assert z.needed and not y.needed
    with pytest.raises(EscapeError):
        s.feed("S in {SolveAll fun {$} Y = Z 1 end S}")
    assert s.store.trails == []
    assert z.ref is None and not y.needed


def test_a_local_alternative_whose_head_fails_leaves_the_store_clean():
    # The first head binds its own A and B and the engine's Y before it
    # fails; the third head would fail on Y if that binding were left.
    s = Session()
    r = s.feed("""
    S in
    {SolveAll fun {$} R Y in
                 R = p(1 2)
                 choice A B in A = 7 Y = A B = 8 R = p(A B) {Browse no}
                 [] A in R = p(A 3)
                 [] A in R = p(1 A) Y = A
                 end
                 r(R Y)
              end S}
    {Browse S}
    """)
    assert r.browses == ["[r(p(1 2) 2)]"]
    assert s.store.trails == [] and s.store.owns is None


def test_a_label_or_arity_clash_in_a_head_falls_through():
    r = run_text("""
    S in
    {SolveAll fun {$} X R in
                 X = g(1)
                 choice X = f(_) R = f
                 [] X = g(_ _) R = g2
                 [] X = g(_) R = g1
                 [] R = last
                 end
                 R
              end S}
    {Browse S}
    """)
    assert r.browses == ["[g1 last]"]


# The clauses of m/4 clash with the goal m(N, a, x, R) in their first,
# second and third argument: for N = 1 every head fails, the last at its
# third argument, and the engine backtracks into pick/1's choicepoint.
CLASHES = """
pick(1).
pick(2).
pick(3).
m(2, a, x, two).
m(1, b, x, one_b).
m(3, a, x, three).
m(1, a, y, one_y).
"""


def test_heads_that_all_fail_backtrack_into_an_older_choicepoint():
    query = "pick(N), m(N, a, x, R)"
    got = translated_all_text(CLASHES, query)
    assert got == oracle_all_text(CLASHES, query) == "[q(2 two) q(3 three)]"


# step/2's clauses compute into temporaries (T, M and the translator's own
# for is/2) whose first use is an operator's result: they are stored in
# the clause's frame, after the alternative's head, and computed again for
# each answer of pick/1 that the engine backtracks into.
IS_STEPS = """
pick(1).
pick(2).
pick(3).
step(N, Y) :- N < 3, T is N * 10, Y is T + 1.
step(N, Y) :- M is N + 100, Y is (M - 1) * 2.
run(N, Y) :- pick(N), step(N, Y).
"""


def test_first_use_results_of_is_are_recomputed_after_a_backtrack():
    query = "run(N, Y)"
    got = translated_all_text(IS_STEPS, query)
    assert got == oracle_all_text(IS_STEPS, query) == (
        "[q(1 11) q(1 200) q(2 21) q(2 202) q(3 204)]")


# -- nested engines ---------------------------------------------------------------

def test_search_can_run_inside_search():
    r = run_text(DIGIT + """
    S in
    {SolveAll fun {$} Inner in
                 {SolveAll fun {$} D in {Digit D} D end Inner}
                 {Length Inner}
              end S}
    {Browse S}
    """)
    assert r.browses == ["[3]"]


def test_nested_search_under_an_outer_choice():
    r = run_text(DIGIT + """
    S in
    {SolveAll fun {$} K Inner in
                 choice K = 10 [] K = 20 end
                 {SolveAll fun {$} D in {Digit D} D end Inner}
                 pair(K {Length Inner})
              end S}
    {Browse S}
    """)
    assert r.browses == ["[pair(10 3) pair(20 3)]"]


# -- lazy enumeration --------------------------------------------------------------

def test_lazy_prefix_equals_eager_prefix():
    eager = run_text(QUEENS + """
    S in {SolveAll fun {$} {Queens 6} end S} {Browse {Take S 4}}
    """).browses
    lazy = run_text(QUEENS + """
    L in {Solve fun {$} {Queens 6} end L} {Browse {Take L 4}}
    """).browses
    assert eager == lazy


def test_lazy_stream_ends_with_nil_when_exhausted():
    r = run_text(DIGIT + """
    L in
    {Solve fun {$} D in {Digit D} D end L}
    {WaitList L}
    {Browse L}
    """)
    assert r.status == "done"
    assert r.browses == ["[1 2 3]"]


def test_lazy_search_does_only_the_demanded_work():
    def reductions(program):
        s = Session()
        s.feed(QUEENS)
        before = s.rt.stats.reductions
        s.feed(program)
        return s.rt.stats.reductions - before

    full = reductions("S in {SolveAll fun {$} {Queens 8} end S} {Browse {Length S}}")
    first = reductions("L in {Solve fun {$} {Queens 8} end L} {Browse {Nth L 1}}")
    assert first < full / 4


def test_two_lazy_searches_interleave():
    r = run_text(DIGIT + """
    L1 L2 in
    {Solve fun {$} D in {Digit D} D end L1}
    {Solve fun {$} D in {Digit D} D*10 end L2}
    {Browse {Nth L1 1}}
    {Browse {Nth L2 1}}
    {Browse {Nth L1 2}}
    {Browse {Nth L2 2}}
    {Browse {Nth L1 3}}
    {Browse {Nth L2 3}}
    """)
    assert r.browses == ["1", "10", "2", "20", "3", "30"]


def test_parked_engine_leaves_the_store_clean_between_steps():
    s = Session()
    s.feed(DIGIT)
    r1 = s.feed("""
    L in
    {Solve fun {$} D in {Digit D} D end L}
    {Browse {Nth L 1}}
    """)
    assert r1.browses == ["1"]
    assert s.store.trails == [] and s.store.owns is None
    # an unrelated search in the same session is unaffected
    r2 = s.feed("S in {SolveAll fun {$} D in {Digit D} D end S} {Browse S}")
    assert r2.browses == ["[1 2 3]"]
    # and the parked engine still resumes correctly afterwards
    r3 = s.feed("{Browse {Nth L 2}} {Browse {Nth L 3}}")
    assert r3.browses == ["2", "3"]


# -- ownership: an engine owns exactly the variables it made -----------------------
#
# A variable that another thread makes while a lazy engine waits is an
# outside variable, as it is when it predates the engine: Solve must give
# what SolveAll gives on the same goal with the binding made first.

def test_lazy_engine_binding_a_later_outside_variable_is_an_escape_error():
    with pytest.raises(EscapeError):
        run_text("""
        local X L in
           {Solve fun {$} case X of f(Y) then Y = 1 Y end end L}
           X = f(_)
           {Browse {Nth L 1}}
        end
        """)
    with pytest.raises(EscapeError):
        run_text("""
        local X L in
           X = f(_)
           {SolveAll fun {$} case X of f(Y) then Y = 1 Y end end L}
           {Browse {Nth L 1}}
        end
        """)


@pytest.mark.parametrize("program", [
    "{Solve fun {$} case X of f(Y) then Y end end L} X = f(_)",
    "X = f(_) {SolveAll fun {$} case X of f(Y) then Y end end L}",
], ids=["lazy", "eager"])
def test_answers_share_an_outside_variable_made_later(program):
    r = run_text(f"""
    local X L A in
       {program}
       A = {{Nth L 1}}
       A = 5
       {{Browse X}}
    end
    """)
    assert r.status == "done"
    assert r.browses == ["f(5)"]


def test_outside_variable_made_between_two_lazy_answers_is_shared():
    r = run_text("""
    local X L A in
       {Solve fun {$} R in
                 choice R = a [] case X of f(Y) then R = Y end end
                 R
              end L}
       {Browse {Nth L 1}}
       X = f(_)
       A = {Nth L 2}
       A = 5
       {Browse X}
    end
    """)
    assert r.status == "done"
    assert r.browses == ["a", "f(5)"]


# -- one driver: eager, lazy and REPL search agree -----------------------------------

APPEND_R = """
proc {AppendR As Bs Cs}
   choice As = nil Cs = Bs
   [] A Ar Cr in As = A|Ar Cs = A|Cr {AppendR Ar Bs Cr}
   end
end
"""

# (definitions, one-argument goal procedure G, the answers in order or a
# check of them)
DRIVER_CASES = {
    "digit": (DIGIT + "proc {G R} {Digit R} end", ["1", "2", "3"]),
    "queens6": (QUEENS + "proc {G R} R = {Queens 6} end",
                sorted(fmt_list(q) for q in queens_brute(6))),
    "append_splits": (APPEND_R + "proc {G R} A B in {AppendR A B [1 2 3]} "
                      "R = split(A B) end",
                      [f"split({fmt_list(f)} {fmt_list(b)})"
                       for f, b in APPEND_123_SPLITS]),
}

EACH = "proc {Each Xs} case Xs of nil then skip [] X|Xr then {Browse X} {Each Xr} end end\n"


@pytest.mark.parametrize("case", sorted(DRIVER_CASES))
def test_drivers_give_the_same_answers_in_the_same_order(case, capsys, monkeypatch):
    defs, expected = DRIVER_CASES[case]
    program = defs + "\n" + EACH
    eager = run_text(program + "S in {SolveAll G S} {Each S}").browses
    lazy = run_text(program + "L in {Solve G L} {WaitList L} {Each L}").browses
    lines = [defs, ":solve {G}"] + [":next"] * len(eager)
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    assert main(["repl"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "no more solutions"
    assert eager == lazy == out[:-1]
    if case == "queens6":
        assert sorted(eager) == expected
    else:
        assert eager == expected


# -- a guard on the compiled unification, by counts ---------------------------------


def _queens6(source: str) -> str:
    text = (PROGRAMS / source).read_text()
    if source.endswith(".pl"):
        query = prolog.translate_query_source(
            "queens(6, Qs)", prolog.parse_prolog(text), all_solutions=True)
        return prolog.translate_source(text) + "\n" + query
    return text.replace("SolveOne", "SolveAll").replace("{Queens 8}", "{Queens 6}")


@pytest.mark.parametrize("source, reductions, made, choicepoints", [
    ("queens.ozk", 2160, 932, 152),
    ("queens.pl", 2153, 932, 152),
], ids=["queens.ozk", "queens.pl"])
def test_queens6_runs_in_a_pinned_number_of_reductions_and_variables(
        source, reductions, made, choicepoints, monkeypatch):
    # The exact counts of all 4 solutions of 6-queens.  They fall when
    # `X = f(...)` stops building what is there, a local stops making a
    # first use, a body stops being pushed flat, a `choice` runs the
    # heads of its alternatives inside its own reduction and makes a
    # choicepoint only for a head that succeeds with alternatives left,
    # a local that is a body is entered by the statement that pushes it,
    # an operator stores a result that is a local's first use in the
    # frame, with no variable, or `X = f(...)` with X an atom or an
    # integer clashes with nothing built; a change that loses one of
    # these raises them (before first uses: 8731/8719 reductions and
    # 4005/3999 variables; before heads: 7688/7676 reductions and 1043
    # choicepoints; before entered locals and operator results:
    # 2180/2168 reductions and 1391 variables; before thread and goal
    # bodies were entered where they are pushed, and blocks that make
    # no variable were spliced: 2167/2155 reductions; before atomic
    # values clashed unbuilt: 1379 variables).
    made_cps = []
    push = Engine.push_choicepoint

    def counted(engine, alternatives, env):
        made_cps.append(alternatives)
        return push(engine, alternatives, env)
    monkeypatch.setattr(Engine, "push_choicepoint", counted)
    s = Session()
    r0, seq0 = s.rt.stats.reductions, s.store.next_seq
    r = s.feed(_queens6(source))
    assert r.status == "done"
    answers = r.browses[0][2:-2].split("] [")
    assert sorted(answers) == sorted(fmt_list(q)[1:-1] for q in queens_brute(6))
    assert s.rt.stats.reductions - r0 == reductions
    assert s.store.next_seq - seq0 == made
    assert len(made_cps) == choicepoints


# -- compiled heads against the statement-by-statement reference ------------------

# A generated world: frame slots 1-5 hold values drawn as specs, slots 6
# and up are the alternatives' locals (their first uses and the slots they
# make).  Variables are outside ones (made before the engine) or the
# engine's own, shared through a pool so that a value can repeat.
PARAMS = range(1, 6)
FRAME_SIZE = 14
POOL = 3            # outside variables, and as many own ones


_UNBOUND = st.tuples(st.just("var"), st.booleans())
_LEAVES = st.one_of(
    st.tuples(st.just("int"), st.integers(0, 1)),
    st.tuples(st.just("atom"), st.sampled_from("ab")),
    st.tuples(st.just("pool"), st.booleans(), st.integers(0, POOL - 1)),
    _UNBOUND)


def _weighted(*strategies):
    """One of ``strategies``, each as likely as its repeats make it."""
    return st.sampled_from(strategies).flatmap(lambda s: s)


def _chains(targets):
    """A chain of 1 to 3 links, own or outside, to a value."""
    return st.tuples(st.just("chain"), st.integers(1, 3), st.booleans(),
                     targets)


# Mostly f, so that most heads meet a compound of their label.
_LABELS = st.sampled_from("fffg")


def _compounds(args):
    return st.tuples(st.just("cmp"), _LABELS,
                     st.lists(args, min_size=1, max_size=2))


_CHAINED = _chains(_LEAVES)
_ARG_VALUES = _weighted(_LEAVES, _CHAINED, _CHAINED)
_COMPOUNDS = _compounds(_weighted(_ARG_VALUES, _ARG_VALUES,
                                  _compounds(_ARG_VALUES)))
_VALUES = _weighted(_COMPOUNDS, _COMPOUNDS, _COMPOUNDS,
                    _chains(st.one_of(_COMPOUNDS, _LEAVES)), _LEAVES)
_SLOTS = st.tuples(st.just("slot"), st.integers(1, 8))
_LITERALS = st.tuples(st.just("lit"), st.sampled_from((0, 1, "a", "b")))
_READ_ARGS = _weighted(st.just(("void",)), st.just(("fresh",)),
                       _SLOTS, _SLOTS, _LITERALS, _LITERALS)
_ARGS = st.one_of(
    _READ_ARGS,
    st.tuples(st.just("build"), _LABELS,
              st.lists(_READ_ARGS, min_size=1, max_size=2)))
_PLANNED = st.tuples(st.just("plan"), st.sampled_from(PARAMS), st.booleans(),
                     _LABELS,
                     st.lists(_ARGS, min_size=1, max_size=2))
_HEAD_STATEMENTS = _weighted(
    _PLANNED, _PLANNED, _PLANNED,
    st.tuples(st.just("plain"), st.integers(1, 8),
              st.one_of(st.integers(1, 8), st.sampled_from((0, "a")))))
_ALTERNATIVES = st.tuples(st.integers(0, 1),
                          st.lists(_HEAD_STATEMENTS, min_size=1, max_size=4))


@st.composite
def _worlds(draw):
    """Alternatives, and a value for each parameter slot: mostly a
    compound of the label and arity of the first head statement that
    reads the slot, directly or at the end of a chain."""
    alts = draw(st.lists(_ALTERNATIVES, min_size=1, max_size=3))
    shapes = {}
    for _, stmts in alts:
        for stmt in stmts:
            if stmt[0] == "plan":
                shapes.setdefault(stmt[1], (stmt[3], len(stmt[4])))
    values = []
    for slot in PARAMS:
        if slot in shapes:
            label, arity = shapes[slot]
            match = st.tuples(st.just("cmp"), st.just(label),
                              st.lists(_ARG_VALUES, min_size=arity,
                                       max_size=arity))
            values.append(draw(_weighted(match, match, match, _chains(match),
                                         _UNBOUND, _VALUES)))
        else:
            values.append(draw(_VALUES))
    return values, alts


def _literal(value):
    return Int(value) if type(value) is int else Atom(value)


def _alternatives(specs):
    """Compiled alternatives from their specs: each first use takes a
    local slot of its own, as the compiler gives it."""
    alts = []
    for made, stmts in specs:
        local = iter(range(6, FRAME_SIZE))
        made = tuple(next(local) for _ in range(made))

        def operand(arg):
            kind = arg[0]
            if kind == "void":
                return None
            if kind == "fresh":
                return Fresh(next(local))
            if kind == "slot":
                return arg[1]
            if kind == "lit":
                return _literal(arg[1])
            return Build(arg[1], tuple(operand(a) for a in arg[2]))

        head = []
        for stmt in stmts:
            if stmt[0] == "plain":
                other = stmt[2]
                head.append(Unify(stmt[1], other if type(other) is int
                                  and other > 0 else _literal(other)))
                continue
            _, slot, left, label, args = stmt
            build = Build(label, tuple(operand(a) for a in args))
            head.append(Unify(slot, build) if left else Unify(build, slot))
        alts.append(Alt(made, tuple(head), ()))
    return tuple(alts)


def _world(values):
    """A store, an entered engine and a frame that hold ``values``."""
    rt = Runtime()
    store = rt.store
    outside = [store.new_var() for _ in range(40)]
    pool = {False: outside[:POOL], True: None}
    unused = iter(outside[POOL:])
    code = Code("Goal", 1, [], (), SKIP, ())
    engine = Engine(rt, Closure("Goal", code, []))
    engine.enter()
    pool[True] = [store.new_var() for _ in range(POOL)]
    links = []      # the links of chains, bound once the frame is made

    def new_var(own):
        return store.new_var() if own else next(unused)

    def term(spec):
        kind = spec[0]
        if kind in ("int", "atom"):
            return _literal(spec[1])
        if kind == "pool":
            return pool[spec[1]][spec[2]]
        if kind == "var":
            return new_var(spec[1])
        if kind == "cmp":
            return Compound(spec[1], [term(a) for a in spec[2]])
        _, length, own, target = spec
        value = term(target)
        for _ in range(length):
            var = new_var(own)
            links.append((var, value))
            value = var
        return value

    frame = [code] + [term(spec) for spec in values]
    frame += [store.new_var() for _ in range(FRAME_SIZE - len(frame))]
    for var, value in links:
        var.ref = value
    return engine, frame


def _dump(t, depth=6):
    """A term's structure with its variables' ids, dereferenced link by
    link; cut at ``depth``, as a binding may make it cyclic."""
    if depth == 0:
        return "..."
    if type(t) is Var:
        return ("var", t.vid) if t.ref is None else \
            ("ref", t.vid, _dump(t.ref, depth - 1))
    if type(t) is Compound:
        return (t.label, tuple(_dump(a, depth - 1) for a in t.args))
    return repr(t)


def _run_heads(run, values, alts):
    """Run ``alts`` from the first in a world of ``values`` with ``run``:
    the outcome, the trail's entries (a binding's VarId, or a need mark's
    as a 1-tuple), the frame, the store's next seq and the escape scan's
    place."""
    engine, frame = _world(values)
    trail = engine.trail
    try:
        i, why = run(engine, alts, 0, frame, len(trail))
        outcome = (i, None if why is None else why.reason)
    except EscapeError as exc:
        outcome = ("escape", str(exc))
    entries = [e.vid if type(e) is Var else (e[0].vid,) for e in trail]
    state = (outcome, entries, [_dump(v) for v in frame[1:]],
             engine.store.next_seq, engine.checked)
    engine.leave("undo")
    return state


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_worlds())
def test_compiled_heads_match_the_statement_by_statement_reference(world):
    values, alt_specs = world
    alts = _alternatives(alt_specs)
    compiled = _run_heads(Engine._first_head, values, alts)
    reference = _run_heads(ref_first_head, values, alts)
    assert compiled == reference


def test_a_head_with_program_text_in_its_labels_matches_the_reference():
    # Labels and literals are values of the head function's namespace, so
    # no program text reaches its source: a quote, a line break and a
    # parenthesis in them change nothing.
    odd = "it's\n) + 1"
    label_slot, mismatch_slot = ("cmp", odd, [("int", 1)]), ("cmp", "f", [])
    values = [label_slot, mismatch_slot, ("var", True), ("int", 0),
              ("atom", "a")]
    first = Alt((), (Unify(1, Build(odd, (Atom(odd),))),), ())
    second = Alt((), (Unify(Build(odd, (Fresh(6),)), 1),
                      Unify(3, Build(odd, (Atom(odd), None)))), ())
    alts = (first, second)
    compiled = _run_heads(Engine._first_head, values, alts)
    assert compiled == _run_heads(ref_first_head, values, alts)
    assert compiled[0] == (1, None)
    assert first.head_fn.__code__.co_filename == "<head Goal/1 alt 1>"
    assert second.head_fn.__code__.co_filename == "<head Goal/1 alt 2>"


@pytest.mark.parametrize("argv", [
    ["--placement", "a=0,b=1"], ["--placement", "a=1,b=0"],
    ["--placement", "a=0,b=1", "--net-seed", "1"],
    ["--placement", "a=1,b=0", "--net-seed", "1"]],
    ids=["a0b1", "a1b0", "a0b1-net1", "a1b0-net1"])
def test_heads_under_a_network_take_the_generic_path(argv, tmp_path, capsys,
                                                      monkeypatch):
    # Under a network every head statement goes to unify_compound, which
    # tells a binding's audience; with none only the few that meet an
    # atom (the end of a list) do, and the others are settled inline.
    import ozk.search
    calls = []

    def counted(*args):
        calls.append(1)
        return unify_compound(*args)

    monkeypatch.setattr(ozk.search, "unify_compound", counted)
    program = tmp_path / "queens5.ozk"
    # a text of its own, so that no cached compilation brings heads
    # generated before the patch
    program.write_text(f"% {argv}\n" + QUEENS + """
local R in
   thread R = {Length {SolveAll fun {$} {Queens 5} end}} end
   thread {Wait R} {Browse R} end
end
""")
    assert main(["run", str(program)]) == 0
    assert capsys.readouterr().out == "10\n"
    inline = len(calls)
    assert main(["dist-run", str(program), *argv]) == 0
    out = capsys.readouterr().out
    assert "status: done" in out and out.count("  10\n") == 1, out
    assert len(calls) - inline > 10 * inline
