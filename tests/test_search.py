"""Encapsulated search: choicepoints, answer copying, laziness, isolation."""

import pytest

from oracles import APPEND_123_SPLITS, QUEENS8_COUNT, QUEENS8_FIRST
from ozk.errors import (EscapeError, OzkError, SearchStuckError,
                        ThreadInSearchError)
from ozk.interp import Session, run_text

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


def test_waiting_on_an_outside_variable_is_a_stuck_error():
    s = Session()
    with pytest.raises(SearchStuckError):
        s.feed("X S in {SolveOne fun {$} X + 1 end S}")
    assert s.store.trails == []


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
    assert s.store.trails == []
    # an unrelated search in the same session is unaffected
    r2 = s.feed("S in {SolveAll fun {$} D in {Digit D} D end S} {Browse S}")
    assert r2.browses == ["[1 2 3]"]
    # and the parked engine still resumes correctly afterwards
    r3 = s.feed("{Browse {Nth L 2}} {Browse {Nth L 3}}")
    assert r3.browses == ["2", "3"]
