"""Encapsulated search: choicepoints, answer copying, laziness, isolation."""

import io
from pathlib import Path

import pytest

from oracles import (APPEND_123_SPLITS, QUEENS8_COUNT, QUEENS8_FIRST,
                     queens_brute)
from ozk import prolog
from ozk.cli import main
from ozk.errors import (ChoiceOutsideSearchError, EscapeError, OzkError,
                        SearchStuckError, ThreadInSearchError)
from ozk.interp import Session, run_text

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
    "Solve": "L in {Solve fun {$} D in {Digit D} D end L}",
}
_CHOICE = (ChoiceOutsideSearchError,
           "choice is only allowed inside a search engine")
_DELAY = (OzkError, "Delay is only allowed in a regular thread")
_SOLVE = (ThreadInSearchError, "lazy solving needs a thread of its own")
_IN_GUARD = (ThreadInSearchError, "cannot create a thread inside a guard")
_IN_ENGINE = (ThreadInSearchError,
              "cannot create a thread inside a search engine")
_REJECTED = {
    ("thread", "choice"): _CHOICE,
    ("guard", "thread"): _IN_GUARD,
    ("guard", "Delay"): _DELAY,
    ("guard", "choice"): _CHOICE,
    ("guard", "Solve"): _SOLVE,
    ("engine", "thread"): _IN_ENGINE,
    ("engine", "Delay"): _DELAY,
    ("engine", "Solve"): _SOLVE,
    ("guard-in-engine", "thread"): _IN_GUARD,
    ("guard-in-engine", "Delay"): _DELAY,
    ("guard-in-engine", "choice"): _CHOICE,
    ("guard-in-engine", "Solve"): _SOLVE,
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


@pytest.mark.parametrize("source, reductions, made", [
    ("queens.ozk", 7688, 1391),
    ("queens.pl", 7676, 1391),
])
def test_queens6_runs_in_a_pinned_number_of_reductions_and_variables(
        source, reductions, made):
    # The exact counts of all 4 solutions of 6-queens.  They fall when
    # `X = f(...)` stops building what is there, a local stops making a
    # first use, or a body stops being pushed flat; a change that loses
    # one of these raises them (before first uses: 8731/8719 reductions
    # and 4005/3999 variables).
    s = Session()
    r0, seq0 = s.rt.stats.reductions, s.store.next_seq
    r = s.feed(_queens6(source))
    assert r.status == "done"
    answers = r.browses[0][2:-2].split("] [")
    assert sorted(answers) == sorted(fmt_list(q)[1:-1] for q in queens_brute(6))
    assert s.rt.stats.reductions - r0 == reductions
    assert s.store.next_seq - seq0 == made
