"""Parser and desugarer: golden shapes, errors, and pretty round-trips."""

import pytest

from ozk.errors import ParseError, QuietGuardViolation
from ozk.parser import parse_interactive, parse_program
from ozk.syntax import (
    BuiltinCall, Call, CaseStmt, CAnon, CCompound, Choice, CLit, CVar, Fail,
    IfStmt, Local, PAnon, PCompound, PLit, ProcDef, PVar, Skip,
    ThreadStmt, Unify, pretty, seq_items,
)
from ozk.terms import Atom, Int

GLOBALS = ("Browse", "WaitNeeded", "Wait", "Delay", "SolveOne", "SolveAll",
           "Solve", "Map", "Sort", "Append")


def parse(src):
    return parse_program(src, GLOBALS)


def unwrap_local(s):
    assert isinstance(s, Local)
    return s.names, seq_items(s.body)


# -- lexing and basic forms -------------------------------------------------

def test_skip_and_comment():
    assert parse("% nothing here\nskip") == Skip()


def test_int_literals():
    s = parse("local X in X=~42 end")
    _, items = unwrap_local(s)
    assert items == [Unify(CVar("X"), CLit(Int(-42)))]


def test_list_sugar():
    s = parse("local X in X=[1 2] end")
    _, items = unwrap_local(s)
    want = CCompound("|", (CLit(Int(1)),
                           CCompound("|", (CLit(Int(2)), CLit(Atom("nil"))))))
    assert items == [Unify(CVar("X"), want)]


def test_constructor_syntax():
    s = parse("local X in X=pair(a 1) end")
    _, items = unwrap_local(s)
    assert items == [Unify(CVar("X"),
                           CCompound("pair", (CLit(Atom("a")), CLit(Int(1)))))]


def test_cons_is_right_associative():
    s = parse("local X Y in X=1|2|Y end")
    _, items = unwrap_local(s)
    want = CCompound("|", (CLit(Int(1)), CCompound("|", (CLit(Int(2)), CVar("Y")))))
    assert items == [Unify(CVar("X"), want)]


def test_operator_precedence():
    # X = 1+2*3 computes the product first
    s = parse("local X in X=1+2*3 end")
    _, items = unwrap_local(s)
    assert isinstance(items[0], Local)
    inner = seq_items(items[0].body)
    assert inner[0].name == "*"
    assert inner[1].name == "+"
    assert inner[1].args[2] == CVar("X")


def test_arith_into_variable_has_no_temp():
    s = parse("local N N1 in N1=N-1 end")
    _, items = unwrap_local(s)
    assert items == [BuiltinCall("-", (CVar("N"), CLit(Int(1)), CVar("N1")))]


def test_comparison_statement_is_a_test():
    s = parse("local X in X<3 end")
    _, items = unwrap_local(s)
    assert items == [BuiltinCall("<", (CVar("X"), CLit(Int(3))))]


# -- implicit declaration ----------------------------------------------------

def test_toplevel_binding_declares():
    s = parse("X=5 {Browse X}")
    names, items = unwrap_local(s)
    assert names == ("X",)
    assert items[0] == Unify(CVar("X"), CLit(Int(5)))


def test_declaration_part_unification_declares_both_sides():
    s = parse("local Us in local Us2=_|Us in skip end end")
    _, items = unwrap_local(s)
    names, inner = unwrap_local(items[0])
    assert names == ("Us2",)
    # the _ inside the list cell is a void, not a declared temporary
    assert inner[0] == Unify(CVar("Us2"), CCompound("|", (CAnon(), CVar("Us"))))


def test_procedure_definition_shadows():
    s = parse("proc {Map} skip end {Map}")
    names, items = unwrap_local(s)
    assert names == ("Map",)
    assert items == [ProcDef("Map", (), Skip()), Call(CVar("Map"), ())]


def test_undeclared_variable_rejected():
    with pytest.raises(ParseError, match="undeclared variable Nope"):
        parse("{Browse Nope}")


# -- functions and tail shapes -------------------------------------------------

def test_fun_desugars_to_proc_with_result():
    s = parse("fun {Inc N} N+1 end")
    names, items = unwrap_local(s)
    assert names == ("Inc",)
    d = items[0]
    assert isinstance(d, ProcDef) and d.params[0] == "N" and len(d.params) == 2
    res = d.params[1]
    assert d.body == BuiltinCall("+", (CVar("N"), CLit(Int(1)), CVar(res)))


def test_skeleton_binds_before_recursive_call():
    s = parse("fun {MakeList N} if N==0 then nil else _|{MakeList N-1} end end")
    _, items = unwrap_local(s)
    d = items[0]
    res = d.params[-1]
    body = d.body
    assert isinstance(body, IfStmt)
    arm = body.arms[0]
    assert arm.guard == BuiltinCall("==", (CVar("N"), CLit(Int(0))))
    assert arm.body == Unify(CVar(res), CLit(Atom("nil")))
    other = body.otherwise
    assert isinstance(other, Local)
    steps = seq_items(other.body)
    # first the cons skeleton, then the decrement, then the tail call
    assert isinstance(steps[0], Unify) and steps[0].lhs == CVar(res)
    assert isinstance(steps[0].rhs, CCompound) and steps[0].rhs.label == "|"
    assert isinstance(steps[1], BuiltinCall) and steps[1].name == "-"
    assert isinstance(steps[2], Call) and steps[2].target == CVar("MakeList")
    assert steps[2].args[-1] == steps[0].rhs.args[1]  # call fills the tail hole


def test_append_case_shape():
    s = parse(
        "proc {App As Bs Cs}\n"
        "   case As of nil then Cs=Bs\n"
        "   [] A|Ar then Cr in Cs=A|Cr {App Ar Bs Cr}\n"
        "   end\n"
        "end")
    _, items = unwrap_local(s)
    body = items[0].body
    assert isinstance(body, CaseStmt)
    assert body.subject == CVar("As")
    assert body.arms[0].pattern == PLit(Atom("nil"))
    assert body.arms[1].pattern == PCompound("|", (PVar("A"), PVar("Ar")))
    assert isinstance(body.otherwise, Fail)
    names, steps = unwrap_local(body.arms[1].body)
    assert names == ("Cr",)
    assert steps[0] == Unify(CVar("Cs"), CCompound("|", (CVar("A"), CVar("Cr"))))
    assert steps[1] == Call(CVar("App"), (CVar("Ar"), CVar("Bs"), CVar("Cr")))


def test_result_variable_passed_into_tail_call():
    s = parse("fun {F X} {F X} end")
    _, items = unwrap_local(s)
    d = items[0]
    assert d.body == Call(CVar("F"), (CVar("X"), CVar(d.params[-1])))


def test_call_result_hole_position():
    s = parse("local X in X={Append $ nil} end")
    _, items = unwrap_local(s)
    assert items == [Call(CVar("Append"), (CVar("X"), CLit(Atom("nil"))))]


def test_nested_call_arguments_evaluate_first():
    s = parse("local X in {Browse {Append X X}} end")
    _, items = unwrap_local(s)
    inner = items[0]
    names, steps = unwrap_local(inner)
    assert isinstance(steps[0], Call) and steps[0].target == CVar("Append")
    assert isinstance(steps[1], Call) and steps[1].target == CVar("Browse")
    assert steps[1].args[0] == steps[0].args[-1]


def test_anonymous_fun():
    s = parse("{Browse {SolveOne fun {$} 1 end}}")
    steps = seq_items(parse("{Browse {SolveOne fun {$} 1 end}}")) \
        if not isinstance(s, Local) else seq_items(s.body)
    names = s.names if isinstance(s, Local) else ()
    d = steps[0]
    assert isinstance(d, ProcDef) and len(d.params) == 1
    assert isinstance(steps[1], Call) and steps[1].target == CVar("SolveOne")
    assert isinstance(steps[2], Call) and steps[2].target == CVar("Browse")
    assert d.name in names


def test_lazy_function_wraps_body_in_demand_wait():
    s = parse("fun lazy {Ints N} N|{Ints N+1} end")
    _, items = unwrap_local(s)
    d = items[0]
    assert isinstance(d.body, ThreadStmt)
    steps = seq_items(d.body.body)
    assert steps[0] == Call(CVar("WaitNeeded"), (CVar(d.params[-1]),))


def test_thread_statement():
    s = parse("thread skip end")
    assert s == ThreadStmt(Skip())


def test_choice_statement():
    s = parse("local X in choice X=1 [] X=2 end end")
    _, items = unwrap_local(s)
    c = items[0]
    assert isinstance(c, Choice) and len(c.alternatives) == 2
    assert c.alternatives[0] == Unify(CVar("X"), CLit(Int(1)))


# -- if / case ---------------------------------------------------------------

def test_if_without_else_skips():
    s = parse("local X in if X==1 then skip end end")
    _, items = unwrap_local(s)
    assert items[0].otherwise == Skip()


def test_case_without_else_fails():
    s = parse("local X in case X of 1 then skip end end")
    _, items = unwrap_local(s)
    assert isinstance(items[0].otherwise, Fail)


def test_elsecase_chains():
    s = parse("local X in case X of 1 then skip elsecase X of 2 then skip end end")
    _, items = unwrap_local(s)
    outer = items[0]
    assert isinstance(outer.otherwise, CaseStmt)
    assert outer.otherwise.arms[0].pattern == PLit(Int(2))


def test_boolean_variable_guard():
    s = parse("local B in if B then skip end end")
    _, items = unwrap_local(s)
    assert items[0].arms[0].guard == BuiltinCall("$test", (CVar("B"),))


def test_statement_guard_with_vars():
    s = parse("local Xs in if H T in Xs=H|T then skip end end")
    _, items = unwrap_local(s)
    arm = items[0].arms[0]
    assert arm.guard_vars == ("H", "T")
    assert arm.guard == Unify(CVar("Xs"), CCompound("|", (CVar("H"), CVar("T"))))


def test_guard_binding_outer_variable_rejected():
    with pytest.raises(QuietGuardViolation):
        parse("local X in if in X=5 then skip end end")


def test_guard_arith_into_outer_rejected():
    with pytest.raises(QuietGuardViolation):
        parse("local X Y in if in Y=X+1 then skip end end")


def test_long_guard_is_checked_in_order():
    # 3000 statements in one guard; the first outer variable bound is named
    binds = " ".join(f"Z = {i}" for i in range(3000))
    with pytest.raises(QuietGuardViolation, match="not Y$"):
        parse(f"local X Y in if Z in {binds} Y = 1 X = 2 then skip end end")
    parse(f"local X in if Z in {binds} then skip end end")


def test_guard_own_vars_allowed():
    s = parse("local X in if Y in Y=X then skip end end")
    assert isinstance(seq_items(s.body)[0], IfStmt)


# -- the n-queens program ------------------------------------------------------

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
{Browse {SolveOne fun {$} {Queens 8} end}}
"""


def test_queens_program_shape():
    s = parse(QUEENS)
    names, items = unwrap_local(s)
    assert "Queens" in names
    queens = items[0]
    assert isinstance(queens, ProcDef) and queens.name == "Queens"
    inner_names, inner = unwrap_local(queens.body)
    assert set(inner_names) >= {"MakeList", "PlaceQueens", "PlaceQueen", "Qs"}
    pq = next(d for d in inner if isinstance(d, ProcDef) and d.name == "PlaceQueens")
    body = pq.body
    assert isinstance(body, IfStmt) and len(body.arms) == 2
    assert isinstance(body.otherwise, Fail)
    assert body.arms[1].guard == BuiltinCall(">", (CVar("N"), CLit(Int(0))))
    pq1 = next(d for d in inner if isinstance(d, ProcDef) and d.name == "PlaceQueen")
    assert isinstance(pq1.body, Choice) and len(pq1.body.alternatives) == 2


# -- errors -------------------------------------------------------------------

def test_nonlinear_pattern_rejected():
    with pytest.raises(ParseError, match="twice"):
        parse("local X in case X of f(A A) then skip end end")


def test_unify_chain_rejected():
    with pytest.raises(ParseError, match="'='"):
        parse("local X Y Z in X=Y=Z end")


def test_empty_list_token_rejected_as_expression():
    with pytest.raises(ParseError, match="nil"):
        parse("local X in X=[] end")


def test_incomplete_input_flagged():
    try:
        parse("if X==1 then skip")
    except ParseError as e:
        assert e.incomplete
    else:
        raise AssertionError("should not parse")


def test_incomplete_not_flagged_for_real_errors():
    try:
        parse("local 5 in skip end")
    except ParseError as e:
        assert not getattr(e, "incomplete", False)
    else:
        raise AssertionError("should not parse")


def test_error_position_reported():
    with pytest.raises(ParseError, match="line 2"):
        parse("skip\n)")


# -- interactive parsing ---------------------------------------------------------

def test_interactive_exposes_declarations():
    stmt, names = parse_interactive("X=5 {Browse X}", GLOBALS)
    assert names == ("X",)
    items = seq_items(stmt)
    assert items[0] == Unify(CVar("X"), CLit(Int(5)))


class MembershipOnly:
    """A global container that answers `in` and nothing else."""

    def __init__(self, names):
        self.names = frozenset(names)

    def __contains__(self, name):
        return name in self.names

    def __iter__(self):
        raise AssertionError("the globals were iterated")

    def __len__(self):
        raise AssertionError("the globals were sized")


def test_globals_are_read_by_membership_only():
    src = ("Ys = {Map [1 2 3] fun {$ A} B in B = A + 1 B end} "
           "case Ys of Y|_ then {Browse Y} end")
    globals_ = MembershipOnly(GLOBALS)
    assert parse_interactive(src, globals_) == parse_interactive(src, GLOBALS)
    assert parse_program(src, globals_) == parse_program(src, GLOBALS)


# -- pretty round-trips ------------------------------------------------------------

ROUND_TRIP_SOURCES = [
    "skip",
    "X=5 {Browse X}",
    "local X Y in X=Y end",
    "fun {Inc N} N+1 end {Browse {Inc 41}}",
    "fun {MakeList N} if N==0 then nil else _|{MakeList N-1} end end",
    "proc {App As Bs Cs} case As of nil then Cs=Bs [] A|Ar then Cr in Cs=A|Cr {App Ar Bs Cr} end end",
    "local X in choice X=1 [] X=2 [] X=3 end end",
    "local Xs in if H T in Xs=H|T then {Browse H} end end",
    "thread {Browse 1} end",
    "local B X in if B then X=1 elseif B==false then X=2 else X=3 end end",
    "fun lazy {Ints N} N|{Ints N+1} end",
    "local X in X=pair(a ~3|nil) end",
    "local X Y in X = f(_ g(_ Y)) end",
    "local X Y Z in X=1 Y=2 local W in W=X Z=W end {Browse Z} {Browse [_ X]} end",
    QUEENS,
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_pretty_round_trip(src):
    core = parse(src)
    text = pretty(core)
    again = parse_program(text, GLOBALS)
    assert again == core
