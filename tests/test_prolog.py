"""Prolog front end: reader, classification, translation shapes, and
solution-level equivalence against the reference meta-interpreter."""

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ozk.builtins import make_builtins
from ozk.cli import main
from ozk.errors import ParseError, QuietGuardViolation, UnsupportedConstruct
from ozk.interp import Session
from ozk.parser import parse_program
from ozk.prelude import PRELUDE_NAMES
from ozk.prolog import (DETERMINISTIC, GUARDED_CUT, MAX_READ_NESTING,
                        NONDETERMINISTIC, PA, PI, PS, PV, classify,
                        parse_prolog, parse_query, translate_query_source,
                        translate_source)
from ozk.syntax import Call, CaseStmt, Choice, Fail, IfStmt, ProcDef, Unify

# ---------------------------------------------------------------------------
# Program corpus
# ---------------------------------------------------------------------------

FATHER = """
father(terach, abraham).
father(abraham, isaac).
father(haran, milcah).
father(haran, yiscah).
"""

CHILDREN = FATHER + """
children1(X, Kids) :- bagof(K, father(X, K), Kids).
children2(Kids) :- bagof(K, X^father(X, K), Kids).
children3(Kids) :- setof(K, X^father(X, K), Kids).
"""

QUEENS = """
queens(N, Qs) :- make_list(N, Qs), place_queens(N, Qs, _, _).

make_list(0, []) :- !.
make_list(N, [_|T]) :- N > 0, M is N - 1, make_list(M, T).

place_queens(I, _, _, _) :- I == 0, !.
place_queens(I, Cs, Us, [_|Ds]) :-
    I > 0, J is I - 1,
    place_queens(J, Cs, [_|Us], Ds),
    place_queen(I, Cs, Us, Ds).

place_queen(N, [N|_], [N|_], [N|_]).
place_queen(N, [_|Cs2], [_|Us2], [_|Ds2]) :- place_queen(N, Cs2, Us2, Ds2).
"""

APPEND = """
append([], L, L).
append([X|M], L, [X|N]) :- append(M, L, N).
"""

MEMBER = """
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
"""

NREV = APPEND + """
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).
"""

PAIRS = """
digit(1).
digit(2).
digit(3).
pairs(X, Y) :- digit(X), digit(Y).
"""

GRANDFATHER = FATHER + """
grandfather(X, Z) :- father(X, Y), father(Y, Z).
"""

SIGN = """
sign(X, negative) :- X < 0, !.
sign(X, zero) :- X == 0, !.
sign(X, positive).
"""

SUM_TO = """
sum_to(0, 0) :- !.
sum_to(N, S) :- N > 0, M is N - 1, sum_to(M, SM), S is SM + N.
"""

SPEAK = """
speak(X, R) :- X == cat, R = meow.
speak(X, R) :- X == dog, R = woof.
"""

SPEAK_KERNEL = """\
proc {Speak X R}
   case X of cat then
      R=meow
   [] dog then
      R=woof
   end
end
"""

PICK = """
pick(K, V, W) :- lookup(K, V0, W0), !, V = V0, W = W0.
pick(K, V, none) :- lookup(K, V0, _), !, V = V0.
pick(K, none, none) :- lookup(K, _, _), !.
pick(_, none, none).
lookup(a, 1, 2).
"""

PICK_KERNEL = """\
proc {Pick K V W}
   local Guard GR in
      proc {Guard R}
         choice
            local V0 W0 in
               {Lookup K V0 W0}
               R=c1(V0 W0)
            end
         []
            local V0 V1 in
               W=none
               {Lookup K V0 V1}
               R=c2(V0)
            end
         []
            local V1 V2 in
               V=none
               W=none
               {Lookup K V1 V2}
               R=c3
            end
         end
      end
      {SolveOne Guard GR}
      case GR of [c1(V0 W0)] then
         V=V0
         W=W0
      [] [c2(V0)] then
         W=none
         V=V0
      [] [c3] then
         V=none
         W=none
      else
         V=none
         W=none
      end
   end
end

proc {Lookup A1 A2 A3}
   A1=a
   A2=1
   A3=2
end
"""

# guards that call two predicates and share a variable
TWO_GOAL_GUARDS = """
q(a, 1).
q(b, 2).
r(2).
p(X) :- q(X, Z), r(Z), !.
p(X) :- q(X, Z), Z > 0, !.
p(_).
"""

# lists whose first item is a partial list
NESTED = """
wrap([[1|T]]) :- T = [2].
first([[H|_]|_], H).
"""

LOOKUP_GUARD = """
lookup(a, 1).
lookup(b, 2).
double(X, Z) :- lookup(X, Y), !, Z is Y + Y.
double(_, 0).
"""


def pred(clauses_text, functor, arity):
    return [c for c in parse_prolog(clauses_text)
            if (c.functor, c.arity) == (functor, arity)]


def nodes(tree):
    """All nodes of a core AST, depth first: a node's fields are its
    ``__slots__``."""
    yield tree
    for name in tree.__slots__:
        value = getattr(tree, name)
        for item in value if isinstance(value, tuple) else (value,):
            if type(item).__module__ == "ozk.syntax":
                yield from nodes(item)


def proc_named(source_text, name, generators=False):
    src = translate_source(source_text, generators)
    session = Session()
    program = parse_program(src, session.names())
    for n in nodes(program):
        if isinstance(n, ProcDef) and n.name == name:
            return n
    raise AssertionError(f"no procedure {name} in:\n{src}")


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------


class TestReader:
    def test_fact_clause(self):
        (c,) = parse_prolog("father(terach, abraham).")
        assert (c.functor, c.arity) == ("father", 2)
        assert c.body == [] and c.cut_index is None
        assert isinstance(c.head_args[0], PA) and c.head_args[0].name == "terach"

    def test_rule_with_cut_position(self):
        cs = pred(QUEENS, "place_queens", 4)
        assert len(cs) == 2
        assert cs[0].cut_index == 1          # after the I == 0 test
        assert len(cs[0].body) == 1
        assert cs[1].cut_index is None
        assert len(cs[1].body) == 4

    def test_anonymous_variables_are_distinct(self):
        (c,) = parse_prolog("p(_, _).")
        a, b = c.head_args
        assert a is not b and a.anon and b.anon

    def test_list_sugar(self):
        (c,) = parse_prolog("p([1, 2 | T]).")
        cell = c.head_args[0]
        assert isinstance(cell, PS) and cell.functor == "."
        assert isinstance(cell.args[0], PI) and cell.args[0].value == 1
        inner = cell.args[1]
        assert inner.args[0].value == 2 and isinstance(inner.args[1], PV)

    def test_operator_precedence(self):
        (c,) = parse_prolog("p(X) :- X is 1 + 2 * 3.")
        rhs = c.body[0].args[1]
        assert rhs.functor == "+" and rhs.args[1].functor == "*"

    def test_query_vars_in_first_appearance_order(self):
        _goals, qvars = parse_query("append(A, B, [1]), member(A, C)")
        assert [v.name for v in qvars] == ["A", "B", "C"]

    def test_comments_and_negative_ints(self):
        (c,) = parse_prolog("p(-3). % a comment\n")
        assert c.head_args[0].value == -3

    def test_parse_error_reports_line(self):
        with pytest.raises(ParseError):
            parse_prolog("p(a) q(b).")


class TestRejections:
    @pytest.mark.parametrize("text,fragment", [
        ("p(X) :- \\+ q(X).", "negation"),
        ("p(X) :- q(X) ; r(X).", "disjunction"),
        ("p(X) :- (q(X) -> r(X)).", "if-then-else"),
        ("p(X) :- assert(q(X)).", "assert"),
        ("p(X) :- retract(q(X)).", "retract"),
        ("p(X) :- findall(Y, q(Y), X).", "findall"),
        ("p(X) :- call(X).", "call"),
        ("p(X) :- q(X), !, r(X), !.", "second cut"),
        ("p('quoted atom').", "quoted"),
        (":- dynamic(p/1).", "directives"),
    ])
    def test_unsupported_constructs_are_named(self, text, fragment):
        with pytest.raises(UnsupportedConstruct) as err:
            parse_prolog(text)
        assert fragment in str(err.value)

    def test_unknown_predicate_at_translation(self):
        with pytest.raises(UnsupportedConstruct) as err:
            translate_source("p(X) :- q(X).")
        assert "q/1" in str(err.value)

    def test_quiet_guard_violation_binding_a_head_variable(self):
        with pytest.raises(QuietGuardViolation) as err:
            translate_source("p(X) :- X = a, !.\np(b).")
        assert "X" in str(err.value)

    def test_cut_free_clause_before_cut_clause(self):
        with pytest.raises(UnsupportedConstruct):
            translate_source("p(a).\np(X) :- q(X), !.\nq(a).")


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


class TestClassification:
    def test_place_queens_guarded_cut_deterministic(self):
        cls = classify(pred(QUEENS, "place_queens", 4))
        assert cls.kind == GUARDED_CUT and cls.deterministic_guard

    def test_make_list_guarded_cut_deterministic(self):
        cls = classify(pred(QUEENS, "make_list", 2))
        assert cls.kind == GUARDED_CUT and cls.deterministic_guard

    def test_place_queen_nondeterministic(self):
        assert classify(pred(QUEENS, "place_queen", 4)).kind == NONDETERMINISTIC

    def test_father_nondeterministic(self):
        assert classify(pred(FATHER, "father", 2)).kind == NONDETERMINISTIC

    def test_append_nondeterministic(self):
        assert classify(pred(APPEND, "append", 3)).kind == NONDETERMINISTIC

    def test_user_predicate_guards_are_not_deterministic(self):
        cls = classify(pred(LOOKUP_GUARD, "double", 2))
        assert cls.kind == GUARDED_CUT and not cls.deterministic_guard

    def test_single_clause_deterministic(self):
        assert classify(pred(GRANDFATHER, "grandfather", 2)).kind == DETERMINISTIC

    def test_equality_guards_on_distinct_constants(self):
        cls = classify(pred(SPEAK, "speak", 2))
        assert cls.kind == DETERMINISTIC and cls.case_position == 0

    def test_sign_guarded_cut(self):
        cls = classify(pred(SIGN, "sign", 2))
        assert cls.kind == GUARDED_CUT and cls.deterministic_guard


# ---------------------------------------------------------------------------
# Translation shapes
# ---------------------------------------------------------------------------


class TestTranslationShapes:
    def test_place_queens_is_an_if_chain_ending_in_fail(self):
        p = proc_named(QUEENS, "PlaceQueens")
        assert isinstance(p.body, IfStmt)
        assert len(p.body.arms) == 2
        assert isinstance(p.body.otherwise, Fail)

    def test_deterministic_cut_translation_emits_no_choice(self):
        for name in ("Queens", "MakeList", "PlaceQueens"):
            p = proc_named(QUEENS, name)
            assert not any(isinstance(n, Choice) for n in nodes(p)), name

    def test_place_queen_is_a_choice_of_two(self):
        p = proc_named(QUEENS, "PlaceQueen")
        assert isinstance(p.body, Choice) and len(p.body.alternatives) == 2

    def test_father_is_a_choice_of_four_constant_rows(self):
        p = proc_named(FATHER, "Father")
        assert isinstance(p.body, Choice)
        assert len(p.body.alternatives) == 4
        for alt in p.body.alternatives:
            unifies = [n for n in nodes(alt) if isinstance(n, Unify)]
            assert len(unifies) == 2

    def test_append_choice_makes_head_unifications_explicit(self):
        p = proc_named(APPEND, "Append")
        first, second = p.body.alternatives
        first_unifies = [n for n in nodes(first) if isinstance(n, Unify)]
        assert len(first_unifies) == 2      # A1 = nil and A3 = L
        second_unifies = [n for n in nodes(second) if isinstance(n, Unify)]
        assert len(second_unifies) == 2     # A1 = X|M and A3 = X|N

    def test_equality_guards_become_a_case(self):
        p = proc_named(SPEAK, "Speak")
        assert isinstance(p.body, CaseStmt)
        assert len(p.body.arms) == 2 and isinstance(p.body.otherwise, Fail)

    def test_case_scheme_text(self):
        assert translate_source(SPEAK) == SPEAK_KERNEL

    def test_solve_cascade_text(self):
        # guards with two, one and no outputs: the answer term doubles as
        # the pattern of the arm that takes it apart
        assert translate_source(PICK) == PICK_KERNEL

    def test_sign_final_clause_becomes_the_else_branch(self):
        p = proc_named(SIGN, "Sign")
        assert isinstance(p.body, IfStmt) and len(p.body.arms) == 2
        assert not isinstance(p.body.otherwise, Fail)

    @pytest.mark.parametrize("program,name", [(LOOKUP_GUARD, "Double"),
                                              (PICK, "Pick"),
                                              (TWO_GOAL_GUARDS, "P")])
    def test_user_predicate_guards_become_a_solve_cascade(self, program, name):
        # one engine per call: the guards are the alternatives of one
        # choice, the body of the procedure passed to SolveOne
        p = proc_named(program, name)
        (solve,) = [n for n in nodes(p) if isinstance(n, Call)
                    and n.target.name == "SolveOne"]
        (guard,) = [n for n in nodes(p) if isinstance(n, ProcDef)
                    and n.name == solve.args[0].name]
        choices = [n for n in nodes(p) if isinstance(n, Choice)]
        assert len(choices) == 1 and choices[0] is guard.body

    def test_snake_case_predicates_become_camel_case(self):
        src = translate_source(QUEENS)
        for name in ("Queens", "MakeList", "PlaceQueens", "PlaceQueen"):
            assert f"proc {{{name} " in src

    def test_translation_is_deterministic(self):
        assert translate_source(QUEENS) == translate_source(QUEENS)

    def test_empty_program_translates_to_empty_output(self):
        assert translate_source("") == ""
        assert translate_source("% only a comment\n") == ""

    @pytest.mark.parametrize("program", [
        FATHER, CHILDREN, QUEENS, APPEND, MEMBER, NREV, PAIRS, GRANDFATHER,
        SIGN, SUM_TO, SPEAK, LOOKUP_GUARD, PICK, TWO_GOAL_GUARDS,
    ])
    def test_emitted_text_reparses(self, program):
        src = translate_source(program)
        parse_program(src, Session().names())


# ---------------------------------------------------------------------------
# Execution equivalence against the reference meta-interpreter
# ---------------------------------------------------------------------------


def fmt_plain(t) -> str:
    """Plain oracle term -> the kernel's rendering conventions."""
    if isinstance(t, int):
        return str(t) if t >= 0 else f"~{-t}"
    if isinstance(t, str):
        return "nil" if t == "[]" else t
    if t[0] == "_":
        return f"_G{t[1]}"
    if t[0] == "." and len(t) == 3:
        items = []
        while isinstance(t, tuple) and t[0] == "." and len(t) == 3:
            items.append(t[1])
            t = t[2]
        if t == "[]":
            return "[" + " ".join(fmt_plain(x) for x in items) + "]"
        return "|".join([fmt_plain(x) for x in items] + [fmt_plain(t)])
    return f"{t[0]}({' '.join(fmt_plain(a) for a in t[1:])})"


def oracle_all_text(program: str, query: str, first: bool = False) -> str:
    """The meta-interpreter's answer list, or with ``first`` the list of
    its first answer only, as SolveOne gives it."""
    db = oracles.read_program(program)
    goals, qvars = oracles.read_query(query)
    vs = list(qvars.values())
    if len(vs) == 1:
        template = vs[0]
    elif not vs:
        template = ("a", "true")
    else:
        template = ("s", "q", tuple(vs))
    answers = oracles.solve_all(db, goals, template)
    if first:
        answers = answers[:1]
    return fmt_plain(oracles.to_plain(oracles.olist(answers)))


def translated_all_text(program: str, query: str, generators=False) -> str:
    session = Session()
    src = translate_source(program, generators)
    if src:
        session.feed(src)
    qsrc = translate_query_source(query, parse_prolog(program),
                                  generators, all_solutions=True)
    res = session.feed(qsrc)
    assert res.status == "done", res
    return res.browses[-1]


EQUIVALENCE_CORPUS = [
    (FATHER, "father(X, K)"),
    (FATHER, "father(haran, K)"),
    (GRANDFATHER, "grandfather(X, Z)"),
    (APPEND, "append([1,2], [3], X)"),
    (APPEND, "append(A, B, [1,2,3])"),
    (MEMBER, "member(X, [1,2,3])"),
    (NREV, "nrev([1,2,3,4], R)"),
    (PAIRS, "pairs(X, Y)"),
    (QUEENS, "queens(4, Qs)"),
    (QUEENS, "make_list(3, L)"),
    (SIGN, "M is 0 - 5, sign(M, S)"),
    (SIGN, "sign(0, S)"),
    (SIGN, "sign(7, S)"),
    (SUM_TO, "sum_to(5, S)"),
    (SPEAK, "speak(dog, R)"),
    (LOOKUP_GUARD, "double(b, Z)"),
    (LOOKUP_GUARD, "double(zz, Z)"),
    (NESTED, "wrap(X)"),
    (NESTED, "wrap(X), first(X, H)"),
]


class TestEquivalence:
    @pytest.mark.parametrize("program,query", EQUIVALENCE_CORPUS,
                             ids=[q for _p, q in EQUIVALENCE_CORPUS])
    def test_translated_solutions_match_the_meta_interpreter(self, program, query):
        assert translated_all_text(program, query) == oracle_all_text(program, query)

    def test_corpus_covers_ten_programs(self):
        assert len({p for p, _q in EQUIVALENCE_CORPUS}) >= 8
        assert len(EQUIVALENCE_CORPUS) >= 10


# ---------------------------------------------------------------------------
# bagof / setof family
# ---------------------------------------------------------------------------


def first_solution(program: str, query: str, generators=False) -> str:
    session = Session()
    session.feed(translate_source(program, generators))
    res = session.feed(translate_query_source(query, parse_prolog(program),
                                              generators))
    assert res.status == "done", res
    return res.browses[-1]


class TestBagofSetof:
    def test_children_of_terach(self):
        got = first_solution(CHILDREN, "children1(terach, K)")
        assert got == "[[%s]]" % " ".join(oracles.CHILDREN_TERACH)

    def test_children_of_haran(self):
        got = first_solution(CHILDREN, "children1(haran, K)")
        assert got == "[[%s]]" % " ".join(oracles.CHILDREN_HARAN)

    def test_children2_collects_over_existential_parent(self):
        got = first_solution(CHILDREN, "children2(Kids)")
        assert got == "[[%s]]" % " ".join(oracles.ALL_CHILDREN_FACT_ORDER)

    def test_setof_sorts_and_deduplicates(self):
        got = first_solution(CHILDREN, "children3(Kids)")
        assert got == "[[%s]]" % " ".join(oracles.ALL_CHILDREN_SETOF)

    def test_setof_removes_duplicates(self):
        program = FATHER + "parent0(P) :- setof(X, K^father(X, K), P).\n"
        got = first_solution(program, "parent0(P)")
        assert got == "[[abraham haran terach]]"

    def test_bagof_with_no_answers_yields_nil(self):
        got = first_solution(CHILDREN, "children1(isaac, K)")
        assert got == "[nil]"

    def test_generator_mode_enumerates_free_variables(self):
        got = translated_all_text(CHILDREN, "children1(X, Kids)",
                                  generators=True)
        assert got == ("[q(terach [abraham]) q(abraham [isaac])"
                       " q(haran [milcah yiscah]) q(haran [milcah yiscah])]")

    @pytest.mark.parametrize("name", ["K", "P1R"])
    def test_the_goal_procedure_parameter_captures_no_clause_variable(
            self, name):
        # the goal procedure is P1, and its parameter was always P1R
        program = ("q(1, a).\nq(2, b).\n"
                   f"p({name}, L) :- bagof(X, q(X, {name}), L).\n")
        assert first_solution(program, "p(a, L)") == "[[1]]"

    def test_default_mode_treats_free_variables_as_inputs(self):
        src = translate_source(CHILDREN)
        assert "SolveAll" in src
        # no generator call before the collection
        body = src[src.index("proc {Children1"):src.index("proc {Children2")]
        assert body.count("{Father") == 1


# ---------------------------------------------------------------------------
# Text the kernel cannot hold is refused on the clause's own line
# ---------------------------------------------------------------------------


class TestRefusedOnItsLine:
    @staticmethod
    def run(capsys, tmp_path, text, query):
        return TestDeepInput.cli(capsys, tmp_path, text, "run",
                                 "--query", query)

    @pytest.mark.parametrize("text, error", [
        ("q(a).\np(\u00b2).\n", "line 2:0: unexpected '\u00b2'"),
        ("q(a).\np(X) :- X = 1\u0663.\n", "line 2:0: expected '.', "
                                           "found '\u0663'"),
    ], ids=["superscript_two", "arabic_indic_three"])
    def test_a_digit_that_is_not_ascii_is_a_syntax_error(
            self, capsys, tmp_path, text, error):
        assert self.run(capsys, tmp_path, text, "p(X)") == (
            3, "", f"ozk: {error}\n")

    @pytest.mark.parametrize("value, browsed", [
        ("9223372036854775807", "[9223372036854775807]\n"),
        ("9223372036854775808", None),
        ("-9223372036854775808", "[~9223372036854775808]\n"),
        ("-9223372036854775809", None),
    ])
    def test_an_integer_the_kernel_cannot_hold_is_refused(
            self, capsys, tmp_path, value, browsed):
        text = f"q(a).\nr(b).\np({value}).\n"
        got = self.run(capsys, tmp_path, text, "p(X)")
        if browsed is None:
            assert got == (3, "", "ozk: line 3:0: integer literal out of "
                                  "range\n")
        else:
            assert got == (0, browsed, "")

    @pytest.mark.parametrize("term, functor", [
        ("a^b", "^/2"), ("a+b", "+/2"), ("a-b", "-/2"), ("a*b", "*/2"),
        ("a//b", "///2"), ("(a = b)", "=/2"), ("(a, b)", ",/2"),
        ("f(g, a^b)", "^/2"), ("end", "end/0"), ("div(a, b)", "div/2"),
    ])
    @pytest.mark.parametrize("command", ["run", "translate"])
    def test_a_functor_the_kernel_cannot_read_is_refused(
            self, capsys, tmp_path, command, term, functor):
        text = f"r(1).\nq(X) :- X = {term}.\n"
        got = TestDeepInput.cli(capsys, tmp_path, text, command,
                                "--query", "q(X)")
        assert got == (3, "", f"ozk: line 2:0: the kernel cannot read "
                              f"{functor} as a label\n")

    def test_a_case_key_the_kernel_cannot_read_is_refused(self, capsys,
                                                          tmp_path):
        # distinct constants in one position: the case scheme
        text = "p(X, a) :- X == go.\np(X, b) :- X == end.\n"
        assert self.run(capsys, tmp_path, text, "p(go, Y)") == (
            3, "", "ozk: line 2:0: the kernel cannot read end/0 as a label\n")


# ---------------------------------------------------------------------------
# Generated cut cascades against the meta-interpreter
# ---------------------------------------------------------------------------

CASCADE_FACTS = "q(a, 1).\nq(b, 2).\nq(0, 1).\nq(b, 3).\nr(1).\nr(3).\n"
CASCADE_QUERIES = [f"p({c}, Y)" for c in ("a", "b", "0", "1", "zz")] + [
    "p(b, 2)", "p(b, f(2))"]


@st.composite
def cascades(draw):
    """1 to 4 clauses of p(X, Y) whose guards call q/2, then perhaps r/1
    and a test of what q/2 gave, then cut.  The second head argument is a
    variable, so no guard binds one of the caller's variables.  The
    variable that q/2 binds is named as one of the translator's own names
    may be, so a name it makes that captured the variable would show."""
    n = draw(st.integers(1, 4))
    z = draw(st.sampled_from(("Z", "P1R", "Guard", "GR", "R", "A1", "V0")))
    clauses = []
    for k in range(n):
        first = draw(st.sampled_from(("a", "b", "0", "1", "X")))
        guard = [f"q({first}, {z})"]
        if draw(st.booleans()):
            guard.append(f"r({z})")
        if draw(st.booleans()):
            guard.append(z + draw(st.sampled_from(
                (" > 1", " < 3", " =< 1", " >= 3", " == 2"))))
        body = draw(st.sampled_from((f"Y = {z}", f"Y = f({z})", "Y = c")))
        cut = ["!"]
        if k == n - 1:
            dropped = draw(st.sampled_from(("none", "cut", "guard")))
            if dropped == "cut":
                cut = []
            elif dropped == "guard":
                guard, body = [], "Y = c"
        clauses.append(f"p({first}, Y) :- "
                       + ", ".join(guard + cut + [body]) + ".\n")
    return CASCADE_FACTS + "".join(clauses)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cascades())
def test_generated_cut_cascades_match_the_meta_interpreter(program):
    session = Session()
    session.feed(translate_source(program))
    clauses = parse_prolog(program)
    for query in CASCADE_QUERIES:
        res = session.feed(translate_query_source(query, clauses,
                                                  all_solutions=True))
        assert res.status == "done", (program, query, res)
        assert res.browses[-1] == oracle_all_text(program, query), (
            program, query)


# ---------------------------------------------------------------------------
# Queens through the translator
# ---------------------------------------------------------------------------


class TestQueens:
    def test_first_solution_matches_the_frozen_value(self):
        got = first_solution(QUEENS, "queens(8, Qs)")
        assert got == "[[%s]]" % " ".join(str(q) for q in oracles.QUEENS8_FIRST)

    def test_queens6_matches_the_meta_interpreter_exactly(self):
        query = "queens(6, Qs)"
        got = translated_all_text(QUEENS, query)
        assert got == oracle_all_text(QUEENS, query)
        assert got.count("[", 1) == len(oracles.queens_brute(6))


# ---------------------------------------------------------------------------
# Long and deep input: a clean answer or a syntax error, never a traceback
# ---------------------------------------------------------------------------


class TestDeepInput:
    LEN = "len([], 0).\nlen([_|T], N) :- len(T, M), N is M + 1.\n"

    @staticmethod
    def cli(capsys, tmp_path, text, *argv):
        path = tmp_path / "p.pl"
        path.write_text(text)
        code = main([argv[0], str(path), *argv[1:]])
        out, err = capsys.readouterr()
        return code, out, err

    def test_long_list_literal_runs(self, capsys, tmp_path):
        items = ",".join(str(i) for i in range(3000))
        text = self.LEN + f"q(N) :- X = [{items}], len(X, N).\n"
        code, out, err = self.cli(capsys, tmp_path, text, "run",
                                  "--query", "q(N)")
        assert (code, out, err) == (0, "[3000]\n", "")
        code, out, _ = self.cli(capsys, tmp_path, text, "translate")
        assert code == 0 and " 2998 2999]" in out

    def test_long_conjunction_runs(self, capsys, tmp_path):
        text = "q(X) :- " + ", ".join(["X = 1"] * 3000) + ".\n"
        code, out, err = self.cli(capsys, tmp_path, text, "run",
                                  "--query", "q(X)")
        assert (code, out, err) == (0, "[1]\n", "")

    @staticmethod
    def cascade(clauses: int) -> str:
        """A predicate whose every clause commits with a cut after calling
        another predicate, and whose last clause alone has a guard that
        holds: one SolveOne over a choice of ``clauses`` guards."""
        return f"q(_, {clauses - 1}).\n" + "".join(
            f"p(I, Y) :- q(I, {k}), !, Y = {k}.\n" for k in range(clauses))

    @staticmethod
    def two_goal_cascade(clauses: int) -> str:
        """A cascade whose every guard calls two predicates, so that each
        alternative of its guard procedure opens a `local` for the variable
        they share."""
        return ("q(_, 7).\nr(_).\n" + "p(X) :- q(X, Z), r(Z), !.\n" * clauses
                + "p(_).\n")

    # the program's maker, its clauses, and the query
    CASCADES = {
        "one_goal_120": ("cascade", 120, "p(1, Y)"),
        "one_goal_1200": ("cascade", 1200, "p(1, Y)"),
        "two_goal_95": ("two_goal_cascade", 95, "p(1)"),
    }

    @pytest.mark.parametrize("shape", sorted(CASCADES))
    @pytest.mark.parametrize("command", ["run", "translate"])
    def test_a_long_cut_cascade_runs_and_reads_back(self, capsys, tmp_path,
                                                   shape, command):
        maker, clauses, query = self.CASCADES[shape]
        program = getattr(self, maker)(clauses)
        argv = [command] + (["--query", query] if command == "run" else [])
        code, out, err = self.cli(capsys, tmp_path, program, *argv)
        assert (code, err) == (0, "")
        if command == "run":
            assert out == oracle_all_text(program, query, first=True) + "\n"
        else:
            ambient = tuple(make_builtins()) + PRELUDE_NAMES
            assert parse_program(out, ambient)

    @pytest.mark.parametrize("command", ["run", "translate"])
    def test_deep_term_is_a_syntax_error(self, capsys, tmp_path, command):
        deep = "a"
        for _ in range(2000):
            deep = f"f({deep})"
        code, out, err = self.cli(capsys, tmp_path, f"q(X) :- X = {deep}.\n",
                                  command, "--query", "q(X)")
        assert code == 3
        assert err == (f"ozk: line 1:0: nesting deeper than {MAX_READ_NESTING} "
                       f"levels\n")

    def test_deep_query_is_a_syntax_error(self, capsys, tmp_path):
        code, _, err = self.cli(capsys, tmp_path, "p(a).\n", "run", "--query",
                                "p(" + "(" * 2000 + "a" + ")" * 2001)
        assert code == 3 and "nesting deeper than" in err

    def test_nesting_just_within_the_limit_reads(self):
        # the clause, its body, the = and its right side take four levels
        deep = "a"
        for _ in range(MAX_READ_NESTING - 4):
            deep = f"f({deep})"
        clause, = parse_prolog(f"q(X) :- X = {deep}.")
        assert translate_source(f"q(X) :- X = {deep}.")
        with pytest.raises(ParseError, match="nesting deeper"):
            parse_prolog(f"q(X) :- X = f({deep}).")

    # A term f(...f(X)...) nested `depth` deep in each place the translation
    # wraps in levels of its own, at the deepest the reader accepts there:
    # a choice's head, a cut guard's call, and a bagof goal procedure in
    # the body, in a cut guard, and in another bagof's goal.
    DEEPEST = {
        "unify": ("q(X) :- X = {}.", 91),
        "choice_head": ("p({}).\np(b).", 93),
        "cascade_guard": ("q(_).\np(X) :- q({}), !.\np(_).", 92),
        "bagof": ("q(_).\np(L) :- bagof(X, q({}), L).", 90),
        "bagof_in_guard": ("q(_).\np(L) :- bagof(X, q({}), L), !.\np(_).",
                           90),
        "nested_bagof": ("q(_).\n"
                         "p(L) :- bagof(Y, bagof(X, q({}), Y), L), !.\np(_).",
                         88),
    }

    @pytest.mark.parametrize("shape", sorted(DEEPEST))
    def test_the_deepest_term_the_reader_accepts_reads_back(
            self, capsys, tmp_path, shape):
        program, depth = self.DEEPEST[shape]
        inner = "a" if shape in ("unify", "choice_head") else "X"

        def nested(n):
            return "f(" * n + inner + ")" * n

        code, out, err = self.cli(capsys, tmp_path,
                                  program.format(nested(depth)), "translate")
        assert (code, err) == (0, "")
        assert parse_program(out, tuple(make_builtins()) + PRELUDE_NAMES)
        text = program.format(nested(depth + 1))
        line = 1 + text[:text.index("f(")].count("\n")
        code, out, err = self.cli(capsys, tmp_path, text, "translate")
        assert (code, out) == (3, "")
        assert err == (f"ozk: line {line}:0: nesting deeper than "
                       f"{MAX_READ_NESTING} levels\n")

    def test_long_list_prints_without_recursion(self):
        items = ",".join(str(i) for i in range(3000))
        clause, = parse_prolog(f"q([{items}]).")
        assert repr(clause.head).startswith("q(.(0, .(1, ")
