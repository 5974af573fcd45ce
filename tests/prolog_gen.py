"""Generated Prolog programs for differential tests against the reference
interpreter, ``oracles.solve_all``.

Each strategy draws a program's text with the queries to run against
it.  A test that uses one runs it under ``derandomize=True``, so that it
meets the same examples on every run.
"""

from __future__ import annotations

from hypothesis import strategies as st

# Data for facts and for bound query arguments: an atom, an integer, `[]`,
# a list and a structure, so that setof's order meets each kind of term.
CONSTANTS = ("a", "1", "[]", "[a]", "g(1)")

# Names the translator also makes for its own variables, given to a clause
# variable, so that a name it made that captured the variable would show.
TRANSLATOR_NAMES = ("T", "P1R", "X2", "W1", "V3")

# A query's argument: unbound, bound to a constant, or (in the second
# place) the first argument's variable again.
FIRST_ARGS = ("A", "a", "1")
SECOND_ARGS = ("B", "g(1)", "[]", "A")


@st.composite
def facts(draw, name: str = "f", arity: int = 3):
    """2 to 5 facts of ``name``/``arity`` over CONSTANTS, ``_`` and a
    variable V, which shares what it holds between the arguments it is."""
    out = []
    for _ in range(draw(st.integers(2, 5))):
        args = [draw(st.sampled_from(CONSTANTS + ("_", "V")))
                for _ in range(arity)]
        out.append(f"{name}({', '.join(args)}).\n")
    return "".join(out)


@st.composite
def bagof_programs(draw):
    """``(program, queries)``: the facts of f/3 and a clause
    ``p(X, H, L)`` whose body is one bagof or setof over them.

    0 to 2 arguments of the goal ``f(...)`` are the free variables X,
    Y or ``_``, and the others are the template's variable T, a variable
    E or ``a``.  E is free too, unless ``E^`` comes before the goal.  H
    is Y, T or E, so that each of them may be bound at the call.  The
    template is T or a structure of T, perhaps with Y.  The goal may
    itself be a bagof or setof, whose list is the outer template,
    perhaps with X.  The queries call p with X and H each unbound, bound
    to a constant, or H the same variable as X."""
    t = draw(st.sampled_from(TRANSLATOR_NAMES))
    head = draw(st.sampled_from(("Y", t, "E")))
    free = [draw(st.sampled_from(("X", "Y", "_")))
            for _ in range(draw(st.integers(0, 2)))]
    args = free + [draw(st.sampled_from((t, "E", "a")))
                   for _ in range(3 - len(free))]
    goal = f"f({', '.join(draw(st.permutations(args)))})"
    if draw(st.booleans()):
        goal = f"E^{goal}"
    template = draw(st.sampled_from((t, f"h({t})", f"h({t}, Y)")))
    kind = st.sampled_from(("bagof", "setof"))
    if draw(st.booleans()):
        goal = f"{draw(kind)}({template}, {goal}, L1)"
        template = draw(st.sampled_from(("L1", "k(L1, X)")))
    clause = f"p(X, {head}, L) :- {draw(kind)}({template}, {goal}, L).\n"
    queries = [f"p({a}, {b}, L)" for a in FIRST_ARGS for b in SECOND_ARGS]
    return draw(facts()) + clause, queries
