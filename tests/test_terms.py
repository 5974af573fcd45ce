"""Store, unification, equality, ordering, rendering, snapshots."""

import pytest
from hypothesis import given, settings, strategies as st

from ozk.runtime import Failure, Runtime, Task, build_term, exec_stmt
from ozk.syntax import CAnon, CCompound, CLit, CVar, Unify
from ozk.terms import (
    Atom, Compound, Int, NIL, Store, Var, bisimilar, compare_terms, cons,
    is_cons, list_to_python, make_list, materialize, render, snapshot,
)


def ref_equal(store_a, ta, store_b, tb, pairs=None) -> bool:
    """Independent rational-tree equality used to check the module's
    unify/equals: plain pair-memo bisimulation, recursive."""
    if pairs is None:
        pairs = set()
    ta = store_a.deref(ta)
    tb = store_b.deref(tb)
    key = (id(ta), id(tb))
    if key in pairs:
        return True
    pairs.add(key)
    if isinstance(ta, Var) and isinstance(tb, Var):
        return ta.vid == tb.vid
    if isinstance(ta, Var) or isinstance(tb, Var):
        return False
    if isinstance(ta, Atom):
        return ta == tb
    if isinstance(ta, Int):
        return ta == tb
    if isinstance(ta, Compound) and isinstance(tb, Compound):
        if ta.label != tb.label or len(ta.args) != len(tb.args):
            return False
        return all(ref_equal(store_a, x, store_b, y, pairs)
                   for x, y in zip(ta.args, tb.args))
    return ta is tb


def f(*args):
    return Compound("f", list(args))


def test_new_var_ids_monotonic():
    s = Store()
    a, b = s.new_var(), s.new_var()
    assert a.vid < b.vid
    assert a.vid[0] == 0
    # only an exported variable is registered, and intern finds it
    assert s.vars == {}
    s.export(a)
    assert s.vars == {a.vid: a}
    assert s.intern(a.vid) is a


def test_network_snapshot_exports_its_frontier():
    s = Store()
    x, y, z = s.new_var(), s.new_var(), s.new_var()
    local = snapshot(s, f(x, y), keep_var=lambda vid: vid != y.vid)
    assert s.vars == {}
    assert local.kept == {x.vid: x}
    sent = snapshot(s, f(x, z), keep_var=lambda vid: True, for_network=True)
    assert sent.kept is None
    assert s.vars == {x.vid: x, z.vid: z}


def test_unify_constants():
    s = Store()
    assert s.unify(Atom("a"), Atom("a")).ok
    assert not s.unify(Atom("a"), Atom("b")).ok
    assert s.unify(Int(3), Int(3)).ok
    assert not s.unify(Int(3), Int(4)).ok
    assert not s.unify(Int(3), Atom("a")).ok


def test_unify_binds_var():
    s = Store()
    x = s.new_var()
    assert s.unify(x, Int(7)).ok
    assert s.deref(x) == Int(7)


def test_var_var_binds_greater_to_lesser():
    s = Store()
    x = s.new_var()
    y = s.new_var()
    assert s.unify(x, y).ok
    assert y.ref is x           # younger variable points at the older
    assert x.ref is None


def test_unify_compound_recurses():
    s = Store()
    x, y = s.new_var(), s.new_var()
    assert s.unify(f(x, Int(2)), f(Int(1), y)).ok
    assert s.deref(x) == Int(1)
    assert s.deref(y) == Int(2)
    assert not s.unify(f(Int(1)), f(Int(1), Int(2))).ok  # arity clash
    assert not s.unify(f(Int(1)), Compound("g", [Int(1)])).ok


def test_unify_cyclic_terms_terminate():
    s = Store()
    x, y = s.new_var(), s.new_var()
    assert s.unify(x, f(x)).ok              # x = f(x)
    assert s.unify(y, f(f(y))).ok           # y = f(f(y))
    res = s.unify(x, y)                     # equal rational trees
    assert res.ok
    assert ref_equal(s, x, s, y)


def test_unify_cyclic_clash():
    s = Store()
    x, y = s.new_var(), s.new_var()
    s.unify(x, f(x))
    s.unify(y, Compound("g", [y]))
    assert not s.unify(x, y).ok


def test_infinite_list():
    s = Store()
    x = s.new_var()
    assert s.unify(x, cons(Int(1), x)).ok
    t = s.deref(x)
    assert is_cons(t)
    assert s.deref(t.args[1]) is t


def test_equals_three_outcomes():
    s = Store()
    x = s.new_var()
    yes, _ = s.equals(Int(1), Int(1))
    assert yes is True
    no, _ = s.equals(Int(1), Int(2))
    assert no is False
    maybe, frontier = s.equals(x, Int(1))
    assert maybe is None and len(frontier) == 1 and frontier[0] is x
    # determined structure with a clash is decidedly false
    no2, _ = s.equals(f(x, Int(1)), f(x, Int(2)))
    assert no2 is False


def test_equals_cyclic():
    s = Store()
    x, y = s.new_var(), s.new_var()
    s.unify(x, f(x))
    s.unify(y, f(f(y)))
    yes, _ = s.equals(x, y)
    assert yes is True


def test_equals_partial_list():
    s = Store()
    x = s.new_var()
    maybe, frontier = s.equals(x, cons(Int(1), x))
    assert maybe is None
    assert len(frontier) == 1 and frontier[0] is x


def test_equals_frontier_once_each_in_varid_order():
    s = Store()
    x, y = s.new_var(), s.new_var()
    # pairs are taken last argument first: (y, 2), then (x, y), (x, 1)
    maybe, frontier = s.equals(f(x, x, y), f(Int(1), y, Int(2)))
    assert maybe is None
    assert len(frontier) == 2 and frontier[0] is x and frontier[1] is y


def test_waiters_woken_on_bind():
    s = Store()
    x = s.new_var()
    s.add_waiter(x, 11)
    s.add_waiter(x, 12)
    res = s.unify(x, Int(1))
    assert res.ok and res.woken == {11, 12}
    assert x.waiters is None


def test_value_wait_marks_needed_and_wakes_byneed():
    s = Store()
    x = s.new_var()
    s.add_byneed_waiter(x, 5)
    woken = s.add_waiter(x, 9)
    assert woken == {5}
    assert x.needed


def test_bind_wakes_byneed():
    s = Store()
    x = s.new_var()
    s.add_byneed_waiter(x, 5)
    res = s.unify(x, Int(3))
    assert res.woken == {5}


def test_need_transfers_on_var_var_bind():
    s = Store()
    x = s.new_var()
    y = s.new_var()
    s.mark_needed(y)
    s.add_byneed_waiter(x, 7)
    res = s.unify(x, y)  # y (greater) binds to x (lesser); y was needed
    assert res.ok
    assert x.needed
    assert 7 in res.woken


def test_trail_undo_restores_bindings_and_need():
    s = Store()
    x = s.new_var()
    y = s.new_var()
    s.unify(x, Int(1))
    s.push_trail()
    mark = s.trail_mark()
    s.unify(y, Int(2))
    s.mark_needed(s.new_var())
    s.undo_to(mark)
    s.pop_trail(merge=False)
    assert y.ref is None
    assert s.deref(x) == Int(1)  # pre-trail binding untouched


def test_no_path_compression_while_trailed():
    s = Store()
    a, b, c = s.new_var(), s.new_var(), s.new_var()
    s.push_trail()
    mark = s.trail_mark()
    s.unify(b, a)
    s.unify(c, b)
    s.unify(a, Int(5))
    assert s.deref(c) == Int(5)
    s.undo_to(mark)
    s.pop_trail(merge=False)
    assert all(v.ref is None for v in (a, b, c))


# -- property tests ---------------------------------------------------------

ground_terms = st.recursive(
    st.integers(-20, 20).map(Int) | st.sampled_from("abc").map(Atom),
    lambda sub: st.builds(lambda la, args: Compound(la, list(args)),
                          st.sampled_from("fg"), st.lists(sub, min_size=1, max_size=3)),
    max_leaves=8)


@settings(max_examples=120, deadline=None)
@given(ground_terms, ground_terms)
def test_ground_unify_iff_equal(t1, t2):
    s = Store()
    ok = s.unify(t1, t2).ok
    assert ok == ref_equal(s, t1, s, t2)
    # commutativity
    s2 = Store()
    assert ok == s2.unify(t2, t1).ok
    # equals agrees and is fully decided on ground terms
    dec, frontier = Store().equals(t1, t2)
    assert dec == ok and not frontier


def ref_unify(store, t1, t2):
    """Reference unification: every pair memoised, pairs taken from a
    LIFO stack, the greater VarId bound to the lesser."""
    woken, visited, stack = set(), set(), [(t1, t2)]

    def key(t):
        return t.vid if isinstance(t, Var) else id(t)

    while stack:
        a, b = stack.pop()
        a, b = store.deref(a), store.deref(b)
        if a is b:
            continue
        pair = (key(a), key(b))
        if pair in visited or (pair[1], pair[0]) in visited:
            continue
        visited.add(pair)
        if isinstance(a, Var) and isinstance(b, Var):
            if a.vid != b.vid:
                woken |= store._bind_local(*((b, a) if a.vid < b.vid
                                             else (a, b)))
        elif isinstance(a, Var):
            woken |= store._bind_local(a, b)
        elif isinstance(b, Var):
            woken |= store._bind_local(b, a)
        elif isinstance(a, Atom) and isinstance(b, Atom):
            if a.name != b.name:
                return False, woken, f"{a.name} = {b.name}"
        elif isinstance(a, Int) and isinstance(b, Int):
            if a.value != b.value:
                return False, woken, f"{a.value} = {b.value}"
        elif isinstance(a, Compound) and isinstance(b, Compound):
            if a.label != b.label or len(a.args) != len(b.args):
                return (False, woken, f"{a.label}/{len(a.args)} = "
                                      f"{b.label}/{len(b.args)}")
            stack.extend(zip(a.args, b.args))
        else:
            return False, woken, "incompatible values"
    return True, woken, ""


# Term shapes over four variables: ("var", i), ("int", n), ("atom", a) or
# (label, [shapes]); built into a store by _build.
shapes = st.recursive(
    st.tuples(st.just("var"), st.integers(0, 3))
    | st.tuples(st.just("int"), st.integers(0, 2))
    | st.tuples(st.just("atom"), st.sampled_from("ab")),
    lambda sub: st.tuples(st.sampled_from("fg"),
                          st.lists(sub, min_size=1, max_size=3)),
    max_leaves=8)


def _build(store, shape, vs):
    kind, arg = shape
    if kind == "var":
        return vs[arg]
    if kind == "int":
        return Int(arg)
    if kind == "atom":
        return Atom(arg)
    return Compound(kind, [_build(store, sub, vs) for sub in arg])


@settings(max_examples=300, deadline=None)
@given(shapes, shapes, st.lists(st.tuples(st.integers(0, 3), shapes),
                                max_size=3),
       st.lists(st.integers(0, 3), max_size=4), st.booleans())
def test_unify_matches_reference(s1, s2, prebinds, waiting, trailed):
    # The same graph, cyclic through the pre-bindings, in two stores.
    outcomes = []
    for unify in (lambda st_, a, b: (lambda r: (r.ok, r.woken, r.reason))(
                      st_.unify(a, b)),
                  ref_unify):
        store = Store()
        vs = [store.new_var() for _ in range(4)]
        for i, shape in prebinds:
            term = _build(store, shape, vs)
            if vs[i].ref is None and store.deref(term) is not vs[i]:
                vs[i].ref = term
        for i in waiting:
            store.add_waiter(vs[i], 10 + i)
        if trailed:
            store.push_trail()
        ok, woken, reason = unify(store, _build(store, s1, vs),
                                  _build(store, s2, vs))
        reps = []
        for v in vs:
            t = store.deref(v)
            reps.append(t.vid if isinstance(t, Var) else render(store, t))
        outcomes.append((ok, reason, list(woken), reps))
    assert outcomes[0] == outcomes[1]


# Patterns, the right-hand side of a compiled `X = f(...)`: compounds over
# the variables V0..V3 (repeats allowed), literals and voids.
_pattern_leaves = (st.integers(0, 3).map(lambda i: CVar(f"V{i}"))
                   | st.integers(0, 2).map(lambda n: CLit(Int(n)))
                   | st.sampled_from("ab").map(lambda a: CLit(Atom(a)))
                   | st.just(CAnon()))


def _pattern_compound(sub):
    return st.builds(lambda la, args: CCompound(la, tuple(args)),
                     st.sampled_from("fg"), st.lists(sub, min_size=1, max_size=3))


patterns = _pattern_compound(st.recursive(_pattern_leaves, _pattern_compound,
                                          max_leaves=6))


def _voids(expr) -> int:
    if isinstance(expr, CAnon):
        return 1
    if isinstance(expr, CCompound):
        return sum(_voids(a) for a in expr.args)
    return 0


@settings(max_examples=300, deadline=None)
@given(patterns, st.data(), st.lists(st.tuples(st.integers(0, 4), shapes),
                                     max_size=3),
       st.lists(st.integers(0, 4), max_size=4), st.booleans(), st.booleans())
def test_compiled_unify_matches_build_then_unify(
        pattern, data, prebinds, waiting, trailed, x_left):
    # X is variable 4.  It is left unbound, bound to the pattern's label
    # and arity (read mode) or to anything at all, cyclic through the
    # pre-bindings of the other variables.
    x_value = data.draw(st.one_of(
        st.none(), shapes,
        st.lists(shapes, min_size=len(pattern.args),
                 max_size=len(pattern.args)).map(
            lambda args: (pattern.label, args))))
    stmt = (Unify(CVar("X"), pattern) if x_left
            else Unify(pattern, CVar("X")))
    outcomes = []
    for compiled in (True, False):
        store = Store()
        vs = [store.new_var() for _ in range(5)]
        binds = list(prebinds) + ([] if x_value is None else [(4, x_value)])
        for i, shape in binds:
            term = _build(store, shape, vs)
            if vs[i].ref is None and store.deref(term) is not vs[i]:
                vs[i].ref = term
        for i in waiting:
            store.add_waiter(vs[i], 10 + i)
        if trailed:
            store.push_trail()
        env = {f"V{i}": vs[i] for i in range(4)}
        env.update({"X": vs[4], "\x00up": None})
        x = store.deref(vs[4])
        if not isinstance(x, Compound):
            builds = _voids(pattern)            # write mode
        elif (x.label, len(x.args)) == (pattern.label, len(pattern.args)):
            builds = sum(_voids(a) for a in pattern.args     # read mode
                         if isinstance(a, CCompound))
        else:
            builds = 0                          # a clash, found at once
        before = store.next_seq
        woken: set = set()
        if compiled:
            rt = Runtime(store=store)
            rt.wake = woken.update
            try:
                exec_stmt(Task(rt), stmt, env)
                ok, reason = True, ""
            except Failure as f:
                ok, reason = False, f.reason.removeprefix("unification failed: ")
            # a void makes a variable only where the term is built
            assert store.next_seq - before == builds
        else:
            built = build_term(store, pattern, env)
            res = (store.unify(vs[4], built) if x_left
                   else store.unify(built, vs[4]))
            ok, reason = res.ok, res.reason
            woken |= res.woken
        reps = []
        for v in vs:
            t = store.deref(v)
            reps.append(t.vid if isinstance(t, Var) else render(store, t))
        outcomes.append((ok, reason, sorted(woken), reps))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=80, deadline=None)
@given(ground_terms, ground_terms)
def test_compare_total_order(t1, t2):
    s = Store()
    c12 = compare_terms(s, t1, t2)
    c21 = compare_terms(s, t2, t1)
    assert c12 == -c21
    assert (c12 == 0) == ref_equal(s, t1, s, t2)


def test_compare_kind_ranking():
    s = Store()
    v = s.new_var()
    items = [f(Int(1)), Atom("z"), Int(100), v, Atom("a"), Int(-3)]
    items.sort(key=lambda t: _cmp_key(s, t, items))
    assert items[0] is v
    assert [type(t).__name__ for t in items] == [
        "Var", "Int", "Int", "Atom", "Atom", "Compound"]
    assert items[1] == Int(-3) and items[4] == Atom("z")


def _cmp_key(store, t, universe):
    import functools
    return functools.cmp_to_key(lambda a, b: compare_terms(store, a, b))(t)


def test_compare_compound_order():
    s = Store()
    # arity first, then label, then args left to right
    assert compare_terms(s, f(Int(1)), f(Int(1), Int(1))) == -1
    assert compare_terms(s, f(Int(1)), Compound("g", [Int(1)])) == -1
    assert compare_terms(s, f(Int(1), Int(2)), f(Int(1), Int(3))) == -1
    assert compare_terms(s, f(Int(2), Int(0)), f(Int(1), Int(9))) == 1


def test_render_proper_list():
    s = Store()
    t = make_list([Int(1), Int(2), Int(3)])
    assert render(s, t) == "[1 2 3]"
    nested = make_list([make_list([Int(1), Int(7)])])
    assert render(s, nested) == "[[1 7]]"


def test_render_partial_and_vars():
    s = Store()
    x = s.new_var()
    assert render(s, x) == "_G1"
    t = cons(Atom("a"), cons(Atom("b"), x))
    assert render(s, t) == "a|b|_G1"
    pair = f(x, x)
    assert render(s, pair) == "f(_G1 _G1)"
    y = s.new_var()
    assert render(s, f(x, y)) == "f(_G1 _G2)"


def test_render_cyclic():
    s = Store()
    x = s.new_var()
    s.unify(x, f(x))
    assert render(s, x) == "f(@1)"
    y = s.new_var()
    s.unify(y, cons(Int(1), y))
    assert render(s, y) == "1|@1"


def test_render_atoms_and_negatives():
    s = Store()
    assert render(s, Atom("abc")) == "abc"
    assert render(s, Atom("Odd name")) == "'Odd name'"
    assert render(s, Int(-5)) == "~5"
    assert render(s, NIL) == "nil"


def test_render_long_list_is_iterative():
    s = Store()
    t = make_list([Int(i) for i in range(30000)])
    out = render(s, t)
    assert out.startswith("[0 1 2") and out.endswith("29999]")


def test_snapshot_materialize_round_trip():
    s = Store()
    x = s.new_var()
    t = f(Int(1), cons(Atom("a"), x), x)
    snap = snapshot(s, t, keep_var=lambda vid: False)
    s2 = Store(node_id=3)
    fresh: dict = {}

    def resolve(vid):
        key = vid if vid is not None else len(fresh)
        if key not in fresh:
            fresh[key] = s2.new_var()
        return fresh[key]

    t2 = materialize(s2, snap, resolve)
    assert bisimilar(s, t, s2, t2)


def test_snapshot_preserves_cycles_and_sharing():
    s = Store()
    x = s.new_var()
    s.unify(x, f(x, x))
    snap = snapshot(s, x, keep_var=lambda vid: False)
    s2 = Store()
    t2 = materialize(s2, snap, lambda vid: s2.new_var())
    t2 = s2.deref(t2)
    assert s2.deref(t2.args[0]) is t2
    assert bisimilar(s, x, s2, t2)


def test_snapshot_keep_var_frontier():
    s = Store()
    x = s.new_var()
    t = f(x)
    snap = snapshot(s, t, keep_var=lambda vid: True)
    kinds = [n for n in snap.nodes if n[0] == "var"]
    assert kinds == [("var", x.vid)]


def test_bisimilar_strict_vs_loose():
    a, b = Store(0), Store(1)
    xa, xb = a.new_var(), b.new_var()
    ta, tb = f(xa, Int(1)), f(xb, Int(1))
    assert bisimilar(a, ta, b, tb)
    assert not bisimilar(a, ta, b, tb, strict_vars=True)
    # one-to-one: f(X X) does not match f(X Y)
    ya, yb = a.new_var(), b.new_var()
    assert not bisimilar(a, f(xa, xa), b, f(xb, yb))
    assert not bisimilar(a, f(xa, ya), b, f(xb, xb))


def test_list_to_python():
    s = Store()
    t = make_list([Int(1), Int(2)])
    assert [x.value for x in list_to_python(s, t)] == [1, 2]
    with pytest.raises(Exception):
        list_to_python(s, cons(Int(1), s.new_var()))
