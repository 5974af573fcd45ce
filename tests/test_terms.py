"""Store, unification, equality, ordering, rendering, snapshots."""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (MATCH_OK, MATCH_UNDET, DictFrameRunner, RefFailure,
                     RefSuspend, bisimilar, match_pattern, ref_snapshot)
from ozk.compiler import compile_top
from ozk.errors import OzkError, RuntimeFailure
from ozk.runtime import Failure, Runtime, Suspend, Task, exec_stmt
from ozk.syntax import (OPERATORS, BuiltinCall, Call, CaseArm, CaseStmt, CAnon,
                        CCompound, CLit, CVar, IfArm, IfStmt, Local, Unify,
                        expr_names, seq_all)
from ozk.terms import (
    Atom, Compound, Int, NIL, NativeProc, Store, Var, compare_terms, cons,
    is_cons, make_list, materialize, render, snapshot,
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
    assert s.unify(Atom("a"), Atom("a")) is None
    assert s.unify(Atom("a"), Atom("b")) is not None
    assert s.unify(Int(3), Int(3)) is None
    assert s.unify(Int(3), Int(4)) is not None
    assert s.unify(Int(3), Atom("a")) is not None


def test_unify_binds_var():
    s = Store()
    x = s.new_var()
    assert s.unify(x, Int(7)) is None
    assert s.deref(x) == Int(7)


def test_var_var_binds_greater_to_lesser():
    s = Store()
    x = s.new_var()
    y = s.new_var()
    assert s.unify(x, y) is None
    assert y.ref is x           # younger variable points at the older
    assert x.ref is None


def test_unify_compound_recurses():
    s = Store()
    x, y = s.new_var(), s.new_var()
    assert s.unify(f(x, Int(2)), f(Int(1), y)) is None
    assert s.deref(x) == Int(1)
    assert s.deref(y) == Int(2)
    assert s.unify(f(Int(1)), f(Int(1), Int(2))) is not None  # arity clash
    assert s.unify(f(Int(1)), Compound("g", [Int(1)])) is not None


def test_unify_cyclic_terms_terminate():
    s = Store()
    x, y = s.new_var(), s.new_var()
    assert s.unify(x, f(x)) is None         # x = f(x)
    assert s.unify(y, f(f(y))) is None      # y = f(f(y))
    res = s.unify(x, y)                     # equal rational trees
    assert res is None
    assert ref_equal(s, x, s, y)


def test_unify_cyclic_clash():
    s = Store()
    x, y = s.new_var(), s.new_var()
    s.unify(x, f(x))
    s.unify(y, Compound("g", [y]))
    assert s.unify(x, y) is not None


def test_infinite_list():
    s = Store()
    x = s.new_var()
    assert s.unify(x, cons(Int(1), x)) is None
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
    woken: set = set()
    s.wake = woken.update
    x = s.new_var()
    s.add_waiter(x, 11)
    s.add_waiter(x, 12)
    res = s.unify(x, Int(1))
    assert res is None and woken == {11, 12}
    assert x.waiters is None


def test_value_wait_marks_needed_and_wakes_byneed():
    s = Store()
    x = s.new_var()
    woken: set = set()
    s.wake = woken.update
    s.add_byneed_waiter(x, 5)
    s.add_waiter(x, 9)
    assert woken == {5}
    assert x.needed


def test_bind_wakes_byneed():
    s = Store()
    x = s.new_var()
    woken: set = set()
    s.wake = woken.update
    s.add_byneed_waiter(x, 5)
    s.unify(x, Int(3))
    assert woken == {5}


def test_need_transfers_on_var_var_bind():
    s = Store()
    x = s.new_var()
    y = s.new_var()
    woken: set = set()
    s.wake = woken.update
    s.mark_needed(y)
    s.add_byneed_waiter(x, 7)
    res = s.unify(x, y)  # y (greater) binds to x (lesser); y was needed
    assert res is None
    assert x.needed
    assert 7 in woken


def test_trail_undo_restores_bindings_and_need():
    s = Store()
    x = s.new_var()
    y = s.new_var()
    s.unify(x, Int(1))
    s.trails.append([])
    mark = len(s.trails[-1])
    s.unify(y, Int(2))
    z = s.new_var()
    s.mark_needed(z)
    assert z.needed
    s.undo_to(mark)
    s.pop_trail(merge=False)
    assert y.ref is None
    assert not z.needed
    assert s.deref(x) == Int(1)  # pre-trail binding untouched


def test_trail_undo_clears_a_need_spread_by_a_binding():
    # A needed variable bound to an unbound one passes its need on; the
    # trail holds the binding and the spread mark, and the undo clears
    # both, leaving the first mark, made before the trail.
    s = Store()
    x = s.new_var()
    y = s.new_var()
    s.mark_needed(y)
    s.trails.append([])
    mark = len(s.trails[-1])
    assert s.unify(x, y) is None  # y (greater) binds to x (lesser)
    assert y.ref is x and x.needed
    assert s.trails[-1] == [y, (x,)]
    s.undo_to(mark)
    s.pop_trail(merge=False)
    assert y.ref is None and not x.needed
    assert y.needed


def test_no_path_compression_while_trailed():
    s = Store()
    a, b, c = s.new_var(), s.new_var(), s.new_var()
    s.trails.append([])
    mark = len(s.trails[-1])
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
    ok = s.unify(t1, t2) is None
    assert ok == ref_equal(s, t1, s, t2)
    # commutativity
    s2 = Store()
    assert ok == (s2.unify(t2, t1) is None)
    # equals agrees and is fully decided on ground terms
    dec, frontier = Store().equals(t1, t2)
    assert dec == ok and not frontier


def ref_unify(store, t1, t2):
    """Reference unification: every pair memoised, pairs taken from a
    LIFO stack, the greater VarId bound to the lesser.  Returns whether
    it succeeded and the text of its clash."""
    visited, stack = set(), [(t1, t2)]

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
                store._bind_local(*((b, a) if a.vid < b.vid else (a, b)))
        elif isinstance(a, Var):
            store._bind_local(a, b)
        elif isinstance(b, Var):
            store._bind_local(b, a)
        elif isinstance(a, Atom) and isinstance(b, Atom):
            if a.name != b.name:
                return False, f"{a.name} = {b.name}"
        elif isinstance(a, Int) and isinstance(b, Int):
            if a.value != b.value:
                return False, f"{a.value} = {b.value}"
        elif isinstance(a, Compound) and isinstance(b, Compound):
            if a.label != b.label or len(a.args) != len(b.args):
                return (False, f"{a.label}/{len(a.args)} = "
                               f"{b.label}/{len(b.args)}")
            stack.extend(zip(a.args, b.args))
        else:
            return False, "incompatible values"
    return True, ""


def store_unify(store, t1, t2):
    """``Store.unify`` in the form of :func:`ref_unify`'s result."""
    clash = store.unify(t1, t2)
    return clash is None, "" if clash is None else clash.reason


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
    for unify in (store_unify, ref_unify):
        store = Store()
        woken: set = set()
        store.wake = woken.update
        vs = [store.new_var() for _ in range(4)]
        for i, shape in prebinds:
            term = _build(store, shape, vs)
            if vs[i].ref is None and store.deref(term) is not vs[i]:
                vs[i].ref = term
        for i in waiting:
            store.add_waiter(vs[i], 10 + i)
        if trailed:
            store.trails.append([])
        ok, reason = unify(store, _build(store, s1, vs), _build(store, s2, vs))
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
            store.trails.append([])
        env = {f"V{i}": vs[i] for i in range(4)}
        env["X"] = vs[4]
        x = store.deref(vs[4])
        if isinstance(x, Var):
            builds = _voids(pattern)            # write mode
        elif (isinstance(x, Compound) and (x.label, len(x.args))
              == (pattern.label, len(pattern.args))):
            builds = sum(_voids(a) for a in pattern.args     # read mode
                         if isinstance(a, CCompound))
        else:
            builds = 0                          # a clash, found at once
        before = store.next_seq
        woken: set = set()
        if compiled:
            rt = Runtime(store=store)
            store.wake = woken.update
            code = compile_top(stmt)
            try:
                exec_stmt(Task(rt), code.body, code.frame(env))
                ok, reason = True, ""
            except Failure as f:
                ok, reason = False, f.reason.removeprefix("unification failed: ")
            # a void makes a variable only where the term is built
            assert store.next_seq - before == builds
        else:
            built = DictFrameRunner(store).build(pattern, (env, None))
            store.wake = woken.update
            res = (store.unify(vs[4], built) if x_left
                   else store.unify(built, vs[4]))
            ok, reason = res is None, "" if res is None else res.reason
        reps = []
        for v in vs:
            t = store.deref(v)
            reps.append(t.vid if isinstance(t, Var) else render(store, t))
        outcomes.append((ok, reason, sorted(woken), reps))
    assert outcomes[0] == outcomes[1]


# Local bodies: unifications over the outside variables V0..V3 and the
# local names L0..L2, which may come first in a `X = f(...)` (a first
# use), before it, after it, twice in it or nested in one of its
# arguments; integer operators, whose result may be a local name's first
# use and whose operands may be bound, unbound, not integers, zero or
# large enough to overflow; `if`s on an operator test, whose arms may be
# locals entered by the `if`; and nested locals that may shadow a name.
_LOCALS = ("L0", "L1", "L2")
_names = st.sampled_from(("V0", "V1", "V2", "V3") + _LOCALS).map(CVar)
_body_leaves = (_names
                | st.integers(0, 2).map(lambda n: CLit(Int(n)))
                | st.just(CAnon()))
_body_compounds = _pattern_compound(
    st.recursive(_body_leaves, _pattern_compound, max_leaves=4))
_int_literals = st.sampled_from(
    (CLit(Int(0)), CLit(Int(1)), CLit(Int(2**62)), CLit(Atom("a"))))
_local_names = st.sampled_from(_LOCALS).map(CVar)
_operands = st.one_of(_int_literals, _names)
_tests = st.builds(lambda op, a, b: BuiltinCall(op, (a, b)),
                   st.sampled_from(("<", ">", "=<", ">=")), _operands, _operands)
_operations = st.builds(lambda op, a, b, r: BuiltinCall(op, (a, b, r)),
                        st.sampled_from(sorted(OPERATORS)), _operands,
                        _operands, _local_names | _names)
_body_unifies = st.one_of(
    st.builds(Unify, _names, _body_compounds),
    st.builds(Unify, _body_compounds, _names),
    st.builds(Unify, _names, _body_leaves),
    _operations, _operations, _tests)
_body_statements = st.recursive(
    _body_unifies,
    lambda sub: st.one_of(
        st.builds(lambda names, stmts: Local(names, seq_all(stmts)),
                  st.lists(st.sampled_from(_LOCALS), min_size=1,
                           max_size=2, unique=True).map(tuple),
                  st.lists(sub, min_size=1, max_size=3)),
        st.builds(lambda test, body, otherwise: IfStmt(
                      (IfArm((), test, body),), otherwise),
                  _tests, sub, sub)),
    max_leaves=5)


def _run_local(stmt, compiled, prebinds, waiting, trailed):
    """Run ``stmt``, a Local, on outside variables V0..V3 and return the
    outcome, its text (a failure's, an error's or the rendered variable a
    suspension waits for), the woken threads and the rendered values of
    the outside variables (and, on success, of the local's names).
    Compiled, it runs as the runtime runs it; otherwise it runs on the
    reference runner, where every local, nested ones and those an `if`
    enters too, makes all of its names at entry."""
    store = Store()
    vs = [store.new_var() for _ in range(4)]
    for i, shape in prebinds:
        term = _build(store, shape, vs)
        if vs[i].ref is None and store.deref(term) is not vs[i]:
            vs[i].ref = term
    for i in waiting:
        store.add_waiter(vs[i], 10 + i)
    if trailed:
        store.trails.append([])
    env = {f"V{i}": vs[i] for i in range(4)}
    woken: set = set()
    waits = []
    if compiled:
        rt = Runtime(store=store)
        store.wake = woken.update
        task = Task(rt)
        code = compile_top(stmt)
        frame = code.frame(env)
        task.stack.append((code.body, frame))
        try:
            while task.stack:
                exec_stmt(task, *task.stack.pop())
            outcome, text = "ok", ""
        except Failure as f:
            outcome, text = "failed", f.reason
        except Suspend as s:
            outcome, text, waits = "suspended", "", s.vars
        except OzkError as e:
            outcome, text = "error", str(e)
        # the local's own names have the first slots with their names
        values = [frame[min(i for i, m in code.names if m == n)]
                  for n in stmt.names]
    else:
        runner = DictFrameRunner(store)
        try:
            runner.run(stmt, (env, None))
            outcome, text = "ok", ""
        except RefFailure as f:
            outcome, text = "failed", str(f)
        except RefSuspend as s:
            outcome, text, waits = "suspended", "", [s.var]
        except OzkError as e:
            outcome, text = "error", str(e)
        woken = runner.woken
        values = [runner.frames[0][n] for n in stmt.names]
    shown = list(vs) + waits + (values if outcome == "ok" else [])
    return outcome, text, sorted(woken), render(store, Compound("r", shown))


@settings(max_examples=300, deadline=None)
@given(st.lists(_body_statements, min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(0, 3),
                          st.tuples(st.just("int"), st.integers(0, 2))
                          | shapes), max_size=4),
       st.lists(st.integers(0, 3), max_size=4), st.booleans())
# V0 is bound to the flat f(V1 2) and a thread waits on V1: the read-mode
# V0 = f(<value> L0) binds V1, which wakes the thread, and the first use
# L0 must still take 2
@example(stmts=[Unify(CVar("V0"), CCompound("f", (CVar("V2"), CVar("L0"))))],
         prebinds=[(0, ("f", [("var", 1), ("int", 2)])), (2, ("int", 1))],
         waiting=[1], trailed=False)
@example(stmts=[Unify(CCompound("f", (CLit(Int(1)), CVar("L0"))), CVar("V0"))],
         prebinds=[(0, ("f", [("var", 1), ("int", 2)]))],
         waiting=[1], trailed=True)
def test_first_uses_match_making_every_name_at_entry(
        stmts, prebinds, waiting, trailed):
    stmt = Local(_LOCALS, seq_all(stmts))
    assert (_run_local(stmt, True, prebinds, waiting, trailed)
            == _run_local(stmt, False, prebinds, waiting, trailed))


# Runs of operators over integers: the outside variables are integers or
# unbound, and a local name's value is often an earlier operator's result.
_chain_statements = st.one_of(
    st.builds(lambda op, a, b, r: BuiltinCall(op, (a, b, r)),
              st.sampled_from(sorted(OPERATORS)), _operands, _operands,
              _local_names),
    _operations, _tests, st.builds(Unify, _local_names, _body_leaves))
_int_values = st.lists(st.sampled_from((None, 0, 1, 2)), min_size=4,
                       max_size=4).map(
    lambda xs: [(i, ("int", x)) for i, x in enumerate(xs) if x is not None])


@settings(max_examples=200, deadline=None)
@given(st.lists(_chain_statements, min_size=2, max_size=6), _int_values,
       st.booleans())
def test_operator_results_match_making_every_name_at_entry(
        stmts, prebinds, trailed):
    stmt = Local(_LOCALS, seq_all(stmts))
    assert (_run_local(stmt, True, prebinds, [], trailed)
            == _run_local(stmt, False, prebinds, [], trailed))


# `case` patterns: literals, names, voids, and compounds and `|` cells of
# them, nested and at the top; the names of a pattern are made distinct
# (linear).
_case_patterns = st.recursive(
    st.sampled_from((CVar("?"), CAnon(), CLit(Int(0)), CLit(Int(1)),
                     CLit(Int(-3)), CLit(Atom("a")), CLit(Atom("f")),
                     CLit(Atom("nil")))),
    lambda sub: st.one_of(
        st.builds(lambda la, args: CCompound(la, tuple(args)),
                  st.sampled_from("fg"), st.lists(sub, min_size=1, max_size=3)),
        st.builds(lambda head, tail: CCompound("|", (head, tail)), sub, sub)),
    max_leaves=6)


def _linear(pattern, names):
    if isinstance(pattern, CVar):
        return CVar(f"P{next(names)}")
    if isinstance(pattern, CCompound):
        return CCompound(pattern.label,
                         tuple(_linear(a, names) for a in pattern.args))
    return pattern


def _case_outcome(compiled, arms, subject, prebinds):
    """The arm a `case` on ``subject`` (a shape over V0..V3) enters, with
    its captures, or the variable it suspends on, rendered with V0..V3;
    compiled, as the runtime runs it, else by the reference matcher."""
    store = Store()
    vs = [store.new_var() for _ in range(4)]
    for i, shape in prebinds:
        term = _build(store, shape, vs)
        if vs[i].ref is None and store.deref(term) is not vs[i]:
            vs[i].ref = term
    t = _build(store, subject, vs)
    if compiled:
        env = {"S": t, "Arm": Atom("arm"), "Otherwise": Atom("otherwise")}
        task = Task(Runtime(store=store))
        stmt = CaseStmt(CVar("S"), tuple(
            CaseArm(p, Call(CVar("Arm"), (CLit(Int(i)),)))
            for i, p in enumerate(arms)), Call(CVar("Otherwise"), ()))
        code = compile_top(stmt)
        try:
            exec_stmt(task, code.body, code.frame(env))
        except Suspend as s:
            assert len(s.vars) == 1
            chosen, shown = "suspend", s.vars
        else:
            (body, frame), = task.stack
            chosen = (body.args[0].value if body.args else "otherwise")
            # the captures of the arm entered: those of arms tried before
            # it may hold what they met before they clashed
            captures = ({} if chosen == "otherwise" else
                        set(expr_names(arms[chosen])))
            slots = {n: i for i, n in code.names}
            shown = [frame[slots[n]] for n in sorted(captures)]
    else:
        for i, p in enumerate(arms):
            status, payload = match_pattern(store, p, t)
            if status == MATCH_OK:
                chosen, shown = i, [payload[n] for n in sorted(payload)]
                break
            if status == MATCH_UNDET:
                chosen, shown = "suspend", [payload]
                break
        else:
            chosen, shown = "otherwise", []
    return chosen, render(store, Compound("r", list(vs) + shown))


_var_shapes = st.tuples(st.just("var"), st.integers(0, 3))


def _shape_like(pattern):
    """Shapes that follow ``pattern``: each name, void or literal may
    become any shape, and each literal may stay itself."""
    if isinstance(pattern, CCompound):
        return st.builds(lambda args: (pattern.label, args), st.tuples(
            *(_shape_like(a) for a in pattern.args)).map(list))
    if isinstance(pattern, CLit):
        v = pattern.value
        same = ("int", v.value) if isinstance(v, Int) else ("atom", v.name)
        return st.one_of(st.just(same), st.just(same), _var_shapes, shapes)
    return shapes


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(_case_patterns, min_size=1, max_size=3), st.data(),
       st.lists(st.tuples(st.integers(0, 3), shapes), max_size=3))
def test_compiled_patterns_match_like_the_reference(arms, data, prebinds):
    names = itertools.count()
    arms = [_linear(p, names) for p in arms]
    # the subject: anything, or the shape of an arm's pattern, so that
    # arms match, clash deep down or wait on a variable inside
    like = st.sampled_from(arms).flatmap(_shape_like)
    subject = data.draw(st.one_of(shapes, like, like))
    assert (_case_outcome(True, arms, subject, prebinds)
            == _case_outcome(False, arms, subject, prebinds))


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
    t2 = materialize(s2, snap, s2.intern)
    assert bisimilar(s, t, s2, t2)


def test_snapshot_preserves_cycles_and_sharing():
    s = Store()
    x = s.new_var()
    s.unify(x, f(x, x))
    snap = snapshot(s, x, keep_var=lambda vid: False)
    s2 = Store()
    t2 = materialize(s2, snap, s2.intern)
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


# A term graph: a tree of compounds over atoms, integers, procedures,
# free variables (kept or not) and links, each position possibly behind
# a chain of bound variables.  A link is the k-th term made, other than
# a bound variable, so that subterms are shared and cycles run through
# compounds.
_graph_leaves = st.one_of(
    st.tuples(st.just("atom"), st.sampled_from("ab")),
    st.tuples(st.just("int"), st.integers(-1, 1)),
    st.tuples(st.just("proc")),
    st.tuples(st.just("free"), st.booleans()),
    st.tuples(st.just("link"), st.integers(0, 20)),
    st.tuples(st.just("link"), st.integers(0, 20)))
_graph_shapes = st.recursive(_graph_leaves, lambda kids: st.one_of(
    st.tuples(st.just("bound"), kids),
    st.tuples(st.just("compound"), st.sampled_from(("f", "|")),
              st.lists(kids, min_size=1, max_size=3))), max_leaves=14)


def _graph(store, shape):
    """The term of ``shape`` (see ``_graph_shapes``), and the VarIds of
    its free variables to keep."""
    made, links, keep = [], [], set()

    def build(shape, put):
        kind = shape[0]
        if kind == "bound":
            v = store.new_var()
            build(shape[1], lambda t: setattr(v, "ref", t))
            return put(v)
        if kind == "link":
            return links.append((shape[1], put))
        if kind == "compound":
            t = Compound(shape[1], [None] * len(shape[2]))
            for i, kid in enumerate(shape[2]):
                build(kid, lambda x, i=i: t.args.__setitem__(i, x))
        elif kind == "atom":
            t = Atom(shape[1])
        elif kind == "int":
            t = Int(shape[1])
        elif kind == "proc":
            t = NativeProc("P", 0, None)
        else:
            t = store.new_var()
            if shape[1]:
                keep.add(t.vid)
        made.append(t)
        put(t)

    root = []
    build(shape, root.append)
    if not made:
        made.append(Atom("a"))
    for k, put in links:
        put(made[k % len(made)])
    return root[0], keep


def _unbound_vars(store, term) -> list:
    seen, out, work = set(), [], [term]
    while work:
        t = store.deref(work.pop())
        if id(t) in seen:
            continue
        seen.add(id(t))
        if type(t) is Var:
            out.append(t)
        elif type(t) is Compound:
            work.extend(t.args)
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_graph_shapes, st.booleans())
def test_snapshot_matches_the_reference_encoder(shape, for_network):
    store = Store()
    term, keep = _graph(store, shape)
    keep_var = keep.__contains__
    try:
        want = ref_snapshot(term, keep_var, for_network)
    except RuntimeFailure:
        with pytest.raises(RuntimeFailure):
            snapshot(store, term, keep_var, for_network)
        return
    snap = snapshot(store, term, keep_var, for_network)
    root_index, nodes, kept, exported = want
    assert (snap.root, snap.nodes, snap.kept) == (root_index, nodes, kept)
    assert list(store.vars) == [v.vid for v in exported]

    # the rebuilt graph is the same graph: it encodes to the same nodes,
    # its frontier variables are the kept or interned ones, and each
    # anonymous variable is fresh and distinct
    if for_network:
        target = Store(node_id=1)
        lookup = target.intern
    else:
        target, lookup = store, snap.kept.__getitem__
    first_fresh = target.next_seq
    copy = materialize(target, snap, lookup)
    assert bisimilar(store, term, target, copy)
    frontier = {n[1] for n in nodes if n[0] == "var" and n[1] is not None}
    assert ref_snapshot(copy, frontier.__contains__)[1] == nodes
    anonymous = 0
    for v in _unbound_vars(target, copy):
        if v.vid in frontier:
            assert v is lookup(v.vid)
        else:
            anonymous += 1
            assert v.vid[0] == target.node_id and v.vid[1] >= first_fresh
    assert anonymous == nodes.count(("var", None))


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
