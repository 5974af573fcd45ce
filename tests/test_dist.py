"""Multi-node simulation: protocol behavior, confluence, replica checks."""

import random
import re
from collections import Counter, deque
from pathlib import Path

import pytest

from ozk import dist
from ozk.builtins import make_builtins
from ozk.cli import main
from ozk.compiler import compile_top
from ozk.dist import (MAX_NODE_ID, Network, Simulation, parse_placement,
                      replica_divergences, run_simulation, split_program)
from ozk.errors import PlacementError, RuntimeFailure
from ozk.interp import Session, run_text
from ozk.parser import parse_program
from ozk.prelude import PRELUDE_NAMES
from ozk.runtime import take_next
from ozk.terms import Compound, Int, Var, snapshot

PROGRAMS = Path(__file__).resolve().parent.parent / "docs" / "programs"

GEN_MAP = """
local Gen Square Xs Ys in
   proc {Gen I N Xo}
      if I =< N then Xr in
         Xo = I|Xr
         {Delay 10}
         {Gen I+1 N Xr}
      else Xo = nil end
   end
   fun {Square X} X*X end
   thread {Gen 1 10 Xs} end
   thread Ys = {Map Xs Square} {Browse Ys} end
end
"""

GEN_MAP_FAST = GEN_MAP.replace("{Delay 10}\n", "")

SQUARES = "[1 4 9 16 25 36 49 64 81 100]"

RATIONAL = """
local X Y in
   thread
      X = f(X)
      if X == Y then {Browse equal} else {Browse different} end
   end
   thread
      Y = f(f(Y))
      X = Y
      if X == Y then {Browse equal} else {Browse different} end
   end
end
"""

# Two threads bind X to different values: one wins, the other fails.
CLASH = """
proc {Loop N} if N > 0 then {Loop N-1} end end
local X in
   thread X = 1 {Loop 5000} {Browse a} end
   thread X = 2 {Loop 5000} {Browse b} end
end
"""

# S is made on thread a's node, so under a split placement the lazy
# Solve list's first cell belongs to the other node from thread b's.
LAZY_SOLVE_PROBE = """
proc {G R} choice R=1 [] R=2 [] R=3 end end
local S in
   thread {Wait S} {Browse got} end
   thread {Solve G S} {Browse {Nth S 2}} end
end
"""

# S is made on thread a's node; thread b's search browses in its goal.
SEARCH_TO_ANOTHER_NODE = """
proc {G R} {Browse g} R = 1 end
local S in
   thread {Wait S} {Browse S} end
   thread {SolveAll G S} end
end
"""

# Placed a=0,b=1,c=1, both requests for X reach node 0, which binds X to
# f(Y), Y being node 1's: unifying the second request with that would
# bind node 0's replica of Y.
SECOND_REQUEST = """
local X in
   thread case X of f(Z) then {Browse Z + 0} end end
   thread Y in X = f(Y) end
   thread X = f(1) end
end
"""


def placements(text: str) -> list:
    """Every placement of the program's top-level threads on nodes 0
    and 1."""
    _, _, threads = split_program(text, tuple(make_builtins())
                                  + PRELUDE_NAMES)
    names = dist.THREAD_NAMES[:len(threads)]
    return [{name: (i >> k) & 1 for k, name in enumerate(names)}
            for i in range(2 ** len(names))]


def quiesced(report):
    assert report.status == "done", report.summary()
    assert not replica_divergences(report.nodes), report.summary()
    return report


def traced(source, placement, **options):
    """Run a simulation; its report and the line of each delivery."""
    lines: list = []
    report = run_simulation(source, placement, on_net_trace=lines.append,
                            **options)
    return report, lines


class TestPlacementParsing:
    def test_parse_placement(self):
        assert parse_placement("a=0,b=1") == {"a": 0, "b": 1}
        assert parse_placement(" a = 2 , b = 0 ") == {"a": 2, "b": 0}
        assert parse_placement("") == {}

    @pytest.mark.parametrize("bad", ["a", "a=", "=1", "a=x", "a=-1"])
    def test_malformed_placement(self, bad):
        with pytest.raises(PlacementError):
            parse_placement(bad)

    def test_unknown_thread_rejected(self):
        with pytest.raises(PlacementError, match="unknown thread 'c'"):
            run_simulation(GEN_MAP, {"c": 1})

    def test_a_node_id_past_the_last_thread_builds_no_node(self, monkeypatch,
                                                           capsys):
        built = []
        node = dist.Node

        def counted(*args, **kwargs):
            built.append(args[0])
            if len(built) > 3:
                raise AssertionError(f"built nodes {built}")
            return node(*args, **kwargs)
        monkeypatch.setattr(dist, "Node", counted)
        for nid in (26, 99999999, -1):
            with pytest.raises(PlacementError, match=f"b={nid}: "):
                Simulation(GEN_MAP, {"a": 0, "b": nid})
        assert built == []
        code = main(["dist-run", str(PROGRAMS / "dist_gen_map.ozk"),
                     "--placement", "a=0,b=99999999"])
        assert code == 3 and built == []
        assert "b=99999999" in capsys.readouterr().err
        monkeypatch.setattr(dist, "Node", node)
        report = run_simulation(GEN_MAP, {"a": 0, "b": MAX_NODE_ID})
        assert report.status == "done" and len(report.nodes) == 26

    def test_split_finds_threads_and_setup(self):
        from ozk.builtins import make_builtins
        from ozk.prelude import PRELUDE_NAMES
        ambient = tuple(make_builtins()) + PRELUDE_NAMES
        names, setup, threads = split_program(GEN_MAP, ambient)
        assert set(names) == {"Gen", "Square", "Xs", "Ys"}
        assert len(setup) == 2 and len(threads) == 2

    def test_split_empty_source(self):
        assert split_program("   \n", ()) == ((), (), ())

    def test_split_descends_into_mid_sequence_local(self):
        # Declarations first, then a local holding the threads: the
        # natural file layout must be placeable too.
        src = ("proc {P X} X = 1 end\n"
               "local A B in\n"
               "   thread {P A} end\n"
               "   thread {P B} end\n"
               "end\n")
        names, setup, threads = split_program(src, ())
        assert set(names) == {"P", "A", "B"}
        assert len(setup) == 1 and len(threads) == 2

    def test_split_rejects_duplicate_toplevel_name(self):
        src = ("local X in thread X = 1 end end\n"
               "local X in thread X = 2 end end\n")
        with pytest.raises(PlacementError, match="declared twice"):
            split_program(src, ())


class TestFreeNames:
    """The free names of a piece are its ``captures``, which
    ``Simulation._place`` reads."""

    @staticmethod
    def free(stmt) -> set:
        return set(compile_top(stmt).captures)

    def test_local_binds(self):
        stmt = parse_program("local X in X = 1 end", ())
        assert self.free(stmt) == set()

    def test_proc_def_uses_its_name_and_free_vars(self):
        stmt = parse_program(
            "local P Y in proc {P X} X = Y end end", ())
        # P and Y are declared by the outer local, so nothing is free;
        # strip the local to see the uses.
        inner = stmt.body
        assert self.free(inner) == {"P", "Y"}

    def test_case_pattern_binds(self):
        stmt = parse_program(
            "local Xs Y in case Xs of A|B then A = B Y = A end end", ())
        assert self.free(stmt.body) == {"Xs", "Y"}


class TestProtocol:
    def test_two_node_gen_map_matches_single_node(self):
        report = quiesced(run_simulation(GEN_MAP, {"a": 0, "b": 1}))
        assert report.outputs[1] == [SQUARES]
        assert report.outputs[0] == []
        single = run_text(GEN_MAP)
        assert single.status == "done"
        assert single.browses == [SQUARES]

    def test_incremental_stream_messages(self):
        # With the producer pausing between elements, every cons cell
        # travels separately: a notify per cell, and a registration for
        # each new tail the consumer meets.
        report = quiesced(run_simulation(GEN_MAP, {"a": 0, "b": 1}))
        assert report.delivered["BindNotify"] == 11
        assert report.delivered["Register"] == 11
        assert report.clock == 100

    def test_bulk_transfer_when_producer_finishes_first(self):
        # Without the delay the producer finishes before the consumer's
        # registration arrives; the owner answers it with one snapshot
        # of the now-complete list (register-after-bound path).
        report = quiesced(run_simulation(GEN_MAP_FAST, {"a": 0, "b": 1}))
        assert report.outputs[1] == [SQUARES]
        assert report.delivered["BindNotify"] == 1
        assert report.delivered["Register"] == 1

    def test_single_node_placement_equals_plain_run(self):
        report = quiesced(run_simulation(GEN_MAP, {"a": 0, "b": 0}))
        assert report.total_delivered == 0
        single = run_text(GEN_MAP)
        assert report.outputs[0] == single.browses
        assert report.clock == single.clock

    def test_empty_program_zero_messages(self):
        report = quiesced(run_simulation("skip", {}))
        assert report.total_delivered == 0
        assert report.outputs == {0: []}

    def test_blank_source_zero_messages(self):
        report = quiesced(run_simulation("", {}))
        assert report.total_delivered == 0

    def test_rational_trees_converge_on_both_nodes(self):
        report = quiesced(run_simulation(RATIONAL, {"a": 0, "b": 1}))
        for node in report.nodes:
            entailed, _ = node.store.equals(node.lookup("X"),
                                            node.lookup("Y"))
            assert entailed is True
        assert report.outputs[0] == ["equal"]
        assert report.outputs[1] == ["equal"]
        # f(X) has 1 graph node, f(f(Y)) has 3: bound well under 10x.
        assert report.total_delivered <= 40

    def test_rational_trees_under_shuffle(self):
        for seed in range(20):
            report = quiesced(run_simulation(RATIONAL, {"a": 0, "b": 1},
                                             net_seed=seed))
            for node in report.nodes:
                entailed, _ = node.store.equals(node.lookup("X"),
                                                node.lookup("Y"))
                assert entailed is True

    def test_same_value_concurrent_binds_serialize(self):
        program = """
        local X in
           thread X = 10 end
           thread X = 10 {Wait X} {Browse X} end
        end
        """
        report = quiesced(run_simulation(program, {"a": 0, "b": 1}))
        assert report.outputs[1] == ["10"]
        for node in report.nodes:
            assert node.store.vars  # both nodes know X
        x0 = report.nodes[0].lookup("X")
        assert report.nodes[0].store.deref(x0).value == 10

    def test_conflicting_binds_fail_with_both_terms(self):
        program = """
        local X in
           thread X = apple end
           thread X = orange end
        end
        """
        report = run_simulation(program, {"a": 0, "b": 1})
        assert report.status == "failed"
        assert any("apple" in f and "orange" in f for f in report.failures)

    @pytest.mark.parametrize("net_seed", [None] + list(range(10)))
    def test_a_clash_fails_the_run_but_does_not_end_it(self, net_seed):
        # Which binding of X reaches its owner first depends on the
        # interleaving.  A thread that binds another node's X waits for
        # the owner's answer, so the loser's X = ... fails its own thread,
        # as in one store, and the winner runs on to its browse.
        for placement in ({"a": 0, "b": 1}, {"a": 1, "b": 0}):
            report = run_simulation(CLASH, placement, net_seed=net_seed)
            assert report.status == "failed", report.summary()
            assert len(report.failures) == 1
            assert not any("clash" in f for f in report.failures)
            statuses = [node.thread_statuses() for node in report.nodes]
            assert all(set(s) <= {"terminated", "failed"} for s in statuses)
            assert sum(s["failed"] for s in statuses) == 1
            browses = report.outputs[0] + report.outputs[1]
            assert browses in (["a"], ["b"]), report.summary()

    def test_a_lazy_solve_cell_of_another_node_takes_one_answer(self):
        # Thread b's trigger binds a cell that node a owns, so its bind
        # waits for the owner and runs again, but SolveNext, which took
        # the engine's answer, does not.
        assert sorted(run_text(LAZY_SOLVE_PROBE).browses) == ["2", "got"]
        for placement in ({"a": 0, "b": 1}, {"a": 1, "b": 0}):
            for net_seed in [None] + list(range(4)):
                report = quiesced(run_simulation(
                    LAZY_SOLVE_PROBE, placement, net_seed=net_seed))
                assert report.outputs[placement["a"]] == ["got"]
                assert report.outputs[placement["b"]] == ["2"]

    @pytest.mark.parametrize("solver", ["SolveAll", "SolveOne"])
    def test_a_search_whose_output_is_another_nodes_runs_once(self, solver):
        # The bind of S waits for its owner and runs again; the search,
        # whose goal browses, does not.
        program = SEARCH_TO_ANOTHER_NODE.replace("SolveAll", solver)
        assert run_text(program).browses == ["g", "[1]"]
        for placement in ({"a": 0, "b": 1}, {"a": 1, "b": 0}):
            for net_seed in [None] + list(range(4)):
                report = quiesced(run_simulation(program, placement,
                                                 net_seed=net_seed))
                assert report.outputs[placement["a"]] == ["[1]"]
                assert report.outputs[placement["b"]] == ["g"]

    GUARD_OVER_PROXY = """
    local X in
       thread X = _ {Delay 5} end
       thread {Delay 1} if Y in Y = X then {Browse yes} else {Browse no} end end
    end
    """

    def test_a_guard_binds_its_own_variable_to_another_nodes(self):
        assert run_text(self.GUARD_OVER_PROXY).browses == ["yes"]
        for placement in ({"a": 0, "b": 1}, {"a": 1, "b": 0}):
            for net_seed in [None] + list(range(5)):
                report = quiesced(run_simulation(
                    self.GUARD_OVER_PROXY, placement, net_seed=net_seed))
                assert report.outputs[placement["b"]] == ["yes"]

    def test_var_var_unify_third_node(self):
        # X lives on node 0, Y on node 1, and node 2 merges them: every
        # node must end up dereferencing Y to X (the lesser variable).
        program = """
        local X Y in
           thread X = X end
           thread Y = Y end
           thread X = Y end
        end
        """
        report = quiesced(run_simulation(program,
                                         {"a": 0, "b": 1, "c": 2}))
        x_vid = report.nodes[0].lookup("X").vid
        y_vid = report.nodes[1].lookup("Y").vid
        assert x_vid[0] == 0 and y_vid[0] == 1
        for node in report.nodes:
            replica = node.store.vars.get(y_vid)
            assert replica is not None, f"node {node.node_id} never met Y"
            rep = node.store.deref(replica)
            assert isinstance(rep, Var) and rep.vid == x_vid

    def test_unify_same_var_is_local_noop(self):
        program = """
        local X in
           thread X = X end
           thread skip end
        end
        """
        report = quiesced(run_simulation(program, {"a": 0, "b": 1}))
        assert report.total_delivered == 0

    def test_three_way_chain_transitivity(self):
        program = """
        local X Y Z in
           thread X = Y end
           thread Y = Z end
           thread Z = Z end
        end
        """
        report = quiesced(run_simulation(program,
                                         {"a": 0, "b": 1, "c": 2}))
        reps = set()
        for node in report.nodes:
            for name in ("X", "Y", "Z"):
                if name in node.globals:
                    rep = node.store.deref(node.lookup(name))
                    assert isinstance(rep, Var)
                    reps.add(rep.vid)
        assert len(reps) == 1

    def test_value_flows_back_to_producer_side(self):
        # The consumer node binds the answer variable; the producer node
        # waits for it, proving binds travel in both directions.
        program = """
        local X Answer in
           thread X = 21 {Wait Answer} {Browse Answer} end
           thread case X of N then Answer = N + N end end
        end
        """
        report = quiesced(run_simulation(program, {"a": 0, "b": 1}))
        assert report.outputs[0] == ["42"]

    def test_duplicate_registration_is_idempotent(self):
        sim = Simulation(RATIONAL, {"a": 0, "b": 1})
        report = sim.run()
        assert report.status == "done"
        x_vid = sim.nodes[0].lookup("X").vid
        audience = set(sim.nodes[0].registered[x_vid])
        before = sim.network.sent.copy()
        sim.network.post(1, 0, "Register", x_vid)
        sim._deliver(sim.network.take(0))
        assert sim.nodes[0].registered[x_vid] == audience
        # No notification was triggered by the duplicate.
        assert sim.network.sent["BindNotify"] == before["BindNotify"]

    def test_a_second_notice_for_a_bound_replica_is_an_internal_error(self):
        # A replica holds only what its owner confirmed, once: news of a
        # replica that is bound already is a fault of the protocol, not
        # a failure of the program.
        sim = Simulation(RATIONAL, {"a": 0, "b": 1})
        assert sim.run().status == "done"
        owner = sim.nodes[0]
        x = owner.lookup("X")
        assert x.vid in sim.nodes[1].store.vars
        sim.network.post(0, 1, "BindNotify", x.vid,
                         snapshot(owner.store, x, lambda vid: True,
                                  for_network=True))
        with pytest.raises(RuntimeFailure,
                           match=rf"v{x.vid[0]}\.{x.vid[1]}\b"):
            sim._deliver(sim.network.take(0))

    def test_non_owner_forwards_a_repeated_pair_once(self):
        # Node 1 meets the pair (X, c) twice in one unification; its
        # replica of X stays unbound until the owner's notice, and the
        # statement waits for that notice at the first pair, so it asks
        # once and finds X bound when it runs again.
        program = """
        local X in
           thread {Wait X} {Browse X} end
           thread C in C = c f(X X) = f(C C) end
        end
        """
        report = quiesced(run_simulation(program, {"a": 0, "b": 1}))
        assert report.outputs[0] == ["c"]
        assert report.delivered["BindRequest"] == 1

    @pytest.mark.parametrize("program,net_seed", [
        (GEN_MAP, None), (GEN_MAP, 7), (RATIONAL, None)],
        ids=["gen_map", "gen_map-shuffled", "rational"])
    def test_registry_holds_only_shared_variables(self, program, net_seed):
        report = quiesced(run_simulation(program, {"a": 0, "b": 1},
                                         net_seed=net_seed))
        for node in report.nodes:
            others = [n for n in report.nodes if n is not node]
            for vid, var in node.store.vars.items():
                assert var.vid == vid
                assert any(vid in other.store.vars for other in others)

    def test_summary_counts_ended_threads(self):
        source = (PROGRAMS / "dist_gen_map.ozk").read_text()
        summary = run_simulation(source, {"a": 0, "b": 1}).summary()
        assert "node 0: terminated=3 " in summary
        assert "node 1: terminated=3 " in summary

    def test_deadlock_reported(self):
        program = """
        local X Y in
           thread Y = X + 1 end
           thread skip end
        end
        """
        report = run_simulation(program, {"a": 0, "b": 1})
        assert report.status == "deadlock"
        assert 0 in report.suspended
        assert "waiting on" in report.summary()

    def test_step_budget_reported(self):
        # The budget runs out on node 0 before node 1 has run: node 1's
        # threads are stopped too, and none is left runnable.
        program = """
        local Loop in
           proc {Loop} {Loop} end
           thread {Loop} end
           thread {Browse 1} end
        end
        """
        report = run_simulation(program, {"a": 0, "b": 1}, max_steps=5000)
        assert report.status == "limit"
        assert any("step budget" in f for f in report.failures)
        summary = report.summary()
        assert "runnable=" not in summary and "sleeping=" not in summary
        assert "node 1: stopped=" in summary

    def test_a_first_use_meeting_a_proxy_takes_it(self):
        # Y is node 1's; on node 0, X's replica is f(Y's unbound proxy).
        # The first use of A takes that proxy as A's value, as it takes
        # any argument, so `A = 7` asks node 1 to bind Y: one BindRequest
        # for Y with 7.  A variable made at entry (`A = A` is a use before
        # the first, so A is made there) is less than the proxy, so
        # `X = f(A)` binds the proxy to it: a BindRequest for Y with A,
        # which then travels as a variable, and one more Register and
        # BindNotify for A.  Both browse the same.
        program = """
        X Y in
        thread X = f(Y) end
        thread {Wait X} local A in %s X = f(A) A = 7 end {Wait Y} {Browse Y} end
        """
        first_use = compile_top(parse_program(
            "local A in X = f(A) A = 7 end", ("X",)))
        assert first_use.body.made == ()
        reports = [quiesced(run_simulation(program % pre, {"a": 1, "b": 0}))
                   for pre in ("", "A = A")]
        assert reports[0].outputs == reports[1].outputs == {0: ["7"], 1: []}
        sent = [{kind: report.sent[kind] for kind in
                 ("Register", "BindNotify", "BindRequest", "UnifyVarVar")}
                for report in reports]
        assert sent == [
            {"Register": 2, "BindNotify": 2, "BindRequest": 1,
             "UnifyVarVar": 0},
            {"Register": 3, "BindNotify": 3, "BindRequest": 1,
             "UnifyVarVar": 0}]
        assert reports[0].delivered == reports[0].sent
        assert reports[1].delivered == reports[1].sent


class TestDeterminismAndConfluence:
    def test_fifo_runs_are_identical(self):
        a, a_trace = traced(GEN_MAP, {"a": 0, "b": 1})
        b, b_trace = traced(GEN_MAP, {"a": 0, "b": 1})
        assert a_trace == b_trace
        assert a.outputs == b.outputs

    def test_same_shuffle_seed_same_trace(self):
        _, a_trace = traced(GEN_MAP, {"a": 0, "b": 1}, net_seed=7)
        _, b_trace = traced(GEN_MAP, {"a": 0, "b": 1}, net_seed=7)
        assert a_trace == b_trace

    def test_net_seed_order_reproducible_and_complete(self):
        # the event loop picks the delivery: a net seed replays its order,
        # every message posted is delivered, and seeds order differently
        def deliveries(seed):
            lines: list = []
            sim = Simulation(RATIONAL, {"a": 0, "b": 1}, net_seed=seed,
                             on_net_trace=lines.append)
            report = quiesced(sim.run())
            assert sim.network.pending == 0
            assert report.delivered == report.sent
            assert len(lines) == report.total_delivered
            return tuple(lines)
        assert deliveries(3) == deliveries(3)
        orders = {deliveries(seed) for seed in range(5)}
        assert len(orders) > 1

    # thread c spins on node 1 for about nine timeslices while X's
    # binding travels from node 0 to thread b
    BETWEEN_SLICES = """
    proc {Spin N} if N > 0 then {Spin N-1} end end
    local X in
       thread X = 1 end
       thread {Wait X} {Browse x} end
       thread {Spin 3000} {Browse done} end
    end
    """

    def test_a_delivery_can_come_between_slices(self):
        placement = {"a": 0, "b": 1, "c": 1}
        fifo = quiesced(run_simulation(self.BETWEEN_SLICES, placement))
        assert fifo.outputs[1] == ["done", "x"]
        seen = set()
        for seed in range(10):
            report = quiesced(run_simulation(self.BETWEEN_SLICES, placement,
                                             net_seed=seed))
            assert report.outputs[0] == []
            assert sorted(report.outputs[1]) == ["done", "x"]
            seen.add(tuple(report.outputs[1]))
        assert ("x", "done") in seen

    def test_outputs_confluent_across_seeds(self):
        for seed in range(25):
            report = quiesced(run_simulation(GEN_MAP, {"a": 0, "b": 1},
                                             net_seed=seed))
            assert report.outputs[1] == [SQUARES]

    def test_outputs_confluent_across_sched_seeds(self):
        for seed in range(5):
            report = quiesced(run_simulation(
                GEN_MAP, {"a": 0, "b": 1}, net_seed=seed,
                sched_policy="random", sched_seed=seed * 17 + 3))
            assert report.outputs[1] == [SQUARES]

    def test_trace_line_format(self):
        report, lines = traced(GEN_MAP, {"a": 0, "b": 1})
        pattern = re.compile(
            r"^\d+ \d+ (Register|BindRequest|BindNotify|UnifyVarVar) "
            r"v\d+\.\d+$")
        assert lines
        assert len(lines) == report.total_delivered
        for line in lines:
            assert pattern.match(line), line

    @pytest.mark.parametrize("program", sorted(PROGRAMS.glob("*.ozk")),
                             ids=lambda p: p.name)
    def test_docs_programs_confluent_across_schedules(self, program):
        # A sampled sweep of both order choices: every schedule and every
        # delivery order must reach the FIFO run's status and lines.
        text = program.read_text()
        want = run_text(text)
        lines = Counter(want.browses)
        for seed in range(5):
            got = run_text(text, policy="random", seed=seed)
            assert (got.status, Counter(got.browses)) == (want.status, lines)
        for placement in placements(text):
            for sched_seed in range(5):
                for net_seed in range(5):
                    report = run_simulation(
                        text, placement, sched_policy="random",
                        sched_seed=sched_seed, net_seed=net_seed)
                    browsed = Counter(line for out in report.outputs.values()
                                      for line in out)
                    assert (report.status, browsed) == (want.status, lines), \
                        (placement, report.summary())
                    assert replica_divergences(report.nodes) == []

    def test_no_delivery_forwards_a_bind(self, monkeypatch):
        # A delivery binds an unbound variable or drops its message: it
        # never unifies, so it never asks another node for a binding.
        # Only a thread does, and that thread waits for the answer.
        delivering = []
        deliver, request_bind = Simulation._deliver, Simulation.request_bind

        def guarded_deliver(sim, msg):
            delivering.append(msg.trace_line())
            try:
                deliver(sim, msg)
            finally:
                delivering.pop()

        def guarded_request_bind(sim, store, var, value):
            if delivering:
                pytest.fail(f"the delivery {delivering[-1]} forwarded a bind")
            request_bind(sim, store, var, value)

        monkeypatch.setattr(Simulation, "_deliver", guarded_deliver)
        monkeypatch.setattr(Simulation, "request_bind", guarded_request_bind)
        texts = [p.read_text() for p in sorted(PROGRAMS.glob("*.ozk"))]
        for text in texts + [CLASH, LAZY_SOLVE_PROBE, SECOND_REQUEST]:
            for placement in placements(text):
                for net_seed in (None, 1):
                    run_simulation(text, placement, net_seed=net_seed)


    # X is sent while Y and Z are unbound, so node 1's replica of X holds
    # the replicas of Y and Z; all three are shared by nodes 0 and 1
    NESTED_SHARED = """
    local X Y Z in
       thread X = f(Y Z) {Delay 10} Y = g(5) Z = 7 end
       thread {Wait X} {Wait Y} {Wait Z} {Browse X} end
    end
    """

    @pytest.mark.parametrize("name, plant", [
        ("Y", lambda y, z: Compound("g", [Int(6)])),
        ("Z", lambda y, z: None),
        ("X", lambda y, z: Compound("f", [y, Int(8)])),
    ], ids=["Y-rebound", "Z-unbound", "X-below-it"])
    def test_a_divergent_replica_is_named(self, name, plant):
        # A difference planted in node 1's replica is reported once,
        # against the nearest shared variable above it: a difference in Y
        # is not charged to X, whose graph reaches it.
        report = quiesced(run_simulation(self.NESTED_SHARED,
                                         {"a": 0, "b": 1}))
        _, other = report.nodes
        x, y, z = sorted(other.store.vars)
        vids = {"X": x, "Y": y, "Z": z}
        replicas = other.store.vars
        assert replicas[x].ref.args == [replicas[y], replicas[z]]
        replicas[vids[name]].ref = plant(replicas[y], replicas[z])
        vid = vids[name]
        assert replica_divergences(report.nodes) == [
            f"v{vid[0]}.{vid[1]} differs between node 0 and node 1"]


class TestNetwork:
    def test_fifo_preserves_per_link_order(self):
        net = Network()
        for i in range(5):
            net.post(0, 1, "Register", (0, i))
        got = [net.take(0).var[1] for _ in range(5)]
        assert got == [0, 1, 2, 3, 4]

    def test_fifo_is_globally_oldest_first(self):
        net = Network()
        net.post(0, 1, "Register", (0, 1))
        net.post(1, 0, "Register", (1, 1))
        net.post(0, 1, "Register", (0, 2))
        order = [(net.take(0).src, net.take(0).src, net.take(0).src)]
        assert order == [(0, 1, 0)]
        assert net.pending == 0


class TestTakeNext:
    def test_fifo_takes_in_post_order_across_links(self):
        net = Network()
        posts = [(0, 1), (1, 0), (0, 2), (2, 1), (0, 1), (1, 0)]
        for i, (src, dst) in enumerate(posts):
            net.post(src, dst, "Register", (src, i))
        got = [take_next(net.queue, None) for _ in posts]
        assert [(m.src, m.dst, m.var[1]) for m in got] == \
            [(src, dst, i) for i, (src, dst) in enumerate(posts)]

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_seeded_takes_what_randrange_picks(self, seed):
        items = list("abcdefgh")
        queue = deque(items)
        order = random.Random(seed)
        got = [take_next(queue, order) for _ in items]
        rng, rest, want = random.Random(seed), list(items), []
        while rest:
            want.append(rest.pop(rng.randrange(len(rest))))
        assert got == want
        assert not queue

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="rnadom"):
            Session(policy="rnadom", prelude=False)
        with pytest.raises(ValueError, match="rnadom"):
            run_simulation(GEN_MAP, {"a": 0, "b": 1}, sched_policy="rnadom")
