"""Multi-node simulation: protocol behavior, confluence, replica checks."""

import re
from pathlib import Path

import pytest

from ozk.dist import (Network, Simulation, free_names, parse_placement,
                      replica_divergences, run_simulation, split_program)
from ozk.errors import PlacementError
from ozk.interp import run_text
from ozk.parser import parse_program
from ozk.terms import Var

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


def quiesced(report):
    assert report.status == "done", report.summary()
    assert not replica_divergences(report.nodes), report.summary()
    return report


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

    def test_split_finds_threads_and_setup(self):
        from ozk.builtins import make_builtins
        from ozk.prelude import PRELUDE_NAMES
        ambient = tuple(make_builtins()[1]) + PRELUDE_NAMES
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
    def test_local_binds(self):
        stmt = parse_program("local X in X = 1 end", ())
        assert free_names(stmt) == set()

    def test_proc_def_uses_its_name_and_free_vars(self):
        stmt = parse_program(
            "local P Y in proc {P X} X = Y end end", ())
        # P and Y are declared by the outer local, so nothing is free;
        # strip the local to see the uses.
        inner = stmt.body
        assert free_names(inner) == {"P", "Y"}

    def test_case_pattern_binds(self):
        stmt = parse_program(
            "local Xs Y in case Xs of A|B then A = B Y = A end end", ())
        assert free_names(stmt.body) == {"Xs", "Y"}


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
        sim._deliver(sim.network.take())
        assert sim.nodes[0].registered[x_vid] == audience
        # No notification was triggered by the duplicate.
        assert sim.network.sent["BindNotify"] == before["BindNotify"]

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
        program = """
        local Loop in
           proc {Loop} {Loop} end
           thread {Loop} end
        end
        """
        report = run_simulation(program, {"a": 0}, max_steps=5000)
        assert report.status == "limit"
        assert any("step budget" in f for f in report.failures)


class TestDeterminismAndConfluence:
    def test_fifo_runs_are_identical(self):
        a = run_simulation(GEN_MAP, {"a": 0, "b": 1})
        b = run_simulation(GEN_MAP, {"a": 0, "b": 1})
        assert a.trace == b.trace
        assert a.outputs == b.outputs

    def test_same_shuffle_seed_same_trace(self):
        a = run_simulation(GEN_MAP, {"a": 0, "b": 1}, net_seed=7)
        b = run_simulation(GEN_MAP, {"a": 0, "b": 1}, net_seed=7)
        assert a.trace == b.trace

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
        report = run_simulation(GEN_MAP, {"a": 0, "b": 1})
        pattern = re.compile(
            r"^\d+ \d+ (Register|BindRequest|BindNotify|UnifyVarVar) "
            r"v\d+\.\d+$")
        assert report.trace
        for line in report.trace:
            assert pattern.match(line), line


class TestNetwork:
    def test_fifo_preserves_per_link_order(self):
        net = Network("fifo")
        for i in range(5):
            net.post(0, 1, "Register", (0, i))
        got = [net.take().var[1] for _ in range(5)]
        assert got == [0, 1, 2, 3, 4]

    def test_fifo_is_globally_oldest_first(self):
        net = Network("fifo")
        net.post(0, 1, "Register", (0, 1))
        net.post(1, 0, "Register", (1, 1))
        net.post(0, 1, "Register", (0, 2))
        order = [(net.take().src, net.take().src, net.take().src)]
        assert order == [(0, 1, 0)]

    def test_shuffle_reproducible_and_complete(self):
        def drain(seed):
            net = Network("shuffle", seed)
            for i in range(6):
                net.post(i % 2, 1 - i % 2, "Register", (0, i))
            return [net.take().var[1] for _ in range(6)]
        assert drain(3) == drain(3)
        assert sorted(drain(3)) == [0, 1, 2, 3, 4, 5]
        assert drain(3) != drain(4) or drain(4) != drain(5)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            Network("carrier-pigeon")
