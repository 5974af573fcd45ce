"""The command-line interface: exit codes, goldens, REPL, determinism."""

import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import QUEENS8_FIRST, queens_brute
from ozk.builtins import make_builtins
from ozk.cli import _STATUS_EXIT, EXIT_CODES, EXIT_USAGE, main
from ozk.dist import split_program
from ozk.parser import MAX_NESTING
from ozk.prelude import PRELUDE_NAMES

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "docs" / "programs"

QUEENS_FUN = """
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


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def elsecase_chain(links: int) -> str:
    """A `case` on X = links-1, then links-1 `elsecase` links; link k
    browses k."""
    return (f"X = {links - 1} case X of 0 then {{Browse 0}} "
            + "".join(f"elsecase X of {k} then {{Browse {k}}} "
                      for k in range(1, links))
            + "end")


def repl(capsys, monkeypatch, lines, *flags):
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code = main(["repl", *flags])
    captured = capsys.readouterr()
    return code, captured.out.splitlines()


def fmt_solution(cols):
    return "[" + " ".join(str(c) for c in cols) + "]"


# -- run: exit codes and goldens -------------------------------------------


class TestRun:
    def test_browse_goes_to_stdout(self, capsys, tmp_path):
        f = write(tmp_path, "p.ozk", "local X in X = 41 + 1 {Browse X} end")
        code, out, err = run_cli(capsys, "run", f)
        assert (code, out, err) == (0, "42\n", "")

    def test_queens_first_solution(self, capsys, tmp_path):
        f = write(tmp_path, "q.ozk", QUEENS_FUN +
                  "{Browse {SolveOne fun {$} {Queens 8} end}}")
        code, out, err = run_cli(capsys, "run", f)
        assert code == 0
        assert out == "[%s]\n" % fmt_solution(QUEENS8_FIRST)

    def test_skip_only_no_output(self, capsys, tmp_path):
        f = write(tmp_path, "s.ozk", "skip\n")
        assert run_cli(capsys, "run", f) == (0, "", "")

    def test_deadlock_names_thread_and_variable(self, capsys, tmp_path):
        f = write(tmp_path, "d.ozk", "local X Y in Y = X + 1 end")
        code, out, err = run_cli(capsys, "run", f)
        assert code == 2
        assert out == ""
        assert re.search(r"deadlock: thread \d+ waiting on X", err)

    @pytest.mark.parametrize("body, name", [
        # the thread stops before the local's first use of Y has run, so
        # the frame holds no Y: G is shown under its own name
        ("{Wait G} X = f(Y)", "G"),
        # after it, Y is G, as when Y was made and bound to G
        ("X = f(Y) {Wait Y}", "Y"),
    ])
    def test_deadlock_names_only_what_a_frame_has_made(self, capsys, tmp_path,
                                                       body, name):
        f = write(tmp_path, "d.ozk", "X G in X = f(G) "
                  "thread local Y in %s end end" % body)
        code, out, err = run_cli(capsys, "run", f)
        assert code == 2
        assert re.fullmatch(r"deadlock: thread \d+ waiting on %s\n" % name, err)

    @pytest.mark.parametrize("program, name", [
        # a parameter of the procedure the thread stopped in
        ("proc {P A} {Wait A} end local Z in {P Z} end", "A"),
        # a local that shadows another of the same name
        ("local X in X = 1 local X in {Wait X} end end", "X"),
        # the innermost name of a variable that a shadowed one is bound to
        ("local X in local Y in Y = X local X in {Wait Y} end end end", "Y"),
        # a global
        ("X in {Wait X}", "X"),
        # of two names of one scope, the one still live: A was read for
        # the last time by B = A, which cleared its slot
        ("local A B in B = A {Wait B} end", "B"),
        # a thread's frame holds only the names its body uses
        ("local A B in B = A thread {Wait B} end end", "B"),
    ], ids=["parameter", "shadowed_local", "inner_name", "global",
            "same_scope", "same_scope_thread"])
    def test_deadlock_names_the_variable_as_the_source_does(
            self, capsys, tmp_path, program, name):
        f = write(tmp_path, "d.ozk", program)
        code, out, err = run_cli(capsys, "run", f)
        assert code == 2
        assert re.fullmatch(r"deadlock: thread \d+ waiting on %s\n" % name, err)

    @pytest.mark.parametrize("text, error", [
        ("local X in X = \u00b2 {Browse X} end",
         "line 1:16: unexpected character '\u00b2'"),
        ("local X in\n   X = 1\u0663 {Browse X}\nend",
         "line 2:9: unexpected character '\u0663'"),
    ], ids=["superscript_two", "arabic_indic_three"])
    def test_a_digit_that_is_not_ascii_is_a_syntax_error(self, capsys,
                                                         tmp_path, text,
                                                         error):
        f = write(tmp_path, "d.ozk", text)
        assert run_cli(capsys, "run", f) == (3, "", f"ozk: {error}\n")

    def test_a_name_may_hold_a_digit_that_is_not_ascii(self, capsys,
                                                       tmp_path):
        f = write(tmp_path, "d.ozk", "local X\u00b2 in X\u00b2 = 4 "
                  "{Browse X\u00b2} end")
        assert run_cli(capsys, "run", f) == (0, "4\n", "")

    def test_failure_exit_1(self, capsys, tmp_path):
        f = write(tmp_path, "f.ozk", "local X in X = 1 X = 2 end")
        code, out, err = run_cli(capsys, "run", f)
        assert code == 1
        assert "failed" in err

    def test_deep_term_browses(self, capsys, tmp_path):
        src = write(tmp_path, "deep.ozk",
                    "fun {Deep N} if N == 0 then leaf else f({Deep N-1}) end "
                    "end {Browse {Deep 5000}}")
        code, out, err = run_cli(capsys, "run", src)
        assert code == 0, err
        assert out == "f(" * 5000 + "leaf" + ")" * 5000 + "\n"

    def test_long_list_literal_runs(self, capsys, tmp_path):
        items = " ".join(str(i) for i in range(5000))
        src = write(tmp_path, "long.ozk",
                    "local Xs = [%s] in {Browse {Length Xs}} end" % items)
        code, out, err = run_cli(capsys, "run", src)
        assert (code, out, err) == (0, "5000\n", "")

    def test_long_bar_chain_runs(self, capsys, tmp_path):
        chain = "|".join(str(i) for i in range(3000))
        src = write(tmp_path, "bars.ozk",
                    "X = %s|nil {Browse {Length X}}" % chain)
        code, out, err = run_cli(capsys, "run", src)
        assert (code, out, err) == (0, "3000\n", "")

    def test_long_list_pattern_runs(self, capsys, tmp_path):
        items = " ".join(str(i) for i in range(3000))
        names = " ".join(f"A{i}" for i in range(3000))
        src = write(tmp_path, "pattern.ozk",
                    "X = [%s] case X of [%s] then {Browse A2999} end"
                    % (items, names))
        code, out, err = run_cli(capsys, "run", src)
        assert (code, out, err) == (0, "2999\n", "")
        code, out, err = run_cli(capsys, "dist-run", src)
        assert code == 0, err
        assert "  2999" in out.splitlines()

    def test_deep_nesting_is_a_syntax_error(self, capsys, tmp_path):
        src = write(tmp_path, "parens.ozk",
                    "X = " + "(" * 2000 + "1" + ")" * 2000 + " {Browse X}")
        code, out, err = run_cli(capsys, "run", src)
        assert (code, out) == (3, "")
        # one line, at the parenthesis that opens one level too many
        assert err == (f"ozk: line 1:{4 + MAX_NESTING}: nesting deeper "
                       f"than {MAX_NESTING} levels\n")

    def test_long_elsecase_chain_is_a_syntax_error(self, capsys, tmp_path):
        text = elsecase_chain(3000)
        src = write(tmp_path, "chain.ozk", text)
        code, out, err = run_cli(capsys, "run", src)
        assert (code, out) == (3, "")
        # Each link nests in the one before.  The first token past the
        # limit is the Browse of link k = MAX_NESTING-3, which sits under
        # the program's block, k links, the arm's block and the call.
        k = MAX_NESTING - 3
        col = text.index(f"{{Browse {k}}}") + 2
        assert err == (f"ozk: line 1:{col}: nesting deeper "
                       f"than {MAX_NESTING} levels\n")

    def test_elsecase_chain_within_the_limit_runs(self, capsys, tmp_path):
        src = write(tmp_path, "chain.ozk", elsecase_chain(90))
        code, out, err = run_cli(capsys, "run", src)
        assert (code, out, err) == (0, "89\n", "")

    def test_long_operator_chain_runs(self, capsys, tmp_path):
        # a left-leaning chain: ((1+1)+1)+...
        src = write(tmp_path, "chain.ozk",
                    "X = %s {Browse X}" % "+".join(["1"] * 3000))
        code, out, err = run_cli(capsys, "run", src)
        assert (code, out, err) == (0, "3000\n", "")

    def test_nesting_within_the_limit_runs(self, capsys, tmp_path):
        # conditional expressions nest the most Python calls per level
        depth = MAX_NESTING - 5
        src = write(tmp_path, "ifs.ozk",
                    "X = " + "if true then " * depth + "1"
                    + " else 0 end" * depth + " {Browse X}")
        code, out, err = run_cli(capsys, "run", src)
        assert (code, out, err) == (0, "1\n", "")

    def test_parse_error_exit_3(self, capsys, tmp_path):
        f = write(tmp_path, "b.ozk", "local X in X =")
        code, out, err = run_cli(capsys, "run", f)
        assert code == 3
        assert "line" in err

    def test_missing_file_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "run", "/no/such/file.ozk")
        assert code == 3
        assert "cannot read" in err

    def test_step_budget_exit_1(self, capsys, tmp_path):
        f = write(tmp_path, "loop.ozk", "proc {Loop} {Loop} end {Loop}")
        code, out, err = run_cli(capsys, "run", f, "--max-steps", "1000")
        assert code == 1
        assert "step budget" in err

    def test_prolog_file_with_query(self, capsys, tmp_path):
        f = write(tmp_path, "fam.pl", (PROGRAMS / "family.pl").read_text())
        code, out, err = run_cli(capsys, "run", f, "--query",
                                 "grandfather(terach, G)")
        assert (code, out) == (0, "[isaac]\n")

    # A refusal of the translation names the line of the clause it is in.
    @pytest.mark.parametrize("clause, refusal", [
        ("p(L) :- bagof(X, assert(X), L).", "assert is outside the subset"),
        ("p(X) :- X is 2 ^ 3.", "^(2, 3) is not arithmetic"),
        ("p(X) :- r(X).", "unknown predicate r/1"),
        ("p(L) :- bagof(X, f(a)^q(X), L).", "f(a) cannot be ^-quantified"),
    ])
    def test_prolog_refusal_names_the_clause_line(self, capsys, tmp_path,
                                                 clause, refusal):
        f = write(tmp_path, "bad.pl", f"q(1).\n{clause}\n")
        code, out, err = run_cli(capsys, "run", f, "--query", "p(X)")
        assert code == 3
        assert f"line 2: {refusal}" in err

    def test_query_rejected_for_kernel_file(self, capsys, tmp_path):
        f = write(tmp_path, "p.ozk", "skip")
        code, out, err = run_cli(capsys, "run", f, "--query", "foo(X)")
        assert code == 3

    def test_no_prelude_drops_library_names(self, capsys, tmp_path):
        src = "local Ys in Ys = {Take [1 2 3] 2} {Browse Ys} end"
        f = write(tmp_path, "t.ozk", src)
        assert run_cli(capsys, "run", f)[0] == 0
        code, out, err = run_cli(capsys, "run", f, "--no-prelude")
        assert code == 3 and "Take" in err  # now an unknown name

    def test_sched_trace_on_stderr(self, capsys, tmp_path):
        f = write(tmp_path, "p.ozk", "thread {Browse 1} end {Browse 2}")
        code, out, err = run_cli(capsys, "run", f, "--trace", "sched")
        assert code == 0
        assert "sched spawn" in err
        assert all(line in ("1", "2") for line in out.splitlines())

    def test_real_time_prints_what_virtual_time_does(self, capsys, tmp_path,
                                                     monkeypatch):
        slept = []
        monkeypatch.setattr("ozk.runtime._time.sleep", slept.append)
        f = write(tmp_path, "d.ozk", "thread {Delay 30} {Browse a} end\n"
                  "thread {Delay 50} {Browse b} end\n")
        virtual = run_cli(capsys, "run", f)
        assert virtual == (0, "a\nb\n", "") and slept == []
        assert run_cli(capsys, "run", f, "--real-time") == virtual
        assert sum(slept) == pytest.approx(0.05)


# -- translate ---------------------------------------------------------------


class TestTranslate:
    def test_father_facts_become_choice_proc(self, capsys):
        code, out, err = run_cli(capsys, "translate",
                                 str(PROGRAMS / "family.pl"))
        assert code == 0
        flat = " ".join(out.split())
        assert "proc {Father A1 A2}" in flat
        assert "choice A1=terach A2=abraham []" in flat

    def test_output_reparses(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "translate",
                                 str(PROGRAMS / "queens.pl"))
        assert code == 0
        f = write(tmp_path, "rt.ozk", out + (
            "\n{Browse {SolveOne fun {$} Qs in {Queens 8 Qs} Qs end}}"))
        code2, out2, err2 = run_cli(capsys, "run", f)
        assert (code2, out2) == (0, "[%s]\n" % fmt_solution(QUEENS8_FIRST))

    def test_empty_file_empty_output(self, capsys, tmp_path):
        f = write(tmp_path, "e.pl", "  % nothing here\n")
        assert run_cli(capsys, "translate", f) == (0, "", "")

    def test_assert_rejected(self, capsys, tmp_path):
        f = write(tmp_path, "a.pl", "p(X) :- assert(q(X)).")
        code, out, err = run_cli(capsys, "translate", f)
        assert code == 3
        assert "assert" in err

    def test_query_block_all_solutions(self, capsys, tmp_path):
        f = write(tmp_path, "fam.pl", (PROGRAMS / "family.pl").read_text())
        code, out, err = run_cli(capsys, "translate", f,
                                 "--query", "father(haran, K)", "--all")
        assert code == 0
        assert "SolveAll" in out
        g = write(tmp_path, "g.ozk", out)
        code2, out2, err2 = run_cli(capsys, "run", g)
        assert (code2, out2) == (0, "[milcah yiscah]\n")


# -- dist-run ----------------------------------------------------------------


class TestDistRun:
    def test_two_node_stream(self, capsys):
        code, out, err = run_cli(capsys, "dist-run",
                                 str(PROGRAMS / "dist_gen_map.ozk"),
                                 "--placement", "a=0,b=1")
        assert code == 0
        assert "status: done" in out
        assert "[1 4 9 16 25 36 49 64 81 100]" in out

    def test_net_trace_lines_on_stdout(self, capsys):
        code, out, err = run_cli(capsys, "dist-run",
                                 str(PROGRAMS / "dist_rational.ozk"),
                                 "--placement", "a=0,b=1", "--trace", "net")
        assert code == 0
        kinds = "Register|BindRequest|BindNotify|UnifyVarVar"
        trace = [l for l in out.splitlines()
                 if re.fullmatch(r"\d+ \d+ (%s) v\d+\.\d+" % kinds, l)]
        assert trace, out

    def test_bad_placement_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "dist-run",
                                 str(PROGRAMS / "dist_gen_map.ozk"),
                                 "--placement", "a=zero")
        assert code == 3

    def test_deadlock_exit_2(self, capsys, tmp_path):
        f = write(tmp_path, "d.ozk",
                  "local X Y in thread Y = X + 1 end end")
        code, out, err = run_cli(capsys, "dist-run", f)
        assert code == 2
        assert "status: deadlock" in out

    def test_prolog_file_rejected(self, capsys):
        code, out, err = run_cli(capsys, "dist-run",
                                 str(PROGRAMS / "family.pl"))
        assert code == 3

    def test_long_list_literal_runs(self, capsys, tmp_path):
        items = " ".join(str(i) for i in range(5000))
        src = write(tmp_path, "long.ozk",
                    "Xs = [%s] thread {Browse {Length Xs}} end" % items)
        code, out, err = run_cli(capsys, "dist-run", src,
                                 "--placement", "a=0")
        assert code == 0, err
        assert "  5000" in out.splitlines()

    def test_long_operator_chain_runs(self, capsys, tmp_path):
        src = write(tmp_path, "chain.ozk",
                    "X = %s thread {Wait X} {Browse X} end"
                    % "+".join(["1"] * 3000))
        code, out, err = run_cli(capsys, "dist-run", src,
                                 "--placement", "a=1")
        assert code == 0, err
        assert "  3000" in out.splitlines()

    def test_long_thread_body_runs(self, capsys, tmp_path):
        body = "\n".join("{Browse %d}" % i for i in range(3000))
        src = write(tmp_path, "body.ozk", "thread\n%s\nend" % body)
        code, out, err = run_cli(capsys, "dist-run", src)
        assert code == 0, err
        lines = out.splitlines()
        assert [l for l in lines if l.startswith("  ")] == \
            ["  %d" % i for i in range(3000)]


# -- repl --------------------------------------------------------------------


class TestRepl:
    def test_bind_then_browse(self, capsys, monkeypatch):
        code, out = repl(capsys, monkeypatch, ["X = 1", "{Browse X}"])
        assert code == 0
        assert out == ["1"]

    def test_multiline_statement(self, capsys, monkeypatch):
        code, out = repl(capsys, monkeypatch,
                         ["local X in", "   X = 7", "   {Browse X}", "end"])
        assert out == ["7"]

    def test_solve_and_next(self, capsys, monkeypatch):
        code, out = repl(capsys, monkeypatch, [
            "proc {Pick X} choice X = red [] X = green [] X = blue end end",
            ":solve {Pick $}", ":next", ":next", ":next", ":next"])
        assert out == ["red", "green", "blue",
                       "no more solutions", "no more solutions"]

    def test_solve_queens_first_two(self, capsys, monkeypatch):
        code, out = repl(capsys, monkeypatch,
                         [QUEENS_FUN, ":solve {Queens 8}", ":next"])
        assert out[0] == fmt_solution(QUEENS8_FIRST)
        second = [int(n) for n in out[1].strip("[]").split()]
        assert second in queens_brute(8) and second != QUEENS8_FIRST

    def test_solve_goal_binding_a_later_outside_variable_escapes(
            self, capsys, monkeypatch):
        # X = f(_) makes its variable after the engine: the engine does not
        # own it, and the next answer would bind it
        code, out = repl(capsys, monkeypatch, [
            "X in skip",
            "proc {G R} choice R = a [] case X of f(Y) then Y = 1 R = Y end end end",
            ":solve {G}", "X = f(_)", ":next"])
        assert out == ["a",
                       "** search tried to bind a variable from outside the engine"]

    def test_solve_out_of_steps_keeps_the_session(self, capsys, monkeypatch):
        code, out = repl(capsys, monkeypatch, [
            "proc {Loop X} {Loop X} end", ":solve {Loop}", ":next"],
            "--max-steps", "20000")
        assert code == 0
        assert out == ["** stopped: step budget exhausted", "no current :solve"]

    def test_each_chunk_and_solve_has_its_own_step_budget(
            self, capsys, monkeypatch):
        code, out = repl(capsys, monkeypatch, [
            "proc {Loop X} {Loop X} end", ":solve {Loop}", "{Browse 1}"],
            "--max-steps", "20000")
        assert code == 0
        assert out == ["** stopped: step budget exhausted", "1"]

    def test_next_without_solve(self, capsys, monkeypatch):
        code, out = repl(capsys, monkeypatch, [":next"])
        assert out == ["no current :solve"]

    def test_session_survives_bad_input(self, capsys, monkeypatch):
        code, out = repl(capsys, monkeypatch, [
            "this is not a statement )", "X = ok", "{Browse X}"])
        assert code == 0
        assert out[-1] == "ok"
        assert any("parse error" in line for line in out)

    def test_an_undeclared_name_is_reported_once_its_chunk_ends(
            self, capsys, monkeypatch):
        code, out = repl(capsys, monkeypatch, [
            "local X in {Browse Y}", "   {Browse X}", "end", "{Browse 2}"])
        assert code == 0
        assert out == ["** parse error: line 1:20: undeclared variable Y", "2"]

    def test_a_chunk_cut_short_by_the_end_of_input_is_reported(
            self, capsys, monkeypatch):
        code, out = repl(capsys, monkeypatch, ["{Browse 1}",
                                               "local X in {Browse X}"])
        assert code == 0
        assert out == ["1", "** parse error: line 1:22: expected 'end', "
                       "found end of input"]

    def test_session_survives_failure(self, capsys, monkeypatch):
        code, out = repl(capsys, monkeypatch, [
            "X = 1", "X = 2", "{Browse X}"])
        assert any("failed" in line for line in out)
        assert out[-1] == "1"

    def test_blocked_input_reported(self, capsys, monkeypatch):
        code, out = repl(capsys, monkeypatch, ["local A B in A = B + 1 end"])
        assert any("blocked" in line and "waiting on B" in line
                   for line in out)

    def test_unknown_meta_command(self, capsys, monkeypatch):
        code, out = repl(capsys, monkeypatch, [":frobnicate"])
        assert any("unknown command" in line for line in out)

    def test_quit_stops_reading(self, capsys, monkeypatch):
        code, out = repl(capsys, monkeypatch, [":quit", "{Browse 1}"])
        assert code == 0
        assert out == []


# -- the step budget ---------------------------------------------------------


class TestStepBudget:
    """``--max-steps`` is the budget of the user's own run: the prelude
    (8 reductions) runs before it applies, so a budget below that stops
    the program with the command's diagnostic, not the session's set-up
    with a traceback.  An exception escaping ``main`` fails these tests."""

    PROGRAM = "thread {Browse 1} end"

    def test_run(self, capsys, tmp_path):
        f = write(tmp_path, "t.ozk", self.PROGRAM)
        assert run_cli(capsys, "run", f, "--max-steps", "0") == (
            1, "", "stopped: step budget exhausted before the program "
            "finished\n")
        assert run_cli(capsys, "run", f, "--max-steps", "5") == (0, "1\n", "")

    def test_dist_run(self, capsys, tmp_path):
        f = write(tmp_path, "t.ozk", self.PROGRAM)
        code, out, err = run_cli(capsys, "dist-run", f, "--max-steps", "0")
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert lines[0].startswith("status: limit ")
        assert lines[-1] == ("failure: did not reach quiescence within the "
                             "step budget")
        code, out, err = run_cli(capsys, "dist-run", f, "--max-steps", "5")
        assert (code, err) == (0, "")
        assert "  1" in out.splitlines()

    def test_repl(self, capsys, monkeypatch):
        # the session goes on after a stopped chunk, and exits 0
        assert repl(capsys, monkeypatch, [self.PROGRAM], "--max-steps",
                    "0") == (0, ["** stopped: step budget exhausted"])
        assert repl(capsys, monkeypatch, [self.PROGRAM], "--max-steps",
                    "5") == (0, ["1"])


# -- usage and determinism ----------------------------------------------------


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 3

    def test_unknown_command(self, capsys):
        assert main(["frob"]) == 3

    def test_unknown_flag(self, capsys):
        assert main(["run", "x.ozk", "--frob"]) == 3

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert out.endswith(EXIT_CODES)
        # one line per run status, with the code a run of it exits with
        codes = {status: int(code) for code, status in
                 re.findall(r"^  (\d)  (\w+) ", EXIT_CODES, re.M)}
        assert codes == {**_STATUS_EXIT, "usage": EXIT_USAGE}


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("run", str(PROGRAMS / "gen_map.ozk")),
        ("run", str(PROGRAMS / "queens.ozk"),
         "--sched-policy", "random", "--sched-seed", "11"),
        ("dist-run", str(PROGRAMS / "dist_gen_map.ozk"),
         "--placement", "a=0,b=1", "--net-seed", "7", "--trace", "net"),
    ])
    def test_repeated_runs_byte_identical(self, capsys, argv):
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1

    # Runs in one process share one string-hash order; these runs do not.
    @pytest.mark.parametrize("argv", [
        ("run", str(PROGRAMS / "gen_map.ozk")),
        ("run", str(PROGRAMS / "queens.pl"), "--query", "queens(6, Qs)"),
        ("dist-run", str(PROGRAMS / "dist_gen_map.ozk"),
         "--placement", "a=0,b=1", "--net-seed", "7", "--trace", "all"),
        ("run", "deadlock.ozk"),
    ], ids=["gen_map", "queens_pl", "dist_gen_map", "deadlock"])
    def test_output_independent_of_hash_seed(self, tmp_path, argv):
        (tmp_path / "deadlock.ozk").write_text(
            "local X Y Z in thread Y = X + 1 end thread Z = Y + X end end")
        path = os.environ.get("PYTHONPATH")
        outcomes = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(
                           [str(ROOT / "src")] + ([path] if path else [])))
            proc = subprocess.run([sys.executable, "-m", "ozk.cli", *argv],
                                  cwd=tmp_path, env=env, capture_output=True,
                                  timeout=120)
            outcomes.append((proc.returncode, proc.stdout, proc.stderr))
        assert outcomes[0] == outcomes[1]
        code, out, err = outcomes[0]
        assert code in (0, 2) and out + err, err


class TestDocsPrograms:
    @pytest.mark.parametrize("program", sorted(PROGRAMS.glob("*")),
                             ids=lambda p: p.name)
    def test_runs_clean(self, capsys, program):
        code, out, err = run_cli(capsys, "run", str(program))
        assert code == 0, err
        if program.suffix == ".ozk":
            # the same lines under other schedules
            for seed in ("1", "2", "3"):
                code, rand_out, err = run_cli(
                    capsys, "run", str(program),
                    "--sched-policy", "random", "--sched-seed", seed)
                assert code == 0, err
                assert sorted(rand_out.splitlines()) == sorted(out.splitlines())
            # Two nodes, as far as the program has threads to place.
            native = make_builtins()
            _, _, threads = split_program(program.read_text(),
                                          tuple(native) + PRELUDE_NAMES)
            placement = ",".join(["a=0", "b=1"][:len(threads)])
            code, dist_out, err = run_cli(capsys, "dist-run", str(program),
                                          "--placement", placement)
            assert code == 0, err
            # the same lines are browsed, whichever node browses them
            browsed = [l[2:] for l in dist_out.splitlines()
                       if l.startswith("  ")]
            assert sorted(browsed) == sorted(out.splitlines())
