"""Safe-for-space frames: a thread clears each slot after its last read.

* Clearing changes no outcome: every example program, and every
  translation of the Prolog equivalence corpus, prints the same with
  the clears as with every clear emptied, under FIFO, five scheduling
  seeds and two nodes.
* A frame that stays live keeps no stream it has handed on: while a lazy
  stream is consumed, the live compounds stay a small constant.
* The other two memory bounds: ended threads leave nothing behind, and a
  long interactive session grows by a small constant per chunk.
"""

from __future__ import annotations

import contextlib
import gc
import io
from pathlib import Path

import pytest

from ozk import builtins as ozk_builtins
from ozk import compiler, dist, interp
from ozk.cli import main
from ozk.compiler import Body, Case, Choice, Fail, If, Skip, compile_top
from ozk.interp import Session
from ozk.prolog import parse_prolog, translate_query_source, translate_source
from ozk.runtime import Task
from ozk.search import Engine
from ozk.terms import Compound, NativeProc
from test_golden import _placement
from test_prolog import EQUIVALENCE_CORPUS

PROGRAMS = Path(__file__).resolve().parent.parent / "docs" / "programs"

# -- clearing changes no outcome ------------------------------------------------


def empty_clears(code: compiler.Code) -> compiler.Code:
    """Empty every clear of ``code`` and of the codes it defines, in place,
    so that its frames keep each value until the frame dies."""
    work = [code.body]
    while work:
        ins = work.pop()
        kind = type(ins)
        if kind is Body:
            work += ins.pushed
        elif kind is Choice:
            for alt in ins.alts:
                work += alt.head
                work += alt.pushed
        elif kind is Case:
            ins.else_clear = ()
            ins.arms = tuple([(p, b, ()) for p, b, _ in ins.arms])
            work += [b for _, b, _ in ins.arms]
            work.append(ins.otherwise)
        elif kind is If:
            ins.else_clear = ()
            for arm in ins.arms:
                arm.clear = ()
                work += (arm.guard, arm.body)
            work.append(ins.otherwise)
        elif kind is not Skip and kind is not Fail:
            ins.clear = ()
            if kind is compiler.Proc or kind is compiler.Thread:
                work.append(ins.code.body)
    return code


@contextlib.contextmanager
def no_clears():
    """Within it, everything compiled has every clear emptied: each chunk a
    session or a network compiles, the prelude among them.  (The trigger
    body behind lazy ``Solve``, ``_SOLVE_NEXT``, is one call and has no
    clear.)  The compile caches are emptied on the way in and out, so no
    code crosses the boundary."""
    saved = dict(interp._PARSES)

    def compile_empty(stmt):
        return empty_clears(compile_top(stmt))

    interp._PARSES.clear()
    dist._compiled_pieces.cache_clear()
    interp.compile_top = dist.compile_top = compile_empty
    try:
        yield
    finally:
        interp.compile_top = dist.compile_top = compile_top
        interp._PARSES.clear()
        interp._PARSES.update(saved)
        dist._compiled_pieces.cache_clear()


def outcome(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def command_lines(path: Path, placement: str) -> list:
    """The command lines each program is compared under."""
    out = [["run", str(path)]]
    out += [["run", str(path), "--sched-policy", "random", "--sched-seed",
             str(seed)] for seed in range(5)]
    out.append(["dist-run", str(path), "--placement", placement])
    return out


def assert_clears_change_nothing(path: Path, placement: str) -> None:
    for argv in command_lines(path, placement):
        cleared = outcome(argv)
        with no_clears():
            kept = outcome(argv)
        assert cleared == kept, argv
        assert cleared[0] == 0, (argv, cleared)


def test_no_clears_empties_and_restores():
    text = "local X Y in X = 1 Y = X + 1 {Browse Y} end"

    def op_clear():
        Session().feed(text)
        body = interp._PARSES[text][2][0].body
        op, = [ins for ins in body.pushed if type(ins) is compiler.Op]
        return op.clear

    with no_clears():
        assert op_clear() == ()
    # Y = X + 1 is the last read of X, which is the local's first slot
    assert op_clear() == (1,)
    assert interp.compile_top is dist.compile_top is compile_top
    # the lazy Solve trigger's one statement is the last of its frame
    assert ozk_builtins._SOLVE_NEXT.body.clear == ()


@pytest.mark.parametrize("path", sorted(PROGRAMS.glob("*.ozk")),
                         ids=lambda p: p.name)
def test_clearing_changes_no_program_outcome(path):
    assert_clears_change_nothing(path, _placement(path))


@pytest.mark.parametrize("program, query", EQUIVALENCE_CORPUS,
                         ids=[q for _p, q in EQUIVALENCE_CORPUS])
def test_clearing_changes_no_translation_outcome(tmp_path, program, query):
    kernel = translate_source(program) + "\n" + translate_query_source(
        query, parse_prolog(program), all_solutions=True)
    path = tmp_path / "q.ozk"
    path.write_text(kernel)
    assert_clears_change_nothing(path, "")


# The first guard's, and the first alternative's, last read of Xs on its
# own path completes before that path fails, and the next arm (or
# alternative) reads Xs again: a guard and an engine must not clear.
SHARED_FRAME = """
proc {P Xs R}
   if H T in Xs = H|T H = 2 then R = two(T)
   elseif H T in Xs = H|T then R = other(H)
   else R = none end
end
fun {Pick Xs}
   Y in
   choice Z in skip Z = Xs Z = 2|_ Y = two [] Y = other(Xs) end
   Y
end
local R1 R2 in
   {P [1 2] R1} {P nil R2}
   {Browse r(R1 R2 {SolveAll proc {$ Y} Y = {Pick [1]} end})}
end
"""


def test_guards_and_engines_leave_the_frame_whole(tmp_path):
    path = tmp_path / "shared.ozk"
    path.write_text(SHARED_FRAME)
    assert outcome(["run", str(path)]) == (0, "r(other(1) none [other([1])])\n",
                                           "")
    assert_clears_change_nothing(path, "")


# -- a consumed stream is freed --------------------------------------------------

LAZY = "fun lazy {Ints N} N|{Ints N+1} end\n"
DROP = ("proc {DropR Xs N R}\n"
        "   case Xs of X|Xr then\n"
        "      if N==0 then R=X else {DropR Xr N-1 R} end\n"
        "   end\n"
        "end\n")

# The shapes of a frame that outlives the consumer of a lazy stream (A, B
# and F), and of one that does not (G).
STREAMS = {
    "A": LAZY + "{Browse {Nth {Ints 0} %d}}",
    "B": LAZY + "local Xs in Xs = {Ints 0} {Browse {Nth Xs %d}} end",
    "F": LAZY + DROP + "proc {Go N} R in {DropR {Ints 0} N R} {Browse R} end "
         "{Go %d}",
    "G": LAZY + DROP + "proc {Go N R} {DropR {Ints 0} N R} end "
         "local R in {Go %d R} {Browse R} end",
}


def live_compounds_at_browse(text: str) -> tuple:
    """Run ``text`` with a ``Browse`` that counts the live compounds of the
    whole process when it is called: ``(browsed lines, counts)``."""
    counts = []
    session = Session()

    def browse(task, args):
        gc.collect()
        counts.append(sum(1 for o in gc.get_objects() if type(o) is Compound))
        task.rt.browse(args[0])

    session.globals["Browse"] = NativeProc("Browse", 1, browse)
    result = session.feed(text)
    assert result.status == "done", result
    return result.browses, counts


@pytest.mark.parametrize("shape", sorted(STREAMS))
def test_a_consumed_stream_is_freed(shape):
    counts = {}
    for cells in (5000, 20000):
        browses, (count,) = live_compounds_at_browse(STREAMS[shape] % cells)
        assert browses == [str(cells if shape in "FG" else cells - 1)]
        counts[cells] = count
    # the stream's cells would be one compound each
    assert counts[5000] < 200 and counts[20000] < 200, counts
    assert abs(counts[20000] - counts[5000]) < 50, counts


# -- the other memory bounds -------------------------------------------------------


def test_ended_threads_leave_nothing():
    gc.collect()
    before = sum(1 for o in gc.get_objects() if type(o) is Task)
    session = Session()
    result = session.feed(
        "proc {Spawn I N} if I < N then thread {Wait I} end {Spawn I+1 N} "
        "end end {Spawn 0 10000}")
    assert result.status == "done", result
    assert session.rt.stats.spawned >= 10000
    assert session.rt.threads == {}
    gc.collect()
    after = sum(1 for o in gc.get_objects() if type(o) is Task)
    assert after <= before


def test_a_dropped_lazy_search_leaves_no_thread_or_engine():
    # Each cell of a lazy Solve list is a trigger on its variable: a list
    # that nothing reads further is freed with its engine, and parks no
    # idle thread.
    session = Session()
    session.feed("proc {Digit D} choice D = 1 [] D = 2 [] D = 3 end end")
    idle = []
    for i in range(2000):
        result = session.feed(f"local L in {{Solve fun {{$}} D in {{Digit D}} "
                              f"D+{i} end L}} {{Browse {{Nth L 2}}}} end")
        assert result.browses == [str(2 + i)], result
        idle += result.idle
    gc.collect()
    assert session.rt.threads == {}
    assert sum(1 for o in gc.get_objects() if type(o) is Engine) == 0
    assert idle == []


def test_a_long_session_grows_by_a_constant_per_chunk():
    session = Session()

    def feed(lo, hi):
        for i in range(lo, hi):
            result = session.feed(f"fun {{F{i} X}} X*{i % 7}+1 end\n"
                                  f"{{Browse {{F{i} {i % 11}}}}}\n")
            assert result.browses == [str((i % 11) * (i % 7) + 1)]

    def live_lists():
        gc.collect()
        return sum(1 for o in gc.get_objects() if type(o) is list)

    feed(0, 200)
    at_200 = live_lists()
    feed(200, 2200)
    at_2200 = live_lists()
    # each chunk's function keeps the list of its closure's captured
    # values, and nothing else of the chunk keeps a list
    assert at_2200 - at_200 <= 2000 + 20
