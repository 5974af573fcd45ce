"""Workload inputs and their oracles, generated from the workload seed.

Pure Python: nothing here imports ozk, so the set-up probe can build a
workload's inputs before it starts its clock, and every expected answer
is computed independently of the system under test.

Sizes are fixed per workload; the seed only picks constants (and, for
``dist_stream``, the network's shuffle seed).  Every seed therefore asks
for the same amount of work, which keeps runs with different seeds
comparable.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass

WORKLOADS = ("search_queens", "dataflow", "dist_stream", "repl_session")

# Per-workload sizes.  SIZES is what the benchmark measures; TINY is for
# the smoke test and says nothing about speed.
SIZES = {
    "search_queens": {"n": 8},
    "dataflow": {"cells": 2000},
    "dist_stream": {"cells": 300},
    "repl_session": {"chunks": 2000},
}
TINY = {
    "search_queens": {"n": 5},
    "dataflow": {"cells": 40},
    "dist_stream": {"cells": 10},
    "repl_session": {"chunks": 30},
}


def render_int(v: int) -> str:
    """How ozk's Browse prints an integer."""
    return str(v) if v >= 0 else f"~{-v}"


# -- search_queens ------------------------------------------------------------

# Copies of docs/programs/queens.ozk (with SolveAll in place of SolveOne)
# and docs/programs/queens.pl, held here so that editing the examples
# cannot change what the benchmark measures.
QUEENS_OZK = """
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

{Browse {SolveAll fun {$} {Queens %(n)d} end}}
"""

QUEENS_PL = """
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


def queens_solutions(n: int) -> frozenset:
    """Every placement of n non-attacking queens, by brute force: entry i
    is the column of the queen in row i."""
    return frozenset(
        p for p in itertools.permutations(range(1, n + 1))
        if len({p[i] + i for i in range(n)}) == n
        and len({p[i] - i for i in range(n)}) == n)


_ROW = re.compile(r"\[([0-9 ]+)\]")


def parse_solution_list(text: str) -> list:
    """Browse text of a list of integer lists -> list of tuples."""
    return [tuple(int(x) for x in m.split()) for m in _ROW.findall(text)]


@dataclass(frozen=True)
class QueensInputs:
    n: int
    ozk_program: str
    pl_program: str
    pl_query: str
    expected: frozenset


def queens_inputs(seed: int, n: int) -> QueensInputs:
    # The problem is fixed: the seed has nothing to vary that would keep
    # the work the same, so it is accepted and ignored.
    return QueensInputs(n, QUEENS_OZK % {"n": n}, QUEENS_PL,
                        f"queens({n}, Qs)", queens_solutions(n))


# -- dataflow -----------------------------------------------------------------

DATAFLOW = """
proc {Gen I N Xs}
   if I > N then Xs = nil
   else Xr in
      Xs = I|Xr
      {Delay 1}
      {Gen I+1 N Xr}
   end
end
fun {Scale X} X*%(a)d+%(b)d end
fun {Sum Xs Acc}
   case Xs of nil then Acc
   [] X|Xr then {Sum Xr Acc+X} end
end
proc {Spawn I N Rs}
   if I > N then Rs = nil
   else R Rr in
      Rs = R|Rr
      thread R = I*%(c)d+%(d)d end
      {Spawn I+1 N Rr}
   end
end
fun lazy {Ints N} N|{Ints N+1} end
local Xs Ys Rs S1 S2 S3 in
   thread {Gen 1 %(n)d Xs} end
   thread Ys = {Map Xs Scale} S1 = {Sum Ys 0} end
   thread {Spawn 1 %(n)d Rs} S2 = {Sum Rs 0} end
   thread S3 = {Sum {Take {Ints %(k)d} %(n)d} 0} end
   {Wait S1} {Wait S2} {Wait S3}
   {Browse r(S1 S2 S3)}
end
"""


@dataclass(frozen=True)
class DataflowInputs:
    cells: int            # per part: stream cells, workers and lazy cells
    program: str
    expected: str


def dataflow_inputs(seed: int, cells: int) -> DataflowInputs:
    rng = random.Random(f"dataflow/{seed}")
    a, b, c, d, k = (rng.randint(1, 99) for _ in range(5))
    n = cells
    tri = n * (n + 1) // 2
    s1 = a * tri + b * n                       # sum of a*i+b, i = 1..n
    s2 = c * tri + d * n                       # sum of c*i+d, i = 1..n
    s3 = k * n + n * (n - 1) // 2              # sum of k+j, j = 0..n-1
    program = DATAFLOW % {"a": a, "b": b, "c": c, "d": d, "k": k, "n": n}
    expected = f"r({render_int(s1)} {render_int(s2)} {render_int(s3)})"
    return DataflowInputs(cells, program, expected)


# -- dist_stream ----------------------------------------------------------------

DIST_GEN_MAP = """
proc {Gen I N Xs}
   if I > N then Xs = nil
   else Xr in
      Xs = I|Xr
      {Delay 10}
      {Gen I+1 N Xr}
   end
end

fun {Scale X} X*%(a)d+%(b)d end

local Xs Ys in
   thread {Gen 1 %(n)d Xs} end
   thread
      Ys = {Map Xs Scale}
      {WaitList Ys}
      {Browse Ys}
   end
end
"""


@dataclass(frozen=True)
class DistInputs:
    cells: int
    program: str
    placement: dict       # thread name -> node id
    net_seed: int         # seed of the shuffled run
    expected: str         # the consumer's Browse line


def dist_inputs(seed: int, cells: int) -> DistInputs:
    rng = random.Random(f"dist_stream/{seed}")
    a, b = rng.randint(1, 99), rng.randint(1, 99)
    net_seed = rng.randrange(2**31)
    program = DIST_GEN_MAP % {"a": a, "b": b, "n": cells}
    expected = "[" + " ".join(render_int(a * i + b)
                              for i in range(1, cells + 1)) + "]"
    return DistInputs(cells, program, {"a": 0, "b": 1}, net_seed, expected)


# -- repl_session -----------------------------------------------------------------

# Chunk shapes.  Each defines one new function and browses one query; the
# last one calls a function defined earlier in the same session, so
# lookups cross a global frame that grows as the session goes on.
AFFINE, FOLD, COUNT, MAP, REUSE = range(5)


@dataclass(frozen=True)
class ChunkSpec:
    shape: int
    a: int
    b: int
    args: tuple
    callee: int           # index of the chunk whose function REUSE calls


@dataclass(frozen=True)
class ReplInputs:
    chunks: int           # chunks fed to one session
    specs: tuple

    def chunk(self, session_no: int, i: int) -> tuple[str, str]:
        """Text of chunk i of session ``session_no``, and its expected
        Browse line.  Names carry the session number, so no two chunks
        of a run share a text, while every session does the same work."""
        s = self.specs[i]
        name = f"F{session_no}x{i}"
        if s.shape == AFFINE:
            c, = s.args
            return (f"fun {{{name} X}} X*{s.a}+{s.b} end\n"
                    f"{{Browse {{{name} {c}}}}}\n",
                    render_int(c * s.a + s.b))
        if s.shape == FOLD:
            items = " ".join(str(x) for x in s.args)
            return (f"fun {{{name} Xs}}\n"
                    f"   case Xs of nil then 0\n"
                    f"   [] X|Xr then X*{s.a}+{{{name} Xr}} end\n"
                    f"end\n"
                    f"{{Browse {{{name} [{items}]}}}}\n",
                    render_int(s.a * sum(s.args)))
        if s.shape == COUNT:
            c, = s.args
            return (f"fun {{{name} N}}\n"
                    f"   if N==0 then {s.b} else {s.a}+{{{name} N-1}} end\n"
                    f"end\n"
                    f"{{Browse {{{name} {c}}}}}\n",
                    render_int(s.a * c + s.b))
        if s.shape == MAP:
            items = " ".join(str(x) for x in s.args)
            return (f"fun {{{name} X}} X+{s.a} end\n"
                    f"{{Browse {{Map [{items}] {name}}}}}\n",
                    "[" + " ".join(render_int(x + s.a) for x in s.args) + "]")
        callee = f"F{session_no}x{s.callee}"
        c, = s.args
        return (f"fun {{{name} X}} {{{callee} X}}+{s.a} end\n"
                f"{{Browse {{{name} {c}}}}}\n",
                render_int(self.value(s.callee, c) + s.a))

    def value(self, i: int, x: int) -> int:
        """The integer function chunk i defines, applied to x."""
        s = self.specs[i]
        if s.shape in (AFFINE, COUNT):
            return x * s.a + s.b
        if s.shape == REUSE:
            return self.value(s.callee, x) + s.a
        raise ValueError(f"chunk {i} does not define an integer function")


def repl_inputs(seed: int, chunks: int) -> ReplInputs:
    rng = random.Random(f"repl_session/{seed}")
    specs = []
    unary: list[int] = []            # chunks that define int -> int
    for i in range(chunks):
        shape = rng.randrange(5)
        if shape == REUSE and not unary:
            shape = AFFINE
        a, b = rng.randint(1, 9), rng.randint(1, 99)
        if shape == FOLD:
            args = tuple(rng.randint(1, 99) for _ in range(rng.randint(2, 6)))
        elif shape == MAP:
            args = tuple(rng.randint(1, 99) for _ in range(rng.randint(2, 4)))
        else:
            args = (rng.randint(1, 12),)
        callee = rng.choice(unary) if shape == REUSE else -1
        specs.append(ChunkSpec(shape, a, b, args, callee))
        if shape in (AFFINE, COUNT, REUSE):
            unary.append(i)
    return ReplInputs(chunks, tuple(specs))


def make_inputs(workload: str, seed: int, sizes: dict = SIZES):
    size = sizes[workload]
    if workload == "search_queens":
        return queens_inputs(seed, **size)
    if workload == "dataflow":
        return dataflow_inputs(seed, **size)
    if workload == "dist_stream":
        return dist_inputs(seed, **size)
    if workload == "repl_session":
        return repl_inputs(seed, **size)
    raise ValueError(f"unknown workload {workload!r}")
