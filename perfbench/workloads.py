"""The four workloads, each driving ozk through its public API.

A workload object has three parts the runner calls in turn:

* ``setup()`` builds what a user builds before the first answer: a
  ``Session`` (the prelude is parsed and run) or a ``Simulation``'s nodes,
  and parses the workload's program once.  ``setup_s`` times this in a
  fresh process.
* ``op()`` is one timed operation.  It returns an ``Outcome``.
* ``check(outcome)`` compares the outcome with the oracle from
  ``programs`` and runs any costly consistency check, outside the timed
  region.  It returns the problems found and the items of work done.

Ops run in units of ``unit_ops``; ``begin_unit()`` runs untimed before
each unit.  Only ``repl_session`` has units longer than one op: a unit is
one whole session, because the session's length is part of the workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

# Module access (parser.parse_interactive, not a bare name) lets the
# tracer's wrappers see these calls too.
from ozk import parser, prolog
from ozk.dist import Simulation, replica_divergences
from ozk.interp import Session

import programs


@dataclass
class Outcome:
    results: list                     # RunResults or SimReports, in order
    reductions: int                   # the program's own reduction count
    runtimes: list = field(default_factory=list)   # for the traced state probes
    expected: object = None


class Workload:
    unit_ops = 1

    def __init__(self, inputs, on_trace=None):
        self.inputs = inputs
        self.on_trace = on_trace      # the runtime's trace callback, or None

    def begin_unit(self) -> None:
        pass


def _status_problems(label: str, result) -> list:
    if result.status != "done":
        return [f"{label}: status {result.status} {result.failures}"]
    return []


class SearchQueens(Workload):
    """All n-queens solutions, from the kernel program and from Prolog."""

    def _kernel_from_prolog(self) -> str:
        pl = self.inputs.pl_program
        query = prolog.translate_query_source(
            self.inputs.pl_query, prolog.parse_prolog(pl), all_solutions=True)
        return prolog.translate_source(pl) + "\n" + query

    def setup(self) -> None:
        session = Session(on_trace=self.on_trace)
        parser.parse_interactive(self.inputs.ozk_program, session.names())
        parser.parse_interactive(self._kernel_from_prolog(), session.names())

    def op(self) -> Outcome:
        results, runtimes = [], []
        for text in (self.inputs.ozk_program, self._kernel_from_prolog()):
            session = Session(on_trace=self.on_trace)
            results.append(session.feed(text))
            runtimes.append(session.rt)
        return Outcome(results, sum(rt.stats.reductions for rt in runtimes),
                       runtimes)

    def check(self, out: Outcome):
        problems, items = [], 0
        for label, result in zip(("queens.ozk", "queens.pl"), out.results):
            problems += _status_problems(label, result)
            if len(result.browses) != 1:
                problems.append(f"{label}: {len(result.browses)} browse lines")
                continue
            answers = programs.parse_solution_list(result.browses[0])
            if (len(answers) != len(self.inputs.expected)
                    or set(answers) != self.inputs.expected):
                problems.append(f"{label}: {len(answers)} answers differ "
                                f"from the {len(self.inputs.expected)} expected")
            else:
                items += len(answers)
        return problems, items


class Dataflow(Workload):
    """A delayed stream, thousands of worker threads and a lazy list."""

    def setup(self) -> None:
        session = Session(on_trace=self.on_trace)
        parser.parse_interactive(self.inputs.program, session.names())

    def op(self) -> Outcome:
        session = Session(on_trace=self.on_trace)
        result = session.feed(self.inputs.program)
        return Outcome([result], session.rt.stats.reductions, [session.rt])

    def check(self, out: Outcome):
        result, = out.results
        problems = _status_problems("dataflow", result)
        if result.browses != [self.inputs.expected]:
            problems.append(f"dataflow: got {result.browses}, expected "
                            f"{[self.inputs.expected]}")
        return problems, (0 if problems else 3 * self.inputs.cells)


class DistStream(Workload):
    """The gen/map stream on two nodes, in FIFO and shuffled order."""

    def __init__(self, inputs, on_trace=None):
        super().__init__(inputs, on_trace)
        self.replica_check_s: list = []   # one sample per checked op

    def _simulation(self, net_seed):
        on_trace = self.on_trace
        node_trace = (None if on_trace is None
                      else lambda node, kind, payload: on_trace(kind, payload))
        return Simulation(self.inputs.program, self.inputs.placement,
                          net_seed=net_seed, on_sched_trace=node_trace)

    def setup(self) -> None:
        self._simulation(None)

    def op(self) -> Outcome:
        reports = [self._simulation(seed).run()
                   for seed in (None, self.inputs.net_seed)]
        runtimes = [node.rt for rep in reports for node in rep.nodes]
        return Outcome(reports, sum(rt.stats.reductions for rt in runtimes),
                       runtimes)

    def check(self, out: Outcome):
        problems, items = [], 0
        want_cells = self.inputs.cells + 1
        consumer = self.inputs.placement["b"]
        check_s = 0.0
        for label, rep in zip(("fifo", "shuffled"), out.results):
            problems += _status_problems(label, rep)
            if rep.outputs.get(consumer) != [self.inputs.expected]:
                problems.append(f"{label}: consumer output differs")
            registers = rep.delivered["Register"]
            notifies = rep.delivered["BindNotify"]
            if not registers == notifies == want_cells:
                problems.append(f"{label}: delivered {registers} Register and "
                                f"{notifies} BindNotify, expected {want_cells}")
            t0 = perf_counter()
            divergences = replica_divergences(rep.nodes)
            check_s += perf_counter() - t0
            if divergences:
                problems.append(f"{label}: replicas diverge: {divergences[:3]}")
            items += rep.total_delivered
        self.replica_check_s.append(check_s)
        return problems, (0 if problems else items)


class ReplSession(Workload):
    """One long session fed distinct chunks; an op is one chunk."""

    def __init__(self, inputs, on_trace=None):
        super().__init__(inputs, on_trace)
        self.unit_ops = inputs.chunks
        self.session_no = 0
        self.session = None
        self.chunks: list = []

    def setup(self) -> None:
        session = Session(on_trace=self.on_trace)
        text, _ = self.inputs.chunk(0, 0)
        parser.parse_interactive(text, session.names())

    def begin_unit(self) -> None:
        self.session_no += 1
        self.chunks = [self.inputs.chunk(self.session_no, i)
                       for i in range(self.inputs.chunks)]
        self.chunks.reverse()             # op() pops from the end
        self.session = Session(on_trace=self.on_trace)

    def op(self) -> Outcome:
        text, want = self.chunks.pop()
        stats = self.session.rt.stats
        before = stats.reductions
        result = self.session.feed(text)
        return Outcome([result], stats.reductions - before,
                       [self.session.rt], want)

    def check(self, out: Outcome):
        result, = out.results
        problems = _status_problems("chunk", result)
        if result.browses != [out.expected]:
            problems.append(f"chunk: got {result.browses}, expected "
                            f"{[out.expected]}")
        return problems, (0 if problems else 1)


CLASSES = {
    "search_queens": SearchQueens,
    "dataflow": Dataflow,
    "dist_stream": DistStream,
    "repl_session": ReplSession,
}


def build(name: str, inputs, on_trace=None) -> Workload:
    return CLASSES[name](inputs, on_trace)
