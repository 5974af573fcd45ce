"""The ozk benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree: ozk is imported from ``src/`` next to
this directory, and the run fails (exit code 2, no result) when it is
not there.  Workloads (see ``programs.py`` and ``workloads.py``):

  search_queens  all n-queens solutions, from a kernel program with
                 SolveAll and from the Prolog program through the
                 translator; items are solutions
  dataflow       a delayed stream, one thread per list cell and a lazy
                 list in one program; items are list cells
  dist_stream    the gen/map stream on two nodes, FIFO and shuffled;
                 items are messages delivered
  repl_session   a long Session fed distinct chunks; items are chunks

Each workload runs alone in this process, on one thread, as a closed
loop: an op starts when the previous one has ended and been checked.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
fresh processes, see ``probe.py``), ``op_s_p50``, ``items_per_s`` and
``peak_rss_mib``.  Failed ops are the result's ``failed`` count; their
share is printed as ``error_rate``.  One unit of ops runs first, checked
but untimed, as a warm-up; ``peak_rss_mib`` is read after it, before the
first reference pass, whose memory would otherwise count in it.  The
timed ops follow.  The three times are scaled to a nominal host speed by
reference passes (see ``calibrate.py``): each op time by the passes run
between units of timed ops near it in time, each set-up time by a pass
in its own fresh process.  The raw wall times are printed beside them.

``--trace 1`` prints the per-layer metrics.  It traces the set-up and the
first unit of ops (counts are from these and repeat exactly for a seed),
then runs half the time untraced and half traced to give the tracing
overhead, and writes the recorded spans under ``.bench_build/perfbench/``.

The last line of standard output is the result as JSON; the lines before
it are the same figures for a reader.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calibrate
import programs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_build" / "perfbench"

SETUP_STARTS = 9

# The share of a calibrated run's time given to reference passes.  Passes
# run before the first unit and then between units, whenever the passes
# so far have taken less than this share of the time; so a run has about
# as many passes per second of ops whatever the length of its units.
CALIBRATION_SHARE = 0.2

ITEM_UNITS = {
    "search_queens": "solutions",
    "dataflow": "list cells",
    "dist_stream": "messages delivered",
    "repl_session": "chunks fed",
}

MESSAGE_KINDS = ("Register", "BindRequest", "BindNotify", "UnifyVarVar")


class MissingSource(Exception):
    pass


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them; ``kind`` is
    ``end_to_end`` or ``per_layer``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def import_workloads():
    """Import the workloads module, with ozk taken from ``src/``."""
    if not (SRC / "ozk" / "__init__.py").is_file():
        raise MissingSource(f"no ozk package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ozk
    if Path(ozk.__file__).resolve().parent != SRC / "ozk":
        raise MissingSource(f"ozk was imported from {ozk.__file__}, "
                            f"not from {SRC}")
    import workloads
    return workloads


# -- running ops -------------------------------------------------------------


@dataclass
class Phase:
    """What a stretch of ops did.  ``starts`` are the ops' start times;
    ``passes`` are the (start time, seconds) of the reference passes of a
    calibrated run."""
    times: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    passes: list = field(default_factory=list)
    items: int = 0
    reductions: int = 0
    attempted: int = 0
    failed: int = 0
    last: object = None               # the last Outcome, when kept


def run_units(wl, op, seconds=None, units=None, keep_last=False,
              tracer=None, calibrated=False) -> Phase:
    """Run whole units of ops, until ``units`` units have run or
    ``seconds`` of wall time have passed (at least one unit).  Each
    outcome is dropped once checked, so that an op's memory is not held
    through the next op, unless ``keep_last`` keeps the last one.  A
    ``tracer`` is paused while outputs are checked: the checks are the
    benchmark's, not the program's.  When ``calibrated``, the host's
    speed is measured every so often between units, outside the
    timing."""
    phase = Phase()
    start = perf_counter()
    done = 0
    while True:
        gc.collect()
        while calibrated and (not phase.passes or
                              sum(s for _, s in phase.passes)
                              < CALIBRATION_SHARE * (perf_counter() - start)):
            phase.passes.append((perf_counter(), calibrate.pass_seconds()))
        wl.begin_unit()
        for _ in range(wl.unit_ops):
            phase.attempted += 1
            t0 = perf_counter()
            phase.starts.append(t0)
            try:
                out = op()
            except Exception:         # the op failed; the run goes on
                phase.times.append(perf_counter() - t0)
                phase.failed += 1
                traceback.print_exc(limit=3, file=sys.stderr)
                continue
            phase.times.append(perf_counter() - t0)
            if tracer is not None:
                tracer.uninstall()
            try:
                problems, items = wl.check(out)
            finally:
                if tracer is not None:
                    tracer.install()
            if problems:
                phase.failed += 1
                print("op failed: " + "; ".join(problems), file=sys.stderr)
            phase.items += items
            phase.reductions += out.reductions
            if keep_last:
                phase.last = out
            del out
        done += 1
        if units is not None and done >= units:
            return phase
        if seconds is not None and perf_counter() - start >= seconds:
            return phase


def setup_seconds(name: str, seed: int) -> tuple:
    """Set-up time of one fresh process (see probe.py), as (raw seconds,
    seconds scaled to the nominal host)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), name, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    raw, scaled = proc.stdout.split()[-2:]
    return float(raw), float(scaled)


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values: list):
    """The highest of a few standard percentiles that has at least ten
    samples beyond it, as (percentile, value), or None."""
    ordered = sorted(values)
    for pct in (99.9, 99, 90, 75):
        beyond = len(ordered) * (100 - pct) / 100
        if beyond >= 10:
            return pct, ordered[min(len(ordered) - 1,
                                    int(len(ordered) * pct / 100))]
    return None


# -- the two kinds of run ----------------------------------------------------------


def untraced(workloads, name, seed, seconds, sizes, setup_starts):
    inputs = programs.make_inputs(name, seed, sizes)
    raw_setups, setups = zip(*(setup_seconds(name, seed)
                               for _ in range(setup_starts)))
    wl = workloads.build(name, inputs)
    wl.setup()
    warm = run_units(wl, wl.op, units=1)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ph = run_units(wl, wl.op, seconds=seconds, calibrated=True)
    attempted = warm.attempted + ph.attempted
    failed = warm.failed + ph.failed
    pass_s = statistics.median(s for _, s in ph.passes)
    times = [calibrate.scale(t, calibrate.pass_near(ph.passes, t0))
             for t, t0 in zip(ph.times, ph.starts)]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(times),
        "items_per_s": ph.items / sum(times),
        "peak_rss_mib": rss_mib,
    }
    q1, q2, q3 = quartiles(times)
    lines = [
        f"workload {name}  seed {seed}  ops {attempted} ({warm.attempted} "
        f"warm-up, {ph.attempted} timed)  failed {failed}",
        f"setup_s       {metrics['setup_s']:.4f} s  (median of "
        f"{len(setups)} fresh starts: "
        + " ".join(f"{s:.4f}" for s in setups) + "; raw wall median "
        f"{statistics.median(raw_setups):.4f} s)",
        f"op_s_p50      {q2:.6f} s  (p25 {q1:.6f}, p75 {q3:.6f}, "
        f"n={len(times)}; raw wall median "
        f"{statistics.median(ph.times):.6f} s)",
    ]
    tail = tail_percentile(times)
    if tail is not None:
        lines.append(f"op_s_p{tail[0]:g}      {tail[1]:.6f} s")
    lines += [
        f"items_per_s   {metrics['items_per_s']:.2f} 1/s  "
        f"({ITEM_UNITS[name]} per second, {ph.items} in "
        f"{sum(times):.3f} s of ops)",
        f"peak_rss_mib  {rss_mib:.1f} MiB  (after set-up and warm-up)",
        f"calibration   reference pass median {pass_s:.5f} s over "
        f"{len(ph.passes)} passes (nominal {calibrate.NOMINAL_PASS_S} s)",
        f"error_rate    {failed / attempted:.4f}  "
        f"({failed} of {attempted} ops)",
    ]
    return attempted, failed, metrics, lines


def runtime_state(runtimes: list) -> dict:
    """Sizes of what the runtimes still hold after the first unit."""
    return {
        "runtime.threads_retained":
            sum(len(getattr(rt, "threads", ())) for rt in runtimes),
        "runtime.bind_log_len":
            sum(len(getattr(rt, "bind_log", ())) for rt in runtimes),
        "terms.live_vars":
            sum(len(getattr(rt.store, "vars", ())) for rt in runtimes),
    }


def traced(workloads, name, seed, seconds, sizes, unit_of):
    from tracer import Tracer
    inputs = programs.make_inputs(name, seed, sizes)
    tracer = Tracer()
    tracer.install()
    wl = workloads.build(name, inputs, on_trace=tracer.sched_event)
    traced_op = tracer.span("bench.op", wl.op)
    tracer.span("bench.setup", wl.setup)()
    first = run_units(wl, traced_op, units=1, keep_last=True,
                      tracer=tracer)
    state = runtime_state(first.last.runtimes if first.last else [])
    c = Counter(tracer.counts)
    self_s = defaultdict(float, tracer.self_s)

    tracer.uninstall()
    wl.on_trace = None
    plain = run_units(wl, wl.op, seconds=seconds / 2)
    tracer.install()
    wl.on_trace = tracer.sched_event
    slow = run_units(wl, traced_op, seconds=seconds / 2, tracer=tracer)
    tracer.uninstall()

    SPAN_DIR.mkdir(parents=True, exist_ok=True)
    span_file = SPAN_DIR / f"spans-{name}-seed{seed}.jsonl"
    tracer.write_spans(span_file)

    choicepoints = c["search.choicepoints"]
    checks = getattr(wl, "replica_check_s", [])
    plain_p50 = statistics.median(plain.times)
    slow_p50 = statistics.median(slow.times)
    metrics = {
        "parser.calls": c["parser.calls"],
        "parser.tokens": c["parser.tokens"],
        "parser.self_s": self_s["parser.self_s"],
        "prolog.self_s": self_s["prolog.self_s"],
        "runtime.reductions": first.reductions,
        "runtime.reductions_per_s": plain.reductions / sum(plain.times),
        "runtime.exec_self_s": self_s["runtime.exec_self_s"],
        "runtime.build_term_calls": c["runtime.build_term_calls"],
        "runtime.match_pattern_calls": c["runtime.match_pattern_calls"],
        "runtime.env_get_calls": c["runtime.env_get_calls"],
        "runtime.sched_self_s": self_s["runtime.sched_self_s"],
        "runtime.slices": c["sched.run"],
        "runtime.spawned": c["sched.spawn"],
        "runtime.suspends": c["sched.suspend"],
        "runtime.wakes": c["sched.wake"],
        "runtime.clock_ticks": c["sched.clock"],
        "runtime.threads_retained": state["runtime.threads_retained"],
        "runtime.bind_log_len": state["runtime.bind_log_len"],
        "terms.unify_calls": c["terms.unify_calls"],
        "terms.unify_self_s": self_s["terms.unify_self_s"],
        "terms.deref_calls": c["terms.deref_calls"],
        "terms.undo_entries": c["terms.undo_entries"],
        "terms.trail_peak": c["terms.trail_peak"],
        "terms.live_vars": state["terms.live_vars"],
        "terms.snapshot_nodes": c["terms.snapshot_nodes"],
        "terms.snapshot_self_s": self_s["terms.snapshot_self_s"],
        "terms.materialize_self_s": self_s["terms.materialize_self_s"],
        "terms.render_self_s": self_s["terms.render_self_s"],
        "search.choicepoints": choicepoints,
        "search.solutions": c["search.solutions"],
        "search.solutions_per_choicepoint":
            c["search.solutions"] / choicepoints if choicepoints else 0.0,
        "search.frames_copied": c["search.frames_copied"],
        "search.self_s": self_s["search.self_s"],
        **{f"dist.sent.{k}": c[f"dist.sent.{k}"] for k in MESSAGE_KINDS},
        **{f"dist.delivered.{k}": c[f"dist.delivered.{k}"]
           for k in MESSAGE_KINDS},
        "dist.steps": c["dist.steps"],
        "dist.pending_peak": c["dist.pending_peak"],
        "dist.take_self_s": self_s["dist.take_self_s"],
        "dist.replica_check_s": statistics.median(checks) if checks else 0.0,
        "trace.overhead": slow_p50 / plain_p50,
    }
    attempted = first.attempted + plain.attempted + slow.attempted
    failed = first.failed + plain.failed + slow.failed
    lines = [f"workload {name}  seed {seed}  traced: set-up and first "
             f"{first.attempted} ops, then {plain.attempted} ops untraced "
             f"and {slow.attempted} traced"]
    lines += [f"{key:34s} {value:.6g} {unit_of[key]}"
              for key, value in metrics.items()]
    lines.append(f"tracing overhead: op_s_p50 {slow_p50:.6f} s traced / "
                 f"{plain_p50:.6f} s untraced")
    lines.append(f"spans written to {span_file}")
    return attempted, failed, metrics, lines


def measure(name, seed, seconds, trace, sizes=programs.SIZES,
            setup_starts=SETUP_STARTS):
    """One benchmark run; returns (result dict, report lines)."""
    workloads = import_workloads()
    unit_of = declared_units("per_layer" if trace else "end_to_end")
    if trace:
        attempted, failed, metrics, lines = traced(
            workloads, name, seed, seconds, sizes, unit_of)
    else:
        attempted, failed, metrics, lines = untraced(
            workloads, name, seed, seconds, sizes, setup_starts)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]}
                    for k, v in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=programs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, lines = measure(args.workload, args.seed, args.seconds,
                                args.trace)
    except MissingSource as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
