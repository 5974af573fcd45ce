"""Per-layer tracing of ozk, attached from outside the package.

``Tracer.install`` replaces the public functions and methods of each
layer with wrappers, in every ozk module that holds a reference to them,
and ``uninstall`` puts the originals back; both are cheap, so a run can
pause tracing around work that is not the program's.  Two kinds of wrapper:

* a span wrapper times the call.  A span's self time is its duration
  minus the time of the spans it encloses, and is added to the bucket of
  its layer.  Coarse spans (see ``RECORDED``) are also kept in memory as
  (id, parent, name, start, end) and written out by ``write_spans``.
* a count wrapper only counts.  It is used for calls that run millions of
  times (``Store.deref``, ``env_get``, ...): timing them would cost more
  than the call, so their time stays in the caller's self time.

Scheduler events come from the runtime's public ``on_trace`` callback
(``sched_event``), not from wrappers.
"""

from __future__ import annotations

import functools
import itertools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

# span name -> self-time bucket reported as a per-layer metric
SELF_BUCKETS = {
    "parser.parse": "parser.self_s",
    "parser.tokenize": "parser.self_s",
    "prolog.translate": "prolog.self_s",
    "runtime.exec": "runtime.exec_self_s",
    "runtime.sched": "runtime.sched_self_s",
    "terms.unify": "terms.unify_self_s",
    "terms.snapshot": "terms.snapshot_self_s",
    "terms.materialize": "terms.materialize_self_s",
    "terms.render": "terms.render_self_s",
    "search.next": "search.self_s",
    "search.choicepoint": "search.self_s",
    "search.solve": "search.self_s",
    "dist.take": "dist.take_self_s",
}

# Spans rare enough to keep one record each.
RECORDED = frozenset(("bench.setup", "bench.op", "interp.session",
                      "interp.feed", "parser.parse", "prolog.translate",
                      "dist.simulation", "dist.run", "search.solve"))
MAX_RECORDS = 200_000

class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()
        self.records: list = []
        self.dropped = 0
        self._ids = itertools.count(1)
        self._stack: list = []       # one [child_seconds] cell per open span
        self._open: list = []        # ids of the open recorded spans
        self._patches: list = []     # (owner, attribute, original, wrapper)

    # -- recording -------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, result)`` may count."""
        bucket = SELF_BUCKETS.get(name, name)
        recorded = name in RECORDED
        stack, open_ids, self_s = self._stack, self._open, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            if recorded:
                sid = next(self._ids)
                parent = open_ids[-1] if open_ids else 0
                open_ids.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                stack.pop()
                self_s[bucket] += dur - cell[0]
                if stack:
                    stack[-1][0] += dur
                if recorded:
                    open_ids.pop()
                    if len(self.records) < MAX_RECORDS:
                        self.records.append((sid, parent, name, t0, t1))
                    else:
                        self.dropped += 1
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def sched_event(self, kind: str, payload: dict) -> None:
        self.counts["sched." + kind] += 1

    # -- patching ----------------------------------------------------------

    def _patch_function(self, module: str, attr: str, wrap) -> None:
        """Replace a module-level function in every ozk module that
        imported it; missing functions are skipped (metric stays 0)."""
        original = getattr(importlib.import_module(module), attr, None)
        if original is None:
            return
        wrapped = wrap(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ozk" or mod_name.startswith("ozk.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original, wrapped))

    def _patch_method(self, module: str, cls: str, attr: str, wrap) -> None:
        owner = getattr(importlib.import_module(module), cls, None)
        original = owner.__dict__.get(attr) if owner is not None else None
        if original is None:
            return
        self._patches.append((owner, attr, original, wrap(original)))

    def _counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Put the wrappers in place (built on the first call)."""
        if not self._patches:
            self._build()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _build(self) -> None:
        c = self.counts
        span = self.span
        fn, meth = self._patch_function, self._patch_method

        def count_tokens(args, toks):
            c["parser.tokens"] += len(toks)

        def count_call(key):
            def after(args, result):
                c[key] += 1
            return after

        # parser and the Prolog translator
        fn("ozk.parser", "tokenize", lambda f: span("parser.tokenize", f, count_tokens))
        for name in ("parse_program", "parse_interactive"):
            fn("ozk.parser", name,
               lambda f: span("parser.parse", f, count_call("parser.calls")))
        for name in ("parse_prolog", "parse_query", "translate_source",
                     "translate_query_source"):
            fn("ozk.prolog", name, lambda f: span("prolog.translate", f))

        # statement dispatch and environments
        fn("ozk.runtime", "exec_stmt", lambda f: span("runtime.exec", f))
        for name, key in (("build_term", "runtime.build_term_calls"),
                          ("match_pattern", "runtime.match_pattern_calls"),
                          ("env_get", "runtime.env_get_calls")):
            fn("ozk.runtime", name, lambda f, key=key: self._counter(key, f))

        # the scheduler
        for name in ("run", "drain", "next_wake", "wake_due"):
            meth("ozk.runtime", "Runtime", name,
                 lambda f: span("runtime.sched", f))

        # the store: unification, dereference, the trail
        meth("ozk.terms", "Store", "unify",
             lambda f: span("terms.unify", f, count_call("terms.unify_calls")))
        meth("ozk.terms", "Store", "deref",
             lambda f: self._counter("terms.deref_calls", f))
        meth("ozk.terms", "Store", "undo_to", self._wrap_undo_to)
        meth("ozk.terms", "Store", "pop_trail", self._wrap_pop_trail)

        def count_nodes(args, snap):
            c["terms.snapshot_nodes"] += len(snap.nodes)

        fn("ozk.terms", "snapshot", lambda f: span("terms.snapshot", f, count_nodes))
        fn("ozk.terms", "materialize", lambda f: span("terms.materialize", f))
        fn("ozk.terms", "render", lambda f: span("terms.render", f))

        # search engines
        meth("ozk.search", "Engine", "push_choicepoint", self._wrap_choicepoint)

        def count_solution(args, snap):
            if snap is not None:
                c["search.solutions"] += 1

        meth("ozk.search", "Engine", "next_snapshot",
             lambda f: span("search.next", f, count_solution))
        for name in ("solve_answers", "solve_step"):
            fn("ozk.search", name, lambda f: span("search.solve", f))

        # distribution
        meth("ozk.dist", "Network", "post", self._wrap_post)

        def count_delivery(args, msg):
            c["dist.delivered." + msg.kind] += 1

        meth("ozk.dist", "Network", "take",
             lambda f: span("dist.take", f, count_delivery))

        def count_steps(args, report):
            c["dist.steps"] += report.steps

        meth("ozk.dist", "Simulation", "__init__",
             lambda f: span("dist.simulation", f))
        meth("ozk.dist", "Simulation", "run",
             lambda f: span("dist.run", f, count_steps))

        # session glue, recorded so the span file shows where ops go
        meth("ozk.interp", "Session", "__init__",
             lambda f: span("interp.session", f))
        meth("ozk.interp", "Session", "feed", lambda f: span("interp.feed", f))

    # -- wrappers that read state before the call -----------------------------

    def _trail_size(self, store) -> int:
        return sum(len(t) for t in getattr(store, "trails", ()))

    def _wrap_undo_to(self, fn):
        c = self.counts

        @functools.wraps(fn)
        def undo_to(store, mark):
            size = self._trail_size(store)
            c["terms.trail_peak"] = max(c["terms.trail_peak"], size)
            trails = getattr(store, "trails", None)
            if trails:
                c["terms.undo_entries"] += max(0, len(trails[-1]) - mark)
            return fn(store, mark)
        return undo_to

    def _wrap_pop_trail(self, fn):
        c = self.counts

        @functools.wraps(fn)
        def pop_trail(store, merge):
            c["terms.trail_peak"] = max(c["terms.trail_peak"],
                                        self._trail_size(store))
            return fn(store, merge)
        return pop_trail

    def _wrap_choicepoint(self, fn):
        c = self.counts
        timed = self.span("search.choicepoint", fn)

        @functools.wraps(fn)
        def push_choicepoint(engine, alternatives, env):
            c["search.choicepoints"] += 1
            task = getattr(engine, "task", None)
            c["search.frames_copied"] += len(getattr(task, "stack", ()))
            return timed(engine, alternatives, env)
        return push_choicepoint

    def _wrap_post(self, fn):
        c = self.counts

        @functools.wraps(fn)
        def post(network, src, dst, kind, var, payload=None):
            c["dist.sent." + kind] += 1
            result = fn(network, src, dst, kind, var, payload)
            c["dist.pending_peak"] = max(c["dist.pending_peak"],
                                         network.pending)
            return result
        return post

    # -- output ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, name, t0, t1 in self.records:
                out.write(json.dumps({"id": sid, "parent": parent,
                                      "name": name, "start": t0,
                                      "end": t1}) + "\n")
            out.write(json.dumps({"self_s": dict(self.self_s),
                                  "counts": dict(self.counts),
                                  "dropped_spans": self.dropped}) + "\n")
