"""Multi-node execution of kernel programs over a simulated network.

Each node is a full machine: its own store replica, scheduler, builtin
table and prelude.  Dataflow variables connect them: a variable is owned
by the node that created it (the origin half of its VarId), and only the
owner applies the authoritative binding.  Everyone else holds a replica
under the same VarId and learns of bindings through messages:

* ``Register`` — a node that meets a foreign variable (in a received
  term, or through thread placement) subscribes with the owner.  If the
  variable is already bound the owner answers with its current state.
* ``BindRequest`` — a non-owner that wants to bind a variable sends the
  value (as a self-contained graph snapshot) to the owner instead of
  binding locally; its replica stays unbound until the notification
  comes back, so every replica only ever holds owner-confirmed state.
  Conflicting requests are serialized by the owner: the first one wins
  and a later incompatible one is a unification clash, which marks the
  whole run as failed.
* ``BindNotify`` — the owner's broadcast of a new binding to every
  registered node.  Frontier variables inside the snapshot introduce
  themselves to the receiver, which registers for them in turn, so
  streams propagate incrementally.
* ``UnifyVarVar`` — merging two unbound variables is routed to the owner
  of the *lesser* variable in the global (origin, seq) order.  Binding
  always points the greater at the lesser, so the total order yields one
  global representative per equivalence class and no binding cycles.

The network is failure-free — no loss, no duplication — and delivers
either in global arrival order (``fifo``, which preserves per-link
order) or in a seeded random shuffle that freely reorders everything the
protocol must tolerate.  The whole simulation is single-context
discrete-event: one loop alternates node scheduler work and message
deliveries, and virtual time advances only when every node is idle and
no message is in flight.  Determinism is therefore a function of
(program, placement, seeds) alone.

Program placement: the top level of the program is split into plain
statements (procedure definitions and other setup), which run on every
node, and ``thread ... end`` statements, which are named ``a``, ``b``,
``c``, ... in source order and run on the node the placement assigns
them to (default node 0).  A top-level variable mentioned by the setup
code is per-node (each node gets its own — setup must compute it
identically everywhere, which holds for procedure definitions); a
variable mentioned only by threads is created on the node of the first
thread that mentions it and shared with the others.  Consequently the
same source text runs unchanged as a single-node program or distributed
across nodes.
"""

from __future__ import annotations

import random
import string
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

from .builtins import make_builtins
from .errors import PlacementError
from .interp import Session
from .parser import parse_interactive
from .prelude import PRELUDE_NAMES
from .runtime import Runtime, StepLimit
from .syntax import (Block, BuiltinCall, Call, CaseStmt, CCompound, Choice,
                     CVar, IfStmt, Local, PCompound, ProcDef, PVar, ThreadStmt,
                     Unify, seq_all, seq_items)
from .terms import (Snapshot, Store, Var, VarId, bisimilar, materialize,
                    render, snapshot)

THREAD_NAMES = string.ascii_lowercase

MESSAGE_KINDS = ("Register", "BindRequest", "BindNotify", "UnifyVarVar")


# -- free names of a statement ---------------------------------------------


def _pattern_binders(pattern, out: set) -> None:
    todo = [pattern]
    while todo:
        p = todo.pop()
        if isinstance(p, PVar):
            out.add(p.name)
        elif isinstance(p, PCompound):
            todo.extend(p.args)


def _expr_free(expr, bound, out: set) -> None:
    todo = [expr]
    while todo:
        e = todo.pop()
        if type(e) is CVar:
            if e.name not in bound:
                out.add(e.name)
        elif type(e) is CCompound:
            todo.extend(e.args)


def free_names(stmt) -> set:
    """Names a statement reads or writes but does not itself declare.

    The walk keeps its own stack of (statement, names bound around it),
    so a long sequence or a deep nesting takes no Python stack."""
    out: set = set()
    todo = [(stmt, frozenset())]
    while todo:
        s, bound = todo.pop()
        t = type(s)
        if t is Block:
            todo.extend((item, bound) for item in s.stmts)
        elif t is Local:
            todo.append((s.body, bound | set(s.names)))
        elif t is Unify:
            _expr_free(s.lhs, bound, out)
            _expr_free(s.rhs, bound, out)
        elif t is IfStmt:
            todo.append((s.otherwise, bound))
            for arm in s.arms:
                inner = bound | set(arm.guard_vars)
                if arm.guard is not None:
                    todo.append((arm.guard, inner))
                todo.append((arm.body, inner))
        elif t is CaseStmt:
            _expr_free(s.subject, bound, out)
            for arm in s.arms:
                binders: set = set()
                _pattern_binders(arm.pattern, binders)
                todo.append((arm.body, bound | binders))
            todo.append((s.otherwise, bound))
        elif t is Choice:
            for alt in s.alternatives:
                todo.append((alt, bound))
        elif t is ProcDef:
            if s.name not in bound:
                out.add(s.name)
            todo.append((s.body, bound | set(s.params)))
        elif t is Call:
            _expr_free(s.target, bound, out)
            for arg in s.args:
                _expr_free(arg, bound, out)
        elif t is BuiltinCall:
            for arg in s.args:
                _expr_free(arg, bound, out)
        elif t is ThreadStmt:
            todo.append((s.body, bound))
        # Skip and Fail mention nothing.
    return out


# -- program splitting -------------------------------------------------------


@lru_cache(maxsize=64)
def split_program(text: str, ambient: tuple) -> tuple:
    """Split a program's top level for placement.

    Returns ``(declared_names, setup_statements, thread_bodies)``; the
    thread bodies are keyed ``a``, ``b``, ... in source order by the
    placement map.  A blank program splits into nothing at all."""
    if not text.strip():
        return (), (), ()
    stmt, exposed = parse_interactive(text, ambient)
    names = list(exposed)
    setup, threads = [], []

    def walk(node):
        # Flatten the top-level spine: a `local` between statements is
        # still "the top level" to a reader, so its names join the
        # program's names and its body keeps unfolding.  Scopes merge in
        # the process, hence the duplicate check.
        if isinstance(node, Local):
            for n in node.names:
                if n in names:
                    raise PlacementError(
                        f"cannot place this program: the top-level name "
                        f"{n} is declared twice")
                names.append(n)
            walk(node.body)
        elif isinstance(node, ThreadStmt):
            threads.append(node.body)
        else:
            for item in seq_items(node):
                if item is node:
                    setup.append(item)
                else:
                    walk(item)

    walk(stmt)
    if len(threads) > len(THREAD_NAMES):
        raise PlacementError(
            f"a program may have at most {len(THREAD_NAMES)} top-level "
            f"threads, this one has {len(threads)}")
    return tuple(names), tuple(setup), tuple(threads)


def parse_placement(text: str) -> dict:
    """Parse ``a=0,b=1`` into {'a': 0, 'b': 1}."""
    out: dict = {}
    if not text.strip():
        return out
    for part in text.split(","):
        part = part.strip()
        name, eq, node = part.partition("=")
        name = name.strip()
        node = node.strip()
        if not eq or not name or not node:
            raise PlacementError(f"malformed placement entry {part!r} "
                                 "(expected thread=node)")
        try:
            nid = int(node)
        except ValueError:
            raise PlacementError(f"node id in {part!r} is not an integer")
        if nid < 0:
            raise PlacementError(f"node id in {part!r} is negative")
        out[name] = nid
    return out


# -- the network -------------------------------------------------------------


@dataclass(frozen=True)
class Message:
    seq: int
    src: int
    dst: int
    kind: str                 # one of MESSAGE_KINDS
    var: VarId                # the variable the message is about
    payload: object = None    # Snapshot for binds, lesser VarId for UnifyVarVar

    def trace_line(self) -> str:
        return f"{self.src} {self.dst} {self.kind} v{self.var[0]}.{self.var[1]}"


class Network:
    """Per-ordered-pair queues with a pluggable delivery order.

    ``fifo`` always delivers the globally oldest pending message, which
    in particular preserves per-link order.  ``shuffle`` delivers any
    pending message, picked by a seeded RNG — adversarial reordering
    (across and within links) that a correct protocol must tolerate."""

    def __init__(self, policy: str = "fifo", seed: Optional[int] = None):
        if policy not in ("fifo", "shuffle"):
            raise ValueError(f"unknown delivery policy {policy!r}")
        self.policy = policy
        self.rng = random.Random(seed)
        self.queues: dict = {}
        self.pending = 0
        self.sent: Counter = Counter()
        self.delivered: Counter = Counter()
        self._seq = 0

    def post(self, src: int, dst: int, kind: str, var: VarId,
             payload=None) -> None:
        self._seq += 1
        msg = Message(self._seq, src, dst, kind, var, payload)
        self.queues.setdefault((src, dst), deque()).append(msg)
        self.pending += 1
        self.sent[kind] += 1

    def take(self) -> Message:
        if self.policy == "fifo":
            link = min((q[0].seq, l) for l, q in self.queues.items() if q)[1]
            msg = self.queues[link].popleft()
        else:
            i = self.rng.randrange(self.pending)
            msg = None
            for link in sorted(self.queues):
                q = self.queues[link]
                if i < len(q):
                    msg = q[i]
                    del q[i]
                    break
                i -= len(q)
        self.pending -= 1
        self.delivered[msg.kind] += 1
        return msg


# -- nodes -------------------------------------------------------------------


class Node:
    """One simulated machine: a store replica, a scheduler with its own
    prelude, and the registration table for the variables it owns."""

    def __init__(self, node_id: int, policy: str, seed: Optional[int],
                 max_steps: Optional[int],
                 on_trace: Optional[Callable] = None):
        self.node_id = node_id
        self.session = Session(store=Store(node_id=node_id), policy=policy,
                               seed=seed, max_steps=max_steps,
                               on_trace=on_trace)
        self.rt: Runtime = self.session.rt
        self.store: Store = self.session.store
        self.globals: dict = self.session.globals
        self.registered: dict = {}   # own VarId -> set of subscribed node ids

    def lookup(self, name: str):
        return self.globals[name]

    def thread_statuses(self) -> Counter:
        """Live threads by status, plus ended threads by exit status."""
        live = Counter(t.status for t in self.rt.threads.values())
        return live + self.rt.stats.exits


# -- the simulation ----------------------------------------------------------


@dataclass
class SimReport:
    status: str                      # done | failed | deadlock | limit
    clock: int                       # virtual ms at quiescence
    outputs: dict                    # node id -> list of browse lines
    sent: Counter                    # messages posted, by kind
    delivered: Counter               # messages delivered, by kind
    steps: int                       # event-loop iterations
    trace: list                      # one "src dst kind var" line per delivery
    failures: list
    suspended: dict                  # node id -> [(tid, [vid, ...]), ...]
    nodes: list = field(repr=False, default_factory=list)

    @property
    def total_delivered(self) -> int:
        return sum(self.delivered.values())

    def summary(self) -> str:
        lines = [f"status: {self.status}   clock: {self.clock} ms   "
                 f"messages: {self.total_delivered}   steps: {self.steps}"]
        for node in self.nodes:
            counts = node.thread_statuses()
            stat = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            lines.append(f"node {node.node_id}: {stat}   "
                         f"reductions: {node.rt.stats.reductions}")
            for text in self.outputs.get(node.node_id, ()):
                lines.append(f"  {text}")
        if self.total_delivered:
            detail = ", ".join(f"{k} {v}" for k, v in
                               sorted(self.delivered.items()))
            lines.append(f"delivered: {detail}")
        for f in self.failures:
            lines.append(f"failure: {f}")
        for nid, entries in sorted(self.suspended.items()):
            for tid, vids in entries:
                names = " ".join(f"v{o}.{s}" for o, s in vids)
                lines.append(f"suspended: node {nid} thread {tid} "
                             f"waiting on {names}")
        return "\n".join(lines)


def _keep_all(vid: VarId) -> bool:
    return True


class Simulation:
    """Drive N nodes and the network to global quiescence.

    Quiescence: no node has a runnable thread, no message is in flight,
    and no thread is sleeping (virtual time has run out of work)."""

    def __init__(self, source: str, placement: Optional[dict] = None, *,
                 net_policy: Optional[str] = None,
                 net_seed: Optional[int] = None,
                 sched_policy: str = "fifo",
                 sched_seed: Optional[int] = None,
                 max_steps: Optional[int] = None,
                 on_net_trace: Optional[Callable[[str], None]] = None,
                 on_sched_trace: Optional[Callable] = None):
        placement = dict(placement or {})
        _, native = make_builtins()
        ambient = tuple(native) + PRELUDE_NAMES
        names, setup, threads = split_program(source, ambient)

        thread_names = THREAD_NAMES[:len(threads)]
        for key in placement:
            if key not in thread_names:
                known = ", ".join(thread_names) or "none"
                raise PlacementError(
                    f"placement names unknown thread {key!r} "
                    f"(this program has: {known})")
        self.placement = {nm: placement.get(nm, 0) for nm in thread_names}
        node_count = max(self.placement.values(), default=0) + 1

        if net_policy is None:
            net_policy = "shuffle" if net_seed is not None else "fifo"
        self.network = Network(net_policy, net_seed)
        self.on_net_trace = on_net_trace

        self.nodes = []
        for nid in range(node_count):
            seed = (None if sched_seed is None
                    else sched_seed * 1000003 + nid)
            trace = None
            if on_sched_trace is not None:
                trace = (lambda kind, payload, _n=nid:
                         on_sched_trace(_n, kind, payload))
            self.nodes.append(Node(nid, sched_policy, seed, max_steps, trace))
        # Hooks go live only after every prelude has run undistracted.
        for node in self.nodes:
            node.store.dist = self

        self.clock = 0
        self.steps = 0
        self.trace: list = []
        self.failure: Optional[str] = None

        self._place(names, setup, threads)

    # -- program placement --------------------------------------------

    def _place(self, names, setup, threads) -> None:
        thread_free = [free_names(body) for body in threads]
        setup_free: set = set()
        for stmt in setup:
            setup_free |= free_names(stmt)
        thread_nodes = [self.placement[THREAD_NAMES[i]]
                        for i in range(len(threads))]

        for name in names:
            users = [thread_nodes[i] for i in range(len(threads))
                     if name in thread_free[i]]
            if name in setup_free or not users:
                # Per-node: every node computes its own (setup defines it).
                for node in self.nodes:
                    node.globals[name] = node.store.new_var()
            else:
                # Shared: created on the first mentioning thread's node,
                # replicated on the other nodes that use it.
                origin = users[0]
                var = self.nodes[origin].store.new_var()
                self.nodes[origin].globals[name] = var
                for nid in users[1:]:
                    if name not in self.nodes[nid].globals:
                        self.nodes[origin].store.export(var)
                        self.nodes[nid].globals[name] = \
                            self.nodes[nid].store.intern(var.vid)

        if setup:
            stmt = seq_all(list(setup))
            for node in self.nodes:
                node.rt.spawn(stmt, node.globals)
        for i, body in enumerate(threads):
            node = self.nodes[thread_nodes[i]]
            node.rt.spawn(body, node.globals)

    # -- store hooks (one object serves every node's store) ------------

    def on_new_proxy(self, store: Store, var: Var) -> None:
        self.network.post(store.node_id, var.vid[0], "Register", var.vid)

    def request_bind(self, store: Store, var: Var, value) -> None:
        src = store.node_id
        value = store.deref(value)
        if isinstance(value, Var):
            # Unification always points the greater at the lesser.
            lesser, greater = value, var
            if lesser.vid[0] == src:
                # We own the lesser, so we are this pair's union
                # authority; ask the greater's owner to apply it.
                self.network.post(
                    src, greater.vid[0], "BindRequest", greater.vid,
                    snapshot(store, lesser, _keep_all, for_network=True))
            else:
                self.network.post(src, lesser.vid[0], "UnifyVarVar",
                                  greater.vid, lesser.vid)
        else:
            self.network.post(
                src, var.vid[0], "BindRequest", var.vid,
                snapshot(store, value, _keep_all, for_network=True))

    def on_owner_bound(self, store: Store, var: Var) -> None:
        node = self.nodes[store.node_id]
        audience = node.registered.get(var.vid)
        if not audience:
            return
        snap = snapshot(store, var, _keep_all, for_network=True)
        for dst in sorted(audience):
            self.network.post(store.node_id, dst, "BindNotify", var.vid, snap)

    # -- message application -------------------------------------------

    def _materialize(self, node: Node, snap: Snapshot):
        def resolve(vid):
            if vid is None:
                return node.store.new_var()
            return node.store.intern(vid)
        return materialize(node.store, snap, resolve)

    def _apply_unify(self, node: Node, a, b) -> None:
        res = node.store.unify(a, b)
        if res.woken:
            node.rt.wake(res.woken)
        if not res.ok:
            detail = f" ({res.reason})" if res.reason else ""
            self.failure = (
                f"node {node.node_id}: unification clash: "
                f"{render(node.store, a)} with {render(node.store, b)}"
                f"{detail}")

    def _deliver(self, msg: Message) -> None:
        self.trace.append(msg.trace_line())
        if self.on_net_trace is not None:
            self.on_net_trace(msg.trace_line())
        node = self.nodes[msg.dst]
        store = node.store
        if msg.kind == "Register":
            audience = node.registered.setdefault(msg.var, set())
            if msg.src in audience:
                return                      # double registration: idempotent
            audience.add(msg.src)
            var = store.intern(msg.var)
            if var.ref is not None:
                self.network.post(
                    msg.dst, msg.src, "BindNotify", msg.var,
                    snapshot(store, var, _keep_all, for_network=True))
        elif msg.kind == "BindRequest":
            var = store.intern(msg.var)
            term = self._materialize(node, msg.payload)
            self._apply_unify(node, var, term)
        elif msg.kind == "BindNotify":
            var = store.intern(msg.var)
            term = self._materialize(node, msg.payload)
            if var.ref is None:
                woken = store.bind_notified(var, term)
                if woken:
                    node.rt.wake(woken)
            else:
                # Late or redundant news; must agree with what we hold.
                self._apply_unify(node, var, term)
        else:                               # UnifyVarVar
            greater = store.intern(msg.var)
            lesser = store.intern(msg.payload)
            self._apply_unify(node, greater, lesser)

    # -- the event loop --------------------------------------------------

    def run(self) -> SimReport:
        status = "done"
        for node in self.nodes:
            node.rt.renew_budget()
        try:
            while True:
                self.steps += 1
                for node in self.nodes:
                    node.rt.clock = self.clock
                    node.rt.drain()
                if self.failure is not None:
                    break
                if self.network.pending:
                    self._deliver(self.network.take())
                    if self.failure is not None:
                        break
                    continue
                wakes = [w for node in self.nodes
                         if (w := node.rt.next_wake()) is not None]
                if wakes:
                    self.clock = max(self.clock, min(wakes))
                    for node in self.nodes:
                        node.rt.clock = self.clock
                        node.rt.wake_due()
                    continue
                break
        except StepLimit:
            status = "limit"

        failures = [] if self.failure is None else [self.failure]
        suspended: dict = {}
        for node in self.nodes:
            node_failures, node_suspended, _ = node.rt.verdict()
            failures += [f"node {node.node_id}: {f}" for f in node_failures]
            if node_suspended:
                suspended[node.node_id] = node_suspended
        if status == "limit":
            failures.append("did not reach quiescence within the step budget")
        elif failures:
            status = "failed"
        elif suspended:
            status = "deadlock"
        outputs = {node.node_id: list(node.rt.browses) for node in self.nodes}
        return SimReport(status, self.clock, outputs, self.network.sent,
                         self.network.delivered, self.steps, self.trace,
                         failures, suspended, self.nodes)


def run_simulation(source: str, placement: Optional[dict] = None,
                   **options) -> SimReport:
    """Place a program's top-level threads on nodes and run to quiescence."""
    return Simulation(source, placement, **options).run()


def replica_divergences(nodes: list) -> list:
    """Replica-consistency check for a quiescent simulation.

    Every variable known to two or more nodes must look the same
    everywhere: structurally bisimilar, with unbound positions resolved
    to identical VarIds.  Returns human-readable divergences (empty when
    consistent)."""
    holders: dict = {}
    for node in nodes:
        for vid in node.store.vars:
            holders.setdefault(vid, []).append(node)
    out = []
    for vid, sharing in holders.items():
        if len(sharing) < 2:
            continue
        base = sharing[0]
        for other in sharing[1:]:
            if not bisimilar(base.store, base.store.vars[vid],
                             other.store, other.store.vars[vid],
                             strict_vars=True):
                out.append(f"v{vid[0]}.{vid[1]} differs between node "
                           f"{base.node_id} and node {other.node_id}")
    return out
