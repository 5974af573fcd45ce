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
  binding locally, and the statement that binds it waits: its replica
  stays unbound until the notification comes back, so every replica
  only ever holds owner-confirmed state.  The owner applies the first
  request for an unbound variable and drops any later one.  The waiting
  statement then runs again against the owner's binding, and either
  finds the value it asked for or fails its own thread, as the loser of
  a race does in a single store.
* ``BindNotify`` — the owner's broadcast of a new binding to every
  registered node.  Frontier variables inside the snapshot introduce
  themselves to the receiver, which registers for them in turn, so
  streams propagate incrementally.
* ``UnifyVarVar`` — merging two unbound variables is routed to the owner
  of the *lesser* variable in the global (origin, seq) order, which
  binds the greater itself if it owns it too, and else sends the
  greater's owner a ``BindRequest`` for the lesser.  Binding always
  points the greater at the lesser, so the total order yields one global
  representative per equivalence class and no binding cycles.  The
  statement that merged them waits on the greater, as for a
  ``BindRequest``.

A delivery never unifies: it binds an unbound variable or drops the
message, so only a thread forwards a bind, and only a thread fails.

A value travels as a ``terms.Snapshot`` of its graph, made by
``terms.snapshot`` in one pass at the sender.  Every unbound variable in
it is on the frontier: it keeps its VarId and the sender exports it, so
that it can come back by that VarId.  The receiver rebuilds the graph
with ``terms.materialize``, whose lookup is its store's ``intern``: a
frontier variable becomes the receiver's own variable or its registered
replica, and a replica met for the first time registers with its owner.

The network is failure-free — no loss, no duplication.  It keeps one
queue of pending messages, in the order they were posted.  The whole
simulation is single-context discrete-event, run by the runtime's one
event loop (``run_events``): each step is a timeslice of a node that has
a runnable thread or the delivery of a pending message.  With no net
seed every node drains before the oldest message goes, which preserves
per-link order; with a net seed a ``random.Random`` so seeded picks each
step, so a delivery can come between any two slices and messages are
freely reordered, as the protocol must tolerate.  Virtual time advances
only when every node is idle and no message is in flight.  Determinism
is therefore a function of (program, placement, seeds) alone.

Program placement: the top level of the program is split into plain
statements (procedure definitions and other setup), which run on every
node, and ``thread ... end`` statements, which are named ``a``, ``b``,
``c``, ... in source order and run on the node the placement assigns
them to (default node 0), a node id from 0 to 25.  A top-level variable
mentioned by the setup code is per-node (each node gets its own — setup
must compute it identically everywhere, which holds for procedure
definitions); a variable mentioned only by threads is created on the
node of the first thread that mentions it and shared with the others.
Consequently the same source text runs unchanged as a single-node
program or distributed across nodes.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from functools import lru_cache
from itertools import repeat
from typing import Callable, Optional

from .builtins import make_builtins
from .compiler import compile_top
from .errors import PlacementError, RuntimeFailure
from .interp import Session
from .parser import parse_interactive
from .prelude import PRELUDE_NAMES
from .runtime import Runtime, Suspend, run_events, run_status
from .syntax import Local, ThreadStmt, seq_all, seq_items
from .terms import (Atom, Compound, Int, Store, Var, VarId, materialize,
                    snapshot)

THREAD_NAMES = "abcdefghijklmnopqrstuvwxyz"
# The largest node id a placement may name.  A program has at most one
# top-level thread per name, and nodes 0 to the largest id named are
# each built, prelude and all.
MAX_NODE_ID = len(THREAD_NAMES) - 1

MESSAGE_KINDS = ("Register", "BindRequest", "BindNotify", "UnifyVarVar")


# -- program splitting -------------------------------------------------------


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


@lru_cache(maxsize=64)
def _compiled_pieces(text: str, ambient: tuple) -> tuple:
    """:func:`split_program` with each piece compiled: ``(declared_names,
    setup_code, thread_codes)``, where the setup statements compile to one
    piece, or None when there are none.  Each piece's ``captures`` are its
    free names."""
    names, setup, threads = split_program(text, ambient)
    setup_code = compile_top(seq_all(list(setup))) if setup else None
    return names, setup_code, tuple(compile_top(body) for body in threads)


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


class Message:
    __slots__ = ("src", "dst", "kind", "var", "payload")

    def __init__(self, src: int, dst: int, kind: str, var: VarId,
                 payload: object):
        self.src = src
        self.dst = dst
        self.kind = kind          # one of MESSAGE_KINDS
        self.var = var            # the variable the message is about
        # a Snapshot for binds, the lesser VarId for UnifyVarVar
        self.payload = payload

    def trace_line(self) -> str:
        return f"{self.src} {self.dst} {self.kind} v{self.var[0]}.{self.var[1]}"


class Network:
    """The messages in flight, in one queue in the order they were posted.
    The event loop picks which one goes next (``run_events``)."""

    def __init__(self):
        self.queue: deque = deque()
        self.sent: Counter = Counter()
        self.delivered: Counter = Counter()

    @property
    def pending(self) -> int:
        return len(self.queue)

    def post(self, src: int, dst: int, kind: str, var: VarId,
             payload=None) -> None:
        self.queue.append(Message(src, dst, kind, var, payload))
        self.sent[kind] += 1

    def take(self, i: int) -> Message:
        """Remove and return the pending message at ``i``, oldest first."""
        queue = self.queue
        if i:
            msg = queue[i]
            del queue[i]
        else:
            msg = queue.popleft()
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


class SimReport:
    __slots__ = ("status", "clock", "outputs", "sent", "delivered", "steps",
                 "failures", "suspended", "nodes")

    def __init__(self, status: str, clock: int, outputs: dict, sent: Counter,
                 delivered: Counter, steps: int, failures: list,
                 suspended: dict, nodes: list):
        self.status = status         # done | failed | deadlock | limit
        self.clock = clock           # virtual ms at quiescence
        self.outputs = outputs       # node id -> list of browse lines
        self.sent = sent             # messages posted, by kind
        self.delivered = delivered   # messages delivered, by kind
        # one per delivery and per clock jump, plus the last look at rest;
        # a timeslice is no step
        self.steps = steps
        self.failures = failures
        self.suspended = suspended   # node id -> [(tid, [vid, ...]), ...]
        self.nodes = nodes

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
    """Drive N nodes and the network to global quiescence, through the
    runtime's one event loop (``run_events``), with the net seed's order.

    Quiescence: no node has a runnable thread, no message is in flight,
    and no thread is sleeping (virtual time has run out of work).  When
    the step budget stops the run, every node's runnable and sleeping
    threads leave with status ``stopped`` (``Runtime.stop``), as in a
    run of one runtime."""

    def __init__(self, source: str, placement: Optional[dict] = None, *,
                 net_seed: Optional[int] = None,
                 sched_policy: str = "fifo",
                 sched_seed: Optional[int] = None,
                 max_steps: Optional[int] = None,
                 on_net_trace: Optional[Callable[[str], None]] = None,
                 on_sched_trace: Optional[Callable] = None):
        placement = dict(placement or {})
        ambient = tuple(make_builtins()) + PRELUDE_NAMES
        names, setup, threads = _compiled_pieces(source, ambient)

        thread_names = THREAD_NAMES[:len(threads)]
        for key, nid in placement.items():
            if key not in thread_names:
                known = ", ".join(thread_names) or "none"
                raise PlacementError(
                    f"placement names unknown thread {key!r} "
                    f"(this program has: {known})")
            if not 0 <= nid <= MAX_NODE_ID:
                raise PlacementError(
                    f"placement entry {key}={nid}: a node id runs from 0 "
                    f"to {MAX_NODE_ID}, one node per top-level thread at "
                    f"most")
        self.placement = {nm: placement.get(nm, 0) for nm in thread_names}
        node_count = max(self.placement.values(), default=0) + 1

        self.network = Network()
        self.order = None if net_seed is None else random.Random(net_seed)
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

        self._place(names, setup, threads)

    # -- program placement --------------------------------------------

    def _place(self, names, setup, threads) -> None:
        thread_free = [code.captures for code in threads]
        setup_free = setup.captures if setup is not None else ()
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

        # each piece runs in a frame of its own, its free names taken
        # from its node's globals
        if setup is not None:
            for node in self.nodes:
                node.rt.spawn(setup.body, setup.frame(node.globals))
        for i, code in enumerate(threads):
            node = self.nodes[thread_nodes[i]]
            node.rt.spawn(code.body, code.frame(node.globals))

    # -- store hooks (one object serves every node's store) ------------

    def on_new_proxy(self, store: Store, var: Var) -> None:
        self.network.post(store.node_id, var.vid[0], "Register", var.vid)

    def request_bind(self, store: Store, var: Var, value) -> None:
        """Ask the owner of ``var``, another node's variable, to bind it
        to ``value``, then raise ``Suspend`` by need on ``var``: the
        statement waits for the owner's ``BindNotify`` and runs again.
        A bind is no need, so the wait marks nothing needed."""
        src = store.node_id
        value = store.deref(value)
        if isinstance(value, Var) and value.vid[0] != src:
            # Unification points the greater, ``var``, at the lesser,
            # whose owner is the pair's union authority.
            self.network.post(src, value.vid[0], "UnifyVarVar", var.vid,
                              value.vid)
        else:
            # a value, or a lesser we own: the greater's owner binds it
            self.network.post(
                src, var.vid[0], "BindRequest", var.vid,
                snapshot(store, value, _keep_all, for_network=True))
        raise Suspend([var], byneed=True)

    def on_owner_bound(self, store: Store, var: Var) -> None:
        node = self.nodes[store.node_id]
        audience = node.registered.get(var.vid)
        if not audience:
            return
        snap = snapshot(store, var, _keep_all, for_network=True)
        for dst in sorted(audience):
            self.network.post(store.node_id, dst, "BindNotify", var.vid, snap)

    # -- message application -------------------------------------------

    def _deliver(self, msg: Message) -> None:
        """Apply ``msg`` at its destination.  No delivery unifies: a
        request binds the owner's variable if it is still unbound and is
        dropped otherwise, as its sender learns the binding through the
        ``BindNotify`` that its ``Register`` asked for, and a notice binds
        a replica, which no one else binds."""
        if self.on_net_trace is not None:
            self.on_net_trace(msg.trace_line())
        node = self.nodes[msg.dst]
        store = node.store
        kind = msg.kind
        if kind == "Register":
            audience = node.registered.setdefault(msg.var, set())
            if msg.src in audience:
                return                      # double registration: idempotent
            audience.add(msg.src)
            var = store.intern(msg.var)
            if var.ref is not None:
                self.network.post(
                    msg.dst, msg.src, "BindNotify", msg.var,
                    snapshot(store, var, _keep_all, for_network=True))
            return
        var = store.intern(msg.var)
        if kind == "UnifyVarVar":
            # We own the lesser: bind the greater if we own it too, else
            # ask its owner to.
            lesser = store.intern(msg.payload)
            if msg.var[0] != msg.dst:
                self.network.post(
                    msg.dst, msg.var[0], "BindRequest", msg.var,
                    snapshot(store, lesser, _keep_all, for_network=True))
                return
            if var.ref is None:
                store._bind_local(var, lesser)
                self.on_owner_bound(store, var)
        elif var.ref is None:
            store._bind_local(var, materialize(store, msg.payload,
                                               store.intern))
            if kind == "BindRequest":
                self.on_owner_bound(store, var)
        elif kind == "BindNotify":
            raise RuntimeFailure(
                f"node {msg.dst} was sent a second binding of "
                f"v{msg.var[0]}.{msg.var[1]}, whose replica is bound")

    # -- running ---------------------------------------------------------

    def run(self) -> SimReport:
        status, steps = run_events([node.rt for node in self.nodes],
                                   self.order, self.network, self._deliver)
        failures = []
        suspended: dict = {}
        for node in self.nodes:
            node_failures, node_suspended, _ = node.rt.verdict()
            failures += [f"node {node.node_id}: {f}" for f in node_failures]
            if node_suspended:
                suspended[node.node_id] = node_suspended
        if status == "limit":
            failures.append("did not reach quiescence within the step budget")
        status = run_status(status, failures, suspended)
        outputs = {node.node_id: [text for _, text in node.rt.browse_log]
                   for node in self.nodes}
        return SimReport(status, self.nodes[0].rt.clock, outputs,
                         self.network.sent, self.network.delivered, steps,
                         failures, suspended, self.nodes)


def run_simulation(source: str, placement: Optional[dict] = None,
                   **options) -> SimReport:
    """Place a program's top-level threads on nodes and run to quiescence."""
    return Simulation(source, placement, **options).run()


def replica_divergences(nodes: list) -> list:
    """Replica-consistency check for a quiescent simulation.

    Every variable known to two or more nodes must look the same
    everywhere: structurally bisimilar, with unbound positions resolved
    to identical VarIds.  Each node that shares a variable is compared
    with the first node that holds it, and each such pair of nodes is
    walked once over all the variables they share, with one visited set,
    so the check is linear in the size of their stores.  A difference is
    reported against the nearest shared variable above it on the walk.
    Returns human-readable divergences (empty when consistent)."""
    holders: dict = {}
    for node in nodes:
        for vid in node.store.vars:
            holders.setdefault(vid, []).append(node)
    shared: dict = {}            # (base, other) -> the VarIds they share
    for vid, sharing in holders.items():
        for other in sharing[1:]:
            shared.setdefault((sharing[0], other), []).append(vid)
    out = []
    for (base, other), vids in shared.items():
        for vid in _divergent_roots(base.store, other.store, vids):
            out.append(f"v{vid[0]}.{vid[1]} differs between node "
                       f"{base.node_id} and node {other.node_id}")
    return out


def _divergent_roots(store_a: Store, store_b: Store, vids: list) -> list:
    """The VarIds of ``vids``, registered in both stores, under which the
    two stores' graphs differ, each named once, in the order found.  One
    walk covers every root: a pair of nodes is visited once, and a
    difference is charged to the nearest registered variable of ``vids``
    above it (a replica reached through the graph counts as one too)."""
    roots = set(vids)
    visited: set = set()
    found: dict = {}
    va, vb = store_a.vars, store_b.vars
    stack = [(va[vid], vb[vid], vid) for vid in reversed(vids)]
    while stack:
        a, b, name = stack.pop()
        if (type(a) is Var and type(b) is Var and a.vid == b.vid
                and a.vid in roots):
            name = a.vid
        a = store_a.deref(a)
        b = store_b.deref(b)
        # an unbound variable by its VarId, as the replicas share it
        pair = (a.vid if type(a) is Var else id(a),
                b.vid if type(b) is Var else id(b))
        if pair in visited:
            continue
        visited.add(pair)
        ka, kb = type(a), type(b)
        if ka is Var or kb is Var:
            same = ka is kb and a.vid == b.vid
        elif ka is Compound and kb is Compound:
            same = a.label == b.label and len(a.args) == len(b.args)
            if same:
                stack.extend(zip(a.args, b.args, repeat(name)))
        elif ka is Atom and kb is Atom:
            same = a.name == b.name
        elif ka is Int and kb is Int:
            same = a.value == b.value
        else:
            same = a is b
        if not same:
            found[name] = None
    return list(found)
