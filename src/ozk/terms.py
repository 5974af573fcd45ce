"""Terms and the single-assignment store.

Terms are immutable apart from the binding slot of variables.  A variable
is identified by a VarId ``(origin_node, seq)``; the total order on VarIds
fixes the direction of variable-variable bindings (greater binds to
lesser), which keeps class representatives canonical across replicas of a
distributed store.

The store supports rational trees: unification has no occurs check, cycles
are legal values, and both unification and equality testing terminate on
cyclic terms by memoizing visited pairs of compound nodes.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Optional

from .errors import RuntimeFailure

VarId = tuple[int, int]  # (origin_node, seq)

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1

_closure_serial = itertools.count(1)


class Term:
    __slots__ = ()


class Var(Term):
    """A dataflow variable.  ``ref`` is None while unbound.

    ``waiters`` holds ids of threads suspended on the variable's value;
    ``byneed`` holds ids of threads suspended until the variable is needed.
    Both are created lazily.  ``needed`` is sticky: it stays set after the
    variable is bound.
    """

    __slots__ = ("vid", "ref", "waiters", "byneed", "needed")

    def __init__(self, vid: VarId):
        self.vid = vid
        self.ref: Optional[Term] = None
        self.waiters: Optional[set[int]] = None
        self.byneed: Optional[set[int]] = None
        self.needed = False

    def __repr__(self):
        state = "free" if self.ref is None else "bound"
        return f"<Var {self.vid[0]}.{self.vid[1]} {state}>"


class Atom(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other):
        return isinstance(other, Atom) and other.name == self.name

    def __hash__(self):
        return hash(("atom", self.name))

    def __repr__(self):
        return f"Atom({self.name})"


class Int(Term):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, Int) and other.value == self.value

    def __hash__(self):
        return hash(("int", self.value))

    def __repr__(self):
        return f"Int({self.value})"


class Compound(Term):
    __slots__ = ("label", "args")

    def __init__(self, label: str, args: list[Term]):
        self.label = label
        self.args = args

    def __repr__(self):
        return f"Compound({self.label}/{len(self.args)})"


class Closure(Term):
    """A procedure value.  Unifies by identity only."""

    __slots__ = ("name", "params", "body", "env", "serial")

    def __init__(self, name: str, params, body, env):
        self.name = name
        self.params = params
        self.body = body
        self.env = env
        self.serial = next(_closure_serial)

    @property
    def arity(self) -> int:
        return len(self.params)

    def __repr__(self):
        return f"<proc {self.name}/{self.arity}>"


class NativeProc(Term):
    """A built-in procedure value (arithmetic, Browse, SolveAll, ...)."""

    __slots__ = ("name", "arity", "fn", "serial")

    def __init__(self, name: str, arity: int, fn):
        self.name = name
        self.arity = arity
        self.fn = fn
        self.serial = next(_closure_serial)

    def __repr__(self):
        return f"<builtin {self.name}/{self.arity}>"


class Opaque(Term):
    """A native payload threaded through kernel code (e.g. a paused search
    engine behind a lazy solution stream).  Unifies by identity."""

    __slots__ = ("tag", "payload", "serial")

    def __init__(self, tag: str, payload):
        self.tag = tag
        self.payload = payload
        self.serial = next(_closure_serial)

    def __repr__(self):
        return f"<{self.tag}#{self.serial}>"


NIL = Atom("nil")
TRUE = Atom("true")
FALSE = Atom("false")
UNIT = Atom("unit")

CONS = "|"


def cons(head: Term, tail: Term) -> Compound:
    return Compound(CONS, [head, tail])


def make_list(items: Iterable[Term]) -> Term:
    out: Term = NIL
    for item in reversed(list(items)):
        out = cons(item, out)
    return out


def is_cons(t: Term) -> bool:
    return isinstance(t, Compound) and t.label == CONS and len(t.args) == 2


class UnifyResult:
    __slots__ = ("ok", "woken", "reason")

    def __init__(self, ok: bool, woken: set[int], reason: str = ""):
        self.ok = ok
        self.woken = woken
        self.reason = reason


_NO_WAKES: frozenset = frozenset()
# The result of every unification that succeeds and wakes no thread.
_UNIFIED = UnifyResult(True, _NO_WAKES)


def _node_key(t: Term):
    # Identity key for the pair memo.  Unbound variables key by VarId so
    # that replica stores agree; other nodes key by object identity.
    if isinstance(t, Var):
        return t.vid
    return id(t)


class Store:
    """Single-assignment store with suspension registry and trail stack.

    ``vars`` registers only the variables whose VarId can come back to
    this store from outside: its own variables once exported (sent to
    another node in a snapshot, or shared by placement), and the replicas
    of other stores' variables it has interned.  ``intern`` resolves a
    VarId through this registry alone.  Every other variable is reachable
    only through the terms and environments that mention it, and is freed
    with them; a search engine finds the outside variables of an answer
    in the answer's snapshot, not here.

    ``trails`` is a stack of undo logs: one per guard being evaluated, and
    a search engine's own log while the engine runs (it keeps the log, and
    its bindings, between runs).  While any log is on the stack,
    dereference chains are not path-compressed, so that undoing restores
    the exact previous state.
    """

    def __init__(self, node_id: int = 0):
        self.node_id = node_id
        self.next_seq = 1
        self.vars: dict[VarId, Var] = {}
        self.trails: list[list] = []
        # While a search engine runs: whether it owns a VarId (else None).
        self.owns: Optional[Callable[[VarId], bool]] = None
        self.dist = None  # distribution hooks, set by the network simulator

    # -- variables ---------------------------------------------------

    def new_var(self) -> Var:
        """A fresh variable of this store.  It is not registered: call
        :meth:`export` before its VarId leaves the store."""
        vid = (self.node_id, self.next_seq)
        self.next_seq += 1
        return Var(vid)

    def export(self, var: Var) -> None:
        """Register ``var`` under its VarId, so that :meth:`intern` of the
        VarId finds this very variable.  Called for each variable whose
        VarId leaves the store, before it leaves."""
        self.vars[var.vid] = var

    def intern(self, vid: VarId) -> Var:
        """Return the registered variable of ``vid``: an exported
        variable of this store or the replica of another store's
        variable, which is created and registered on first sight.  A
        variable that was never exported cannot be found here."""
        v = self.vars.get(vid)
        if v is None:
            v = Var(vid)
            self.vars[vid] = v
            if vid[0] == self.node_id and vid[1] >= self.next_seq:
                self.next_seq = vid[1] + 1
            if self.dist is not None and vid[0] != self.node_id:
                self.dist.on_new_proxy(self, v)
        return v

    def deref(self, t: Term) -> Term:
        if type(t) is not Var or t.ref is None:
            return t
        chain = []
        while type(t) is Var and t.ref is not None:
            chain.append(t)
            t = t.ref
        if not self.trails:
            # Path compression is safe only when no undo log is active.
            for v in chain:
                v.ref = t
        return t

    # -- trail -------------------------------------------------------

    def push_trail(self) -> None:
        self.trails.append([])

    def trail_mark(self) -> int:
        return len(self.trails[-1])

    def undo_to(self, mark: int) -> None:
        trail = self.trails[-1]
        while len(trail) > mark:
            kind, var = trail.pop()
            if kind == "bind":
                var.ref = None
            else:  # "need"
                var.needed = False

    def pop_trail(self, merge: bool) -> list:
        """Drop the innermost trail.  With ``merge`` the entries are
        appended to the enclosing trail (committed guard inside an
        engine); otherwise the caller has already undone them."""
        entries = self.trails.pop()
        if merge and self.trails:
            self.trails[-1].extend(entries)
        return entries

    # -- binding -----------------------------------------------------

    def _bind_local(self, var: Var, value: Term):
        """Unconditionally bind an unbound variable of this store; return
        the threads to wake (a shared empty set when there are none)."""
        if self.trails:
            self.trails[-1].append(("bind", var))
        var.ref = value
        if not (var.waiters or var.byneed or var.needed):
            return _NO_WAKES
        woken: set[int] = set()
        if var.waiters:
            woken |= var.waiters
            var.waiters = None
        if var.byneed:
            woken |= var.byneed
            var.byneed = None
        if var.needed:
            target = self.deref(value)
            if isinstance(target, Var):
                woken |= self.mark_needed(target)
        return woken

    def bind_notified(self, var: Var, value: Term) -> set[int]:
        """Apply an owner-authorized binding to a replica variable."""
        return self._bind_local(var, value)

    def mark_needed(self, var: Var) -> set[int]:
        if var.needed:
            return set()
        if self.trails:
            self.trails[-1].append(("need", var))
        var.needed = True
        woken: set[int] = set()
        if var.byneed:
            woken |= var.byneed
            var.byneed = None
        return woken

    # -- suspension registry ------------------------------------------

    def add_waiter(self, var: Var, tid: int) -> set[int]:
        """Register a value waiter.  Waiting on a value makes the
        variable needed, which may wake by-need waiters."""
        if var.waiters is None:
            var.waiters = set()
        var.waiters.add(tid)
        return self.mark_needed(var)

    def add_byneed_waiter(self, var: Var, tid: int) -> None:
        if var.byneed is None:
            var.byneed = set()
        var.byneed.add(tid)

    def drop_waiter(self, var: Var, tid: int) -> None:
        if var.waiters:
            var.waiters.discard(tid)
        if var.byneed:
            var.byneed.discard(tid)

    # -- unification ---------------------------------------------------

    def unify(self, t1: Term, t2: Term,
              pending: Optional[list] = None) -> UnifyResult:
        """Unify two terms, binding variables in this store.

        Pairs are settled one at a time from a LIFO stack, so the
        arguments of two compounds are unified last to first, and the
        first clash met ends the unification with what was bound before
        it.  ``pending`` seeds the stack: a list of further pairs, taken
        from its end once ``(t1, t2)`` is settled, which the call uses up.
        The compiled ``X = f(...)`` passes the argument pairs of a
        compound it did not build this way (read mode, see
        ``runtime.unify_compound``), so that they are settled exactly as
        if the compound had been built and unified with ``X``'s value.

        A variable-variable pair binds the greater VarId to the lesser,
        except that a running search engine (``owns``) binds its own
        variable rather than an outside one.  Only the two kinds of pair
        whose repeat would be seen are memoised: a pair of compounds, so
        that unification terminates on rational trees, and a bind
        forwarded to its owner (below), whose replica stays unbound and
        would be forwarded again.  Any other pair is settled for good when
        first met: a variable bound here dereferences to its value next
        time.

        Under distribution, only the owner binds authoritatively; a
        non-owner forwards the request and leaves its replica unchanged
        (the unification proceeds treating the pair as provisionally
        merged; the owner's BindNotify completes it).  Speculative
        execution (an active trail: guard evaluation or an embedded search
        engine) never messages other nodes: such binds are either undone,
        or are of variables created inside the speculation itself, which
        no other node can know about yet."""
        deref = self.deref
        dist = self.dist
        woken = None
        seen = None      # memo: compound pairs and forwarded binds
        stack = pending
        a, b = t1, t2
        while True:
            ta, tb = type(a), type(b)
            if ta is Var and a.ref is not None:
                a = deref(a)
                ta = type(a)
            if tb is Var and b.ref is not None:
                b = deref(b)
                tb = type(b)
            if a is b:
                pass
            elif ta is Var or tb is Var:
                if ta is not Var or (tb is Var and a.vid < b.vid):
                    var, value = b, a
                else:
                    var, value = a, b
                if ta is tb and self.owns is not None and (
                        not self.owns(var.vid) and self.owns(value.vid)):
                    var, value = value, var     # two variables
                if dist is None or self.trails or var.vid[0] == self.node_id:
                    w = self._bind_local(var, value)
                    if w:
                        if woken is None:
                            woken = set()
                        woken |= w
                    if dist is not None and not self.trails:
                        dist.on_owner_bound(self, var)
                else:
                    pair = (_node_key(a), _node_key(b))
                    if seen is None:
                        seen = set()
                    if pair not in seen and (pair[1], pair[0]) not in seen:
                        seen.add(pair)
                        dist.request_bind(self, var, value)
            elif ta is Compound and tb is Compound:
                pair = (id(a), id(b))
                if seen is None:
                    seen = set()
                if pair not in seen and (pair[1], pair[0]) not in seen:
                    seen.add(pair)
                    xs, ys = a.args, b.args
                    if a.label != b.label or len(xs) != len(ys):
                        return UnifyResult(
                            False, woken or _NO_WAKES,
                            f"{a.label}/{len(xs)} = {b.label}/{len(ys)}")
                    if xs:
                        # Stack every pair but the last, and take the
                        # last at once: the order of a LIFO stack.
                        if len(xs) > 1:
                            if stack is None:
                                stack = []
                            stack.extend(zip(xs[:-1], ys[:-1]))
                        a, b = xs[-1], ys[-1]
                        continue
            elif ta is Atom and tb is Atom:
                if a.name != b.name:
                    return UnifyResult(False, woken or _NO_WAKES,
                                       f"{a.name} = {b.name}")
            elif ta is Int and tb is Int:
                if a.value != b.value:
                    return UnifyResult(False, woken or _NO_WAKES,
                                       f"{a.value} = {b.value}")
            else:
                # Procedure values and opaques unify by identity only;
                # distinct kinds always clash.
                return UnifyResult(False, woken or _NO_WAKES,
                                   "incompatible values")
            if not stack:
                return _UNIFIED if woken is None else UnifyResult(True, woken)
            a, b = stack.pop()

    # -- entailment ----------------------------------------------------

    def equals(self, t1: Term, t2: Term):
        """Ask whether the store entails t1 == t2.

        Returns ``(True, [])`` when entailed, ``(False, [])`` when
        disentailed, and ``(None, frontier)`` when some frontier variable
        could still decide the question either way; the frontier lists
        those unbound variables once each, in VarId order."""
        frontier: dict[VarId, Var] = {}
        visited: set[tuple] = set()
        stack = [(t1, t2)]
        while stack:
            a, b = stack.pop()
            a = self.deref(a)
            b = self.deref(b)
            if a is b:
                continue
            pair = (_node_key(a), _node_key(b))
            if pair in visited or (pair[1], pair[0]) in visited:
                continue
            visited.add(pair)
            if isinstance(a, Var) and isinstance(b, Var):
                if a.vid == b.vid:
                    continue
                frontier.setdefault(a.vid, a)
                frontier.setdefault(b.vid, b)
            elif isinstance(a, Var):
                frontier.setdefault(a.vid, a)
            elif isinstance(b, Var):
                frontier.setdefault(b.vid, b)
            elif isinstance(a, Atom) and isinstance(b, Atom):
                if a.name != b.name:
                    return False, []
            elif isinstance(a, Int) and isinstance(b, Int):
                if a.value != b.value:
                    return False, []
            elif isinstance(a, Compound) and isinstance(b, Compound):
                if a.label != b.label or len(a.args) != len(b.args):
                    return False, []
                stack.extend(zip(a.args, b.args))
            else:
                return False, []
        if frontier:
            return None, [frontier[vid] for vid in sorted(frontier)]
        return True, []


# -- standard order of terms ------------------------------------------


def _rank(t: Term) -> int:
    if isinstance(t, Var):
        return 0
    if isinstance(t, Int):
        return 1
    if isinstance(t, Atom):
        return 2
    if isinstance(t, Compound):
        return 3
    return 4


def compare_terms(store: Store, t1: Term, t2: Term) -> int:
    """Total order: unbound vars (by id) < ints (by value) < atoms
    (lexicographic) < compounds (arity, then label, then args).  Cyclic
    pairs compare equal once every reachable pair matches."""
    visited: set[tuple] = set()
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        a = store.deref(a)
        b = store.deref(b)
        if a is b:
            continue
        pair = (_node_key(a), _node_key(b))
        if pair in visited or (pair[1], pair[0]) in visited:
            continue
        visited.add(pair)
        ra, rb = _rank(a), _rank(b)
        if ra != rb:
            return -1 if ra < rb else 1
        if isinstance(a, Var):
            if a.vid == b.vid:
                continue
            return -1 if a.vid < b.vid else 1
        if isinstance(a, Int):
            if a.value != b.value:
                return -1 if a.value < b.value else 1
        elif isinstance(a, Atom):
            if a.name != b.name:
                return -1 if a.name < b.name else 1
        elif isinstance(a, Compound):
            ka = (len(a.args), a.label)
            kb = (len(b.args), b.label)
            if ka != kb:
                return -1 if ka < kb else 1
            # Args decide left-to-right: push in reverse so the leftmost
            # differing pair is examined first.
            stack.extend(reversed(list(zip(a.args, b.args))))
        else:
            ka = (getattr(a, "name", ""), a.serial)
            kb = (getattr(b, "name", ""), b.serial)
            if ka != kb:
                return -1 if ka < kb else 1
    return 0


# -- rendering ----------------------------------------------------------


def _atom_text(name: str) -> str:
    if name and (name[0].islower() and name.replace("_", "a").isalnum()):
        return name
    return f"'{name}'"


def render(store: Store, term: Term) -> str:
    """Canonical one-line rendering.

    Proper lists print as ``[a b c]``, partial/improper lists in operator
    form ``a|b|_G1``, unbound variables as ``_G<n>`` numbered in encounter
    order (so the text is schedule-independent), and cycles as ``@k`` back
    references to the k-th cycle target in encounter order."""
    var_names: dict[VarId, str] = {}
    cycle_labels: dict[int, int] = {}

    def var_name(v: Var) -> str:
        name = var_names.get(v.vid)
        if name is None:
            name = f"_G{len(var_names) + 1}"
            var_names[v.vid] = name
        return name

    def label_for(node: Term) -> int:
        k = cycle_labels.get(id(node))
        if k is None:
            k = len(cycle_labels) + 1
            cycle_labels[id(node)] = k
        return k

    # The walk is iterative so that deep terms cannot exhaust the Python
    # stack.  ``work`` is a LIFO of terms to render, literal text, and
    # tuples of node ids that leave ``path`` once their subterms are done;
    # ``path`` holds the compounds between the root and the current term.
    out: list[str] = []
    path: set[int] = set()
    work: list = [term]
    while work:
        item = work.pop()
        if type(item) is str:
            out.append(item)
            continue
        if type(item) is tuple:
            path.difference_update(item)
            continue
        t = store.deref(item)
        if isinstance(t, Var):
            out.append(var_name(t))
        elif isinstance(t, Int):
            out.append(str(t.value) if t.value >= 0 else f"~{-t.value}")
        elif isinstance(t, Atom):
            out.append(_atom_text(t.name))
        elif isinstance(t, (Closure, NativeProc)):
            out.append(f"<P/{t.arity} {getattr(t, 'name', '$')}>")
        elif isinstance(t, Opaque):
            out.append(f"<{t.tag}>")
        elif id(t) in path:
            out.append(f"@{label_for(t)}")
        elif is_cons(t):
            # Walk the spine; decide between [..] and a|b|c.
            spine: list[Term] = []
            spine_ids: set[int] = set()
            cur: Term = t
            tail: Optional[Term] = None
            while True:
                cur = store.deref(cur)
                if is_cons(cur):
                    if id(cur) in path or id(cur) in spine_ids:
                        # A cyclic tail: by the time it is popped it is
                        # on the path, so it renders as a back reference.
                        tail = cur
                        break
                    spine.append(cur.args[0])
                    spine_ids.add(id(cur))
                    cur = cur.args[1]
                else:
                    if not (isinstance(cur, Atom) and cur.name == "nil"):
                        tail = cur
                    break
            path |= spine_ids
            items: list = []
            if tail is None:
                items.append("[")
                for i, el in enumerate(spine):
                    if i:
                        items.append(" ")
                    items.append(el)
                items.append("]")
            else:
                for el in spine:
                    items += (el, "|")
                items.append(tail)
            items.append(tuple(spine_ids))
            work.extend(reversed(items))
        else:
            path.add(id(t))
            out.append(_atom_text(t.label) if t.label != CONS else CONS)
            out.append("(")
            work.append((id(t),))
            work.append(")")
            for i in range(len(t.args) - 1, -1, -1):
                work.append(t.args[i])
                if i:
                    work.append(" ")
    return "".join(out)


# -- snapshots (graph serialization) -------------------------------------


class Snapshot:
    """Self-contained serialization of a term graph.

    ``nodes[i]`` is one of ``("var", vid)``, ``("atom", name)``,
    ``("int", value)``, ``("compound", label, child_indices)`` or
    ``("closure", object)``.  Cycles are encoded through indices.
    Frontier variables (per ``keep_var``) keep their VarId; all other
    unbound variables serialize as ``("var", None)`` and materialize
    fresh.

    ``kept`` maps the VarId of each frontier variable to the variable
    itself, for a snapshot that stays in its store; it is None in a
    snapshot for the network, whose frontier variables are exported
    instead, to be found by ``intern``."""

    __slots__ = ("root", "nodes", "kept")

    def __init__(self, root: int, nodes: list, kept: Optional[dict] = None):
        self.root = root
        self.nodes = nodes
        self.kept = kept

    def size(self) -> int:
        return len(self.nodes)


def snapshot(store: Store, term: Term,
             keep_var: Callable[[VarId], bool],
             for_network: bool = False) -> Snapshot:
    """Serialize the graph of ``term``; see :class:`Snapshot`.  With
    ``for_network`` each frontier variable is exported from ``store``."""
    nodes: list = []
    index: dict = {}
    work: list = []
    kept: Optional[dict] = None if for_network else {}

    def encode(t: Term) -> int:
        t = store.deref(t)
        key = _node_key(t)
        got = index.get(key)
        if got is not None:
            return got
        idx = len(nodes)
        index[key] = idx
        if isinstance(t, Var):
            if keep_var(t.vid):
                if kept is None:
                    store.export(t)
                else:
                    kept[t.vid] = t
                nodes.append(("var", t.vid))
            else:
                nodes.append(("var", None))
        elif isinstance(t, Atom):
            nodes.append(("atom", t.name))
        elif isinstance(t, Int):
            nodes.append(("int", t.value))
        elif isinstance(t, Compound):
            # Allocate the shell now so cycles resolve; fill children later
            # from the work queue (keeps encoding iterative on deep terms).
            cell = ["compound", t.label, None]
            nodes.append(cell)
            work.append((cell, t.args))
        else:
            if for_network:
                raise RuntimeFailure(f"{t!r} cannot be sent between nodes")
            nodes.append(("closure", t))
        return idx

    root = encode(term)
    while work:
        cell, args = work.pop()
        cell[2] = [encode(a) for a in args]
    return Snapshot(root, nodes, kept)


def materialize(store: Store, snap: Snapshot,
                resolve_var: Callable[[Optional[VarId]], Var]) -> Term:
    """Rebuild a snapshot in ``store``.  ``resolve_var`` maps a frontier
    VarId (or None for an anonymous fresh variable) to a Var of the
    target store."""
    built: list[Optional[Term]] = [None] * len(snap.nodes)
    # First pass: create shells so cycles can point back.
    for i, node in enumerate(snap.nodes):
        kind = node[0]
        if kind == "var":
            built[i] = resolve_var(node[1])
        elif kind == "atom":
            built[i] = Atom(node[1])
        elif kind == "int":
            built[i] = Int(node[1])
        elif kind == "compound":
            built[i] = Compound(node[1], [])
        else:  # closure passed by reference
            built[i] = node[1]
    for i, node in enumerate(snap.nodes):
        if node[0] == "compound":
            built[i].args.extend(built[j] for j in node[2])
    return built[snap.root]


# -- cross-store structural equality --------------------------------------


def bisimilar(store_a: Store, ta: Term, store_b: Store, tb: Term,
              strict_vars: bool = False) -> bool:
    """Structural (bisimulation) equality of two term graphs, possibly
    living in different stores.  Unbound variables match one-to-one; with
    ``strict_vars`` they must carry the same VarId (replica check)."""
    fwd: dict = {}
    bwd: dict = {}
    visited: set[tuple] = set()
    stack = [(ta, tb)]
    while stack:
        a, b = stack.pop()
        a = store_a.deref(a)
        b = store_b.deref(b)
        pair = (_node_key(a), _node_key(b))
        if pair in visited:
            continue
        visited.add(pair)
        if isinstance(a, Var) or isinstance(b, Var):
            if not (isinstance(a, Var) and isinstance(b, Var)):
                return False
            if strict_vars:
                if a.vid != b.vid:
                    return False
                continue
            if fwd.get(a.vid, b.vid) != b.vid or bwd.get(b.vid, a.vid) != a.vid:
                return False
            fwd[a.vid] = b.vid
            bwd[b.vid] = a.vid
        elif isinstance(a, Atom) and isinstance(b, Atom):
            if a.name != b.name:
                return False
        elif isinstance(a, Int) and isinstance(b, Int):
            if a.value != b.value:
                return False
        elif isinstance(a, Compound) and isinstance(b, Compound):
            if a.label != b.label or len(a.args) != len(b.args):
                return False
            stack.extend(zip(a.args, b.args))
        else:
            if a is not b:
                return False
    return True


def list_to_python(store: Store, term: Term, limit: int = 10**7) -> list[Term]:
    """Strict list to Python list.  Raises on an unbound or improper tail."""
    out = []
    t = store.deref(term)
    while True:
        if isinstance(t, Atom) and t.name == "nil":
            return out
        if not is_cons(t):
            raise RuntimeFailure(f"not a proper list (tail {t!r})")
        out.append(store.deref(t.args[0]))
        t = store.deref(t.args[1])
        if len(out) > limit:
            raise RuntimeFailure("list too long")
