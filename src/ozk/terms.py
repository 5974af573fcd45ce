"""Terms and the single-assignment store.

Terms are immutable apart from the binding slot of variables.  A variable
is identified by a VarId ``(origin_node, seq)``; the total order on VarIds
fixes the direction of variable-variable bindings (greater binds to
lesser), which keeps class representatives canonical across replicas of a
distributed store.

The store supports rational trees: unification has no occurs check, cycles
are legal values, and both unification and equality testing terminate on
cyclic terms by memoizing visited pairs of compound nodes.

While a trail is active, each change to a variable is logged on it, in
one of two entry forms: a binding is the ``Var`` itself, undone by
unbinding it, and a need mark is the 1-tuple ``(var,)``, undone by
clearing ``needed``.  Each reader (``Store.undo_to``, a space's escape
check) tells them apart with ``type(entry) is Var``.

Binding a variable, or marking it needed, wakes the threads suspended
on it through the store's ``wake`` hook, which the runtime sets: the
waiter set is detached from the variable before the hook runs.  A
unification returns nothing but its clash.

A variable may hold by-need triggers, a tuple of the frames of lazy
bodies (``Var.trigger``).  Need fires them through the store's ``fire``
hook, which the runtime sets: a need mark (``Store.mark_needed``), or a
binding of the variable, which instead moves them to an unbound
variable nothing needs yet.  The runtime takes them off the variable
when a thread enters one in place.  Under a trail, triggers are left
where they are: a speculative need or binding is undone, or, being of
an outside variable, an error.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from typing import Callable, Iterable, Optional

from .errors import QuietGuardViolation, RuntimeFailure

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
    variable is bound.  ``trigger`` holds the by-need triggers of an
    unbound variable that is not needed: a tuple of the frames of the lazy
    bodies waiting for the need (``runtime.Runtime.by_need``), else None.
    A trigger lives here and nowhere else, so one that is never needed is
    freed with its variable.
    """

    __slots__ = ("vid", "ref", "waiters", "byneed", "needed", "trigger")

    def __init__(self, vid: VarId):
        self.vid = vid
        self.ref: Optional[Term] = None
        self.waiters: Optional[set[int]] = None
        self.byneed: Optional[set[int]] = None
        self.needed = False
        self.trigger = None

    def add_trigger(self, frames: tuple) -> None:
        """Leave the trigger ``frames`` on this unbound variable, after any
        it already has."""
        old = self.trigger
        self.trigger = frames if old is None else old + frames

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
    """A procedure value: its compiled code (``compiler.Code``) and the
    values of its free names, captured when it was made.  Unifies by
    identity only."""

    __slots__ = ("name", "code", "env", "serial")

    def __init__(self, name: str, code, env: list):
        self.name = name
        self.code = code
        self.env = env
        self.serial = next(_closure_serial)

    @property
    def arity(self) -> int:
        return self.code.arity

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


NIL = Atom("nil")
TRUE = Atom("true")
FALSE = Atom("false")

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
    """A failed unification: the pair that clashed (``clash``), whose
    text (``reason``) is made only when it is read."""
    __slots__ = ("clash",)

    def __init__(self, clash: tuple):
        self.clash = clash

    @property
    def reason(self) -> str:
        a, b = self.clash
        ta, tb = type(a), type(b)
        if ta is tb is Atom:
            return f"{a.name} = {b.name}"
        if ta is tb is Int:
            return f"{a.value} = {b.value}"
        # two compounds, or a compound and the compiled one it was
        # matched against (``runtime.unify_compound``)
        if hasattr(a, "args") and hasattr(b, "args"):
            return f"{a.label}/{len(a.args)} = {b.label}/{len(b.args)}"
        return "incompatible values"


def _node_key(t: Term):
    # Identity key for the pair memo.  Unbound variables key by VarId so
    # that replica stores agree; other nodes key by object identity.
    if isinstance(t, Var):
        return t.vid
    return id(t)


class Store:
    """Single-assignment store with suspension registry and trail stack.

    The store wakes the threads suspended on a variable itself: a binding
    wakes its value and by-need waiters, and a need mark its by-need
    waiters, through the ``wake`` hook, as it fires triggers through the
    ``fire`` hook.  No caller of a unification wakes anything.

    ``vars`` registers only the variables whose VarId can come back to
    this store from outside: its own variables once exported (sent to
    another node in a snapshot, or shared by placement), and the replicas
    of other stores' variables it has interned.  ``intern`` resolves a
    VarId through this registry alone.  Every other variable is reachable
    only through the terms and environments that mention it, and is freed
    with them; a search engine finds the outside variables of an answer
    in the answer's snapshot, not here.

    ``trails`` is a stack of undo logs, the trail of each entered
    :class:`Space` (a guard being evaluated, or a running search engine,
    which keeps its log and its bindings between runs).  While any log is
    on the stack, dereference chains are not path-compressed, so that
    undoing restores the exact previous state.
    """

    def __init__(self, node_id: int = 0):
        self.node_id = node_id
        self.next_seq = 1
        self.vars: dict[VarId, Var] = {}
        self.trails: list[list] = []
        # While a space is entered: whether it owns a VarId (else None).
        self.owns: Optional[Callable[[VarId], bool]] = None
        self.dist = None  # distribution hooks, set by the network simulator
        # Runs a trigger that a need reached, or a binding set off (see
        # ``mark_needed``): set by the runtime over this store.
        self.fire: Optional[Callable] = None
        # Makes runnable the threads of a set of ids, detached from the
        # variable they waited on, that a binding or a need woke: set by
        # the runtime over this store.
        self.wake: Optional[Callable] = None

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
        if self.trails:
            # Path compression is safe only when no undo log is active:
            # under one, the chain is only walked.
            t = t.ref
            while type(t) is Var and t.ref is not None:
                t = t.ref
            return t
        chain = []
        while type(t) is Var and t.ref is not None:
            chain.append(t)
            t = t.ref
        for v in chain:
            v.ref = t
        return t

    # -- trail -------------------------------------------------------

    def undo_to(self, mark: int) -> None:
        """Undo the entries of the innermost trail past ``mark``, newest
        first: a binding (the variable) is unbound, and a need mark (a
        1-tuple of the variable) cleared."""
        trail = self.trails[-1]
        for _ in range(len(trail) - mark):
            entry = trail.pop()
            if type(entry) is Var:
                entry.ref = None
            else:
                entry[0].needed = False

    def pop_trail(self, merge: bool) -> None:
        """Drop the innermost trail.  With ``merge`` the entries are
        appended to the enclosing trail, if any (a guard that commits);
        otherwise the caller has already undone them, or keeps them
        (an engine stopped at an answer)."""
        entries = self.trails.pop()
        if merge and self.trails:
            self.trails[-1].extend(entries)

    # -- binding -----------------------------------------------------

    def _bind_local(self, var: Var, value: Term) -> None:
        """Unconditionally bind an unbound variable of this store, and wake
        the threads that wait on it, by value or by need (see ``wake``).

        A trigger on ``var`` moves to the variable ``var`` is now bound
        to, when that is unbound and not needed, as the need has still not
        come; else the binding fires it.  Under a trail (a guard or an
        engine) a trigger stays where it is: that binding is either undone
        or, being of a variable from outside, an error."""
        if self.trails:
            self.trails[-1].append(var)
        var.ref = value
        if not (var.waiters or var.byneed or var.needed or var.trigger):
            return
        if var.needed:
            target = self.deref(value)
            if isinstance(target, Var):
                self.mark_needed(target)
        elif var.trigger and not self.trails:
            trigger = var.trigger
            var.trigger = None
            target = self.deref(value)
            if type(target) is Var and not target.needed:
                target.add_trigger(trigger)
            else:
                self.fire(trigger)
        waiters = var.waiters
        if waiters:
            var.waiters = None
            self.wake(waiters)
        waiters = var.byneed
        if waiters:
            var.byneed = None
            self.wake(waiters)

    def mark_needed(self, var: Var) -> None:
        """Mark ``var`` needed: wake its by-need waiters, and fire its
        trigger (see ``fire``), which then has a need.  Under a trail the
        trigger stays, as the mark may be undone."""
        if var.needed:
            return
        if self.trails:
            self.trails[-1].append((var,))
        elif var.trigger:
            trigger = var.trigger
            var.trigger = None
            self.fire(trigger)
        var.needed = True
        waiters = var.byneed
        if waiters:
            var.byneed = None
            self.wake(waiters)

    # -- suspension registry ------------------------------------------

    def add_waiter(self, var: Var, tid: int) -> None:
        """Register a value waiter.  Waiting on a value makes the
        variable needed, which may wake by-need waiters."""
        if var.waiters is None:
            var.waiters = set()
        var.waiters.add(tid)
        self.mark_needed(var)

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
              pending: Optional[list] = None) -> Optional[UnifyResult]:
        """Unify two terms, binding variables in this store: None when
        they unify, else the failed :class:`UnifyResult`.  Each binding
        wakes its waiters as it is made (``_bind_local``), so a
        unification that stops at a clash has already woken the threads
        of what it bound before it.

        Pairs are settled one at a time from a LIFO stack, so the
        arguments of two compounds are unified last to first, and the
        first clash met ends the unification with what was bound before
        it.  ``pending`` seeds the stack: a list of further pairs, taken
        from its end once ``(t1, t2)`` is settled, which the call uses up.
        The compiled ``X = f(...)`` passes the argument pairs of a
        compound it did not build this way (read mode, see
        ``runtime.unify_compound``), so that they are settled exactly as
        if the compound had been built and unified with ``X``'s value;
        a lone pair of an atomic value it settles itself.

        A variable-variable pair binds the greater VarId to the lesser,
        except that an entered space (``owns``, :class:`Space`) binds its
        own variable rather than an outside one.  Only a pair of compounds
        is memoised, so that unification terminates on rational trees; any
        other pair is settled for good when first met: a variable bound
        here dereferences to its value next time.

        Under distribution, only the owner binds a variable.  A binding of
        another node's variable is sent to its owner (``request_bind``),
        which raises ``Suspend`` by need on the replica: the statement
        waits, with what it bound before kept, and runs again once the
        owner's binding has arrived (of a native's, only its bind:
        ``builtins._bind``), when it finds the value it asked for or
        fails in its own thread.  Speculative execution (an active
        trail: guard evaluation or an embedded search engine) never
        messages other nodes: such binds are either undone, or are of
        variables created inside the speculation itself, which no other
        node can know about yet."""
        deref = self.deref
        dist = self.dist
        seen = None      # memo: compound pairs
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
                    self._bind_local(var, value)
                    if dist is not None and not self.trails:
                        dist.on_owner_bound(self, var)
                else:
                    dist.request_bind(self, var, value)
            elif ta is Compound and tb is Compound:
                pair = (id(a), id(b))
                if seen is None:
                    seen = set()
                if pair not in seen and (pair[1], pair[0]) not in seen:
                    seen.add(pair)
                    xs, ys = a.args, b.args
                    if a.label != b.label or len(xs) != len(ys):
                        return UnifyResult((a, b))
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
                    return UnifyResult((a, b))
            elif ta is Int and tb is Int:
                if a.value != b.value:
                    return UnifyResult((a, b))
            else:
                # Procedure values unify by identity only;
                # distinct kinds always clash.
                return UnifyResult((a, b))
            if not stack:
                return None
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


# -- encapsulated computation ---------------------------------------------


class Space:
    """A computation encapsulated on the shared store: a deep guard, or a
    search engine (``search.Engine``, a space with choicepoints), one
    primitive for both as in C. Schulte, *Programming Constraint
    Services* (LNAI 2302, 2002).

    A space is entered when it is made.  While it is entered its trail is
    the innermost on the store's stack and its rule is the store's
    ``owns``: it owns the variables of this store made while it is
    entered, the seqs from ``mark`` on, and those of its earlier entries,
    the ``[lo, hi)`` ranges flat in ``bounds`` (lo1, hi1, ...); of an own
    and an outside variable it binds its own (``Store.unify``).
    :meth:`leave` either undoes its trail, keeps its bindings in place for
    a later :meth:`enter` (an engine built, or stopped at an answer), or
    merges its trail into the enclosing one (a guard that commits).

    It may bind no variable it does not own: :meth:`check_escapes` scans
    its trail from ``checked`` on and raises ``Escape``.  A guard scans its
    whole trail once, when it commits, so a binding that its own failure
    undoes is no error; an engine scans after each step that grew the
    trail, and raises its own ``Escape``."""

    __slots__ = ("store", "trail", "mark", "bounds", "checked", "outer")

    Escape = QuietGuardViolation
    escape_text = "guard bound a variable that exists outside it"

    def __init__(self, store: Store):
        """Make a space over ``store`` and enter it."""
        self.store = store
        self.trail: list = []    # on the store's stack only while entered
        self.bounds: list[int] = []
        self.checked = 0         # trail entries already scanned
        store.trails.append(self.trail)
        self.outer, store.owns = store.owns, self.owns
        self.mark = store.next_seq

    def enter(self) -> None:
        """Enter again, after leaving with ``"keep"``."""
        store = self.store
        store.trails.append(self.trail)
        self.outer, store.owns = store.owns, self.owns
        self.mark = store.next_seq
        if self.bounds[-1] == self.mark:
            # nothing was made since the last entry: continue its range
            self.mark = self.bounds[-2]
            del self.bounds[-2:]

    def leave(self, mode: str) -> None:
        """Stop running, as ``mode`` says: ``"undo"`` every binding,
        ``"keep"`` them in place for the next entry, or ``"merge"`` the
        trail into the enclosing one."""
        store = self.store
        if mode == "undo":
            store.undo_to(0)
        elif mode == "keep":
            self.bounds += (self.mark, store.next_seq)
        store.pop_trail(merge=mode == "merge")
        store.owns = self.outer

    def owns(self, vid: VarId) -> bool:
        return vid[0] == self.store.node_id and (
            vid[1] >= self.mark or bisect_right(self.bounds, vid[1]) % 2 == 1)

    def outside(self, vid: VarId) -> bool:
        return not self.owns(vid)

    def undo(self, mark: int) -> None:
        """Undo the trail to ``mark``; the scan goes on from there."""
        self.store.undo_to(mark)
        if self.checked > mark:
            self.checked = mark

    def check_escapes(self, end: Optional[int] = None):
        """Raise ``Escape`` when a binding on the trail from ``checked`` to
        ``end`` (its end when None) is of a variable the space does not
        own; need marks (1-tuples) are skipped.  A space that raised is
        left with its trail undone, so ``checked`` is not kept then."""
        if end is None:
            end = len(self.trail)
        node = self.store.node_id
        mark = self.mark
        for var in self.trail[self.checked:end]:
            if type(var) is Var:
                vid = var.vid
                if (vid[1] < mark or vid[0] != node) and not self.owns(vid):
                    raise self.Escape(self.escape_text)
        self.checked = end


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

    A bound variable is encoded as its value.  Each unbound variable is
    one node, found by its VarId; each other term object is one node,
    found by its identity, so sharing and cycles are kept.  Node 0 is
    the root.  When a compound is expanded, its arguments are numbered
    left to right, each one not met before taking the next index, and
    then the compounds so numbered are expanded, the last one first.

    ``kept`` maps the VarId of each frontier variable to the variable
    itself, for a snapshot that stays in its store; it is None in a
    snapshot for the network, whose frontier variables are exported
    instead, to be found by ``intern``."""

    __slots__ = ("root", "nodes", "kept")

    def __init__(self, root: int, nodes: list, kept: Optional[dict] = None):
        self.root = root
        self.nodes = nodes
        self.kept = kept


def snapshot(store: Store, term: Term,
             keep_var: Callable[[VarId], bool],
             for_network: bool = False) -> Snapshot:
    """Serialize the graph of ``term``; see :class:`Snapshot`.  With
    ``for_network`` each frontier variable is exported from ``store``.

    One loop encodes the graph: each turn expands a compound, the newest
    one not yet expanded, and the root is the one argument of a first
    turn.  Only a bound variable is dereferenced (``Store.deref``, which
    compresses its chain when no trail is active)."""
    nodes: list = []
    index: dict = {}
    kept: Optional[dict] = None if for_network else {}
    top = [None, None, None]
    work = [(top, (term,))]
    deref = store.deref
    while work:
        cell, args = work.pop()
        children = []
        for t in args:
            kind = type(t)
            if kind is Var:
                if t.ref is not None:
                    t = deref(t)
                    kind = type(t)
                    key = t.vid if kind is Var else id(t)
                else:
                    key = t.vid
            else:
                key = id(t)
            idx = index.get(key)
            if idx is None:
                idx = index[key] = len(nodes)
                if kind is Compound:
                    # the shell now, so that cycles resolve; its children
                    # when its turn comes
                    child = ["compound", t.label, None]
                    nodes.append(child)
                    work.append((child, t.args))
                elif kind is Var:
                    if keep_var(t.vid):
                        if kept is None:
                            store.export(t)
                        else:
                            kept[t.vid] = t
                        nodes.append(("var", t.vid))
                    else:
                        nodes.append(("var", None))
                elif kind is Atom:
                    nodes.append(("atom", t.name))
                elif kind is Int:
                    nodes.append(("int", t.value))
                elif for_network:
                    raise RuntimeFailure(f"{t!r} cannot be sent between nodes")
                else:
                    nodes.append(("closure", t))
            children.append(idx)
        cell[2] = children
    return Snapshot(0, nodes, kept)


def materialize(store: Store, snap: Snapshot,
                lookup: Callable[[VarId], Var]) -> Term:
    """Rebuild a snapshot in ``store``.  ``lookup`` maps the VarId of a
    frontier variable to a variable of ``store``: ``store.intern`` for a
    snapshot from another node, the snapshot's ``kept.__getitem__`` for
    one that stays in its store.  Each anonymous variable is made fresh
    in ``store``.  One pass makes a term per node, the compounds empty,
    and their arguments are filled in after, so that cycles resolve."""
    built: list = []
    fill = []
    new_var = store.new_var
    for node in snap.nodes:
        kind = node[0]
        if kind == "compound":
            args: list = []
            built.append(Compound(node[1], args))
            fill.append((args, node[2]))
        elif kind == "var":
            built.append(new_var() if node[1] is None else lookup(node[1]))
        elif kind == "atom":
            built.append(Atom(node[1]))
        elif kind == "int":
            built.append(Int(node[1]))
        else:  # closure passed by reference
            built.append(node[1])
    for args, children in fill:
        args += [built[j] for j in children]
    return built[snap.root]
