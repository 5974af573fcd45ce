"""The compile pass: from the core statement AST to the form the
runtime runs.

One top-down walk turns each statement into an instruction and resolves
each name to a place: a slot of the activation frame it runs in.  A
frame is a list, made once per procedure call, per thread (or per
top-level piece): ``[code, parameters..., locals..., captures...]``.
Every name a procedure's body declares, its locals, its ``case``
captures, its guard variables and the locals of its choice
alternatives, gets a slot of its own in that one frame; a name that
shadows another simply gets another slot (alpha renaming), and sibling
scopes never share one.  A ``thread``'s body is compiled as a procedure
with no parameters, so its names live in a frame of its own and die
with the thread; so is the body of a ``lazy R then S end``, a ``fun
lazy``'s, whose frame waits on ``R`` as a trigger.  A name the body
uses but does not declare is captured: a closure (or a thread) copies
the values of its free names
out of the frame it is made in (a flat closure), and a call appends
them to the new frame, where they sit at negative slots (``-1`` is the
first captured), so no lookup walks a chain.  A top-level piece
captures its free names, the globals, from the session's dictionary by
name when it starts (:meth:`Code.frame`); no global is ever redeclared,
so the value taken then is the one a later lookup would find.

Every slot is written before it is read on every path, so frames are
never trailed: a ``local`` writes the names it makes when it is reached,
a first use writes the value it meets, a ``case`` arm its captures and
a guard its variables; after a backtrack, a failed guard or a failed
``case`` arm, the path taken writes a slot again before reading it.

Frames are safe for space (the WAM's environment trimming): a thread
clears each slot once its last read is done, so that a frame that stays
live does not keep, say, the head of a stream it has handed on.  One
backward walk over each compiled body (``_live``, over int masks of
slots) gives each instruction that reads a slot a ``clear``: the slots
it reads or writes that nothing reads after it, in the rest of the
bodies it is in.  A ``case`` or ``if`` has one for each arm (and one for
``otherwise``): the slots live into the statement, or written on
entering the arm, that neither the arm nor what follows reads.  The
last statement to run in a frame clears nothing, as the frame dies with
it.  The runtime clears in a thread's task only, after a reduction
completes; a statement that suspends runs again and clears nothing.  A
guard or a search engine never clears: a failed guard's next arm, and a
choicepoint's untried alternatives, read the same frame again.  Equal
clears are one shared tuple.

The instructions (each a slotted class, dispatched on by type):

* ``Body(made, pushed)``: a block or a ``local``: make a variable in each
  slot of ``made`` and push the statements, last first.  A procedure's
  body, an ``if`` or ``case`` arm, an ``else``, a thread's body and a
  trigger's that is a ``Body`` is entered by what pushes it, with no
  reduction of its own.  A ``Body`` that makes no variable is never a
  statement of another: its statements are spliced into the run of
  statements it stands in (``_Compiler.stmts``), so it costs no
  reduction there either.
* ``Lazy(slot, code)``: a ``lazy R then S end``, with ``R`` the slot
  ``slot``: the frame of ``code``, whose body is ``S``, is made as a
  ``thread``'s is and left as a trigger on ``R``'s value, or run at once
  as a thread when that is already needed or bound
  (``runtime.Runtime.by_need``).
* ``Unify(lhs, rhs)``, ``Call(target, args)``, ``Op`` (an integer
  operator), ``Builtin(name, args)`` (``==`` and ``$test``),
  ``Case``, ``If``, ``Choice``, ``Proc`` (a procedure definition),
  ``Thread``, ``SKIP`` and ``FAIL``.

An operand is a slot (an ``int``), a literal (an ``Atom`` or ``Int``),
``None`` for a void (``_`` as an argument of a compound), a ``Build``
(a compound to build) or a ``Fresh`` (a first use, see below).  A
``case`` pattern is the same kind of expression as an operand, but its
names are binding occurrences: it compiles to a literal, ``None`` for a
void, a new slot for each name it captures, and a tuple ``(label,
arity, args)`` for a compound.

The compound of a ``Unify`` whose other side is a slot (``X = f(...)``
or ``f(...) = X``) also has a read ``Plan``: what the WAM's ``unify_*``
instructions after a ``get_structure`` say.  It lists only the
arguments that are not voids, each tagged as a first use, a value (a
slot), a literal or a nested ``Build``, and splits them at compile
time: the first uses, as ``(index, slot)`` pairs, and the other pairs.
The runtime takes the plan when ``X`` is already a compound of that
label and arity (read mode).  It writes the first uses into the frame in
one loop, is then done if no other pair is left, and settles a lone
pair of an atomic value inline; a first use takes the argument it meets
even when that is a network's proxy.  A nested ``Build`` is still built
and unified: read mode stops at the first level.  No other ``Build`` has
a plan: a call's arguments are only ever built.

A name of a ``local`` whose first use is, in a statement of the local's
body itself, an occurrence in ``X = f(...)`` (as ``X`` or as an argument
of ``f``, once) or the result of an integer operator of which it is not
also an operand, is not made at entry: that occurrence is a ``Fresh``,
which stores the value it meets in the slot (the WAM's
``unify_variable`` for a first occurrence).  Nothing can read the name
before, as no earlier statement mentions it.  The one walk decides this
at the name's first mention: a ``local``'s names stay pending in the
scope (``_Pending``) until a mention, a nested procedure's, thread's or
trigger's included, puts the slot in their place; a statement of the
local's own body that meets a name still pending in one of those places
makes it a ``Fresh``, and the ``local`` makes the others.

The compiled form holds no session state: it can be cached with the
parse and shared between sessions.  Each :class:`Code` keeps the name
of each frame slot (``names``), which the deadlock report reads.
"""

from __future__ import annotations

import operator as _operator
from typing import Optional

from . import syntax as syn
from .errors import OzkError
from .syntax import CAnon, CCompound, CLit, CVar, expr_names

# -- operands ------------------------------------------------------------------


class Build:
    """A compound to build: its label and its arguments' operands."""
    __slots__ = ("label", "args")

    def __init__(self, label: str, args: tuple):
        self.label = label
        self.args = args


class Fresh:
    """The first use of a local name that its ``local`` does not make.
    Where a term is built it makes the variable; where it meets a value
    already there it takes that value; as an operator's result it is the
    value computed.  Either way the slot is set to what it stands for."""
    __slots__ = ("slot",)

    def __init__(self, slot: int):
        self.slot = slot


# The tag of each pair of a read plan: what stands at that argument.
READ_SLOT, READ_LITERAL, READ_BUILD = range(3)


class Plan:
    """The read plan of ``X = f(...)`` (or ``f(...) = X``), where ``X`` is
    the slot ``slot`` and ``f(...)`` the compound operand ``build``, whose
    ``label`` and ``arity`` read mode checks first.

    It lists only the arguments that are not voids, left to right, split
    in two: the first uses as ``(index, slot)`` pairs (``firsts``), and
    the others (``reads``) as ``(index, tag, operand)``: a value
    (``READ_SLOT``, with its slot), a literal (``READ_LITERAL``, with the
    term) or a nested compound (``READ_BUILD``, with its ``Build``).  Read
    mode writes ``firsts`` into the frame in one loop and pairs only
    ``reads``.  ``value_left`` says whether ``X`` is on the left of the
    statement."""
    __slots__ = ("slot", "value_left", "build", "label", "arity", "firsts",
                 "reads")

    def __init__(self, slot: int, value_left: bool, build: Build):
        self.slot = slot
        self.value_left = value_left
        self.build = build
        self.label = build.label
        self.arity = len(build.args)
        firsts, reads = [], []
        for i, a in enumerate(build.args):
            if a is None:
                continue
            k = type(a)
            if k is Fresh:
                firsts.append((i, a.slot))
            elif k is int:
                reads.append((i, READ_SLOT, a))
            elif k is Build:
                reads.append((i, READ_BUILD, a))
            else:
                reads.append((i, READ_LITERAL, a))
        self.firsts = tuple(firsts)
        self.reads = tuple(reads)


# -- instructions ------------------------------------------------------------


class Code:
    """A compiled procedure, a thread's body or a top-level piece (the
    two with no parameters).

    A frame is ``[code, parameters..., locals..., captured values...]``;
    ``blank`` fills the locals, and ``captures`` says where the captured
    values come from, in frame order: slots of the frame the procedure is
    defined in, or, for a top-level piece, names.  ``names`` pairs each
    slot with its name, innermost scope first: the scopes latest declared
    first (a scope's own names in order), the parameters, then the
    captured names."""
    __slots__ = ("name", "arity", "blank", "captures", "body", "names")

    def __init__(self, name, arity, blank, captures, body, names):
        self.name = name
        self.arity = arity
        self.blank = blank
        self.captures = captures
        self.body = body
        self.names = names

    def env(self, values: dict) -> list:
        """The captured values of a piece whose captures are names, taken
        from ``values``."""
        try:
            return [values[name] for name in self.captures]
        except KeyError as e:
            raise OzkError(f"variable {e.args[0]} has no binding at run "
                           f"time") from None

    def frame(self, values: dict) -> list:
        """A frame for a top-level piece, its globals taken from
        ``values``."""
        frame = [self]
        frame += self.blank
        frame += self.env(values)
        return frame


class Body:
    """A block or a ``local``: the slots it makes a variable in, and its
    statements last first, in the order in which a task pushes them."""
    __slots__ = ("made", "pushed")

    def __init__(self, made: tuple, pushed: tuple):
        self.made = made
        self.pushed = pushed


class Unify:
    """``lhs = rhs``.  When one side is a slot and the other a compound,
    ``plan`` is the compound's read :class:`Plan`; else it is None."""
    __slots__ = ("lhs", "rhs", "plan", "clear")

    def __init__(self, lhs, rhs):
        self.lhs = lhs
        self.rhs = rhs
        self.clear = ()
        if type(lhs) is int and type(rhs) is Build:
            self.plan = Plan(lhs, True, rhs)
        elif type(rhs) is int and type(lhs) is Build:
            self.plan = Plan(rhs, False, lhs)
        else:
            self.plan = None


class Call:
    __slots__ = ("target", "args", "clear")

    def __init__(self, target, args: tuple):
        self.target = target
        self.args = args
        self.clear = ()


class Op:
    """An integer operator: ``r = a <name> b``, or, for a comparison with
    no result (``r`` None), a test.  ``fn`` computes it and ``arith`` says
    whether it is one of ``+ - * div``."""
    __slots__ = ("name", "fn", "arith", "a", "b", "r", "clear")

    def __init__(self, name, fn, arith, a, b, r):
        self.name = name
        self.fn = fn
        self.arith = arith
        self.a = a
        self.b = b
        self.r = r
        self.clear = ()


class Builtin:
    """``==`` (a test, or with a result) or ``$test``, each of which the
    runtime runs itself."""
    __slots__ = ("name", "args", "clear")

    def __init__(self, name: str, args: tuple):
        self.name = name
        self.args = args
        self.clear = ()


class Case:
    """``arms`` are ``(pattern, body, clear)`` triples, tried in order,
    where ``clear`` is what entering the arm clears; ``else_clear`` is
    what entering ``otherwise`` clears."""
    __slots__ = ("subject", "arms", "otherwise", "else_clear")

    def __init__(self, subject, arms: tuple, otherwise):
        self.subject = subject
        self.arms = arms
        self.otherwise = otherwise
        self.else_clear = ()


# How an `if` arm's guard runs: a statement on a trail of its own, or one
# of the pure tests, which bind nothing: an integer comparison, `==` of
# two operands, or `$test`.
GUARD, OP_TEST, EQ_TEST, TEST = range(4)


class Arm:
    """An ``if`` arm: the slots of its guard variables, its guard, its
    body, how the guard runs (``test``) and what entering the arm
    clears."""
    __slots__ = ("made", "guard", "body", "test", "clear")

    def __init__(self, made, guard, body, test):
        self.made = made
        self.guard = guard
        self.body = body
        self.test = test
        self.clear = ()


class If:
    """``else_clear`` is what entering ``otherwise`` clears."""
    __slots__ = ("arms", "otherwise", "else_clear")

    def __init__(self, arms: tuple, otherwise):
        self.arms = arms
        self.otherwise = otherwise
        self.else_clear = ()


class Alt:
    """A ``choice`` alternative: the slots it makes, its head (the leading
    unifications of its body, in order, which a search engine runs before
    it makes a choicepoint) and the rest, last first.

    ``head_fn`` is the Python function that makes the slots and runs the
    head, generated the first time an engine runs the alternative
    (``search``); it starts as None and is kept with the rest of the
    compiled form, so every session that runs this code shares it."""
    __slots__ = ("made", "head", "pushed", "head_fn")

    def __init__(self, made, head, pushed):
        self.made = made
        self.head = head
        self.pushed = pushed
        self.head_fn = None


class Choice:
    __slots__ = ("alts",)

    def __init__(self, alts: tuple):
        self.alts = alts


class Proc:
    """A procedure definition: bind the slot ``slot`` to a closure of
    ``code``."""
    __slots__ = ("slot", "code", "clear")

    def __init__(self, slot: int, code: Code):
        self.slot = slot
        self.code = code
        self.clear = ()


class Thread:
    """A ``thread``: spawn ``code``'s body in a frame of its own, which
    captures the values of its free names from the frame it starts in."""
    __slots__ = ("code", "clear")

    def __init__(self, code: Code):
        self.code = code
        self.clear = ()


class Lazy:
    """A ``lazy R then S end`` (the body of a ``fun lazy``): leave a
    trigger on the value of the slot ``slot``, whose frame, of ``code``,
    captures the values of its free names from the frame it is made in,
    as a ``thread``'s does (see ``runtime.exec_stmt``)."""
    __slots__ = ("slot", "code", "clear")

    def __init__(self, slot: int, code: Code):
        self.slot = slot
        self.code = code
        self.clear = ()


class Skip:
    __slots__ = ()


class Fail:
    __slots__ = ()


SKIP = Skip()
FAIL = Fail()


def frame_names(frame: list):
    """Yield the (name, value) pairs of a frame's written slots, innermost
    scope first (see ``Code.names``)."""
    for slot, name in frame[0].names:
        value = frame[slot]
        if value is not None:
            yield name, value


# -- first uses --------------------------------------------------------------


class _Pending:
    """The scope entry of a name of a ``local`` that nothing has mentioned
    yet: its slot, and whether a first use writes the slot (``fresh``), in
    which case the ``local`` does not make it.  The first mention of the
    name puts the slot itself in its place."""
    __slots__ = ("slot", "fresh")

    def __init__(self, slot: int):
        self.slot = slot
        self.fresh = False


def _first_in_unify(s: syn.Unify, scope: dict, pending: tuple) -> list:
    """The names that are first used in ``s``, a ``X = f(...)`` or ``f(...)
    = X``: those whose entry in ``scope`` is still one of the placeholders
    ``pending`` and that are ``X`` or an argument of ``f``, once."""
    var, comp = s.lhs, s.rhs
    if type(var) is not CVar:
        var, comp = comp, var
    if type(var) is not CVar or type(comp) is not CCompound:
        return []
    used = expr_names(var, comp)
    return [n for n in [a.name for a in comp.args if type(a) is CVar]
            + [var.name] if scope.get(n) in pending and used.count(n) == 1]


# -- clearing ------------------------------------------------------------------

# A set of slots is an int mask with bit ``s % size`` for slot ``s``, where
# ``size`` is the length of the frame, so that a captured (negative) slot
# has the bit of its frame position.  A clear tuple lists those positions;
# equal ones are one object.
_CLEARS: dict = {}
_CLEARS_MAX = 4096


def _clear(mask: int) -> tuple:
    """The frame positions of the slots of ``mask``."""
    if not mask:
        return ()
    positions = _CLEARS.get(mask)
    if positions is None:
        out = []
        m = mask
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        if len(_CLEARS) >= _CLEARS_MAX:
            _CLEARS.clear()
        positions = _CLEARS[mask] = tuple(out)
    return positions


def _mask(slots: tuple) -> int:
    """The mask of ``slots``, new slots (so none is negative)."""
    mask = 0
    for s in slots:
        mask |= 1 << s
    return mask


def _uses(e, size: int, use: int, made: int):
    """``(use, made)`` with the slots operand ``e`` reads added to ``use``
    and those it writes (its first uses) to ``made``.  The chain of last
    arguments is walked in a loop."""
    while True:
        kind = type(e)
        if kind is int:
            return use | 1 << e % size, made
        if kind is Fresh:
            return use, made | 1 << e.slot % size
        if kind is not Build or not e.args:
            return use, made
        args = e.args
        for a in args[:-1]:
            k = type(a)
            if k is int:
                use |= 1 << a % size
            elif k is Fresh or k is Build:
                use, made = _uses(a, size, use, made)
        e = args[-1]


def _reads(es, size: int) -> int:
    """The slots the operands ``es`` read (none of them a first use)."""
    use = 0
    for e in es:
        if type(e) is int:
            use |= 1 << e % size
        elif type(e) is Build:
            use = _uses(e, size, use, 0)[0]
    return use


def _captures(pattern) -> int:
    """The slots a ``case`` pattern captures into; the chain of last
    arguments is walked in a loop."""
    mask = 0
    while type(pattern) is tuple:
        args = pattern[2]
        if not args:
            return mask
        for a in args[:-1]:
            if type(a) is int:
                mask |= 1 << a
            elif type(a) is tuple:
                mask |= _captures(a)
        pattern = args[-1]
    return mask | 1 << pattern if type(pattern) is int else mask


def _seq(pushed, out: int, size: int) -> int:
    """The slots live into statements listed last first, followed by more
    in their frame (see ``_live``)."""
    for ins in pushed:
        out = _live(ins, out, size, False)
    return out


def _entries(live: int, paths) -> list:
    """The clear of each path of a ``case`` or ``if`` whose live slots are
    ``live``: ``paths`` pairs the slots live into each path's body with
    those written on entering it, and a path clears what is then dead."""
    return [_clear((live | written) & ~body) for body, written in paths]


def _live(ins, out: int, size: int, last: bool) -> int:
    """The slots live into the instruction ``ins``, given ``out``, those
    live after it; it sets the clears of ``ins`` on the way.  ``last``
    says that nothing runs after ``ins`` in its frame.

    A slot is live where a later read may see it.  A statement clears each
    slot it reads or writes that is not live after it, unless it is the
    last in its frame, which dies with it.  Entering a ``case`` or ``if``
    arm clears each slot live into the statement, or written on entering
    the arm, that the arm's body and what follows do not read.  A guard
    runs before its arm's body and does not clear, nor does a ``choice``,
    which only an engine runs."""
    kind = type(ins)
    if kind is Body:
        for s in ins.pushed:
            out = _live(s, out, size, last)
            last = False
        for s in ins.made:
            out &= ~(1 << s)
        return out
    use = made = 0
    if kind is Call:
        for a in ins.args:
            if type(a) is int:
                use |= 1 << a % size
            elif type(a) is Build:
                use = _uses(a, size, use, 0)[0]
        a = ins.target
        if type(a) is int:
            use |= 1 << a % size
        elif type(a) is Build:
            use = _uses(a, size, use, 0)[0]
    elif kind is Op:
        for a in (ins.a, ins.b, ins.r):
            k = type(a)
            if k is int:
                use |= 1 << a % size
            elif k is Fresh:
                made |= 1 << a.slot % size
            elif k is Build:
                use = _uses(a, size, use, 0)[0]
    elif kind is Unify:
        use, made = _uses(ins.lhs, size, 0, 0)
        use, made = _uses(ins.rhs, size, use, made)
    elif kind is Case:
        arms = ins.arms
        paths = []
        live = _reads((ins.subject,), size)
        for pattern, body, _ in arms:
            written = _captures(pattern)
            body = _live(body, out, size, last)
            live |= body & ~written
            paths.append((body, written))
        body = _live(ins.otherwise, out, size, last)
        live |= body
        paths.append((body, 0))
        entries = _entries(live, paths)
        ins.arms = tuple([(p, b, c) for (p, b, _), c in zip(arms, entries)])
        ins.else_clear = entries[-1]
        return live
    elif kind is If:
        paths = []
        live = 0
        for arm in ins.arms:
            written = _mask(arm.made)
            body = _live(arm.body, out, size, last)
            live |= _live(arm.guard, body, size, False) & ~written
            paths.append((body, written))
        body = _live(ins.otherwise, out, size, last)
        live |= body
        paths.append((body, 0))
        entries = _entries(live, paths)
        for arm, entry in zip(ins.arms, entries):
            arm.clear = entry
        ins.else_clear = entries[-1]
        return live
    elif kind is Builtin:
        use = _reads(ins.args, size)
    elif kind is Proc:
        use = _reads(ins.code.captures, size) | 1 << ins.slot % size
    elif kind is Thread:
        use = _reads(ins.code.captures, size)
    elif kind is Lazy:
        use = _reads(ins.code.captures, size) | 1 << ins.slot % size
    elif kind is Choice:
        live = 0
        for alt in ins.alts:
            live |= (_seq(alt.head[::-1], _seq(alt.pushed, out, size), size)
                     & ~_mask(alt.made))
        return live
    elif kind is Fail:
        return 0
    else:
        return out
    dead = (use | made) & ~out
    if dead and not last:
        ins.clear = _CLEARS.get(dead) or _clear(dead)
    return (out & ~made) | use


# -- the pass ------------------------------------------------------------------

_ARITH = {"+": _operator.add, "-": _operator.sub, "*": _operator.mul,
          "div": _operator.floordiv}
_COMPARE = {"<": _operator.lt, ">": _operator.gt, "=<": _operator.le,
            ">=": _operator.ge}
_PURE_TESTS = frozenset(("==", "<", ">", "=<", ">=", "$test"))


class _Compiler:
    """Compiles the statements of one activation.  It keeps the slot each
    name in scope stands for, the name of each slot, and the captured
    names with where each comes from: a slot of the enclosing
    activation's frame (``up``), or, with no enclosing activation, the
    name itself."""
    __slots__ = ("up", "scope", "slots", "scopes", "sources", "captured")

    def __init__(self, up: Optional["_Compiler"], params=()):
        self.up = up
        self.scope: dict = {}
        self.slots: list = [None]       # frame position -> name
        self.scopes: list = []          # the first slot of each scope
        self.sources: list = []         # in capture order
        self.captured: list = []
        self.bind(params)

    def resolve(self, name: str) -> int:
        """The slot of ``name``, which is mentioned here: a name still
        pending is not first used after this."""
        slot = self.scope.get(name)
        if slot is None:
            self.sources.append(name if self.up is None
                                else self.up.resolve(name))
            self.captured.append(name)
            slot = self.scope[name] = -len(self.sources)
        elif type(slot) is _Pending:
            slot = self.scope[name] = slot.slot
        return slot

    def first_use(self, name: str) -> Fresh:
        """The first use of the pending ``name``, which its ``local`` then
        does not make."""
        pending = self.scope[name]
        pending.fresh = True
        self.scope[name] = pending.slot
        return Fresh(pending.slot)

    def bind(self, names) -> tuple:
        """Give each of ``names`` a new slot: ``(slots, saved)``, where
        ``saved`` is for :meth:`unbind` at the end of their scope."""
        if not names:
            return (), ()
        scope, slots = self.scope, self.slots
        saved = tuple([(n, scope.get(n)) for n in names])
        first = len(slots)
        self.scopes.append(first)
        for n in names:
            scope[n] = len(slots)
            slots.append(n)
        return tuple(range(first, len(slots))), saved

    def unbind(self, saved) -> None:
        scope = self.scope
        for n, old in saved:
            if old is None:
                del scope[n]
            else:
                scope[n] = old

    def code(self, name: str, body) -> Code:
        """The code of a procedure (or piece) whose body is ``body``,
        compiled after its parameters were bound."""
        arity = len(self.slots) - 1
        body = self.stmt(body)
        slots = self.slots
        _live(body, 0, len(slots) + len(self.captured), True)
        names = []
        end = len(slots)
        for first in reversed(self.scopes):
            names += [(i, slots[i]) for i in range(first, end)]
            end = first
        names += [(-1 - j, n) for j, n in enumerate(self.captured)]
        return Code(name, arity, (None,) * (len(slots) - 1 - arity),
                    tuple(reversed(self.sources)), body, tuple(names))

    # -- operands --------------------------------------------------------

    def expr(self, e, first=()):
        """The operand of ``e``, where a name of ``first`` is a first use.
        The chain of last arguments (a list's spine) is compiled in a
        loop."""
        kind = type(e)
        if kind is CVar:
            name = e.name
            if first and name in first:
                return self.first_use(name)
            slot = self.scope.get(name)
            return slot if type(slot) is int else self.resolve(name)
        if kind is CLit:
            return e.value
        if kind is CAnon:
            return None
        spine = []
        while type(e) is CCompound and e.args:
            spine.append(e)
            e = e.args[-1]
        form = (Build(e.label, ()) if type(e) is CCompound
                else self.expr(e, first))
        for c in reversed(spine):
            form = Build(c.label, self.exprs(c.args[:-1], first) + (form,))
        return form

    def exprs(self, es, first=()) -> tuple:
        """The operands of ``es``; a name is looked up here, the common
        case."""
        scope = self.scope
        out = []
        for e in es:
            if type(e) is CVar and not first:
                slot = scope.get(e.name)
                out.append(slot if type(slot) is int else self.resolve(e.name))
            else:
                out.append(self.expr(e, first))
        return tuple(out)

    def pattern(self, p):
        """The compiled form of a ``case`` pattern, whose names the caller
        has bound to new slots."""
        kind = type(p)
        if kind is CVar:
            return self.scope[p.name]
        if kind is CAnon:
            return None
        if kind is CLit:
            return p.value
        spine = []
        while type(p) is CCompound and p.args:
            spine.append(p)
            p = p.args[-1]
        form = (p.label, 0, ()) if type(p) is CCompound else self.pattern(p)
        for q in reversed(spine):
            args = tuple([self.pattern(a) for a in q.args[:-1]])
            form = (q.label, len(q.args), args + (form,))
        return form

    # -- statements ---------------------------------------------------------

    def stmts(self, stmts, pending=()) -> tuple:
        """Compile a run of statements: the instructions, last first.  A
        statement that compiles to a ``Body`` that makes no variable is
        spliced in: its statements take its place.  ``pending`` are the
        placeholders of the ``local`` whose body the statements are, which
        each statement gets, as a first use of them can stand only there."""
        table = _COMPILE
        out = []
        for s in stmts:
            ins = table[type(s)](self, s, pending)
            if type(ins) is Body and not ins.made:
                out += ins.pushed[::-1]
            else:
                out.append(ins)
        out.reverse()
        return tuple(out)

    def stmt(self, s):
        compile_ = _COMPILE.get(type(s))
        if compile_ is None:
            raise TypeError(f"cannot compile {s!r}")
        return compile_(self, s, ())

    def call(self, s: syn.Call, pending) -> Call:
        return Call(self.expr(s.target), self.exprs(s.args))

    def block(self, s: syn.Block, pending) -> Body:
        return Body((), self.stmts(s.stmts))

    def local(self, s: syn.Local, outer) -> Body:
        """Each name stays pending until its first mention: the
        ``local`` makes those that are not first used (``_Pending``)."""
        body = s.body
        stmts = body.stmts if type(body) is syn.Block else (body,)
        slots, saved = self.bind(s.names)
        pending = tuple([_Pending(slot) for slot in slots])
        self.scope.update(zip(s.names, pending))
        pushed = self.stmts(stmts, pending)
        self.unbind(saved)
        return Body(tuple([p.slot for p in pending if not p.fresh]), pushed)

    def case(self, s: syn.CaseStmt, pending) -> Case:
        subject = self.expr(s.subject)
        arms = []
        for arm in s.arms:
            _, saved = self.bind(expr_names(arm.pattern))
            arms.append((self.pattern(arm.pattern), self.stmt(arm.body), ()))
            self.unbind(saved)
        return Case(subject, tuple(arms), self.stmt(s.otherwise))

    def if_(self, s: syn.IfStmt, pending) -> If:
        arms = []
        for arm in s.arms:
            made, saved = self.bind(arm.guard_vars)
            g = arm.guard
            test = GUARD
            if (not made and type(g) is syn.BuiltinCall
                    and g.name in _PURE_TESTS and len(g.args) <= 2):
                test = (OP_TEST if g.name in syn.OPERATORS
                        else EQ_TEST if g.name == "==" else TEST)
            arms.append(Arm(made, self.stmt(g), self.stmt(arm.body), test))
            self.unbind(saved)
        return If(tuple(arms), self.stmt(s.otherwise))

    def choice(self, s: syn.Choice, pending) -> Choice:
        return Choice(tuple([self.alternative(a) for a in s.alternatives]))

    def thread(self, s: syn.ThreadStmt, pending) -> Thread:
        return Thread(_Compiler(self).code("", s.body))

    def lazy(self, s: syn.LazyStmt, pending) -> Lazy:
        return Lazy(self.resolve(s.result), _Compiler(self).code("", s.body))

    def unify(self, s: syn.Unify, pending) -> Unify:
        first = pending and _first_in_unify(s, self.scope, pending)
        if not first:
            return Unify(self.expr(s.lhs), self.expr(s.rhs))
        var, comp = s.lhs, s.rhs
        var_left = type(var) is CVar
        if not var_left:
            var, comp = comp, var
        build = Build(comp.label, self.exprs(comp.args, first))
        if var.name in first:
            # nothing is unified, so the orientation is moot: one form
            return Unify(self.expr(var, first), build)
        slot = self.resolve(var.name)
        return Unify(slot, build) if var_left else Unify(build, slot)

    def builtin(self, s: syn.BuiltinCall, pending):
        args = s.args
        if s.name not in syn.OPERATORS:
            return Builtin(s.name, self.exprs(args))
        a, b = self.expr(args[0]), self.expr(args[1])
        r = None
        if len(args) == 3:
            # a result that the operands did not mention is first used here
            r = args[2]
            r = (self.first_use(r.name) if type(r) is CVar
                 and self.scope.get(r.name) in pending else self.expr(r))
        fn = _ARITH.get(s.name)
        return Op(s.name, fn or _COMPARE[s.name], fn is not None, a, b, r)

    def alternative(self, alt) -> Alt:
        """Split a choice alternative into the slots it makes, its head and
        the rest: the statements of a block, the compiled body of a local,
        or the statement alone."""
        ins = self.stmt(alt)
        if type(ins) is Body:
            made, stmts = ins.made, ins.pushed[::-1]
        else:
            made, stmts = (), (ins,)
        n = 0
        while n < len(stmts) and type(stmts[n]) is Unify:
            n += 1
        return Alt(made, stmts[:n], stmts[n:][::-1])

    def proc(self, s: syn.ProcDef, pending) -> Proc:
        code = _Compiler(self, s.params).code(s.name, s.body)
        return Proc(self.resolve(s.name), code)


_COMPILE = {
    syn.Call: _Compiler.call,
    syn.Unify: _Compiler.unify,
    syn.BuiltinCall: _Compiler.builtin,
    syn.Block: _Compiler.block,
    syn.Local: _Compiler.local,
    syn.CaseStmt: _Compiler.case,
    syn.IfStmt: _Compiler.if_,
    syn.Choice: _Compiler.choice,
    syn.ProcDef: _Compiler.proc,
    syn.ThreadStmt: _Compiler.thread,
    syn.LazyStmt: _Compiler.lazy,
    syn.Skip: lambda self, s, pending: SKIP,
    syn.Fail: lambda self, s, pending: FAIL,
}


def compile_top(stmt) -> Code:
    """Compile a top-level piece: its free names are the globals, which
    :meth:`Code.frame` takes by name when it starts."""
    return _Compiler(None).code("", stmt)

