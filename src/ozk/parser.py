"""Lexer and parser: surface text to core statements, in one pass.

The surface language adds functions, nested calls, operator expressions,
anonymous variables, list sugar and implicit declarations on top of the
core statement set in syntax.py.  The parser lowers each construct to
core statements as it reads it, one construct at a time: an expression
gives its core operand, and appends the statements its nested calls lift
out (and the fresh temporaries that hold their results) to lists its
reader passes in.  A ``case`` pattern is written as a record expression
and read by the one expression grammar, which checks and lowers it as a
pattern where it is read.

Two lowering disciplines matter for performance and are fixed here:

* A unification statement ``X = <constructor containing calls>`` binds the
  constructor skeleton *first* (with fresh holes) and then runs the nested
  calls left to right, the last one in tail position.  That keeps recursive
  list builders iterative and makes partial results visible to consumers
  before the producer finishes.
* Everywhere else (call arguments, case subjects, tests) nested calls are
  lifted into fresh locals evaluated left to right *before* the enclosing
  statement.

Some context arrives only after the text it governs:

* A bare call, a side of ``=`` and the last item of a block are lowered
  by what follows them: a call takes the variable on the other side of
  ``=`` as its result, and a block that gives a value makes its last item
  give it.  A call or an operation is kept as a small pending form until
  the next token tells; a statement ``if``, ``case`` or ``local`` in such
  a block looks ahead to the ``end`` that closes it.
* A block's scope is settled when it closes, as a name may be used
  before the body item that declares it (``{F} fun {F} 1 end``).  A use
  that is not in scope where it stands is checked again once the whole
  text is read.  A body-level ``X = E`` in a nested block declares ``X``
  unless an enclosing block has it, which that block may show only
  further on; in that rare case the text is read a second time, with
  the names the nested blocks must not declare known.
* Syntax errors come before all others: an error of scope or of the
  lowering (an undeclared name, a repeated parameter, a value missing
  where one is expected) is kept until the whole text has parsed, and
  then the first of them in the text is raised.  So a chunk that stops
  short is incomplete input (``ParseError.incomplete``), whatever else is
  wrong with it.

A ``fun lazy {F X} E end`` is the procedure ``proc {F X R} lazy R then
R = E end end``: a call leaves its body as a by-need trigger on its
result ``R`` (``syntax.LazyStmt``; run by ``runtime.Runtime.by_need``),
which the first thread to need ``R`` enters on its own stack.  It spawns
no thread.  ``lazy R then S end`` is also read as a statement, so that
the lowered form prints and reads back; its ``R`` must be declared.
"""

from __future__ import annotations

from typing import Optional

from .errors import ParseError, QuietGuardViolation
from .terms import INT_MAX, INT_MIN, Atom, Int
from .syntax import (
    Block, BuiltinCall, Call, CaseArm, CaseStmt, CAnon, CCompound, Choice,
    CLit, CVar, Fail, IfArm, IfStmt, Local, ProcDef, Skip, Statement,
    LazyStmt, ThreadStmt, Unify, expr_names, seq_all,
)

KEYWORDS = frozenset(
    "proc fun lazy if elseif then else case of elsecase choice thread "
    "local in end skip fail".split()
)

_ARITH_OPS = {"+", "-", "*", "div"}
_CMP_OPS = {"==", "<", ">", "=<", ">="}

# operator precedence: higher binds tighter; '=' is lowest
_PREC = {"=": 1, "==": 2, "<": 2, ">": 2, "=<": 2, ">=": 2,
         "|": 3, "+": 4, "-": 4, "*": 5, "div": 5}

_ARG_PREC = 2        # call/constructor arguments: everything above '='
_ITEM_PREC = 4       # list display items: above '|'

# Expressions (patterns among them) and blocks may nest this deep, and so
# may the links of an `elsecase` chain, each in the one before, as each is
# lowered to the `else` of the one before.  The parser and the compiler
# recurse once per level, so deeper input is refused with a syntax error
# where its nesting is entered.
MAX_NESTING = 100


# -- tokens ---------------------------------------------------------------

# An integer literal is written in ASCII digits only.  Another character
# that str.isdigit accepts (``²``, ``٣``) starts no token, and is refused
# where it stands; inside a name it is part of the name.
DIGITS = frozenset("0123456789")


class Tok:
    __slots__ = ("kind", "val", "line", "col", "end")

    def __init__(self, kind: str, val: object, line: int, col: int, end: int):
        self.kind = kind        # int var atom anon kw op eof
        self.val = val
        self.line = line
        self.col = col
        self.end = end          # column just past the token


def tokenize(src: str) -> list[Tok]:
    toks: list[Tok] = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "%":
            j = src.find("\n", i)
            if j < 0:
                j = n
            col += j - i
            i = j
            continue
        start_col = col
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            word = src[i:j]
            col += j - i
            i = j
            if word == "_":
                toks.append(Tok("anon", "_", line, start_col, col))
            elif word == "div":
                toks.append(Tok("op", "div", line, start_col, col))
            elif word in KEYWORDS:
                toks.append(Tok("kw", word, line, start_col, col))
            elif word[0].isupper() or word[0] == "_":
                toks.append(Tok("var", word, line, start_col, col))
            else:
                toks.append(Tok("atom", word, line, start_col, col))
            continue
        if c in DIGITS or (c == "~" and i + 1 < n and src[i + 1] in DIGITS):
            neg = c == "~"
            j = i + 1 if neg else i
            k = j
            while k < n and src[k] in DIGITS:
                k += 1
            v = int(src[j:k])
            if neg:
                v = -v
            if not INT_MIN <= v <= INT_MAX:
                raise ParseError("integer literal out of range", line, start_col)
            col += k - i
            i = k
            toks.append(Tok("int", v, line, start_col, col))
            continue
        two = src[i:i + 2]
        if two in ("==", "=<", ">=", "[]"):
            toks.append(Tok("op", two, line, start_col, col + 2))
            i += 2
            col += 2
            continue
        if c in "{}()[]=<>+-*|$":
            toks.append(Tok("op", c, line, start_col, col + 1))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, start_col)
    toks.append(Tok("eof", None, line, col, col))
    return toks


# -- the parser -----------------------------------------------------------------

_END = frozenset({"end"})
_THEN = frozenset({"then"})
_IF_ARM_STOPS = frozenset({"elseif", "else", "end"})
_CASE_ARM_STOPS = frozenset({"[]", "else", "elsecase", "end"})
_CHOICE_STOPS = frozenset({"[]", "end"})

# The keywords whose construct an `end` closes; so does `lazy R then`.
_OPENERS = frozenset("local proc fun if case thread choice".split())

# `_` where it has been read but not yet placed: in a constructor's
# argument, a list item or a `|` chain it is a void, elsewhere a fresh
# variable.
_ANON = object()
_VOID = CAnon()


class _Call:
    """A call read where its result may yet be given: by the variable on
    the other side of ``=``, by the block whose last item it is, or else
    by a fresh temporary.  Its target and arguments are lowered."""

    __slots__ = ("target", "args", "hole")

    def __init__(self, target, args: list, hole: Optional[int]):
        self.target = target
        self.args = args
        self.hole = hole        # where `$` stands, the result goes


class _Op:
    """An operation read where its result may yet be given, as for
    :class:`_Call`: ``a op b`` over lowered operands or, for ``=``, its
    two sides as read."""

    __slots__ = ("op", "a", "b", "tok", "first")

    def __init__(self, op: str, a, b, tok: Tok, first: Tok):
        self.op = op
        self.a = a
        self.b = b
        self.tok = tok          # the operator
        self.first = first      # the first token of the operation


class _Scope:
    """One level of a lexical scope over the level that encloses it.

    A level holds the few names one construct binds: a block's
    declarations, a definition's parameters and result, guard or pattern
    variables.  A block's level grows as its items are read, and holds
    all of them once it closes.  The bottom of the chain is the caller's
    global container, which is only ever asked whether it holds a name,
    so the cost of a scope test does not grow with the number of globals.
    """

    __slots__ = ("names", "up")

    def __init__(self, names, up):
        self.names = names
        self.up = up

    def __contains__(self, name) -> bool:
        s = self
        while type(s) is _Scope:
            if name in s.names:
                return True
            s = s.up
        return name in s


def _nest(scope, names):
    return _Scope(names, scope) if names else scope


def _wrap(temps: list, stmts: list) -> Statement:
    body = seq_all(stmts)
    return Local(tuple(temps), body) if temps else body


class _Parser:
    def __init__(self, toks: list, global_names, revoked=frozenset()):
        self.toks = toks
        self.i = 0
        self.depth = 0           # open nesting levels, see MAX_NESTING
        self.idents: set[str] = {t.val for t in toks if t.kind == "var"}
        self.counter = 0
        self.taken: Optional[set] = None    # see `fresh`
        self.scope = global_names
        self.anons: set = set()  # the fresh variables that stand for `_`
        self.unresolved: list = []   # (token, scope) of uses to check again
        self.late = None         # ((line, col, rank), error): see `later`
        # (block, name, scope): a name a nested block declares, unless
        # `scope` holds it once the text is read; `revoked` holds the
        # (block, name) pairs a first reading found it did.
        self.fixups: list = []
        self.revoked = revoked
        self.pattern_names: Optional[set] = None   # while reading a pattern
        self.pattern_error = None    # (token index, error) in that pattern

    def peek(self, k: int = 0) -> Tok:
        toks = self.toks
        i = self.i + k
        return toks[i] if i < len(toks) else toks[-1]

    def next(self) -> Tok:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def err(self, msg: str, tok: Optional[Tok] = None):
        t = tok or self.peek()
        e = ParseError(msg, t.line, t.col)
        e.incomplete = t.kind == "eof"
        raise e

    def expect(self, kind: str, val=None) -> Tok:
        t = self.peek()
        if t.kind != kind or (val is not None and t.val != val):
            want = val if val is not None else kind
            self.err(f"expected {want!r}, found {self._show(t)}")
        return self.next()

    @staticmethod
    def _show(t: Tok) -> str:
        return "end of input" if t.kind == "eof" else repr(str(t.val))

    def at(self, kind: str, val=None, k: int = 0) -> bool:
        t = self.peek(k)
        return t.kind == kind and (val is None or t.val == val)

    def enter(self) -> None:
        """Open one nesting level at the next token; the caller closes it
        with ``self.depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.err(f"nesting deeper than {MAX_NESTING} levels")

    def fresh(self, base: str = "T") -> str:
        # Fresh temporaries avoid only the text's own identifiers.  Each is
        # bound by an enclosing `local` or parameter list, so it can shadow
        # only names the text never mentions.  A number that an identifier
        # of the text of their form (`_T1`, `_R2`) has is skipped, whatever
        # its letter: a printed core names the temporaries it keeps and
        # has an `if` condition lift its own again as it reads back, which
        # then get the numbers they had.
        taken = self.taken
        if taken is None:
            taken = self.taken = {n[2:] for n in self.idents if n[0] == "_"}
        while True:
            self.counter += 1
            if str(self.counter) not in taken:
                return f"_{base}{self.counter}"

    def later(self, tok: Tok, error: Exception, rank: int = 1) -> None:
        """Keep an error that is not a syntax error, to raise once the
        whole text has parsed; of those kept, the first by the position
        of `tok` is raised.  An error of a whole item (`rank` 0) comes
        before those of what the item holds."""
        key = (tok.line, tok.col, rank)
        if self.late is None or key < self.late[0]:
            self.late = (key, error)

    def later_at(self, tok: Tok, msg: str, rank: int = 1) -> None:
        self.later(tok, ParseError(msg, tok.line, tok.col), rank)

    def finish(self) -> set:
        """Raise the first error kept by `later`, once every scope is
        complete; else the implicit declarations a second reading must
        drop (see `fixups`)."""
        for t, scope in self.unresolved:
            if t.val not in scope:
                self.later_at(t, f"undeclared variable {t.val}")
                break
        if self.late is not None:
            raise self.late[1]
        return {(block, name) for block, name, scope in self.fixups
                if name in scope}

    # -- blocks ---------------------------------------------------------

    def last_at(self, i: int, stops) -> bool:
        """Whether the item that ends just before token `i` is its
        block's last: a stop follows it, or an `in` and then a stop."""
        toks = self.toks
        t = toks[min(i, len(toks) - 1)]
        if t.kind == "kw" and t.val == "in":
            t = toks[i + 1]
        return t.kind == "eof" or (t.kind in ("kw", "op") and t.val in stops)

    def end_of(self, i: int) -> int:
        """The index of the `end` that closes the construct token `i`
        opens (or of the end of input)."""
        toks = self.toks
        depth = 0
        last = len(toks) - 1
        while i < last:
            t = toks[i]
            if t.kind == "kw":
                if t.val == "end":
                    depth -= 1
                    if depth == 0:
                        return i
                elif t.val in _OPENERS or (t.val == "lazy"
                                           and toks[i + 1].kind == "var"):
                    depth += 1
            i += 1
        return last

    def parse_block(self, stops, result: Optional[str] = None):
        """Read a block up to one of `stops`: its statement, the names it
        declares (which the caller wraps around it) and whether it has a
        declaration part.  With `result`, the block's last item gives the
        value of that variable."""
        self.enter()
        start = self.i
        first = self.peek()
        outer = self.scope
        names: set = set()
        self.scope = _Scope(names, outer)
        core: list = []
        # (name, forced) for each name the items declare as body items,
        # and as items of a declaration part; see `declared` below.
        roles: list = []
        droles: list = []
        decls = None
        bare = None              # the first body item that is a variable
        empty = True
        toks = self.toks
        while True:
            t = toks[self.i]
            if t.kind == "eof" or (t.kind in ("kw", "op") and t.val in stops):
                break
            if t.kind == "kw" and t.val == "in":
                if decls is not None:
                    self.err("duplicate 'in' in the same block")
                self.next()
                decls, droles, roles = droles, [], []
                names.update(name for name, _ in decls)
                bare = None
                continue
            empty = False
            var = self.statement(stops, result, core, roles, droles)
            if bare is None:
                bare = var
        self.scope = outer
        self.depth -= 1
        if result is not None and empty:
            self.later_at(first, "a value is expected here")
        if bare is not None:
            self.later_at(bare, f"variable {bare.val} by itself is not "
                          "a statement", 0)
        # A name is declared once, where it first comes; one that a
        # unification could declare (not `forced`) is declared only when
        # no enclosing scope has it.
        declared: list = []
        own: set = set()
        for name, forced in (decls or []) + roles:
            if name in own:
                continue
            if not forced:
                if name in outer or (start, name) in self.revoked:
                    continue
                if type(outer) is _Scope:
                    self.fixups.append((start, name, outer))
            declared.append(name)
            own.add(name)
        return seq_all(core), tuple(declared), decls is not None

    def block(self, stops, result: Optional[str] = None) -> Statement:
        body, declared, _ = self.parse_block(stops, result)
        return Local(declared, body) if declared else body

    # -- statements -------------------------------------------------------

    def statement(self, stops, result, core: list, roles: list,
                  droles: list) -> Optional[Tok]:
        """Read one item of a block into `core`, and the names it declares
        into `roles` and `droles` (see `parse_block`).  Returns the token
        of an item that is a variable alone, which only a declaration
        part may hold."""
        t = self.toks[self.i]
        if t.kind == "kw":
            v = t.val
            if v in ("if", "case", "local"):
                # the last item of a block that gives a value gives it
                res = result if result is not None and self.last_at(
                    self.end_of(self.i) + 1, stops) else None
                if v == "if":
                    core.append(self.parse_if(res))
                elif v == "case":
                    core.append(self.parse_case(res))
                else:
                    self.next()
                    body, declared, has_in = self.parse_block(_END, res)
                    self.expect("kw", "end")
                    if not has_in:
                        self.err("'local' needs 'in' before its body", t)
                    core.append(Local(declared, body) if declared else body)
                return None
            if v == "skip":
                self.next()
                s = Skip()
            elif v == "fail":
                self.next()
                s = Fail()
            elif v == "thread":
                self.next()
                s = ThreadStmt(self.block(_END))
                self.expect("kw", "end")
            elif v == "lazy" and self.at("var", k=1):
                self.next()
                r = self.next()
                self.use(r)
                self.expect("kw", "then")
                s = LazyStmt(r.val, self.block(_END))
                self.expect("kw", "end")
            elif v == "choice":
                self.next()
                alts = [self.block(_CHOICE_STOPS)]
                while self.at("op", "[]"):
                    self.next()
                    alts.append(self.block(_CHOICE_STOPS))
                self.expect("kw", "end")
                s = Choice(tuple(alts))
            elif v in ("proc", "fun"):
                s = self.parse_def(self.scope.names)
                if s is None:
                    self.err("an anonymous definition is not a statement", t)
                roles.append((s.name, True))
                droles.append((s.name, True))
            else:
                self.err(f"unexpected keyword '{v}'")
            if result is not None and self.last_at(self.i, stops):
                self.later_at(t, "function body must end in an expression", 0)
            core.append(s)
            return None
        out: list = []
        temps: list = []
        e = self.parse_expr(1, out, temps)
        last = result is not None and self.last_at(self.i, stops)
        te = type(e)
        if te is _Op and e.op == "=":
            lhs = e.a
            if self.is_var(lhs):
                self.scope.names.add(lhs.name)
                roles.append((lhs.name, False))
                droles.append((lhs.name, True))
            droles.extend((name, False) for name in self.declarable(lhs))
            droles.extend((name, False) for name in self.declarable(e.b))
            core.append(self.unify(e, out, temps))
        elif te is _Op and e.op in _CMP_OPS:
            out.append(BuiltinCall(e.op, (e.a, e.b)))
            core.append(_wrap(temps, out))
        elif te is _Call:
            if last:
                out.append(self.call(e, CVar(result)))
                core.append(_wrap(temps, out))
                return None
            if e.hole is not None:
                self.later_at(t, "'$' only makes sense where a result is "
                              "expected", 0)
            out.append(self.call(e, None))
            core.append(_wrap(temps, out))
            return None
        elif last:
            # R = E, with the skeleton of E bound first
            if self.is_var(e):
                droles.append((e.name, True))
            r = CVar(result)
            if te is _Op:
                out.append(BuiltinCall(e.op, (e.a, e.b, r)))
                core.append(_wrap(temps, out))
            else:
                e = self.value(e, out, temps)
                core.append(_wrap(temps, [Unify(r, e)] + out))
            return None
        elif self.is_var(e):
            droles.append((e.name, True))
            return t
        else:
            self.later_at(t, "this expression is only allowed as a function "
                          "result", 0)
            return None
        if last:
            self.later_at(t, "function body must end in an expression", 0)
        return None

    def unify(self, u: _Op, out: list, temps: list) -> Statement:
        # When one side is exactly a call and the other a variable, pass the
        # variable as the call's result argument: no intermediate unification,
        # and the call stays in tail position.  X = A+B computes straight
        # into X, no temporary.
        for a, b in ((u.a, u.b), (u.b, u.a)):
            tb = type(b)
            if tb is _Call and self.is_var(a, True):
                out.append(self.call(b, a))
                return _wrap(temps, out)
            if tb is _Op and b.op != "=" and self.is_var(a, True):
                out.append(BuiltinCall(b.op, (b.a, b.b, a)))
                return _wrap(temps, out)
        lhs = self.value(u.a, out, temps)
        rhs = self.value(u.b, out, temps)
        return _wrap(temps, [Unify(lhs, rhs)] + out)

    def is_var(self, e, anon: bool = False) -> bool:
        """Whether `e` is a variable of the text (or, with `anon`, one
        that stands for `_`)."""
        return type(e) is CVar and (e.name in self.idents
                                    or (anon and e.name in self.anons))

    def declarable(self, side) -> list:
        """The names a declaration-part unification may declare on this
        side: its variables outside calls, operations and definitions."""
        if type(side) is CVar or type(side) is CCompound:
            return [n for n in expr_names(side) if n in self.idents]
        return []

    def parse_def(self, names: Optional[set]):
        """Read ``proc`` or ``fun ... end``.  A named definition is a
        statement: its name goes into `names`, the declarations of the
        block it stands in.  An anonymous one is an expression; it is
        given a fresh name.  Returns None for a definition that is not
        what `names` asks for, once it has been read."""
        t = self.next()          # proc | fun
        isfun = t.val == "fun"
        lazy = False
        if self.at("kw", "lazy"):
            if not isfun:
                self.err("'lazy' only applies to 'fun'")
            self.next()
            lazy = True
        self.expect("op", "{")
        head = self.peek()
        if head.kind == "var":
            self.next()
            name = head.val
            fits = names is not None
            if fits:
                names.add(name)
        elif head.kind == "op" and head.val == "$":
            self.next()
            name = self.fresh("P")
            fits = names is None
        else:
            self.err("definition head must be a variable or '$'")
        params: list = []
        seen: set = set()
        while not self.at("op", "}"):
            p = self.peek()
            if p.kind == "var":
                self.next()
                if p.val in seen:
                    self.later_at(t, f"parameter {p.val} repeated")
                seen.add(p.val)
                params.append(p.val)
            elif p.kind == "anon":
                self.next()
                params.append(self.fresh("A"))
            else:
                self.err("formal parameter must be a variable or '_'")
        self.expect("op", "}")
        inner = {name, *params}
        res = None
        if isfun:
            res = self.fresh("R")
            inner.add(res)
            params.append(res)
        outer = self.scope
        self.scope = _Scope(inner, outer)
        body = self.block(_END, res)
        self.scope = outer
        if lazy:
            body = LazyStmt(res, body)
        self.expect("kw", "end")
        return ProcDef(name, tuple(params), body) if fits else None

    def parse_if(self, result: Optional[str]) -> IfStmt:
        t = self.expect("kw", "if")
        arms = [self.parse_if_arm(t, result)]
        while self.at("kw", "elseif"):
            self.next()
            arms.append(self.parse_if_arm(t, result))
        otherwise: Statement = Skip()
        if self.at("kw", "else"):
            self.next()
            otherwise = self.block(_END, result)
        self.expect("kw", "end")
        return IfStmt(tuple(arms), otherwise)

    def parse_if_arm(self, t: Tok, result: Optional[str]) -> IfArm:
        outer = self.scope
        # lookahead: VAR* 'in' means an explicit statement guard
        k = 0
        while self.at("var", k=k):
            k += 1
        if self.at("kw", "in", k=k):
            first = self.peek()
            gvars = tuple(self.next().val for _ in range(k))
            self.next()  # in
            for i, v in enumerate(gvars):
                if v in gvars[:i]:
                    self.later(first, ParseError(
                        f"guard variable {v} repeated", t.line, t.col))
                    break
            self.scope = _nest(outer, gvars)
            guard = self.block(_THEN)
            self.expect("kw", "then")
        else:
            gvars = ()
            out: list = []
            temps: list = []
            g = self.parse_expr(2, out, temps)
            self.expect("kw", "then")
            if type(g) is _Op and g.op in _CMP_OPS:
                out.append(BuiltinCall(g.op, (g.a, g.b)))
            else:
                out.append(BuiltinCall("$test", (self.value(g, out, temps),)))
            guard = _wrap(temps, out)
        body = self.block(_IF_ARM_STOPS, result)
        self.scope = outer
        arm = IfArm(gvars, guard, body)
        name = _guard_binds(arm)
        if name is not None:
            self.later(self.peek(), QuietGuardViolation(
                f"line {t.line}:{t.col}: guard may bind only its own "
                f"variables, not {name}"))
        return arm

    def parse_case(self, result: Optional[str], tok: Optional[Tok] = None):
        """Read ``case ... end``; given `tok`, the ``elsecase`` just read,
        read that link of the chain, whose ``end`` the chain's head reads.
        Each link nests one level in the one before, as its lowering
        does."""
        if tok is None:
            self.expect("kw", "case")
        out: list = []
        temps: list = []
        subject = self.value(self.parse_expr(2, out, temps), out, temps)
        self.expect("kw", "of")
        arms = [self.parse_case_arm(result)]
        while self.at("op", "[]"):
            self.next()
            arms.append(self.parse_case_arm(result))
        if self.at("kw", "else"):
            self.next()
            otherwise = self.block(_END, result)
        elif self.at("kw", "elsecase"):
            self.enter()
            otherwise = self.parse_case(result, self.next())
            self.depth -= 1
        else:
            otherwise = Fail()
        if tok is None:
            self.expect("kw", "end")
        out.append(CaseStmt(subject, tuple(arms), otherwise))
        return _wrap(temps, out)

    def parse_case_arm(self, result: Optional[str]) -> CaseArm:
        pattern = self.parse_pattern()
        self.expect("kw", "then")
        outer = self.scope
        self.scope = _nest(outer, expr_names(pattern))
        body = self.block(_CASE_ARM_STOPS, result)
        self.scope = outer
        return CaseArm(pattern, body)

    def parse_pattern(self):
        """Read the `case` pattern that an expression writes: integers,
        atoms, names (each at most once), ``_``, and constructors and
        ``|`` cells of patterns.  A piece that is none of these is refused
        once the expression is read, the outermost first."""
        saved = self.pattern_names, self.pattern_error
        self.pattern_names, self.pattern_error = set(), None
        out: list = []
        temps: list = []
        pattern = self.value(self.parse_expr(_PREC["|"], out, temps),
                             out, temps)
        error = self.pattern_error
        self.pattern_names, self.pattern_error = saved
        if error is not None:
            raise error[1]
        return pattern

    def not_pattern(self, t: Tok, start: Optional[int] = None,
                    msg: str = "expected a pattern") -> None:
        """In a pattern, note that the piece at token `t` (the next one)
        is not a pattern.  The first noted is refused, but an operator
        overrides what its left operand, read from token `start`, noted."""
        noted = self.pattern_error
        if noted is None or (start is not None and noted[0] >= start):
            self.pattern_error = (self.i, ParseError(msg, t.line, t.col))

    # -- expressions --------------------------------------------------------

    def use(self, t: Tok) -> CVar:
        """The use of the name `t`; one not in scope yet is checked again
        once the whole text is read (see `finish`)."""
        if t.val not in self.scope:
            self.unresolved.append((t, self.scope))
        return CVar(t.val)

    def value(self, e, out: list, temps: list):
        """The core operand of what `parse_expr` read: a pending call or
        operation computes into a fresh temporary, and `_` is one."""
        te = type(e)
        if te is _Call:
            if self.pattern_names is not None:
                return _VOID
            res = CVar(self.fresh("R"))
            temps.append(res.name)
            out.append(self.call(e, res))
            return res
        if te is _Op:
            if self.pattern_names is not None:
                return _VOID
            if e.op == "=":
                # refused before anything its sides hold
                self.later(e.first, ParseError(
                    "'=' cannot be nested inside an expression",
                    e.tok.line, e.tok.col))
                return _VOID
            res = CVar(self.fresh())
            temps.append(res.name)
            out.append(BuiltinCall(e.op, (e.a, e.b, res)))
            return res
        if e is _ANON:
            if self.pattern_names is not None:
                return _VOID
            name = self.fresh("A")
            temps.append(name)
            self.anons.add(name)
            return CVar(name)
        return e

    def arg(self, min_prec: int, out: list, temps: list):
        """Read an argument of a constructor, a list item or an element
        of a `|` chain: there `_` is a void."""
        e = self.parse_expr(min_prec, out, temps)
        return _VOID if e is _ANON else self.value(e, out, temps)

    @staticmethod
    def call(c: _Call, res) -> Call:
        """The call `c` with its result `res` at the `$` hole, or last."""
        args = c.args
        if res is not None:
            args.insert(len(args) if c.hole is None else c.hole, res)
        return Call(c.target, tuple(args))

    def var_follows(self) -> bool:
        """Whether the next item is a variable or `_` alone (perhaps in
        parentheses): an operand of '=' that may take a call's result."""
        toks = self.toks
        i = self.i
        k = 0
        while toks[i].kind == "op" and toks[i].val == "(":
            i += 1
            k += 1
        if toks[i].kind not in ("var", "anon"):
            return False
        i += 1
        for _ in range(k):
            if toks[i].kind != "op" or toks[i].val != ")":
                return False
            i += 1
        t = toks[i]
        return t.kind != "op" or _PREC.get(t.val, 0) < _ARG_PREC

    def parse_expr(self, min_prec: int, out: list, temps: list):
        """Read an expression of operators binding at least as tightly as
        `min_prec`, lowering it into `out` and `temps`: a lowered operand,
        `_ANON`, or a pending call or operation, which `value` places."""
        start = self.i
        left = self.parse_primary(out, temps)
        toks = self.toks
        while True:
            t = toks[self.i]
            if t.kind != "op":
                return left
            prec = _PREC.get(t.val)
            if prec is None or prec < min_prec:
                return left
            op = t.val
            if op == "|":
                # A chain E1|E2|...|En, read in a loop and folded from the
                # right; each Ei binds tighter than '|'.
                self.next()
                items = [_VOID if left is _ANON
                         else self.value(left, out, temps),
                         self.arg(prec + 1, out, temps)]
                while self.at("op", "|"):
                    self.next()
                    items.append(self.arg(prec + 1, out, temps))
                left = items.pop()
                for item in reversed(items):
                    left = CCompound("|", (item, left))
                continue
            if self.pattern_names is not None:
                self.not_pattern(t, start)
            self.next()
            if op == "=":
                # The sides stay as read where the other one may be the
                # result of a call or an operation (see `unify`), and so
                # does a '=' on the left, refused where it is placed.
                pending = type(left) is _Call or (type(left) is _Op
                                                  and left.op != "=")
                if left is _ANON or (pending and not self.var_follows()):
                    left = self.value(left, out, temps)
                right = self.parse_expr(prec + 1, out, temps)
                if right is _ANON:
                    right = self.value(right, out, temps)
                left = _Op(op, left, right, t, toks[start])
            else:
                a = self.value(left, out, temps)
                b = self.value(self.parse_expr(prec + 1, out, temps),
                               out, temps)
                left = _Op(op, a, b, t, t)

    def parse_primary(self, out: list, temps: list):
        self.depth += 1             # self.enter(), on the hottest path
        if self.depth > MAX_NESTING:
            self.err(f"nesting deeper than {MAX_NESTING} levels")
        e = self._primary(out, temps)
        self.depth -= 1
        return e

    def _primary(self, out: list, temps: list):
        toks = self.toks
        t = toks[self.i]
        kind = t.kind
        if kind == "var":
            names = self.pattern_names
            if names is None:
                self.i += 1
                return self.use(t)
            if t.val in names:
                self.not_pattern(t, msg=f"variable {t.val} occurs twice in "
                                 "one pattern")
            names.add(t.val)
            self.i += 1
            return CVar(t.val)
        if kind == "int":
            self.i += 1
            return CLit(Int(t.val))
        if kind == "anon":
            self.i += 1
            return _ANON
        if kind == "atom":
            self.i += 1
            n = toks[self.i]
            if (n.kind == "op" and n.val == "(" and n.line == t.line
                    and n.col == t.end):
                self.i += 1
                args = []
                while not self.at("op", ")"):
                    args.append(self.arg(_ARG_PREC, out, temps))
                self.expect("op", ")")
                if not args:
                    self.err("constructor needs at least one argument", t)
                return CCompound(t.val, tuple(args))
            return CLit(Atom(t.val))
        if kind == "kw" and t.val in ("proc", "fun", "if", "case"):
            if self.pattern_names is not None:
                self.not_pattern(t)
            if t.val in ("proc", "fun"):
                d = self.parse_def(None)
                if d is None:
                    self.err("a named definition is a statement, not an "
                             "expression", t)
                name = d.name
                out.append(d)
            else:
                name = self.fresh("R")
                out.append(self.parse_if(name) if t.val == "if"
                           else self.parse_case(name))
            temps.append(name)
            return CVar(name)
        if kind != "op":
            self.err(f"expected an expression, found {self._show(t)}")
        if t.val == "{":
            if self.pattern_names is not None:
                self.not_pattern(t)
            self.i += 1
            target = self.value(self.parse_primary(out, temps), out, temps)
            args: list = []
            hole: Optional[int] = None
            while True:
                a = toks[self.i]
                if a.kind == "op":
                    if a.val == "}":
                        break
                    if a.val == "$":
                        if hole is not None:
                            self.err("more than one '$' in a call")
                        hole = len(args)
                        self.i += 1
                        continue
                args.append(self.value(self.parse_expr(_ARG_PREC, out, temps),
                                       out, temps))
            self.i += 1
            return _Call(target, args, hole)
        if t.val == "(":
            self.next()
            e = self.parse_expr(1, out, temps)
            self.expect("op", ")")
            return e
        if t.val == "[":
            self.next()
            items = []
            while not self.at("op", "]"):
                items.append(self.arg(_ITEM_PREC, out, temps))
            self.expect("op", "]")
            e = CLit(Atom("nil"))
            for item in reversed(items):
                e = CCompound("|", (item, e))
            return e
        if t.val == "[]":
            self.err("'[]' is an alternative separator; the empty list is 'nil'")
        self.err(f"expected an expression, found {self._show(t)}")


# -- static quiet-guard check -------------------------------------------------


def _guard_binds(arm: IfArm) -> Optional[str]:
    """A variable from outside the guard that the guard visibly binds,
    or None."""
    # The walk keeps its own stack of (statement, declared names), so a
    # long guard takes no Python stack.
    todo = [(arm.guard, frozenset(arm.guard_vars))]
    while todo:
        s, declared = todo.pop()
        if isinstance(s, Block):
            todo.extend((item, declared) for item in reversed(s.stmts))
        elif isinstance(s, Local):
            todo.append((s.body, declared | set(s.names)))
        elif isinstance(s, Unify):
            # A unification that mentions no guard-local variable at all can
            # only affect outer ones; anything subtler is left to the dynamic
            # binding check.  A void is a variable the guard makes.
            seen: list = []
            local = False
            exprs = [s.rhs, s.lhs]
            while exprs:
                x = exprs.pop()
                if isinstance(x, CVar):
                    seen.append(x.name)
                    local = local or x.name in declared
                elif isinstance(x, CAnon):
                    local = True
                elif isinstance(x, CCompound):
                    exprs.extend(reversed(x.args))
            if seen and not local:
                return seen[0]
        elif isinstance(s, BuiltinCall):
            if s.name in _ARITH_OPS or (s.name in _CMP_OPS and len(s.args) == 3):
                res = s.args[-1]
                if isinstance(res, CVar) and res.name not in declared:
                    return res.name
        elif isinstance(s, ProcDef):
            if s.name not in declared:
                return s.name
        elif isinstance(s, IfStmt):
            todo.append((s.otherwise, declared))
            for a in reversed(s.arms):
                todo.append((a.body, declared | set(a.guard_vars)))
                todo.append((a.guard, declared | set(a.guard_vars)))
        elif isinstance(s, CaseStmt):
            todo.append((s.otherwise, declared))
            for a in reversed(s.arms):
                todo.append((a.body, declared | set(expr_names(a.pattern))))
        elif isinstance(s, Choice):
            for alt in reversed(s.alternatives):
                todo.append((alt, declared))
        elif isinstance(s, (ThreadStmt, LazyStmt)):
            todo.append((s.body, declared))
    return None


# -- public API ---------------------------------------------------------------


def _globals(global_names):
    # A sequence is searched in linear time, so it is turned into a set
    # once per parse; any other container is used as it is.
    if isinstance(global_names, (tuple, list)):
        return frozenset(global_names)
    return global_names


def _read(text: str, global_names):
    """Parse a whole text: the parser, the text's statement and the names
    it declares."""
    toks = tokenize(text)
    global_names = _globals(global_names)
    p = _Parser(toks, global_names)
    stmt, declared, _ = p.parse_block(frozenset())
    p.expect("eof")
    revoked = p.finish()
    if revoked:
        p = _Parser(toks, global_names, revoked)
        stmt, declared, _ = p.parse_block(frozenset())
    return p, stmt, declared


def parse_program(text: str, global_names=()) -> Statement:
    """Parse a whole program into one core statement.

    `global_names` holds the names already bound around the program.  It
    is only ever asked whether it holds a name (``in``): it is neither
    iterated, copied nor kept, so any container with membership will do,
    and a parse costs the same however many globals there are.  A tuple
    or list is turned into a set first.
    """
    _, stmt, declared = _read(text, global_names)
    return Local(declared, stmt) if declared else stmt


def parse_interactive(text: str, global_names=(), idents: Optional[set] = None):
    """Parse a top-level chunk, exposing its new declarations.

    Returns (statement, declared_names); the caller owns the new names.
    `global_names` is read as by :func:`parse_program`: by membership
    only, neither copied nor kept.  The result depends only on the text
    and on which of the text's identifiers are global; when `idents` is
    given, those identifiers are added to it, so that a caller can keep
    the parse and tell when it still holds.
    """
    p, stmt, declared = _read(text, global_names)
    if idents is not None:
        idents.update(p.idents)
    return stmt, declared
