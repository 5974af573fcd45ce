"""Lexer, parser and desugarer: surface text to core statements.

The surface language adds functions, nested calls, operator expressions,
anonymous variables, list sugar and implicit declarations on top of the
core statement set in syntax.py.  The desugarer removes all of that.
A ``case`` pattern is written as a record expression and read by the one
expression grammar; the parser then checks that the expression is a
pattern and turns it into one.

Two lowering disciplines matter for performance and are fixed here:

* A unification statement ``X = <constructor containing calls>`` binds the
  constructor skeleton *first* (with fresh holes) and then runs the nested
  calls left to right, the last one in tail position.  That keeps recursive
  list builders iterative and makes partial results visible to consumers
  before the producer finishes.
* Everywhere else (call arguments, case subjects, tests) nested calls are
  lifted into fresh locals evaluated left to right *before* the enclosing
  statement.

A ``fun lazy {F X} E end`` is the procedure ``proc {F X R} lazy R then
R = E end end``: a call leaves its body as a by-need trigger on its
result ``R`` (``syntax.LazyStmt``; run by ``runtime.Runtime.by_need``),
which the first thread to need ``R`` enters on its own stack.  It spawns
no thread.  ``lazy R then S end`` is also read as a statement, so that
the desugared form prints and reads back; its ``R`` must be declared.
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
_RIGHT_ASSOC = {"|"}

_ARG_PREC = 2        # call/constructor arguments: everything above '='
_ITEM_PREC = 4       # list display items: above '|'

# Expressions (patterns among them) and blocks may nest this deep, and so
# may the links of an `elsecase` chain, each in the one before, as each
# desugars to the `else` of the one before.  The parser, the desugarer and
# the compiler recurse once per level, so deeper input is refused with a
# syntax error where its nesting is entered.
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
            while i < n and src[i] != "\n":
                i += 1
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


# -- surface syntax tree ---------------------------------------------------


class EInt:
    __slots__ = ("v", "pos")

    def __init__(self, v: int, pos: tuple):
        self.v = v
        self.pos = pos


class EAtom:
    __slots__ = ("name", "pos")

    def __init__(self, name: str, pos: tuple):
        self.name = name
        self.pos = pos


class EVar:
    __slots__ = ("name", "pos")

    def __init__(self, name: str, pos: tuple):
        self.name = name
        self.pos = pos


class EAnon:
    __slots__ = ("pos",)

    def __init__(self, pos: tuple):
        self.pos = pos


class EComp:
    __slots__ = ("label", "args", "pos")

    def __init__(self, label: str, args: list, pos: tuple):
        self.label = label
        self.args = args
        self.pos = pos


class ECall:
    __slots__ = ("target", "args", "hole", "pos")

    def __init__(self, target: object, args: list, hole: Optional[int],
                 pos: tuple):
        self.target = target
        self.args = args
        self.hole = hole
        self.pos = pos


class EBin:
    __slots__ = ("op", "l", "r", "pos")

    def __init__(self, op: str, l: object, r: object, pos: tuple):
        self.op = op
        self.l = l
        self.r = r
        self.pos = pos


class GExpr:
    __slots__ = ("e",)

    def __init__(self, e: object):
        self.e = e


class GStmts:
    __slots__ = ("vars", "block")

    def __init__(self, vars: list, block: SBlock):
        self.vars = vars
        self.block = block


class EIf:
    __slots__ = ("arms", "els", "pos")

    def __init__(self, arms: list, els: Optional[SBlock], pos: tuple):
        self.arms = arms        # (guard, SBlock) pairs
        self.els = els
        self.pos = pos


class ECase:
    __slots__ = ("subject", "arms", "els", "pos")

    def __init__(self, subject: object, arms: list, els: object, pos: tuple):
        self.subject = subject
        self.arms = arms        # (pattern, SBlock) pairs
        self.els = els          # None | SBlock | ECase (elsecase chain)
        self.pos = pos


class EDef:
    __slots__ = ("name", "params", "body", "isfun", "lazy", "pos")

    def __init__(self, name: Optional[str], params: list, body: SBlock,
                 isfun: bool, lazy: bool, pos: tuple):
        self.name = name        # None for anonymous ($) definitions
        self.params = params    # 'var' names or None for _ placeholders
        self.body = body
        self.isfun = isfun
        self.lazy = lazy
        self.pos = pos


class SBlock:
    __slots__ = ("decls", "body", "has_in", "pos")

    def __init__(self, decls: list, body: list, has_in: bool, pos: tuple):
        self.decls = decls
        self.body = body
        self.has_in = has_in
        self.pos = pos


class SSkip:
    __slots__ = ("pos",)

    def __init__(self, pos: tuple):
        self.pos = pos


class SFail:
    __slots__ = ("pos",)

    def __init__(self, pos: tuple):
        self.pos = pos


class SLocal:
    __slots__ = ("block", "pos")

    def __init__(self, block: SBlock, pos: tuple):
        self.block = block
        self.pos = pos


class SThread:
    """``thread ... end``, or with ``result`` ``lazy R then ... end``."""
    __slots__ = ("block", "pos", "result")

    def __init__(self, block: SBlock, pos: tuple,
                 result: Optional[Tok] = None):
        self.block = block
        self.pos = pos
        self.result = result


class SChoice:
    __slots__ = ("blocks", "pos")

    def __init__(self, blocks: list, pos: tuple):
        self.blocks = blocks
        self.pos = pos


class SUnify:
    __slots__ = ("l", "r", "pos")

    def __init__(self, l: object, r: object, pos: tuple):
        self.l = l
        self.r = r
        self.pos = pos


class STest:
    __slots__ = ("e", "pos")

    def __init__(self, e: EBin, pos: tuple):
        self.e = e
        self.pos = pos


class SCallS:
    __slots__ = ("call", "pos")

    def __init__(self, call: ECall, pos: tuple):
        self.call = call
        self.pos = pos


class SExpr:
    __slots__ = ("e", "pos")

    def __init__(self, e: object, pos: tuple):
        self.e = e
        self.pos = pos


# -- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, src: str):
        self.toks = tokenize(src)
        self.i = 0
        self.depth = 0           # open nesting levels, see MAX_NESTING
        self.idents: set[str] = {t.val for t in self.toks if t.kind == "var"}

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

    # -- blocks ---------------------------------------------------------

    def at_stop(self, stops) -> bool:
        t = self.peek()
        if t.kind == "eof":
            return True
        return (t.kind in ("kw", "op")) and t.val in stops

    def parse_block(self, stops) -> SBlock:
        self.enter()
        pos = (self.peek().line, self.peek().col)
        decls: Optional[list] = None
        items: list = []
        while not self.at_stop(stops):
            if self.at("kw", "in"):
                if decls is not None:
                    self.err("duplicate 'in' in the same block")
                self.next()
                decls, items = items, []
                continue
            items.append(self.parse_statement())
        self.depth -= 1
        return SBlock(decls or [], items, decls is not None, pos)

    def parse_program(self) -> SBlock:
        b = self.parse_block(frozenset())
        self.expect("eof")
        return b

    # -- statements -------------------------------------------------------

    def parse_statement(self):
        t = self.peek()
        if t.kind == "kw":
            if t.val == "skip":
                self.next()
                return SSkip((t.line, t.col))
            if t.val == "fail":
                self.next()
                return SFail((t.line, t.col))
            if t.val == "local":
                self.next()
                b = self.parse_block(frozenset({"end"}))
                self.expect("kw", "end")
                if not b.has_in:
                    self.err("'local' needs 'in' before its body", t)
                return SLocal(b, (t.line, t.col))
            if t.val == "thread":
                self.next()
                b = self.parse_block(frozenset({"end"}))
                self.expect("kw", "end")
                return SThread(b, (t.line, t.col))
            if t.val == "lazy" and self.at("var", k=1):
                self.next()
                result = self.next()
                self.expect("kw", "then")
                b = self.parse_block(frozenset({"end"}))
                self.expect("kw", "end")
                return SThread(b, (t.line, t.col), result)
            if t.val == "choice":
                self.next()
                blocks = [self.parse_block(frozenset({"[]", "end"}))]
                while self.at("op", "[]"):
                    self.next()
                    blocks.append(self.parse_block(frozenset({"[]", "end"})))
                self.expect("kw", "end")
                return SChoice(blocks, (t.line, t.col))
            if t.val in ("proc", "fun"):
                d = self.parse_def()
                if d.name is None:
                    self.err("an anonymous definition is not a statement", t)
                return SExpr(d, d.pos)
            if t.val == "if":
                return SExpr(self.parse_if(), (t.line, t.col))
            if t.val == "case":
                return SExpr(self.parse_case(), (t.line, t.col))
            self.err(f"unexpected keyword '{t.val}'")
        e = self.parse_expr(1)
        pos = (t.line, t.col)
        if isinstance(e, EBin) and e.op == "=":
            return SUnify(e.l, e.r, pos)
        if isinstance(e, EBin) and e.op in _CMP_OPS:
            return STest(e, pos)
        if isinstance(e, ECall):
            return SCallS(e, pos)
        return SExpr(e, pos)

    def parse_def(self) -> EDef:
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
        name: Optional[str] = None
        if head.kind == "var":
            name = self.next().val
        elif head.kind == "op" and head.val == "$":
            self.next()
        else:
            self.err("definition head must be a variable or '$'")
        params: list = []
        while not self.at("op", "}"):
            p = self.peek()
            if p.kind == "var":
                params.append(self.next().val)
            elif p.kind == "anon":
                self.next()
                params.append(None)
            else:
                self.err("formal parameter must be a variable or '_'")
        self.expect("op", "}")
        body = self.parse_block(frozenset({"end"}))
        self.expect("kw", "end")
        return EDef(name, params, body, isfun, lazy, (t.line, t.col))

    def parse_if(self) -> EIf:
        t = self.expect("kw", "if")
        arms = [self.parse_if_arm()]
        while self.at("kw", "elseif"):
            self.next()
            arms.append(self.parse_if_arm())
        els = None
        if self.at("kw", "else"):
            self.next()
            els = self.parse_block(frozenset({"end"}))
        self.expect("kw", "end")
        return EIf(arms, els, (t.line, t.col))

    def parse_if_arm(self):
        # lookahead: VAR* 'in' means an explicit statement guard
        k = 0
        while self.at("var", k=k):
            k += 1
        if self.at("kw", "in", k=k):
            vars_ = [self.next().val for _ in range(k)]
            self.next()  # in
            block = self.parse_block(frozenset({"then"}))
            self.expect("kw", "then")
            guard = GStmts(vars_, block)
        else:
            e = self.parse_expr(2)
            self.expect("kw", "then")
            guard = GExpr(e)
        body = self.parse_block(frozenset({"elseif", "else", "end"}))
        return (guard, body)

    def parse_case(self, tok: Optional[Tok] = None) -> ECase:
        """Read ``case ... end``; given `tok`, the ``elsecase`` just read,
        read that link of the chain, whose ``end`` the chain's head reads.
        Each link nests one level in the one before, as its desugaring
        does."""
        t = tok or self.expect("kw", "case")
        subject = self.parse_expr(2)
        self.expect("kw", "of")
        arms = [self.parse_case_arm()]
        while self.at("op", "[]"):
            self.next()
            arms.append(self.parse_case_arm())
        els = None
        if self.at("kw", "else"):
            self.next()
            els = self.parse_block(frozenset({"end"}))
        elif self.at("kw", "elsecase"):
            self.enter()
            els = self.parse_case(self.next())
            self.depth -= 1
        if tok is None:
            self.expect("kw", "end")
        return ECase(subject, arms, els, (t.line, t.col))

    def parse_case_arm(self):
        pat = self.pattern(self.parse_expr(_PREC["|"]), set())
        self.expect("kw", "then")
        body = self.parse_block(frozenset({"[]", "else", "elsecase", "end"}))
        return (pat, body)

    def pattern(self, e, seen: set):
        """The `case` pattern that the expression `e` writes: integers,
        atoms, names (each at most once, kept in `seen`), ``_``, and
        constructors and ``|`` cells of patterns."""
        heads = []
        while isinstance(e, EBin) and e.op == "|":
            heads.append(self.pattern(e.l, seen))
            e = e.r
        if isinstance(e, EInt):
            p = CLit(Int(e.v))
        elif isinstance(e, EAtom):
            p = CLit(Atom(e.name))
        elif isinstance(e, EVar):
            if e.name in seen:
                raise ParseError(f"variable {e.name} occurs twice in one "
                                 "pattern", *e.pos)
            seen.add(e.name)
            p = CVar(e.name)
        elif isinstance(e, EAnon):
            p = CAnon()
        elif isinstance(e, EComp):
            p = CCompound(e.label, tuple(self.pattern(a, seen)
                                         for a in e.args))
        else:
            raise ParseError("expected a pattern", *e.pos)
        for head in reversed(heads):
            p = CCompound("|", (head, p))
        return p

    # -- expressions --------------------------------------------------------

    def _adjacent(self, prev: Tok) -> bool:
        nxt = self.peek()
        return nxt.line == prev.line and nxt.col == prev.end

    def parse_expr(self, min_prec: int):
        left = self.parse_primary()
        while True:
            t = self.peek()
            if t.kind != "op" or t.val not in _PREC:
                return left
            op = t.val
            prec = _PREC[op]
            if prec < min_prec:
                return left
            self.next()
            if op in _RIGHT_ASSOC:
                # A chain E1 op E2 op ... op En, read in a loop and folded
                # from the right; each Ei binds tighter than op.
                parts = [(left, t)]
                right = self.parse_expr(prec + 1)
                while self.at("op", op):
                    parts.append((right, self.next()))
                    right = self.parse_expr(prec + 1)
                for operand, tok in reversed(parts):
                    right = EBin(op, operand, right, (tok.line, tok.col))
                left = right
            else:
                right = self.parse_expr(prec + 1)
                left = EBin(op, left, right, (t.line, t.col))

    def parse_primary(self):
        self.enter()
        e = self._primary()
        self.depth -= 1
        return e

    def _primary(self):
        t = self.peek()
        pos = (t.line, t.col)
        if t.kind == "int":
            self.next()
            return EInt(t.val, pos)
        if t.kind == "var":
            self.next()
            return EVar(t.val, pos)
        if t.kind == "anon":
            self.next()
            return EAnon(pos)
        if t.kind == "atom":
            self.next()
            if self.at("op", "(") and self._adjacent(t):
                self.next()
                args = []
                while not self.at("op", ")"):
                    args.append(self.parse_expr(_ARG_PREC))
                self.expect("op", ")")
                if not args:
                    self.err("constructor needs at least one argument", t)
                return EComp(t.val, args, pos)
            return EAtom(t.val, pos)
        if t.kind == "kw" and t.val in ("proc", "fun"):
            d = self.parse_def()
            if d.name is not None:
                self.err("a named definition is a statement, not an expression", t)
            return d
        if t.kind == "kw" and t.val == "if":
            return self.parse_if()
        if t.kind == "kw" and t.val == "case":
            return self.parse_case()
        if t.kind != "op":
            self.err(f"expected an expression, found {self._show(t)}")
        if t.val == "{":
            self.next()
            target = self.parse_primary()
            args: list = []
            hole: Optional[int] = None
            while not self.at("op", "}"):
                if self.at("op", "$"):
                    if hole is not None:
                        self.err("more than one '$' in a call")
                    hole = len(args)
                    self.next()
                    continue
                args.append(self.parse_expr(_ARG_PREC))
            self.expect("op", "}")
            return ECall(target, args, hole, pos)
        if t.val == "(":
            self.next()
            e = self.parse_expr(1)
            self.expect("op", ")")
            return e
        if t.val == "[":
            self.next()
            items = []
            while not self.at("op", "]"):
                items.append(self.parse_expr(_ITEM_PREC))
            self.expect("op", "]")
            out = EAtom("nil", pos)
            for item in reversed(items):
                out = EBin("|", item, out, pos)
            return out
        if t.val == "[]":
            self.err("'[]' is an alternative separator; the empty list is 'nil'")
        self.err(f"expected an expression, found {self._show(t)}")


# -- desugarer ---------------------------------------------------------------

_NEW = object()     # a call's result that is a fresh temporary (call_core)


class _Scope:
    """One level of a lexical scope over the level that encloses it.

    A level holds the few names one construct binds: a block's
    declarations, a definition's parameters and result, guard or pattern
    variables.  The bottom of the chain is the caller's global container,
    which is only ever asked whether it holds a name, so the cost of a
    scope test does not grow with the number of globals.
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


class _Desugar:
    def __init__(self, idents: set):
        # Fresh temporaries avoid only the text's own identifiers.  Each is
        # bound by an enclosing `local` or parameter list, so it can shadow
        # only names the text never mentions.
        self.idents = idents
        self.counter = 0

    def fresh(self, base: str = "T") -> str:
        while True:
            self.counter += 1
            name = f"_{base}{self.counter}"
            if name not in self.idents:
                return name

    @staticmethod
    def err(msg: str, pos):
        raise ParseError(msg, pos[0], pos[1])

    def wrap(self, temps: list, stmts: list) -> Statement:
        body = seq_all(stmts)
        return Local(tuple(temps), body) if temps else body

    # -- expression lowering ------------------------------------------------

    def lower(self, e, scope, fills: list, temps: list):
        """Lower a surface expression to a core constructor expression.

        Statements that compute sub-results are appended to `fills`, their
        fresh result names to `temps`.  The caller decides whether fills
        run before the consuming statement (eager) or after a unification
        (skeleton-first).  A `_` that is an argument of a compound (or a
        list's head or tail) becomes a void, CAnon; anywhere else it is a
        fresh temporary.
        """
        if isinstance(e, EInt):
            return CLit(Int(e.v))
        if isinstance(e, EAtom):
            return CLit(Atom(e.name))
        if isinstance(e, EVar):
            if e.name not in scope:
                self.err(f"undeclared variable {e.name}", e.pos)
            return CVar(e.name)
        if isinstance(e, EAnon):
            t = self.fresh("A")
            temps.append(t)
            return CVar(t)
        if isinstance(e, EComp):
            return CCompound(e.label, tuple(self.lower_arg(a, scope, fills, temps)
                                            for a in e.args))
        if isinstance(e, EBin):
            if e.op == "|":
                # Loop down the spine, so a long list literal takes no
                # stack; heads are lowered first to last, then the tail.
                heads = []
                while isinstance(e, EBin) and e.op == "|":
                    heads.append(self.lower_arg(e.l, scope, fills, temps))
                    e = e.r
                out = self.lower_arg(e, scope, fills, temps)
                for head in reversed(heads):
                    out = CCompound("|", (head, out))
                return out
            # Loop down a left-leaning chain such as 1+2+...+n, so that its
            # length takes no stack.  Operands are lowered left to right and
            # each operation's result is named after its operands, as plain
            # recursion would.
            chain = []
            while isinstance(e, EBin) and e.op != "|":
                if e.op == "=":
                    self.err("'=' cannot be nested inside an expression", e.pos)
                chain.append(e)
                e = e.l
            out = self.lower(e, scope, fills, temps)
            for link in reversed(chain):
                b = self.lower(link.r, scope, fills, temps)
                t = self.fresh()
                temps.append(t)
                fills.append(BuiltinCall(link.op, (out, b, CVar(t))))
                out = CVar(t)
            return out
        if isinstance(e, ECall):
            return self.call_core(e, scope, fills, temps, _NEW)
        if isinstance(e, EDef):
            if e.name is not None:
                self.err("a named definition is not an expression", e.pos)
            t = self.fresh("P")
            temps.append(t)
            fills.append(self.def_core(e, scope, t))
            return CVar(t)
        if isinstance(e, EIf):
            t = self.fresh("R")
            temps.append(t)
            fills.append(self.if_core(e, scope, t))
            return CVar(t)
        if isinstance(e, ECase):
            t = self.fresh("R")
            temps.append(t)
            fills.append(self.case_core(e, scope, t))
            return CVar(t)
        raise TypeError(f"cannot lower {type(e).__name__}")

    def call_core(self, call: ECall, scope, pre: list, temps: list,
                  res=None):
        """Lower a call into `pre`: the statements its target and then its
        arguments need, left to right, and the call itself.  `res`, its
        result, goes in at the `$` hole, or last; `_NEW` makes it a fresh
        temporary, named once the arguments are lowered.  Returns `res`."""
        target = self.lower(call.target, scope, pre, temps)
        args = [self.lower(a, scope, pre, temps) for a in call.args]
        if res is _NEW:
            res = CVar(self.fresh("R"))
            temps.append(res.name)
        if res is not None:
            args.insert(len(args) if call.hole is None else call.hole, res)
        pre.append(Call(target, tuple(args)))
        return res

    def lower_arg(self, e, scope, fills: list, temps: list):
        """Lower an argument of a compound: there `_` is a void."""
        if isinstance(e, EAnon):
            return CAnon()
        return self.lower(e, scope, fills, temps)

    # -- statement lowering ---------------------------------------------------

    def stmt_core(self, s, scope) -> Statement:
        if isinstance(s, SSkip):
            return Skip()
        if isinstance(s, SFail):
            return Fail()
        if isinstance(s, SUnify):
            return self.unify_core(s, scope)
        if isinstance(s, STest):
            pre: list = []
            temps: list = []
            a = self.lower(s.e.l, scope, pre, temps)
            b = self.lower(s.e.r, scope, pre, temps)
            return self.wrap(temps, pre + [BuiltinCall(s.e.op, (a, b))])
        if isinstance(s, SCallS):
            if s.call.hole is not None:
                self.err("'$' only makes sense where a result is expected", s.pos)
            pre, temps = [], []
            self.call_core(s.call, scope, pre, temps)
            return self.wrap(temps, pre)
        if isinstance(s, SThread):
            r = s.result
            if r is None:
                return ThreadStmt(self.block_core(s.block, scope, None))
            if r.val not in scope:
                self.err(f"undeclared variable {r.val}", (r.line, r.col))
            return LazyStmt(r.val, self.block_core(s.block, scope, None))
        if isinstance(s, SChoice):
            return Choice(tuple(self.block_core(b, scope, None) for b in s.blocks))
        if isinstance(s, SLocal):
            return self.block_core(s.block, scope, None)
        if isinstance(s, SExpr):
            e = s.e
            if isinstance(e, EDef) and e.name is not None:
                return self.def_core(e, scope, e.name)
            if isinstance(e, EIf):
                return self.if_core(e, scope, None)
            if isinstance(e, ECase):
                return self.case_core(e, scope, None)
            if isinstance(e, EVar):
                self.err(f"variable {e.name} by itself is not a statement", s.pos)
            self.err("this expression is only allowed as a function result", s.pos)
        raise TypeError(f"cannot desugar {type(s).__name__}")

    def unify_core(self, s: SUnify, scope) -> Statement:
        # When one side is exactly a call and the other a variable, pass the
        # variable as the call's result argument: no intermediate unification,
        # and the call stays in tail position.
        for a, b in ((s.l, s.r), (s.r, s.l)):
            if isinstance(b, ECall) and isinstance(a, (EVar, EAnon)):
                pre, temps = [], []
                res = self.lower(a, scope, pre, temps)
                self.call_core(b, scope, pre, temps, res)
                return self.wrap(temps, pre)
            if (isinstance(b, EBin) and b.op in (_ARITH_OPS | _CMP_OPS)
                    and isinstance(a, (EVar, EAnon))):
                # X = A+B computes straight into X, no temporary
                pre, temps = [], []
                res = self.lower(a, scope, pre, temps)
                x = self.lower(b.l, scope, pre, temps)
                y = self.lower(b.r, scope, pre, temps)
                return self.wrap(temps, pre + [BuiltinCall(b.op, (x, y, res))])
        fills: list = []
        temps: list = []
        lhs = self.lower(s.l, scope, fills, temps)
        rhs = self.lower(s.r, scope, fills, temps)
        return self.wrap(temps, [Unify(lhs, rhs)] + fills)

    def def_core(self, e: EDef, scope, name: str) -> ProcDef:
        params: list = []
        seen: set[str] = set()
        for p in e.params:
            if p is None:
                params.append(self.fresh("A"))
                continue
            if p in seen:
                self.err(f"parameter {p} repeated", e.pos)
            seen.add(p)
            params.append(p)
        inner = {name, *params}
        if e.isfun:
            res = self.fresh("R")
            inner.add(res)
            body = self.block_core(e.body, _Scope(inner, scope), res)
            if e.lazy:
                body = LazyStmt(res, body)
            return ProcDef(name, tuple(params) + (res,), body)
        if e.lazy:
            self.err("'lazy' only applies to 'fun'", e.pos)
        return ProcDef(name, tuple(params),
                       self.block_core(e.body, _Scope(inner, scope), None))

    def if_core(self, e: EIf, scope, result: Optional[str]) -> Statement:
        arms = []
        for guard, block in e.arms:
            if isinstance(guard, GExpr):
                pre: list = []
                temps: list = []
                g = guard.e
                if isinstance(g, EBin) and g.op in _CMP_OPS:
                    a = self.lower(g.l, scope, pre, temps)
                    b = self.lower(g.r, scope, pre, temps)
                    test = BuiltinCall(g.op, (a, b))
                else:
                    v = self.lower(g, scope, pre, temps)
                    test = BuiltinCall("$test", (v,))
                gstmt = self.wrap(temps, pre + [test])
                gvars: tuple = ()
            else:
                seen = set()
                for v in guard.vars:
                    if v in seen:
                        self.err(f"guard variable {v} repeated", e.pos)
                    seen.add(v)
                gvars = tuple(guard.vars)
                gstmt = self.block_core(guard.block, _nest(scope, gvars), None)
            body = self.block_core(block, _nest(scope, gvars), result)
            arm = IfArm(gvars, gstmt, body)
            _check_quiet_guard(arm, e.pos)
            arms.append(arm)
        otherwise = (self.block_core(e.els, scope, result)
                     if e.els is not None else Skip())
        return IfStmt(tuple(arms), otherwise)

    def case_core(self, e: ECase, scope, result: Optional[str]) -> Statement:
        pre: list = []
        temps: list = []
        subject = self.lower(e.subject, scope, pre, temps)
        arms = []
        for pat, block in e.arms:
            body = self.block_core(block, _nest(scope, expr_names(pat)),
                                   result)
            arms.append(CaseArm(pat, body))
        if e.els is None:
            otherwise: Statement = Fail()
        elif isinstance(e.els, ECase):
            otherwise = self.case_core(e.els, scope, result)
        else:
            otherwise = self.block_core(e.els, scope, result)
        return self.wrap(temps, pre + [CaseStmt(subject, tuple(arms), otherwise)])

    # -- blocks and implicit declaration ------------------------------------

    def block_core(self, b: SBlock, scope, result: Optional[str],
                   expose: bool = False):
        declared: list = []
        own: set[str] = set()

        def add(name: str, force: bool):
            if name in own or (not force and name in scope):
                return
            declared.append(name)
            own.add(name)

        for item in b.decls:
            if isinstance(item, SExpr) and isinstance(item.e, EDef) and item.e.name:
                add(item.e.name, force=True)
            elif isinstance(item, SExpr) and isinstance(item.e, EVar):
                add(item.e.name, force=True)
            elif isinstance(item, SUnify):
                if isinstance(item.l, EVar):
                    add(item.l.name, force=True)
                for side in (item.l, item.r):
                    for name in _declarable_idents(side):
                        add(name, force=False)
        for item in b.body:
            if isinstance(item, SExpr) and isinstance(item.e, EDef) and item.e.name:
                add(item.e.name, force=True)
            elif isinstance(item, SUnify) and isinstance(item.l, EVar):
                add(item.l.name, force=False)

        inner = _nest(scope, own)
        decl_ids = {id(x) for x in b.decls}
        items = list(b.decls) + list(b.body)
        final = None
        if result is not None:
            if not items:
                self.err("a value is expected here", b.pos)
            final = items.pop()

        core = []
        for item in items:
            if (isinstance(item, SExpr) and isinstance(item.e, EVar)
                    and id(item) in decl_ids):
                continue  # pure declaration, nothing to execute
            core.append(self.stmt_core(item, inner))
        if final is not None:
            core.append(self.final_core(final, inner, result))

        stmt = seq_all(core)
        if expose:
            return stmt, tuple(declared)
        return Local(tuple(declared), stmt) if declared else stmt

    def final_core(self, item, scope, result: str) -> Statement:
        """Lower a block's final item so that it produces `result`."""
        if isinstance(item, SCallS):
            pre, temps = [], []
            self.call_core(item.call, scope, pre, temps, CVar(result))
            return self.wrap(temps, pre)
        if isinstance(item, SLocal):
            return self.block_core(item.block, scope, result)
        if isinstance(item, SExpr):
            e = item.e
            if isinstance(e, EIf):
                return self.if_core(e, scope, result)
            if isinstance(e, ECase):
                return self.case_core(e, scope, result)
            if isinstance(e, EDef) and e.name is not None:
                self.err("function body must end in an expression", item.pos)
            return self.unify_core(
                SUnify(EVar(result, item.pos), e, item.pos),
                _Scope((result,), scope))
        self.err("function body must end in an expression", item.pos)


def _declarable_idents(e) -> list:
    """Variable names introducible by a declaration-part unification.

    Call and definition subtrees are skipped: their arguments are uses,
    not declarations.
    """
    out: list = []
    todo = [e]                 # left to right, without recursion
    while todo:
        x = todo.pop()
        if isinstance(x, EVar):
            out.append(x.name)
        elif isinstance(x, EComp):
            todo.extend(reversed(x.args))
        elif isinstance(x, EBin) and x.op == "|":
            todo.append(x.r)
            todo.append(x.l)
    return out


# -- static quiet-guard check -------------------------------------------------


def _check_quiet_guard(arm: IfArm, pos):
    """Reject guards that visibly bind variables from outside the guard."""

    def bad(name):
        raise QuietGuardViolation(
            f"line {pos[0]}:{pos[1]}: guard may bind only its own variables, "
            f"not {name}")

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
                bad(seen[0])
        elif isinstance(s, BuiltinCall):
            if s.name in _ARITH_OPS or (s.name in _CMP_OPS and len(s.args) == 3):
                res = s.args[-1]
                if isinstance(res, CVar) and res.name not in declared:
                    bad(res.name)
        elif isinstance(s, ProcDef):
            if s.name not in declared:
                bad(s.name)
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


# -- public API ---------------------------------------------------------------


def _globals(global_names):
    # A sequence is searched in linear time, so it is turned into a set
    # once per parse; any other container is used as it is.
    if isinstance(global_names, (tuple, list)):
        return frozenset(global_names)
    return global_names


def parse_program(text: str, global_names=()) -> Statement:
    """Parse and desugar a whole program into one core statement.

    `global_names` holds the names already bound around the program.  It
    is only ever asked whether it holds a name (``in``): it is neither
    iterated, copied nor kept, so any container with membership will do,
    and a parse costs the same however many globals there are.  A tuple
    or list is turned into a set first.
    """
    p = _Parser(text)
    block = p.parse_program()
    return _Desugar(p.idents).block_core(block, _globals(global_names), None)


def parse_interactive(text: str, global_names=(), idents: Optional[set] = None):
    """Parse a top-level chunk, exposing its new declarations.

    Returns (statement, declared_names); the caller owns the new names.
    `global_names` is read as by :func:`parse_program`: by membership
    only, neither copied nor kept.  The result depends only on the text
    and on which of the text's identifiers are global; when `idents` is
    given, those identifiers are added to it, so that a caller can keep
    the parse and tell when it still holds.
    """
    p = _Parser(text)
    block = p.parse_program()
    if idents is not None:
        idents.update(p.idents)
    return _Desugar(p.idents).block_core(block, _globals(global_names), None,
                                         expose=True)
