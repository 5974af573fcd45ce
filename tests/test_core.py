"""The core tree the parser builds from surface text.

Three checks pin it:

* Goldens: ``syntax.pretty`` of the core of every ``docs/programs/*.ozk``
  program, of the prelude, of each ``ROUND_TRIP_SOURCES`` text of
  ``test_parser.py`` and of one chunk of each ``repl_session`` shape of
  the benchmark, with the names each one exposes, are compared with the
  files in ``tests/golden/core/``.  A change that alters any of them, on
  purpose, shows it by regenerating the files and committing the
  difference:

      PYTHONPATH=src python tests/test_core.py

* A derandomized generator of surface texts (:func:`surface_texts`),
  whose core must print and read back as the same core.
* The order in which errors are reported: syntax errors before scope
  errors, and each scope error with its text and position.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ozk.builtins import make_builtins
from ozk.errors import ParseError
from ozk.parser import parse_interactive, parse_program
from ozk.prelude import PRELUDE, PRELUDE_NAMES
from ozk.syntax import pretty
from test_parser import GLOBALS, ROUND_TRIP_SOURCES

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "docs" / "programs"
CORE = Path(__file__).resolve().parent / "golden" / "core"

# One chunk of each shape of the benchmark's `repl_session` (AFFINE, FOLD,
# COUNT, MAP and REUSE), as its first session writes them; the last calls
# the function the first defines.
REPL_CHUNKS = [
    "fun {F1x0 X} X*3+7 end\n{Browse {F1x0 5}}\n",
    "fun {F1x1 Xs}\n"
    "   case Xs of nil then 0\n"
    "   [] X|Xr then X*2+{F1x1 Xr} end\n"
    "end\n"
    "{Browse {F1x1 [4 8 15]}}\n",
    "fun {F1x2 N}\n"
    "   if N==0 then 9 else 4+{F1x2 N-1} end\n"
    "end\n"
    "{Browse {F1x2 6}}\n",
    "fun {F1x3 X} X+5 end\n{Browse {Map [1 2 3] F1x3}}\n",
    "fun {F1x4 X} {F1x0 X}+6 end\n{Browse {F1x4 3}}\n",
]


def _core(text: str, names) -> tuple:
    """The core of a chunk read against the global `names`, as text,
    and the names it exposes."""
    stmt, exposed = parse_interactive(text, names)
    return f"exposes: {' '.join(exposed)}\n{pretty(stmt)}", exposed


def goldens() -> dict:
    """Golden file name -> its text."""
    native = tuple(make_builtins())
    ambient = native + PRELUDE_NAMES
    out = {"prelude.core": _core(PRELUDE, native)[0]}
    for program in sorted(PROGRAMS.glob("*.ozk")):
        out[f"{program.name}.core"] = _core(program.read_text(), ambient)[0]
    out["round_trip.core"] = "".join(
        f"%% {i}\n{pretty(parse_program(src, GLOBALS))}"
        for i, src in enumerate(ROUND_TRIP_SOURCES))
    texts, names = [], ambient
    for chunk in REPL_CHUNKS:
        text, exposed = _core(chunk, names)
        texts.append(text)
        names += exposed
    out["repl_chunks.core"] = "".join(texts)
    return out


GOLDENS = goldens()


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_core_matches_golden(name):
    assert GOLDENS[name] == (CORE / name).read_text()


def test_every_core_golden_has_a_text():
    assert sorted(p.name for p in CORE.iterdir()) == sorted(GOLDENS)


# -- generated surface texts ----------------------------------------------------

_ARITH = ("+", "-", "*", " div ")
_CMP = ("==", "<", ">", "=<", ">=")


def _lead(text: str) -> str:
    """`text` as a statement: an expression that starts with a keyword
    is put in parentheses, as the keyword would start a statement."""
    return f"({text})" if text.split(" ", 1)[0] in ("if", "case", "fun") \
        else text


class _Gen:
    """Draws one surface text.  Every name it writes is declared: by the
    `local` around the text, by a parameter, a pattern or a guard, or by
    a definition or a unification in the body of a block, which may come
    after the name's first use in that block."""

    def __init__(self, draw):
        self.draw = draw
        self.count = 0
        self.quiet = False      # in a guard: no `if` or `case` expressions

    def new(self, base: str) -> str:
        self.count += 1
        return f"{base}{self.count}"

    def pick(self, seq):
        return self.draw(st.sampled_from(seq))

    def chance(self) -> bool:
        return self.draw(st.booleans())

    # -- expressions

    def primary(self, scope, depth):
        kinds = ["int", "atom", "var", "var"]
        if depth > 0:
            kinds += ["comp", "list", "call", "hole", "paren", "fun"]
            if not self.quiet:
                kinds += ["if", "case"]
        kind = self.pick(kinds)
        if kind == "int":
            return self.pick(("0", "1", "7", "~3"))
        if kind == "atom":
            return self.pick(("a", "nil", "b"))
        if kind == "var":
            return self.pick(scope)
        if kind == "comp":
            return (self.pick(("f", "g")) + "("
                    + " ".join(self.arg(scope, depth - 1)
                               for _ in range(self.draw(st.integers(1, 2))))
                    + ")")
        if kind == "list":
            return "[" + " ".join(self.item(scope, depth - 1) for _ in
                                  range(self.draw(st.integers(1, 2)))) + "]"
        if kind in ("call", "hole"):
            args = [self.arg(scope, depth - 1)
                    for _ in range(self.draw(st.integers(0, 2)))]
            if kind == "hole":
                args.insert(self.draw(st.integers(0, len(args))), "$")
            return "{" + " ".join([self.pick(scope)] + args) + "}"
        if kind == "paren":
            return f"({self.expr(scope, depth - 1)})"
        if kind == "if":
            return self.if_(scope, depth - 1, True)
        if kind == "case":
            return self.case(scope, depth - 1, True)
        return self.fun("$", scope, depth - 1)

    def chain(self, scope, depth):
        """An operator chain over primaries."""
        parts = [self.primary(scope, depth)]
        for _ in range(self.draw(st.integers(0, 2))):
            parts += [self.pick(_ARITH), self.primary(scope, depth)]
        return "".join(parts)

    def cons(self, scope, depth):
        parts = [self.item(scope, depth)]
        for _ in range(self.draw(st.integers(1, 2))):
            parts.append(self.item(scope, depth))
        return "|".join(parts)

    def expr(self, scope, depth):
        """An expression where a value is needed."""
        kind = self.pick(("chain", "chain", "cons", "cmp"))
        if kind == "chain":
            return self.chain(scope, depth)
        if kind == "cons":
            return self.cons(scope, depth)
        return (self.chain(scope, depth) + self.pick(_CMP)
                + self.chain(scope, depth))

    def item(self, scope, depth):
        """A list item or an element of a `|` chain: `_` is a void."""
        return "_" if self.chance() and self.chance() else \
            self.chain(scope, depth)

    def arg(self, scope, depth):
        """An argument of a constructor, where `_` is a void, or of a
        call, where it is a fresh variable."""
        if self.chance() and self.chance():
            return "_"
        return self.expr(scope, depth)

    # -- statements and blocks

    def block(self, scope, depth, result: bool, decls=None):
        """The items of a block; with `result`, its last item is a value.
        Names declared in the body may be used before their declaration.
        `decls` says whether it has a declaration part: True, False, or
        None for either."""
        later = [self.new("N") for _ in range(self.draw(st.integers(0, 1)))]
        inner = scope + later
        head = []
        if decls or (decls is None and self.chance()):
            for _ in range(self.draw(st.integers(1, 2))):
                name = self.new("D")
                kind = self.pick(("bare", "unify", "pair"))
                if kind == "bare":
                    head.append(name)
                elif kind == "unify":
                    head.append(f"{name}={self.expr(inner, depth)}")
                else:
                    other = self.new("D")
                    head.append(f"{name}=f({other} {self.pick(inner)})")
                    inner = inner + [other]
                inner = inner + [name]
        items = [self.statement(inner, depth)
                 for _ in range(self.draw(st.integers(0, 2)))]
        for name in later:
            where = self.draw(st.integers(0, len(items)))
            if self.chance():
                items.insert(where, f"{name}={self.expr(inner, depth)}")
            else:
                items.insert(where, self.fun(name, inner, depth))
        if result:
            items.append(self.final(inner, depth))
        elif not items:
            items.append("skip")
        return " ".join(head + ["in"] * bool(head) + items)

    def final(self, scope, depth):
        kind = self.pick(("expr", "expr", "call", "if", "case", "local")
                         if depth > 0 else ("expr", "call"))
        if kind == "expr":
            # a comparison here would be a test, not a value
            return _lead(self.chain(scope, depth) if self.chance()
                         else self.cons(scope, depth))
        if kind == "call":
            return "{" + " ".join([self.pick(scope)] + [
                self.arg(scope, depth - 1)
                for _ in range(self.draw(st.integers(0, 2)))]) + "}"
        if kind == "if":
            return self.if_(scope, depth - 1, True)
        if kind == "case":
            return self.case(scope, depth - 1, True)
        return f"local {self.block(scope, depth - 1, True, True)} end"

    def statement(self, scope, depth):
        kinds = ["unify", "unify", "call", "test", "skip", "anon"]
        if depth > 0:
            kinds += ["if", "case", "local", "thread", "proc", "fun",
                      "lazyfun", "choice", "callleft", "lazy"]
        kind = self.pick(kinds)
        d = depth - 1
        if kind == "unify":
            return f"{self.pick(scope)}={self.expr(scope, depth)}"
        if kind == "anon":
            return f"_={self.primary(scope, depth)}"
        if kind == "callleft":
            return (f"{{{self.pick(scope)} {self.arg(scope, d)}}}"
                    f"={self.pick(scope + ['_'])}")
        if kind == "call":
            return "{" + " ".join([self.pick(scope)] + [
                self.arg(scope, d)
                for _ in range(self.draw(st.integers(0, 2)))]) + "}"
        if kind == "test":
            return _lead(self.chain(scope, depth) + self.pick(_CMP)
                         + self.chain(scope, depth))
        if kind == "skip":
            return "skip"
        if kind == "if":
            return self.if_(scope, d, False)
        if kind == "case":
            return self.case(scope, d, False)
        if kind == "local":
            return f"local {self.block(scope, d, False, True)} end"
        if kind == "thread":
            return f"thread {self.block(scope, d, False)} end"
        if kind == "choice":
            return ("choice " + " [] ".join(
                self.block(scope, d, False)
                for _ in range(self.draw(st.integers(1, 3)))) + " end")
        if kind == "lazy":
            return f"lazy {self.pick(scope)} then {self.block(scope, d, False)} end"
        if kind == "proc":
            params = self.params()
            name = self.new("P")
            named = [p for p in params if p != "_"]
            return (f"proc {{{name} {' '.join(params)}}} "
                    f"{self.block(scope + named + [name], d, False)} end")
        return self.fun(self.new("Q"), scope, d, lazy=kind == "lazyfun")

    def params(self):
        return [self.new("X") if self.chance() or self.chance() else "_"
                for _ in range(self.draw(st.integers(0, 2)))]

    def fun(self, name, scope, depth, lazy=False):
        params = self.params()
        named = [p for p in params if p != "_"]
        own = [name] if name != "$" else []
        return (f"fun {'lazy ' if lazy else ''}{{{name} {' '.join(params)}}} "
                f"{self.block(scope + named + own, depth, True)} end")

    def if_(self, scope, depth, result):
        arms = []
        for i in range(self.draw(st.integers(1, 2))):
            # A guard binds only its own variables: it holds no block
            quiet, self.quiet = self.quiet, True
            if self.chance():
                guard, inner = self.expr(scope, depth), scope
            else:
                gvars = [self.new("G") for _ in range(self.draw(st.integers(1, 2)))]
                guard = (" ".join(gvars) + " in "
                         + f"{gvars[0]}={self.expr(scope, depth)}")
                inner = scope + gvars
            self.quiet = quiet
            kw = "if" if i == 0 else "elseif"
            arms.append(f"{kw} {guard} then {self.block(inner, depth, result)}")
        text = " ".join(arms)
        if result or self.chance():
            text += f" else {self.block(scope, depth, result)}"
        return text + " end"

    def pattern(self, names: list, depth):
        kind = self.pick(("int", "atom", "var", "anon")
                         + (("comp", "cons", "list") if depth > 0 else ()))
        if kind == "int":
            return self.pick(("0", "~3", "7"))
        if kind == "atom":
            return self.pick(("a", "nil"))
        if kind == "var":
            names.append(self.new("V"))
            return names[-1]
        if kind == "anon":
            return "_"
        if kind == "comp":
            return (self.pick(("f", "g")) + "(" + " ".join(
                self.pattern(names, depth - 1)
                for _ in range(self.draw(st.integers(1, 2)))) + ")")
        if kind == "cons":
            head = self.pattern(names, depth - 1)
            tail = self.pattern(names, depth - 1)
            if "|" in head:
                head = f"({head})"
            return f"{head}|{tail}"
        items = (self.pattern(names, depth - 1)
                 for _ in range(self.draw(st.integers(1, 2))))
        return "[" + " ".join(f"({p})" if "|" in p else p
                              for p in items) + "]"

    def case(self, scope, depth, result):
        text = f"case {self.expr(scope, depth)} of "
        arms = []
        for _ in range(self.draw(st.integers(1, 2))):
            names: list = []
            pat = self.pattern(names, 2)
            arms.append(f"{pat} then {self.block(scope + names, depth, result)}")
        text += " [] ".join(arms)
        tail = self.pick(("none", "else", "elsecase"))
        if tail == "else":
            text += f" else {self.block(scope, depth, result)}"
        elif tail == "elsecase":
            names = []
            pat = self.pattern(names, 1)
            text += (f" elsecase {self.pick(scope)} of {pat} then "
                     f"{self.block(scope + names, depth, result)}")
        return text + " end"


@st.composite
def surface_texts(draw):
    gen = _Gen(draw)
    scope = ["A", "B", "C", "Browse"]
    return f"local A B C in {gen.block(scope, 2, False, False)} end"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(surface_texts())
def test_generated_text_prints_and_reads_back(text):
    core = parse_program(text, ("Browse",))
    printed = pretty(core)
    assert parse_program(printed, ("Browse",)) == core


# -- the order of errors ------------------------------------------------------


def _error(text: str) -> str:
    with pytest.raises(ParseError) as info:
        parse_program(text, GLOBALS)
    return str(info.value)


def test_a_syntax_error_comes_before_an_undeclared_name():
    assert _error("{Browse Y} )") == "line 1:12: expected an expression, found ')'"


def test_a_name_may_be_used_before_its_declaration_in_the_body():
    parse_program("{F} X = 1 fun {F} 1 end", GLOBALS)


@pytest.mark.parametrize("text, core", [
    # X = 1 declares no X of its own where an enclosing block has one,
    # even one that block declares only further on
    ("local B in X = 1 end X = 2",
     "local X in\n   local B in\n      X=1\n   end\n   X=2\nend\n"),
    ("local in X = 1 end X = 2", "local X in\n   X=1\n   X=2\nend\n"),
    ("local Y = f(X) local in X = 1 end in skip end",
     "local Y X in\n   Y=f(X)\n   X=1\n   skip\nend\n"),
    ("if a == b then X = 1 end {Browse 1}",
     "if a==b then\n   local X in\n      X=1\n   end\nend\n{Browse 1}\n"),
])
def test_a_block_declares_what_no_enclosing_block_does(text, core):
    assert pretty(parse_program(text, GLOBALS)) == core


@pytest.mark.parametrize("text, error", [
    ("proc {P X X} skip end", "line 1:1: parameter X repeated"),
    ("local X in if Y Y in skip then skip end end",
     "line 1:12: guard variable Y repeated"),
    ("fun {F} end", "line 1:9: a value is expected here"),
    ("fun {F}\n  X = 1\nend",
     "line 2:3: function body must end in an expression"),
    ("X Y", "line 1:1: variable X by itself is not a statement"),
    ("X = (Y = 1)", "line 1:8: '=' cannot be nested inside an expression"),
    ("lazy R then skip end", "line 1:6: undeclared variable R"),
    ("X = 1 {Browse $}",
     "line 1:7: '$' only makes sense where a result is expected"),
    ("local X in {Browse {F X $}} end", "line 1:21: undeclared variable F"),
    ("f(A) = B", "line 1:3: undeclared variable A"),
])
def test_a_scope_error_keeps_its_text_and_position(text, error):
    assert _error(text) == error


def test_a_scope_error_is_not_incomplete_input():
    with pytest.raises(ParseError) as info:
        parse_program("local X in {Browse Y}", GLOBALS)
    assert info.value.incomplete
    with pytest.raises(ParseError) as info:
        parse_program("local X in {Browse Y} end", GLOBALS)
    assert not getattr(info.value, "incomplete", False)
    assert str(info.value) == "line 1:20: undeclared variable Y"


def regenerate() -> None:
    CORE.mkdir(parents=True, exist_ok=True)
    for stale in CORE.iterdir():
        stale.unlink()
    for name, text in GOLDENS.items():
        (CORE / name).write_text(text)


if __name__ == "__main__":
    regenerate()
