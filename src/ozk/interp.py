"""Session assembly: a store, a scheduler, builtins and the prelude.

A Session keeps one global environment across feeds, so it backs both
one-shot program runs and the interactive loop.
"""

from __future__ import annotations

from typing import Callable, Optional

from .builtins import make_builtins
from .compiler import compile_top
from .parser import parse_interactive
from .prelude import PRELUDE, PRELUDE_NAMES
from .runtime import RunResult, Runtime, sched_order
from .terms import Store, Term


# text -> (its identifiers, those of them that were global, the compiled
# chunk and its new global names).  The compiled form holds no session
# state, so it can be shared between sessions; this mostly pays off for
# the prelude, which every session feeds.
_PARSES: dict = {}
_PARSES_MAX = 64


def _compile_cached(text: str, global_names: dict):
    """Parse and compile a chunk against `global_names`, reusing an
    earlier compilation: ``(code, new_names)``.

    A parse depends only on the text and on which of the text's
    identifiers are global, and the compiled form only on the parse, so
    an entry is keyed by the text and holds while those identifiers are
    still the global ones.  The entries are kept in least-recently-used
    order and bounded."""
    entry = _PARSES.pop(text, None)
    if entry is not None and global_names.keys() & entry[0] == entry[1]:
        _PARSES[text] = entry
        return entry[2]
    idents: set = set()
    stmt, new_names = parse_interactive(text, global_names, idents)
    compiled = compile_top(stmt), new_names
    if len(_PARSES) >= _PARSES_MAX:
        del _PARSES[next(iter(_PARSES))]
    _PARSES[text] = (idents, global_names.keys() & idents, compiled)
    return compiled


# The names a program may use without declaring them: the builtins and
# the prelude's procedures, which a session's globals start with.
AMBIENT_NAMES = tuple(make_builtins()) + PRELUDE_NAMES


class Session:
    def __init__(self, policy: str = "fifo", seed: Optional[int] = None,
                 max_steps: Optional[int] = None, real_time: bool = False,
                 on_browse: Optional[Callable[[str], None]] = None,
                 on_trace: Optional[Callable[[str, dict], None]] = None,
                 store: Optional[Store] = None, prelude: bool = True):
        self.rt = Runtime(store=store, order=sched_order(policy, seed),
                          real_time=real_time, on_browse=on_browse,
                          on_trace=on_trace)
        self.store = self.rt.store
        # name -> value, shared by every chunk: later feeds add names to it
        self.globals: dict = make_builtins()
        if prelude:
            result = self.feed(PRELUDE)
            if result.status != "done":
                raise AssertionError(f"prelude failed: {result.status} "
                                     f"{result.failures}")
        # the budget is the user's: the prelude runs before it applies
        self.rt.max_steps = max_steps

    def names(self) -> tuple:
        return tuple(self.globals)

    def feed(self, text: str) -> RunResult:
        """Parse a chunk, expose its declarations globally, run to rest.
        The chunk runs in a frame of its own, its globals taken from the
        shared dictionary when it starts."""
        code, new_names = _compile_cached(text, self.globals)
        for name in new_names:
            self.globals[name] = self.store.new_var()
        self.rt.spawn(code.body, code.frame(self.globals))
        return self.rt.run()

    def lookup(self, name: str) -> Term:
        return self.globals[name]


def run_text(text: str, **options) -> RunResult:
    """Run a whole program in a fresh session."""
    session = Session(**options)
    return session.feed(text)
