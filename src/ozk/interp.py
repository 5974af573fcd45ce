"""Session assembly: a store, a scheduler, builtins and the prelude.

A Session keeps one global environment across feeds, so it backs both
one-shot program runs and the interactive loop.
"""

from __future__ import annotations

from typing import Callable, Optional

from .builtins import make_builtins
from .parser import parse_interactive
from .prelude import PRELUDE
from .runtime import RunResult, Runtime, env_child
from .terms import Store, Term


# text -> (its identifiers, those of them that were global, the parse).
# Statements are immutable, so a parse can be shared between sessions;
# this mostly pays off for the prelude, which every session feeds.
_PARSES: dict = {}
_PARSES_MAX = 64


def _parse_cached(text: str, global_names: dict):
    """Parse a chunk against `global_names`, reusing an earlier parse.

    A parse depends only on the text and on which of the text's
    identifiers are global, so an entry is keyed by the text and holds
    while those identifiers are still the global ones.  The entries are
    kept in least-recently-used order and bounded."""
    entry = _PARSES.pop(text, None)
    if entry is not None and global_names.keys() & entry[0] == entry[1]:
        _PARSES[text] = entry
        return entry[2]
    idents: set = set()
    parsed = parse_interactive(text, global_names, idents)
    if len(_PARSES) >= _PARSES_MAX:
        del _PARSES[next(iter(_PARSES))]
    _PARSES[text] = (idents, global_names.keys() & idents, parsed)
    return parsed


class Session:
    def __init__(self, policy: str = "fifo", seed: Optional[int] = None,
                 max_steps: Optional[int] = None, real_time: bool = False,
                 on_browse: Optional[Callable[[str], None]] = None,
                 on_trace: Optional[Callable[[str, dict], None]] = None,
                 store: Optional[Store] = None, prelude: bool = True):
        funcs, native = make_builtins()
        self.rt = Runtime(store=store, builtins=funcs, policy=policy,
                          seed=seed, max_steps=max_steps, real_time=real_time,
                          on_browse=on_browse, on_trace=on_trace)
        self.store = self.rt.store
        # the global frame is shared, not copied: later feeds add names to it
        self.globals: dict = env_child(None, native)
        self.env = self.globals
        if prelude:
            result = self.feed(PRELUDE)
            if result.status != "done":
                raise AssertionError(f"prelude failed: {result}")

    def names(self) -> tuple:
        return tuple(n for n in self.globals if not n.startswith("\x00"))

    def feed(self, text: str) -> RunResult:
        """Parse a chunk, expose its declarations globally, run to rest."""
        # The frame itself is the global container: its "\x00up" key is
        # never a source identifier.
        stmt, new_names = _parse_cached(text, self.globals)
        for name in new_names:
            self.globals[name] = self.store.new_var()
        self.rt.spawn(stmt, self.env)
        return self.rt.run()

    def lookup(self, name: str) -> Term:
        return self.globals[name]


def run_text(text: str, **options) -> RunResult:
    """Run a whole program in a fresh session."""
    session = Session(**options)
    return session.feed(text)
