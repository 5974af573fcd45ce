"""Shared exception types.

Unification failure is not an exception (it is an ordinary outcome returned
by the store); these classes cover genuine errors that abort a run, plus
parse-time rejections.
"""


class OzkError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(OzkError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"line {line}:{col}: {message}"
        super().__init__(message)


class RuntimeFailure(OzkError):
    """A runtime error that aborts the whole run (type error, arity
    mismatch, arithmetic overflow, apply of a non-procedure, ...)."""


class ChoiceOutsideSearchError(RuntimeFailure):
    """A choice statement was reached by a thread not running inside a
    search engine."""


class ThreadInSearchError(RuntimeFailure):
    """A thread statement or a lazy call was reached inside a search
    engine or guard."""


class EscapeError(RuntimeFailure):
    """A search goal bound a variable that its engine's space does not
    own, one made outside the engine.  The engine checks after each step
    that grew its trail, so a binding that a later failure undoes is
    still an escape."""


class QuietGuardViolation(OzkError):
    """A guard bound a variable that is not one of its declared guard
    variables.  Raised statically by the parser where detectable, and
    otherwise when a deep guard's space commits: its whole trail is
    checked then, once, so a binding that the guard's own failure undoes
    is none."""


class UnsupportedConstruct(OzkError):
    """The Prolog front end met a construct outside the supported subset."""


class PlacementError(OzkError):
    """A node placement refers to a thread that does not exist or is
    otherwise malformed."""


class SearchStuckError(RuntimeFailure):
    """A search goal suspended on a variable that nothing inside the
    engine can ever bind (engines run their goal sequentially)."""
