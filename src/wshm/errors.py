"""Exception hierarchy shared by all wshm modules."""

from __future__ import annotations


class WshmError(Exception):
    """Base class for every error raised by this package."""


class ArityError(WshmError, ValueError):
    """Raised when a variable count is invalid (e.g. m = 0)."""


class DimensionError(WshmError, ValueError):
    """Raised when multi-index / weight-vector lengths disagree."""


class ModeError(WshmError, ValueError):
    """Raised when a polynomial or ideal does not fit the grading an operation needs."""


class WindowError(WshmError, ValueError):
    """Raised on access to a realization level, or to an operator block that
    reads one, outside the realization's levels 0..max_level.

    Out-of-window access is a hard error, never silent truncation garbage.
    """


class StructuralError(WshmError, ValueError):
    """Raised when a computed structure violates a scenario assumption
    (e.g. a quotient level expected to be one-dimensional is not)."""


class ScenarioError(WshmError, ValueError):
    """Raised when a diagnostic's scenario precondition fails
    (e.g. unbounded quotient dimension where bounded is required)."""


class SignConventionError(WshmError, ValueError):
    """Raised when a kernel coefficient comes out nonpositive, which would
    indicate the rejected sign convention for the defining series."""


class ParseError(WshmError, ValueError):
    """Polynomial grammar error carrying 1-based line/column information."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column
