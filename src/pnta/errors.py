"""Exception hierarchy shared by all pnta modules."""

from __future__ import annotations


class PntaError(Exception):
    """Base class for every error raised by this package."""


class ParseError(PntaError):
    """Malformed automaton or timed-word text."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MalformedWord(PntaError):
    """Timed word violates strict monotonicity or has a negative timestamp."""


class UnboundSymbol(PntaError):
    """A guard references a clock or parameter absent from the valuation."""


class WrongSource(PntaError):
    """Transition fired from a configuration with a different control state."""


class NonPositiveDelay(PntaError):
    """Delay must be strictly positive (zero allowed only on the first step)."""


class GuardViolated(PntaError):
    """Guard evaluated to false for the attempted step."""


class PreconditionViolated(PntaError):
    """Operation called outside its stated precondition."""


class RegionBudgetExceeded(PntaError):
    """A zone or region search hit its node budget."""

    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"abstraction node budget exceeded ({limit} nodes)")


class NotOneParameter(PntaError):
    """Candidate enumeration needs exactly one parameter."""


class UnsupportedAutomaton(PntaError):
    """Outside the decidable fragment (clocks > 2, params > 1, or a
    non-translatable test-and-reset automaton)."""

