"""Exception hierarchy shared by all modules."""


class CfcError(Exception):
    """Base class for all errors raised by this package."""


class InvalidVertexError(CfcError):
    """An edge endpoint is outside [0, vertex_count)."""


class SelfLoopError(CfcError):
    """An edge joins a vertex to itself."""


class EmptyGraphError(CfcError):
    """The operation is undefined on the graph with no vertices."""


class TrivialGraphError(CfcError):
    """The operation is undefined on the one-vertex graph."""


class NotConnectedError(CfcError):
    """The operation requires a connected graph."""


class NotAPathError(CfcError):
    """A vertex sequence is not a simple path of the graph."""


class CompleteGraphError(CfcError):
    """The operation requires a non-complete graph."""


class HypothesisViolatedError(CfcError):
    """The structural precondition of the two-coloring construction fails."""


class NonPositiveError(CfcError):
    """A strictly positive integer argument was not positive."""


class ParamOutOfRangeError(CfcError):
    """A family generator parameter is outside its valid range."""


class RetriesExhaustedError(CfcError):
    """Random generation failed to hit the target property within the retry cap."""


class BudgetExhaustedError(CfcError):
    """The search budget ran out before the sweep finished.

    Carries the bracket of values still possible at the point of exhaustion.
    """

    def __init__(self, lower, upper, steps):
        super().__init__(f"search budget exhausted after {steps} steps; value in [{lower}, {upper}]")
        self.lower = lower
        self.upper = upper
        self.steps = steps


class EdgeListParseError(CfcError):
    """Malformed edge-list input."""

    def __init__(self, message, line_number):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class UnknownTheoremError(CfcError):
    """The requested theorem id is not known to the harness."""
