"""Exception types shared across the package."""


class RevexpError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(RevexpError):
    """Syntax error in a process term, with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class WellFormednessError(RevexpError):
    """A parsed term violates a well-formedness clause."""


class ActUndefinedError(RevexpError):
    """A synchronization proof term pairs two different actions."""


class NotReachableError(RevexpError):
    """A well-formed term is not reachable from its initial version."""


class StateBudgetError(RevexpError):
    """Transition-system construction exceeded the state budget."""


class NotNormalizedError(RevexpError):
    """An operation required a normal form and the input is not in it."""


class OrderUndefinedError(RevexpError):
    """The serialization order cannot compare two executed-action proofs."""


class WitnessCheckError(RevexpError):
    """A decider's equivalence witness failed its own stability check."""
