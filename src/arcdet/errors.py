"""Exception types shared across the package."""


class ArcdetError(Exception):
    """Base class for all package errors."""


class ValidationError(ArcdetError):
    """Invalid input document, flag combination, or campaign description."""


class ParseError(ValidationError):
    """Syntax error in a polynomial expression.

    Carries the 0-based position of the offending character.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class TruncationInsufficient(ArcdetError):
    """A finite order was required but the series vanishes to the stored level.

    At level N the states "order >= N+1" and "order = infinity" cannot be
    told apart; callers that need the distinction must raise this instead
    of guessing.
    """


class BudgetExceeded(ArcdetError):
    """An enumeration would exceed the configured jet budget.

    Exact mode refuses to run; callers may retry in sampled mode.
    """


class InternalInvariantError(ArcdetError):
    """A quantity the theory guarantees failed to hold; indicates a bug."""
