"""Shared exception types.

Everything is a ValueError subclass so callers that only want "bad input"
semantics can catch one thing; the CLI maps each class to its own exit code.
"""


class BraidSyntaxError(ValueError):
    """Word text failed to parse, or a letter index is out of range."""


class DisconnectedWordError(ValueError):
    """The closure is a split link (some generator is absent).

    Carries the connected factors so callers can report or recurse.
    """

    def __init__(self, message, factors):
        super().__init__(message)
        self.factors = tuple(factors)


class InhomogeneousWordError(ValueError):
    """Some generator occurs with both signs where one sign is required."""


class CapExceededError(ValueError):
    """A fixed work cap (a module constant such as JONES_LENGTH_CAP or
    SEARCH_CAP) would be exceeded."""


class TableDefectError(ValueError):
    """Two verified reference entries carry the same signature."""
