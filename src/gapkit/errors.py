"""Error types shared across the package."""


class GapkitError(Exception):
    """Base class for all package-specific errors."""


class VerticalVectorError(GapkitError):
    """A slope was requested for a vector with zero horizontal component."""


class ExhaustionError(GapkitError):
    """A bounded search ran out of budget before producing the requested data.

    ``partial`` holds whatever was found before the budget ran out, so callers
    can distinguish "nothing there" from "did not look far enough".
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ResourceLimitError(GapkitError):
    """A computation would exceed its configured memory or state budget."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ExceptionalLatticeError(GapkitError):
    """The lattice has a short vertical vector and never reaches the transversal."""
