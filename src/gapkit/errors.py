"""Error types shared across the package."""


class GapkitError(Exception):
    """Base class for all package-specific errors."""

    def __init__(self, message, partial=None):
        """``partial``: what a search found before it stopped, else None."""
        super().__init__(message)
        self.partial = partial


class VerticalVectorError(GapkitError):
    """A slope was requested for a vector with zero horizontal component."""


class ExhaustionError(GapkitError):
    """A bounded search ran out of budget before producing the requested data.

    ``partial`` holds whatever was found before the budget ran out, so callers
    can distinguish "nothing there" from "did not look far enough".
    """


class ResourceLimitError(GapkitError):
    """A computation would exceed its configured memory or state budget."""


class ExceptionalLatticeError(GapkitError):
    """The lattice has a short vertical vector and never reaches the transversal."""
