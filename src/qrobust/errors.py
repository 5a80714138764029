"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class ModelError(ToolkitError, ValueError):
    """A raw model violates a structural invariant (named in the message)."""


class DimensionError(ModelError):
    """Matrix dimensions are inconsistent with the declared mode counts."""


class PreconditionError(ToolkitError, ValueError):
    """An operation was called outside its stated domain."""


class NumericError(ToolkitError, RuntimeError):
    """A numeric routine failed or produced an inconsistent result."""


class InfeasibleError(NumericError):
    """No certificate exists for the requested parameters.

    Raised by the Riccati/inequality solvers.  When a shifted Riccati
    equation has no stabilizing solution, a smaller shift may still have
    one; when the equation solved but its structured solution fails the
    strict inequality, a smaller shift is not expected to help.
    """
