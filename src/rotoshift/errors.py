"""Exception types shared across the library and the CLI, and the context
that turns a float escape from double precision into one of them."""


class RotoshiftError(Exception):
    """Base class for all library-specific errors."""


class ValidationError(RotoshiftError, ValueError):
    """An argument or configuration value is malformed or out of its allowed range."""


class ResonanceError(RotoshiftError):
    """Rotation frequency too close to the trap frequency; displacement denominators blow up."""


class OutOfRegimeError(RotoshiftError):
    """Inputs leave the validity window of a perturbative or nonrelativistic formula."""


class SelectionRuleError(ValidationError):
    """Requested matrix element vanishes identically by a selection rule."""


class StateNotFoundError(RotoshiftError, LookupError):
    """A transition references a level label absent from the supplied spectrum."""


class UnphysicalTransitionError(RotoshiftError):
    """Computed emission frequency came out nonpositive."""


class PerturbativeRegimeWarning(UserWarning):
    """Predicted splitting is large enough that first-order theory degrades."""


class double_precision:
    """Context that raises a float overflow or division by zero inside it as
    OutOfRegimeError naming quantity, with the original message."""

    def __init__(self, quantity: str):
        self.quantity = quantity

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        if kind is not None and issubclass(kind, (OverflowError, ZeroDivisionError)):
            raise OutOfRegimeError(
                f"{self.quantity} leaves the double-precision range ({exc})") from exc
        return False
