"""Typed errors shared by all modules."""


class NilconesError(Exception):
    """Base class for all library errors."""


class InvariantViolation(NilconesError):
    """An internal invariant of a computation does not hold: a defect in the
    library, never a property of the input."""


class SizeMismatch(NilconesError):
    pass


class NotNilpotent(NilconesError):
    pass


class NonSplitSpectrum(NilconesError):
    """Raised when a characteristic polynomial has an irreducible factor of
    degree > 1 over the base field.  The offending factor (monic coefficient
    tuple, highest degree first) is stored in ``factor``."""

    def __init__(self, factor, message=None):
        self.factor = tuple(factor)
        super().__init__(message or f"spectrum does not split; residual factor {self.factor}")


class BudgetExceeded(NilconesError):
    pass


class WedgeViolation(NilconesError):
    pass


class CharTwo(NilconesError):
    pass


class NotRigidDatum(NilconesError):
    pass


class NotDoubled(NilconesError):
    pass


class RepeatedEigenvalue(NilconesError):
    pass


class NotPerfectSquare(NilconesError):
    pass


class ParseError(NilconesError):
    pass
