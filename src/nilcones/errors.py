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
        super().__init__(message or f"spectrum does not split; residual factor "
                                    f"{_polynomial_text(self.factor)}")


def _polynomial_text(coefficients):
    """The polynomial in t with these coefficients, highest degree first, as
    plain text: (1, 0, 1) reads t^2 + 1, (1, Fraction(-1, 2), 3) reads
    t^2 - (1/2)t + 3."""
    degree = len(coefficients) - 1
    text = ""
    for k, c in enumerate(coefficients):
        if not c:
            continue
        power = degree - k
        monomial = "" if power == 0 else "t" if power == 1 else f"t^{power}"
        size = str(abs(c))
        if monomial and size == "1":
            size = ""
        elif monomial and "/" in size:
            size = f"({size})"
        sign = ("-" if c < 0 else "") if not text else (" - " if c < 0 else " + ")
        text += sign + size + monomial
    return text


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
