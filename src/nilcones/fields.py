"""Base fields: the rationals and prime fields.

Scalars are plain Python values (``fractions.Fraction`` over Q, ints in
``[0, p)`` over F_p); the field object carries the arithmetic.  Containers in
:mod:`nilcones.linalg` tag themselves with one field and refuse to mix tags.
They coerce their entries through ``of`` once, when built from scalars (an
int needs none), and then hold ints: int rows ``num`` over one common
denominator ``den`` (1 over F_p), turned back into these scalars only when
``rows`` or ``entries`` is read.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError


# Miller-Rabin on the thirteen primes up to 41 is exact below 3.317e24; the twelve
# up to 37 pass the composite 318665857834031151167461 (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p):
    """Deterministic Miller-Rabin; ValueError where its bases do not decide,
    TypeError unless p is an int (3.0 and Fraction(3) equal a base)."""
    if type(p) is not int:
        raise TypeError(f"{p!r} is not an int")
    if p in _MR_BASES:  # every base is prime
        return True
    if p >= 3317044064679887385961981:
        raise ValueError(f"primality of {p} is not decided by the bases up to 41")
    if p < 2 or any(p % b == 0 for b in _MR_BASES):
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x != 1 and p - 1 not in (pow(x, 2 ** i, p) for i in range(s)):
            return False
    return True


class RationalField:
    """The field Q.  Scalars are Fractions, kept in lowest terms with positive
    denominator by the Fraction type itself."""

    char = 0

    def of(self, x):
        """Exact coercion: ints, Fractions and rational text; no floats."""
        if type(x) is Fraction:
            return x
        if isinstance(x, float):
            raise TypeError(f"inexact scalar {x!r}: pass an int, a Fraction or rational text")
        return Fraction(x)

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / b

    def parse(self, text):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational scalar: {text!r}") from exc

    def format(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field F_p for a prime p.  Scalars are ints reduced into [0, p)."""

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def of(self, x):
        """Exact coercion of what Q accepts: an int reduces mod p, and a
        Fraction or rational text through the inverse of its denominator
        (ValueError when p divides it); no floats."""
        if type(x) is int:
            return x % self.p
        if isinstance(x, float):
            raise TypeError(f"inexact scalar {x!r}: pass an int, a Fraction or rational text")
        x = Fraction(x)
        if x.denominator % self.p == 0:
            raise ValueError(f"denominator of {x} not invertible mod {self.p}")
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def parse(self, text):
        try:
            return int(text.strip()) % self.p
        except ValueError as exc:
            raise ParseError(f"not an F_{self.p} scalar: {text!r}") from exc

    def format(self, a):
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def GF(p):
    return PrimeField(p)
