"""Exception types shared across the kernel, and the argument domains that
raise them."""

import sys
from fractions import Fraction

__all__ = [
    "CompositionOrder",
    "DivisionByZero",
    "DomainError",
    "EvalPole",
    "NotDelta",
    "NotInvertible",
    "OrderTooLow",
    "ParseError",
    "TruncationTooShort",
    "UmbralError",
    "UnitConstantRequired",
    "UnknownIdentity",
]


class UmbralError(Exception):
    """Base class for every error raised by this package."""


class DivisionByZero(UmbralError, ZeroDivisionError):
    """Division by an exact zero (rational, rational function, or series)."""


class DomainError(UmbralError):
    """A parameter is outside the domain an operation is stated for."""


class EvalPole(DivisionByZero, DomainError):
    """A rational function was evaluated at a root of its denominator
    (lambda = 1 is such a root for every Frobenius denominator)."""


class NotInvertible(UmbralError):
    """Multiplicative inverse of a series whose constant term vanishes."""


class NotDelta(UmbralError):
    """Compositional inverse of a series that is not a delta series."""


class CompositionOrder(UmbralError):
    """Series composition (or exp/log) with an inner series of order 0."""


class OrderTooLow(UmbralError):
    """Division by t^k of a series whose order is below k."""


class UnitConstantRequired(UmbralError):
    """Field-exponent power of a series whose constant term is not 1."""


class TruncationTooShort(UmbralError):
    """A series is truncated too low for the requested operation."""


class UnknownIdentity(UmbralError):
    """An identity tag that is not in the registry."""


class ParseError(UmbralError):
    """Expression text that does not match the grammar.

    Carries the byte offset of the failure and the tokens that would
    have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.offset = offset
        self.expected = expected

    def __str__(self) -> str:
        base = super().__str__()
        if self.expected:
            return f"{base} at offset {self.offset} (expected {', '.join(self.expected)})"
        return f"{base} at offset {self.offset}"


# ---------------------------------------------------------------------------
# argument domains
# ---------------------------------------------------------------------------
#
# A domain takes (parameter name, value) and returns the value in canonical
# form, or raises DomainError; None stands for a value not given.  They are
# the registry's parameter schema and the one check of the integer and
# rational arguments of the series, the routes and the families.

_SYMBOLIC = (None, "sym", "L", "symbolic")

# the largest index or truncation the library takes: a pair truncated at T
# is built at T + 2, and a truncation is at most sys.maxsize (``Series``)
MAX_PAIR_TRUNC = sys.maxsize - 2


def integer_order(key, v):
    """An int; a bool is not taken for one."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise DomainError(f"{key} must be an int, got {v!r}")


def nonnegative_integer(key, v, least=0, most=MAX_PAIR_TRUNC):
    """An int from least (0 unless the operation is stated from 1 on) to
    most; ``most`` None bounds nothing, for a size that only becomes a
    truncation that is bounded where it is used."""
    if integer_order(key, v) < least:
        raise DomainError(f"{key} must be >= {least}, got {v}")
    if most is not None and v > most:
        raise DomainError(f"{key} must be <= {most}, got {v}")
    return v


def rational(key, v):
    """An exact rational: a float (a binary approximation) or a bool is not."""
    if not isinstance(v, (float, bool)):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError, TypeError):
            pass
    raise DomainError(f"{key} must be an exact rational, got {v!r}")


def nonzero_rational(key, v):
    if v is not None and (q := rational(key, v)):
        return q
    raise DomainError(f"{key} != 0 is required")


def lambda_value(key, v):
    """None for the symbol L; otherwise a rational other than 1, which is a
    pole of every Frobenius denominator (EvalPole)."""
    if v in _SYMBOLIC:
        return None
    if (q := rational(key, v)) == 1:
        raise EvalPole("lambda = 1 is excluded for Frobenius families")
    return q
