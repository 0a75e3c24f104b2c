"""Exception types shared across the kernel."""


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


class UnboundSymbol(UmbralError):
    """The symbol L used without a Q(L) field or a bound rational value."""
