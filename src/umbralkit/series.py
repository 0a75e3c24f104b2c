"""Truncated formal power series in t and polynomials in x over a field.

A :class:`Series` stores plain Taylor coefficients: ``coeffs[k]`` is the
coefficient of ``t^k``, for ``k = 0 .. T-1`` where ``T`` is the truncation
order.  Binary operations truncate to the shorter operand.  Everything is
exact; there are no floats anywhere.

:class:`Series` and :class:`Poly` share one base, :class:`CoeffVector`
(field, coefficient tuple, equality, negation, subtraction).  Their add,
product and Horner loops are the coefficient-vector kernels of
:mod:`umbralkit.fields`, and both render through ``fields.format_terms``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    CompositionOrder,
    DomainError,
    NotDelta,
    NotInvertible,
    OrderTooLow,
    TruncationTooShort,
    UnitConstantRequired,
)
from .fields import (
    format_terms, latex_scalar, vec_add, vec_dot, vec_horner, vec_mul, vec_trim,
)


def working_trunc(n_max: int) -> int:
    """Default truncation for building a pair for answers of degree <= n_max:
    2*n_max + 2.

    The Sheffer routes need only n_max + 1 (``umbral.answer_trunc``) and cut
    a longer pair to that.  The rest is room for a pair built with the
    expression DSL, where dividing by a series of order k
    (``t^2/(exp(t)-1)``) loses k coefficients."""
    return 2 * n_max + 2


class CoeffVector:
    """A field and a tuple of its elements: what Series and Poly share."""

    __slots__ = ("field", "coeffs")

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def _scalar(self, v):
        try:
            return self.field.coerce(v)
        except TypeError:
            return None

    def coeff_texts(self, latex: bool = False) -> list[str]:
        """The field's text (or LaTeX) for each coefficient, ascending powers."""
        text = latex_scalar if latex else self.field.to_str
        return [text(c) for c in self.coeffs]

    def __neg__(self):
        return type(self)(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            s = self._scalar(other)
            if s is None:
                return NotImplemented
            return self.__add__(-s)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)


class Series(CoeffVector):
    """Truncated formal power series over a coefficient field."""

    __slots__ = ()

    def __init__(self, field, coeffs, trunc: int | None = None):
        coeffs = [field.coerce(c) for c in coeffs]
        if trunc is not None:
            if trunc < 1:
                raise TruncationTooShort("truncation order must be >= 1")
            coeffs = (coeffs + [field.zero] * trunc)[:trunc]
        elif not coeffs:
            raise TruncationTooShort("a series needs at least one stored coefficient")
        self.field = field
        self.coeffs = tuple(coeffs)

    # ------------------------------------------------------------------ basic

    @property
    def trunc(self) -> int:
        return len(self.coeffs)

    def order(self) -> int:
        """Smallest k with a nonvanishing t^k coefficient; T if none."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return self.trunc

    def truncate(self, T: int) -> "Series":
        if T == self.trunc:
            return self
        return Series(self.field, self.coeffs, trunc=T)

    def is_zero(self) -> bool:
        return self.order() == self.trunc

    def agrees(self, other: "Series", upto: int | None = None) -> bool:
        """Coefficientwise equality modulo t^min(T, upto)."""
        n = min(self.trunc, other.trunc)
        if upto is not None:
            n = min(n, upto)
        return self.coeffs[:n] == other.coeffs[:n]

    # ------------------------------------------------------------------- ring

    def __add__(self, other):
        if not isinstance(other, Series):
            s = self._scalar(other)
            if s is None:
                return NotImplemented
            return Series(self.field, vec_add(self.coeffs, (s,)))
        T = min(self.trunc, other.trunc)
        return Series(self.field, vec_add(self.coeffs[:T], other.coeffs[:T]))

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, Series):
            s = self._scalar(other)
            if s is None:
                return NotImplemented
            return Series(self.field, [c * s for c in self.coeffs])
        T = min(self.trunc, other.trunc)
        return Series(self.field, vec_mul(self.coeffs, other.coeffs, self.field.zero, T))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division that tolerates a common zero of order k at t = 0."""
        if not isinstance(other, Series):
            s = self._scalar(other)
            if s is None:
                return NotImplemented
            if not s:
                raise NotInvertible("division by zero scalar")
            return self.__mul__(self.field.one / s)
        k = other.order()
        if k == other.trunc:
            raise NotInvertible("division by the zero series")
        if k == 0:
            return self * other.inverse()
        if self.order() < k:
            raise OrderTooLow(
                f"cannot divide a series of order {self.order()} by one of order {k}"
            )
        return self.shift_div(k) * other.shift_div(k).inverse()

    def __rtruediv__(self, other):
        s = self._scalar(other)
        if s is None:
            return NotImplemented
        return self.inverse() * s

    # ------------------------------------------------------------- operations

    def inverse(self) -> "Series":
        """Multiplicative inverse; requires a nonzero constant term."""
        a = self.coeffs
        if not a[0]:
            raise NotInvertible("series has zero constant term")
        T = self.trunc
        inv0 = self.field.one / a[0]
        out = [inv0]
        for k in range(1, T):
            out.append(-inv0 * vec_dot(a[1 : k + 1], out[::-1], self.field.zero))
        return Series(self.field, out)

    def shift_div(self, k: int) -> "Series":
        """Exact division by t^k; truncation drops by k."""
        if k < 0:
            raise DomainError(f"shift must be >= 0, got {k}")
        if k == 0:
            return self
        if self.order() < k:
            raise OrderTooLow(f"order {self.order()} < shift {k}")
        if self.trunc <= k:
            raise OrderTooLow("truncation too short for the requested shift")
        return Series(self.field, self.coeffs[k:])

    def mul_t(self, k: int = 1) -> "Series":
        """Multiply by t^k, keeping the truncation order."""
        if k < 0:
            raise DomainError(f"shift must be >= 0, got {k}")
        if k >= self.trunc:
            return zero(self.field, self.trunc)
        return Series(self.field, (self.field.zero,) * k + self.coeffs[: self.trunc - k])

    def pow_int(self, n: int) -> "Series":
        """Integer power; negative n needs an invertible base."""
        if n == 0:
            return one(self.field, self.trunc)
        base = self
        if n < 0:
            base = self.inverse()
            n = -n
        out = None
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def compose(self, inner: "Series") -> "Series":
        """outer(inner(t)); inner must have order >= 1."""
        if inner.order() == 0:
            raise CompositionOrder("inner series has a nonzero constant term")
        T = min(self.trunc, inner.trunc)
        top = constant(self.field, self.coeffs[T - 1], T)
        return vec_horner(self.coeffs[: T - 1], inner.truncate(T), top)

    def revert(self) -> "Series":
        """Compositional inverse of a delta series (triangular solve).

        The compose round-trip is checked before returning.
        """
        T = self.trunc
        if T < 2:
            raise TruncationTooShort("compositional inverse needs truncation >= 2")
        if self.order() != 1:
            raise NotDelta("compositional inverse needs order exactly 1")
        zero, one_ = self.field.zero, self.field.one
        # powers[k] = self^k truncated at T
        powers = [one(self.field, T), self]
        for k in range(2, T):
            powers.append(powers[-1] * self)
        c = [zero] * T
        for m in range(1, T):
            acc = one_ if m == 1 else zero
            acc -= vec_dot(c[1:m], [powers[k].coeffs[m] for k in range(1, m)], zero)
            c[m] = acc / powers[m].coeffs[m]
        out = Series(self.field, c)
        if not self.compose(out).agrees(t_series(self.field, T)):
            raise NotDelta("reversion failed its round-trip check")
        return out

    def exp(self) -> "Series":
        """exp(f) for f of order >= 1 (or the zero series)."""
        if self.order() == 0:
            raise CompositionOrder("exp needs a zero constant term")
        T = self.trunc
        # E' = f' E, solved degree by degree
        out = [self.field.one]
        for k in range(1, T):
            js = range(1, k + 1)
            out.append(vec_dot(self.coeffs[1 : k + 1], out[::-1], self.field.zero, js) / k)
        return Series(self.field, out)

    def log(self) -> "Series":
        """log(f) for f with constant term exactly 1."""
        if self.coeffs[0] != self.field.one:
            raise UnitConstantRequired("log needs constant term 1")
        T = self.trunc
        # L' = f'/f, integrated termwise
        fprime = [k * self.coeffs[k] for k in range(1, T)] + [self.field.zero]
        quot = Series(self.field, fprime) * self.inverse()
        out = [self.field.zero] * T
        for k in range(1, T):
            out[k] = quot.coeffs[k - 1] / k
        return Series(self.field, out)

    def pow_field(self, c) -> "Series":
        """u^c for a field-element exponent; u must have constant term 1."""
        if self.coeffs[0] != self.field.one:
            raise UnitConstantRequired("field-exponent power needs constant term 1")
        c = self.field.coerce(c)
        return (self.log() * c).exp()

    # ------------------------------------------------------------- rendering

    def __str__(self) -> str:
        return format_terms(self.coeff_texts(), "t", ascending=True) + f" + O(t^{self.trunc})"

    def __repr__(self) -> str:
        return f"Series[{self.field.name}; T={self.trunc}]({', '.join(self.coeff_texts())})"


# ---------------------------------------------------------------------- named


def constant(field, c, T: int) -> Series:
    return Series(field, [field.coerce(c)], trunc=T)


def zero(field, T: int) -> Series:
    return Series(field, [], trunc=T)


def one(field, T: int) -> Series:
    return constant(field, field.one, T)


def t_series(field, T: int) -> Series:
    return monomial(field, 1, T)


def monomial(field, k: int, T: int) -> Series:
    if k < 0:
        raise DomainError(f"degree must be >= 0, got {k}")
    out = [field.zero] * T
    if k < T:
        out[k] = field.one
    return Series(field, out)


def exp_ct(field, c, T: int) -> Series:
    """e^{c t}: coefficient of t^k is c^k / k!."""
    c = field.coerce(c)
    out = [field.one]
    fact = Fraction(1)
    acc = field.one
    for k in range(1, T):
        acc = acc * c
        fact *= k
        out.append(acc * field.coerce(Fraction(1, 1) / fact))
    return Series(field, out, trunc=T)


def log1p_series(field, T: int) -> Series:
    """log(1+t): coefficient of t^k is (-1)^(k+1)/k for k >= 1."""
    out = [field.zero]
    for k in range(1, T):
        q = Fraction(1, k) if k % 2 else Fraction(-1, k)
        out.append(field.coerce(q))
    return Series(field, out, trunc=T)


def one_plus_t_pow(field, c, T: int) -> Series:
    """(1+t)^c with generalized binomial coefficients C(c, k)."""
    c = field.coerce(c)
    out = [field.one]
    acc = field.one
    for k in range(1, T):
        acc = acc * (c - (k - 1)) * field.coerce(Fraction(1, k))
        out.append(acc)
    return Series(field, out, trunc=T)


# ---------------------------------------------------------------------- Poly


class Poly(CoeffVector):
    """Dense polynomial in x over a field; no trailing zero coefficients."""

    __slots__ = ()

    def __init__(self, field, coeffs=()):
        self.field = field
        self.coeffs = vec_trim([field.coerce(c) for c in coeffs])

    # constructors ----------------------------------------------------------

    @classmethod
    def x(cls, field) -> "Poly":
        return cls(field, [field.zero, field.one])

    @classmethod
    def monomial(cls, field, n: int, c=1) -> "Poly":
        if n < 0:
            raise DomainError(f"degree must be >= 0, got {n}")
        return cls(field, [field.zero] * n + [field.coerce(c)])

    @classmethod
    def constant(cls, field, c) -> "Poly":
        return cls(field, [field.coerce(c)])

    # structure ---------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, k):
        if k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero

    def is_zero(self) -> bool:
        return not self.coeffs

    # arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            s = self._scalar(other)
            if s is None:
                return NotImplemented
            other = Poly.constant(self.field, s)
        return Poly(self.field, vec_add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, Poly):
            s = self._scalar(other)
            if s is None:
                return NotImplemented
            return Poly(self.field, [c * s for c in self.coeffs])
        return Poly(self.field, vec_mul(self.coeffs, other.coeffs, self.field.zero))

    __rmul__ = __mul__

    def mul_by_x(self) -> "Poly":
        if self.is_zero():
            return self
        return Poly(self.field, (self.field.zero,) + self.coeffs)

    def derivative(self) -> "Poly":
        return Poly(self.field, [k * c for k, c in enumerate(self.coeffs)][1:])

    def eval(self, at):
        return vec_horner(self.coeffs, self.field.coerce(at), self.field.zero)

    def compose(self, inner: "Poly") -> "Poly":
        return vec_horner(self.coeffs, inner, Poly(self.field))

    def shift_arg(self, s) -> "Poly":
        """p(x + s)."""
        return self.compose(Poly(self.field, [self.field.coerce(s), self.field.one]))

    def to_field(self, field) -> "Poly":
        return Poly(field, self.coeffs)

    # rendering -----------------------------------------------------------------

    def __str__(self) -> str:
        return format_terms(self.coeff_texts(), "x")

    def __repr__(self) -> str:
        return f"Poly[{self.field.name}]({self})"


def falling_factorial(field, n: int) -> Poly:
    """(x)_n = x (x-1) ... (x-n+1); (x)_0 = 1."""
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    out = Poly.constant(field, field.one)
    x = Poly.x(field)
    for i in range(n):
        out = out * (x - field.coerce(i))
    return out
