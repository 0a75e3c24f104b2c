"""Truncated formal power series in t and polynomials in x over a field.

A :class:`Series` stores plain Taylor coefficients: ``coeffs[k]`` is the
coefficient of ``t^k``, for ``k = 0 .. T-1`` where ``T`` is the truncation
order.  Binary operations truncate to the shorter operand.  Everything is
exact; there are no floats anywhere.  A truncation is an int from 1 to
``sys.maxsize``; a larger one could not index a coefficient list.

:class:`Series` and :class:`Poly` share one base, :class:`CoeffVector`
(field, coefficient tuple, equality, negation, subtraction).  Their sums,
products, series coefficients (``vec_dot``) and Poly's Horner loops are the
coefficient-vector kernels of :mod:`umbralkit.fields`, and both render
through ``fields.format_terms``.

Every table of powers [1, s, .., s^n] comes from ``Series._power_rows``.
Over Q, s^k is an integer row over its own denominator dens[k]: the row
before it times the integer numerators of s (``fields._zmul``), reduced by
the gcd of the row and its denominator, so the integers stay the size of
s^k's coefficients in lowest terms.  The public ``powers`` makes canonical
Fractions of the rows; the rest read the integer rows themselves.  Each
table is built once per operation and passed down, never cached:
``compose`` and the reversion's round trip share one body,
``_compose_rows`` (a prefix sum of the outer series per coefficient, packed
over the outer's layout when the inner series is over Q), which reads the
table its caller gives it.  ``_revert_rows`` solves for fbar over the rows
of s, builds fbar's table, checks the round trip s(fbar) = t over it and
returns it with fbar; ``revert`` is that body, and the GF route of
:mod:`umbralkit.umbral` reads the same checked table for its columns, which
it sums against the pair's proven 1/g, so it composes nothing itself.  Over
Q(L) the rows are the plain products and every dens[k] is 1.

The kernels' outputs (products, inverses, compositions, reversions,
shifts, exp, log, and the S_n of the Sheffer routes) are made in their
field already, so ``CoeffVector._raw`` stores them without the
per-coefficient ``coerce`` of the public constructors.

Q is a subfield of Q(L), so a sum, difference, product or composition of
one operand over Q and one over Q(L) is over Q(L), in either order
(``fields.common_field``); the kernels read the Q operand's Fractions as
constants.  A ``RatFunc`` scalar is an element of Q(L) the same way: it
lifts a series or polynomial over Q in ``+ - * /``, ``pow_field``,
``Poly.eval`` and ``Poly.shift_arg``, and the field Q of ``exp_ct`` and
``one_plus_t_pow`` when it is their c.  ``_over_q`` goes the other way:
it takes a Q(L) series whose coefficients are all constants down to Q; a
Sheffer pair keeps an L-free f over Q by it, so the routes run their
L-free half on the Q kernel.

The generating series that the families and identities read again and
again (a base (t/(e^t-1))^a or (log(1+t)/t)^a, a Frobenius g, the
Stirling rows, the falling rows ``_falling_rows``, the b2 power u^n) are
kept by one rule, ``_kept``: per key, the table at the longest truncation
T asked for, read as its first T entries.  Its condition is that a
builder's first T entries do not depend on T, as a coefficient mod t^T of
a product, power or composition does not (Roman, *The Umbral Calculus*,
1984, ch. 2).  Each kept builder holds at most 256 keys, T not among
them.  A kept Stirling table holds every row up to the largest n asked
for, which is the table that request builds anyway, so keeping it raises
no peak.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import accumulate
from math import gcd, lcm

from .errors import (
    CompositionOrder,
    DomainError,
    NotDelta,
    NotInvertible,
    OrderTooLow,
    TruncationTooShort,
    UnitConstantRequired,
    integer_order,
    nonnegative_integer,
)
from .fields import (
    QL, QQ, RatFunc, _common_den, _prefix_sums, _zmul, common_field, format_terms,
    latex_scalar, vec_add, vec_dot, vec_horner, vec_mul, vec_trim,
)

__all__ = [
    "Poly",
    "Series",
    "exp_ct",
    "falling_factorial",
    "log1p_series",
    "monomial",
    "one",
    "one_plus_t_pow",
    "t_series",
    "working_trunc",
    "zero",
]


def working_trunc(n_max: int) -> int:
    """Default truncation for building a pair for answers of degree <= n_max:
    2*n_max + 2.

    The Sheffer routes need only n_max + 1 (``umbral.answer_trunc``) and cut
    a longer pair to that.  The rest is room for a pair built with the
    expression DSL, where dividing by a series of order k
    (``t^2/(exp(t)-1)``) loses k coefficients."""
    return 2 * nonnegative_integer("n_max", n_max) + 2


def _field_with(field, v=None):
    """The field of an operation on a vector over ``field`` and the scalar
    v: a RatFunc is an element of Q(L) (``common_field``).  The one check of
    a field argument, which every Series and Poly constructor reaches
    first: a DomainError unless ``field`` is QQ or QL."""
    if field is not QQ and field is not QL:
        raise DomainError(f"field must be QQ or QL, got {field!r}")
    return QL if isinstance(v, RatFunc) else field


def _truncation(key, T):
    """T as a truncation, an int from 1 to sys.maxsize (the longest tuple):
    TruncationTooShort below, DomainError above.  The one check of a
    truncation, which the Series constructor and the named series make
    before any coefficient."""
    if integer_order(key, T) < 1:
        raise TruncationTooShort("truncation order must be >= 1")
    if T > sys.maxsize:
        raise DomainError(f"{key} must be <= {sys.maxsize}, got {T}")
    return T


class CoeffVector:
    """A field and a tuple of its elements: what Series and Poly share."""

    __slots__ = ("field", "coeffs")

    @classmethod
    def _raw(cls, field, coeffs: tuple):
        """A vector from a tuple of elements of ``field``, taken as it is
        (nonempty for a Series, no trailing zero for a Poly): for the
        kernels' outputs, whose entries are made in their field, in the
        idiom of ``RatFunc._raw``."""
        obj = object.__new__(cls)
        obj.field, obj.coeffs = field, coeffs
        return obj

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def _scalar(self, v):
        """(field, v coerced into it) for a scalar operand v, over the field
        of this vector and v together; (None, None) when v is not a number,
        so an operator can return NotImplemented.  A float or a bool is a
        number but not an exact one: ``coerce`` raises a DomainError."""
        if not isinstance(v, (int, RatFunc, Fraction, float)):
            return None, None
        field = _field_with(self.field, v)
        return field, field.coerce(v)

    def coeff_texts(self, latex: bool = False) -> list[str]:
        """The field's text (or LaTeX) for each coefficient, ascending powers."""
        text = latex_scalar if latex else self.field.to_str
        return [text(c) for c in self.coeffs]

    def __neg__(self):
        return type(self)(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            field, c = self._scalar(other)
            if field is None:
                return NotImplemented
            return self.__add__(-c)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)


class Series(CoeffVector):
    """Truncated formal power series over a coefficient field."""

    __slots__ = ()

    def __init__(self, field, coeffs, trunc: int | None = None):
        field = _field_with(field)
        coeffs = [field.coerce(c) for c in coeffs]
        if trunc is not None:
            coeffs = (coeffs + [field.zero] * _truncation("trunc", trunc))[:trunc]
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
        """This series mod t^T, for 1 <= T <= its truncation; a larger T
        would claim coefficients the series does not know."""
        if integer_order("T", T) > self.trunc:
            raise TruncationTooShort(
                f"cannot extend a series known mod t^{self.trunc} to truncation {T}"
            )
        if T == self.trunc:
            return self
        if T < 1:
            raise TruncationTooShort("truncation order must be >= 1")
        return Series._raw(self.field, self.coeffs[:T])

    def is_zero(self) -> bool:
        return self.order() == self.trunc

    def agrees(self, other: "Series", upto: int | None = None) -> bool:
        """Coefficientwise equality modulo t^min(T, upto); upto is an
        int >= 0 when given."""
        if not isinstance(other, Series):
            raise DomainError(f"agrees compares with a Series, got {other!r}")
        n = min(self.trunc, other.trunc)
        if upto is not None:
            n = min(n, nonnegative_integer("upto", upto))
        return self.coeffs[:n] == other.coeffs[:n]

    # ------------------------------------------------------------------- ring

    def __add__(self, other):
        if not isinstance(other, Series):
            field, c = self._scalar(other)
            if field is None:
                return NotImplemented
            return Series(field, vec_add(self.coeffs, (c,)))
        T = min(self.trunc, other.trunc)
        field = common_field(self.field, other.field)
        return Series(field, vec_add(self.coeffs[:T], other.coeffs[:T]))

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, Series):
            field, c = self._scalar(other)
            if field is None:
                return NotImplemented
            return Series(field, [a * c for a in self.coeffs])
        T = min(self.trunc, other.trunc)
        field = common_field(self.field, other.field)
        return Series._raw(field, vec_mul(self.coeffs, other.coeffs, field.zero, T))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division that tolerates a common zero of order k at t = 0."""
        if not isinstance(other, Series):
            field, c = self._scalar(other)
            if field is None:
                return NotImplemented
            if not c:
                raise NotInvertible("division by zero scalar")
            return self.__mul__(field.one / c)
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
        field, c = self._scalar(other)
        if field is None:
            return NotImplemented
        return self.inverse() * c

    # ------------------------------------------------------------- operations

    def inverse(self) -> "Series":
        """Multiplicative inverse; requires a nonzero constant term.

        Coefficient k is -(1/a_0) sum_{i=1..k} a_i out[k - i], one
        ``vec_dot``; for a_0 = 1, as for every pair's g, the sum is only
        negated."""
        a, zero = self.coeffs, self.field.zero
        if not a[0]:
            raise NotInvertible("series has zero constant term")
        inv0 = self.field.one / a[0]
        unit = inv0 == self.field.one
        out = [inv0]
        for k in range(1, self.trunc):
            dot = vec_dot(a[1 : k + 1], out[::-1], zero)
            out.append(-dot if unit else -inv0 * dot)
        return Series._raw(self.field, tuple(out))

    def shift_div(self, k: int) -> "Series":
        """Exact division by t^k; truncation drops by k."""
        if nonnegative_integer("shift", k) == 0:
            return self
        if self.order() < k:
            raise OrderTooLow(f"order {self.order()} < shift {k}")
        if self.trunc <= k:
            raise OrderTooLow("truncation too short for the requested shift")
        return Series._raw(self.field, self.coeffs[k:])

    def mul_t(self, k: int = 1) -> "Series":
        """Multiply by t^k, keeping the truncation order."""
        if nonnegative_integer("shift", k) >= self.trunc:
            return zero(self.field, self.trunc)
        return Series(self.field, (self.field.zero,) * k + self.coeffs[: self.trunc - k])

    def pow_int(self, n: int) -> "Series":
        """Integer power; negative n needs an invertible base."""
        if integer_order("n", n) == 0:
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

    def _power_rows(self, n: int):
        """(dens, rows) with s^k = rows[k] / dens[k] for k = 0 .. n, each row
        a tuple of this series' T coefficients.

        Over Q, s = A / d with A integers over the lcm d of the
        denominators, and row k is ``_zmul(rows[k - 1], A, T)`` over
        dens[k - 1] * d, with the gcd of that denominator and the row's
        entries divided out: each row is reduced, so its integers are the
        size of s^k's own coefficients, not of d^k.  Over Q(L) each row is
        the product with the row before it, its entries RatFuncs, and every
        dens[k] is 1."""
        T, a = self.trunc, self.coeffs
        if self.field is not QQ:
            zero = self.field.zero
            rows = [(self.field.one,) + (zero,) * (T - 1)]
            while len(rows) <= n:
                rows.append(vec_mul(rows[-1], a, zero, T))
            return [1] * (n + 1), rows
        d, A = _common_den(a)
        dens, rows = [1], [(1,) + (0,) * (T - 1)]
        while len(rows) <= n:
            row, e = _zmul(rows[-1], A, T), dens[-1] * d
            g = gcd(e, *row)
            dens.append(e // g)
            rows.append(tuple([c // g for c in row]))
        return dens, rows

    def powers(self, n: int) -> list["Series"]:
        """[1, s, s^2, .., s^n], each at this series' truncation: the rows of
        ``_power_rows``, over Q the canonical Fraction rows[k][m] / dens[k]
        per coefficient."""
        dens, rows = self._power_rows(nonnegative_integer("n", n))
        if self.field is not QQ:
            return [Series(self.field, row) for row in rows]
        return [Series(QQ, [Fraction(c, e) for c in row]) for e, row in zip(dens, rows)]

    def compose(self, inner: "Series") -> "Series":
        """outer(inner(t)); inner must have order >= 1: ``_compose_rows``
        over the power table of inner cut to the shorter truncation."""
        if inner.order() == 0:
            raise CompositionOrder("inner series has a nonzero constant term")
        T = min(self.trunc, inner.trunc)
        return self._compose_rows(inner, inner.truncate(T)._power_rows(T - 1))

    def _compose_rows(self, inner: "Series", table) -> "Series":
        """outer(inner(t)) from inner's power table ``(dens, rows)``
        (``_power_rows``), which holds inner^k for every k < T, T the
        shorter truncation.

        With inner^k = rows[k] / dens[k] and E_m the lcm of dens[0 .. m],
        [t^m] outer(inner) = sum_{k <= m} outer[k] rows[k][m] (E_m / dens[k])
        / E_m, one prefix sum of outer per coefficient
        (``fields._prefix_sums``): packed over the layout of outer for an
        inner series over Q.  The table is read as given, unchecked: the
        round trip of ``_revert_rows`` is what checks fbar's."""
        T = min(self.trunc, inner.trunc)
        dens, rows = table
        E = list(accumulate(dens[:T], lcm))
        cols = [[rows[k][m] * (E[m] // dens[k]) for k in range(m + 1)] for m in range(T)]
        field = common_field(self.field, inner.field)
        return Series._raw(field, tuple(_prefix_sums(self.coeffs[:T], cols, E, field)))

    def revert(self) -> "Series":
        """Compositional inverse of a delta series, checked by its round trip
        (``_revert_rows``)."""
        return self._revert_rows()[0]

    def _revert_rows(self):
        """(fbar, fbar's power table ``_power_rows(T - 1)``) for the
        compositional inverse fbar of this delta series, T its truncation.

        With s^k = rows[k] / dens[k] (this series' table) and E_m the lcm of
        dens[0 .. m], coefficient m of fbar solves
        sum_k c_k rows[k][m] (E_m / dens[k]) = [m == 1] E_m, triangular
        since rows[k] has order k; one ``vec_dot`` with those integer
        weights, over the integer rows.

        Before returning, the round trip s(fbar) = t is checked over fbar's
        table (``_compose_rows``), and that same table is returned: the
        Sheffer GF route (``umbral.sheffer_gf``) reads it for its columns,
        so it builds no other table of fbar and reads none that the round
        trip did not check.
        """
        T = self.trunc
        if T < 2:
            raise TruncationTooShort("compositional inverse needs truncation >= 2")
        if self.order() != 1:
            raise NotDelta("compositional inverse needs order exactly 1")
        zero = self.field.zero
        dens, rows = self._power_rows(T - 1)
        E = list(accumulate(dens, lcm))
        c = [zero] * T
        for m in range(1, T):
            w = [E[m] // e for e in dens[1 : m + 1]]
            acc = vec_dot(c[1:m], [rows[k][m] for k in range(1, m)], zero, w)
            c[m] = ((self.field.coerce(E[m]) if m == 1 else zero) - acc) / (w[-1] * rows[m][m])
        out = Series._raw(self.field, tuple(c))
        table = out._power_rows(T - 1)
        if not self._compose_rows(out, table).agrees(t_series(self.field, T)):
            raise NotDelta("reversion failed its round-trip check")
        return out, table

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
        return Series._raw(self.field, tuple(out))

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
        return Series._raw(self.field, tuple(out))

    def pow_field(self, c) -> "Series":
        """u^c for a field-element exponent; u must have constant term 1.  A
        RatFunc exponent lifts a series over Q to Q(L), as in ``*``."""
        if self.coeffs[0] != self.field.one:
            raise UnitConstantRequired("field-exponent power needs constant term 1")
        field, e = self._scalar(c)
        if field is None:
            raise DomainError(f"exponent must be an element of Q or Q(L), got {c!r}")
        return (self.log() * e).exp()

    # ------------------------------------------------------------- rendering

    def __str__(self) -> str:
        return format_terms(self.coeff_texts(), "t", ascending=True) + f" + O(t^{self.trunc})"

    def __repr__(self) -> str:
        return f"Series[{self.field.name}; T={self.trunc}]({', '.join(self.coeff_texts())})"


def _over_q(s: Series) -> Series:
    """s over Q when every coefficient is a rational constant, else s.

    The delta series f of every registry pair is free of L even when its
    pair is over Q(L); ``umbral.ShefferPair`` brings it down to Q here, so
    its reversion, power tables and inverse run on the Q kernel and only
    the products with the L-dependent g meet Q(L) arithmetic."""
    if s.field is QL and all(c.is_constant() for c in s.coeffs):
        return Series(QQ, [c.as_rat() for c in s.coeffs])
    return s


# ---------------------------------------------------------------------- named


def constant(field, c, T: int) -> Series:
    return Series(field, [c], trunc=T)


def zero(field, T: int) -> Series:
    return Series(field, [], trunc=T)


def one(field, T: int) -> Series:
    return constant(field, 1, T)


def t_series(field, T: int) -> Series:
    return monomial(field, 1, T)


def monomial(field, k: int, T: int) -> Series:
    return Series(field, [0] * nonnegative_integer("degree", k) + [1], trunc=T)


def exp_ct(field, c, T: int) -> Series:
    """e^{c t}: coefficient of t^k is c^k / k!, each one step from the last,
    c_k = c_{k-1} c / k.  A RatFunc rate c lifts a field Q to Q(L), as in
    ``*``."""
    field = _field_with(field, c)
    c = field.coerce(c)
    out = [field.one]
    for k in range(1, _truncation("T", T)):
        out.append(out[-1] * c / k)
    return Series(field, out, trunc=T)


def log1p_series(field, T: int) -> Series:
    """log(1+t): coefficient of t^k is (-1)^(k+1)/k for k >= 1."""
    return Series(field, [0, *(Fraction(1 if k % 2 else -1, k)
                               for k in range(1, _truncation("T", T)))], trunc=T)


def one_plus_t_pow(field, c, T: int) -> Series:
    """(1+t)^c with generalized binomial coefficients C(c, k), each one step
    from the last, C(c, k) = C(c, k-1) (c - k + 1) / k; a RatFunc c lifts Q
    to Q(L), as in ``exp_ct``."""
    field = _field_with(field, c)
    c = field.coerce(c)
    out = [field.one]
    for k in range(1, _truncation("T", T)):
        out.append(out[-1] * (c - (k - 1)) / k)
    return Series(field, out, trunc=T)


# ---------------------------------------------------------------------- Poly


class Poly(CoeffVector):
    """Dense polynomial in x over a field; no trailing zero coefficients."""

    __slots__ = ()

    def __init__(self, field, coeffs=()):
        self.field = _field_with(field)
        self.coeffs = vec_trim([field.coerce(c) for c in coeffs])

    # constructors ----------------------------------------------------------

    @classmethod
    def x(cls, field) -> "Poly":
        return cls(field, [0, 1])

    @classmethod
    def monomial(cls, field, n: int, c=1) -> "Poly":
        return cls(field, [0] * nonnegative_integer("degree", n) + [c])

    @classmethod
    def constant(cls, field, c) -> "Poly":
        return cls(field, [c])

    # structure ---------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, k):
        """The x^k coefficient, for an int k >= 0; zero above the degree."""
        if nonnegative_integer("k", k) < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero

    def is_zero(self) -> bool:
        return not self.coeffs

    # arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            field, c = self._scalar(other)
            if field is None:
                return NotImplemented
            other = Poly.constant(field, c)
        return Poly(common_field(self.field, other.field), vec_add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, Poly):
            field, c = self._scalar(other)
            if field is None:
                return NotImplemented
            return Poly(field, [a * c for a in self.coeffs])
        field = common_field(self.field, other.field)
        return Poly(field, vec_mul(self.coeffs, other.coeffs, field.zero))

    __rmul__ = __mul__

    def derivative(self) -> "Poly":
        return Poly(self.field, [k * c for k, c in enumerate(self.coeffs)][1:])

    def eval(self, at):
        field = _field_with(self.field, at)
        return vec_horner(self.coeffs, field.coerce(at), field.zero)

    def compose(self, inner: "Poly") -> "Poly":
        return vec_horner(self.coeffs, inner, Poly(self.field))

    def shift_arg(self, s) -> "Poly":
        """p(x + s)."""
        field = _field_with(self.field, s)
        return self.compose(Poly(field, [field.coerce(s), field.one]))

    # rendering -----------------------------------------------------------------

    def __str__(self) -> str:
        return format_terms(self.coeff_texts(), "x")

    def __repr__(self) -> str:
        return f"Poly[{self.field.name}]({self})"


def _kept(build):
    """``build(*key, T)`` for T >= 1, kept per key at the longest T asked
    for and read as its first T entries: ``truncate(T)`` of a Series, a
    slice of a tuple of rows.  Sound only for a builder whose first T
    entries do not depend on T.  The tables sit in one ``lru_cache`` of 256
    keys, T not among them; its ``cache_info()`` and ``cache_clear()`` are
    the kept builder's, so a read that lengthens a kept table counts as a
    hit of its key."""
    longest = lru_cache(maxsize=256)(lambda *key: [(0, None)])  # [(T, the table at T)]

    @wraps(build)
    def read(*args):
        cell, T = longest(*args[:-1]), args[-1]
        held, table = cell[0]  # one snapshot: another thread may replace the pair
        if table is None or held < T:
            table = build(*args)
            cell[0] = T, table
        return table.truncate(T) if isinstance(table, Series) else table[:T]

    read.cache_info, read.cache_clear = longest.cache_info, longest.cache_clear
    return read


@_kept
def _falling_rows(T: int) -> tuple:
    """The integer coefficients of (x)_0 .. (x)_{T-1}, ascending powers of
    x: (x)_m is (x)_{m-1} times x - m + 1."""
    return tuple(accumulate(range(T - 1), lambda row, m: _zmul(row, (-m, 1)), initial=(1,)))


def falling_factorial(field, n: int) -> Poly:
    """(x)_n = x (x-1) ... (x-n+1); (x)_0 = 1."""
    return Poly(field, _falling_rows(nonnegative_integer("degree", n) + 1)[-1])
