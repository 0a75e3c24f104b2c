"""Exact coefficient fields: arbitrary-precision rationals and Q(L).

Rationals are the stdlib ``fractions.Fraction`` (already canonical: reduced,
positive denominator).  ``RatFunc`` is the field of rational functions in
one indeterminate ``L`` over Q, kept in canonical form (gcd-reduced, monic
denominator) so equality is plain structural comparison.

Internally a RatFunc is a reduced rational scale times a ratio of primitive
integer polynomials with positive leading coefficients; polynomial work
stays in machine/big ints and only the scale pays Fraction overhead.  The
public ``num``/``den`` views are the canonical monic-denominator form over
Q.

Normalisation is gcd work.  The integer gcd first tries Euclid modulo one
fixed prime p (Brown 1971): when p divides neither leading coefficient,
reduction mod p keeps the degree of the true gcd, so a constant gcd mod p
proves the polynomials coprime.  Any other outcome falls back to the
primitive pseudo-remainder sequence, so every answer stays certain.

Every sum over Q(L) is normalised in one place, ``_ratfunc_dot``: a
coefficient of a series product, an inverse or a reversion, the umbral
applies (all through ``vec_dot``), and ``a + b`` itself, the sum
1*a + 1*b.  Each product a_i*b_i is left unreduced (numerators,
denominators and rational scales multiplied); the numerators are summed
over a running lcm of the denominators and a running lcm of the scales'
integer denominators; one content extraction and one ``_lowest_terms`` at
the end give the canonical form, which is unique, so the value and every
printed byte do not depend on how a sum is grouped.  Each lcm step first
tries exact division both ways with ``_zquo``, whose "no" is certain: the
denominators are primitive, and by Gauss's lemma a quotient in Q[L] of a
polynomial by a primitive one is integral, so an integer long division
that meets an indivisible leading coefficient or leaves a remainder proves
non-divisibility.  ``_zgcd`` runs only when neither denominator divides
the other.  ``_lowest_terms`` is also the tail of ``RatFunc.__init__``, so
canonical form is made in one function.

``RatFunc.__mul__`` is not a one-term ``_ratfunc_dot``: it keeps the cross
gcds gcd(na, db) and gcd(nb, da) of its reduced operands.  Most products
have a constant factor, for which both cross gcds are free, while a gcd of
the whole product's numerator and denominator runs a mod-p Euclid every
time; as a one-term sum, products made the ``sheffer_q_lambda`` benchmark
about 11% slower.

Every series/polynomial in this package is parameterized by a field object
(``QQ`` or ``QL``) that knows how to coerce scalars and render elements.

This module also holds the coefficient-vector kernels that ``RatFunc``'s
integer polynomials, ``Series`` and ``Poly`` share (``vec_add``,
``vec_mul``, ``vec_dot``, ``vec_horner``, ``vec_trim``) and the one term
formatter, ``format_terms``, behind every "coefficient * var^k" string,
plain or LaTeX.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd as _int_gcd

from .errors import DivisionByZero, EvalPole

__all__ = [
    "RatFunc",
    "LAMBDA",
    "QQ",
    "QL",
    "RationalField",
    "LambdaField",
]


# ---------------------------------------------------------------------------
# coefficient-vector kernels, ascending powers; entries are int, Fraction or
# RatFunc (or anything with + and *), and zero entries are skipped in products
# ---------------------------------------------------------------------------


def vec_trim(c) -> tuple:
    """``c`` without its trailing zero coefficients."""
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return tuple(c[:n])


def vec_add(a, b) -> list:
    """Coefficientwise sum; as long as the longer operand."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return out


def vec_mul(a, b, zero=0, n=None) -> tuple:
    """Product, truncated to ``n`` coefficients when ``n`` is given.

    Over Q(L) (a RatFunc ``zero``) coefficient k is one ``vec_dot``."""
    if n is None:
        n = len(a) + len(b) - 1 if a and b else 0
    if isinstance(zero, RatFunc):
        # a[i] pairs with b[k - i], which is rb[len(b) - 1 - k + i]
        rb = b[::-1]
        return tuple(
            vec_dot(a[max(0, k - len(b) + 1) : k + 1], rb[max(0, len(b) - 1 - k) :], zero)
            for k in range(n)
        )
    out = [zero] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                if y:
                    out[i + j] += x * y
    return tuple(out)


def vec_dot(a, b, zero=0, w=None):
    """``sum w[i] * a[i] * b[i]`` over the shorter of ``a`` and ``b``; ``w``
    holds integer weights, all 1 when it is None.

    Over Q(L) (a RatFunc ``zero``; int and Fraction entries are taken as
    constants) the sum is normalised once, by ``_ratfunc_dot``; otherwise it
    is the plain ``acc += x * y`` loop."""
    if isinstance(zero, RatFunc):
        return _ratfunc_dot(a, b, w)
    acc = zero
    if w is None:
        for x, y in zip(a, b):
            if x and y:
                acc += x * y
    else:
        for x, y, k in zip(a, b, w):
            if x and y:
                acc += k * x * y
    return acc


def vec_horner(c, x, acc):
    """``acc * x^len(c) + sum c[k] x^k`` by Horner's rule."""
    for v in reversed(c):
        acc = acc * x + v
    return acc


# ---------------------------------------------------------------------------
# one term formatter for Series, Poly and Q(L) elements
# ---------------------------------------------------------------------------


def format_terms(coeff_texts, var: str, latex: bool = False, ascending: bool = False) -> str:
    """``c_k * var^k`` terms joined by signs; ``coeff_texts[k]`` renders c_k
    (in LaTeX, from ``latex_scalar``, when ``latex`` is set).

    Zero terms are skipped, a lone leading minus becomes the term's sign, a
    unit coefficient is dropped, and a coefficient with a space in it (a
    genuine Q(L) element) is parenthesized whole.  No terms give "0".
    """
    order = range(len(coeff_texts)) if ascending else range(len(coeff_texts) - 1, -1, -1)
    parts = []
    for k in order:
        cs = coeff_texts[k]
        if cs == "0":
            continue
        neg = cs.startswith("-") and " " not in cs
        mag = cs[1:] if neg else cs
        if " " in mag:
            body = rf"\left({cs}\right)" if latex else f"({cs})"
        else:
            body = mag
        if k:
            power = var if k == 1 else (f"{var}^{{{k}}}" if latex else f"{var}^{k}")
            body = power if body == "1" else body + (" " if latex else "*") + power
        sign = ("- " if neg else "+ ") if parts else ("-" if neg else "")
        parts.append(sign + body)
    return " ".join(parts) or "0"


def latex_scalar(v) -> str:
    """LaTeX for one exact scalar: a Fraction, or a RatFunc in \\lambda whose
    numerator and denominator go through ``format_terms``."""
    if isinstance(v, RatFunc):
        num = format_terms([latex_scalar(c) for c in v.num], r"\lambda", latex=True)
        if v._d == (1,):
            return num
        den = format_terms([latex_scalar(c) for c in v.den], r"\lambda", latex=True)
        return rf"\frac{{{num}}}{{{den}}}"
    if v.denominator == 1:
        return str(v)
    return rf"{'-' if v < 0 else ''}\frac{{{abs(v.numerator)}}}{{{v.denominator}}}"


# ---------------------------------------------------------------------------
# primitive integer polynomials in L, as tuples (ascending powers)
# ---------------------------------------------------------------------------


def _zmul(a, b):
    """Product of integer polynomials; a factor (1,) costs nothing."""
    if a == (1,):
        return b
    if b == (1,):
        return a
    return vec_mul(a, b)


def _zcontent(a) -> int:
    g = 0
    for v in a:
        g = _int_gcd(g, v if v >= 0 else -v)
        if g == 1:
            break
    return g


def _zprimitive(a):
    """(content, primitive part with positive leading coefficient)."""
    if not a:
        return 0, ()
    g = _zcontent(a)
    if a[-1] < 0:
        g = -g
    if g != 1:
        return g, tuple(v // g for v in a)
    return g, tuple(a)


def _zquo(a, b):
    """a / b when b divides a in Z[L], else None; certain either way.

    Long division over Z: a leading coefficient that lb does not divide, or
    a nonzero remainder, proves there is no quotient in Z[L].  For a
    primitive b that also proves b does not divide a in Q[L]: by Gauss's
    lemma a quotient over Q of a by a primitive b is integral.
    """
    if not b:
        raise DivisionByZero("polynomial division by zero")
    if not a:
        return ()
    db = len(b) - 1
    if len(a) <= db:
        return None
    lb = b[-1]
    r = list(a)
    q = [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c, m = divmod(r[i + db], lb)
        if m:
            return None
        q[i] = c
        if c:
            for j in range(db + 1):
                r[i + j] -= c * b[j]
    if any(r[:db]):
        return None
    return tuple(q)


def _zprem_primitive(f, g):
    """Primitive part of the pseudo-remainder of f mod g (both integer)."""
    dg = len(g) - 1
    lg = g[-1]
    r = list(f)
    while len(r) - 1 >= dg:
        dr = len(r) - 1
        lr = r[-1]
        shift = dr - dg
        r = [c * lg for c in r]
        for i, gc in enumerate(g):
            r[shift + i] -= lr * gc
        del r[dr:]
        while r and not r[-1]:
            r.pop()
        if not r:
            return ()
    return _zprimitive(r)[1]


# the largest prime below 2^30: residues fit in one CPython int digit
_P = 1073741789


def _coprime_mod_p(f, g) -> bool:
    """True only if the nonconstant integer polynomials f, g are coprime.

    Euclid on f and g reduced mod ``_P``; ``_zgcd`` says why True is
    certain.  False means "not known".
    """
    p = _P
    if not f[-1] % p or not g[-1] % p:
        return False
    a = [c % p for c in f]
    b = [c % p for c in g]
    while len(b) > 1:
        inv = pow(b[-1], -1, p)
        m = len(b) - 1
        for k in range(len(a) - 1 - m, -1, -1):  # a[k:] lines up under b
            c = a.pop() * inv % p
            if c:
                a[k:] = [(x - c * y) % p for x, y in zip(a[k:], b)]
        while a and not a[-1]:
            a.pop()
        if not a:
            return False
        a, b = b, a
    return True


def _zgcd_prs(f, g):
    """gcd of nonzero integer polynomials by the primitive PRS."""
    f = _zprimitive(f)[1]
    g = _zprimitive(g)[1]
    while g:
        f, g = g, _zprem_primitive(f, g)
    return f


def _zgcd(f, g):
    """gcd of integer polynomials, primitive with positive leading coeff.

    Contents are ignored: a constant gcd is ``(1,)``.  Nonconstant operands
    first go through ``_coprime_mod_p``, and its "coprime" is certain: when
    p divides neither leading coefficient, the leading coefficient of the
    true gcd h divides both, so h mod p keeps the degree of h and divides
    the gcd mod p; a constant gcd mod p leaves h constant.  Every other
    outcome (p divides a leading coefficient, or the gcd mod p is not
    constant, as for L and L - p) is decided by the plain ``_zgcd_prs``.
    """
    if not f:
        return _zprimitive(g)[1]
    if not g:
        return _zprimitive(f)[1]
    if len(f) == 1 or len(g) == 1 or _coprime_mod_p(f, g):
        return (1,)
    return _zgcd_prs(f, g)


# ---------------------------------------------------------------------------
# RatFunc
# ---------------------------------------------------------------------------


class RatFunc:
    """An element of Q(L), canonical and immutable.

    Value = ``scale * N / D`` with N, D primitive integer polynomials with
    positive leading coefficients and gcd 1; ``scale`` a reduced Fraction.
    The public ``num``/``den`` are the equivalent reduced Q-polynomials
    with monic denominator.
    """

    __slots__ = ("scale", "_n", "_d")

    def __init__(self, num=0, den=1):
        sn, n = _as_zpoly(num)
        sd, d = _as_zpoly(den)
        if not d:
            raise DivisionByZero("zero denominator in Q(L)")
        if not n:
            self._become(Fraction(0), (), (1,))
            return
        self._become(sn / sd, *_lowest_terms(n, d))

    def _become(self, scale, n, d):
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_d", d)

    @classmethod
    def _raw(cls, scale: Fraction, n, d) -> "RatFunc":
        obj = object.__new__(cls)
        obj._become(scale, n, d)
        return obj

    @classmethod
    def from_rat(cls, q) -> "RatFunc":
        q = Fraction(q)
        if not q:
            return _RF_ZERO
        return cls._raw(q, (1,), (1,))

    # views -------------------------------------------------------------------

    @property
    def num(self):
        """Numerator over Q in the monic-denominator canonical form."""
        if not self._n:
            return ()
        s = self.scale / self._d[-1]
        return tuple(c * s for c in self._n)

    @property
    def den(self):
        """Monic denominator over Q."""
        lc = self._d[-1]
        if lc == 1:
            return tuple(Fraction(c) for c in self._d)
        return tuple(Fraction(c, lc) for c in self._d)

    # predicates ---------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._n)

    def is_constant(self) -> bool:
        return len(self._n) <= 1 and len(self._d) == 1

    def as_rat(self) -> Fraction:
        if not self._n:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"{self} is not a rational constant")
        return self.scale * self._n[0] / self._d[0]

    # arithmetic ----------------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return _ratfunc_dot((self, other), (_RF_ONE, _RF_ONE))

    __radd__ = __add__

    def __neg__(self):
        if not self._n:
            return self
        return RatFunc._raw(-self.scale, self._n, self._d)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return self.__add__(-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return other.__add__(-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        if not self._n or not other._n:
            return _RF_ZERO
        na, da = self._n, self._d
        nb, db = other._n, other._d
        g1 = _zgcd(na, db)
        if len(g1) > 1:
            na = _zquo(na, g1)
            db = _zquo(db, g1)
        g2 = _zgcd(nb, da)
        if len(g2) > 1:
            nb = _zquo(nb, g2)
            da = _zquo(da, g2)
        return RatFunc._raw(self.scale * other.scale, vec_mul(na, nb), vec_mul(da, db))

    __rmul__ = __mul__

    def reciprocal(self) -> "RatFunc":
        if not self._n:
            raise DivisionByZero("division by zero in Q(L)")
        # N always has positive lead; flipping keeps both leads positive
        return RatFunc._raw(Fraction(1) / self.scale, self._d, self._n)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return self.__mul__(other.reciprocal())

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return other.__mul__(self.reciprocal())

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            base = self.reciprocal()
            n = -n
        else:
            base = self
        out = _RF_ONE
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # comparison / hashing --------------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return (
            self.scale == other.scale and self._n == other._n and self._d == other._d
        )

    def __hash__(self):
        if self.is_constant():
            return hash(self.as_rat())
        return hash((self.scale, self._n, self._d))

    # evaluation / rendering --------------------------------------------------------

    def evaluate(self, lam0) -> Fraction:
        """Specialize L to a rational; raises EvalPole at denominator roots."""
        lam0 = Fraction(lam0)
        dv = vec_horner(self._d, lam0, Fraction(0))
        if not dv:
            raise EvalPole(f"pole of {self} at L = {lam0}")
        return self.scale * vec_horner(self._n, lam0, Fraction(0)) / dv

    def __str__(self) -> str:
        num = format_terms([str(c) for c in self.num], "L")
        if self._d == (1,):
            return num
        return f"({num})/({format_terms([str(c) for c in self.den], 'L')})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def _ratfunc_dot(a, b, w=None) -> "RatFunc":
    """``sum w[i] * a[i] * b[i]`` over Q(L) with one normalisation.

    Each product is left unreduced: scale pa*pb / (qa*qb) times
    (na*nb) / (da*db).  The sum is kept as num / (q * den), with q the lcm
    of the scales' denominators and den a running lcm of the product
    denominators (all primitive, positive leads).  Each lcm step tries
    exact division both ways (``_zquo``) and runs ``_zgcd`` only when
    neither denominator divides the other.  One content extraction and
    ``_lowest_terms`` at the end give RatFunc's canonical form.
    """
    q, den, num = 1, (1,), []
    for x, y, k in zip(a, b, repeat(1) if w is None else w):
        if not x or not y:
            continue
        x, y = _coerce(x), _coerce(y)
        sx, sy = x.scale, y.scale
        qi = sx.denominator * sy.denominator
        n = _zmul(x._n, y._n)
        d = _zmul(x._d, y._d)
        # bring num / (q * den) and the term onto lcm(q, qi) * lcm(den, d)
        g = _int_gcd(q, qi)
        if g != qi:
            num = [c * (qi // g) for c in num]
            q = q // g * qi
        if d != den:
            m = _zquo(den, d)
            if m is not None:
                n = _zmul(n, m)
            else:
                m = _zquo(d, den)
                if m is None:
                    h = _zgcd(den, d)
                    m = _zquo(d, h)
                    n = _zmul(n, _zquo(den, h))
                num = list(_zmul(num, m))
                den = _zmul(den, m)
        f = k * sx.numerator * sy.numerator * (q // qi)
        if len(num) < len(n):
            num += [0] * (len(n) - len(num))
        for i, c in enumerate(n):
            num[i] += c * f
    num = vec_trim(num)
    if not num:  # a third of the sums in the Q(L) routes are zero
        return _RF_ZERO
    cont, num = _zprimitive(num)
    return RatFunc._raw(Fraction(cont, q), *_lowest_terms(num, den))


def _lowest_terms(num, den):
    """num and den with their gcd divided out: nonzero integer polynomials,
    primitive with positive leads, as RatFunc's canonical form holds them."""
    h = _zgcd(num, den)
    if len(h) > 1:
        return _zquo(num, h), _zquo(den, h)
    return num, den


def _as_zpoly(v):
    """(rational scale, primitive int tuple) from assorted inputs."""
    if isinstance(v, RatFunc):
        if len(v._d) != 1:
            raise ValueError("nested RatFunc with non-unit denominator")
        return v.scale / v._d[0], v._n
    if isinstance(v, (int, Fraction)):
        q = Fraction(v)
        if not q:
            return Fraction(1), ()
        return q, (1,)
    if isinstance(v, (tuple, list)):
        qs = vec_trim([Fraction(c) for c in v])
        if not qs:
            return Fraction(1), ()
        den = 1
        for c in qs:
            den = den * c.denominator // _int_gcd(den, c.denominator)
        ints = [int(c * den) for c in qs]
        cont, prim = _zprimitive(ints)
        return Fraction(cont, den), prim
    raise TypeError(f"cannot build polynomial from {type(v).__name__}")


def _coerce(v):
    if isinstance(v, RatFunc):
        return v
    if isinstance(v, (int, Fraction)):
        return RatFunc.from_rat(v)
    return NotImplemented


_RF_ZERO = RatFunc._raw(Fraction(0), (), (1,))
_RF_ONE = RatFunc._raw(Fraction(1), (1,), (1,))

LAMBDA = RatFunc._raw(Fraction(1), (0, 1), (1,))


# ---------------------------------------------------------------------------
# field objects
# ---------------------------------------------------------------------------


class RationalField:
    """Q with Fraction elements."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        if isinstance(v, RatFunc) and v.is_constant():
            return v.as_rat()
        raise TypeError(f"cannot coerce {v!r} into Q")

    def to_str(self, v) -> str:
        return str(v)

    def __repr__(self):
        return "QQ"


class LambdaField:
    """Q(L) with RatFunc elements."""

    name = "Q(L)"
    zero = _RF_ZERO
    one = _RF_ONE

    def coerce(self, v):
        if isinstance(v, RatFunc):
            return v
        if isinstance(v, (int, Fraction)):
            return RatFunc.from_rat(v)
        raise TypeError(f"cannot coerce {v!r} into Q(L)")

    def to_str(self, v) -> str:
        return str(v)

    def __repr__(self):
        return "QL"


QQ = RationalField()
QL = LambdaField()
