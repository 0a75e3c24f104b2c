"""Exact coefficient fields: arbitrary-precision rationals and Q(L).

Rationals are the stdlib ``fractions.Fraction`` (already canonical: reduced,
positive denominator).  ``RatFunc`` is the field of rational functions in
one indeterminate ``L`` over Q, kept in canonical form (gcd-reduced, monic
denominator) so equality is plain structural comparison.

Internally a RatFunc is N / (q * D): N an integer polynomial, q a
positive integer prime to N's content, and D a primitive integer
polynomial with positive leading coefficient, prime to N.  That is one
entry of the packed layout below, so a kernel's integer output is a
RatFunc's own form, and Q(L) arithmetic builds no ``Fraction``.  The
public ``num``/``den`` views are the canonical monic-denominator form over
Q.

Normalisation is gcd work.  The integer gcd first tries Euclid modulo one
fixed prime p (Brown 1971): when p divides neither leading coefficient,
reduction mod p keeps the degree of the true gcd, so a constant gcd mod p
proves the polynomials coprime.  Any other outcome falls back to the
primitive pseudo-remainder sequence, so every answer stays certain.
Canonical form needs no Euclid at all when the denominator is a power P^e
of a primitive linear P = aL + b, which is irreducible in Z[L]: the gcd
is P^v, v the order of num's root -b/a, found by exact integer evaluation
(``_lowest_terms``).  In the paper's Frobenius-Euler-type pairs L enters
only through (1 - L)/(e^t - L) and e^((L - 1)t), so every denominator of
those routes is a power of L - 1; each distinct P^e is recognised once
(the 60 operations the ``sheffer_q_lambda`` benchmark draws from meet 23
of them in 2 888 normalisations).

Sums over Q run on integers.  ``vec_mul`` follows FLINT's ``fmpq_poly``
layout: it brings each operand to integers over the lcm of its
denominators (``_common_den``, one ``math.lcm``) and runs the integer
convolution.  Every other sum over Q is
``_qsum``: integer numerators n over positive integer denominators d,
summed over a running lcm of the d's.  ``vec_dot`` feeds it the products
of its entries' numerators and denominators; ``series._forward_solve``, the
one solve of ``Series.inverse``, the reversion, ``exp`` and ``log``, feeds
it integer weights times the reduced (numerator, denominator) pairs of the
coefficients it has solved, and so does no ``Fraction`` arithmetic.
Either way each output is one ``Fraction``, so the gcd that normalises a
rational runs once per output instead of at every ``+=``.

A Q(L) value is normalised in one place, ``_element``: ``_lowest_terms``
divides out gcd(N, D), then one integer gcd of q and N's coefficients is
divided out.  It is the tail of ``RatFunc.__init__``, of ``a * b`` (one
``_element`` of the unreduced product Na*Nb / (qa*qb * Da*Db)), of every
Q(L) sum, of ``_prefix_sums`` and of ``families._frobenius_g``.  The
canonical form is unique, so the value and every printed byte do not depend
on how a sum is grouped or on the factors a product shares.

Every Q(L) sum is one common-denominator layout and one ``_element``
(``_sum``).  ``vec_dot`` lays out the unreduced products of its nonzero
terms with their integer weights: a coefficient of a series product, of
a composition with an inner series over Q(L) and of the one solve of an
inverse, a reversion, exp and log, and a functional, are such dots.
``a + b`` is the sum of the two terms.  An int or Fraction operand is a
constant: its N is its numerator, its q its denominator and its D the
polynomial 1.  Products are laid out, not operands: the lcm of the
operands' own denominators overshoots each product's and sends
``_lowest_terms`` to the PRS gcd.

The packed sums and the orthogonality check lay a whole Q or Q(L) vector out
over one common denominator too, FLINT's ``fmpq_poly`` layout one level up,
over Z[L]: entry i is num[i] / (q * den), a RatFunc's form with one q and
den for the whole vector (``_lay_out``).  ``_common_form`` takes the one
running lcm of Q(L) denominators: q is the lcm of the entries' q's, and den
the running lcm of their D's.  Each lcm step (``_lcm_cofactors``) first
tries exact division both ways with ``_zquo``, whose "no" is certain: the
denominators are primitive, and by Gauss's lemma a quotient in Q[L] of a
polynomial by a primitive one is integral, so an integer long division
that meets an indivisible leading coefficient or leaves a remainder proves
non-divisibility.  ``_zgcd`` runs only when neither denominator divides
the other.
The layout also keeps the lcm of the denominators up to each entry, so a
sum that uses only some entries can be divided by the cofactor of the ones
it skips.  A numerator is packed into one Python int by Kronecker
substitution, as its value at L = 2^s, so a sum of products of numerators
is a few C-speed big-int operations (Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic Comput.
44, 2009).  The slot width s comes from a bound on the sum's coefficients:
for sum_i a_i b_i with at most t terms, coefficients of a_i at most A and
of b_i at most B, and lengths at most l, every coefficient is at most
t * l * A * B, and ``_slot_width`` gives s with that bound below 2^(s-1)
(the bits of both factors, the term count, the length, and a sign bit;
integer weights are folded into the numerators first).  Two integer
polynomials whose coefficients lie in (-2^(s-1), 2^(s-1)) have equal
values at 2^s only if they are equal, since those values are their
balanced base-2^s digits.  So ``_unpack`` recovers a packed sum exactly,
and two packed integers are equal exactly when their polynomials are.  A
slot is at least 2 bits wide: at width 1 the balanced digits are only -1
and 0, and ``_unpack`` of 1 would not return.

``_prefix_sums`` is the one packed kernel for a sum against a power table:
it sums integer columns against the leading entries of one Q or Q(L)
vector.  A sum that uses only the first entries of a layout is an integer
polynomial divisible by the cofactor of the entries it skips, so each
packed sum is divided by its packed cofactor as one integer, with
Mignotte's factor bound added to the slot so the quotient unpacks exactly;
each distinct cofactor is packed once per call.
It serves the coefficients of a composition outer(inner) with an inner
over Q (``Series._compose_rows``), the y^j coefficients
of the GF route (the table of fbar against the pair's proven 1/g), the x^j
coefficients of the transfer route ((t/f)^n against the same 1/g) and
``umbral.operator_apply``.  A caller that has the operand's layout already,
as a route has 1/g's from the proof, passes it in.  The integer
columns are rows of the power table ``Series._power_rows`` over Q (s^k as
an integer row over its own reduced denominator, one ``_zmul`` per power),
and ``Series.revert`` solves over the same rows.  No consumer builds a
``Fraction`` per table entry.  The orthogonality check reads no power
table: it lays out g, f and each S_n once and packs the sums of Sheffer's
two conditions, each from the entries of g and f that its S_n reaches, at
a slot that only grows, so g and f are packed once per width.

Every series/polynomial in this package is parameterized by a field object
(``QQ`` or ``QL``) that knows how to coerce scalars and render elements.
Q is a subfield of Q(L): ``common_field`` gives Q(L) as the field of an
operation on one operand over each.  The coefficients given to
``RatFunc(num, den)`` and the point of ``RatFunc.evaluate`` pass through
``errors.rational``, so a float or a bool is a ``DomainError``, as is
anything a field's ``coerce`` cannot take as one of its elements.

This module also holds the coefficient-vector kernels that ``RatFunc``'s
integer polynomials, ``Series`` and ``Poly`` share (``vec_add``,
``vec_mul``, ``vec_dot``, ``vec_horner``, ``vec_trim``), the one
repeated-squaring loop of ``RatFunc ** n`` and ``Series.pow_int``
(``_binary_power``), and the one term formatter, ``format_terms``, behind
every "coefficient * var^k" string, plain or LaTeX.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat, zip_longest
from math import comb, gcd as _int_gcd, isqrt, lcm
from operator import mul

from .errors import (
    MAX_PAIR_TRUNC, DivisionByZero, DomainError, EvalPole, integer_order, rational,
)

__all__ = [
    "LAMBDA",
    "QL",
    "QQ",
    "RatFunc",
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

    Over Q (a Fraction ``zero``) each operand is brought to integers over
    one common denominator, the integer convolution runs, and each output
    is one ``Fraction``.  Over Q(L) (a RatFunc ``zero``) coefficient k is
    one ``vec_dot`` over the range where a[i] and b[k - i] both exist.
    Any other ``zero`` (integer polynomials) is ``_zmul``'s convolution."""
    if n is None:
        n = len(a) + len(b) - 1 if a and b else 0
    if isinstance(zero, RatFunc):
        # a[i] pairs with b[k - i], which is rb[last - k + i]
        rb, last = b[::-1], len(b) - 1
        out = []
        for k in range(n):
            lo = max(0, k - last)
            out.append(vec_dot(a[lo : k + 1], rb[last - k + lo :], zero))
        return tuple(out)
    if isinstance(zero, Fraction):
        da, a = _common_den(a[:n])
        db, b = _common_den(b[:n])
        d = da * db
        return tuple(Fraction(c, d) for c in _zmul(a, b, n))
    return _zmul(a, b, n)


def vec_dot(a, b, zero=0, w=None):
    """``sum w[i] * a[i] * b[i]`` over the shorter of ``a`` and ``b``; ``w``
    holds integer weights, all 1 when it is None.

    Over Q(L) (a RatFunc ``zero``; int and Fraction entries are taken as
    constants) each nonzero term's product is left unreduced,
    Na*Nb / (qa*qb * Da*Db), and ``_sum`` adds the products over their
    common denominator and normalises once.  Otherwise the entries are ints
    and Fractions, whose products are summed as integer numerators over a
    running lcm of their denominators into one Fraction."""
    if isinstance(zero, RatFunc):
        parts, ks = [], []
        for x, y, k in zip(a, b, repeat(1) if w is None else w):
            if x and y:
                x, y = _coerce(x), _coerce(y)
                parts.append((_zmul(x._n, y._n), x._q * y._q, _zmul(x._d, y._d)))
                ks.append(k)
        return _sum(parts, ks)
    return Fraction(*_qsum((k * x.numerator * y.numerator, x.denominator * y.denominator)
                           for x, y, k in zip(a, b, repeat(1) if w is None else w) if x and y))


def _qsum(terms, q=1):
    """(s, q) with s / q the sum of n / d over the integer pairs (n, d) of
    ``terms``, each d > 0: the n's are summed over a running lcm q of the
    given q and the d's of the nonzero n's, so the gcd that reduces a
    rational runs once, when the caller makes its ``Fraction(s, q)``.  The
    one sum over Q of ``vec_dot`` and ``series._forward_solve``."""
    s = 0
    for n, d in terms:
        if n:
            if q % d:
                g = _int_gcd(q, d)
                s *= d // g
                q = q // g * d
            s += n * (q // d)
    return s, q


def _common_den(c):
    """(d, integers) with c[i] = integers[i] / d and d the lcm of the
    denominators of the ints and Fractions in c."""
    d = lcm(*[x.denominator for x in c])
    return d, [x.numerator * (d // x.denominator) for x in c]


def _cleared(field, c):
    """(d, C) with c = C / d: ``_common_den`` over Q, and (1, c) over Q(L),
    whose entries stay RatFuncs."""
    return _common_den(c) if field is QQ else (1, c)


def _binary_power(base, n: int):
    """base ** n for an int n >= 1 by repeated squaring, the right-to-left
    binary method (Knuth, *TAOCP* vol. 2, section 4.6.3): at most
    2 log2(n) products, and none by a unit, since the first factor is taken
    as it is.  The one loop of ``RatFunc.__pow__`` and ``Series.pow_int``."""
    out = None
    while True:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if not n:
            return out
        base = base * base


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


def _zmul(a, b, n=None):
    """Product of integer polynomials, truncated to (and padded to) ``n``
    coefficients when ``n`` is given; untruncated, a factor (1,) costs
    nothing.

    This is the one integer convolution: ``vec_mul`` over Q and the power
    table ``Series._power_rows`` run it on numerators, and
    ``RatFunc.__mul__`` calls it directly, so a product in
    Z[L] pays no dispatch on the type of a zero (``isinstance`` of an int
    against ``Fraction`` goes through ``ABCMeta.__instancecheck__``)."""
    if n is None:
        if a == _Z_ONE:
            return b
        if b == _Z_ONE:
            return a
        n = len(a) + len(b) - 1 if a and b else 0
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                if y:
                    out[i + j] += x * y
    return tuple(out)


def _zprimitive(a):
    """(content, primitive part with positive leading coefficient)."""
    if not a:
        return 0, ()
    g = _int_gcd(*a)
    if a[-1] < 0:
        g = -g
    if g != 1:
        return g, tuple([v // g for v in a])
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

    Value = ``N / (q * D)``: N an integer polynomial, q >= 1 an integer
    with gcd(q, content N) = 1, D primitive with positive leading
    coefficient, and gcd(N, D) = 1; zero is ((), 1, (1,)).  So equal values
    have equal (N, q, D).  The public ``num``/``den`` are the equivalent
    reduced Q-polynomials with monic denominator.
    """

    __slots__ = ("_n", "_q", "_d")

    def __init__(self, num=0, den=1):
        nn, qn, dn = _as_entry(num)
        nd, qd, dd = _as_entry(den)
        if not nd:
            raise DivisionByZero("zero denominator in Q(L)")
        # (nn / (qn dn)) / (nd / (qd dd)) with nd = c * pd, pd primitive with
        # positive lead; products of such polynomials are such (Gauss's lemma)
        c, pd = _zprimitive(nd)
        k = qd if c > 0 else -qd
        v = _element(QL, tuple([k * a for a in _zmul(nn, dd)]), qn * abs(c), _zmul(dn, pd))
        self._n, self._q, self._d = v._n, v._q, v._d

    @classmethod
    def _raw(cls, n, q: int, d) -> "RatFunc":
        obj = object.__new__(cls)
        obj._n, obj._q, obj._d = n, q, d
        return obj

    @classmethod
    def from_rat(cls, q) -> "RatFunc":
        """The constant q: an int or a Fraction as it is, anything else
        through ``errors.rational``."""
        if type(q) not in (int, Fraction):
            q = rational("q", q)
        return cls._raw((q.numerator,) if q else (), q.denominator, _Z_ONE)

    # views -------------------------------------------------------------------

    @property
    def num(self):
        """Numerator over Q in the monic-denominator canonical form."""
        s = self._q * self._d[-1]
        return tuple(Fraction(c, s) for c in self._n)

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
        if not self.is_constant():
            raise DomainError(f"{self} is not a rational constant")
        return Fraction(self._n[0] if self._n else 0, self._q)

    # arithmetic ----------------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return _sum(((self._n, self._q, self._d), (other._n, other._q, other._d)))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._raw(tuple([-c for c in self._n]), self._q, self._d)

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
        return _element(QL, _zmul(self._n, other._n), self._q * other._q,
                        _zmul(self._d, other._d))

    __rmul__ = __mul__

    def reciprocal(self) -> "RatFunc":
        if not self._n:
            raise DivisionByZero("division by zero in Q(L)")
        # N = c * P with P primitive with positive lead: 1 / value is
        # (q D) / (c P), and c moves into q; gcd(q, c) = 1 already
        c, p = _zprimitive(self._n)
        q = self._q if c > 0 else -self._q
        return RatFunc._raw(tuple([q * a for a in self._d]), abs(c), p)

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
        """self ** n for an int n with |n| <= MAX_PAIR_TRUNC: 1 for n = 0, and
        otherwise ``_binary_power`` of self, or of its reciprocal for n < 0."""
        if abs(integer_order("exponent", n)) > MAX_PAIR_TRUNC:
            raise DomainError(f"|exponent| must be <= {MAX_PAIR_TRUNC}, got {n}")
        if n == 0:
            return _RF_ONE
        return _binary_power(self.reciprocal() if n < 0 else self, abs(n))

    # comparison / hashing --------------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return self._n == other._n and self._q == other._q and self._d == other._d

    def __hash__(self):
        if self.is_constant():
            return hash(self.as_rat())
        return hash((self._n, self._q, self._d))

    # evaluation / rendering --------------------------------------------------------

    def evaluate(self, lam0) -> Fraction:
        """Specialize L to a rational; raises EvalPole at denominator roots."""
        lam0 = rational("lam0", lam0)
        dv = vec_horner(self._d, lam0, Fraction(0))
        if not dv:
            raise EvalPole(f"pole of {self} at L = {lam0}")
        return vec_horner(self._n, lam0, Fraction(0)) / (self._q * dv)

    def __str__(self) -> str:
        num = format_terms([str(c) for c in self.num], "L")
        if self._d == (1,):
            return num
        return f"({num})/({format_terms([str(c) for c in self.den], 'L')})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


@lru_cache(maxsize=1024)
def _lcm_cofactors(den, d):
    """(l, m, md) with l = lcm(den, d) = den * m = d * md, for primitive
    integer polynomials (tuples) with positive leads: exact division both
    ways (``_zquo``) first, ``_zgcd`` only when neither divides the other.
    The lcm step of ``_common_form``, its only caller.
    Memoised: the Q(L) routes meet few distinct pairs (74 in 1 870 calls
    over the 60 operations ``sheffer_q_lambda`` draws from, after
    ``_common_form`` skips the 4 730 of its 6 600 entries whose d is the
    running lcm already)."""
    if d == den:
        return den, _Z_ONE, _Z_ONE
    if d == _Z_ONE:
        return den, _Z_ONE, den
    if den == _Z_ONE:
        return d, d, _Z_ONE
    md = _zquo(den, d)
    if md is not None:
        return den, _Z_ONE, md
    m = _zquo(d, den)
    if m is not None:
        return d, m, _Z_ONE
    h = _zgcd(den, d)
    m = _zquo(d, h)
    return _zmul(den, m), m, _zquo(den, h)


def _lowest_terms(num, den):
    """num and den with their gcd divided out, for a nonzero integer
    polynomial num and den primitive with positive lead, as RatFunc's
    canonical form holds it (so num keeps its content).

    A den that is a power P^e of a linear P = aL + b (``_linear_power``)
    takes an exact path with no Euclid.  P is primitive of degree 1, so it
    is irreducible in Z[L], and gcd(num, P^e) = P^v with v the smaller of e
    and the order of num's root -b/a.  Each P that divides num is found by
    ``_vanishes_at``, one integer evaluation, and divided out by ``_zquo``;
    what is left of den is P^(e - v).  Any other den goes through
    ``_zgcd``."""
    if len(num) > 1 and len(den) > 1 and (power := _linear_power(den)):
        b, a, e = power
        v = 0
        while v < e and _vanishes_at(num, b, a):
            num = _zquo(num, (b, a))
            v += 1
        return num, (_zlinear_pow(b, a, e - v) if v else den)
    h = _zgcd(num, den)
    if len(h) > 1:
        return _zquo(num, h), _zquo(den, h)
    return num, den


@lru_cache(maxsize=1024)
def _linear_power(den):
    """(b, a, e) when the primitive den (positive lead, degree e >= 1) is
    (aL + b)^e with a > 0 and gcd(a, b) = 1; else None.

    The two leading coefficients of (aL + b)^e are a^e and e a^(e-1) b, so
    (b, a) is the primitive part of (den[-2], e den[-1]); the binomial
    expansion then checks den exactly.  Memoised: a pass meets few distinct
    denominators."""
    e = len(den) - 1
    s, t = den[-2], e * den[-1]
    g = _int_gcd(s, t)
    b, a = s // g, t // g
    return (b, a, e) if _zlinear_pow(b, a, e) == den else None


def _zlinear_pow(b, a, e):
    """(aL + b)^e as an integer polynomial, ascending powers."""
    return tuple(comb(e, i) * a**i * b ** (e - i) for i in range(e + 1))


def _vanishes_at(num, b, a) -> bool:
    """True when num(-b/a) = 0, that is when aL + b divides the integer
    polynomial num (a > 0, gcd(a, b) = 1): the cleared value
    a^deg num(-b/a) = sum c_i (-b)^i a^(deg - i), by Horner's rule.  For
    L - 1 it is the sum of the coefficients."""
    acc, ap = 0, 1
    for c in reversed(num):
        acc = acc * -b + c * ap
        ap *= a
    return not acc


def _as_entry(v):
    """(N, q, D) of RatFunc's form, but N and q not yet coprime, from a
    RatFunc, an exact rational, or a tuple or list of exact rationals
    (ascending powers); a float or a bool is a DomainError
    (``errors.rational``)."""
    if isinstance(v, RatFunc):
        return v._n, v._q, v._d
    q, ints = _common_den(vec_trim([
        c if type(c) in (int, Fraction) else rational("coefficient", c)
        for c in (v if isinstance(v, (tuple, list)) else (v,))]))
    return tuple(ints), q, _Z_ONE


def _coerce(v):
    if isinstance(v, RatFunc):
        return v
    if isinstance(v, (int, Fraction)):
        return RatFunc.from_rat(v)
    return NotImplemented


_Z_ONE = (1,)
_RF_ZERO = RatFunc._raw((), 1, _Z_ONE)
_RF_ONE = RatFunc._raw(_Z_ONE, 1, _Z_ONE)

LAMBDA = RatFunc._raw((0, 1), 1, _Z_ONE)


# ---------------------------------------------------------------------------
# common-denominator layout of a Q or Q(L) vector, numerators packed by
# Kronecker substitution
# ---------------------------------------------------------------------------


def _slot_width(bound: int) -> int:
    """Bits per packed slot that hold every integer of absolute value at
    most ``bound``, of either sign: |c| <= bound < 2^(s - 1), and s >= 2,
    since the balanced digits at width 1 are only -1 and 0."""
    return max(bound.bit_length() + 1, 2)


def _pack(t, s: int) -> int:
    """The integer polynomial ``t`` evaluated at 2^s."""
    v = 0
    for c in reversed(t):
        v = (v << s) + c
    return v


def _unpack(v: int, s: int) -> tuple:
    """The integer polynomial t with _pack(t, s) == v whose coefficients lie
    in [-2^(s-1), 2^(s-1)); no trailing zeros."""
    out = []
    half, mask = 1 << (s - 1), (1 << s) - 1
    while v:
        c = v & mask
        if c >= half:
            c -= mask + 1
        out.append(c)
        v = (v - c) >> s
    return tuple(out)


class _Layout:
    """A vector over Q or Q(L) as entries num[i] / (q * den).

    q is a positive integer, den an integer polynomial (primitive, positive
    lead) and num[i] an integer polynomial.  ``_lay_out`` also records, for
    each entry i, the lcm dens[i] of the denominators of the entries up to
    i and cofactors[i] = den / dens[i], which divides the numerators of all
    those entries.  ``height`` bounds the numerators' coefficients and
    ``length`` their lengths; ``packed(s)`` is num at 2^s."""

    __slots__ = ("num", "q", "den", "dens", "cofactors", "height", "length")

    def __init__(self, num, q, den, dens, cofactors):
        self.num, self.q, self.den, self.dens, self.cofactors = num, q, den, dens, cofactors
        self.height = max(map(abs, chain.from_iterable(num)), default=0)
        self.length = max(map(len, num), default=0)

    def packed(self, s: int) -> list:
        """[num[i] at 2^s for every i], packed afresh at each call."""
        return [_pack(t, s) for t in self.num]


def _lay_out(c, w=None) -> _Layout:
    """The layout of the entries w[i] * c[i] (w integer weights, all 1 when
    None; int and Fraction entries are constants).  Each entry is read
    inline as its (N, q, D), which ``_common_form`` lays out: the Sheffer
    routes lay out every pair, and a helper call per entry timed the 60
    operations ``sheffer_q_lambda`` draws from about 7% slower."""
    return _Layout(*_common_form([(x._n, x._q, x._d) if isinstance(x, RatFunc)
                                  else ((x.numerator,) if x else (), x.denominator, _Z_ONE)
                                  for x in c], w))


def _common_form(parts, w=None) -> tuple:
    """(num, q, den, dens, cofactors) of ``_Layout`` for the entries
    w[i] * N / (q' * D) over the (N, q', D) of ``parts`` (w integer weights,
    all 1 when None; D primitive with positive lead).  This is the one
    running lcm of Q(L) denominators: q is the lcm of the q's, and den the
    lcm of the D's, one ``_lcm_cofactors`` step per entry whose D is not
    the lcm so far."""
    q = lcm(*[qi for _, qi, _ in parts])
    ks = [q // qi for _, qi, _ in parts]
    if w is not None:
        ks = [k * x for k, x in zip(ks, w)]
    den, dens, steps, own = _Z_ONE, [_Z_ONE] * len(parts), [_Z_ONE] * len(parts), [()] * len(parts)
    # a unit cofactor, as most are, skips its product
    for i, (n, _, d) in enumerate(parts):
        md = _Z_ONE
        if d != den:  # most entries are over the running lcm already
            den, steps[i], md = _lcm_cofactors(den, d)
        dens[i], own[i] = den, n if md == _Z_ONE else _zmul(n, md)
    # entry i is own[i] / dens[i]; the lcm steps after it bring it onto den
    num, cofactors, cof = [()] * len(parts), [_Z_ONE] * len(parts), _Z_ONE
    for i in range(len(parts) - 1, -1, -1):
        cofactors[i] = cof
        if own[i]:
            t = own[i] if cof == _Z_ONE else _zmul(own[i], cof)
            num[i] = tuple([ks[i] * a for a in t])
        if steps[i] != _Z_ONE:
            cof = _zmul(cof, steps[i])
    return num, q, den, dens, cofactors


def _sum(parts, w=None) -> RatFunc:
    """sum w[i] * N / (q * D) over the (N, q, D) of ``parts``, as
    ``_common_form`` takes them: the numerators over the common denominator
    are added, and one ``_element`` normalises the sum."""
    num, q, den, _, _ = _common_form(parts, w)
    return _element(QL, vec_trim([sum(c) for c in zip_longest(*num, fillvalue=0)]), q, den)


def _dot_bound(a: _Layout, b: _Layout) -> int:
    """A bound on the coefficients of sum_i a.num[i] * b.num[i + j], any j."""
    return a.height * b.height * min(len(a.num), len(b.num)) * min(a.length, b.length)


def _prefix_sums(a, cols, dens, field, layout: _Layout | None = None) -> list:
    """[sum_k a[k] * c[k] / e for c, e in zip(cols, dens)] over ``field``:
    column c pairs with the first len(c) >= 1 entries of a, and e is a
    positive integer.  The entries of one column are all ints (a power
    table over Q) or all RatFuncs (a table over Q(L)).  ``layout`` is
    ``_lay_out(a)`` when the caller has it already, as a Sheffer route has
    from the proof of its 1/g, and is laid out here otherwise.

    RatFunc columns take one ``vec_dot`` each, divided by e.  Integer
    columns are packed sums over the prefix layout of a: the numerators A_k
    of a[0 .. len(c) - 1] are divisible by cofactors[len(c) - 1], so the
    packed sum_k c[k] A_k is divided by the packed cofactor exactly, as one
    integer, packed once for all the columns of one length, which leaves
    the denominator q * e * dens[len(c) - 1], and ``_element`` makes the
    canonical form.  A coefficient of the sum is at
    most height(a) * sum_k |c[k]|.  The quotient unpacks exactly: a factor Q
    of an integer polynomial P with d + 1 coefficients has
    |Q_i| <= C(d, d // 2) ||P||_2 (Mignotte 1974), so the slot holds that
    bound too whenever a cofactor is not 1."""
    if cols and isinstance(cols[0][0], RatFunc):
        sums = [vec_dot(a, c, field.zero) for c in cols]
        return [v if e == 1 else v / e for v, e in zip(sums, dens)]
    al = _lay_out(a) if layout is None else layout
    # the prefix lengths whose cofactor is not 1, each packed once below
    lengths = {k for k in map(len, cols) if al.cofactors[k - 1] != _Z_ONE}
    bound = al.height * max(sum(map(abs, c)) for c in cols) if cols else 0
    if lengths:
        d = max(al.length - 1, 0)
        bound *= comb(d, d // 2) * (isqrt(d) + 1)
    s = _slot_width(bound)
    A = al.packed(s)
    cofactors = {k: _pack(al.cofactors[k - 1], s) for k in lengths}
    out = []
    for c, e in zip(cols, dens):
        v = sum(map(mul, c, A))
        if v and len(c) in cofactors:
            v //= cofactors[len(c)]
        out.append(_element(field, _unpack(v, s), al.q * e, al.dens[len(c) - 1]))
    return out


def _element(field, num, q: int, den):
    """num / (q * den) in ``field``'s canonical form, for an integer
    polynomial num (over Q, a constant), q >= 1 and den primitive with
    positive lead (over Q, (1,)).  The one normaliser of a Q(L) value:
    ``_lowest_terms`` divides out gcd(num, den), and gcd(q, content num) is
    divided out of q and num."""
    if not num:
        return field.zero
    if field is QQ:
        return Fraction(num[0], q)
    # a den (1,), as for 4 872 of the 8 052 Q(L) elements made over the
    # sheffer_q_lambda universe, is prime to every num
    if len(den) > 1:
        num, den = _lowest_terms(num, den)
    g = _int_gcd(q, *num)
    if g != 1:
        num, q = tuple([c // g for c in num]), q // g
    return RatFunc._raw(num, q, den)


# ---------------------------------------------------------------------------
# field objects
# ---------------------------------------------------------------------------


class _Field:
    """What Q and Q(L) share: an element's text is its ``str``, and the
    repr, a pickle and a copy of a field object are the module's one object
    by the name ``_name``."""

    def to_str(self, v) -> str:
        return str(v)

    def __repr__(self):
        return self._name

    def __reduce__(self):
        return self._name


class RationalField(_Field):
    """Q with Fraction elements."""

    name = "Q"
    _name = "QQ"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, (int, float)):
            return rational("coefficient", v)
        if isinstance(v, RatFunc) and v.is_constant():
            return v.as_rat()
        raise DomainError(f"cannot coerce {v!r} into Q")


class LambdaField(_Field):
    """Q(L) with RatFunc elements."""

    name = "Q(L)"
    _name = "QL"
    zero = _RF_ZERO
    one = _RF_ONE

    def coerce(self, v):
        if isinstance(v, RatFunc):
            return v
        if isinstance(v, (int, float, Fraction)):
            return RatFunc.from_rat(rational("coefficient", v))
        raise DomainError(f"cannot coerce {v!r} into Q(L)")


QQ = RationalField()
QL = LambdaField()


def common_field(a, b):
    """The field of a binary operation on a series or polynomial over ``a``
    and one over ``b``: Q is a subfield of Q(L), so Q(L) unless both are Q."""
    return a if a is b else QL
