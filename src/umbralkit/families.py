"""Named polynomial and number families, plus the Sheffer pairs they
belong to.

The Stirling numbers are integer definitions, one integer table per kind:
``stirling1(n, k)`` is a coefficient of the integer row of (x)_n
(``series._falling_rows``, one product by a linear factor per row), the
row ``falling_factorial`` also returns, and ``stirling2(n, k)`` is
k! S2(n, k) / k! from the surjection row of n (``_surjections``), the rows
every Frobenius g is built from.  The polynomial families are still
read off their generating functions as truncated series: an Appell family
from the coefficients of factor(t) e^{xt}, and ``narumi_poly`` and the
Poisson-Charlier polynomials as sums sum_m c_m (x)_m over the falling
rows (``_falling_sum``).  A value is one dot of a base series against
e^{xt} or (1+t)^x, with no product formed: ``bernoulli_value`` is n! times
the dot of (t/(e^t-1))^a with the reversed e^{xt} and ``bernoulli_number``
its value at 0, and ``narumi_value`` is n! times the dot of
(log(1+t)/t)^a with the reversed (1+t)^x, read by ``narumi_number`` at 0
and by ``bernoulli_2nd`` (Narumi's order -1).

Each generating series is built in one place and read under every name it
has (Roman, *The Umbral Calculus*, 1984).  The Euler polynomials of order a
are the Frobenius-Euler polynomials at lam = -1, E_n^(a)(x) = H_n^(a)(x|-1),
so ``euler_poly`` and the Euler and T4 pairs read ``_frobenius_g`` at
lam = -1.  t/log(1+t) is Narumi's base at order -1, ``_narumi_base(-1,
T)``: the second-kind Bernoulli values, the T4 and P8 pairs and the
identities' b2 convolution read it there.

The bases, the Frobenius g and both Stirling tables are kept by the one
rule of ``series._kept``: per key without T, the table at the longest T
asked for, read as its first T entries, at most 256 keys per builder.  A
new truncation of a kept key makes no entry, so the number of entries is
the number of orders and parameters asked for.

The family functions (``bernoulli_poly`` .. ``bernoulli_2nd``) are
deliberately independent of the umbral operator engine, so the identity
registry can use them as one side of a genuine cross-check.
``family_polys`` is not: it tabulates any registry name through
``sheffer_gf`` over the name's pair.

This module holds the half of the registry that builds pairs: the
parameter table ``SCHEMAS`` maps every registry name to its parameters
and, where it has one, its pair builder, and ``build_pair`` is the one
place a pair is built from a name; ``catalog_pair``, ``bespoke_pair`` and
``family_polys`` call it.  The checks and their descriptions live in the
identities module, which imports this one.

Frobenius-parameter conventions: ``lam=None`` means the symbolic
indeterminate (computation over Q(L)); a Fraction value specializes to Q.
``lam = 1`` is a pole of every Frobenius denominator and is rejected.

lambda enters every Frobenius pair through g, and g has an exact Stirling
expansion (Roman, *The Umbral Calculus*, 1984):
((e^t - lam)/(1 - lam))^a = sum_k C(a, k) (e^t - 1)^k (1 - lam)^(-k), so
its coefficient g_m = (1/m!) sum_{k <= m} (a)_k S2(m, k) (1 - lam)^(-k),
the sum stopping at k = a when a >= 0; the Frobenius type
((e^{(lam-1)t} - lam)/(1 - lam))^a is the same series at (lam - 1)t, with
coefficient (lam - 1)^m g_m, a polynomial in lam.  ``_frobenius_g``
evaluates that sum, of either type, over the integer rows k! S2(m, k)
with integer arithmetic and makes one canonical element per coefficient:
no series product, inverse or power.  1/g is the same sum at order -a, so
every pair with a Frobenius g carries its reciprocal ``ginv`` from the same
builder (``_frobenius_pair``), and the Sheffer routes take it for 1/g once
g * ginv = 1 is proven (``umbral._proven_ginv``, run once per pair and
answer truncation by ``umbral._prepare``) instead of running a Q(L)
inverse.  ``stirling2`` reads the same rows,
but pair building never calls ``stirling2``, and the identities module
reads it through its module attribute: a wrong row is seen twice, by the
Stirling-2 sums of the checks' scalar halves and by g in their basis
halves.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import count
from math import comb, factorial

from .errors import (
    MAX_PAIR_TRUNC, DivisionByZero, DomainError, integer_order, lambda_value, nonnegative_integer,
    nonzero_rational, rational,
)
from .fields import (
    LAMBDA, QL, QQ, RatFunc, _element, _slot_width, _unpack, _zlinear_pow, vec_dot,
)
from .record import Record
from .series import (
    Poly,
    Series,
    _falling_rows,
    _kept,
    _running_products,
    exp_ct,
    log1p_series,
    one_plus_t_pow,
    t_series,
)
from .umbral import ShefferPair, answer_trunc, sheffer_gf

__all__ = [
    "FamilySpec",
    "bernoulli_2nd",
    "bernoulli_number",
    "bernoulli_poly",
    "bernoulli_value",
    "bespoke_pair",
    "binom",
    "catalog_pair",
    "euler_poly",
    "family_polys",
    "frobenius_euler_poly",
    "frobenius_eulerian_poly",
    "gen_binom",
    "narumi_number",
    "narumi_poly",
    "narumi_value",
    "poisson_charlier",
    "stirling1",
    "stirling2",
]


def binom(n: int, k: int) -> int:
    """C(n, k) for ints n <= MAX_PAIR_TRUNC and k, and 0 unless 0 <= k <= n."""
    n, k = integer_order("n", n), integer_order("k", k)
    if n > MAX_PAIR_TRUNC:
        raise DomainError(f"n must be <= {MAX_PAIR_TRUNC}, got {n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def gen_binom(c, m: int):
    """Generalized binomial coefficient C(c, m) = c(c-1)...(c-m+1)/m!: with
    c = p/q, the one Fraction p (p - q) .. (p - (m-1) q) / (q^m m!) of the
    running integer products of ``one_plus_t_pow`` over Q
    (``series._running_products``)."""
    c, m = rational("c", c), nonnegative_integer("m", m)
    for n, d in _running_products(count(c.numerator, -c.denominator), c.denominator, m + 1):
        pass
    return Fraction(n, d)


def _lam_element(lam):
    """The indeterminate L for symbolic lambda (None), else the rational."""
    lam = lambda_value("lam", lam)
    return LAMBDA if lam is None else lam


# ---------------------------------------------------------------------------
# generating-series building blocks, each kept at the longest T asked for
# (``series._kept``; Series and tuples are immutable)
# ---------------------------------------------------------------------------


@_kept
def _bern_base(a: int, T: int) -> Series:
    """((e^t - 1)/t)^a over Q."""
    base = (exp_ct(QQ, 1, T + 1) - 1).shift_div(1)
    return base.pow_int(a).truncate(T)


@_kept
def _surjections(T: int) -> tuple:
    """The integer rows k! S2(m, k), k = 0 .. m, for m < T: the number of
    maps from an m-set onto a k-set, by the recurrence
    k! S2(m, k) = k ((k-1)! S2(m-1, k-1) + k! S2(m-1, k)).  One kept table,
    read by ``_frobenius_g`` and ``stirling2``."""
    rows = [(1,)]
    for m in range(1, T):
        prev = rows[-1] + (0,)
        rows.append((0,) + tuple(k * (prev[k - 1] + prev[k]) for k in range(1, m + 1)))
    return tuple(rows)


@_kept
def _frobenius_g(a: int, lam, rate: bool, T: int) -> Series:
    """The Frobenius-Euler g, G(t) = ((e^t - lam)/(1 - lam))^a, or, when
    ``rate``, the Frobenius-type Eulerian g G((lam - 1)t), mod t^T over Q(L)
    (lam None) or Q, one canonical element per coefficient; the one builder
    of both, kept per (a, lam, rate) at the longest T.  Coefficient m reads
    only row m and C(a, k) for k <= min(m, a) (k <= m for a < 0), so it
    does not depend on T.

    With u = lam - 1 and e^t - lam = -u (1 - (e^t - 1)/u), the binomial
    series gives g_m = (1/m!) sum_{k <= K} c_k u^(-k), where
    c_k = (-1)^k C(a, k) k! S2(m, k) is an integer and K = min(m, a) for
    a >= 0 (C(a, k) = 0 above a), else m; G((lam - 1)t) has u^m g_m.  For
    u = p/q the homogeneous sum H = sum_k c_k q^k p^(K - k) is one integer
    Horner loop, and g_m = H / (m! p^K), u^m g_m = H p^(m - K) / (m! q^m).
    Over Q(L) (lam None) the same loop runs at p = 2^s - 1, q = 1, the value
    of L - 1 at L = 2^s: the balanced base-2^s digits of the result are the
    integer coefficients in L (``fields._unpack``), for s above every
    coefficient's size, at most sum_k |c_k| 2^(m - k).  That numerator is
    put over m! (L - 1)^K (or m!) and normalised once (``fields._element``).
    No Q(L) product, inverse or power is taken."""
    lam = lambda_value("lam", lam)
    K = T - 1 if a < 0 else min(a, T - 1)
    signed_binoms = [1]  # (-1)^k C(a, k)
    for k in range(1, K + 1):
        signed_binoms.append(-signed_binoms[-1] * (a - k + 1) // k)
    if lam is not None:
        p, q = (lam - 1).numerator, (lam - 1).denominator
    coeffs, fact = [], 1
    for m, row in enumerate(_surjections(T)):
        km, fact = min(m, K), fact * max(m, 1)
        c = [b * r for b, r in zip(signed_binoms, row)]
        if lam is None:
            s = _slot_width(sum(abs(v) << (m - k) for k, v in enumerate(c)))
            p, q = (1 << s) - 1, 1
        h, qk = 0, 1
        for v in c:
            h, qk = h * p + v * qk, qk * q
        if rate:
            h *= p ** (m - km)
        if lam is None:
            den = (1,) if rate else _zlinear_pow(-1, 1, km)
            coeffs.append(_element(QL, _unpack(h, s), fact, den))
        else:
            coeffs.append(Fraction(h, fact * (q**m if rate else p**km)))
    return Series(QL if lam is None else QQ, coeffs)


@_kept
def _narumi_base(a: int, T: int) -> Series:
    """(log(1+t)/t)^a over Q."""
    base = log1p_series(QQ, T + 1).shift_div(1)
    return base.pow_int(a).truncate(T)


# ---------------------------------------------------------------------------
# extraction helpers
# ---------------------------------------------------------------------------


def _appell_poly(factor: Series, n: int) -> Poly:
    """P_n(x) = n! sum_j factor[n-j] x^j / j! for GF factor(t) e^{xt}."""
    nfact = factorial(n)
    return Poly(factor.field,
                [factor.coeffs[n - j] * (nfact // factorial(j)) for j in range(n + 1)])


def _falling_sum(c) -> Poly:
    """sum_m c[m] (x)_m over Q: the x^k coefficient is one dot product of
    c[k:] with the x^k coefficients of the falling-factorial rows."""
    rows = _falling_rows(len(c))
    return Poly(QQ, [vec_dot(c[k:], [r[k] for r in rows[k:]]) for k in range(len(c))])


# ---------------------------------------------------------------------------
# the families
# ---------------------------------------------------------------------------


def bernoulli_poly(a: int, n: int) -> Poly:
    """Bernoulli polynomial of (any integer) order a, degree n, over Q."""
    n = nonnegative_integer("n_max", n)
    return _appell_poly(_bern_base(-integer_order("a", a), n + 1), n)


def bernoulli_value(a: int, n: int, at) -> Fraction:
    """B_n^(a)(at) = n! [t^n] (t/(e^t-1))^a e^{at t} at a rational point:
    one dot of the base with the reversed e^{at t}."""
    n = nonnegative_integer("n_max", n)
    base = _bern_base(-integer_order("a", a), n + 1)
    exps = exp_ct(QQ, rational("at", at), n + 1)
    return factorial(n) * vec_dot(base.coeffs, exps.coeffs[::-1])


def bernoulli_number(a: int, n: int) -> Fraction:
    """B_n^(a) = B_n^(a)(0) = n! [t^n] (t/(e^t-1))^a."""
    return bernoulli_value(a, n, 0)


def euler_poly(alpha: int, n: int) -> Poly:
    """Euler polynomial of order alpha, degree n, over Q."""
    n = nonnegative_integer("n_max", n)
    return _appell_poly(_frobenius_g(-integer_order("alpha", alpha), Fraction(-1), False, n + 1), n)


def frobenius_euler_poly(a: int, n: int, lam=None) -> Poly:
    """Frobenius-Euler H_n^(a)(x|lam); symbolic over Q(L) when lam is None."""
    n = nonnegative_integer("n_max", n)
    lam = lambda_value("lam", lam)
    return _appell_poly(_frobenius_g(-integer_order("a", a), lam, False, n + 1), n)


def frobenius_eulerian_poly(a: int, n: int, lam=None) -> Poly:
    """Frobenius-type Eulerian A_n^(a)(x|lam)."""
    n = nonnegative_integer("n_max", n)
    lam = lambda_value("lam", lam)
    return _appell_poly(_frobenius_g(-integer_order("a", a), lam, True, n + 1), n)


def narumi_poly(a: int, n: int) -> Poly:
    """Narumi polynomial N_n^(a)(x) over Q, from the generating function
    (log(1+t)/t)^a (1+t)^x = sum_n N_n^(a)(x) t^n / n!: with (1+t)^x =
    sum_m (x)_m t^m / m!, N_n^(a)(x) = sum_m n!/m! [t^(n-m)] (log(1+t)/t)^a (x)_m."""
    n = nonnegative_integer("n_max", n)
    base = _narumi_base(integer_order("a", a), n + 1).coeffs
    nfact = factorial(n)
    return _falling_sum([base[n - m] * (nfact // factorial(m)) for m in range(n + 1)])


def narumi_value(a: int, n: int, shift=0):
    """N_n^(a)(shift) = n! [t^n] (log(1+t)/t)^a (1+t)^shift: one dot of the
    base with the reversed (1+t)^shift.

    ``shift`` may be any field element; rational shifts stay in Q, and a
    shift in L makes the dot one over Q(L).
    """
    T = nonnegative_integer("n_max", n) + 1
    base = _narumi_base(integer_order("a", a), T)
    if not isinstance(shift, RatFunc) or shift.is_constant():
        shift = rational("shift", shift.as_rat() if isinstance(shift, RatFunc) else shift)
    binoms = one_plus_t_pow(QQ, shift, T)
    return factorial(n) * vec_dot(base.coeffs, binoms.coeffs[::-1], binoms.field.zero)


def narumi_number(a: int, n: int) -> Fraction:
    return narumi_value(a, n, 0)


def stirling2(n: int, k: int) -> Fraction:
    """Stirling numbers of the second kind: k! S2(n, k) from the surjection
    row of n (``_surjections``), over k!."""
    n = nonnegative_integer("n_max", n)
    if not 0 <= integer_order("k", k) <= n:
        return Fraction(0)
    return Fraction(_surjections(n + 1)[n][k], factorial(k))


def stirling1(n: int, k: int) -> Fraction:
    """Signed Stirling numbers of the first kind: [x^k] (x)_n."""
    n = nonnegative_integer("n_max", n)
    if not 0 <= integer_order("k", k) <= n:
        return Fraction(0)
    return Fraction(_falling_rows(n + 1)[n][k])


def poisson_charlier(n: int, a, x_eval=None):
    """C_n(x; a) = sum_k C(n,k) (-1)^(n-k) a^(-k) (x)_k; a != 0.

    Returns the polynomial, or its value when ``x_eval`` is given.
    """
    n, a = nonnegative_integer("n_max", n), rational("a", a)
    if not a:
        raise DivisionByZero("Poisson-Charlier parameter a must be nonzero")
    if x_eval is None:
        return _falling_sum([comb(n, k) * (-1) ** (n - k) * a ** (-k) for k in range(n + 1)])
    # the same sum at x as one integer sum: with a = p/q and x = u/v, term k
    # is C(n, k) (-1)^(n-k) q^k prod_{j<k} (u - jv) / (pv)^k, so the terms
    # up to K, in Horner form, are one integer over (pv)^K.  When x is a
    # nonnegative integer below n the product is 0 for every k > x, and K
    # stops at x
    x = rational("x_eval", x_eval)
    pv, q, u, v = a.numerator * x.denominator, a.denominator, x.numerator, x.denominator
    total, prod, K = 0, 1, -1  # prod = q^k prod_{j<k} (u - jv)
    while prod and K < n:
        K += 1
        total = total * pv + comb(n, K) * (-1) ** (n - K) * prod
        prod *= q * (u - K * v)
    return Fraction(total, pv**K)


def bernoulli_2nd(n: int, x_shift=0) -> Fraction:
    """Bernoulli polynomial of the second kind value b_n(x_shift): its
    generating function t/log(1+t) (1+t)^x is Narumi's of order -1."""
    return narumi_value(-1, nonnegative_integer("n_max", n), rational("x_shift", x_shift))


# ---------------------------------------------------------------------------
# Sheffer pairs
# ---------------------------------------------------------------------------
#
# One function per pair, keyed to a name by the parameter table below.  It
# takes the working truncation and the validated parameters and returns
# (g, f), each truncated at or above it, and a Frobenius g's pair also its
# reciprocal, (g, f, 1/g) (``_frobenius_pair``).  Only g carries lambda: f
# is built over Q, and the pair keeps it there.


def _frobenius_pair(a, lam, T, rate, f):
    """(g, f, 1/g) for the Frobenius g of order a (``_frobenius_g``): 1/g
    is the same sum at order -a, which is still proven before a route reads
    it (``umbral._proven_ginv``, once per pair and answer truncation)."""
    return _frobenius_g(a, lam, rate, T), f, _frobenius_g(-a, lam, rate, T)


def _bernoulli_pair(T, a):
    return _bern_base(a, T), t_series(QQ, T)


def _euler_pair(T, a):
    return _frobenius_pair(a, Fraction(-1), T, False, t_series(QQ, T))


def _frobenius_euler_pair(T, a, lam):
    return _frobenius_pair(a, lam, T, False, t_series(QQ, T))


def _frobenius_eulerian_pair(T, a, lam):
    return _frobenius_pair(a, lam, T, True, t_series(QQ, T))


def _narumi_pair(T, a):
    return _bern_base(a, T), exp_ct(QQ, 1, T) - 1


def _bernoulli_2nd_pair(T):
    return _narumi_pair(T, -1)


def _daehee_pair(T, lam):
    """((1-L)/(e^t-L), (e^t-1)/(e^t+1)): the Daehee family and the DAE identity."""
    e = exp_ct(QQ, 1, T)
    return _frobenius_pair(-1, lam, T, False, (e - 1) / (e + 1))


def _poisson_charlier_pair(T, a):
    de = (exp_ct(QQ, 1, T) - 1) * a
    return de.exp(), de


def _t2_pair(T, a, b, lam):
    f = (exp_ct(QQ, b, T) - 1).shift_div(1).inverse().mul_t(1)
    return _frobenius_pair(a, lam, T, False, f)


def _t3_pair(T, a, b, c):
    f = (exp_ct(QQ, c, T) - 1).shift_div(1).inverse() * exp_ct(QQ, b, T - 1)
    return _bern_base(a, T), f.mul_t(1)


def _t4_pair(T, a):
    return _frobenius_pair(a, Fraction(-1), T, False, _narumi_base(-1, T - 1).mul_t(1))


def _r27_pair(T, a):
    return _bern_base(a, T), log1p_series(QQ, T)


def _t6_pair(T, a, c, lam):
    return _frobenius_pair(a, lam, T, False, log1p_series(QQ, T) * one_plus_t_pow(QQ, -c, T))


def _p8_pair(T, a, c, lam):
    f = _narumi_base(-1, T - 1) * one_plus_t_pow(QQ, c, T - 1)
    return _frobenius_pair(a, lam, T, True, f.mul_t(1))


def _t10_pair(T, a, b, c, lam, m):
    lin = Series(QQ, [1, b], trunc=T)
    return _frobenius_pair(a, lam, T, True, (exp_ct(QQ, -c, T) * lin.pow_int(-m)).mul_t(1))


# ---------------------------------------------------------------------------
# the parameter table
# ---------------------------------------------------------------------------


class Param(Record):
    """One parameter: its name, its domain, and the value taken when it is
    not given (None: it must be given, except lambda, where None is the
    symbol L)."""

    name: str
    domain: object
    default: object = None


class Schema(Record):
    """One row of the parameter table: the parameters of a registry name
    and, where it has one, its pair builder ``pair(T, **params)``."""

    params: tuple[Param, ...]
    pair: object = None


# the integer order a of g, and the Frobenius parameter lambda
ORDER = Param("a", integer_order, 1)
LAM = Param("lam", lambda_value)
_B, _C = Param("b", nonzero_rational, 1), Param("c", nonzero_rational, 1)

# Every registry name with its parameters and pair builder: the named
# families first, then the identity tags in registry order (the check-only
# tags with no pair).  A parameter not given takes its Param default, here
# and only here, for the family command and verify_identity alike.
SCHEMAS = {
    "bernoulli": Schema((ORDER,), _bernoulli_pair),
    "euler": Schema((ORDER,), _euler_pair),
    "frobenius_euler": Schema((ORDER, LAM), _frobenius_euler_pair),
    "frobenius_eulerian": Schema((ORDER, LAM), _frobenius_eulerian_pair),
    "narumi": Schema((ORDER,), _narumi_pair),
    "daehee": Schema((LAM,), _daehee_pair),
    "poisson_charlier": Schema((Param("a", nonzero_rational, 1),), _poisson_charlier_pair),
    "bernoulli_2nd": Schema((), _bernoulli_2nd_pair),
    "T2": Schema((ORDER, _B, LAM), _t2_pair),
    "T3": Schema((ORDER, Param("b", rational, 0), _C), _t3_pair),
    "T4": Schema((ORDER,), _t4_pair),
    "C5": Schema(()),
    "R27": Schema((ORDER,), _r27_pair),
    "T6": Schema((ORDER, _C, LAM), _t6_pair),
    "T7": Schema((_C,)),
    "R35": Schema((_C,)),
    "P8": Schema((ORDER, _C, LAM), _p8_pair),
    "T9": Schema((_C,)),
    "R42": Schema(()),
    "T10": Schema((ORDER, _B, _C, LAM, Param("m", nonnegative_integer)), _t10_pair),
    "DAE": Schema((LAM,), _daehee_pair),
    "E14": Schema((Param("a", nonzero_rational, 1),)),
    "E25": Schema(()),
}


def check_params(name: str, params: dict) -> dict:
    """The parameters of a registry name in canonical form, schema order.
    A DomainError for a name not in ``SCHEMAS`` (a name that is not a str
    included) and for params that are not a mapping."""
    schema = SCHEMAS.get(name) if isinstance(name, str) else None
    if schema is None:
        raise DomainError(f"no registry name {name!r}")
    if not isinstance(params, Mapping):
        raise DomainError(f"{name}: params must be a mapping, got {type(params).__name__}")
    unknown = set(params) - {q.name for q in schema.params}
    if unknown:
        # names of any type in one order, str names in their own
        names = sorted(unknown, key=lambda k: (str(k), repr(k)))
        raise DomainError(f"{name} does not take parameter(s) {names}")
    out = {}
    for q in schema.params:
        v = q.default if params.get(q.name) is None else params[q.name]
        try:
            if v is None and q is not LAM:
                raise DomainError(f"{q.name} must be given")
            out[q.name] = q.domain(q.name, v)
        except DomainError as exc:
            raise type(exc)(f"{name}: {exc}") from None
    return out


def build_pair(name: str, T: int, order: int, params: dict) -> ShefferPair:
    """The Sheffer pair of a registry name truncated at T.  ``order`` fills
    the integer-order parameter ``a`` if the name takes one.  A DomainError
    for a T below 2 (f is known through t^1) or above ``MAX_PAIR_TRUNC``,
    before any coefficient is made, for an ``a`` in ``params`` that
    disagrees with ``order``, for an order other than 1 given to a name
    that takes none, and for a name in ``params`` that the name does not
    take (``check_params``).  A name that is not a str is an unknown
    name."""
    schema = SCHEMAS.get(name) if isinstance(name, str) else None
    if schema is None or schema.pair is None:
        raise DomainError(f"no Sheffer pair named {name!r}")
    nonnegative_integer("T", T, 2)
    if ORDER in schema.params:
        if params.get("a", order) != order:
            raise DomainError(f"{name}: a = {params['a']} disagrees with order {order}")
        params = {**params, "a": order}
    elif integer_order("order", order) != 1:
        raise DomainError(f"{name} takes no order, got {order}")
    # built with a margin so every member comes out truncated at exactly T
    members = schema.pair(T + 2, **check_params(name, params))
    return ShefferPair(*[s.truncate(T) for s in members])


class FamilySpec(Record):
    """A named family plus its order and parameters.

    ``params`` keys are the parameters of the name in ``SCHEMAS`` other
    than its order: ``lam`` (None for symbolic, a rational otherwise) for
    the Frobenius and Daehee families and the lambda tags, ``a`` for
    Poisson-Charlier, and ``b``, ``c`` and ``m`` for the tags that take them.
    """

    name: str
    order: int = 1
    params: tuple = ()

    @staticmethod
    def make(name: str, order: int = 1, **params) -> "FamilySpec":
        return FamilySpec(name, order, tuple(sorted(params.items())))


def catalog_pair(spec: FamilySpec, T: int) -> ShefferPair:
    """The classical (g, f) Sheffer pair of a named family (or of any
    registry name with a pair), with ``spec.order`` as its order a,
    truncated at T; parameters as in ``build_pair``.  A DomainError for a
    spec that is not a FamilySpec or whose params are not (name, value)
    pairs."""
    if not isinstance(spec, FamilySpec):
        raise DomainError(f"a FamilySpec is required, got {type(spec).__name__}")
    try:
        params = dict(spec.params)
    except (TypeError, ValueError):
        raise DomainError(f"{spec.name}: params must be (name, value) pairs, "
                          f"got {spec.params!r}") from None
    return build_pair(spec.name, T, spec.order, params)


def family_polys(name: str, order: int, n_max: int, **params) -> list:
    """P_0 .. P_{n_max} of a registry name with a pair, read off its
    generating function 1/g(fbar(t)) e^{x fbar(t)} by ``sheffer_gf``;
    ``params`` as in ``FamilySpec.make`` (``lam``, ``a``, ``b``, ``c``, ``m``)."""
    pair = catalog_pair(FamilySpec.make(name, order, **params), T=answer_trunc(n_max))
    return sheffer_gf(pair, n_max)


def bespoke_pair(tag: str, T: int, order: int = 1, **params) -> ShefferPair:
    """The parameterized pair of a registry tag (or of any registry name
    with a pair) truncated at T; a keyword the tag does not take is a
    DomainError, as in ``build_pair``."""
    return build_pair(tag, T, order, params)
