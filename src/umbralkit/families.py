"""Named polynomial families, defined by series extraction from their
generating functions, plus the Sheffer pairs they belong to.

The family functions (``bernoulli_poly`` .. ``bernoulli_2nd``) are
deliberately independent of the umbral operator engine: polynomials are
read off truncated series, so the identity registry can use them as one
side of a genuine cross-check.  ``family_polys`` is not: it tabulates any
registry name through ``sheffer_gf`` over the name's pair.

Frobenius-parameter conventions: ``lam=None`` means the symbolic
indeterminate (computation over Q(L)); a Fraction value specializes to Q.
``lam = 1`` is a pole of every Frobenius denominator and is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import DivisionByZero, DomainError, EvalPole
from .fields import QL, QQ, LAMBDA, RatFunc
from .series import (
    Poly,
    Series,
    exp_ct,
    falling_factorial,
    log1p_series,
    one_plus_t_pow,
    t_series,
    working_trunc,
)
from .umbral import ShefferPair, _check_n_max, answer_trunc, sheffer_gf


def binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def gen_binom(c, m: int):
    """Generalized binomial coefficient C(c, m) = c(c-1)...(c-m+1)/m!."""
    if m < 0:
        raise DomainError("generalized binomial needs m >= 0")
    acc = Fraction(1)
    for i in range(m):
        acc = acc * (c - i)
    return acc / factorial(m)


def multinomial(parts) -> int:
    """Multinomial coefficient (sum parts)! / prod parts_i!."""
    total = 0
    acc = 1
    for p in parts:
        total += p
        acc *= comb(total, p)
    return acc


# ---------------------------------------------------------------------------
# field / lambda plumbing
# ---------------------------------------------------------------------------


def _lam_field(lam):
    """(field, lambda element) for symbolic (None) or rational lambda."""
    if lam is None:
        return QL, LAMBDA
    lam = Fraction(lam)
    if lam == 1:
        raise EvalPole("lambda = 1 is excluded for Frobenius families")
    return QQ, lam


# ---------------------------------------------------------------------------
# generating-series building blocks (all cached; Series is immutable)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _bern_base(a: int, T: int) -> Series:
    """((e^t - 1)/t)^a over Q."""
    base = (exp_ct(QQ, 1, T + 1) - 1).shift_div(1)
    return base.pow_int(a).truncate(T)


@lru_cache(maxsize=None)
def _euler_base(alpha: int, T: int) -> Series:
    """((e^t + 1)/2)^alpha over Q."""
    base = (exp_ct(QQ, 1, T) + 1) * Fraction(1, 2)
    return base.pow_int(alpha)


@lru_cache(maxsize=None)
def _fe_g(a: int, lam, T: int) -> Series:
    """((e^t - lam)/(1 - lam))^a over Q(L) (lam None) or Q."""
    fld, lam_el = _lam_field(lam)
    base = (exp_ct(fld, 1, T) - lam_el) * (fld.one / (fld.one - lam_el))
    return base.pow_int(a)


@lru_cache(maxsize=None)
def _fte_g(a: int, lam, T: int) -> Series:
    """((e^{(lam-1)t} - lam)/(1 - lam))^a over Q(L) or Q."""
    fld, lam_el = _lam_field(lam)
    base = (exp_ct(fld, lam_el - fld.one, T) - lam_el) * (fld.one / (fld.one - lam_el))
    return base.pow_int(a)


@lru_cache(maxsize=None)
def _narumi_base(a: int, T: int) -> Series:
    """(log(1+t)/t)^a over Q."""
    base = log1p_series(QQ, T + 1).shift_div(1)
    return base.pow_int(a).truncate(T)


@lru_cache(maxsize=None)
def _bern2nd_base(T: int) -> Series:
    """t/log(1+t) over Q."""
    return log1p_series(QQ, T + 1).shift_div(1).inverse().truncate(T)


# ---------------------------------------------------------------------------
# extraction helpers
# ---------------------------------------------------------------------------


def _appell_poly(factor: Series, n: int) -> Poly:
    """P_n(x) = n! sum_j factor[n-j] x^j / j! for GF factor(t) e^{xt}."""
    fld = factor.field
    nfact = factorial(n)
    coeffs = [
        factor.coeffs[n - j] * fld.coerce(Fraction(nfact, factorial(j)))
        for j in range(n + 1)
    ]
    return Poly(fld, coeffs)


def _binomial_kernel_poly(factor: Series, n: int) -> Poly:
    """P_n(x) = n! sum_m factor[n-m] (x)_m / m! for GF factor(t) (1+t)^x."""
    fld = factor.field
    out = Poly(fld)
    nfact = factorial(n)
    for m in range(n + 1):
        c = factor.coeffs[n - m]
        if c:
            out = out + falling_factorial(fld, m) * (
                c * fld.coerce(Fraction(nfact, factorial(m)))
            )
    return out


# ---------------------------------------------------------------------------
# the families
# ---------------------------------------------------------------------------


def bernoulli_poly(a: int, n: int) -> Poly:
    """Bernoulli polynomial of (any integer) order a, degree n, over Q."""
    _check_n_max(n)
    T = n + 1
    return _appell_poly(_bern_base(-a, T), n)


def bernoulli_value(a: int, n: int, at) -> Fraction:
    """B_n^(a) evaluated at a rational point."""
    return bernoulli_poly(a, n).eval(Fraction(at))


def bernoulli_number(a: int, n: int) -> Fraction:
    """B_n^(a) = B_n^(a)(0) = n! [t^n] (t/(e^t-1))^a."""
    _check_n_max(n)
    return factorial(n) * _bern_base(-a, n + 1).coeffs[n]


def euler_poly(alpha: int, n: int) -> Poly:
    """Euler polynomial of order alpha, degree n, over Q."""
    _check_n_max(n)
    return _appell_poly(_euler_base(-alpha, n + 1), n)


def frobenius_euler_poly(a: int, n: int, lam=None) -> Poly:
    """Frobenius-Euler H_n^(a)(x|lam); symbolic over Q(L) when lam is None."""
    _check_n_max(n)
    return _appell_poly(_fe_g(-a, lam, n + 1), n)


def frobenius_eulerian_poly(a: int, n: int, lam=None) -> Poly:
    """Frobenius-type Eulerian A_n^(a)(x|lam)."""
    _check_n_max(n)
    return _appell_poly(_fte_g(-a, lam, n + 1), n)


def narumi_poly(a: int, n: int) -> Poly:
    """Narumi polynomial N_n^(a)(x) over Q (note the GF carries n!, not 1/n!...
    precisely: (log(1+t)/t)^a (1+t)^x = sum_n N_n^(a)(x) t^n / n!)."""
    _check_n_max(n)
    return _binomial_kernel_poly(_narumi_base(a, n + 1), n)


def narumi_value(a: int, n: int, shift=0):
    """N_n^(a)(shift) = n! [t^n] (log(1+t)/t)^a (1+t)^shift.

    ``shift`` may be any field element; rational shifts stay in Q.
    """
    _check_n_max(n)
    T = n + 1
    base = _narumi_base(a, T)
    if isinstance(shift, RatFunc) and not shift.is_constant():
        base = Series(QL, base.coeffs)
        kernel = one_plus_t_pow(QL, shift, T)
    else:
        shift = Fraction(shift) if not isinstance(shift, RatFunc) else shift.as_rat()
        if not shift:
            return factorial(n) * base.coeffs[n]
        kernel = one_plus_t_pow(QQ, shift, T)
    return factorial(n) * (base * kernel).coeffs[n]


def narumi_number(a: int, n: int) -> Fraction:
    return narumi_value(a, n, 0)


def stirling2(n: int, k: int) -> Fraction:
    """Stirling numbers of the second kind, from (e^t - 1)^k."""
    _check_n_max(n)
    if k < 0 or k > n:
        return Fraction(0)
    T = n + 1
    s = (exp_ct(QQ, 1, T) - 1).pow_int(k)
    return Fraction(factorial(n), factorial(k)) * s.coeffs[n]


def stirling1(n: int, k: int) -> Fraction:
    """Signed Stirling numbers of the first kind: [x^k] (x)_n."""
    _check_n_max(n)
    if k < 0 or k > n:
        return Fraction(0)
    return falling_factorial(QQ, n).coefficient(k)


def poisson_charlier(n: int, a, x_eval=None):
    """C_n(x; a) = sum_k C(n,k) (-1)^(n-k) a^(-k) (x)_k; a != 0.

    Returns the polynomial, or its value when ``x_eval`` is given.
    """
    _check_n_max(n)
    a = Fraction(a)
    if not a:
        raise DivisionByZero("Poisson-Charlier parameter a must be nonzero")
    if x_eval is not None:
        # the same sum at x, with (x)_k as a running product
        x = Fraction(x_eval)
        value = Fraction(0)
        falling = Fraction(1)
        for k in range(n + 1):
            value += binom(n, k) * (-1) ** (n - k) * a ** (-k) * falling
            falling *= x - k
        return value
    out = Poly(QQ)
    for k in range(n + 1):
        c = Fraction(binom(n, k)) * (-1) ** (n - k) * a ** (-k)
        out = out + falling_factorial(QQ, k) * c
    return out


def bernoulli_2nd(n: int, x_shift=0) -> Fraction:
    """Bernoulli polynomial of the second kind value b_n(x_shift)."""
    _check_n_max(n)
    T = n + 1
    base = _bern2nd_base(T)
    shift = Fraction(x_shift)
    if shift:
        base = base * one_plus_t_pow(QQ, shift, T)
    return factorial(n) * base.coeffs[n]


# ---------------------------------------------------------------------------
# Sheffer pairs
# ---------------------------------------------------------------------------
#
# One function per pair, keyed to a name by the registry table in the
# identities module.  It takes the working truncation and the validated
# parameters and returns (g, f), each truncated at or above it.


def _bernoulli_pair(T, a):
    return _bern_base(a, T), t_series(QQ, T)


def _euler_pair(T, a):
    return _euler_base(a, T), t_series(QQ, T)


def _frobenius_euler_pair(T, a, lam):
    return _fe_g(a, lam, T), t_series(_lam_field(lam)[0], T)


def _frobenius_eulerian_pair(T, a, lam):
    return _fte_g(a, lam, T), t_series(_lam_field(lam)[0], T)


def _narumi_pair(T, a):
    return _bern_base(a, T), exp_ct(QQ, 1, T) - 1


def _bernoulli_2nd_pair(T):
    return _narumi_pair(T, -1)


def _daehee_pair(T, lam):
    """((1-L)/(e^t-L), (e^t-1)/(e^t+1)): the Daehee family and the DAE identity."""
    e = exp_ct(_lam_field(lam)[0], 1, T)
    return _fe_g(-1, lam, T), (e - 1) / (e + 1)


def _poisson_charlier_pair(T, a):
    de = (exp_ct(QQ, 1, T) - 1) * a
    return de.exp(), de


def _t2_pair(T, a, b, lam):
    fld = _lam_field(lam)[0]
    return _fe_g(a, lam, T), (exp_ct(fld, b, T) - 1).shift_div(1).inverse().mul_t(1)


def _t3_pair(T, a, b, c):
    f = (exp_ct(QQ, c, T) - 1).shift_div(1).inverse() * exp_ct(QQ, b, T - 1)
    return _bern_base(a, T), f.mul_t(1)


def _t4_pair(T, a):
    return _euler_base(a, T), log1p_series(QQ, T).shift_div(1).inverse().mul_t(1)


def _r27_pair(T, a):
    return _bern_base(a, T), log1p_series(QQ, T)


def _t6_pair(T, a, c, lam):
    fld = _lam_field(lam)[0]
    return _fe_g(a, lam, T), log1p_series(fld, T) * one_plus_t_pow(fld, -c, T)


def _p8_pair(T, a, c, lam):
    fld = _lam_field(lam)[0]
    base = log1p_series(fld, T).shift_div(1).inverse()
    return _fte_g(a, lam, T), (base * one_plus_t_pow(fld, c, T - 1)).mul_t(1)


def _t10_pair(T, a, b, c, lam, m):
    fld = _lam_field(lam)[0]
    lin = Series(fld, [fld.one, b], trunc=T)
    return _fte_g(a, lam, T), (exp_ct(fld, -c, T) * lin.pow_int(-m)).mul_t(1)


@dataclass(frozen=True)
class FamilySpec:
    """A named family plus its order and parameters.

    ``params`` keys: ``lam`` (None for symbolic, Fraction otherwise) for the
    Frobenius and Daehee families, ``a`` for Poisson-Charlier.
    """

    name: str
    order: int = 1
    params: tuple = ()

    @staticmethod
    def make(name: str, order: int = 1, **params) -> "FamilySpec":
        return FamilySpec(name, order, tuple(sorted(params.items())))


def catalog_pair(spec: FamilySpec, T: int | None = None) -> ShefferPair:
    """The classical (g, f) Sheffer pair of a named family (or of any
    registry name with a pair), with ``spec.order`` as its order a.  At the
    default truncation, ``working_trunc(10)`` = 22, both routes answer
    through degree 21."""
    from .identities import build_pair  # the registry table imports this module

    if T is None:
        T = working_trunc(10)
    return build_pair(spec.name, T, spec.order, dict(spec.params))


def family_polys(name: str, order: int, n_max: int, **params) -> list:
    """P_0 .. P_{n_max} of a registry name with a pair, read off its
    generating function 1/g(fbar(t)) e^{x fbar(t)} by ``sheffer_gf``;
    ``params`` as in ``FamilySpec.make`` (``lam``, ``a``, ``b``, ``c``, ``m``)."""
    _check_n_max(n_max)
    pair = catalog_pair(FamilySpec.make(name, order, **params), T=answer_trunc(n_max))
    return sheffer_gf(pair, n_max)


def bespoke_pair(tag: str, T: int, order: int = 1, b=None, c=None, m=None, lam=None) -> ShefferPair:
    """The parameterized pairs behind the registry identities (tags as in
    the identities module); parameters a tag does not take are ignored."""
    from .identities import build_pair  # the registry table imports this module

    return build_pair(tag, T, order, {"b": b, "c": c, "m": m, "lam": lam})
