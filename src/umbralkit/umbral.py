"""The umbral algebra: functionals, operators, and Sheffer sequences.

A linear functional is just a :class:`~umbralkit.series.Series` (the
classical vector-space isomorphism between functionals and formal power
series), so there is no separate functional type.  Two independent constructions of the
Sheffer sequence for a pair (g, f) are provided:

* :func:`sheffer_gf` expands 1/g(fbar(t)) * e^{y fbar(t)} and reads the
  polynomials off the t-coefficients;
* :func:`sheffer_transfer` evaluates the operator chain
  (1/g(t)) x (t/f(t))^n x^{n-1}.

Their exact agreement is the transfer formula, checked in the test suite.

Truncation: an answer of degree n needs g and f through t^n only, because
the t^k coefficient of a product, inverse, composition or reversion depends
on its inputs only through t^k.  So every route takes a pair truncated at
T >= n + 1 and cuts a longer one to n + 1 (:func:`answer_trunc`) before
computing; ``_cut`` is that one rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NotDelta, NotInvertible, TruncationTooShort
from .fields import vec_dot
from .series import Poly, Series


def functional_apply(f: Series, p: Poly):
    """<f(t) | p(x)> = sum_n n! f[n] p_n."""
    if p.degree >= f.trunc:
        raise TruncationTooShort(
            f"functional truncated at {f.trunc} applied to degree {p.degree}"
        )
    facts = [1]
    for n in range(1, len(p.coeffs)):
        facts.append(facts[-1] * n)
    return vec_dot(f.coeffs, p.coeffs, f.field.zero, facts)


def operator_apply(f: Series, p: Poly) -> Poly:
    """f(t) p(x) = sum_k f[k] p^(k)(x); t^k acts as d^k/dx^k, so the x^j
    coefficient is sum_k f[k] (j+k)!/j! p[j+k]."""
    if p.degree >= f.trunc:
        raise TruncationTooShort(
            f"operator truncated at {f.trunc} applied to degree {p.degree}"
        )
    out = []
    for j in range(len(p.coeffs)):
        falling = [1]  # (j+k)!/j!
        for k in range(1, len(p.coeffs) - j):
            falling.append(falling[-1] * (j + k))
        out.append(vec_dot(f.coeffs, p.coeffs[j:], f.field.zero, falling))
    return Poly(p.field, out)


@dataclass(frozen=True)
class ShefferPair:
    """An invertible series g and a delta series f over one field."""

    g: Series
    f: Series

    def __post_init__(self):
        if self.g.field is not self.f.field:
            raise DomainError("g and f must share a coefficient field")
        if self.g.order() != 0:
            raise NotInvertible("g must be an invertible series (order 0)")
        if self.f.trunc < 2:
            raise TruncationTooShort("f must be known through t^1 (truncation >= 2)")
        if self.f.order() != 1:
            raise NotDelta("f must be a delta series (order exactly 1)")

    @property
    def field(self):
        return self.g.field

    @property
    def trunc(self) -> int:
        return min(self.g.trunc, self.f.trunc)


def answer_trunc(n_max: int) -> int:
    """The truncation S_0 .. S_{n_max} need: n_max + 1, and at least 2,
    since f must be known through t^1."""
    return max(n_max + 1, 2)


def _check_n_max(n_max) -> None:
    """DomainError unless n_max is an int >= 0 (a bool is not taken for
    one); the one check of a degree, here and in the families."""
    if isinstance(n_max, bool) or not isinstance(n_max, int):
        raise DomainError(f"n_max must be an int, got {n_max!r}")
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")


def _cut(pair: ShefferPair, n_max: int) -> ShefferPair:
    """The one truncation gate of the routes: DomainError for an n_max that
    is not an int or is < 0, TruncationTooShort for a pair not known through
    t^n_max, and otherwise the pair truncated at answer_trunc(n_max), or the
    pair itself when it is already that short."""
    _check_n_max(n_max)
    if pair.trunc < n_max + 1:
        raise TruncationTooShort(f"need truncation >= {n_max + 1}, have {pair.trunc}")
    T = answer_trunc(n_max)
    if pair.g.trunc <= T and pair.f.trunc <= T:
        return pair
    return ShefferPair(pair.g.truncate(min(T, pair.g.trunc)),
                       pair.f.truncate(min(T, pair.f.trunc)))


def sheffer_gf(pair: ShefferPair, n_max: int) -> list[Poly]:
    """S_0 .. S_{n_max} from the generating-function route.

    The y^j coefficient of S_n is (n!/j!) [t^n] fbar(t)^j / g(fbar(t)).
    """
    pair = _cut(pair, n_max)
    field = pair.field
    fbar = pair.f.revert()
    ginv = pair.g.compose(fbar).inverse()
    # cols[j] = fbar^j / g(fbar)
    acc = ginv
    cols = [acc]
    for _ in range(n_max):
        acc = acc * fbar
        cols.append(acc)
    fact = [Fraction(1)] * (n_max + 1)
    for k in range(1, n_max + 1):
        fact[k] = fact[k - 1] * k
    polys = []
    for n in range(n_max + 1):
        coeffs = [
            field.coerce(fact[n] / fact[j]) * cols[j].coeffs[n] for j in range(n + 1)
        ]
        polys.append(Poly(field, coeffs))
    return polys


def sheffer_transfer(pair: ShefferPair, n: int) -> Poly:
    """S_n(x) by the operator route (1/g) x (t/f)^n x^{n-1}; n >= 1 only."""
    return sheffer_transfer_all(pair, n)[-1]


def sheffer_transfer_all(pair: ShefferPair, n_max: int) -> list[Poly]:
    """[S_1 .. S_{n_max}] by the operator route, sharing the inversions."""
    _check_n_max(n_max)
    if n_max < 1:
        raise DomainError("the transfer route is stated for n >= 1 only")
    pair = _cut(pair, n_max)
    ginv = pair.g.inverse()
    t_over_f = pair.f.shift_div(1).inverse()
    out = []
    q = t_over_f
    for n in range(1, n_max + 1):
        # (1/g) x q x^{n-1} for q = (t/f)^n, evaluated right to left
        p = operator_apply(q, Poly.monomial(ginv.field, n - 1)).mul_by_x()
        out.append(operator_apply(ginv, p))
        if n < n_max:
            q = q * t_over_f
    return out


def orthogonality_failure(pair: ShefferPair, polys: list[Poly], n_max: int):
    """First (n, k, value) with <g f^k | S_n> != n! delta_{n,k}, or None.

    <g f^k | S_n> reads g f^k only through t^{deg S_n}, so the pair is cut
    to the largest degree among polys[0 .. n_max] (n_max when that is
    larger) and the same values are compared."""
    _check_n_max(n_max)
    if len(polys) < n_max + 1:
        raise DomainError(
            f"orthogonality up to n_max = {n_max} needs {n_max + 1} polynomials "
            f"S_0 .. S_{n_max}, got {len(polys)}"
        )
    pair = _cut(pair, max([n_max] + [p.degree for p in polys[: n_max + 1]]))
    field = pair.field
    fact = Fraction(1)
    facts = [Fraction(1)]
    for n in range(1, n_max + 1):
        fact *= n
        facts.append(fact)
    acc = pair.g
    for k in range(n_max + 1):
        for n in range(n_max + 1):
            value = functional_apply(acc, polys[n])
            want = field.coerce(facts[n]) if n == k else field.zero
            if value != want:
                return (n, k, value)
        acc = acc * pair.f
    return None


def orthogonality_check(pair: ShefferPair, polys: list[Poly], n_max: int) -> bool:
    """True iff polys is the Sheffer sequence of the pair up to n_max."""
    return orthogonality_failure(pair, polys, n_max) is None
