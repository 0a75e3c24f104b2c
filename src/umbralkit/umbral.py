"""The umbral algebra: functionals, operators, and Sheffer sequences.

A linear functional is just a :class:`~umbralkit.series.Series` (the
classical vector-space isomorphism between functionals and formal power
series), so there is no separate functional type.  Two independent constructions of the
Sheffer sequence for a pair (g, f) are provided:

* :func:`sheffer_gf` expands 1/g(fbar(t)) * e^{y fbar(t)} and reads the
  polynomials off the t-coefficients;
* :func:`sheffer_transfer_all` evaluates the operator chain
  (1/g(t)) x (t/f(t))^n x^{n-1} for every n up to n_max.

Their exact agreement is the transfer formula, checked in the test suite.
:func:`orthogonality_failure` is the third check: <g f^k | S_n> = n! delta,
decided by Sheffer's two conditions <g | S_n> = delta_{n,0} and
f(t) S_n = n S_{n-1} (Roman, *The Umbral Calculus*, 1984, section 2.3),
which imply it for every k through the adjoint rule
<h(t) f(t) | p(x)> = <h(t) | f(t) p(x)>.  The check reads only g, f and
the S_n, so it shares no power table, and no fbar, 1/g or (t/f)^n, with
either route.

Every sum against a power table is one prefix sum (``fields._prefix_sums``):
the y^j coefficients of the GF route, the x^j coefficients of the transfer
route and of :func:`operator_apply`.  Its Q or Q(L) operand (1/g(fbar),
1/g or the series applied) is laid out over one common denominator and
packed once per call; each output is divided by the cofactor of the
denominators it did not use and normalised once.  The orthogonality check
keeps its own packed sums, so that it stays an independent oracle, and
normalises none: it compares the two sides of each condition as packed
integers over common denominators, and only a list that fails a condition
is read by the plain functionals <g f^k | S_n>.

Only g carries L in the registry's pairs over Q(L); f is free of it.  A
:class:`ShefferPair` keeps an L-free f over Q (``series._over_q``), so the
reversion fbar, the power tables of fbar and t/f, and the inverse t/f run
on the Q kernel, and Q(L) arithmetic is left to the terms that meet g:
g(fbar) and its inverse, the y^j coefficients of S_n (one sum each, of
fbar^j against 1/g(fbar)), and the x^j coefficients of
(1/g) x (t/f)^n x^{n-1} (one sum each, of (t/f)^n against 1/g).  An f that
carries L stays over Q(L), with g over Q or Q(L).

The power tables over Q are read as integer rows, each over its own
reduced denominator (``Series._power_rows``: s^k = rows[k] / dens[k]),
never as Fractions: the columns of both routes are integers made from those
rows, over dens[k] times a factorial, packed against the prefix layout of
1/g(fbar) or 1/g (as g(fbar) is inside ``Series._compose_rows``).  The GF
route builds one table of fbar, the one the reversion's round trip checks,
and the transfer route one of t/f.

Truncation: an answer of degree n needs g and f through t^n only, because
the t^k coefficient of a product, inverse, composition or reversion depends
on its inputs only through t^k.  So every route takes a pair truncated at
T >= n + 1 and cuts a longer one to n + 1 (:func:`answer_trunc`) before
computing; ``_cut`` is that one rule.
"""

from __future__ import annotations

from itertools import zip_longest
from math import factorial
from operator import mul

from .errors import (
    DomainError, NotDelta, NotInvertible, TruncationTooShort, nonnegative_integer,
)
from .fields import (
    QQ, _common_den, _dot_bound, _lay_out, _pack, _prefix_sums, _slot_width, _zmul,
    common_field, vec_dot, vec_trim,
)
from .record import Record
from .series import Poly, Series, _over_q


def functional_apply(f: Series, p: Poly):
    """<f(t) | p(x)> = sum_n n! f[n] p_n."""
    _check_apply("functional", f, p)
    return vec_dot(f.coeffs, p.coeffs, common_field(f.field, p.field).zero,
                   _factorials(len(p.coeffs)))


def operator_apply(f: Series, p: Poly) -> Poly:
    """f(t) p(x) = sum_k f[k] p^(k)(x); t^k acts as d^k/dx^k, so the x^j
    coefficient is sum_k f[k] (j+k)!/j! p[j+k], one prefix sum of f
    (``fields._prefix_sums``).  Over Q, m! p[m] = P[m] / d with integers P,
    and the sum is of P[j:] over j! d, packed; over Q(L) it is of RatFuncs
    weighted (j+k)!/j!."""
    _check_apply("operator", f, p)
    field, n = common_field(f.field, p.field), len(p.coeffs)
    fact = _factorials(n)
    if p.field is QQ:
        d, P = _common_den(p.coeffs)
        P = list(map(mul, fact, P))
        cols, dens = [P[j:] for j in range(n)], [e * d for e in fact]
    else:
        cols = [[x * (fact[j + k] // fact[j]) for k, x in enumerate(p.coeffs[j:])]
                for j in range(n)]
        dens = [1] * n
    return Poly(field, _prefix_sums(f.coeffs[:n], cols, dens, field))


def _check_apply(what: str, f, p) -> None:
    """DomainError unless f is a Series and p a Poly; TruncationTooShort
    unless f is known through t^deg p."""
    if not (isinstance(f, Series) and isinstance(p, Poly)):
        raise DomainError(f"{what} needs a Series and a Poly, "
                          f"got {type(f).__name__} and {type(p).__name__}")
    if p.degree >= f.trunc:
        raise TruncationTooShort(f"{what} truncated at {f.trunc} applied to degree {p.degree}")


def _factorials(n: int) -> list:
    """[0!, 1!, .., (n-1)!]."""
    out = [1] * n
    for k in range(1, n):
        out[k] = out[k - 1] * k
    return out


class ShefferPair(Record):
    """An invertible series g and a delta series f, each over Q or Q(L).

    An f free of L is kept over Q (``series._over_q``), whatever the field
    of g; the pair's field is that of g and f together, Q(L) unless both
    are over Q (``fields.common_field``)."""

    g: Series
    f: Series

    def __init__(self, g: Series, f: Series):
        if not (isinstance(g, Series) and isinstance(f, Series)):
            raise DomainError(
                f"g and f must be Series, got {type(g).__name__} and {type(f).__name__}"
            )
        super().__init__(g, _over_q(f))
        if self.g.order() != 0:
            raise NotInvertible("g must be an invertible series (order 0)")
        if self.f.trunc < 2:
            raise TruncationTooShort("f must be known through t^1 (truncation >= 2)")
        if self.f.order() != 1:
            raise NotDelta("f must be a delta series (order exactly 1)")

    @property
    def field(self):
        return common_field(self.g.field, self.f.field)

    @property
    def trunc(self) -> int:
        return min(self.g.trunc, self.f.trunc)


def answer_trunc(n_max: int) -> int:
    """The truncation S_0 .. S_{n_max} need: n_max + 1, and at least 2,
    since f must be known through t^1."""
    return max(nonnegative_integer("n_max", n_max) + 1, 2)


def _cut(pair: ShefferPair, n_max: int) -> ShefferPair:
    """The one truncation gate of the routes: DomainError for a pair that is
    not a ShefferPair or an n_max that is not an int or is < 0,
    TruncationTooShort for a pair not known through t^n_max, and otherwise
    the pair truncated at answer_trunc(n_max), or the pair itself when it
    is already that short."""
    if not isinstance(pair, ShefferPair):
        raise DomainError(f"a ShefferPair is required, got {type(pair).__name__}")
    if pair.trunc < nonnegative_integer("n_max", n_max) + 1:
        raise TruncationTooShort(f"need truncation >= {n_max + 1}, have {pair.trunc}")
    T = answer_trunc(n_max)
    if pair.g.trunc <= T and pair.f.trunc <= T:
        return pair
    return ShefferPair(pair.g.truncate(min(T, pair.g.trunc)),
                       pair.f.truncate(min(T, pair.f.trunc)))


def sheffer_gf(pair: ShefferPair, n_max: int) -> list[Poly]:
    """S_0 .. S_{n_max} from the generating-function route.

    The y^j coefficient of S_n is (n!/j!) [t^n] fbar(t)^j / g(fbar(t)):
    with fbar^j = rows[j] / dens[j], the sum over i <= n - j of
    (n!/j!) rows[j][n - i] * ginv[i] / dens[j], one prefix sum of 1/g(fbar)
    (``fields._prefix_sums``), packed when fbar is over Q.

    The power table of fbar is built once, by the reversion
    (``Series._revert_rows``), whose round trip f(fbar) = t checks it; the
    same table gives g(fbar) (``Series._compose_rows``) and the columns.
    """
    pair = _cut(pair, n_max)
    fbar, table = pair.f._revert_rows()
    ginv = pair.g._compose_rows(fbar, table).inverse().coeffs
    row_dens, rows = table
    fact = _factorials(n_max + 1)
    cols, dens = [], []
    for n in range(n_max + 1):
        for j in range(n + 1):
            # pairs ginv[i] with fbar^j[n - i] = rows[j][n - i] / row_dens[j]
            cols.append([fact[n] // fact[j] * rows[j][n - i] for i in range(n - j + 1)])
            dens.append(row_dens[j])
    values = _prefix_sums(ginv, cols, dens, pair.field)
    return [Poly._raw(pair.field, vec_trim(values[n * (n + 1) // 2 : (n + 1) * (n + 2) // 2]))
            for n in range(n_max + 1)]


def sheffer_transfer_all(pair: ShefferPair, n_max: int) -> list[Poly]:
    """[S_1 .. S_{n_max}] by the operator route, sharing the inversions and
    one layout of 1/g: every x^j coefficient of every S_n is a prefix sum of
    1/g against integers from the rows of (t/f)^n (``fields._prefix_sums``,
    one call for all of them)."""
    pair = _cut(pair, nonnegative_integer("n_max", n_max, 1))
    ginv = pair.g.inverse().coeffs
    t_over_f = pair.f.shift_div(1).inverse()
    row_dens, rows = t_over_f._power_rows(n_max)
    zero = 0 if t_over_f.field is QQ else t_over_f.field.zero  # the table's zero
    fact = _factorials(n_max + 1)
    cols, dens = [], []
    for n in range(1, n_max + 1):
        # p = x (t/f)^n x^{n-1}, evaluated right to left: t^k takes x^{n-1}
        # to (n-1)!/j! x^j with j = n-1-k, so m! p[m] = P[m] / row_dens[n]
        # below, and the x^j coefficient of (1/g) p is
        # sum_k ginv[k] P[j+k] / (j! row_dens[n])
        P = [zero] + [m * fact[n - 1] * rows[n][n - m] for m in range(1, n + 1)]
        for j in range(n + 1):
            cols.append(P[j:])
            dens.append(fact[j] * row_dens[n])
    values = _prefix_sums(ginv, cols, dens, pair.field)
    # S_n takes the n + 1 values after the 2 + 3 + .. + n of S_1 .. S_{n-1}
    return [Poly._raw(pair.field,
                      vec_trim(values[n * (n + 1) // 2 - 1 : (n + 1) * (n + 2) // 2 - 1]))
            for n in range(1, n_max + 1)]


def orthogonality_failure(pair: ShefferPair, polys: list[Poly], n_max: int):
    """First (n, k, value) with <g f^k | S_n> != n! delta_{n,k} for n, k <=
    n_max, the first in (k, n) order, or None.

    <g f^k | S_n> reads g f^k only through t^{deg S_n}, so the pair is cut
    to the largest degree among polys[0 .. n_max] (n_max when that is
    larger) and the same values are compared.

    Sheffer's two conditions decide first: when <g | S_n> = delta_{n,0}
    and f(t) S_n = n S_{n-1} for every n <= n_max, then by the adjoint rule
    <g f^k | S_n> = <g f^{k-1} | f(t) S_n> = n <g f^{k-1} | S_{n-1}>, and by
    induction on k it is n! delta_{n,k} for every k, so the answer is None.
    With g, f and S_n (weighted by m!) laid out over common denominators,
    g_m = G_m / (q_g D_g), f_k = F_k / (q_f D_f) and m! S_n[m] =
    P_m / (q_n D_n), and S_{n-1} is P'_m / (q' D'): <g | S_n> is
    sum_m G_m P_m / (q_g q_n D_g D_n), and the x^j coefficients of f(t) S_n
    and n S_{n-1} are sum_k F_k P_{j+k} / (j! q_f q_n D_f D_n) and
    n P'_j / (j! q' D').  Each condition is then an equality of integer
    polynomials, each side multiplied by the other side's q D, which their
    packed integers decide at one slot per n that holds both sides; no sum
    is normalised.  Condition n reads g and f only through t^(deg S_n), so
    only their first deg S_n + 1 entries are packed at that slot; the slot
    width still bounds the products over the whole layouts of g and f.

    A list that first fails a condition at S_N is read by the definition:
    the chain of products g f^k, each applied to S_N .. S_{n_max} in turn,
    each value over the common field of the pair and S_n.  S_m for m < N is
    not read: both conditions hold below N, so the same induction gives
    <g f^k | S_m> = m! delta_{m,k} for every k.  A list with a degree above
    n_max can fail a condition and still have no failure, since k stops at
    n_max."""
    if len(polys) < nonnegative_integer("n_max", n_max) + 1:
        raise DomainError(
            f"orthogonality up to n_max = {n_max} needs {n_max + 1} polynomials "
            f"S_0 .. S_{n_max}, got {len(polys)}"
        )
    polys = polys[: n_max + 1]
    for n, p in enumerate(polys):
        if not isinstance(p, Poly):
            raise DomainError(f"S_{n} must be a Poly, got {type(p).__name__}")
    pair = _cut(pair, max([n_max] + [p.degree for p in polys]))
    gl, fl, prev = _lay_out(pair.g.coeffs), _lay_out(pair.f.coeffs), _lay_out(())
    for n, p in enumerate(polys):
        pl = _lay_out(p.coeffs, _factorials(len(p.coeffs)))
        unit = [gl.q * pl.q * c for c in _zmul(gl.den, pl.den)] if n == 0 else []
        left = [prev.q * c for c in prev.den]
        right = [n * fl.q * pl.q * c for c in _zmul(fl.den, pl.den)]
        s = _slot_width(max([_dot_bound(gl, pl), _dot_bound(fl, pl) * sum(map(abs, left)),
                             prev.height * sum(map(abs, right))] + list(map(abs, unit))))
        # both conditions read g and f only through t^(deg S_n)
        m = len(pl.num)
        F, P, left, right = fl.packed(s, m), pl.packed(s), _pack(left, s), _pack(right, s)
        fs = (sum(map(mul, F, P[j:])) for j in range(m))  # packed x^j of f(t) S_n
        if sum(map(mul, gl.packed(s, m), P)) != _pack(unit, s) or any(
                a * left != right * b for a, b in zip_longest(fs, prev.packed(s), fillvalue=0)):
            break
        prev = pl
    else:
        return None
    acc, first = pair.g, n
    for k in range(n_max + 1):
        for n, p in enumerate(polys[first:], first):
            value = common_field(pair.field, p.field).coerce(functional_apply(acc, p))
            if value != (factorial(n) if n == k else 0):
                return (n, k, value)
        acc = acc * pair.f
    return None
