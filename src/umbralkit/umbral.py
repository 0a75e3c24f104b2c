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
:func:`orthogonality_failure` is the third check: <g f^k | S_n> = n! delta,
read through the adjoint rule <g(t) h(t) | p(x)> = <h(t) | g(t) p(x)>
(Roman, *The Umbral Calculus*, ch. 2) as <f^k | g(t) S_n(x)>, so g acts
once on each S_n and f^k is a power table of f alone.

Every sum against a power table is one prefix sum (``fields._prefix_sums``):
the y^j coefficients of the GF route, the x^j coefficients of the transfer
route and of :func:`operator_apply`.  Its Q or Q(L) operand (1/g(fbar),
1/g or the series applied) is laid out over one common denominator and
packed once per call; each output is divided by the cofactor of the
denominators it did not use and normalised once.  The orthogonality check
keeps its own packed correlation, so that it stays an independent oracle,
and makes no gcd: it compares <f^k | g S_n> with n! delta as two packed
integers over a common denominator, and builds a field element only for
the failure it returns.

Only g carries L in the registry's pairs over Q(L); f is free of it.  A
:class:`ShefferPair` keeps an L-free f over Q (``series._over_q``), so the
reversion fbar, the power tables of fbar, t/f and f, and the inverse t/f
run on the Q kernel, and Q(L) arithmetic is left to the terms that meet g:
g(fbar) and its inverse, the y^j coefficients of S_n (one sum each, of
fbar^j against 1/g(fbar)), the x^j coefficients of (1/g) x (t/f)^n x^{n-1}
(one sum each, of (t/f)^n against 1/g), and g(t) S_n(x).  An f that
carries L stays over Q(L), with g over Q or Q(L).

The power tables over Q are read as integer rows, each over its own
reduced denominator (``Series._power_rows``: s^k = rows[k] / dens[k]),
never as Fractions: the columns of both routes are integers made from those
rows, over dens[k] times a factorial, packed against the prefix layout of
1/g(fbar) or 1/g (as g(fbar) is inside ``compose``), and the orthogonality
check lays each f^k out from its row over dens[k].

Truncation: an answer of degree n needs g and f through t^n only, because
the t^k coefficient of a product, inverse, composition or reversion depends
on its inputs only through t^k.  So every route takes a pair truncated at
T >= n + 1 and cuts a longer one to n + 1 (:func:`answer_trunc`) before
computing; ``_cut`` is that one rule.
"""

from __future__ import annotations

from operator import mul

from .errors import (
    DomainError, NotDelta, NotInvertible, TruncationTooShort, nonnegative_integer,
)
from .fields import (
    QQ, _common_den, _dot_bound, _element, _lay_out, _Layout, _pack, _prefix_sums,
    _slot_width, _unpack, _zmul, common_field, vec_dot,
)
from .record import Record
from .series import Poly, Series, _over_q


def functional_apply(f: Series, p: Poly):
    """<f(t) | p(x)> = sum_n n! f[n] p_n."""
    if p.degree >= f.trunc:
        raise TruncationTooShort(
            f"functional truncated at {f.trunc} applied to degree {p.degree}"
        )
    return vec_dot(f.coeffs, p.coeffs, common_field(f.field, p.field).zero,
                   _factorials(len(p.coeffs)))


def operator_apply(f: Series, p: Poly) -> Poly:
    """f(t) p(x) = sum_k f[k] p^(k)(x); t^k acts as d^k/dx^k, so the x^j
    coefficient is sum_k f[k] (j+k)!/j! p[j+k], one prefix sum of f
    (``fields._prefix_sums``).  Over Q, m! p[m] = P[m] / d with integers P,
    and the sum is of P[j:] over j! d, packed; over Q(L) it is of RatFuncs
    weighted (j+k)!/j!."""
    if p.degree >= f.trunc:
        raise TruncationTooShort(
            f"operator truncated at {f.trunc} applied to degree {p.degree}"
        )
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
    """
    pair = _cut(pair, n_max)
    fbar = pair.f.revert()
    row_dens, rows = fbar._power_rows(n_max)
    ginv = pair.g.compose(fbar).inverse().coeffs
    fact = _factorials(n_max + 1)
    cols, dens = [], []
    for n in range(n_max + 1):
        for j in range(n + 1):
            # pairs ginv[i] with fbar^j[n - i] = rows[j][n - i] / row_dens[j]
            cols.append([fact[n] // fact[j] * rows[j][n - i] for i in range(n - j + 1)])
            dens.append(row_dens[j])
    values = _prefix_sums(ginv, cols, dens, pair.field)
    return [Poly(pair.field, values[n * (n + 1) // 2 : (n + 1) * (n + 2) // 2])
            for n in range(n_max + 1)]


def sheffer_transfer(pair: ShefferPair, n: int) -> Poly:
    """S_n(x) by the operator route (1/g) x (t/f)^n x^{n-1}; n >= 1 only."""
    return sheffer_transfer_all(pair, n)[-1]


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
    return [Poly(pair.field, values[n * (n + 1) // 2 - 1 : (n + 1) * (n + 2) // 2 - 1])
            for n in range(1, n_max + 1)]


def orthogonality_failure(pair: ShefferPair, polys: list[Poly], n_max: int):
    """First (n, k, value) with <g f^k | S_n> != n! delta_{n,k}, or None.

    <g f^k | S_n> reads g f^k only through t^{deg S_n}, so the pair is cut
    to the largest degree among polys[0 .. n_max] (n_max when that is
    larger) and the same values are compared.  Each value is read as
    <f^k | g(t) S_n(x)> (the adjoint rule <g h | p> = <h | g p>), so f^k
    is a power table of f, over Q when f is free of L, and g acts once on
    each S_n.

    No sum is normalised and no ``RatFunc`` is built unless a value fails
    (a layout's lcm step runs a gcd only for two denominators neither of
    which divides the other, which no registry pair in the benchmark has).
    With g, S_n (weighted by m!) and f^k laid out over common denominators,
    j! (g S_n)_j = G_{n,j} / (q_n D_n) and f^k_j = A_{k,j} / (q_k D_k), so
    <f^k | g S_n> = sum_j A_{k,j} G_{n,j} / (q_k q_n D_k D_n): it is
    n! delta_{n,k} exactly when the integer polynomials sum_j A_{k,j} G_{n,j}
    and n! delta_{n,k} q_k q_n D_k D_n are equal, which their packed
    integers decide at a slot that holds both.  The G_{n,j} are unpacked
    and packed again at one slot per S_n for all k, so the slot of the sums
    in g S_n need not hold the weights A_{k,j}.  The S_n are taken one at a
    time, each against the f^k before the first failure found so far."""
    if len(polys) < nonnegative_integer("n_max", n_max) + 1:
        raise DomainError(
            f"orthogonality up to n_max = {n_max} needs {n_max + 1} polynomials "
            f"S_0 .. S_{n_max}, got {len(polys)}"
        )
    pair = _cut(pair, max([n_max] + [p.degree for p in polys[: n_max + 1]]))
    fact = _factorials(n_max + 1)
    gl = _lay_out(pair.g.coeffs)
    row_dens, rows = pair.f._power_rows(n_max)
    fls = [_lay_out(row, over=e) for e, row in zip(row_dens, rows)]
    # numerators that bound those of every f^k, for one slot per S_n
    f_all = _Layout([(max(fl.height for fl in fls),) * max(fl.length for fl in fls)]
                    * len(fls[0].num))
    failure = None  # the first in (k, n) order; a later S_n needs only smaller k
    for n, p in enumerate(polys[: n_max + 1]):
        pl = _lay_out(p.coeffs, _factorials(len(p.coeffs)))
        s = _slot_width(_dot_bound(gl, pl))
        G, P = gl.packed(s), pl.packed(s)
        gs = _Layout([_unpack(sum(map(mul, G, P[j:])), s) for j in range(len(P))],
                     gl.q * pl.q, _zmul(gl.den, pl.den))
        want = [fact[n] * fls[n].q * gs.q * c for c in _zmul(fls[n].den, gs.den)]
        s = _slot_width(max([_dot_bound(f_all, gs)] + [abs(c) for c in want]))
        G, want = gs.packed(s), _pack(want, s)
        for k, fl in enumerate(fls[: None if failure is None else failure[0]]):
            v = sum(map(mul, fl.packed(s), G))
            if v != (want if n == k else 0):
                failure = (k, n, common_field(pair.field, p.field), _unpack(v, s), fl.q * gs.q,
                           _zmul(fl.den, gs.den))
                break
    if failure is None:
        return None
    k, n, field, num, q, den = failure
    return (n, k, _element(field, num, q, den))


def orthogonality_check(pair: ShefferPair, polys: list[Poly], n_max: int) -> bool:
    """True iff polys is the Sheffer sequence of the pair up to n_max."""
    return orthogonality_failure(pair, polys, n_max) is None
