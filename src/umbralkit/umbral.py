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
either route; it shares with them only the cut pair and g's common-
denominator layout, which describe g itself (``_prepare``).

Every sum against a power table is one prefix sum (``fields._prefix_sums``):
the y^j coefficients of the GF route, the x^j coefficients of the transfer
route and of :func:`operator_apply`.  Its Q or Q(L) operand (1/g in both
routes, the series applied) is laid out over one common denominator, once
per call or, for 1/g, once by its proof per pair and truncation, and
packed once per call; each output is divided by the cofactor of the
denominators it did not use and normalised once.
The orthogonality check keeps its own packed sums, so that it stays an
independent oracle, and normalises none: it compares the two sides of each
condition as packed integers over common denominators, and only a list
that fails a condition is read by the plain functionals <g f^k | S_n>.

Only g carries L in the registry's pairs over Q(L); f is free of it.  A
:class:`ShefferPair` keeps an L-free f over Q (``series._over_q``), so the
reversion fbar, the power tables of fbar and t/f, and the inverse t/f run
on the Q kernel, and Q(L) arithmetic is left to the terms that meet g:
the y^j coefficients of S_n (one sum each, of the table of fbar against
1/g), and the x^j coefficients of (1/g) x (t/f)^n x^{n-1} (one sum each,
of (t/f)^n against 1/g).  An f that carries L stays over Q(L), with g
over Q or Q(L).

Every pair has one 1/g, made once per answer truncation T (``_prepare``)
and read by both routes.  A registry pair with a Frobenius g carries its
reciprocal ``ginv``, built by the same integer sum as g
(``families._frobenius_g`` at order -a), and no Q(L) inverse runs for it.
A pair with no ginv, as every DSL pair, or with a ginv the proof rejects,
takes g's own inverse (``Series.inverse``).  Either way g * (1/g) = 1
mod t^T is proven before a route reads it, as one sum of packed products
per t^k (``_proven_ginv``), and the routes sum over 1/g itself, packed
against the layout the proof made, so 1/g is laid out once: the transfer
route reads it as is, and the GF route composes nothing, since
fbar^j (1/g)(fbar) = sum_k (1/g)[k] fbar^(j+k) (Roman, ch. 2) makes the
y^j coefficient of S_n one sum of 1/g against the table of fbar.  The
proof, not a second inversion, is what makes it 1/g, and nothing is read
unproven, since a wrong 1/g read by both routes would pass their
cross-check; an inverse of g that fails the proof is a fault of the kernel
and raises, with no fallback.  The orthogonality check reads g, not 1/g,
so a wrong 1/g that got past the proof would still fail it.

A pair is prepared once per answer truncation T (``_prepare``): it is cut,
g laid out, and its 1/g made and proven, the first time a route or the
orthogonality check asks at that T, and the result is kept on the pair
object for the last T only, outside its fields.  So the GF route, the
transfer route and the orthogonality check of one pair at one n cut it
once, prove 1/g once and lay out g once.  The proof is still the gate: a
route reads 1/g only as the proof on the cut pair returned it, and an
equal pair built afresh is proven afresh.

The power tables over Q are read as integer rows, each over its own
reduced denominator (``Series._power_rows``: s^k = rows[k] / dens[k]),
never as Fractions: the columns of both routes are integers made from those
rows, over a factorial times dens[k] in the transfer route or, in the GF
route, times the lcm of the dens[k] the column reads, packed against the
prefix layout of 1/g.  The GF route builds one table of fbar, the one the
reversion's round trip checks, and the transfer route one of t/f.

Truncation: an answer of degree n needs g and f through t^n only, because
the t^k coefficient of a product, inverse, composition or reversion depends
on its inputs only through t^k.  So every route takes a pair truncated at
T >= n + 1 and cuts a longer one to n + 1 (:func:`answer_trunc`) before
computing; ``_cut`` is that one rule, and ``_prepare`` keeps its result.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate, zip_longest
from math import factorial, lcm
from operator import is_, mul

from .errors import (
    DomainError, NotDelta, NotInvertible, TruncationTooShort, nonnegative_integer,
)
from .fields import (
    QQ, _common_den, _dot_bound, _lay_out, _pack, _prefix_sums, _slot_width, _zmul,
    common_field, vec_dot, vec_trim,
)
from .record import Record
from .series import Poly, Series, _over_q

__all__ = [
    "ShefferPair",
    "answer_trunc",
    "functional_apply",
    "operator_apply",
    "orthogonality_failure",
    "sheffer_gf",
    "sheffer_transfer_all",
]


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
    """An invertible series g and a delta series f, each over Q or Q(L),
    and optionally ``ginv``, a claimed reciprocal of g.

    An f free of L is kept over Q (``series._over_q``), whatever the field
    of g; the pair's field is that of g and f together, Q(L) unless both
    are over Q (``fields.common_field``).

    ``ginv`` is a claim, never trusted: a route reads it only after
    ``_proven_ginv`` proves g * ginv = 1 mod t^T at the answer's
    truncation T, and takes g's own inverse, proven the same way,
    otherwise, so every result is the Sheffer sequence of (g, f) whether
    ginv is right, wrong or absent.  The Frobenius-g pair builders
    (``families``) supply it: 1/g is the same integer sum at order -a.  A
    DSL pair has none.

    The pair is prepared once per answer truncation T (``_prepare``): the
    cut pair (or None when it is the pair itself), the proven 1/g and g's
    layout are kept in the slot ``_prepared``, for the last T only.  The
    slot is not a field: equality, hash, repr and ``__dict__`` read the
    fields alone, and a copy or a pickle starts without it."""

    __slots__ = ("_prepared",)  # the memo of ``_prepare``, outside the fields

    g: Series
    f: Series
    ginv: Series | None = None

    def __init__(self, g: Series, f: Series, ginv: Series | None = None):
        if not (isinstance(g, Series) and isinstance(f, Series)):
            raise DomainError(
                f"g and f must be Series, got {type(g).__name__} and {type(f).__name__}"
            )
        if not (ginv is None or isinstance(ginv, Series)):
            raise DomainError(f"ginv must be a Series or None, got {type(ginv).__name__}")
        super().__init__(g, _over_q(f), ginv)
        if self.g.order() != 0:
            raise NotInvertible("g must be an invertible series (order 0)")
        if self.f.trunc < 2:
            raise TruncationTooShort("f must be known through t^1 (truncation >= 2)")
        if self.f.order() != 1:
            raise NotDelta("f must be a delta series (order exactly 1)")

    def __getstate__(self):  # a copy or a pickle starts with no memo
        return self.__dict__

    @property
    def field(self):
        return common_field(self.g.field, self.f.field)

    @property
    def trunc(self) -> int:
        return min(self.g.trunc, self.f.trunc)


def answer_trunc(n_max: int) -> int:
    """The truncation S_0 .. S_{n_max} need: n_max + 1, and at least 2,
    since f must be known through t^1."""
    return max(nonnegative_integer("n_max", n_max, most=None) + 1, 2)


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
    members = (pair.g, pair.f, pair.ginv)
    cut = [s if s is None else s.truncate(min(T, s.trunc)) for s in members]
    if all(map(is_, cut, members)):
        return pair
    return ShefferPair(*cut)


def _prepare(pair: ShefferPair, n_max: int, proof: bool = True) -> tuple:
    """(cut, 1/g, its layout, g's layout) of the pair at the answer
    truncation T = answer_trunc(n_max), with the errors of ``_cut``: the
    pair cut by ``_cut``; when ``proof``, the (1/g, layout) that
    ``_proven_ginv`` gives, else (None, None); and g's layout
    (``fields._lay_out``), which every proof and the orthogonality check
    read.  1/g is the cut pair's ginv when the proof accepts it, and
    otherwise g's own inverse (``Series.inverse``), read only once the same
    proof accepts it too; an inverse the proof rejects is a fault of the
    kernel, and an AssertionError (not an ``UmbralError``) is raised by an
    explicit ``raise``, so ``python -O`` keeps it and the CLI reports an
    internal error.

    A pair is prepared once per T.  What is made is kept on the pair
    object, for the last T asked for only, in the slot ``_prepared``
    outside its fields, and is completed as it is asked for: the GF route,
    the transfer route and ``orthogonality_failure`` on one pair at one T
    cut it once, prove its 1/g once and lay out g once.  A cut pair that is
    the pair itself is kept as None, so the memo makes no reference cycle
    and the pair is freed with its last reference.  A pair equal to it but
    not the same object shares none of it.  A pair is immutable, so what
    is kept stays right, and 1/g is still read only as the proof on this
    cut pair returned it."""
    memo = getattr(pair, "_prepared", None)
    # a kept T was reached through _cut's checks; the pair's truncation
    # still gates an n_max that shares its T (n_max = 0 and 1 give T = 2)
    if memo is None or memo[1] != answer_trunc(n_max) or pair.trunc <= n_max:
        # the cut pair (None for the pair itself, so the memo makes no
        # reference cycle) and T, then (1/g, layout) and g's layout once asked for
        cut = _cut(pair, n_max)
        memo = [None if cut is pair else cut, answer_trunc(n_max), None, None]
        object.__setattr__(pair, "_prepared", memo)
    cut, _, proven, gl = memo
    cut = pair if cut is None else cut
    if gl is None:
        gl = memo[3] = _lay_out(cut.g.coeffs)
    if proof and proven is None:
        proven = _proven_ginv(cut, gl)
        if proven[0] is None:  # no claim, or a wrong one: g's own inverse, proven alike
            proven = _proven_ginv(ShefferPair(cut.g, cut.f, cut.g.inverse()), gl)
        if proven[0] is None:  # explicit, so that python -O keeps it
            raise AssertionError("kernel fault: Series.inverse of g failed g * (1/g) = 1")
        memo[2] = proven
    return (cut, *(proven if proof else (None, None)), gl)


def _proven_ginv(pair: ShefferPair, gl=None):
    """(ginv, its layout) for pair.ginv cut to g's truncation T when
    g * ginv = 1 mod t^T, else (None, None): for no ginv, for one known
    through less than t^(T - 1), and for a wrong one.  ``_prepare`` proves
    by it both a builder's claim and g's own inverse, so no 1/g is read
    unproven.  The layout (``fields._lay_out``) is the one the proof packs;
    a route passes it to ``fields._prefix_sums``, so 1/g is laid out once.
    ``gl`` is g's layout when the caller has it (``_prepare`` keeps it for
    every proof and the orthogonality check), and is made here otherwise.
    The function keeps nothing: each call decides afresh.

    With g_m = G_m / (q D) and ginv_m = H_m / (q' D') over common
    denominators (``fields._lay_out``), the claim is the equality of integer
    polynomials in L sum_{i <= k} G_i H_{k-i} = delta_{k,0} q q' D D' for
    every k < T.  Each polynomial is packed at 2^s, and each k is decided by
    one sum of k + 1 products of packed integers, compared with the packed
    unit at k = 0 and with 0 above it; the proof stops at the first k that
    fails.  The slot width s holds either side, as in
    ``orthogonality_failure`` (``_dot_bound`` bounds a sum of products
    G_i H_j as it bounds a dot product), so two packed sides are equal
    exactly when their polynomials are."""
    g, h = pair.g, pair.ginv
    T = g.trunc
    if h is None or h.trunc < T:
        return None, None
    h = h.truncate(T)
    gl, hl = _lay_out(g.coeffs) if gl is None else gl, _lay_out(h.coeffs)
    unit = [gl.q * hl.q * c for c in _zmul(gl.den, hl.den)]
    s = _slot_width(max([_dot_bound(gl, hl)] + list(map(abs, unit))))
    G, H = gl.packed(s), hl.packed(s)
    sums = (sum(map(mul, G, H[k::-1])) for k in range(T))  # packed t^k of g * ginv
    return (h, hl) if next(sums) == _pack(unit, s) and not any(sums) else (None, None)


def sheffer_gf(pair: ShefferPair, n_max: int) -> list[Poly]:
    """S_0 .. S_{n_max} from the generating-function route.

    The y^j coefficient of S_n is (n!/j!) [t^n] fbar(t)^j / g(fbar(t)),
    read from the power table of fbar (fbar^k = rows[k] / dens[k]) as one
    prefix sum per (n, j) (``fields._prefix_sums``), packed when fbar is
    over Q.  The table is built once, by the reversion
    (``Series._revert_rows``), whose round trip f(fbar) = t checks it.

    The pair is cut, and its 1/g made and proven, by ``_prepare``, once
    per pair and answer truncation, so the transfer route and the
    orthogonality check of the same pair at the same n redo neither.
    Since fbar^j (1/g)(fbar) = sum_k (1/g)[k] fbar^(j+k) (Roman, *The
    Umbral Calculus*, 1984, ch. 2), the sum is of 1/g itself,
    (n!/j!) sum_{k <= n - j} (1/g)[k] rows[j + k][n] / dens[j + k]: the
    integers n! rows[j + k][n] (E / dens[j + k]) over E j!, E the lcm of
    dens[j .. n], packed against the proof's layout of 1/g, and no
    composition is made.
    """
    pair, ginv, layout, _ = _prepare(pair, n_max)
    _, (row_dens, rows) = pair.f._revert_rows()  # fbar is read through its table
    fact = _factorials(n_max + 1)
    cols, dens = [], []
    # column (n, j) pairs ginv[k] with n! fbar^(j+k)[n] = X[j + k] / row_dens[j + k]
    # over E j!, E = lcms[j][n - j] the lcm of row_dens[j .. n]; quots[j]
    # holds E // row_dens[j .. n], made afresh only when E grows
    lcms = [list(accumulate(row_dens[j:], lcm)) for j in range(n_max + 1)]
    quots = [[] for _ in range(n_max + 1)]
    for n in range(n_max + 1):
        X = [fact[n] * row[n] for row in rows[: n + 1]]
        for j in range(n + 1):
            E = lcms[j][n - j]
            if n > j and E == lcms[j][n - j - 1]:
                quots[j].append(E // row_dens[n])
            else:
                quots[j] = [E // d for d in row_dens[j : n + 1]]
            cols.append(list(map(mul, quots[j], X[j:])))
            dens.append(E * fact[j])
    values = _prefix_sums(ginv.coeffs, cols, dens, pair.field, layout)
    return [Poly._raw(pair.field, vec_trim(values[n * (n + 1) // 2 : (n + 1) * (n + 2) // 2]))
            for n in range(n_max + 1)]


def sheffer_transfer_all(pair: ShefferPair, n_max: int) -> list[Poly]:
    """[S_1 .. S_{n_max}] by the operator route, sharing 1/g, the inverse
    t/f and one layout of 1/g: every x^j coefficient of every S_n is a
    prefix sum of 1/g against integers from the rows of (t/f)^n
    (``fields._prefix_sums``, one call for all of them).  1/g is the one
    the GF route reads too, laid out by its proof: the pair's ginv when
    ``_proven_ginv`` proves it, else g's own inverse, proven alike.  The
    cut pair and the proof come from ``_prepare``, so a pair the GF route
    has prepared at the same n is neither cut nor proven again."""
    pair, ginv, layout, _ = _prepare(pair, nonnegative_integer("n_max", n_max, 1))
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
    values = _prefix_sums(ginv.coeffs, cols, dens, pair.field, layout)
    # S_n takes the n + 1 values after the 2 + 3 + .. + n of S_1 .. S_{n-1}
    return [Poly._raw(pair.field,
                      vec_trim(values[n * (n + 1) // 2 - 1 : (n + 1) * (n + 2) // 2 - 1]))
            for n in range(1, n_max + 1)]


def orthogonality_failure(pair: ShefferPair, polys: list[Poly], n_max: int):
    """First (n, k, value) with <g f^k | S_n> != n! delta_{n,k} for n, k <=
    n_max, the first in (k, n) order, or None.

    <g f^k | S_n> reads g f^k only through t^{deg S_n}, so the pair is cut
    to the largest degree among polys[0 .. n_max] (n_max when that is
    larger) and the same values are compared.  The cut pair and g's layout
    come from ``_prepare`` without a proof of 1/g, which the check does
    not read: for a sequence the routes made from the same pair object at
    the same n, the check neither cuts the pair nor lays out g again.

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
    packed integers decide at a slot that holds both sides; no sum is
    normalised.  The slot grows with n and never narrows, in steps of 64
    bits: a wider slot is as sound, so g, f and S_{n-1} are packed afresh
    only when it grows, S_n's packing serves as the next n's S_{n-1}, and
    condition n reads the packed g and f only through t^(deg S_n).  The
    slot width bounds the products over the whole layouts of g and f.

    A list that first fails a condition at S_N is read by the definition:
    the chain of products g f^k, each applied to S_N .. S_{n_max} in turn,
    each value over the common field of the pair and S_n.  S_m for m < N is
    not read: both conditions hold below N, so the same induction gives
    <g f^k | S_m> = m! delta_{m,k} for every k.  A list with a degree above
    n_max can fail a condition and still have no failure, since k stops at
    n_max."""
    if not isinstance(polys, Sequence):
        raise DomainError(f"S_0 .. S_n_max must be a sequence of Poly, got {type(polys).__name__}")
    if len(polys) < nonnegative_integer("n_max", n_max) + 1:
        raise DomainError(
            f"orthogonality up to n_max = {n_max} needs {n_max + 1} polynomials "
            f"S_0 .. S_{n_max}, got {len(polys)}"
        )
    polys = polys[: n_max + 1]
    for n, p in enumerate(polys):
        if not isinstance(p, Poly):
            raise DomainError(f"S_{n} must be a Poly, got {type(p).__name__}")
    pair, _, _, gl = _prepare(pair, max([n_max] + [p.degree for p in polys]), proof=False)
    fl, prev = _lay_out(pair.f.coeffs), _lay_out(())
    w = 0
    for n, p in enumerate(polys):
        pl = _lay_out(p.coeffs, _factorials(len(p.coeffs)))
        unit = [gl.q * pl.q * c for c in _zmul(gl.den, pl.den)] if n == 0 else []
        left = [prev.q * c for c in prev.den]
        right = [n * fl.q * pl.q * c for c in _zmul(fl.den, pl.den)]
        s = _slot_width(max([_dot_bound(gl, pl), _dot_bound(fl, pl) * sum(map(abs, left)),
                             prev.height * sum(map(abs, right))] + list(map(abs, unit))))
        if s > w:  # a wider slot is sound too, so w never narrows
            w = -(-s // 64) * 64
            G, F, Q = gl.packed(w), fl.packed(w), prev.packed(w)
        P, left, right = pl.packed(w), _pack(left, w), _pack(right, w)
        # both conditions read g and f only through t^(deg S_n): map stops at P's end
        fs = (sum(map(mul, F, P[j:])) for j in range(len(P)))  # packed x^j of f(t) S_n
        if sum(map(mul, G, P)) != _pack(unit, w) or any(
                a * left != right * b for a, b in zip_longest(fs, Q, fillvalue=0)):
            break
        prev, Q = pl, P
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
