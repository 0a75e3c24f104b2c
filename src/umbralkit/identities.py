"""Executable identity registry.

Every registered identity is checked as two independent computations
compared in exact arithmetic:

* the left route drives the umbral operator engine (the transfer chain
  (1/g) x (t/f)^n x^{n-1}, or a direct series expansion for the
  series-level identities);
* the right route evaluates an explicit finite sum over family values.

The right route never calls the umbral engine.  Its Stirling numbers and
falling factorials are integer definitions that read no series; its Euler
and Frobenius-type values come from integer Stirling rows
(``families._frobenius_g``); its Bernoulli and Narumi values are each one
dot of a base series, (t/(e^t-1))^a or (log(1+t)/t)^a, against e^{xt} or
(1+t)^x, so those checks share the series primitives that build the bases
(products, ``pow_int``, ``inverse``) with the left route and nothing else.
Agreement is a genuine cross-check.  Failures are reported with exact
counterexamples; a known misprint is arbitrated by a brute-force oracle and
reported as ``paper_discrepancy`` carrying both the failing as-printed form
and the passing corrected form.

Most checks take one of two forms, each built by one helper:

* a connection (T2, T3, T4, R27, T6, P8, T10): the paper writes
  S_n ~ (g, f) in the basis of a named Appell family P_k ~ (g, t) with the
  same g, S_n(x) = sum_{l<n} C(n-1, l) c(n, l) P_{n-l}(x), so the table row
  holds only P and the coefficient formula c.  By the connection-constants
  theorem (Roman, *The Umbral Calculus*, ch. 3) those coefficients are the
  coefficients of the associated sequence s_n ~ (1, f), and the identity
  holds exactly when two checks do, both made by :func:`_connection`:
  each P_k against the transfer route of (g, t), a failure indexed (k, j),
  and the x^m coefficient of s_n by the transfer route against
  C(n-1, n-m) c(n, n-m), over Q since f is free of L, a failure indexed
  (n, m); j and m are powers of x.  P and the pair's g are read from one
  kept table, so :func:`_connection` also checks g against a plain
  construction, a failure indexed (0, m) for t^m;
* a triangle (C5, T7, R35, T9): two scalar formulas lhs(n, l) and
  rhs(n, l), compared by :func:`_triangle` for 1 <= n <= n_max, 0 <= l < n.

Four tags keep their own code because their shapes differ: DAE (a closed
form in shifted arguments, not a sum over a basis), R42 (walks l <= n and
arbitrates two printed forms), E14 (generating-function coefficients at a
fixed truncation, n <= 4) and E25 (series coefficients l <= 8 for every n).

This module holds the checking half of the registry, ``CHECKS`` (tag ->
check, description).  The other half, every name's parameters and pair
builder, is ``families.SCHEMAS``, beside the builders; a tag is checked
with the parameters and pair declared there.  This module keeps only the
default grid's values: ``default_grid`` gives each tag the product of its
``SCHEMAS`` parameters over ``_GRID``, with b and c drawn together from
``_BC``, so a pair tag's rows are its g values (a, lambda) times its f
values (b, c, m).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import product
from math import factorial

from .errors import (
    _SYMBOLIC, MAX_PAIR_TRUNC, DomainError, UnknownIdentity, nonnegative_integer, rational,
)
from .families import (
    SCHEMAS,
    _lam_element,
    _narumi_base,
    bernoulli_number,
    bernoulli_poly,
    bernoulli_value,
    binom,
    build_pair,
    check_params,
    euler_poly,
    frobenius_euler_poly,
    frobenius_eulerian_poly,
    gen_binom,
    narumi_number,
    narumi_value,
    poisson_charlier,
    stirling1,
    stirling2,
)
from .series import Poly, Series, _kept, exp_ct, log1p_series, one, one_plus_t_pow, t_series
from .fields import QQ, vec_dot
from .record import Record
from .umbral import ShefferPair, answer_trunc, sheffer_transfer_all

__all__ = [
    "IDENTITY_TAGS",
    "Counterexample",
    "IdentityReport",
    "aggregate_pass",
    "b2_convolution",
    "default_grid",
    "describe",
    "run_registry",
    "verify_identity",
]


class Counterexample(Record):
    indices: tuple[int, ...]
    lhs: str
    rhs: str


class IdentityReport(Record):
    id: str
    params: tuple[tuple[str, str], ...]
    n_max: int
    status: str  # pass | fail | paper_discrepancy | domain_error
    counterexamples: tuple[Counterexample, ...] = ()
    note: str = ""

    def to_dict(self) -> dict:
        """The report's own fields, as JSON takes them: ``params`` as a dict,
        and each counterexample as a dict of its fields, indices a list."""
        ces = [{**vars(c), "indices": list(c.indices)} for c in self.counterexamples]
        return {**vars(self), "params": dict(self.params), "counterexamples": ces}

    @property
    def ok(self) -> bool:
        return self.status == "pass" or (
            self.status == "paper_discrepancy" and bool(self.note)
        )


def _render_param(v) -> str:
    return "L" if v is None else str(v)


# ---------------------------------------------------------------------------
# route helpers
# ---------------------------------------------------------------------------


def _route_vs(pair, n_max, polys):
    """(indices, lhs, rhs) per coefficient: the transfer route over ``pair``
    against the polynomials [S_1 .. S_{n_max}], indexed (n, j) for the x^j
    coefficient of S_n."""
    lhs = sheffer_transfer_all(pair, n_max)
    for n, left, right in zip(range(1, n_max + 1), lhs, polys):
        for j in range(max(left.degree, right.degree) + 1):
            yield (n, j), left.coefficient(j), right.coefficient(j)


def _compare(triples):
    """(status, counterexamples, note) from (indices, lhs, rhs) triples."""
    ces = [Counterexample(idx, str(lv), str(rv)) for idx, lv, rv in triples if lv != rv]
    return ("fail" if ces else "pass"), ces, ""


@_kept
def _b2_power(c, n: int, T: int):
    """u^n mod t^T, u = t(1+t)^c / log(1+t)."""
    return (_narumi_base(-1, T) * one_plus_t_pow(QQ, c, T)).pow_int(n)


def b2_convolution(n: int, l: int, c) -> Fraction:
    """l! [t^l] u^n, u = t(1+t)^c / log(1+t) — the n-fold convolution
    route, stated for n >= 1 factors and l >= 0.

    One power u^n per (c, n), read at truncation max(n, l + 1) from the
    power kept at the longest truncation asked for (``_b2_power``,
    ``series._kept``): the t^l coefficient of a power depends only on u
    through t^l, so a longer power is read as the shorter one.  The
    triangles of T7 and R35 read l < n, so one power serves every l of
    an n, and R35 reads the powers T7 made."""
    n, l, c = nonnegative_integer("n", n, 1), nonnegative_integer("l", l), rational("c", c)
    return factorial(l) * _b2_power(c, n, max(n, l + 1)).coeffs[l]


# ---------------------------------------------------------------------------
# the checks: two shapes, plus the four tags with their own code
# ---------------------------------------------------------------------------


def _connection(basis, coef, plain_g):
    """The check of a pair tag whose sequence is written in the basis of a
    named Appell family P with the tag's own g, S_n = sum_{l<n} C(n-1, l)
    coef(p, n, l) P_{n-l}.  By the connection-constants theorem that holds
    exactly when both halves do:

    * the basis: basis(p, k) for k = 1 .. n_max against the transfer route
      of (g, t), which keeps the pair's ginv, indexed (k, j);
    * the scalars: the x^(n-l) coefficient of s_n ~ (1, f), the associated
      sequence of f, against C(n-1, l) coef(p, n, l), indexed (n, n - l)
      and compared over Q.

    The basis and the pair's g come from one kept builder, so a builder
    wrong the same way on both sides passes the basis half.  So the pair's
    g through t^min(T - 1, 7) is also compared with plain_g(p, min(T, 8)),
    the same series made by the Series kernel alone, reading no kept table,
    indexed (0, m) for t^m, an index no half uses.

    The triples come n by n, P_n's before s_n's, and g's last."""

    def check(pair, p, n_max):
        T = pair.g.trunc
        P = _route_vs(ShefferPair(pair.g, t_series(QQ, T), pair.ginv), n_max,
                      [basis(p, k) for k in range(1, n_max + 1)])
        # s_n's coefficients for l = n-1 .. 0 are those of x^1 .. x^n
        s = _route_vs(ShefferPair(one(QQ, T), pair.f), n_max, [
            Poly(QQ, [0, *[binom(n - 1, l) * coef(p, n, l) for l in range(n)][::-1]])
            for n in range(1, n_max + 1)])
        g = plain_g(p, min(T, 8)).coeffs
        return [*sorted([*P, *s], key=lambda triple: triple[0][0]),
                *(((0, m), pair.g.coeffs[m], c) for m, c in enumerate(g))]

    return check


def _triangle(lhs, rhs):
    """The runner comparing lhs(p, n, l) with rhs(p, n, l) over
    1 <= n <= n_max, 0 <= l < n."""

    def run(p, n_max):
        return _compare(
            ((n, l), lhs(p, n, l), rhs(p, n, l))
            for n in range(1, n_max + 1)
            for l in range(n)
        )

    return run


# Bases and coefficient formulas name the family functions inside their
# bodies, not as captured objects, so a wrapper or patch installed on the
# module attribute (perfbench/tracing.py, the mutation tests) reaches them.


def _fe_basis(p, k):
    return frobenius_euler_poly(p["a"], k, p["lam"])


def _fte_basis(p, k):
    return frobenius_eulerian_poly(p["a"], k, p["lam"])


def _bernoulli_basis(p, k):
    return bernoulli_poly(p["a"], k)


# the plain g of each basis: a power of a series with constant term 1, made
# by exp_ct or its coefficients 1/(k+1)!, and ``pow_field``, exp(a log), so
# that a negative a takes no Q(L) inverse, as no check over Q(L) does

def _fe_g(p, T, rate=False):
    # ((e^(ut) - lambda)/(1 - lambda))^a, u = lambda - 1 when rate, else 1;
    # T4's Euler g is lambda = -1
    lam = _lam_element(p.get("lam", -1))
    e = exp_ct(QQ, lam - 1 if rate else 1, T)
    return ((e - lam) * (1 / (1 - lam))).pow_field(p["a"])


def _fte_g(p, T):
    return _fe_g(p, T, rate=True)


def _bernoulli_g(p, T):
    # ((e^t - 1)/t)^a
    return Series(QQ, [Fraction(1, factorial(k + 1)) for k in range(T)]).pow_field(p["a"])


def _s2_over_binom(n, l):
    return Fraction(stirling2(l + n, n), binom(l + n, n))


def _t3_coef(p, n, k):
    # sum_{l+j=k} C(k, l) S2(l+n, n)/C(l+n, n) c^(n+l) (-nb)^j, the double
    # sum over (l, j) folded by C(n-1, l) C(n-1-l, j) = C(n-1, k) C(k, l):
    # one dot with the integer weights C(k, l); (-nb)^0 = 1 when b = 0
    b, c = p["b"], p["c"]
    return vec_dot([_s2_over_binom(n, l) for l in range(k + 1)],
                   [c ** (n + l) * (-n * b) ** (k - l) for l in range(k + 1)],
                   w=[binom(k, l) for l in range(k + 1)])


def _t9_rhs(p, n, l):
    # l! sum_k n!/(n+k)! S1(k+n, n) C(-nc, l-k)
    return factorial(l) * vec_dot(
        [Fraction(factorial(n), factorial(n + k)) * stirling1(k + n, n) for k in range(l + 1)],
        [gen_binom(-n * p["c"], l - k) for k in range(l + 1)])


_R42_NOTE = (
    "as-printed form N_l^(n) = S2(l+n,n)/C(l+n,n) fails (first at (n,l)=(1,1): "
    "expansion of (log(1+t)/t)^n gives -1/2, the printed form +1/2); the "
    "Stirling-1 variant S1(l+n,n)/C(l+n,n) passes for every checked (n,l). "
    "Oracle: direct coefficient extraction from (log(1+t)/t)^n, cross-checked "
    "against the falling-factorial Stirling-1 table. Counterexamples list the "
    "as-printed form; the companion sum over (log(1+t))^n uses the row index "
    "n, not a free index, in S1(l+n, .)."
)


def _run_R42(p, n_max):
    """The as-printed Stirling-2 form, arbitrated against the Stirling-1 one."""
    # checked through l = n (not just l = n-1): both Stirling forms are
    # defined there and the wider range pins the first failure at (1, 1)
    as_printed = []
    corrected = []
    for n in range(1, n_max + 1):
        for l in range(n + 1):
            lhs = narumi_number(n, l)
            s2_form = stirling2(l + n, n) / binom(l + n, n)
            s1_form = stirling1(l + n, n) / binom(l + n, n)
            if lhs != s2_form:
                as_printed.append(Counterexample((n, l), str(lhs), str(s2_form)))
            if lhs != s1_form:
                corrected.append(Counterexample((n, l), str(lhs), str(s1_form)))
    if not as_printed:
        return "pass", [], ""
    if not corrected:
        return "paper_discrepancy", as_printed, _R42_NOTE
    return "fail", as_printed + corrected, "both forms fail"


def _check_DAE(pair, p, n_max):
    lam_el = _lam_element(p["lam"])
    x = Poly.x(QQ)
    rows = []
    for n in range(1, n_max + 1):
        # with u(x) = sum_l C(n, l) B(x + l), B = B_{n-1}^{(n)}, the closed
        # form sum_l C(n, l) ((x + 1) B(x + l + 1) - L x B(x + l)) / (1 - L)
        # is ((x + 1) u(x + 1) - L x u(x)) / (1 - L)
        base = bernoulli_poly(n, n - 1)
        u = sum((base.shift_arg(l) * binom(n, l) for l in range(n + 1)), Poly(QQ))
        rows.append(((x + 1) * u.shift_arg(1) - x * u * lam_el) * (1 / (1 - lam_el)))
    return _route_vs(pair, n_max, rows)


def _run_E14(p, n_max):
    a = p["a"]
    T = 12
    e_t = exp_ct(QQ, 1, T)
    ratio = (t_series(QQ, T) - a) * (Fraction(1) / a)

    def gen():
        for n in range(1, min(n_max, 4) + 1):
            pc = poisson_charlier(n, a)
            rhs = e_t * ratio.pow_int(n)
            for l in range(T):
                yield (n, l), pc.eval(l) / factorial(l), rhs.coeffs[l]

    return _compare(gen())


def _run_E25(p, n_max):
    l_max = 8
    base = log1p_series(QQ, l_max + 2).shift_div(1)

    def gen():
        for n, power in enumerate(base.powers(n_max)[1:], 1):
            for l in range(l_max + 1):
                rhs = Fraction(n, n + l) * bernoulli_number(n + l, l) / factorial(l)
                yield (n, l), power.coeffs[l], rhs

    return _compare(gen())


# ---------------------------------------------------------------------------
# the check table
# ---------------------------------------------------------------------------
#
# Every identity tag, in registry order, with its check and description.  A
# tag's parameters and, where it has one, its Sheffer pair are its row of
# ``families.SCHEMAS``.  The check of a tag with a pair takes the pair, built
# at the answer's truncation, and yields (indices, lhs, rhs) triples; the
# check of a tag without one is a runner returning (status, counterexamples,
# note).

CHECKS = {
    "T2": (
        _connection(_fe_basis, lambda p, n, l: _s2_over_binom(n, l) * p["b"] ** (n + l), _fe_g),
        "pair (((e^t-L)/(1-L))^a, t^2/(e^{bt}-1)) vs Stirling-2 / Frobenius-Euler sum",
    ),
    "T3": (
        _connection(_bernoulli_basis, _t3_coef, _bernoulli_g),
        "pair (((e^t-1)/t)^a, t^2 e^{bt}/(e^{ct}-1)) vs Stirling-2 / Bernoulli double sum",
    ),
    "T4": (
        _connection(lambda p, k: euler_poly(p["a"], k), lambda p, n, l: narumi_number(n, l),
                    _fe_g),
        "pair (((e^t+1)/2)^a, t^2/log(1+t)) vs Narumi-number / Euler sum",
    ),
    "C5": (
        _triangle(lambda p, n, l: Fraction(narumi_number(n, l), n),
                  lambda p, n, l: Fraction(bernoulli_number(n + l, l), n + l)),
        "Narumi numbers vs higher-order Bernoulli numbers: N_l^(n)/n = B_l^(n+l)/(n+l)",
    ),
    "R27": (
        _connection(_bernoulli_basis, lambda p, n, l: narumi_number(-n, l), _bernoulli_g),
        "pair (((e^t-1)/t)^a, log(1+t)) vs negative-order Narumi / Bernoulli sum",
    ),
    "T6": (
        _connection(_fe_basis, lambda p, n, l: bernoulli_value(l - n + 1, l, p["c"] * n + 1),
                    _fe_g),
        "pair (((e^t-L)/(1-L))^a, log(1+t)/(1+t)^c) vs shifted-Bernoulli / Frobenius-Euler sum",
    ),
    "T7": (
        _triangle(lambda p, n, l: b2_convolution(n, l, p["c"]),
                  lambda p, n, l: bernoulli_value(l - n + 1, l, p["c"] * n + 1)),
        "n-fold convolution of 2nd-kind Bernoulli values vs B_l^(l-n+1)(cn+1)",
    ),
    "R35": (
        _triangle(lambda p, n, l: narumi_value(-n, l, p["c"] * n),
                  lambda p, n, l: b2_convolution(n, l, p["c"])),
        "N_l^(-n)(cn) vs the same n-fold convolution of 2nd-kind Bernoulli values",
    ),
    "P8": (
        _connection(_fte_basis, lambda p, n, l: narumi_value(n, l, -p["c"] * n), _fte_g),
        "pair (((e^{(L-1)t}-L)/(1-L))^a, t^2(1+t)^c/log(1+t)) vs shifted-Narumi / Eulerian sum",
    ),
    "T9": (
        _triangle(lambda p, n, l: narumi_value(n, l, -p["c"] * n), _t9_rhs),
        "N_l^(n)(-cn) vs Stirling-1 / generalized-binomial sum",
    ),
    "R42": (_run_R42, "N_l^(n) vs Stirling-number-over-binomial form (misprint arbitration)"),
    "T10": (
        _connection(_fte_basis, lambda p, n, l: (-1) ** (p["m"] * n) * (n * p["c"]) ** l
                    * poisson_charlier(p["m"] * n, -n * p["c"] / p["b"], x_eval=l), _fte_g),
        "pair (((e^{(L-1)t}-L)/(1-L))^a, t/(e^{ct}(1+bt)^m)) vs Poisson-Charlier-value sum",
    ),
    "DAE": (
        _check_DAE,
        "transfer route for the pair ((1-L)/(e^t-L), (e^t-1)/(e^t+1)) vs its closed form",
    ),
    "E14": (_run_E14, "EGF of Poisson-Charlier values at integers vs e^t((t-a)/a)^n"),
    "E25": (_run_E25, "(log(1+t)/t)^n coefficients vs n B_l^(n+l)/((n+l) l!)"),
}

IDENTITY_TAGS = tuple(CHECKS)


def _identity(tag: str):
    """The (check, description) of an identity tag; UnknownIdentity for any
    other value, a tag that is not a str included."""
    if not isinstance(tag, str) or tag not in CHECKS:
        raise UnknownIdentity(f"unknown identity tag {tag!r}")
    return CHECKS[tag]


def verify_identity(tag: str, params: dict | None = None, n_max: int = 6) -> IdentityReport:
    """Check one registry identity exactly over 1 <= n <= n_max.

    A parameter not given takes its default in ``families.SCHEMAS``
    (lambda: the symbol L).  Raises UnknownIdentity for a bad tag and
    DomainError for an n_max above ``MAX_PAIR_TRUNC - 1`` (the CLI's
    ``--n-max`` bound, checked for every tag before any work), for params
    that are not a mapping or None, for parameters outside the identity's
    stated domain, or for T10's ``m`` when it is not given.
    """
    check, _ = _identity(tag)
    nonnegative_integer("n_max", n_max, 1, MAX_PAIR_TRUNC - 1)
    p = check_params(tag, {} if params is None else params)
    if SCHEMAS[tag].pair is None:
        status, ces, note = check(p, n_max)
    else:
        pair = build_pair(tag, answer_trunc(n_max), p.get("a", 1), p)
        status, ces, note = _compare(check(pair, p, n_max))
    key = tuple((k, _render_param(v)) for k, v in p.items())
    return IdentityReport(tag, key, n_max, status, tuple(ces), note)


def verify_identity_report_errors(tag, params, n_max) -> IdentityReport:
    """Like verify_identity, but domain violations become a report, its
    params each name and value as a str, sorted; params that are not a
    mapping are reported as none."""
    try:
        return verify_identity(tag, params, n_max)
    except DomainError as exc:
        cleaned = sorted((str(k), _render_param(None if v in _SYMBOLIC else v))
                         for k, v in (params if isinstance(params, Mapping) else {}).items())
        return IdentityReport(tag, tuple(cleaned), n_max, "domain_error", (), str(exc))


# the default grid's values; which parameters a tag takes is its SCHEMAS row
_GRID = {"a": (1, 2, -1), "m": (1, 2), "lam": (None,)}
_BC = ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(-1)), (Fraction(1, 2), Fraction(1, 3)))


def default_grid() -> list[tuple[str, dict]]:
    """The default parameter grid, tag by tag in registry order: the rows of
    a tag are the product of the ``_GRID`` values of each parameter its
    ``SCHEMAS`` row lists and the ``_BC`` pairs, each cut down to whichever
    of b and c the tag takes (symbolic lambda, three (b, c) pairs, three
    orders a, two m)."""
    grid = []
    for tag in IDENTITY_TAGS:
        names = [q.name for q in SCHEMAS[tag].params]
        # the (b, c) pairs cut to the tag's own; a tag with neither keeps one empty cut
        bcs = dict.fromkeys(tuple((k, v) for k, v in zip("bc", bc) if k in names) for bc in _BC)
        axes = [[(k, v) for v in _GRID[k]] for k in names if k in _GRID]
        grid += [(tag, dict(bc + rest)) for bc in bcs for rest in product(*axes)]
    return grid


def run_registry(grid, n_max: int = 6) -> list[IdentityReport]:
    """Run every grid entry; deterministic (id, params) report order.  A
    DomainError, before any entry runs, for a grid that is not iterable or
    an entry that is not a (tag, params) tuple."""
    if not isinstance(grid, Iterable):
        raise DomainError(f"grid must be iterable, got {type(grid).__name__}")
    rows = list(grid)
    for row in rows:
        if not (isinstance(row, tuple) and len(row) == 2):
            raise DomainError(f"grid entry must be a (tag, params) tuple, got {row!r}")
    return sorted((verify_identity_report_errors(tag, params, n_max) for tag, params in rows),
                  key=lambda r: (r.id, r.params))


def aggregate_pass(reports) -> bool:
    """True iff every report passes or is a documented discrepancy.  A
    DomainError for anything but an iterable of IdentityReports."""
    if not isinstance(reports, Iterable):
        raise DomainError(f"reports must be iterable, got {type(reports).__name__}")
    reports = list(reports)
    for r in reports:
        if not isinstance(r, IdentityReport):
            raise DomainError(f"report must be an IdentityReport, got {r!r}")
    return all(r.ok for r in reports)


def describe(tag: str) -> str:
    return _identity(tag)[1]
