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
(``families._frobenius_g``); its Bernoulli and Narumi values are
coefficients of truncated series, so those checks share the series
primitives (products, ``pow_int``, ``inverse``) with the left route and
nothing else.  Agreement is a genuine cross-check.  Failures are reported
with exact counterexamples; a known misprint is arbitrated by a brute-force
oracle and reported as ``paper_discrepancy`` carrying both the failing
as-printed form and the passing corrected form.

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
  (n, m); j and m are powers of x;
* a triangle (C5, T7, R35, T9): two scalar formulas lhs(n, l) and
  rhs(n, l), compared by :func:`_triangle` for 1 <= n <= n_max, 0 <= l < n.

Four tags keep their own code because their shapes differ: DAE (a closed
form in shifted arguments, not a sum over a basis), R42 (walks l <= n and
arbitrates two printed forms), E14 (generating-function coefficients at a
fixed truncation, n <= 4) and E25 (series coefficients l <= 8 for every n).

This module holds the checking half of the registry, ``CHECKS`` (tag ->
check, description).  The other half, every name's parameters and pair
builder, is ``families.SCHEMAS``, beside the builders; a tag is checked
with the parameters and pair declared there.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import _SYMBOLIC, DomainError, UnknownIdentity, nonnegative_integer, rational
from .families import (
    MAX_PAIR_TRUNC,
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
from .series import Poly, exp_ct, log1p_series, one, one_plus_t_pow, t_series
from .fields import QQ
from .record import Record
from .umbral import ShefferPair, answer_trunc, sheffer_transfer_all


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
        return {
            "id": self.id,
            "params": {k: v for k, v in self.params},
            "n_max": self.n_max,
            "status": self.status,
            "counterexamples": [
                {"indices": list(c.indices), "lhs": c.lhs, "rhs": c.rhs}
                for c in self.counterexamples
            ],
            "note": self.note,
        }

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


def b2_convolution(n: int, l: int, c) -> Fraction:
    """l! [t^l] (t(1+t)^c / log(1+t))^n — the n-fold convolution route,
    stated for n >= 1 factors and l >= 0."""
    n, l, c = nonnegative_integer("n", n, 1), nonnegative_integer("l", l), rational("c", c)
    u = _narumi_base(-1, l + 1) * one_plus_t_pow(QQ, c, l + 1)
    return factorial(l) * u.pow_int(n).coeffs[l]


# ---------------------------------------------------------------------------
# the checks: two shapes, plus the four tags with their own code
# ---------------------------------------------------------------------------


def _connection(basis, coef):
    """The check of a pair tag whose sequence is written in the basis of a
    named Appell family P with the tag's own g, S_n = sum_{l<n} C(n-1, l)
    coef(p, n, l) P_{n-l}.  By the connection-constants theorem that holds
    exactly when both halves do:

    * the basis: basis(p, k) for k = 1 .. n_max against the transfer route
      of (g, t), indexed (k, j);
    * the scalars: the x^(n-l) coefficient of s_n ~ (1, f), the associated
      sequence of f, against C(n-1, l) coef(p, n, l), indexed (n, n - l)
      and compared over Q.

    The triples come n by n, P_n's before s_n's."""

    def check(pair, p, n_max):
        T = pair.g.trunc
        P = _route_vs(ShefferPair(pair.g, t_series(QQ, T)), n_max,
                      [basis(p, k) for k in range(1, n_max + 1)])
        # s_n's coefficients for l = n-1 .. 0 are those of x^1 .. x^n
        s = _route_vs(ShefferPair(one(QQ, T), pair.f), n_max, [
            Poly(QQ, [0, *[binom(n - 1, l) * coef(p, n, l) for l in range(n)][::-1]])
            for n in range(1, n_max + 1)])
        return sorted([*P, *s], key=lambda triple: triple[0][0])

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


def _s2_over_binom(n, l):
    return Fraction(stirling2(l + n, n), binom(l + n, n))


def _t3_coef(p, n, k):
    # sum_{l+j=k} C(k, l) S2(l+n, n)/C(l+n, n) c^(n+l) (-nb)^j, the double
    # sum over (l, j) folded by C(n-1, l) C(n-1-l, j) = C(n-1, k) C(k, l)
    # l runs down, so both powers are running products: c is nonzero, b may be 0
    b, c = p["b"], p["c"]
    total, c_pow, nb_pow = Fraction(0), c ** (n + k), Fraction(1)
    for l in range(k, -1, -1):
        total += binom(k, l) * _s2_over_binom(n, l) * c_pow * nb_pow
        c_pow /= c
        nb_pow *= -n * b
    return total


def _t9_rhs(p, n, l):
    # l! sum_k n!/(n+k)! S1(k+n, n) C(-nc, l-k)
    return factorial(l) * sum(
        Fraction(factorial(n), factorial(n + k)) * stirling1(k + n, n)
        * gen_binom(-n * p["c"], l - k)
        for k in range(l + 1)
    )


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
        _connection(_fe_basis, lambda p, n, l: _s2_over_binom(n, l) * p["b"] ** (n + l)),
        "pair (((e^t-L)/(1-L))^a, t^2/(e^{bt}-1)) vs Stirling-2 / Frobenius-Euler sum",
    ),
    "T3": (
        _connection(_bernoulli_basis, _t3_coef),
        "pair (((e^t-1)/t)^a, t^2 e^{bt}/(e^{ct}-1)) vs Stirling-2 / Bernoulli double sum",
    ),
    "T4": (
        _connection(lambda p, k: euler_poly(p["a"], k), lambda p, n, l: narumi_number(n, l)),
        "pair (((e^t+1)/2)^a, t^2/log(1+t)) vs Narumi-number / Euler sum",
    ),
    "C5": (
        _triangle(lambda p, n, l: Fraction(narumi_number(n, l), n),
                  lambda p, n, l: Fraction(bernoulli_number(n + l, l), n + l)),
        "Narumi numbers vs higher-order Bernoulli numbers: N_l^(n)/n = B_l^(n+l)/(n+l)",
    ),
    "R27": (
        _connection(_bernoulli_basis, lambda p, n, l: narumi_number(-n, l)),
        "pair (((e^t-1)/t)^a, log(1+t)) vs negative-order Narumi / Bernoulli sum",
    ),
    "T6": (
        _connection(_fe_basis, lambda p, n, l: bernoulli_value(l - n + 1, l, p["c"] * n + 1)),
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
        _connection(_fte_basis, lambda p, n, l: narumi_value(n, l, -p["c"] * n)),
        "pair (((e^{(L-1)t}-L)/(1-L))^a, t^2(1+t)^c/log(1+t)) vs shifted-Narumi / Eulerian sum",
    ),
    "T9": (
        _triangle(lambda p, n, l: narumi_value(n, l, -p["c"] * n), _t9_rhs),
        "N_l^(n)(-cn) vs Stirling-1 / generalized-binomial sum",
    ),
    "R42": (_run_R42, "N_l^(n) vs Stirling-number-over-binomial form (misprint arbitration)"),
    "T10": (
        _connection(_fte_basis, lambda p, n, l: (-1) ** (p["m"] * n) * (n * p["c"]) ** l
                    * poisson_charlier(p["m"] * n, -n * p["c"] / p["b"], x_eval=l)),
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
    """The (check, description) of an identity tag."""
    if tag not in CHECKS:
        raise UnknownIdentity(f"unknown identity tag {tag!r}")
    return CHECKS[tag]


def verify_identity(tag: str, params: dict | None = None, n_max: int = 6) -> IdentityReport:
    """Check one registry identity exactly over 1 <= n <= n_max.

    A parameter not given takes its default in ``families.SCHEMAS``
    (lambda: the symbol L).  Raises UnknownIdentity for a bad tag and
    DomainError for an n_max above ``MAX_PAIR_TRUNC - 1`` (the CLI's
    ``--n-max`` bound, checked for every tag before any work), for
    parameters outside the identity's stated domain, or for T10's ``m``
    when it is not given.
    """
    check, _ = _identity(tag)
    if nonnegative_integer("n_max", n_max, 1) > MAX_PAIR_TRUNC - 1:
        raise DomainError(f"n_max must be <= {MAX_PAIR_TRUNC - 1}, got {n_max}")
    p = check_params(tag, params or {})
    if SCHEMAS[tag].pair is None:
        status, ces, note = check(p, n_max)
    else:
        pair = build_pair(tag, answer_trunc(n_max), p.get("a", 1), p)
        status, ces, note = _compare(check(pair, p, n_max))
    key = tuple((k, _render_param(v)) for k, v in p.items())
    return IdentityReport(tag, key, n_max, status, tuple(ces), note)


def verify_identity_report_errors(tag, params, n_max) -> IdentityReport:
    """Like verify_identity, but domain violations become a report."""
    try:
        return verify_identity(tag, params, n_max)
    except DomainError as exc:
        cleaned = {}
        for k, v in (params or {}).items():
            cleaned[k] = _render_param(None if v in _SYMBOLIC else v)
        return IdentityReport(
            tag, tuple(sorted(cleaned.items())), n_max, "domain_error", (), str(exc)
        )


def default_grid() -> list[tuple[str, dict]]:
    """The default parameter grid: symbolic lambda, (b,c) pairs, orders, m."""
    bc_pairs = [(Fraction(1), Fraction(1)), (Fraction(2), Fraction(-1)), (Fraction(1, 2), Fraction(1, 3))]
    orders = [1, 2, -1]
    grid: list[tuple[str, dict]] = []
    for a in orders:
        for b, c in bc_pairs:
            grid.append(("T2", {"a": a, "b": b, "lam": None}))
            grid.append(("T3", {"a": a, "b": b, "c": c}))
            grid.append(("T6", {"a": a, "c": c, "lam": None}))
            grid.append(("P8", {"a": a, "c": c, "lam": None}))
            for m in (1, 2):
                grid.append(("T10", {"a": a, "b": b, "c": c, "lam": None, "m": m}))
        grid.append(("T4", {"a": a}))
        grid.append(("R27", {"a": a}))
        grid.append(("E14", {"a": Fraction(a)}))
    for _, c in bc_pairs:
        grid.append(("T7", {"c": c}))
        grid.append(("R35", {"c": c}))
        grid.append(("T9", {"c": c}))
    grid.extend([("C5", {}), ("R42", {}), ("DAE", {"lam": None}), ("E25", {})])
    return grid


def run_registry(grid, n_max: int = 6) -> list[IdentityReport]:
    """Run every grid entry; deterministic (id, params) report order."""
    reports = [verify_identity_report_errors(tag, params, n_max) for tag, params in grid]
    reports.sort(key=lambda r: (r.id, r.params))
    return reports


def aggregate_pass(reports) -> bool:
    """True iff every report passes or is a documented discrepancy."""
    return all(r.ok for r in reports)


def describe(tag: str) -> str:
    return _identity(tag)[1]
