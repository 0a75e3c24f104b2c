"""Executable identity registry.

Every registered identity is checked as two independent computations
compared in exact arithmetic:

* the left route drives the umbral operator engine (the transfer chain
  (1/g) x (t/f)^n x^{n-1}, or a direct series expansion for the
  series-level identities);
* the right route evaluates an explicit finite sum over family values.

The two routes share only the series primitives, so agreement is a genuine
cross-check.  Failures are reported with exact counterexamples; a known
misprint is arbitrated by a brute-force oracle and reported as
``paper_discrepancy`` carrying both the failing as-printed form and the
passing corrected form.

Most checks take one of two forms, each built by one helper:

* a basis sum (T2, T3, T4, R27, T6, P8, T10): the right route writes S_n
  in the basis of a named family P, S_n(x) = sum_{l<n} C(n-1, l) c(n, l)
  P_{n-l}(x) (the connection-constants theorem, Roman, *The Umbral
  Calculus*, ch. 3), so the table row holds only P and the coefficient
  formula c; :func:`_basis_sum` builds the polynomial, which is compared
  with the transfer route coefficient by coefficient;
* a triangle (C5, T7, R35, T9): two scalar formulas lhs(n, l) and
  rhs(n, l), compared by :func:`_triangle` for 1 <= n <= n_max, 0 <= l < n.

Four tags keep their own code because their shapes differ: DAE (a closed
form in shifted arguments, not a sum over a basis), R42 (walks l <= n and
arbitrates two printed forms), E14 (generating-function coefficients at a
fixed truncation, n <= 4) and E25 (series coefficients l <= 8 for every n).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import DomainError, UnknownIdentity
from .families import (
    _bernoulli_2nd_pair,
    _bernoulli_pair,
    _daehee_pair,
    _euler_pair,
    _frobenius_euler_pair,
    _frobenius_eulerian_pair,
    _lam_field,
    _narumi_pair,
    _p8_pair,
    _poisson_charlier_pair,
    _r27_pair,
    _t10_pair,
    _t2_pair,
    _t3_pair,
    _t4_pair,
    _t6_pair,
    bernoulli_2nd,
    bernoulli_number,
    bernoulli_poly,
    bernoulli_value,
    binom,
    euler_poly,
    frobenius_euler_poly,
    frobenius_eulerian_poly,
    gen_binom,
    multinomial,
    narumi_number,
    narumi_value,
    poisson_charlier,
    stirling1,
    stirling2,
)
from .series import Poly, exp_ct, log1p_series, one_plus_t_pow, t_series
from .fields import QQ
from .umbral import ShefferPair, _check_n_max, answer_trunc, sheffer_transfer_all


@dataclass(frozen=True)
class Counterexample:
    indices: tuple[int, ...]
    lhs: str
    rhs: str


@dataclass(frozen=True)
class IdentityReport:
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @property
    def ok(self) -> bool:
        return self.status == "pass" or (
            self.status == "paper_discrepancy" and bool(self.note)
        )


# ---------------------------------------------------------------------------
# parameter schema
# ---------------------------------------------------------------------------
#
# A domain takes (parameter name, value) and returns the value in canonical
# form, or raises DomainError; None stands for a value not given.

_SYMBOLIC = (None, "sym", "L", "symbolic")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def integer_order(key, v):
    if _is_int(v):
        return v
    raise DomainError(f"{key} must be an integer")


def nonnegative_integer(key, v):
    if _is_int(v) and v >= 0:
        return v
    raise DomainError(f"{key} must be a nonnegative integer")


def nonzero_rational(key, v):
    if v is not None and (q := rational(key, v)):
        return q
    raise DomainError(f"{key} != 0 is required")


def rational(key, v):
    """An exact rational: a float (a binary approximation) or a bool is not."""
    if not isinstance(v, (float, bool)):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError, TypeError):
            pass
    raise DomainError(f"{key} must be an exact rational, got {v!r}")


def lambda_value(key, v):
    """None for the symbol L; otherwise a rational other than 1."""
    return None if v in _SYMBOLIC else _lam_field(rational(key, v))[1]


@dataclass(frozen=True)
class Param:
    """One parameter: its name, its domain, and the value taken when it is
    not given (None: the domain decides)."""

    name: str
    domain: object
    default: object = None


@dataclass(frozen=True)
class Entry:
    """One row of the registry table.  ``pair`` builds (g, f) from a
    truncation and the parameters; ``check`` is the right-hand side
    S_n(x) for a tag with a pair (compared with the transfer route) and
    otherwise a runner returning (status, counterexamples, note)."""

    params: tuple[Param, ...]
    pair: object = None
    check: object = None
    description: str = ""


# the integer order a of g, and the Frobenius parameter lambda
ORDER = Param("a", integer_order, 1)
LAM = Param("lam", lambda_value)


def check_params(name: str, params: dict) -> dict:
    """The parameters of a registry name in canonical form, schema order."""
    entry = REGISTRY[name]
    unknown = set(params) - {q.name for q in entry.params}
    if unknown:
        raise DomainError(f"{name} does not take parameter(s) {sorted(unknown)}")
    out = {}
    for q in entry.params:
        v = params.get(q.name)
        try:
            out[q.name] = q.domain(q.name, q.default if v is None else v)
        except DomainError as exc:
            raise type(exc)(f"{name}: {exc}") from None
    return out


def build_pair(name: str, T: int, order: int, params: dict) -> ShefferPair:
    """The Sheffer pair of a registry name truncated at T.  ``order`` fills
    the integer-order parameter if the name takes one; entries of ``params``
    that the name does not take are ignored."""
    entry = REGISTRY.get(name)
    if entry is None or entry.pair is None:
        raise DomainError(f"no Sheffer pair named {name!r}")
    given = {q.name: order if q.domain is integer_order else params.get(q.name)
             for q in entry.params}
    # built with a margin so both members come out truncated at exactly T
    g, f = entry.pair(T + 2, **check_params(name, given))
    return ShefferPair(g.truncate(T), f.truncate(T))


def _render_param(v) -> str:
    return "L" if v is None else str(v)


# ---------------------------------------------------------------------------
# route helpers
# ---------------------------------------------------------------------------


def _transfer_vs_sum(tag, p, n_max, rhs):
    """(indices, lhs, rhs) per coefficient: the transfer route over the
    tag's pair, built at the answer's truncation, against the explicit sum
    rhs(p, n)."""
    pair = build_pair(tag, answer_trunc(n_max), p.get("a", 1), p)
    lhs = sheffer_transfer_all(pair, n_max)
    for n in range(1, n_max + 1):
        right = rhs(p, n)
        for j in range(max(lhs[n - 1].degree, right.degree) + 1):
            yield (n, j), lhs[n - 1].coefficient(j), right.coefficient(j)


def _compare(triples):
    """(status, counterexamples, note) from (indices, lhs, rhs) triples."""
    ces = [Counterexample(idx, str(lv), str(rv)) for idx, lv, rv in triples if lv != rv]
    return ("fail" if ces else "pass"), ces, ""


@lru_cache(maxsize=None)
def _b2_powers(c, n_max: int, T: int):
    """(t(1+t)^c / log(1+t))^n for n = 1..n_max, all truncated at T."""
    u = log1p_series(QQ, T + 1).shift_div(1).inverse() * one_plus_t_pow(QQ, c, T)
    out = [u]
    for _ in range(n_max - 1):
        out.append(out[-1] * u)
    return tuple(out)


def _check_b2(n, l) -> None:
    """DomainError unless the convolution is stated: n >= 1 factors, l >= 0."""
    if n < 1 or l < 0:
        raise DomainError(f"the convolution needs n >= 1 and l >= 0, got n = {n}, l = {l}")


def b2_convolution(n: int, l: int, c) -> Fraction:
    """l! [t^l] (t(1+t)^c / log(1+t))^n — the n-fold convolution route."""
    _check_b2(n, l)
    c = Fraction(c)
    series_n = _b2_powers(c, n, l + 1)[n - 1]
    return factorial(l) * series_n.coeffs[l]


def b2_convolution_enumerated(n: int, l: int, c) -> Fraction:
    """Literal composition enumeration of the same convolution (slow oracle)."""
    _check_b2(n, l)
    c = Fraction(c)
    values = [bernoulli_2nd(i, c) for i in range(l + 1)]

    def rec(slots: int, remaining: int):
        if slots == 1:
            yield (remaining,)
            return
        for first in range(remaining + 1):
            for rest in rec(slots - 1, remaining - first):
                yield (first,) + rest

    total = Fraction(0)
    for parts in rec(n, l):
        prod = Fraction(multinomial(parts))
        for p in parts:
            prod *= values[p]
        total += prod
    return total


# ---------------------------------------------------------------------------
# the checks: two shapes, plus the four tags with their own code
# ---------------------------------------------------------------------------


def _basis_sum(basis, coef):
    """The right-hand side S_n(x) = sum_{l<n} C(n-1, l) coef(p, n, l)
    basis(p, n-l)(x) of a pair tag: its sequence in the basis of a named
    family, with closed-form connection coefficients."""

    def rhs(p, n):
        terms = [basis(p, n - l) * (binom(n - 1, l) * coef(p, n, l)) for l in range(n)]
        return sum(terms[1:], terms[0])

    return rhs


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
    b, c = p["b"], p["c"]
    return sum(binom(k, l) * _s2_over_binom(n, l) * c ** (n + l) * (-n * b) ** (k - l)
               for l in range(k + 1))


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


def _rhs_DAE(p, n):
    fld, lam_el = _lam_field(p["lam"])
    x = Poly.x(fld)
    x_plus_1 = x + fld.one
    base = bernoulli_poly(n, n - 1).to_field(fld)
    out = Poly(fld)
    for l in range(n + 1):
        up = base.shift_arg(fld.coerce(l + 1))
        down = base.shift_arg(fld.coerce(l))
        term = x_plus_1 * up - (x * down) * lam_el
        out = out + term * binom(n, l)
    return out * (fld.one / (fld.one - lam_el))


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
        acc = None
        for n in range(1, n_max + 1):
            acc = base if acc is None else acc * base
            for l in range(l_max + 1):
                rhs = Fraction(n, n + l) * bernoulli_number(n + l, l) / factorial(l)
                yield (n, l), acc.coeffs[l], rhs

    return _compare(gen())


# ---------------------------------------------------------------------------
# the registry table
# ---------------------------------------------------------------------------
#
# Every name with its parameter schema, Sheffer pair, check and description.
# The named families (no check) come first; the identity tags follow in
# registry order.  A parameter not given takes its Param default, here and
# only here, for the family command and verify_identity alike.

REGISTRY = {
    "bernoulli": Entry((ORDER,), _bernoulli_pair),
    "euler": Entry((ORDER,), _euler_pair),
    "frobenius_euler": Entry((ORDER, LAM), _frobenius_euler_pair),
    "frobenius_eulerian": Entry((ORDER, LAM), _frobenius_eulerian_pair),
    "narumi": Entry((ORDER,), _narumi_pair),
    "daehee": Entry((LAM,), _daehee_pair),
    "poisson_charlier": Entry((Param("a", nonzero_rational, 1),), _poisson_charlier_pair),
    "bernoulli_2nd": Entry((), _bernoulli_2nd_pair),
    "T2": Entry(
        (ORDER, Param("b", nonzero_rational, 1), LAM), _t2_pair,
        _basis_sum(_fe_basis, lambda p, n, l: _s2_over_binom(n, l) * p["b"] ** (n + l)),
        "pair (((e^t-L)/(1-L))^a, t^2/(e^{bt}-1)) vs Stirling-2 / Frobenius-Euler sum",
    ),
    "T3": Entry(
        (ORDER, Param("b", rational, 0), Param("c", nonzero_rational, 1)), _t3_pair,
        _basis_sum(_bernoulli_basis, _t3_coef),
        "pair (((e^t-1)/t)^a, t^2 e^{bt}/(e^{ct}-1)) vs Stirling-2 / Bernoulli double sum",
    ),
    "T4": Entry(
        (ORDER,), _t4_pair,
        _basis_sum(lambda p, k: euler_poly(p["a"], k), lambda p, n, l: narumi_number(n, l)),
        "pair (((e^t+1)/2)^a, t^2/log(1+t)) vs Narumi-number / Euler sum",
    ),
    "C5": Entry(
        (), None,
        _triangle(lambda p, n, l: Fraction(narumi_number(n, l), n),
                  lambda p, n, l: Fraction(bernoulli_number(n + l, l), n + l)),
        "Narumi numbers vs higher-order Bernoulli numbers: N_l^(n)/n = B_l^(n+l)/(n+l)",
    ),
    "R27": Entry(
        (ORDER,), _r27_pair,
        _basis_sum(_bernoulli_basis, lambda p, n, l: narumi_number(-n, l)),
        "pair (((e^t-1)/t)^a, log(1+t)) vs negative-order Narumi / Bernoulli sum",
    ),
    "T6": Entry(
        (ORDER, Param("c", nonzero_rational, 1), LAM), _t6_pair,
        _basis_sum(_fe_basis, lambda p, n, l: bernoulli_value(l - n + 1, l, p["c"] * n + 1)),
        "pair (((e^t-L)/(1-L))^a, log(1+t)/(1+t)^c) vs shifted-Bernoulli / Frobenius-Euler sum",
    ),
    "T7": Entry(
        (Param("c", nonzero_rational, 1),), None,
        _triangle(lambda p, n, l: b2_convolution(n, l, p["c"]),
                  lambda p, n, l: bernoulli_value(l - n + 1, l, p["c"] * n + 1)),
        "n-fold convolution of 2nd-kind Bernoulli values vs B_l^(l-n+1)(cn+1)",
    ),
    "R35": Entry(
        (Param("c", nonzero_rational, 1),), None,
        _triangle(lambda p, n, l: narumi_value(-n, l, p["c"] * n),
                  lambda p, n, l: b2_convolution(n, l, p["c"])),
        "N_l^(-n)(cn) vs the same n-fold convolution of 2nd-kind Bernoulli values",
    ),
    "P8": Entry(
        (ORDER, Param("c", nonzero_rational, 1), LAM), _p8_pair,
        _basis_sum(_fte_basis, lambda p, n, l: narumi_value(n, l, -p["c"] * n)),
        "pair (((e^{(L-1)t}-L)/(1-L))^a, t^2(1+t)^c/log(1+t)) vs shifted-Narumi / Eulerian sum",
    ),
    "T9": Entry(
        (Param("c", nonzero_rational, 1),), None,
        _triangle(lambda p, n, l: narumi_value(n, l, -p["c"] * n), _t9_rhs),
        "N_l^(n)(-cn) vs Stirling-1 / generalized-binomial sum",
    ),
    "R42": Entry(
        (), None, _run_R42,
        "N_l^(n) vs Stirling-number-over-binomial form (misprint arbitration)",
    ),
    "T10": Entry(
        (ORDER, Param("b", nonzero_rational, 1), Param("c", nonzero_rational, 1), LAM,
         Param("m", nonnegative_integer)),
        _t10_pair,
        _basis_sum(_fte_basis, lambda p, n, l: (-1) ** (p["m"] * n) * (n * p["c"]) ** l
                   * poisson_charlier(p["m"] * n, -n * p["c"] / p["b"], x_eval=l)),
        "pair (((e^{(L-1)t}-L)/(1-L))^a, t/(e^{ct}(1+bt)^m)) vs Poisson-Charlier-value sum",
    ),
    "DAE": Entry(
        (LAM,), _daehee_pair, _rhs_DAE,
        "transfer route for the pair ((1-L)/(e^t-L), (e^t-1)/(e^t+1)) vs its closed form",
    ),
    "E14": Entry(
        (Param("a", nonzero_rational, 1),), None, _run_E14,
        "EGF of Poisson-Charlier values at integers vs e^t((t-a)/a)^n",
    ),
    "E25": Entry(
        (), None, _run_E25,
        "(log(1+t)/t)^n coefficients vs n B_l^(n+l)/((n+l) l!)",
    ),
}

FAMILY_NAMES = tuple(name for name, entry in REGISTRY.items() if entry.check is None)
IDENTITY_TAGS = tuple(name for name, entry in REGISTRY.items() if entry.check is not None)


def _identity(tag: str) -> Entry:
    entry = REGISTRY.get(tag)
    if entry is None or entry.check is None:
        raise UnknownIdentity(f"unknown identity tag {tag!r}")
    return entry


def verify_identity(tag: str, params: dict | None = None, n_max: int = 6) -> IdentityReport:
    """Check one registry identity exactly over 1 <= n <= n_max.

    A parameter not given takes its default in ``REGISTRY`` (lambda: the
    symbol L).  Raises UnknownIdentity for a bad tag and DomainError for
    parameters outside the identity's stated domain, or for T10's ``m``
    when it is not given.
    """
    entry = _identity(tag)
    _check_n_max(n_max)
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    p = check_params(tag, params or {})
    if entry.pair is None:
        status, ces, note = entry.check(p, n_max)
    else:
        status, ces, note = _compare(_transfer_vs_sum(tag, p, n_max, entry.check))
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
    return _identity(tag).description
