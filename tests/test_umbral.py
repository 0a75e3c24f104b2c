"""Functionals, operators, and the two Sheffer constructions."""

from fractions import Fraction as F
from functools import lru_cache, reduce
from math import factorial
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umbralkit import (
    DomainError,
    LAMBDA,
    NotDelta,
    NotInvertible,
    Poly,
    QL,
    QQ,
    Series,
    ShefferPair,
    TruncationTooShort,
    UmbralError,
    answer_trunc,
    bernoulli_poly,
    bespoke_pair,
    binom,
    catalog_pair,
    eval_expr,
    exp_ct,
    functional_apply,
    monomial,
    one,
    operator_apply,
    orthogonality_failure,
    parse_expr,
    sheffer_gf,
    sheffer_transfer_all,
    t_series,
    FamilySpec,
)

from umbralkit import fields, umbral
from umbralkit.families import SCHEMAS
from umbralkit.record import Record
from umbralkit.fields import (
    RatFunc, _lay_out, _zmul, common_field, vec_add, vec_dot, vec_mul,
)
from umbralkit.series import _over_q

from conftest import plain_powers, qq_polys, qq_series, ratfuncs

T = 12


def bernoulli_pair(T=T):
    return catalog_pair(FamilySpec.make("bernoulli", 1), T=T)


class TestFunctional:
    def test_kronecker(self):
        assert functional_apply(monomial(QQ, 2, T), Poly.monomial(QQ, 2)) == 2
        assert functional_apply(monomial(QQ, 2, T), Poly.monomial(QQ, 3)) == 0
        assert functional_apply(monomial(QQ, 3, T), Poly.monomial(QQ, 3)) == 6

    def test_evaluation_functional(self):
        p = Poly(QQ, [0, -1, 1])  # x^2 - x
        assert functional_apply(exp_ct(QQ, 3, T), p) == p.eval(3) == 6

    def test_constant_polynomial(self):
        f = Series(QQ, [F(7, 3), 1, 4], trunc=T)
        assert functional_apply(f, Poly.constant(QQ, 1)) == F(7, 3)

    def test_truncation_guard(self):
        with pytest.raises(TruncationTooShort):
            functional_apply(Series(QQ, [1], trunc=2), Poly.monomial(QQ, 5))

    @given(p=qq_polys(max_degree=8))
    @settings(max_examples=40)
    def test_expansion_reconstructs(self, p):
        # sum_k <t^k|p>/k! x^k = p
        out = Poly(QQ)
        for k in range(9):
            v = functional_apply(monomial(QQ, k, 10), p)
            out = out + Poly.monomial(QQ, k, F(v, factorial(k)))
        assert out == p

    @given(f1=qq_series(9), f2=qq_series(9))
    @settings(max_examples=40)
    def test_product_functional_binomial_convolution(self, f1, f2):
        # <f1 f2 | x^n> = sum_i C(n,i) <f1|x^i> <f2|x^{n-i}>
        prod = f1 * f2
        for n in range(9):
            xn = Poly.monomial(QQ, n)
            lhs = functional_apply(prod, xn)
            rhs = sum(
                (
                    binom(n, i)
                    * functional_apply(f1, Poly.monomial(QQ, i))
                    * functional_apply(f2, Poly.monomial(QQ, n - i))
                    for i in range(n + 1)
                ),
                F(0),
            )
            assert lhs == rhs


class TestOperator:
    def test_derivative_action(self):
        assert operator_apply(monomial(QQ, 2, T), Poly.monomial(QQ, 3)) == Poly(
            QQ, [0, 6]
        )

    def test_shift_action(self):
        got = operator_apply(exp_ct(QQ, 1, T), Poly.monomial(QQ, 2))
        assert got == Poly(QQ, [1, 2, 1])  # (x+1)^2

    def test_identity_action(self):
        p = Poly(QQ, [F(1, 3), -2, 0, 5])
        assert operator_apply(one(QQ, T), p) == p

    def test_shift_is_argument_shift(self):
        p = Poly(QQ, [2, -1, 0, 3])
        a = F(5, 2)
        assert operator_apply(exp_ct(QQ, a, T), p) == p.shift_arg(a)

    @staticmethod
    def _by_derivatives(f, p):
        """The definition f(t) p(x) = sum_k f[k] p^(k)(x), as a chain of
        Poly derivatives and sums."""
        out = Poly(p.field)
        deriv = p
        for k in range(p.degree + 1):
            out = out + deriv * f.coeffs[k]
            deriv = deriv.derivative()
        return out

    @given(f=qq_series(9), p=qq_polys(max_degree=8))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_matches_derivative_chain_q(self, f, p):
        assert operator_apply(f, p) == self._by_derivatives(f, p)

    @given(
        fc=st.lists(ratfuncs(), min_size=5, max_size=5),
        pc=st.lists(ratfuncs(), min_size=0, max_size=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_closed_form_matches_derivative_chain_ql(self, fc, pc):
        # RatFunc equality compares canonical forms structurally
        f, p = Series(QL, fc), Poly(QL, pc)
        assert operator_apply(f, p) == self._by_derivatives(f, p)


class TestShefferPair:
    def test_validation(self):
        with pytest.raises(NotInvertible):
            ShefferPair(t_series(QQ, 6), t_series(QQ, 6))
        with pytest.raises(NotInvertible):
            ShefferPair(g=t_series(QQ, 6), f=t_series(QQ, 6))
        with pytest.raises(NotDelta):
            ShefferPair(one(QQ, 6), one(QQ, 6))
        with pytest.raises(NotDelta):
            ShefferPair(one(QQ, 6), monomial(QQ, 2, 6))

    def test_trunc(self):
        pair = ShefferPair(one(QQ, 6), t_series(QQ, 8))
        assert pair.trunc == 6
        assert pair == ShefferPair(g=one(QQ, 6), f=t_series(QQ, 8))
        with pytest.raises(AttributeError):
            pair.g = t_series(QQ, 6)

    def test_family_spec_is_a_value(self):
        spec = FamilySpec.make("bernoulli")
        assert spec == FamilySpec("bernoulli", 1, ()) == FamilySpec("bernoulli")
        assert {spec: 1}[FamilySpec("bernoulli", 1, ())] == 1
        with pytest.raises(AttributeError):
            spec.order = 2


class TestGFRoute:
    def test_monomials(self):
        pair = ShefferPair(one(QQ, T), t_series(QQ, T))
        polys = sheffer_gf(pair, 3)
        assert polys == [Poly.monomial(QQ, n) for n in range(4)]

    def test_bernoulli_first(self):
        polys = sheffer_gf(bernoulli_pair(), 1)
        assert polys[1] == Poly(QQ, [F(-1, 2), 1])

    def test_euler_second(self):
        pair = catalog_pair(FamilySpec.make("euler", 1), T=T)
        assert sheffer_gf(pair, 2)[2] == Poly(QQ, [0, -1, 1])

    def test_degrees_exact(self):
        pair = catalog_pair(FamilySpec.make("narumi", 2), T=T)
        polys = sheffer_gf(pair, 6)
        for n, p in enumerate(polys):
            assert p.degree == n

    def test_truncation_guard(self):
        with pytest.raises(TruncationTooShort):
            sheffer_gf(bernoulli_pair(T=4), 5)


class TestTransferRoute:
    def test_trivial_pair(self):
        pair = ShefferPair(one(QQ, T), t_series(QQ, T))
        assert sheffer_transfer_all(pair, 5)[-1] == Poly.monomial(QQ, 5)

    def test_bernoulli_second(self):
        assert sheffer_transfer_all(bernoulli_pair(), 2)[-1] == Poly(QQ, [F(1, 6), -1, 1])

    def test_daehee_closed_form(self):
        # independent closed form: (1/(1-L)) sum_l C(n,l)
        #   [(x+1) B_{n-1}^{(n)}(x+l+1) - L x B_{n-1}^{(n)}(x+l)]
        from umbralkit import QL
        from umbralkit.fields import LAMBDA

        pair = catalog_pair(FamilySpec.make("daehee", 1), T=T)
        x = Poly.x(QL)
        scale = QL.one / (QL.one - LAMBDA)
        for n in range(1, 5):
            base = bernoulli_poly(n, n - 1)
            rhs = Poly(QL)
            for l in range(n + 1):
                term = (x + 1) * base.shift_arg(l + 1) - (x * base.shift_arg(l)) * LAMBDA
                rhs = rhs + term * binom(n, l)
            rhs = rhs * scale
            assert sheffer_transfer_all(pair, n)[-1] == rhs

    def test_rejects_n_zero(self):
        with pytest.raises(DomainError):
            sheffer_transfer_all(bernoulli_pair(), 0)

    def test_truncation_guard(self):
        with pytest.raises(TruncationTooShort):
            sheffer_transfer_all(bernoulli_pair(T=4), 4)

    def test_transfer_all_matches_single(self):
        pair = catalog_pair(FamilySpec.make("poisson_charlier", 1, a=F(2)), T=T)
        all_polys = sheffer_transfer_all(pair, 4)
        for n in range(1, 5):
            assert all_polys[n - 1] == sheffer_transfer_all(pair, n)[-1]


class TestRouteEquivalence:
    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec.make("bernoulli", 2),
            FamilySpec.make("euler", 1),
            FamilySpec.make("narumi", 1),
            FamilySpec.make("frobenius_euler", 1),
            FamilySpec.make("daehee", 1),
        ],
        ids=lambda s: s.name,
    )
    def test_equivalence(self, spec):
        pair = catalog_pair(spec, T=14)
        polys = sheffer_gf(pair, 6)
        for n, got in enumerate(sheffer_transfer_all(pair, 6), start=1):
            assert got == polys[n]


class TestOrthogonality:
    def test_trivial_pair(self):
        pair = ShefferPair(one(QQ, T), t_series(QQ, T))
        assert orthogonality_failure(pair, [Poly.monomial(QQ, n) for n in range(7)], 6) is None

    def test_bernoulli(self):
        pair = bernoulli_pair()
        polys = sheffer_gf(pair, 8)
        assert orthogonality_failure(pair, polys, 8) is None

    def test_wrong_polynomials(self):
        pair = bernoulli_pair()
        wrong = [Poly.monomial(QQ, n) for n in range(5)]
        n, k, value = orthogonality_failure(pair, wrong, 4)
        assert (n, k) == (1, 0)
        assert value == F(1, 2)  # <g | x> for g = (e^t-1)/t

    def test_degree_above_n_max(self):
        # a wrong S_2 of degree 6 > n_max: the pair is cut no shorter than
        # that, so the failure is reported with its value, as on the long pair
        pair = bernoulli_pair()
        wrong = sheffer_gf(pair, 4)
        wrong[2] = wrong[2] + Poly.monomial(QQ, 6)
        assert orthogonality_failure(pair, wrong, 4) == (2, 0, F(1, 7))  # 6!/7!

    def test_short_polynomial_list(self):
        pair = bernoulli_pair()
        with pytest.raises(DomainError, match="needs 4 polynomials S_0 .. S_3, got 2"):
            orthogonality_failure(pair, sheffer_gf(pair, 3)[:2], 3)


class TestAppell:
    def test_derivative_property(self):
        for spec in (
            FamilySpec.make("bernoulli", 1),
            FamilySpec.make("euler", 2),
            FamilySpec.make("frobenius_euler", 1),
            FamilySpec.make("frobenius_eulerian", 1),
        ):
            pair = catalog_pair(spec, T=10)
            polys = sheffer_gf(pair, 6)
            for n in range(1, 7):
                assert polys[n].derivative() == polys[n - 1] * polys[n].field.coerce(n)


# DSL templates for g (invertible) and f (delta) in two nonzero rationals
# {a} and {b}; a template that mentions L makes the pair one over Q(L).
# None divides by a series of order above 1.
G_SOURCES = (
    "exp({a}*t)",
    "pow(1 + {a}*t, {b})",
    "(exp({a}*t) - 1)/({a}*t)",
    "(exp({a}*t) - L)/(1 - L)",
    "1 + {a}*t + L*t*t",
)
F_SOURCES = (
    "{a}*t + {b}*t*t",
    "log1p({a}*t)",
    "rev({a}*t + {b}*t*t)",
    "t*t/(exp({a}*t) - 1)",
    "t*exp({b}*t)/(1 - L*t)",
)


@st.composite
def dsl_pairs(draw):
    """(g source, f source, n) for a random DSL-built pair and degree."""
    q = st.fractions(-3, 3, max_denominator=3).filter(bool)
    g = draw(st.sampled_from(G_SOURCES)).format(a=f"({draw(q)})", b=draw(q))
    f = draw(st.sampled_from(F_SOURCES)).format(a=f"({draw(q)})", b=f"({draw(q)})")
    return g, f, draw(st.integers(1, 8))


def dsl_pair(g_src, f_src, T):
    """The pair of two DSL sources, both truncated at exactly T."""
    g, f = (eval_expr(parse_expr(src), T + 1).truncate(T) for src in (g_src, f_src))
    return ShefferPair(g, f)


class TestCutToAnswer:
    """The routes cut a pair to answer_trunc(n); a longer pair, or one that
    differs only beyond t^n, gives exactly the same results."""

    def test_answer_trunc(self):
        assert [answer_trunc(n) for n in range(4)] == [2, 2, 3, 4]

    @given(case=dsl_pairs(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_long_pair_same_results(self, case, data):
        g_src, f_src, n = case
        long = dsl_pair(g_src, f_src, 2 * n + 2)
        polys = sheffer_gf(dsl_pair(g_src, f_src, n + 1), n)
        assert sheffer_gf(long, n) == polys
        transfer = sheffer_transfer_all(dsl_pair(g_src, f_src, n + 1), n)
        assert sheffer_transfer_all(long, n) == transfer == polys[1:]
        assert orthogonality_failure(long, polys, n) is None
        # a wrong sequence fails at the same place with the same value
        j = data.draw(st.integers(0, n), label="j")
        wrong = polys[:j] + [polys[j] + Poly.monomial(long.field, j, 1)] + polys[j + 1:]
        assert orthogonality_failure(long, wrong, n) == orthogonality_failure(
            dsl_pair(g_src, f_src, n + 1), wrong, n
        )

    @given(case=dsl_pairs(), tail=st.lists(st.integers(-5, 5), min_size=2, max_size=2))
    # an L-free g beside an f with L only beyond t^n: each bump keeps its
    # member's own field, so the cut pair's answers keep theirs
    @example(case=("exp((1)*t)", "t*exp((1)*t)/(1 - L*t)", 1), tail=[0, 0])
    @settings(max_examples=30, deadline=None)
    def test_tail_beyond_n_ignored(self, case, tail):
        g_src, f_src, n = case
        T = 2 * n + 2
        pair = dsl_pair(g_src, f_src, T)
        g, f = (s + Series(s.field, [0] * (n + 1) + [c] * (T - n - 1), trunc=T)
                for s, c in zip((pair.g, pair.f), tail))
        changed = ShefferPair(g, f)
        polys = sheffer_gf(pair, n)
        assert sheffer_gf(changed, n) == polys
        assert sheffer_transfer_all(changed, n) == polys[1:]
        assert orthogonality_failure(changed, polys, n) is None


class TestLinearPowerNormalisation:
    """In a Frobenius-Euler pair L enters only through 1 - L, so every
    denominator the routes normalise is a power of L - 1, which
    ``fields._lowest_terms`` reduces with no Euclid.  Counted by test-local
    wrappers, so the guard does not depend on time."""

    def test_frobenius_euler_runs_no_euclid_in_lowest_terms(self, monkeypatch):
        inside, counts = [0], {"_lowest_terms": 0, "_coprime_mod_p": 0, "_zgcd_prs": 0}

        def lowest_terms(num, den, real=fields._lowest_terms):
            counts["_lowest_terms"] += len(den) > 1
            inside[0] += 1
            try:
                return real(num, den)
            finally:
                inside[0] -= 1

        def counted(name):
            real = getattr(fields, name)

            def call(f, g):
                counts[name] += inside[0] > 0
                return real(f, g)
            return call

        monkeypatch.setattr(fields, "_lowest_terms", lowest_terms)
        for name in ("_coprime_mod_p", "_zgcd_prs"):
            monkeypatch.setattr(fields, name, counted(name))
        pair = catalog_pair(FamilySpec.make("frobenius_euler", 2, lam=None), T=22)
        polys = sheffer_gf(pair, 10)
        transfer = sheffer_transfer_all(pair, 10)
        assert all(transfer[n - 1] == polys[n] for n in range(1, 11))
        assert orthogonality_failure(pair, polys, 10) is None
        assert counts["_lowest_terms"] > 100
        assert counts["_coprime_mod_p"] == counts["_zgcd_prs"] == 0
        # the wrappers count: (L + 1)(L + 2) / ((L + 1)(L + 3)) runs both
        assert RatFunc((2, 3, 1), (3, 4, 1)) == RatFunc((2, 1), (3, 1))
        assert counts["_coprime_mod_p"] > 0 and counts["_zgcd_prs"] > 0


class TestTypedErrors:
    def test_mismatched_fields_and_empty_series(self):
        for make in (
            lambda: ShefferPair(one(QQ, T), Poly(QQ, [0, 1])),
            lambda: Series(QQ, [1], trunc=0),
            lambda: Series(QQ, []),
            lambda: eval_expr(parse_expr("t"), 0),
        ):
            with pytest.raises(UmbralError):
                make()


def _orthogonality_of_monomials(pair, n):
    # the monomials are not the sequence of either pair, so the result is
    # a failure with a value, not None
    return orthogonality_failure(pair, [Poly.monomial(pair.field, k) for k in range(n + 1)], n)


class TestTruncationGate:
    """Every route accepts a pair truncated at n + 1 and no shorter."""

    ROUTES = [sheffer_gf, sheffer_transfer_all, _orthogonality_of_monomials]
    SPECS = [FamilySpec.make("bernoulli", 2), FamilySpec.make("frobenius_euler", 1)]

    @pytest.mark.parametrize("route", ROUTES, ids=["gf", "transfer", "orthogonality"])
    @pytest.mark.parametrize("spec", SPECS, ids=["Q", "QL"])
    def test_boundary(self, route, spec):
        n = 4
        assert route(catalog_pair(spec, T=n + 1), n) == route(catalog_pair(spec, T=2 * n + 2), n)
        with pytest.raises(TruncationTooShort, match=f"need truncation >= {n + 1}, have {n}"):
            route(catalog_pair(spec, T=n), n)
        with pytest.raises(DomainError):
            route(catalog_pair(spec, T=2 * n + 2), -1)


class TestLargerN:
    def test_t2_symbolic_n20(self):
        # T2[a=-1], b = 1/2, symbolic lambda: the slowest registry pair
        n = 20
        pair = bespoke_pair("T2", 2 * n, order=-1, b=F(1, 2), lam=None)
        polys = sheffer_gf(pair, n)
        assert [p.degree for p in polys] == list(range(n + 1))
        assert sheffer_transfer_all(pair, n) == polys[1:]
        assert orthogonality_failure(pair, polys, n) is None

    @pytest.mark.parametrize(
        "pair",
        [
            pytest.param(lambda n: bespoke_pair("T6", 2 * n, order=-1, c=F(1, 2), lam=None), id="T6"),
            pytest.param(lambda n: catalog_pair(FamilySpec.make("daehee", 1), T=2 * n), id="daehee"),
        ],
    )
    def test_symbolic_n20(self, pair):
        # T6[a=-1] with c = 1/2 and the Daehee family, symbolic lambda
        n = 20
        pair = pair(n)
        polys = sheffer_gf(pair, n)
        assert [p.degree for p in polys] == list(range(n + 1))
        assert sheffer_transfer_all(pair, n) == polys[1:]
        assert orthogonality_failure(pair, polys, n) is None


def _direct_orthogonality(pair, polys, n_max):
    """The first (n, k, <g f^k | S_n>) off n! delta_{n,k}, from the chain of
    products g f^k over the pair's field."""
    acc = pair.g
    for k in range(n_max + 1):
        for n in range(n_max + 1):
            value = functional_apply(acc, polys[n])
            if value != (pair.field.coerce(factorial(n)) if n == k else pair.field.zero):
                return (n, k, value)
        acc = acc * pair.f
    return None


ORTHOGONALITY_PAIRS = [
    lambda T: catalog_pair(FamilySpec.make("bernoulli", 2), T=T),
    lambda T: catalog_pair(FamilySpec.make("frobenius_euler", 1), T=T),
    lambda T: catalog_pair(FamilySpec.make("daehee", 1), T=T),
    lambda T: bespoke_pair("T2", T, order=-1, b=F(1, 2), lam=None),
    lambda T: bespoke_pair("T6", T, order=2, c=F(1, 3), lam=None),
    lambda T: ShefferPair(exp_ct(QL, LAMBDA, T), exp_ct(QL, LAMBDA, T).mul_t(1)),
]


class TestOrthogonalityAdjoint:
    """``orthogonality_failure`` decides Sheffer's two conditions and reads a
    failing list by the definition; the direct <g f^k | S_n> loop gives the
    same triple."""

    @given(which=st.integers(0, len(ORTHOGONALITY_PAIRS) - 1), n_max=st.integers(1, 5),
           mutate=st.none() | st.tuples(st.integers(0, 5), st.integers(0, 5),
                                        st.fractions(-3, 3, max_denominator=4)))
    @settings(max_examples=40, deadline=None)
    def test_same_triple(self, which, n_max, mutate):
        pair = ORTHOGONALITY_PAIRS[which](n_max + 1)
        polys = sheffer_gf(pair, n_max)
        if mutate is not None:
            n, j, delta = mutate
            n, j = n % (n_max + 1), j % (n_max + 1)
            polys[n] = polys[n] + Poly.monomial(pair.field, j, delta)
        got = orthogonality_failure(pair, polys, n_max)
        assert got == _direct_orthogonality(pair, polys, n_max)
        if got is not None:
            assert type(got[2]) is type(pair.field.zero)


class TestLambdaDependentF:
    """g = e^{Lt}, f = t e^{Lt}: f carries L, so the routes keep the Q(L)
    path for f itself."""

    N = 8

    @staticmethod
    def pair(field, lam):
        T = TestLambdaDependentF.N + 1
        return ShefferPair(exp_ct(field, lam, T), exp_ct(field, lam, T).mul_t(1))

    def test_routes_agree_and_specialise(self):
        n = self.N
        pair = self.pair(QL, LAMBDA)
        polys = sheffer_gf(pair, n)
        assert [p.degree for p in polys] == list(range(n + 1))
        assert sheffer_transfer_all(pair, n) == polys[1:]
        assert orthogonality_failure(pair, polys, n) is None
        for lam0 in (F(2), F(-1, 3)):
            at = [Poly(QQ, [c.evaluate(lam0) for c in p.coeffs]) for p in polys]
            assert at == sheffer_gf(self.pair(QQ, lam0), n)


def _with_f_lifted(pair, ginv=None):
    """The pair with f lifted into Q(L) and the claim ``ginv``, built past
    ``ShefferPair.__init__`` so that f stays there and the routes run f's
    half over Q(L)."""
    lifted = object.__new__(ShefferPair)
    Record.__init__(lifted, pair.g, Series(QL, pair.f.coeffs), ginv)
    return lifted


def _routes(pair, n):
    """(GF polys, transfer polys, orthogonality failure) of a pair."""
    polys = sheffer_gf(pair, n)
    return polys, sheffer_transfer_all(pair, n), orthogonality_failure(pair, polys, n)


def _lifted_polys(polys):
    return [Poly(QL, p.coeffs) for p in polys]


REGISTRY_PAIR_SPECS = [
    FamilySpec.make(name, 1, **({"lam": lam} if "lam" in takes else {}),
                    **({"m": 1} if "m" in takes else {}))
    for name, takes in ((name, {q.name for q in schema.params})
                        for name, schema in SCHEMAS.items() if schema.pair)
    for lam in ((None, 2) if "lam" in takes else (None,))
]


class TestFieldRule:
    """A pair keeps an L-free f over Q, whatever the field of g, and an f
    that carries L over Q(L); the pair's field is that of g and f together."""

    N = 5

    @pytest.mark.parametrize(
        "spec", REGISTRY_PAIR_SPECS,
        ids=lambda s: "-".join([s.name] + [f"{k}={'L' if v is None else v}" for k, v in s.params]),
    )
    def test_registry_f_over_q_same_as_lifted(self, spec):
        pair = catalog_pair(spec, T=answer_trunc(self.N))
        assert pair.f.field is QQ
        assert pair.field is pair.g.field
        lifted = _with_f_lifted(pair)
        assert lifted.f.field is QL
        polys, transfer, failure = _routes(pair, self.N)
        assert failure is None and transfer == polys[1:]
        want, want_transfer, want_failure = _routes(lifted, self.N)
        assert want_failure is None
        assert _lifted_polys(polys) == want
        assert _lifted_polys(transfer) == want_transfer

    def test_g_over_q_with_f_over_q_lambda(self):
        # g = e^{t/2}, f = t e^{Lt}, n = 8: the pair is over Q(L) with g over Q
        n = 8
        g, f = exp_ct(QQ, F(1, 2), n + 1), exp_ct(QL, LAMBDA, n + 1).mul_t(1)
        pair = ShefferPair(g, f)
        assert (pair.g.field, pair.f.field, pair.field) == (QQ, QL, QL)
        polys, transfer, failure = _routes(pair, n)
        assert transfer == polys[1:]
        assert failure is None
        assert polys == sheffer_gf(ShefferPair(Series(QL, g.coeffs), f), n)
        assert [p.degree for p in polys] == list(range(n + 1))

    def test_lambda_free_f_over_q_lambda_goes_down_to_q(self):
        f = t_series(QL, 6)
        pair = ShefferPair(exp_ct(QL, LAMBDA, 6), f)
        assert pair.f == t_series(QQ, 6) and pair.field is QL
        assert ShefferPair(one(QQ, 6), f).field is QQ


# ---------------------------------------------------------------------------
# the packed applies against the plain per-coefficient loops
# ---------------------------------------------------------------------------


def _plain_apply(f, p):
    """f(t) p(x) by one ``vec_dot`` per coefficient: the x^j coefficient is
    sum_k f[k] (j+k)!/j! p[j+k]."""
    field = common_field(f.field, p.field)
    out = []
    for j in range(len(p.coeffs)):
        falling = [1]  # (j+k)!/j!
        for k in range(1, len(p.coeffs) - j):
            falling.append(falling[-1] * (j + k))
        out.append(vec_dot(f.coeffs, p.coeffs[j:], field.zero, falling))
    return Poly(field, out)


def _form(c):
    """A RatFunc's canonical form (N, q, D); any other value as it is."""
    return (c._n, c._q, c._d) if isinstance(c, RatFunc) else c


def _same_poly(got, want):
    """Same field and the same canonical coefficients."""
    return got.field is want.field and [_form(c) for c in got.coeffs] == [
        _form(c) for c in want.coeffs]


def _planted_ratfuncs():
    """Q(L) elements with planted denominator factors (1 - L)^i (L + 2)^j,
    nested or not, and zeros, ints and Fractions among them."""
    small = st.lists(st.integers(-6, 6), min_size=1, max_size=3)

    def power(base, k):
        out = (1,)
        for _ in range(k):
            out = tuple(vec_mul(out, base))
        return out

    def build(t):
        num, i, j, lead = t
        return RatFunc(tuple(num), vec_mul(power((1, -1), i), power((2, 1), j))) * lead

    element = st.tuples(small, st.integers(0, 3), st.integers(0, 2),
                        st.fractions(-5, 5, max_denominator=6).filter(bool)).map(build)
    return st.one_of(element, element, element, st.just(QL.zero), st.integers(-3, 3),
                     st.fractions(-4, 4, max_denominator=5))


class TestPackedApply:
    """``operator_apply`` is one prefix sum of f per coefficient
    (``fields._prefix_sums``): packed numerators over the layout of f, each
    output divided by its cofactor, when p is over Q; one ``vec_dot`` per
    coefficient when p is over Q(L).  The plain ``vec_dot`` loop gives the
    same canonical coefficients."""

    @given(f=qq_series(7), p=qq_polys(max_degree=6))
    @settings(max_examples=40, deadline=None)
    def test_q(self, f, p):
        assert _same_poly(operator_apply(f, p), _plain_apply(f, p))

    @given(fc=st.lists(_planted_ratfuncs(), min_size=6, max_size=6),
           pc=st.lists(_planted_ratfuncs(), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_q_lambda(self, fc, pc):
        f, p = Series(QL, fc), Poly(QL, pc)
        assert _same_poly(operator_apply(f, p), _plain_apply(f, p))

    @given(fc=st.lists(_planted_ratfuncs(), min_size=6, max_size=6), q=qq_series(6),
           p=qq_polys(max_degree=5), pc=st.lists(_planted_ratfuncs(), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_mixed(self, fc, q, p, pc):
        f, lp = Series(QL, fc), Poly(QL, pc)
        assert _same_poly(operator_apply(f, p), _plain_apply(f, p))
        assert _same_poly(operator_apply(q, lp), _plain_apply(q, lp))

    def test_transfer_route_applies(self):
        # 1/g of T2[a=-1] on a polynomial over Q: denominators (1 - L)^k,
        # nested, so every output but the last divides by a cofactor
        pair = bespoke_pair("T2", 9, order=-1, b=F(1, 2), lam=None)
        ginv = pair.g.inverse()
        p = Poly(QQ, [F(k + 1, 3) * (-1) ** k for k in range(8)])
        assert _same_poly(operator_apply(ginv, p), _plain_apply(ginv, p))

    def test_cofactor_quotient_beyond_sum_bound(self):
        # over D = L - 1 the numerator of f[0] = 1 + 2L + 2L^2 + L^3 is
        # -(1 + L - L^3 - L^4), of height 1; the output divides it by the
        # cofactor L - 1 back to height 2, so the slot must hold the factor
        # bound as well as the sum's
        f = Series(QL, [RatFunc((1, 2, 2, 1)), RatFunc(1, (1, -1))])
        p = Poly(QQ, [1])
        got = operator_apply(f, p)
        assert _same_poly(got, _plain_apply(f, p))
        assert got.coeffs == (RatFunc((1, 2, 2, 1)),)

    @staticmethod
    def _boundary_case(a, sign):
        """One product whose coefficients are sign (2^a - 1) twice: with the
        slot width s = a + 1 of the bound they are +-(2^(s-1) - 1)."""
        f = Series(QL, [RatFunc((2**a - 1, 2**a - 1))])  # (2^a - 1)(1 + L)
        return f, Poly(QQ, [sign])

    @pytest.mark.parametrize("a", [1, 7, 30, 64])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_slot_boundary(self, a, sign):
        f, p = self._boundary_case(a, sign)
        got = operator_apply(f, p)
        assert _same_poly(got, _plain_apply(f, p))
        assert got.coeffs[0] == sign * (2**a - 1) * (1 + LAMBDA)

    def test_one_bit_narrower_slot_fails(self, monkeypatch):
        # the mutation the boundary test exists for: one bit less than the
        # bound unpacks a different polynomial; the apply takes its width
        # from fields._prefix_sums
        monkeypatch.setattr(fields, "_slot_width", lambda bound: bound.bit_length())
        for a in (7, 30):
            for sign in (1, -1):
                f, p = self._boundary_case(a, sign)
                assert not _same_poly(operator_apply(f, p), _plain_apply(f, p))


# an f that carries L, with g = e^{Lt}; g with two unrelated denominator
# factors (1 - L) and (1 + L); a DSL pair over Q
PACKED_ORTHOGONALITY_PAIRS = ORTHOGONALITY_PAIRS + [
    lambda T: ShefferPair(exp_ct(QL, LAMBDA, T), exp_ct(QL, LAMBDA * LAMBDA, T).mul_t(1)),
    lambda T: dsl_pair("(exp(t)-L)/(1-L)*(exp(2*t)+L)/(1+L)", "log1p(t)*pow(1+t, -1/2)", T),
    lambda T: dsl_pair("exp(2*t)", "t*exp(t)", T),
    # g over Q, f over Q(L): a pair over Q(L) whose g is free of L
    lambda T: ShefferPair(exp_ct(QQ, F(1, 2), T), exp_ct(QL, LAMBDA, T).mul_t(1)),
]


class TestPackedOrthogonality:
    """``orthogonality_failure`` decides <g | S_n> = delta_{n,0} and
    f(t) S_n = n S_{n-1} by comparing packed integers; the direct
    <g f^k | S_n> loop gives the same triple and the same value type."""

    @given(which=st.integers(0, len(PACKED_ORTHOGONALITY_PAIRS) - 1), n_max=st.integers(0, 5),
           mutation=st.sampled_from(["none", "monomial", "zero", "cancel", "scale", "beyond"]),
           n=st.integers(0, 5), j=st.integers(0, 5), c=st.fractions(-3, 3, max_denominator=4))
    @settings(max_examples=80, deadline=None)
    def test_same_triple(self, which, n_max, mutation, n, j, c):
        pair = PACKED_ORTHOGONALITY_PAIRS[which](answer_trunc(n_max))
        polys = sheffer_gf(pair, n_max)
        n, j = n % (n_max + 1), j % (n_max + 1)
        if mutation == "monomial":
            polys[n] = polys[n] + Poly.monomial(pair.field, j, c)
        elif mutation == "zero":
            polys[n] = Poly(pair.field)
        elif mutation == "cancel":
            # S_n + c S_j: every <g f^k | .> but k = j still cancels exactly
            polys[n] = polys[n] + polys[j] * c
        elif mutation == "scale":
            polys[n] = polys[n] * c
        elif mutation == "beyond":
            # s_{n_max+1} of a longer pair: S_n + c s_{n_max+1} fails
            # f(t) S_n = n S_{n-1}, yet no <g f^k | .> with k <= n_max changes
            pair = PACKED_ORTHOGONALITY_PAIRS[which](answer_trunc(n_max + 1))
            polys[n] = polys[n] + sheffer_gf(pair, n_max + 1)[-1] * c
        got = orthogonality_failure(pair, polys, n_max)
        want = _direct_orthogonality(pair, polys, n_max)
        assert got == want
        if got is not None:
            assert type(got[2]) is type(want[2]) is type(pair.field.zero)
            assert _form(got[2]) == _form(want[2])

    def test_degree_above_n_max_passes_or_fails_by_the_definition(self):
        # s_5 is orthogonal to every g f^k with k <= 4, though S_2 + s_5 fails
        # f(t) S_2 = 2 S_1; s_4 adds 4! at k = 4
        pair = bernoulli_pair()
        s = sheffer_gf(pair, 5)
        assert orthogonality_failure(pair, s[:2] + [s[2] + s[5]] + s[3:5], 4) is None
        got = orthogonality_failure(pair, s[:2] + [s[2] + s[4]] + s[3:5], 4)
        assert got == (2, 4, 24) and type(got[2]) is F

    def test_reads_no_power_table(self, monkeypatch):
        # the third oracle reads only g, f and the S_n, so it shares no power
        # table with either route
        pair = bespoke_pair("T2", answer_trunc(10), order=-1, b=F(1, 2), lam=None)
        polys = sheffer_gf(pair, 10)

        def no_table(self, n):
            raise AssertionError("orthogonality_failure read a power table")

        monkeypatch.setattr(Series, "_power_rows", no_table)
        assert orthogonality_failure(pair, polys, 10) is None

    def test_a_sequence_passes_by_the_two_conditions(self, monkeypatch):
        # a Sheffer sequence that the packed conditions rejected by mistake
        # would still get None from the definition, only slower, so the
        # definition is barred here
        cases = [(make(answer_trunc(n)), n) for make in ORTHOGONALITY_PAIRS
                 + PACKED_ORTHOGONALITY_PAIRS for n in range(6)]
        cases.append((bespoke_pair("T2", 11, order=-1, b=F(1, 2), lam=None), 10))
        polys = [sheffer_gf(pair, n) for pair, n in cases]

        def no_definition(f, p):
            raise AssertionError("a Sheffer sequence failed the two conditions")

        monkeypatch.setattr(umbral, "functional_apply", no_definition)
        for (pair, n), ps in zip(cases, polys):
            assert orthogonality_failure(pair, ps, n) is None

    def test_definition_reads_from_the_first_failing_n(self, monkeypatch):
        # S_0 .. S_3 meet both conditions, so <g f^k | S_m> = m! delta for
        # every k and m < 4: the definition starts at S_4
        pair = bespoke_pair("T2", answer_trunc(6), order=-1, b=F(1, 2), lam=None)
        polys = sheffer_gf(pair, 6)
        polys[4] = polys[4] * 2
        read = []
        apply = umbral.functional_apply
        monkeypatch.setattr(umbral, "functional_apply", lambda f, p: read.append(p) or apply(f, p))
        assert orthogonality_failure(pair, polys, 6) == (4, 4, 48)
        assert read and not [m for m in range(4) if any(p is polys[m] for p in read)]

    @staticmethod
    def _true_heights(pair, polys, n_max):
        """Per n, the largest coefficient of either side of either condition,
        as orthogonality_failure lays them out, multiplied out unpacked."""
        pair = umbral._cut(pair, max([n_max] + [p.degree for p in polys]))
        gl, fl, prev = _lay_out(pair.g.coeffs), _lay_out(pair.f.coeffs), _lay_out(())
        out = []
        for n, p in enumerate(polys):
            pl = _lay_out(p.coeffs, umbral._factorials(len(p.coeffs)))
            left = [prev.q * c for c in prev.den]
            right = [n * fl.q * pl.q * c for c in _zmul(fl.den, pl.den)]
            sides = [reduce(vec_add, map(_zmul, gl.num, pl.num), ())]
            if n == 0:
                sides.append([gl.q * pl.q * c for c in _zmul(gl.den, pl.den)])
            for j in range(len(pl.num)):
                fs = reduce(vec_add, map(_zmul, fl.num, pl.num[j:]), ())
                sides.append(_zmul(fs, left))
            sides += [_zmul(right, b) for b in prev.num]
            out.append(max(abs(c) for side in sides for c in side))
            prev = pl
        return out

    @pytest.mark.parametrize("make", [
        lambda T: ShefferPair(one(QQ, T), t_series(QQ, T) * 2**10),
        lambda T: bespoke_pair("T2", T, order=-1, b=F(1, 2), lam=None),
    ], ids=["q", "q_lambda"])
    @pytest.mark.parametrize("scale", [F(2**60), F(1, 2**60)], ids=["up", "down"])
    def test_slot_holds_both_sides(self, make, scale, monkeypatch):
        # S_2 times 2^60 makes f(t) S_2 the large side, S_2 over 2^60 makes
        # 2 S_1 times S_2's denominator the large one: each side's term of
        # the slot bound is then its largest part.  A slot too narrow for a
        # side could let a wrong list pass, so each n's width must hold the
        # true coefficients of both sides of both conditions.
        pair = make(answer_trunc(3))
        polys = sheffer_gf(pair, 3)
        polys[2] = polys[2] * scale
        widths = []

        def recorded(bound):
            widths.append(fields._slot_width(bound))
            return widths[-1]

        monkeypatch.setattr(umbral, "_slot_width", recorded)
        assert orthogonality_failure(pair, polys, 3) == _direct_orthogonality(pair, polys, 3)
        heights = self._true_heights(pair, polys, 3)
        assert len(widths) == 3
        for n, s in enumerate(widths):
            assert heights[n] < 2 ** (s - 1), n

    @pytest.mark.parametrize("n", range(11))
    def test_top_coefficient_is_read(self, n, monkeypatch):
        # condition n packs only the entries of g and f that S_n's n + 1
        # coefficients pair with; the last of them, g[n] and f[n], meet S_n's
        # top coefficient, so doubling that coefficient alone must fail the
        # conditions at n, and not before: the definition starts at S_n
        pair = bespoke_pair("T2", answer_trunc(10), order=-1, b=F(1, 2), lam=None)
        polys = sheffer_gf(pair, 10)
        top = list(polys[n].coeffs)
        top[n] *= 2
        polys[n] = Poly(pair.field, top)
        read = []
        apply = umbral.functional_apply
        monkeypatch.setattr(umbral, "functional_apply", lambda f, p: read.append(p) or apply(f, p))
        got = orthogonality_failure(pair, polys, 10)
        assert got is not None and got[0] == n
        assert read[0] is polys[n]
        assert got == _direct_orthogonality(pair, polys, 10)

    def test_polys_over_q_with_pair_over_q_lambda(self):
        # the value of a failure is over the common field of pair and S_n
        pair = ORTHOGONALITY_PAIRS[1](4)
        polys = [Poly(QQ, [1] * (k + 1)) for k in range(4)]
        got = orthogonality_failure(pair, polys, 3)
        assert got == _direct_orthogonality(pair, polys, 3)
        assert isinstance(got[2], RatFunc)


# the route-table pairs at n = 40, lambda the symbol L
ROUTE_TABLE_PAIRS = {
    "T2[a=-1]": lambda T: bespoke_pair("T2", T, order=-1, b=F(1, 2), lam=None),
    "T6[a=-1]": lambda T: bespoke_pair("T6", T, order=-1, c=F(1, 2), lam=None),
    "daehee": lambda T: catalog_pair(FamilySpec.make("daehee", 1, lam=None), T=T),
    "T10[a=2]": lambda T: bespoke_pair("T10", T, order=2, b=F(1, 2), c=F(1, 3), m=2, lam=None),
}


@lru_cache(maxsize=None)
def _route_table_sequence(name):
    pair = ROUTE_TABLE_PAIRS[name](answer_trunc(40))
    return pair, tuple(sheffer_gf(pair, 40))


class TestOrthogonalitySlotReuse:
    """``orthogonality_failure`` keeps one slot width that grows with n in
    64-bit steps and never narrows, packs g, f and S_{n-1} afresh only
    when it grows, and packs each S_n once."""

    @staticmethod
    def _spy(monkeypatch):
        """(laid, packs, needed): the layouts made, (layout, width) for each
        packing in call order, and the width each n's bound asks for."""
        laid, packs, needed = [], [], []
        lay_out, packed = umbral._lay_out, fields._Layout.packed

        def counted_lay_out(c, w=None):
            laid.append(lay_out(c, w))
            return laid[-1]

        def counted_packed(self, s):
            packs.append((self, s))
            return packed(self, s)

        def recorded(bound):
            needed.append(fields._slot_width(bound))
            return needed[-1]

        monkeypatch.setattr(umbral, "_lay_out", counted_lay_out)
        monkeypatch.setattr(fields._Layout, "packed", counted_packed)
        monkeypatch.setattr(umbral, "_slot_width", recorded)
        return laid, packs, needed

    @pytest.mark.parametrize("name", ROUTE_TABLE_PAIRS)
    def test_route_table_pairs_pass_by_the_two_conditions(self, name, monkeypatch):
        pair, polys = _route_table_sequence(name)

        def no_definition(f, p):
            raise AssertionError("a Sheffer sequence failed the two conditions")

        monkeypatch.setattr(umbral, "functional_apply", no_definition)
        assert orthogonality_failure(pair, list(polys), 40) is None

    def test_held_then_grown_slot(self, monkeypatch):
        # T10's needed widths fall at n = 33 and 34 below the width held
        # since n = 32, and S_35 plus 1/7 needs more than that width: the
        # two conditions must hold through S_34 at the held width and fail
        # first at S_35, at the grown one, as the plain chain of g f^k says
        pair, polys = _route_table_sequence("T10[a=2]")
        polys = list(polys)
        polys[35] = polys[35] + F(1, 7)
        _, _, widths = self._spy(monkeypatch)
        read, apply = [], umbral.functional_apply
        monkeypatch.setattr(umbral, "functional_apply", lambda f, p: read.append(p) or apply(f, p))
        got = orthogonality_failure(pair, polys, 40)
        assert len(widths) == 36 and widths[33] < widths[34] < widths[32] < widths[35]
        assert -(-widths[35] // 64) > -(-max(widths[:35]) // 64)
        assert read[0] is polys[35]
        assert got == _direct_orthogonality(pair, polys, 40) and got[:2] == (35, 0)

    @pytest.mark.parametrize("name", ROUTE_TABLE_PAIRS)
    def test_each_condition_at_one_width_that_holds_it(self, name, monkeypatch):
        # when S_n is packed, g, f and S_{n-1} were last packed at the same
        # width, a multiple of 64 bits and at least the width that n asks
        # for.  g's layout is the one the pair keeps (``umbral._prepare``),
        # so the check lays out f, the empty S_{-1} and the S_n only
        pair, polys = _route_table_sequence(name)
        gl = umbral._prepare(pair, 40, proof=False)[3]
        laid, packs, needed = self._spy(monkeypatch)
        assert orthogonality_failure(pair, list(polys), 40) is None
        fl, *pls = laid  # pls[0] is the empty S_{-1}
        assert len(pls) == 42 and gl not in laid
        last, used = {}, []
        for lay, s in packs:
            if lay is pls[len(used) + 1]:
                assert last[id(gl)] == last[id(fl)] == last[id(pls[len(used)])] == s
                used.append(s)
            last[id(lay)] = s
        assert len(used) == len(needed) == 41
        assert all(s % 64 == 0 and s >= want for s, want in zip(used, needed))
        assert used == sorted(used)

    def test_g_is_packed_once_per_width(self, monkeypatch):
        # a call-count pin, the same on any host: g, f and S_{n-1} are packed
        # at each distinct width, S_n once per n
        pair, polys = _route_table_sequence("T2[a=-1]")
        gl = umbral._prepare(pair, 40, proof=False)[3]  # the layout the pair keeps
        laid, packs, _ = self._spy(monkeypatch)
        assert orthogonality_failure(pair, list(polys), 40) is None
        fl, _, *pls = laid
        widths = [s for lay, s in packs if lay is gl]
        assert widths == [s for lay, s in packs if lay is fl] == [256, 320, 384, 448, 512]
        # g, f and S_{n-1} (none at n = 0) at each width, and each S_n once
        # as S_n, so an S_n is packed twice only when the slot grows at n + 1
        assert len(pls) == 41 and len(packs) == 3 * len(widths) + 41
        assert sorted(sum(lay is pl for lay, _ in packs) for pl in pls) == [1] * 37 + [2] * 4


# ---------------------------------------------------------------------------
# the packed Q(L) x Q sums against the plain per-coefficient loops
# ---------------------------------------------------------------------------


def _plain_compose(outer, inner):
    """outer(inner) by one ``vec_dot`` per coefficient over the plain table."""
    T = min(outer.trunc, inner.trunc)
    P = plain_powers(inner.truncate(T), T - 1)
    field = common_field(outer.field, inner.field)
    return Series(field, [vec_dot(outer.coeffs[: m + 1], [p.coeffs[m] for p in P[: m + 1]],
                                  field.zero) for m in range(T)])


def _plain_gf(pair, n_max):
    """S_0 .. S_n_max with the y^j coefficient of S_n one ``vec_dot`` of
    fbar^j from the plain table against 1/g(fbar), weight n!/j!."""
    pair = umbral._cut(pair, n_max)
    fbar = _over_q(pair.f).revert()
    P = plain_powers(fbar, n_max)
    ginv = _plain_compose(pair.g, fbar).inverse()
    polys = []
    for n in range(n_max + 1):
        head = ginv.coeffs[n::-1]
        polys.append(Poly(pair.field, [
            vec_dot(P[j].coeffs[j : n + 1], head[j:], pair.field.zero,
                    [factorial(n) // factorial(j)] * (n + 1))
            for j in range(n + 1)]))
    return polys


def _plain_transfer(pair, n_max):
    """S_1 .. S_n_max as 1/g applied to p = x (t/f)^n x^{n-1} by
    ``_plain_apply``, with p built from (t/f)^n of the plain table."""
    pair = umbral._cut(pair, n_max)
    ginv = pair.g.inverse()
    P = plain_powers(_over_q(pair.f).shift_div(1).inverse(), n_max)
    polys = []
    for n in range(1, n_max + 1):
        # t^k takes x^{n-1} to (n-1)!/j! x^j with j = n-1-k; then times x
        p = Poly(P[n].field, [0] + [P[n].coeffs[n - 1 - j] * F(factorial(n - 1), factorial(j))
                                    for j in range(n)])
        polys.append(_plain_apply(ginv, p))
    return polys


def _specialise(s, lam0):
    """A series over Q(L) with L set to lam0, over Q; a series over Q as it is."""
    if s.field is QQ:
        return s
    return Series(QQ, [c.evaluate(lam0) for c in s.coeffs])


class TestPackedMixedSums:
    """g(fbar) with g over Q(L) and fbar over Q, the y^j columns of the GF
    route and the x^j columns of the transfer route are packed integer sums
    over the prefix layout of the Q(L) operand; the plain ``vec_dot`` loops
    give the same canonical values."""

    @given(which=st.integers(0, len(PACKED_ORTHOGONALITY_PAIRS) - 1), n_max=st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_g_of_fbar_and_gf_columns(self, which, n_max):
        pair = PACKED_ORTHOGONALITY_PAIRS[which](answer_trunc(n_max))
        fbar = _over_q(pair.f).revert()
        got, want = pair.g.compose(fbar), _plain_compose(pair.g, fbar)
        assert got.field is want.field
        assert [_form(c) for c in got.coeffs] == [_form(c) for c in want.coeffs]
        for p, q in zip(sheffer_gf(pair, n_max), _plain_gf(pair, n_max), strict=True):
            assert _same_poly(p, q)
        if n_max >= 1:
            for p, q in zip(sheffer_transfer_all(pair, n_max), _plain_transfer(pair, n_max),
                            strict=True):
                assert _same_poly(p, q)

    @given(al=st.lists(_planted_ratfuncs(), min_size=1, max_size=7),
           aq=st.lists(st.fractions(-5, 5, max_denominator=6), min_size=1, max_size=7),
           cols=st.lists(st.lists(st.integers(-40, 40) | st.just(0), min_size=1, max_size=7),
                         max_size=6),
           lcols=st.lists(st.lists(_planted_ratfuncs().map(QL.coerce), min_size=1, max_size=7),
                          max_size=6),
           dens=st.lists(st.integers(1, 30), min_size=6, max_size=6),
           over_q=st.booleans(), ratfunc_cols=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_prefix_sums_with_zeros(self, al, aq, cols, lcols, dens, over_q, ratfunc_cols):
        # zero entries of a and zero weights inside a prefix, ints and
        # Fractions among the Q(L) entries, or a over Q altogether; or
        # columns of RatFuncs (a table over Q(L)), each over its e
        a, field = (aq, QQ) if over_q else (al, QL)
        if ratfunc_cols:
            cols, field = lcols, QL
        cols = [c[: len(a)] for c in cols]
        got = fields._prefix_sums(a, cols, dens, field)
        want = [vec_dot(a[: len(c)], c, field.zero) / e for c, e in zip(cols, dens)]
        assert [_form(x) for x in got] == [_form(field.coerce(x)) for x in want]
        assert all(type(x) is type(field.zero) for x in got)
        # a layout passed in, as the Sheffer routes pass the proof's, is a's
        assert fields._prefix_sums(a, cols, dens, field, _lay_out(a)) == got

    @given(a=st.lists(_planted_ratfuncs(), min_size=1, max_size=7),
           lengths=st.lists(st.integers(1, 7), min_size=1, max_size=3),
           weights=st.lists(st.integers(-40, 40), min_size=7, max_size=7))
    @settings(max_examples=60, deadline=None)
    @example(a=[RatFunc(1, (1, -1)), RatFunc(1, (2, 1)), RatFunc((1, 1), (1, -2, 1))],
             lengths=[1, 2, 3], weights=[3, -5, 7, 0, 0, 0, 0])
    def test_columns_sharing_a_prefix_length(self, a, lengths, weights):
        # five columns per prefix length share its cofactor, which is packed
        # once per call: the values are the plain sums, and _pack runs once
        # per entry of a and once per distinct cofactor that is not 1
        lengths = [min(k, len(a)) for k in lengths]
        cols = [[w * (i + r) for i, w in enumerate(weights[:k])] for k in lengths for r in range(5)]
        dens = [1 + 7 * i % 30 for i in range(len(cols))]
        want = [QL.coerce(vec_dot(a[: len(c)], c, QL.zero) / e) for c, e in zip(cols, dens)]
        cofactors = _lay_out(a).cofactors
        packs, pack = [], fields._pack
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fields, "_pack", lambda t, s: packs.append(t) or pack(t, s))
            got = fields._prefix_sums(a, cols, dens, QL)
        assert [_form(x) for x in got] == [_form(x) for x in want]
        assert len(packs) == len(a) + len({k for k in lengths if cofactors[k - 1] != (1,)})

    def test_zero_entry_inside_a_prefix(self):
        # g over Q(L) with zero coefficients between denominators (1 - L)
        # and (1 + L): each prefix divides by its own cofactor
        g = Series(QL, [1, 0, RatFunc(1, (1, -1)), 0, RatFunc((2, 1), (1, 1)), 0])
        fbar = (exp_ct(QQ, 1, 6) - 1).revert()
        got, want = g.compose(fbar), _plain_compose(g, fbar)
        assert [_form(c) for c in got.coeffs] == [_form(c) for c in want.coeffs]

    @pytest.mark.parametrize("route, lam0", [
        (sheffer_gf, F(2)), (sheffer_gf, F(-1, 3)),
        (sheffer_transfer_all, F(2)), (sheffer_transfer_all, F(-1, 3)),
    ], ids=["lam00", "lam01", "transfer-lam00", "transfer-lam01"])
    def test_gf_specialises(self, route, lam0):
        # a route over Q(L) at L = lam0 equals the same route over Q of the
        # pair at lam0, for every pair over Q(L) among the packed pairs
        n = 6
        pairs = [make(answer_trunc(n)) for make in PACKED_ORTHOGONALITY_PAIRS]
        pairs = [pair for pair in pairs if pair.field is QL]
        assert len(pairs) == 8
        for pair in pairs:
            at = ShefferPair(_specialise(pair.g, lam0), _specialise(pair.f, lam0))
            got = [Poly(QQ, [c.evaluate(lam0) for c in p.coeffs]) for p in route(pair, n)]
            assert got == route(at, n)


# ---------------------------------------------------------------------------
# the GF route's one table of fbar against the public series operations
# ---------------------------------------------------------------------------


def _sheffer_q_lambda_pairs():
    """Every pair the ``sheffer_q_lambda`` benchmark draws from: lambda the
    symbol L, T = 22."""
    T = 22
    bs = (F(1), F(2), F(-1), F(1, 2), F(-1, 2))
    cs = (F(1), F(-1), F(2), F(1, 2), F(1, 3))
    bcs = ((F(1), F(1)), (F(2), F(-1)), (F(1, 2), F(1, 3)), (F(-1), F(2)), (F(-1, 2), F(1, 2)))
    pairs = [bespoke_pair("T2", T, order=a, b=b) for a in (1, 2, -1) for b in bs]
    for a in (1, 2):
        pairs += [bespoke_pair(tag, T, order=a, c=c) for tag in ("T6", "P8") for c in cs]
        pairs += [bespoke_pair("T10", T, order=a, b=b, c=c, m=m) for b, c in bcs for m in (1, 2)]
        pairs += [catalog_pair(FamilySpec.make(name, a, lam=None), T=T)
                  for name in ("frobenius_euler", "frobenius_eulerian")]
    pairs.append(catalog_pair(FamilySpec.make("daehee", 1, lam=None), T=T))
    return pairs


def _public_gf(pair, n_max):
    """S_0 .. S_n_max from the public ``revert``, ``compose``, ``powers`` and
    ``inverse``, each building its own table: the y^j coefficient of S_n is
    (n!/j!) [t^n] fbar^j / g(fbar)."""
    pair = umbral._cut(pair, n_max)
    fbar = pair.f.revert()
    ginv = pair.g.compose(fbar).inverse()
    products = [p * ginv for p in fbar.powers(n_max)]
    return [Poly(pair.field, [products[j].coeffs[n] * F(factorial(n), factorial(j))
                              for j in range(n + 1)])
            for n in range(n_max + 1)]


class TestSharedFbarTable:
    """``sheffer_gf`` builds one power table of fbar, checked by the
    reversion's round trip, and reads it for its columns."""

    def test_universe_matches_the_public_path(self):
        pairs = _sheffer_q_lambda_pairs()
        assert len(pairs) == 60
        for pair in pairs:
            assert sheffer_gf(pair, 10) == _public_gf(pair, 10)

    def test_returns_the_table_of_fbar(self):
        f = bespoke_pair("T2", 11, order=-1, b=F(1, 2), lam=None).f
        fbar, table = f._revert_rows()
        assert fbar == f.revert()
        assert table == fbar._power_rows(10)

    def test_round_trip_reads_the_returned_table(self, monkeypatch):
        # mutation: the reversion's table is swapped for the table of another
        # series; its round trip reads that table and fails, so the route
        # never reads a table the round trip did not check
        pair = bespoke_pair("T2", 11, order=-1, b=F(1, 2), lam=None)
        fbar = pair.f.revert()
        other = fbar + monomial(fbar.field, 2, fbar.trunc)
        rows = Series._power_rows
        monkeypatch.setattr(Series, "_power_rows",
                            lambda s, n: rows(other if s == fbar else s, n))
        with pytest.raises(NotDelta, match="round-trip"):
            pair.f._revert_rows()
        with pytest.raises(NotDelta, match="round-trip"):
            sheffer_gf(pair, 10)


# ---------------------------------------------------------------------------
# the pair's reciprocal ginv: proven before either route reads it
# ---------------------------------------------------------------------------


# the registry names whose g is a Frobenius g, each with a pair builder
# that returns 1/g as well
FROBENIUS_G_PAIRS = [
    ("euler", 2, {}), ("frobenius_euler", -1, {"lam": None}),
    ("frobenius_eulerian", 2, {"lam": F(1, 2)}), ("daehee", 1, {"lam": None}),
    ("T2", -1, {"b": F(1, 2), "lam": None}), ("T4", 1, {}), ("T6", 2, {"c": F(1, 2), "lam": None}),
    ("P8", 1, {"c": F(1, 3), "lam": None}),
    ("T10", 2, {"b": F(1, 2), "c": F(1, 3), "m": 2, "lam": F(-1, 2)}),
]


def _without_ginv(pair):
    return ShefferPair(pair.g, pair.f)


def _texts(polys):
    return [p.coeff_texts() for p in polys]


@st.composite
def _ginv_claims(draw, field, coeffs):
    """(g, ginv) over ``field``: an invertible g and its true inverse, or
    that inverse with one coefficient moved by a drawn amount (maybe 0)."""
    T = draw(st.integers(1, 6))
    g = Series(field, [draw(coeffs.filter(bool))] + [draw(coeffs) for _ in range(T - 1)])
    ginv = list(g.inverse().coeffs)
    m = draw(st.integers(0, T - 1))
    ginv[m] = ginv[m] + draw(coeffs | st.just(0))
    return g, Series(field, ginv)


def _two_level_proof(pair):
    """The ginv proof as one product of two packed integers, the form the
    sums per t^k replaced: each polynomial in L at 2^s, and the coefficient
    of t^k at 2^(kw), w = s times the longest polynomial either side can
    have at a k < T.  True exactly when g * ginv = 1 mod t^T, that is when
    the low T w bits of the product minus the packed unit are zero."""
    g, h = pair.g, pair.ginv
    T = g.trunc
    if h is None or h.trunc < T:
        return False
    h = h.truncate(T)
    gl, hl = _lay_out(g.coeffs), _lay_out(h.coeffs)
    unit = [gl.q * hl.q * c for c in _zmul(gl.den, hl.den)]
    s = fields._slot_width(max([fields._dot_bound(gl, hl)] + list(map(abs, unit))))
    lg, lh = [len(t) for t in gl.num], [len(t) for t in hl.num]
    w = s * max(len(unit), *(max(map(add, lg[: k + 1], lh[k::-1])) - 1 for k in range(T)))
    low = fields._pack(gl.packed(s), w) * fields._pack(hl.packed(s), w) - fields._pack(unit, s)
    return not low & ((1 << T * w) - 1)


class TestProvenGinv:
    """A Frobenius pair carries ``ginv`` = 1/g from its builder; a route
    reads it only after ``umbral._proven_ginv`` proves g * ginv = 1 at the
    answer's truncation, and every route answer is the same with a right,
    a wrong or no ginv."""

    @pytest.mark.parametrize("name,order,params", FROBENIUS_G_PAIRS, ids=[r[0] for r in FROBENIUS_G_PAIRS])
    def test_frobenius_pairs_carry_a_proven_reciprocal(self, name, order, params):
        pair = bespoke_pair(name, 12, order=order, **params)
        assert pair.ginv is not None and pair.ginv.trunc == 12
        assert (pair.g * pair.ginv).coeffs == one(pair.g.field, 12).coeffs
        cut = umbral._cut(pair, 7)
        assert cut.ginv == pair.ginv.truncate(8)
        assert umbral._proven_ginv(cut)[0] is cut.ginv

    @pytest.mark.parametrize("name,order,params", [
        ("bernoulli", 2, {}), ("narumi", 1, {}), ("poisson_charlier", 1, {"a": F(2)}),
        ("T3", 1, {"b": F(1, 2), "c": F(1)}), ("R27", 1, {}),
    ])
    def test_other_pairs_carry_none(self, name, order, params):
        pair = bespoke_pair(name, 8, order=order, **params)
        assert pair.ginv is None and umbral._proven_ginv(pair)[0] is None

    def test_ginv_must_be_a_series(self):
        with pytest.raises(DomainError, match="ginv"):
            ShefferPair(one(QQ, 4), t_series(QQ, 4), [1, 0, 0, 0])

    def test_short_ginv_is_not_read(self):
        pair = bespoke_pair("T2", 8, order=1, b=F(1, 2), lam=None)
        short = ShefferPair(pair.g, pair.f, pair.ginv.truncate(6))
        assert umbral._proven_ginv(short)[0] is None
        assert umbral._proven_ginv(umbral._cut(short, 5))[0] is not None

    @given(claim=_ginv_claims(QL, ratfuncs()) | _ginv_claims(QQ, st.fractions(-40, 40, max_denominator=12)))
    @settings(max_examples=120, deadline=None)
    @example(claim=(Series(QL, [1, LAMBDA]), Series(QL, [1, -LAMBDA])))
    @example(claim=(Series(QL, [1, LAMBDA]), Series(QL, [1, LAMBDA])))
    def test_proof_is_the_product(self, claim):
        # the packed proof says yes exactly when g * ginv = 1 mod t^T
        g, ginv = claim
        pair = ShefferPair(g, t_series(QQ, 2), ginv)
        want = (g * ginv).coeffs == one(g.field, g.trunc).coeffs
        assert (umbral._proven_ginv(pair)[0] is not None) is want

    @pytest.mark.parametrize("name,order,params", FROBENIUS_G_PAIRS, ids=[r[0] for r in FROBENIUS_G_PAIRS])
    @pytest.mark.parametrize("m", [0, 1, 6])
    def test_wrong_ginv_takes_the_plain_path(self, name, order, params, m):
        # one coefficient of ginv bumped by 1 fails the proof, and both
        # routes then give the very S_n of the pair without ginv
        n_max = 6
        pair = bespoke_pair(name, answer_trunc(n_max), order=order, **params)
        wrong = list(pair.ginv.coeffs)
        wrong[m] = wrong[m] + 1
        bumped = ShefferPair(pair.g, pair.f, Series(pair.ginv.field, wrong))
        assert umbral._proven_ginv(bumped)[0] is None
        for route in (sheffer_gf, sheffer_transfer_all):
            want = route(_without_ginv(pair), n_max)
            assert _texts(route(bumped, n_max)) == _texts(want)
            assert _texts(route(pair, n_max)) == _texts(want)

    @given(claim=_ginv_claims(QL, ratfuncs()) | _ginv_claims(QQ, st.fractions(-40, 40, max_denominator=12)))
    @settings(max_examples=120, deadline=None)
    def test_same_verdict_as_the_two_level_product(self, claim):
        # true claims and claims with one coefficient moved: the sums per
        # t^k accept exactly what the one padded product accepted
        g, ginv = claim
        pair = ShefferPair(g, t_series(QQ, 2), ginv)
        assert (umbral._proven_ginv(pair)[0] is not None) is _two_level_proof(pair)

    @pytest.mark.parametrize("name,order,params", FROBENIUS_G_PAIRS, ids=[r[0] for r in FROBENIUS_G_PAIRS])
    def test_same_verdict_on_frobenius_pairs(self, name, order, params):
        pair = bespoke_pair(name, 16, order=order, **params)
        assert _two_level_proof(pair) and umbral._proven_ginv(pair)[0] is pair.ginv
        for m in (0, 7, 15):
            moved = list(pair.ginv.coeffs)
            moved[m] = moved[m] + F(1, 3)
            bumped = ShefferPair(pair.g, pair.f, Series(pair.ginv.field, moved))
            assert not _two_level_proof(bumped) and umbral._proven_ginv(bumped)[0] is None

    @pytest.mark.parametrize("s", [2, 3, 8, 40])
    def test_one_bit_narrower_slot_accepts_a_false_reciprocal(self, s, monkeypatch):
        # the slot width holds either side of the claim and no more.  Here
        # g = 1 and the claimed ginv_0 = (L - 2^(s-2)) / (3 * 2^(s-2)) lay
        # out as G_0 = (1,) and H_0 = (-2^(s-2), 1) over q' = 3 * 2^(s-2), so
        # the t^0 comparison is (-2^(s-2), 1) against 3 * 2^(s-2).  The true
        # width s + 1 tells them apart; at width s their difference
        # (-2^s, 1) packs to -2^s + 2^s = 0, and the false claim would be
        # proven
        ginv0 = RatFunc((-2 ** (s - 2), 1), 3 * 2 ** (s - 2))
        pair = ShefferPair(Series(QL, [1, 0]), t_series(QQ, 2), Series(QL, [ginv0, 0]))
        assert umbral._proven_ginv(pair)[0] is None
        widths = []

        def narrower(bound):
            widths.append(fields._slot_width(bound) - 1)
            return widths[-1]

        monkeypatch.setattr(umbral, "_slot_width", narrower)
        assert umbral._proven_ginv(pair)[0] is pair.ginv
        assert widths == [s]
        assert sheffer_gf(pair, 1) != sheffer_gf(_without_ginv(pair), 1)

    def test_routes_run_no_q_lambda_inverse(self, monkeypatch):
        # with Series.inverse refused over Q(L), every pair the
        # sheffer_q_lambda benchmark draws still runs both routes, so each
        # takes its proven ginv; a DSL pair over Q(L) has none and is refused
        pairs = _sheffer_q_lambda_pairs()
        want = [sheffer_gf(pair, 10) for pair in pairs]
        dsl = dsl_pair("(exp(t)-L)/(1-L)", "log1p(t)", 8)
        inverse = Series.inverse

        def refused(s):
            if s.field is QL:
                raise AssertionError("Series.inverse over Q(L)")
            return inverse(s)

        monkeypatch.setattr(Series, "inverse", refused)
        assert len(pairs) == 60
        for pair, polys in zip(pairs, want):
            assert sheffer_gf(pair, 10) == polys
            assert sheffer_transfer_all(pair, 10) == polys[1:]
        for route in (sheffer_gf, sheffer_transfer_all):
            with pytest.raises(AssertionError, match="Q\\(L\\)"):
                route(dsl, 4)


# ---------------------------------------------------------------------------
# the GF route's sum over the proven ginv against the composed form it
# replaced, and one layout of ginv per route
# ---------------------------------------------------------------------------


def _composed_gf(pair, n_max):
    """S_0 .. S_n_max for a pair whose ginv is proven, by the GF route's
    former form: ginv(fbar) over the reversion's table
    (``Series._compose_rows``), then the y^j coefficient of S_n one prefix
    sum of ginv(fbar) against (n!/j!) rows[j][n - i] / dens[j]."""
    pair = umbral._cut(pair, n_max)
    ginv, _ = umbral._proven_ginv(pair)
    assert ginv is not None
    fbar, table = pair.f._revert_rows()
    row_dens, rows = table
    cols, dens = [], []
    for n in range(n_max + 1):
        for j in range(n + 1):
            cols.append([factorial(n) // factorial(j) * rows[j][n - i] for i in range(n - j + 1)])
            dens.append(row_dens[j])
    values = fields._prefix_sums(ginv._compose_rows(fbar, table).coeffs, cols, dens, pair.field)
    return [Poly(pair.field, values[n * (n + 1) // 2 : (n + 1) * (n + 2) // 2])
            for n in range(n_max + 1)]


def _same_polys(got, want):
    return len(got) == len(want) and all(map(_same_poly, got, want))


# every Frobenius pair tag, with lambda the symbol L and a rational where it
# takes one (euler and T4 are at lambda = -1)
FROBENIUS_G_TAGS = [
    (name, order, {**params, **({"lam": lam} if "lam" in params else {})})
    for name, order, params in FROBENIUS_G_PAIRS
    for lam in ((None, F(-1, 3)) if "lam" in params else (None,))
]
FROBENIUS_G_TAG_IDS = [f"{name}-lam={params.get('lam', -1)}" for name, _, params in FROBENIUS_G_TAGS]


class TestGFSumsOverGinv:
    """With a proven ginv the GF route sums S_n over ginv itself, since
    fbar^j ginv(fbar) = sum_k ginv[k] fbar^(j+k); the values are those of
    ginv(fbar) summed against fbar^j, the form it replaced."""

    @pytest.mark.parametrize("name,order,params", FROBENIUS_G_TAGS, ids=FROBENIUS_G_TAG_IDS)
    @pytest.mark.parametrize("n_max", [0, 1, 12])
    def test_frobenius_tags(self, name, order, params, n_max):
        pair = bespoke_pair(name, answer_trunc(n_max), order=order, **params)
        got = sheffer_gf(pair, n_max)
        assert _same_polys(got, _composed_gf(pair, n_max))
        assert _texts(got) == _texts(sheffer_gf(_without_ginv(pair), n_max))

    @pytest.mark.parametrize("name,order,params", FROBENIUS_G_TAGS, ids=FROBENIUS_G_TAG_IDS)
    def test_frobenius_tags_with_f_over_q_lambda(self, name, order, params):
        # f lifted into Q(L): the columns are RatFuncs, one vec_dot each
        n_max = 6
        pair = bespoke_pair(name, answer_trunc(n_max), order=order, **params)
        lifted = _with_f_lifted(pair, pair.ginv)
        assert lifted.f.field is QL and umbral._cut(lifted, n_max) is lifted
        got = sheffer_gf(lifted, n_max)
        assert _same_polys(got, _composed_gf(lifted, n_max))
        assert got == _lifted_polys(sheffer_gf(pair, n_max))

    @pytest.mark.parametrize("g_field,lam", [(QL, LAMBDA), (QQ, F(1, 2))], ids=["g-QL", "g-Q"])
    def test_f_carrying_lambda(self, g_field, lam):
        # g = e^{lam t}, ginv = e^{-lam t}, f = t e^{Lt} over Q(L)
        n_max = 8
        T = answer_trunc(n_max)
        f = exp_ct(QL, LAMBDA, T).mul_t(1)
        pair = ShefferPair(exp_ct(g_field, lam, T), f, exp_ct(g_field, -lam, T))
        assert pair.f.field is QL and umbral._proven_ginv(pair)[0] is pair.ginv
        got = sheffer_gf(pair, n_max)
        assert _same_polys(got, _composed_gf(pair, n_max))
        assert got == sheffer_gf(_without_ginv(pair), n_max)

    @given(claim=_ginv_claims(QL, ratfuncs()) | _ginv_claims(QQ, st.fractions(-40, 40, max_denominator=12)),
           lift=st.booleans(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_claims(self, claim, lift, data):
        # a claim the proof accepts is summed over ginv and gives the
        # composed form's values; a rejected one gives the plain path's.
        # f over Q, or lifted into Q(L) when g is known through t^1
        g, ginv = claim
        f = data.draw(qq_series(max(g.trunc, 2), min_order=1).filter(lambda s: s.coeffs[1] != 0))
        n_max = g.trunc - 1
        lift = lift and g.trunc >= 2
        pair = _with_f_lifted(ShefferPair(g, f), ginv) if lift else ShefferPair(g, f, ginv)
        plain = _with_f_lifted(ShefferPair(g, f)) if lift else ShefferPair(g, f)
        got = sheffer_gf(pair, n_max)
        if umbral._proven_ginv(umbral._cut(pair, n_max))[0] is not None:
            assert _same_polys(got, _composed_gf(pair, n_max))
        assert got == sheffer_gf(plain, n_max)


class TestOneLayoutOfGinv:
    """A pair's 1/g is laid out once, in ``_proven_ginv`` under
    ``umbral._prepare``, and both routes pass that layout to
    ``fields._prefix_sums``; the GF route composes only for the
    reversion's round trip.  A DSL pair, with no ginv, inverts g once for
    both routes, and that inverse is proven and laid out like a claimed
    ginv.  The pins count calls, so they hold on any host."""

    N = 10

    @staticmethod
    def _spy(monkeypatch):
        """(laid, composed, inverted): the vectors laid out (``_lay_out``),
        and the outer series of ``Series._compose_rows`` and the series of
        ``Series.inverse``, in call order."""
        laid, composed, inverted = [], [], []
        lay_out, compose_rows, inverse = fields._lay_out, Series._compose_rows, Series.inverse

        def counted_lay_out(c, w=None):
            laid.append(tuple(c))
            return lay_out(c, w)

        def counted_compose_rows(s, inner, table):
            composed.append(s)
            return compose_rows(s, inner, table)

        def counted_inverse(s):
            inverted.append(s)
            return inverse(s)

        for module in (fields, umbral):
            monkeypatch.setattr(module, "_lay_out", counted_lay_out)
        monkeypatch.setattr(Series, "_compose_rows", counted_compose_rows)
        monkeypatch.setattr(Series, "inverse", counted_inverse)
        return laid, composed, inverted

    def test_frobenius_pair(self, monkeypatch):
        pair = bespoke_pair("T2", answer_trunc(self.N), order=-1, b=F(1, 2), lam=None)
        assert umbral._cut(pair, self.N) is pair and pair.g.field is QL
        t_f = pair.f.shift_div(1)
        laid, composed, inverted = self._spy(monkeypatch)
        sheffer_gf(pair, self.N)
        assert laid == [pair.g.coeffs, pair.ginv.coeffs, pair.f.coeffs]  # proof, round trip
        assert composed == [pair.f] and inverted == []
        del composed[:], inverted[:]
        sheffer_transfer_all(pair, self.N)  # reads the proof the GF route made
        assert laid.count(pair.ginv.coeffs) == 1
        assert laid == [pair.g.coeffs, pair.ginv.coeffs, pair.f.coeffs]
        assert composed == [] and inverted == [t_f]

    def test_dsl_pair_inverts_g_once(self, monkeypatch):
        # across both routes: one Q(L) inversion, of g, and one composition,
        # the reversion's round trip; 1/g is laid out once, by its proof
        pair = dsl_pair("(exp(t)-L)/(1-L)", "log1p(t)", answer_trunc(self.N))
        assert pair.ginv is None and pair.g.field is QL
        ginv = pair.g.inverse()
        laid, composed, inverted = self._spy(monkeypatch)
        sheffer_gf(pair, self.N)
        sheffer_transfer_all(pair, self.N)
        assert composed == [pair.f]
        assert [s for s in inverted if s.field is QL] == [pair.g]
        assert laid.count(pair.g.coeffs) == laid.count(ginv.coeffs) == 1


# ---------------------------------------------------------------------------
# each pair prepared once per answer truncation: one cut, one proof of ginv
# and one layout of g, kept on the pair object for the last T only
# ---------------------------------------------------------------------------


class TestPreparedOnce:
    """``umbral._prepare`` cuts a pair, proves its ginv and lays out g once
    per answer truncation T, and keeps that on the pair object itself, for
    the last T only, outside the pair's fields.  The pins count calls, so
    they hold on any host."""

    N = 10

    @staticmethod
    def _pair(T):
        return bespoke_pair("T2", T, order=-1, b=F(1, 2), lam=None)

    @staticmethod
    def _spy(monkeypatch):
        """(laid, proofs): the vectors laid out (``_lay_out``) and the pairs
        whose ginv ``_proven_ginv`` decided, in call order."""
        laid, proofs = [], []
        lay_out, proven_ginv = fields._lay_out, umbral._proven_ginv

        def counted_lay_out(c, w=None):
            laid.append(tuple(c))
            return lay_out(c, w)

        def counted_proven_ginv(pair, gl=None):
            proofs.append(pair)
            return proven_ginv(pair, gl)

        for module in (fields, umbral):
            monkeypatch.setattr(module, "_lay_out", counted_lay_out)
        monkeypatch.setattr(umbral, "_proven_ginv", counted_proven_ginv)
        return laid, proofs

    def test_one_proof_and_one_layout_of_g_and_ginv_across_the_three_steps(self, monkeypatch):
        pair = self._pair(answer_trunc(self.N))
        assert umbral._cut(pair, self.N) is pair and pair.g.field is QL
        laid, proofs = self._spy(monkeypatch)
        polys = sheffer_gf(pair, self.N)
        assert sheffer_transfer_all(pair, self.N) == polys[1:]
        assert orthogonality_failure(pair, polys, self.N) is None
        assert proofs == [pair]
        assert laid.count(pair.g.coeffs) == laid.count(pair.ginv.coeffs) == 1
        # a second GF call lays out neither g nor ginv, only f for the
        # reversion's round trip, and proves nothing
        del laid[:]
        assert sheffer_gf(pair, self.N) == polys
        assert laid == [pair.f.coeffs] and proofs == [pair]

    def test_a_fresh_equal_pair_proves_again(self, monkeypatch):
        pair, fresh = self._pair(answer_trunc(self.N)), self._pair(answer_trunc(self.N))
        assert pair == fresh and pair is not fresh
        laid, proofs = self._spy(monkeypatch)
        want = sheffer_gf(pair, self.N)
        assert sheffer_gf(fresh, self.N) == want
        assert proofs == [pair, fresh] and proofs[0] is pair and proofs[1] is fresh
        assert laid.count(pair.g.coeffs) == laid.count(pair.ginv.coeffs) == 2

    def test_one_truncation_at_a_time(self, monkeypatch):
        # each T is prepared afresh, and only the last is kept: 4, 10, 4
        # and 10 again prove four times, and every answer is that of a
        # fresh pair at its own n_max
        pair = self._pair(22)
        want = {n: sheffer_gf(self._pair(22), n) for n in (4, self.N)}
        _, proofs = self._spy(monkeypatch)
        for n in (4, self.N, 4, self.N):
            assert sheffer_gf(pair, n) == want[n]
            assert sheffer_transfer_all(pair, n) == want[n][1:]
            assert orthogonality_failure(pair, want[n], n) is None
        assert [p.g.trunc for p in proofs] == [5, 11, 5, 11]

    def test_the_truncation_gate_holds_for_a_kept_truncation(self):
        # n_max = 0 and 1 share T = 2, but a g known through t^0 only
        # serves n_max = 0 alone, kept or not
        pair = ShefferPair(one(QQ, 1), t_series(QQ, 2))
        assert sheffer_gf(pair, 0) == [Poly(QQ, [1])]
        with pytest.raises(TruncationTooShort):
            sheffer_gf(pair, 1)
        with pytest.raises(DomainError):
            sheffer_gf(pair, -1)

    def test_orthogonality_first_lays_out_g_once_and_proves_nothing(self, monkeypatch):
        pair = self._pair(answer_trunc(self.N))
        polys = sheffer_gf(self._pair(answer_trunc(self.N)), self.N)
        laid, proofs = self._spy(monkeypatch)
        assert orthogonality_failure(pair, polys, self.N) is None
        assert proofs == [] and laid.count(pair.g.coeffs) == 1
        assert sheffer_gf(pair, self.N) == polys
        assert proofs == [pair] and laid.count(pair.g.coeffs) == 1
        assert laid.count(pair.ginv.coeffs) == 1

    @pytest.mark.parametrize("m", [0, 5])
    def test_wrong_ginv_takes_the_plain_path_in_both_routes(self, m, monkeypatch):
        pair = self._pair(answer_trunc(self.N))
        wrong = list(pair.ginv.coeffs)
        wrong[m] = wrong[m] + 1
        bumped = ShefferPair(pair.g, pair.f, Series(pair.ginv.field, wrong))
        plain = _without_ginv(pair)
        _, proofs = self._spy(monkeypatch)
        polys = sheffer_gf(bumped, self.N)
        assert _texts(polys) == _texts(sheffer_gf(plain, self.N))
        assert _texts(sheffer_transfer_all(bumped, self.N)) == _texts(
            sheffer_transfer_all(plain, self.N))
        assert orthogonality_failure(bumped, polys, self.N) is None
        # per pair: the claim's proof (wrong or absent), then that of g's own inverse
        assert proofs[0::2] == [bumped, plain]
        assert [p.ginv for p in proofs[1::2]] == [pair.g.inverse()] * 2

    def test_fields_equality_hash_and_repr_do_not_see_the_memo(self):
        pair = self._pair(answer_trunc(self.N))
        before = (dict(pair.__dict__), hash(pair), repr(pair))
        polys = sheffer_gf(pair, self.N)
        sheffer_transfer_all(pair, self.N)
        orthogonality_failure(pair, polys, self.N)
        assert list(pair.__dict__) == ["g", "f", "ginv"]
        assert (dict(pair.__dict__), hash(pair), repr(pair)) == before
        fresh = self._pair(answer_trunc(self.N))
        assert pair == fresh and hash(pair) == hash(fresh)
        with pytest.raises(AttributeError):
            pair._prepared = None

    def test_a_copy_of_a_routed_pair_starts_without_the_memo(self, monkeypatch):
        import copy

        pair = self._pair(answer_trunc(self.N))
        polys = sheffer_gf(pair, self.N)
        twin = copy.copy(pair)
        assert twin == pair and twin is not pair
        _, proofs = self._spy(monkeypatch)
        assert sheffer_gf(twin, self.N) == polys and proofs == [twin]

    def test_a_pair_built_past_its_init(self, monkeypatch):
        # as _with_f_lifted builds it, by Record.__init__ alone: no memo
        # until a route asks, then one proof for both routes
        pair = self._pair(answer_trunc(self.N))
        lifted = _with_f_lifted(pair, pair.ginv)
        assert lifted.f.field is QL
        _, proofs = self._spy(monkeypatch)
        polys = sheffer_gf(lifted, self.N)
        assert polys == _lifted_polys(sheffer_gf(pair, self.N))
        assert sheffer_transfer_all(lifted, self.N) == polys[1:]
        assert orthogonality_failure(lifted, polys, self.N) is None
        assert proofs == [lifted, pair]

    def test_every_sheffer_q_lambda_pair_as_on_a_fresh_pair(self):
        # each step on a pair that the steps before it prepared gives what
        # it gives on a pair of its own, and the GF route what its former
        # form gives, which reads umbral._cut and _proven_ginv directly
        routed = _sheffer_q_lambda_pairs()
        fresh = [_sheffer_q_lambda_pairs() for _ in range(3)]
        assert len(routed) == 60
        for i, pair in enumerate(routed):
            polys = sheffer_gf(pair, self.N)
            assert _same_polys(polys, sheffer_gf(fresh[0][i], self.N))
            assert _same_polys(polys, _composed_gf(fresh[0][i], self.N))
            assert _same_polys(sheffer_transfer_all(pair, self.N),
                               sheffer_transfer_all(fresh[1][i], self.N))
            assert orthogonality_failure(pair, polys, self.N) is None
            assert orthogonality_failure(fresh[2][i], polys, self.N) is None


# ---------------------------------------------------------------------------
# the memo makes no reference cycle: a routed pair is freed at its last del
# ---------------------------------------------------------------------------


class TestPreparedPairIsFreed:
    """``_prepare`` keeps None, not the pair, for a cut pair that is the
    pair itself, so a pair routed at its own answer truncation is freed by
    reference counting alone, as one cut from a longer truncation is."""

    N = 8

    @pytest.mark.parametrize("make", [
        lambda T: catalog_pair(FamilySpec.make("frobenius_euler", -1, lam=None), T=T),
        lambda T: dsl_pair("(exp(t)-L)/(1-L)", "log1p(t)", T),
    ], ids=["family_polys", "dsl"])
    @pytest.mark.parametrize("T", [answer_trunc(N), 22])
    def test_freed_at_del(self, make, T):
        import gc
        import weakref

        pair = make(T)
        assert (umbral._cut(pair, self.N) is pair) is (T == answer_trunc(self.N))
        gc.disable()
        try:
            polys = sheffer_gf(pair, self.N)
            assert sheffer_transfer_all(pair, self.N) == polys[1:]
            assert orthogonality_failure(pair, polys, self.N) is None
            assert (pair._prepared[0] is None) is (T == answer_trunc(self.N))
            alive = weakref.ref(pair)
            del pair
            assert alive() is None
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# copies: a pickled or deep-copied object reads the module's field objects
# ---------------------------------------------------------------------------


class TestCopiedObjects:
    """``QQ`` and ``QL`` pickle and copy as themselves, so every ``field is
    QQ`` test in the kernel holds for a copied Series, RatFunc, Poly or
    ShefferPair, and a copied pair routes as the original."""

    @staticmethod
    def _round_trips(x):
        import copy
        import pickle

        return [pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)]

    def test_fields_are_their_singletons(self):
        for field in (QQ, QL):
            assert all(c is field for c in self._round_trips(field))

    @pytest.mark.parametrize("value", [
        Series(QQ, [1, F(2, 3), -5]),
        Series(QL, [1, RatFunc((1, 2), (3, 0, 1)), LAMBDA]),
        RatFunc((F(1, 2), -1), (1, 1)),
        Poly(QQ, [F(-1, 2), 0, 3]),
        Poly(QL, [LAMBDA, 1]),
    ], ids=["series-Q", "series-QL", "ratfunc", "poly-Q", "poly-QL"])
    def test_values(self, value):
        for copied in self._round_trips(value):
            assert copied == value and hash(copied) == hash(value)
            if not isinstance(value, RatFunc):
                assert copied.field is value.field

    def test_pair_routes_as_the_original(self):
        n_max = 8
        pair = bespoke_pair("T2", 9, order=-1, b=F(1, 2), lam=None)
        polys = sheffer_gf(pair, n_max)
        transfer = sheffer_transfer_all(pair, n_max)
        assert orthogonality_failure(pair, polys, n_max) is None
        for copied in self._round_trips(pair):
            assert copied == pair and copied.g.field is QL and copied.f.field is QQ
            assert sheffer_gf(copied, n_max) == polys
            assert sheffer_transfer_all(copied, n_max) == transfer
            assert orthogonality_failure(copied, polys, n_max) is None
            assert orthogonality_failure(copied, sheffer_gf(copied, n_max), n_max) is None


# ---------------------------------------------------------------------------
# the two guards on the one 1/g both routes read
# ---------------------------------------------------------------------------


class TestSharedInverseGuards:
    """Both routes read one 1/g, so their cross-check cannot see a wrong
    one.  Two guards can: the proof of g's own inverse, whose rejection is
    a fault of the kernel and raises (exit 3 in the CLI), and the
    orthogonality check, which reads g and not 1/g."""

    N = 6
    G, F_ = "(exp(t)-L)/(1-L)", "log1p(t)"

    @staticmethod
    def _bump_inverse(monkeypatch):
        """Series.inverse over Q(L), as of g, returns the true inverse with
        coefficient 2 moved; over Q, as of t/f, it is left right."""
        inverse = Series.inverse

        def bumped(s):
            out = list(inverse(s).coeffs)
            if s.field is QL:
                out[2] = out[2] + 1
            return Series(s.field, out)

        monkeypatch.setattr(Series, "inverse", bumped)

    def test_a_wrong_inverse_is_a_kernel_fault(self, monkeypatch):
        for route in (sheffer_gf, sheffer_transfer_all):
            pair = dsl_pair(self.G, self.F_, answer_trunc(self.N))
            with monkeypatch.context() as m:
                self._bump_inverse(m)
                with pytest.raises(AssertionError, match="kernel fault") as raised:
                    route(pair, self.N)
            assert not isinstance(raised.value, UmbralError)

    def test_the_cli_reports_it_as_an_internal_error(self, monkeypatch, capsys):
        from umbralkit import cli

        self._bump_inverse(monkeypatch)
        argv = ["sheffer", "--g", self.G, "--f", self.F_, "--n", str(self.N), "--format", "csv"]
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("internal error: AssertionError: kernel fault")

    def test_orthogonality_fails_a_wrong_inverse_the_proof_let_through(self, monkeypatch):
        pair = dsl_pair(self.G, self.F_, answer_trunc(self.N))
        want = sheffer_gf(dsl_pair(self.G, self.F_, answer_trunc(self.N)), self.N)
        self._bump_inverse(monkeypatch)
        monkeypatch.setattr(umbral, "_proven_ginv", lambda p, gl=None: (
            (None, None) if p.ginv is None else (p.ginv, fields._lay_out(p.ginv.coeffs))))
        polys = sheffer_gf(pair, self.N)
        assert polys != want
        assert sheffer_transfer_all(pair, self.N) == polys[1:]  # the routes agree
        assert orthogonality_failure(pair, polys, self.N) is not None
