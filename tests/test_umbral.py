"""Functionals, operators, and the two Sheffer constructions."""

from fractions import Fraction as F
from functools import reduce
from math import factorial

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


def _with_f_lifted(pair):
    """The pair with f lifted into Q(L), built past ``ShefferPair.__init__``
    so that f stays there and the routes run f's half over Q(L)."""
    lifted = object.__new__(ShefferPair)
    Record.__init__(lifted, pair.g, Series(QL, pair.f.coeffs))
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
    """A RatFunc's canonical form, scale included; any other value as it is."""
    return (c.scale, c._n, c._d) if isinstance(c, RatFunc) else c


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
    reversion's round trip, and reads it for g(fbar) and its columns."""

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
