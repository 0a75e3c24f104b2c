"""Functionals, operators, and the two Sheffer constructions."""

from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbralkit import (
    DomainError,
    NotDelta,
    NotInvertible,
    Poly,
    QL,
    QQ,
    Series,
    ShefferPair,
    TruncationTooShort,
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
    orthogonality_check,
    orthogonality_failure,
    parse_expr,
    sheffer_gf,
    sheffer_transfer,
    sheffer_transfer_all,
    t_series,
    FamilySpec,
)

from conftest import qq_polys, qq_series

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


class TestShefferPair:
    def test_validation(self):
        with pytest.raises(NotInvertible):
            ShefferPair(t_series(QQ, 6), t_series(QQ, 6))
        with pytest.raises(NotDelta):
            ShefferPair(one(QQ, 6), one(QQ, 6))
        with pytest.raises(NotDelta):
            ShefferPair(one(QQ, 6), monomial(QQ, 2, 6))

    def test_trunc(self):
        pair = ShefferPair(one(QQ, 6), t_series(QQ, 8))
        assert pair.trunc == 6


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
        assert sheffer_transfer(pair, 5) == Poly.monomial(QQ, 5)

    def test_bernoulli_second(self):
        assert sheffer_transfer(bernoulli_pair(), 2) == Poly(QQ, [F(1, 6), -1, 1])

    def test_daehee_closed_form(self):
        # independent closed form: (1/(1-L)) sum_l C(n,l)
        #   [(x+1) B_{n-1}^{(n)}(x+l+1) - L x B_{n-1}^{(n)}(x+l)]
        from umbralkit import QL
        from umbralkit.fields import LAMBDA

        pair = catalog_pair(FamilySpec.make("daehee", 1), T=T)
        x = Poly.x(QL)
        scale = QL.one / (QL.one - LAMBDA)
        for n in range(1, 5):
            base = bernoulli_poly(n, n - 1).to_field(QL)
            rhs = Poly(QL)
            for l in range(n + 1):
                term = (x + 1) * base.shift_arg(l + 1) - (x * base.shift_arg(l)) * LAMBDA
                rhs = rhs + term * binom(n, l)
            rhs = rhs * scale
            assert sheffer_transfer(pair, n) == rhs

    def test_rejects_n_zero(self):
        with pytest.raises(DomainError):
            sheffer_transfer(bernoulli_pair(), 0)

    def test_truncation_guard(self):
        with pytest.raises(TruncationTooShort):
            sheffer_transfer(bernoulli_pair(T=6), 4)

    def test_transfer_all_matches_single(self):
        pair = catalog_pair(FamilySpec.make("poisson_charlier", 1, a=F(2)), T=T)
        all_polys = sheffer_transfer_all(pair, 4)
        for n in range(1, 5):
            assert all_polys[n - 1] == sheffer_transfer(pair, n)


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
        assert orthogonality_check(pair, [Poly.monomial(QQ, n) for n in range(7)], 6)

    def test_bernoulli(self):
        pair = bernoulli_pair()
        polys = sheffer_gf(pair, 8)
        assert orthogonality_check(pair, polys, 8)

    def test_wrong_polynomials(self):
        pair = bernoulli_pair()
        wrong = [Poly.monomial(QQ, n) for n in range(5)]
        assert not orthogonality_check(pair, wrong, 4)
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
    field = QL if "L" in g_src + f_src else QQ
    g, f = (eval_expr(parse_expr(src), T + 1, field).truncate(T) for src in (g_src, f_src))
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
        transfer = sheffer_transfer_all(dsl_pair(g_src, f_src, 2 * n), n)
        assert sheffer_transfer_all(long, n) == transfer == polys[1:]
        assert orthogonality_failure(long, polys, n) is None
        # a wrong sequence fails at the same place with the same value
        j = data.draw(st.integers(0, n), label="j")
        wrong = polys[:j] + [polys[j] + Poly.monomial(long.field, j, 1)] + polys[j + 1:]
        assert orthogonality_failure(long, wrong, n) == orthogonality_failure(
            dsl_pair(g_src, f_src, n + 1), wrong, n
        )

    @given(case=dsl_pairs(), tail=st.lists(st.integers(-5, 5), min_size=2, max_size=2))
    @settings(max_examples=30, deadline=None)
    def test_tail_beyond_n_ignored(self, case, tail):
        g_src, f_src, n = case
        T = 2 * n + 2
        pair = dsl_pair(g_src, f_src, T)
        field = pair.field
        bumps = [Series(field, [0] * (n + 1) + [c] * (T - n - 1), trunc=T) for c in tail]
        changed = ShefferPair(pair.g + bumps[0], pair.f + bumps[1])
        polys = sheffer_gf(pair, n)
        assert sheffer_gf(changed, n) == polys
        assert sheffer_transfer_all(changed, n) == polys[1:]
        assert orthogonality_failure(changed, polys, n) is None


class TestLargerN:
    def test_t2_symbolic_n20(self):
        # T2[a=-1], b = 1/2, symbolic lambda: the slowest registry pair
        n = 20
        pair = bespoke_pair("T2", 2 * n, order=-1, b=F(1, 2), lam=None)
        polys = sheffer_gf(pair, n)
        assert [p.degree for p in polys] == list(range(n + 1))
        assert sheffer_transfer_all(pair, n) == polys[1:]
        assert orthogonality_failure(pair, polys, n) is None
