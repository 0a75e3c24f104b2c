"""Named polynomial families and their Sheffer pairs."""

import ast
import signal
import sys
from contextlib import contextmanager
from fractions import Fraction as F
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umbralkit import (
    DivisionByZero,
    DomainError,
    EvalPole,
    FamilySpec,
    Poly,
    QL,
    QQ,
    Series,
    ShefferPair,
    aggregate_pass,
    answer_trunc,
    b2_convolution,
    bernoulli_2nd,
    bernoulli_number,
    bernoulli_poly,
    bernoulli_value,
    bespoke_pair,
    binom,
    catalog_pair,
    euler_poly,
    exp_ct,
    falling_factorial,
    family_polys,
    frobenius_euler_poly,
    frobenius_eulerian_poly,
    functional_apply,
    gen_binom,
    log1p_series,
    monomial,
    narumi_number,
    narumi_poly,
    narumi_value,
    one,
    one_plus_t_pow,
    operator_apply,
    orthogonality_failure,
    poisson_charlier,
    sheffer_gf,
    stirling1,
    stirling2,
    t_series,
    working_trunc,
    zero,
)
from umbralkit.errors import MAX_PAIR_TRUNC
from umbralkit.families import (
    SCHEMAS, Schema, _appell_poly, _bern_base, _falling_sum, _frobenius_g,
    _narumi_base, build_pair, check_params,
)
from umbralkit.fields import LAMBDA, RatFunc

from conftest import multinomial


class TestBernoulli:
    def test_zero_order(self):
        assert bernoulli_poly(0, 3) == Poly.monomial(QQ, 3)

    def test_classic_second(self):
        assert bernoulli_poly(1, 2) == Poly(QQ, [F(1, 6), -1, 1])

    def test_order_two_value(self):
        # (t/(e^t-1))^2 = 1 - t + ... so B_1^(2)(0) = -1
        assert bernoulli_poly(2, 1).eval(0) == -1
        assert bernoulli_number(2, 1) == -1

    def test_negative_order(self):
        # ((e^t-1)/t)^1 e^{xt}: B_1^(-1)(x) = x + 1/2
        assert bernoulli_poly(-1, 1) == Poly(QQ, [F(1, 2), 1])

    def test_degree(self):
        for a in (-2, 0, 3):
            assert bernoulli_poly(a, 5).degree == 5


class TestEuler:
    def test_zero_order(self):
        assert euler_poly(0, 2) == Poly.monomial(QQ, 2)

    def test_first_two(self):
        assert euler_poly(1, 1) == Poly(QQ, [F(-1, 2), 1])
        assert euler_poly(1, 2) == Poly(QQ, [0, -1, 1])


class TestFrobeniusEuler:
    def test_constant(self):
        assert frobenius_euler_poly(1, 0) == Poly.constant(QL, 1)
        assert frobenius_euler_poly(1, 0, F(2)) == Poly.constant(QQ, 1)

    def test_first_symbolic(self):
        expect = Poly(QL, [QL.one / (LAMBDA - 1), QL.one])
        assert frobenius_euler_poly(1, 1) == expect

    def test_euler_specialization(self):
        assert frobenius_euler_poly(1, 2, F(-1)) == euler_poly(1, 2)
        for n in range(6):
            assert frobenius_euler_poly(2, n, F(-1)) == euler_poly(2, n)

    @pytest.mark.parametrize("a", [-2, -1, 0, 1, 2, 3])
    def test_euler_against_its_generating_function(self, a):
        # euler_poly reads the Frobenius-Euler g at lam = -1, so the oracle is
        # n! [t^n] ((e^t + 1)/2)^(-a) e^(xt), built here: its x^j coefficient
        # is n!/j! [t^(n-j)] ((e^t + 1)/2)^(-a)
        n_max = 12
        factor = ((exp_ct(QQ, 1, n_max + 1) + 1) * F(1, 2)).pow_int(-a)
        for n in range(n_max + 1):
            expected = [F(factorial(n), factorial(j)) * factor.coeffs[n - j] for j in range(n + 1)]
            assert euler_poly(a, n) == Poly(QQ, expected)

    def test_rational_matches_symbolic(self):
        # evaluation is a homomorphism: specialize the symbolic answer
        for lam0 in (F(-1), F(2), F(1, 2)):
            sym = frobenius_euler_poly(1, 3)
            spec = frobenius_euler_poly(1, 3, lam0)
            assert [c.evaluate(lam0) for c in sym.coeffs] == list(spec.coeffs)

    def test_lambda_one_rejected(self):
        with pytest.raises(EvalPole):
            frobenius_euler_poly(1, 2, F(1))


class TestFrobeniusEulerian:
    def test_zero_order(self):
        assert frobenius_eulerian_poly(0, 2) == Poly.monomial(QL, 2)

    def test_constant(self):
        assert frobenius_eulerian_poly(1, 0) == Poly.constant(QL, 1)

    def test_first_symbolic(self):
        # expansion of the generating factor gives x + 1 (lambda-free)
        assert frobenius_eulerian_poly(1, 1) == Poly(QL, [1, 1])

    def test_second_symbolic(self):
        assert frobenius_eulerian_poly(1, 2) == Poly(QL, [LAMBDA + 1, 2, 1])

    def test_rational_matches_symbolic(self):
        for lam0 in (F(-1), F(3), F(1, 3)):
            sym = frobenius_eulerian_poly(2, 3)
            spec = frobenius_eulerian_poly(2, 3, lam0)
            assert [c.evaluate(lam0) for c in sym.coeffs] == list(spec.coeffs)


class TestNarumi:
    def test_constant_any_order(self):
        for a in (-3, 0, 1, 4):
            assert narumi_number(a, 0) == 1

    def test_first_order_first(self):
        assert narumi_number(1, 1) == F(-1, 2)

    def test_bernoulli_ratio(self):
        for n in range(1, 7):
            assert narumi_number(n, 1) / n == bernoulli_number(n + 1, 1) / (n + 1)

    def test_poly_matches_values(self):
        for n in range(5):
            p = narumi_poly(2, n)
            assert p.degree == n
            for y in (0, 1, F(-1, 2)):
                assert p.eval(y) == narumi_value(2, n, y)

    def test_shifted_value(self):
        # N_1^(1)(y) = 1! [t] (log(1+t)/t)(1+t)^y = y - 1/2
        for y in (0, 2, F(1, 3)):
            assert narumi_value(1, 1, y) == y - F(1, 2)

    def test_pair_consistency(self):
        # the asserted pair reproduces the generating-function polynomials
        pair = catalog_pair(FamilySpec.make("narumi", 2), T=12)
        polys = sheffer_gf(pair, 8)
        for n in range(9):
            assert polys[n] == narumi_poly(2, n)


class TestValuesAsOneDot:
    """Each value read as one dot of its base with the reversed (1+t)^x or
    e^{xt}, against the forms that dot replaced: the whole product for
    Narumi, the polynomial by Horner's rule and the base's own coefficient
    for Bernoulli."""

    @staticmethod
    def _narumi_value_by_product(a, n, shift):
        T = n + 1
        if not isinstance(shift, RatFunc) or shift.is_constant():
            shift = F(shift.as_rat() if isinstance(shift, RatFunc) else shift)
        return factorial(n) * (_narumi_base(a, T) * one_plus_t_pow(QQ, shift, T)).coeffs[n]

    @pytest.mark.parametrize("shift", [
        0, 3, F(-3, 2), F(1, 3), QL.coerce(F(2, 5)), LAMBDA, 2 * LAMBDA - F(1, 2),
        QL.one / (LAMBDA + 1),
    ])
    def test_narumi_value_is_the_product_coefficient(self, shift):
        for a in (-3, -1, 0, 1, 2, 4):
            for n in range(9):
                got, want = narumi_value(a, n, shift), self._narumi_value_by_product(a, n, shift)
                assert (type(got), str(got)) == (type(want), str(want)), (a, n)

    @pytest.mark.parametrize("at", [0, 1, -2, F(1, 2), F(-7, 3)])
    def test_bernoulli_value_is_the_polynomial_at_the_point(self, at):
        for a in (-3, -1, 0, 1, 2, 4):
            for n in range(10):
                got = bernoulli_value(a, n, at)
                assert type(got) is F
                assert got == bernoulli_poly(a, n).eval(F(at)), (a, n)

    def test_bernoulli_number_is_the_base_coefficient(self):
        for a in (-3, -1, 0, 1, 2, 4):
            for n in range(10):
                got = bernoulli_number(a, n)
                assert type(got) is F
                assert got == factorial(n) * _bern_base(-a, n + 1).coeffs[n], (a, n)


class TestStirling:
    def test_second_kind_values(self):
        assert stirling2(4, 2) == 7
        assert stirling2(3, 1) == 1
        for n in range(11):
            assert stirling2(n, n) == 1
        assert stirling2(3, 5) == 0

    def test_second_kind_recurrence_oracle(self):
        # S2(n,k) = k S2(n-1,k) + S2(n-1,k-1)
        table = {(0, 0): F(1)}
        for n in range(1, 11):
            for k in range(n + 1):
                table[(n, k)] = k * table.get((n - 1, k), F(0)) + table.get(
                    (n - 1, k - 1), F(0)
                )
        for n in range(11):
            for k in range(n + 1):
                assert stirling2(n, k) == table[(n, k)]

    def test_first_kind_values(self):
        assert stirling1(2, 1) == -1
        assert stirling1(4, 2) == 11
        for n in range(11):
            assert stirling1(n, n) == 1
        assert stirling1(3, 5) == 0

    def test_first_kind_recurrence_oracle(self):
        # S1(n,k) = S1(n-1,k-1) - (n-1) S1(n-1,k)
        table = {(0, 0): F(1)}
        for n in range(1, 11):
            for k in range(n + 1):
                table[(n, k)] = table.get((n - 1, k - 1), F(0)) - (n - 1) * table.get(
                    (n - 1, k), F(0)
                )
        for n in range(11):
            for k in range(n + 1):
                assert stirling1(n, k) == table[(n, k)]

    def test_first_kind_from_log_powers(self):
        # n! [t^{l+n}] (log(1+t))^n / n!-normalization: S1(l+n, n)
        for n in range(1, 5):
            series = log1p_series(QQ, 10).pow_int(n)
            for l in range(5):
                coeff = series.coeffs[l + n]
                assert coeff * factorial(l + n) / factorial(n) == stirling1(l + n, n)

    def test_duality(self):
        for n in range(8):
            for m in range(8):
                total = sum(
                    (stirling1(n, k) * stirling2(k, m) for k in range(n + 1)), F(0)
                )
                assert total == (1 if n == m else 0)


class TestPoissonCharlier:
    def test_constant(self):
        assert poisson_charlier(0, 2) == Poly.constant(QQ, 1)

    def test_first(self):
        assert poisson_charlier(1, F(2)) == Poly(QQ, [-1, F(1, 2)])
        assert poisson_charlier(1, F(1, 3)) == Poly(QQ, [-1, 3])

    def test_eval_variant(self):
        assert poisson_charlier(2, F(2), x_eval=3) == poisson_charlier(2, F(2)).eval(3)

    @pytest.mark.parametrize("a", [F(2), F(-1, 3), F(5, 2), 1])
    def test_value_matches_polynomial(self, a):
        # the running-product value against the polynomial evaluated at x
        for n in range(9):
            p = poisson_charlier(n, a)
            for x in range(-2, 7):
                assert poisson_charlier(n, a, x_eval=x) == p.eval(x)

    @staticmethod
    def _value_by_fractions(n, a, x):
        """C_n(x; a) with a Fraction per term and (x)_k as a running
        product, stopped once it is 0: the reference for the one integer
        sum of ``poisson_charlier(n, a, x_eval=x)``."""
        value, falling = F(0), F(1)
        for k in range(n + 1):
            if not falling:
                break
            value += binom(n, k) * (-1) ** (n - k) * F(a) ** (-k) * falling
            falling *= x - k
        return value

    @given(n=st.integers(0, 16),
           a=st.fractions(-9, 9, max_denominator=7).filter(bool),
           x=st.integers(-3, 18) | st.fractions(-9, 9, max_denominator=7))
    @settings(max_examples=150, deadline=None)
    def test_value_is_the_fraction_sum(self, n, a, x):
        got = poisson_charlier(n, a, x_eval=x)
        assert type(got) is F
        assert got == self._value_by_fractions(n, a, x)

    def test_zero_parameter_rejected(self):
        with pytest.raises(DivisionByZero):
            poisson_charlier(2, 0)

    def test_egf_identity_truncated(self):
        # sum_l C_n(l;a) t^l/l! = e^t ((t-a)/a)^n as truncated series
        a, T = F(2), 8
        for n in range(3):
            lhs = Series(
                QQ,
                [poisson_charlier(n, a).eval(l) / factorial(l) for l in range(T)],
            )
            rhs = exp_ct(QQ, 1, T) * ((t_series(QQ, T) - a) * (1 / a)).pow_int(n)
            assert lhs == rhs


class TestBernoulliSecondKind:
    def test_values(self):
        assert bernoulli_2nd(0, 0) == 1
        assert bernoulli_2nd(1, 0) == F(1, 2)
        assert bernoulli_2nd(2, 0) == F(-1, 6)

    def test_shifted(self):
        # b_1(c) = 1! [t] (t/log(1+t))(1+t)^c = c + 1/2
        for c in (F(1), F(-2), F(1, 2)):
            assert bernoulli_2nd(1, c) == c + F(1, 2)

    def test_family_polys_match_values(self):
        polys = family_polys("bernoulli_2nd", 1, 5)
        for n in range(6):
            for c in (0, 1, F(-1, 2)):
                assert polys[n].eval(c) == bernoulli_2nd(n, c)


class TestSeriesAndProductOracles:
    """The number families are integer definitions; their earlier series,
    Poly-product, inclusion-exclusion and Fraction-weight definitions stay
    here as oracles, for n <= 30 (n <= 40 for the Stirling sum)."""

    N = 30

    def test_stirling2_from_exp_powers(self):
        # S2(n, k) = n!/k! [t^n] (e^t - 1)^k, from one table of powers
        powers = (exp_ct(QQ, 1, self.N + 1) - 1).powers(self.N)
        for n in range(self.N + 1):
            for k in range(self.N + 1):
                assert stirling2(n, k) == F(factorial(n), factorial(k)) * powers[k].coeffs[n]

    def test_stirling1_and_falling_factorial_from_products(self):
        # (x)_n as the product of the Polys x - i, i < n
        x = Poly.x(QQ)
        product = Poly.constant(QQ, 1)
        for n in range(self.N + 1):
            assert falling_factorial(QQ, n) == product
            for k in range(n + 2):
                assert stirling1(n, k) == product.coefficient(k)
            product = product * (x - n)

    def test_falling_factorial_over_qlambda(self):
        x = Poly.x(QL)
        product = Poly.constant(QL, 1)
        for n in range(8):
            assert falling_factorial(QL, n) == product
            product = product * (x - n)

    @pytest.mark.parametrize("a", [F(2), F(-1, 3), 1])
    def test_poisson_charlier_from_term_sums(self, a):
        a = F(a)
        for n in range(self.N + 1):
            terms = [falling_factorial(QQ, k) * (binom(n, k) * (-1) ** (n - k) * a ** (-k))
                     for k in range(n + 1)]
            assert poisson_charlier(n, a) == sum(terms[1:], terms[0])

    @pytest.mark.parametrize("a", [2, 1, -1, -3])
    def test_narumi_poly_from_term_sums(self, a):
        # N_n^(a)(x) = sum_m n!/m! [t^(n-m)] (log(1+t)/t)^a (x)_m
        base = log1p_series(QQ, self.N + 2).shift_div(1).pow_int(a)
        for n in range(self.N + 1):
            terms = [falling_factorial(QQ, m) * (base.coeffs[n - m] * F(factorial(n), factorial(m)))
                     for m in range(n + 1)]
            assert narumi_poly(a, n) == sum(terms[1:], terms[0])

    @pytest.mark.parametrize("x", [0, 1, F(-1, 2), F(7, 3)])
    def test_bernoulli_2nd_from_series(self, x):
        # b_n(x) = n! [t^n] t/log(1+t) (1+t)^x
        gf = (log1p_series(QQ, self.N + 2).shift_div(1).inverse()
              * one_plus_t_pow(QQ, x, self.N + 1))
        for n in range(self.N + 1):
            assert bernoulli_2nd(n, x) == factorial(n) * gf.coeffs[n]

    def test_stirling2_by_inclusion_exclusion(self):
        # S2(n, k) = sum_j (-1)^(k-j) C(k, j) j^n / k!, and 0 for k > n
        for n in range(41):
            for k in range(n + 2):
                total = sum((-1) ** (k - j) * binom(k, j) * j**n for j in range(k + 1))
                assert stirling2(n, k) == F(total, factorial(k)), (n, k)

    @pytest.mark.parametrize(
        "factor",
        [
            lambda T: _bern_base(1, T),
            lambda T: _bern_base(-2, T),
            lambda T: _frobenius_g(-1, None, False, T),
            lambda T: _frobenius_g(2, None, True, T),
            lambda T: _frobenius_g(-2, F(1, 2), True, T),
        ],
        ids=["bernoulli", "bernoulli_order-2", "frobenius_euler_L", "frobenius_eulerian_L",
             "frobenius_eulerian_1/2"],
    )
    def test_appell_poly_by_fraction_weights(self, factor):
        # n! factor[n-j] / j!, the weight a Fraction coerced into the field
        for n in range(16 if factor(2).field is QL else self.N + 1):
            g = factor(n + 1)
            want = Poly(g.field, [g.coeffs[n - j] * g.field.coerce(F(factorial(n), factorial(j)))
                                  for j in range(n + 1)])
            got = _appell_poly(g, n)
            assert got.field is want.field and got.coeffs == want.coeffs, n
            assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs], n

    @pytest.mark.parametrize("a", [2, 1, -1, -3])
    def test_narumi_poly_by_fraction_weights(self, a):
        # sum_m n!/m! [t^(n-m)] (log(1+t)/t)^a (x)_m, each weight a Fraction
        for n in range(self.N + 1):
            base = _narumi_base(a, n + 1).coeffs
            want = _falling_sum([base[n - m] * F(factorial(n), factorial(m)) for m in range(n + 1)])
            assert narumi_poly(a, n) == want, n


class TestFrobeniusBuilders:
    """The Frobenius g's are built from integer Stirling rows; the series
    arithmetic they were built by before is the oracle here."""

    ORDERS = range(-2, 3)
    TRUNCS = (1, 2, 13, 24)
    LAMS = (F(-1), F(0), F(1, 2), F(3))
    # the rational lambdas of the benchmark's cli workload
    LAM_SET = (F(-1), F(2), F(1, 2), F(3), F(-1, 2), F(1, 3))

    @staticmethod
    def _by_series(a, lam, T, rate):
        # ((e^{ct} - lam)/(1 - lam))^a with c = 1, or c = lam - 1 when rate
        lam_el = LAMBDA if lam is None else lam
        e = exp_ct(QQ, lam_el - 1 if rate else 1, T)
        return ((e - lam_el) * (1 / (1 - lam_el))).pow_int(a)

    @pytest.mark.parametrize("lam", (None,) + LAMS, ids=["L", "-1", "0", "1/2", "3"])
    @pytest.mark.parametrize("rate", [False, True], ids=["frobenius_euler", "frobenius_eulerian"])
    def test_matches_series_arithmetic(self, rate, lam):
        for a in self.ORDERS:
            for T in self.TRUNCS:
                assert _frobenius_g(a, lam, rate, T) == self._by_series(a, lam, T, rate), (a, T)

    @given(a=st.integers(-4, 4), lam=st.sampled_from((None,) + LAM_SET),
           T=st.integers(1, 30), rate=st.booleans())
    @settings(max_examples=60, deadline=None)
    @example(a=4, lam=None, T=30, rate=False)
    @example(a=-4, lam=None, T=30, rate=True)
    def test_reciprocal_is_the_order_negated(self, a, lam, T, rate):
        # the reciprocal a Frobenius pair carries: 1/g is the same sum at -a
        assert _frobenius_g(-a, lam, rate, T) == _frobenius_g(a, lam, rate, T).inverse()

    @pytest.mark.parametrize("rate", [False, True], ids=["frobenius_euler", "frobenius_eulerian"])
    def test_symbolic_specialises_to_rational(self, rate):
        for a in self.ORDERS:
            for T in self.TRUNCS:
                sym = _frobenius_g(a, None, rate, T)
                for lam0 in self.LAMS:
                    spec = _frobenius_g(a, lam0, rate, T)
                    assert [c.evaluate(lam0) for c in sym.coeffs] == list(spec.coeffs), (a, T, lam0)


class TestHelpers:
    def test_binom(self):
        assert binom(5, 2) == 10
        assert binom(3, 5) == 0
        assert binom(3, -1) == 0

    def test_gen_binom(self):
        assert gen_binom(F(-1), 3) == -1
        assert gen_binom(F(1, 2), 2) == F(-1, 8)
        assert gen_binom(F(5), 2) == 10

    def test_multinomial(self):
        assert multinomial(()) == 1
        assert multinomial((2, 1)) == 3
        assert multinomial((1, 1, 1)) == 6
        assert multinomial((0, 4)) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: bernoulli_poly(1, -1),
        lambda: bernoulli_number(1, -1),
        lambda: euler_poly(1, -2),
        lambda: frobenius_euler_poly(1, -1),
        lambda: frobenius_eulerian_poly(1, -1),
        lambda: narumi_poly(1, -1),
        lambda: narumi_number(1, -1),
        lambda: stirling1(-1, 0),
        lambda: stirling2(2.0, 1),
        lambda: poisson_charlier(-1, 2),
        lambda: bernoulli_2nd(-1),
        lambda: bernoulli_number(1, 2.0),
        lambda: euler_poly(1, True),
    ],
    ids=["bernoulli_poly", "bernoulli_number", "euler_poly", "frobenius_euler_poly",
         "frobenius_eulerian_poly", "narumi_poly", "narumi_number", "stirling1", "stirling2",
         "poisson_charlier", "bernoulli_2nd", "float", "bool"],
)
def test_bad_degree_is_domain_error(call):
    with pytest.raises(DomainError, match="n_max must be"):
        call()


# Every public argument passes through one of the domains in umbralkit.errors:
# a float is a binary approximation and a bool is not a number, so neither is
# taken for an exact integer or rational, and text must parse as a rational.
@pytest.mark.parametrize(
    "call",
    [
        lambda: frobenius_euler_poly(1, 1, 0.1),
        lambda: narumi_value(1, 1, 0.1),
        lambda: poisson_charlier(2, 0.5),
        lambda: bernoulli_2nd(2, 0.5),
        lambda: bernoulli_value(1, 2, 0.5),
        lambda: bernoulli_number(True, 2),
        lambda: bernoulli_poly(1.5, 2),
        lambda: stirling2(3, 1.5),
        lambda: stirling1(3, 1.5),
        lambda: gen_binom(1, 1.5),
        lambda: b2_convolution(1.5, 1, 1),
        lambda: monomial(QQ, 1.5, 3),
        lambda: t_series(QQ, 4).mul_t(1.5),
        lambda: falling_factorial(QQ, 2.0),
        lambda: narumi_value(1, 2, "x"),
        lambda: poisson_charlier(2, "a"),
        lambda: Series(QQ, [1], trunc=2.5),
        lambda: Series(QQ, [1], trunc=True),
        lambda: Series(QQ, [1, 2, 3]).truncate(2.5),
        lambda: catalog_pair(FamilySpec.make("bernoulli", 1), T=6.0),
        lambda: bespoke_pair("T2", 6.0),
        lambda: exp_ct(QQ, 1, 4).pow_int(1.5),
        lambda: exp_ct(QQ, 1, 4).pow_int(True),
        lambda: exp_ct(QQ, 1, 4).powers(1.5),
        lambda: exp_ct(QQ, 1, 4).powers(True),
        lambda: exp_ct(QQ, 1, 4).powers(-1),
        lambda: exp_ct(QQ, 1, 4.0),
        lambda: log1p_series(QQ, 4.0),
        lambda: one_plus_t_pow(QQ, 1, 4.0),
        lambda: Series(QQ, [0.5]),
        lambda: Series(QQ, [True]),
        lambda: Series(QL, [0.5]),
        lambda: exp_ct(QQ, 0.5, 3),
        lambda: one_plus_t_pow(QQ, 0.5, 3),
        lambda: Series(QQ, [1]) * 0.5,
        lambda: RatFunc((0.1, 1)),
        lambda: RatFunc((1,), (0.5, 1)),
        lambda: RatFunc(0.5),
        lambda: RatFunc(True),
        lambda: (LAMBDA / (1 - LAMBDA)).evaluate(0.1),
        lambda: (LAMBDA + 1).evaluate(True),
        lambda: Series(QQ, ["x"]),
        lambda: Series(QL, ["x"]),
        lambda: Poly(QQ, ["x"]),
        lambda: Poly(QQ, [1, 2]).eval("x"),
        lambda: Poly(QQ, [1, 2]).shift_arg("x"),
        lambda: exp_ct(QQ, 1, 4).agrees(3),
        lambda: exp_ct(QQ, 1, 4).agrees(Poly(QQ, [1])),
        lambda: LAMBDA.as_rat(),
        lambda: LAMBDA ** True,
        lambda: (1 + LAMBDA) ** False,
        lambda: ShefferPair(1, 2),
        lambda: sheffer_gf(None, 2),
        lambda: binom(1.5, 1),
        lambda: multinomial([1.5]),
        lambda: working_trunc(1.5),
        lambda: answer_trunc("x"),
        lambda: LAMBDA ** 1.5,
        lambda: LAMBDA ** F(1, 2),
        lambda: functional_apply(1, Poly(QQ, [1])),
        lambda: functional_apply(exp_ct(QQ, 1, 4), 1),
        lambda: operator_apply(1, Poly(QQ, [1])),
        lambda: operator_apply(exp_ct(QQ, 1, 4), [1]),
        lambda: orthogonality_failure(catalog_pair(FamilySpec.make("bernoulli", 1), T=4),
                                      [Poly(QQ, [1]), 1, Poly(QQ, [0, 0, 1])], 2),
        lambda: catalog_pair("bernoulli", 5),
        lambda: catalog_pair(FamilySpec("bernoulli", 1, "ab"), 5),
        lambda: family_polys(["T2"], 1, 3),
        lambda: bespoke_pair(["T2"], 6),
        lambda: check_params(["T2"], {}),
        lambda: check_params("T2", ["b"]),
        lambda: check_params("nope", {}),
        lambda: orthogonality_failure(catalog_pair(FamilySpec.make("bernoulli", 1), T=4), None, 2),
        lambda: check_params("T2", {1: 2, "x": 3}),
        lambda: catalog_pair(FamilySpec("T2", 1, ((1, 2), ("x", 3))), 5),
        lambda: build_pair("T2", -1, 1, {"b": 1, "lam": None}),
        lambda: build_pair("bernoulli", -1, 1, {}),
        lambda: build_pair("frobenius_euler", -1, 1, {}),
        lambda: build_pair("T10", -1, 1, {"b": 1, "c": 1, "m": 1, "lam": None}),
        lambda: build_pair("bernoulli", -3, 1, {}),
        lambda: build_pair("bernoulli", 0, 1, {}),
        lambda: build_pair("bernoulli", 1, 1, {}),
        lambda: exp_ct(None, 1, 4),
        lambda: zero(None, 4),
        lambda: one(None, 4),
        lambda: t_series(None, 4),
        lambda: monomial(None, 2, 4),
        lambda: log1p_series(None, 4),
        lambda: one_plus_t_pow(None, 1, 4),
        lambda: Poly(None, [1]),
        lambda: Series(None, None),
        lambda: b2_convolution(3, 2**63, -1),
        lambda: aggregate_pass(None),
        lambda: stirling1(2**63, 0),
        lambda: stirling2(2**63, 0),
        lambda: bernoulli_poly(1, 2**63),
        lambda: bernoulli_number(-1, 2**63),
        lambda: exp_ct(QQ, 1, 2**63),
        lambda: falling_factorial(QQ, 2**63),
        lambda: euler_poly(1, 2**63),
        lambda: narumi_poly(1, 2**63),
        lambda: gen_binom(1, 2**63),
        lambda: poisson_charlier(2**63, 1),
        lambda: one_plus_t_pow(QQ, 1, 2**63),
        lambda: log1p_series(QQ, 2**63),
        lambda: (1 + LAMBDA) ** (2**63),
        lambda: (1 + LAMBDA) ** -(2**63),
        lambda: binom(2**63, 2**62),
    ],
    ids=["frobenius_euler_lam", "narumi_value_shift", "poisson_charlier_a", "bernoulli_2nd_shift",
         "bernoulli_value_at", "bernoulli_number_order", "bernoulli_poly_order", "stirling2_k",
         "stirling1_k", "gen_binom_m", "b2_convolution_n", "monomial_degree", "mul_t_shift",
         "falling_factorial_degree", "narumi_value_text", "poisson_charlier_text", "series_trunc",
         "series_trunc_bool", "truncate", "catalog_pair_T", "bespoke_pair_T", "pow_int",
         "pow_int_bool", "powers", "powers_bool", "powers_negative", "exp_ct_T",
         "log1p_series_T", "one_plus_t_pow_T", "coefficient_float", "coefficient_bool",
         "coefficient_float_qlambda", "exp_ct_float", "one_plus_t_pow_float",
         "scalar_float", "ratfunc_num_float", "ratfunc_den_float", "ratfunc_float",
         "ratfunc_bool", "evaluate_float", "evaluate_bool", "series_text", "series_text_qlambda",
         "poly_text", "eval_text", "shift_arg_text", "agrees_int", "agrees_poly",
         "as_rat_lambda", "ratfunc_pow_true", "ratfunc_pow_false", "sheffer_pair_not_series",
         "route_pair_none", "binom_float", "multinomial_float", "working_trunc_float",
         "answer_trunc_text", "ratfunc_pow_float", "ratfunc_pow_fraction",
         "functional_apply_not_series", "functional_apply_not_poly",
         "operator_apply_not_series", "operator_apply_not_poly", "orthogonality_not_poly",
         "catalog_pair_not_spec", "catalog_pair_params_not_pairs", "family_polys_name_not_str",
         "bespoke_pair_name_not_str", "check_params_name_not_str", "check_params_not_mapping",
         "check_params_unknown_name", "orthogonality_polys_none", "check_params_mixed_names",
         "catalog_pair_mixed_names", "build_pair_T2_T_-1", "build_pair_bernoulli_T_-1",
         "build_pair_frobenius_euler_T_-1", "build_pair_T10_T_-1", "build_pair_T_-3",
         "build_pair_T_0", "build_pair_T_1", "exp_ct_field", "zero_field", "one_field",
         "t_series_field", "monomial_field", "log1p_series_field", "one_plus_t_pow_field",
         "poly_field", "series_field", "b2_convolution_l_huge", "aggregate_pass_none",
         "stirling1_n_huge", "stirling2_n_huge", "bernoulli_poly_n_huge",
         "bernoulli_number_n_huge", "exp_ct_T_huge", "falling_factorial_degree_huge",
         "euler_poly_n_huge", "narumi_poly_n_huge", "gen_binom_m_huge",
         "poisson_charlier_n_huge", "one_plus_t_pow_T_huge", "log1p_series_T_huge",
         "ratfunc_pow_huge", "ratfunc_pow_negative_huge", "binom_n_huge"],
)
def test_bad_argument_is_domain_error(call):
    # under a wall-clock limit, 100 times what any case takes: a call that
    # starts work on an oversized index fails here instead of running until
    # memory runs out
    with _time_limit(0.5), pytest.raises(DomainError):
        call()


class _Timeout(BaseException):
    """Not an Exception, so that no handler in the code under test takes it."""


@contextmanager
def _time_limit(seconds):
    """Stop the block once ``seconds`` of wall time pass (SIGALRM), and fail
    the test; no limit where ``signal.setitimer`` is missing."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def alarm(signum, frame):
        raise _Timeout

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except _Timeout:
        timed_out = True
    else:
        timed_out = False
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if timed_out:
        # a failure without the interrupted traceback, which can hold a
        # frame with no line number
        pytest.fail(f"still running after {seconds} s", pytrace=False)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: family_polys("frobenius_euler", 1, 3, lamda=2),
         "frobenius_euler does not take parameter(s) ['lamda']"),
        (lambda: catalog_pair(FamilySpec.make("T2", 1, bb=5), T=6),
         "T2 does not take parameter(s) ['bb']"),
        (lambda: catalog_pair(FamilySpec.make("bernoulli", 2, a=3), T=6),
         "bernoulli: a = 3 disagrees with order 2"),
        (lambda: family_polys("daehee", 7, 2), "daehee takes no order, got 7"),
        (lambda: check_params("T2", {1: 2, "x": 3, "bb": 4}),
         "T2 does not take parameter(s) [1, 'bb', 'x']"),
    ],
    ids=["family_polys", "catalog_pair", "order_and_a_disagree", "order_for_a_name_without",
         "names_of_mixed_types"],
)
def test_misspelt_parameter_is_domain_error(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("call", [
    lambda: family_polys("bernoulli", 1, 10**20),
    lambda: bespoke_pair("bernoulli", MAX_PAIR_TRUNC + 1),
    lambda: catalog_pair(FamilySpec.make("bernoulli", 1), T=sys.maxsize),
], ids=["family_polys", "bespoke_pair", "catalog_pair"])
def test_truncation_too_large_is_refused_before_building(call, monkeypatch):
    # the builders run at T + 2, so a T above sys.maxsize - 2 is refused
    # before one runs; one that ran would allocate until memory ran out
    def builder(T, **params):
        raise AssertionError(f"the builder ran at T = {T}")

    monkeypatch.setitem(SCHEMAS, "bernoulli", Schema(SCHEMAS["bernoulli"].params, builder))
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value).startswith(f"T must be <= {sys.maxsize - 2}, got ")
    # the largest T passes the bound, and its builder runs at sys.maxsize
    with pytest.raises(AssertionError, match=f"T = {sys.maxsize}$"):
        build_pair("bernoulli", MAX_PAIR_TRUNC, 1, {})


@pytest.mark.parametrize("T", [-3, -1, 0, 1])
def test_truncation_too_short_is_refused_before_building(T, monkeypatch):
    # f must be known through t^1: a shorter T is refused, naming T, before a builder runs
    def builder(T, **params):
        raise AssertionError(f"the builder ran at T = {T}")

    monkeypatch.setitem(SCHEMAS, "bernoulli", Schema(SCHEMAS["bernoulli"].params, builder))
    with pytest.raises(DomainError, match=f"^T must be >= 2, got {T}$"):
        build_pair("bernoulli", T, 1, {})


def test_bespoke_pair_refuses_parameters_a_tag_does_not_take():
    # one parameter rule for every pair entry: bespoke_pair, like
    # catalog_pair and family_polys, hands its keywords to build_pair
    for kwargs, message in [
        ({"b": 1, "c": 2, "m": 3}, "T3 does not take parameter(s) ['m']"),
        ({"b": 1, "c": 2, "m": 3, "lam": 2}, "T3 does not take parameter(s) ['lam', 'm']"),
        ({"bb": 5}, "T3 does not take parameter(s) ['bb']"),
    ]:
        with pytest.raises(DomainError) as exc:
            bespoke_pair("T3", 6, **kwargs)
        assert str(exc.value) == message
    with pytest.raises(DomainError, match=r"^T4 does not take parameter\(s\) \['b'\]$"):
        bespoke_pair("T4", 6, b=None)
    assert bespoke_pair("T3", 6, b=1, c=2) == catalog_pair(FamilySpec.make("T3", b=1, c=2), T=6)


def test_no_import_inside_a_function():
    # the pair builders, their parameter table and build_pair share one
    # module, so no module works round an import cycle from a function body
    src = Path(__file__).resolve().parents[1] / "src" / "umbralkit"
    found = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_scalar_of_another_type_is_type_error():
    # coerce keeps TypeError for what is not a number, so the operators
    # return NotImplemented and Python raises its own TypeError
    with pytest.raises(TypeError):
        Series(QQ, [1]) * "x"


class TestCatalog:
    def test_bernoulli_pair_series(self):
        pair = catalog_pair(FamilySpec.make("bernoulli", 1), T=8)
        assert pair.g == (exp_ct(QQ, 1, 9) - 1).shift_div(1)
        assert pair.f == t_series(QQ, 8)

    def test_narumi_pair_series(self):
        pair = catalog_pair(FamilySpec.make("narumi", 2), T=8)
        base = (exp_ct(QQ, 1, 9) - 1).shift_div(1)
        assert pair.g == (base * base).truncate(8)
        assert pair.f == exp_ct(QQ, 1, 8) - 1

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            catalog_pair(FamilySpec.make("hermite", 1), T=6)

    def test_poisson_charlier_pair(self):
        pair = catalog_pair(FamilySpec.make("poisson_charlier", 1, a=F(2)), T=10)
        polys = sheffer_gf(pair, 4)
        for n in range(5):
            assert polys[n] == poisson_charlier(n, F(2))

    def test_thm2_pair_f(self):
        # f = t^2/(e^{bt}-1) computed independently via series division
        b = F(2)
        pair = bespoke_pair("T2", 10, order=1, b=b, lam=F(3))
        f_direct = monomial(QQ, 2, 12) / (exp_ct(QQ, b, 12) - 1)
        assert pair.f.coeffs == f_direct.coeffs[:10]

    def test_thm6_pair_f(self):
        c = F(1, 2)
        pair = bespoke_pair("T6", 10, order=1, c=c, lam=F(3))
        f_direct = log1p_series(QQ, 12) * Series(QQ, [1, 1], trunc=12).pow_field(-c)
        assert pair.f.coeffs == f_direct.coeffs[:10]

    def test_t10_pair_f(self):
        b, c, m = F(1, 2), F(-1), 2
        pair = bespoke_pair("T10", 10, order=1, b=b, c=c, m=m, lam=F(3))
        lin = Series(QQ, [1, b], trunc=12)
        f_direct = t_series(QQ, 12) * exp_ct(QQ, -c, 12) * lin.pow_int(-m)
        assert pair.f.coeffs == f_direct.coeffs[:10]

    def test_bespoke_requires_nonzero(self):
        with pytest.raises(DomainError):
            bespoke_pair("T2", 8, order=1, b=F(0), lam=None)
        with pytest.raises(DomainError):
            bespoke_pair("T6", 8, order=1, c=F(0), lam=None)
        with pytest.raises(DomainError):
            bespoke_pair("T10", 8, order=1, b=F(1), c=F(1), m=-1, lam=None)

    def test_lambda_one_rejected(self):
        with pytest.raises(EvalPole):
            catalog_pair(FamilySpec.make("daehee", 1, lam=F(1)), T=8)

    def test_family_polys_negative_n_rejected(self):
        with pytest.raises(DomainError):
            family_polys("bernoulli", 1, -1)

    def test_family_polys_daehee_matches_pair(self):
        rows = family_polys("daehee", 1, 4)
        pair = catalog_pair(FamilySpec.make("daehee", 1), T=5)
        assert rows == sheffer_gf(pair, 4)


# every named family with order and parameter sets; the family functions
# (and, for Daehee, a direct expansion of its generating function) are the
# engine-independent side that family_polys must reproduce
_N = 8
_FAMILY_CASES = [
    ("bernoulli", 1, {}), ("bernoulli", 2, {}), ("bernoulli", -1, {}),
    ("euler", 1, {}), ("euler", 3, {}),
    ("frobenius_euler", 1, {"lam": None}), ("frobenius_euler", 2, {"lam": None}),
    ("frobenius_euler", 1, {"lam": F(3)}), ("frobenius_euler", -1, {"lam": F(-1, 2)}),
    ("frobenius_eulerian", 1, {"lam": None}), ("frobenius_eulerian", 2, {"lam": F(3)}),
    ("narumi", 1, {}), ("narumi", -2, {}),
    ("poisson_charlier", 1, {"a": F(2)}),
    ("bernoulli_2nd", 1, {}),
    ("daehee", 1, {"lam": None}), ("daehee", 1, {"lam": F(3)}),
]


def _direct_rows(name, order, params):
    """P_0 .. P_N of a named family without the Sheffer engine."""
    lam = params.get("lam")
    rows = range(_N + 1)
    if name == "bernoulli":
        return [bernoulli_poly(order, n) for n in rows]
    if name == "euler":
        return [euler_poly(order, n) for n in rows]
    if name == "frobenius_euler":
        return [frobenius_euler_poly(order, n, lam) for n in rows]
    if name == "frobenius_eulerian":
        return [frobenius_eulerian_poly(order, n, lam) for n in rows]
    if name == "narumi":
        return [narumi_poly(order, n) for n in rows]
    if name == "poisson_charlier":
        return [poisson_charlier(n, params["a"]) for n in rows]
    raise AssertionError(name)


def _daehee_values(lam, x):
    """n! [t^n] ((u - lam)/(1 - lam)) u^x for n <= N, u = (1+t)/(1-t): the
    Daehee generating function at the integer x, as f-bar(t) = log u."""
    fld, lam_el = (QL, LAMBDA) if lam is None else (QQ, lam)
    T = _N + 1
    u = Series(fld, [1, 1], trunc=T) * Series(fld, [1, -1], trunc=T).inverse()
    gf = (u - lam_el) * (fld.one / (fld.one - lam_el)) * u.pow_int(x)
    return [factorial(n) * gf.coeffs[n] for n in range(T)]


@pytest.mark.parametrize(
    "name,order,params", _FAMILY_CASES,
    ids=[f"{n}-{o}-{p.get('lam', p.get('a', ''))}" for n, o, p in _FAMILY_CASES],
)
def test_family_polys_match_direct_extraction(name, order, params):
    rows = family_polys(name, order, _N, **params)
    assert len(rows) == _N + 1
    if name == "bernoulli_2nd":
        # b_n(x) is determined by its values at N + 2 points
        for x in range(_N + 2):
            assert [p.eval(x) for p in rows] == [bernoulli_2nd(n, x) for n in range(_N + 1)]
    elif name == "daehee":
        for x in range(_N + 2):
            assert [p.eval(x) for p in rows] == _daehee_values(params["lam"], x)
    else:
        assert rows == _direct_rows(name, order, params)
