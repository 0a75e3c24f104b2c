"""Truncated power series and polynomial kernel."""

from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings

from umbralkit import (
    CompositionOrder,
    DomainError,
    NotDelta,
    NotInvertible,
    OrderTooLow,
    Poly,
    QL,
    QQ,
    Series,
    TruncationTooShort,
    UnitConstantRequired,
    exp_ct,
    falling_factorial,
    log1p_series,
    monomial,
    one,
    one_plus_t_pow,
    t_series,
    stirling1,
)
from umbralkit.fields import LAMBDA

from conftest import qq_polys, qq_series, rand_series


def S(*coeffs, T=None):
    return Series(QQ, [F(c) for c in coeffs], trunc=T)


class TestRing:
    def test_mul_difference_of_squares(self):
        assert S(1, 1, 0) * S(1, -1, 0) == S(1, 0, -1)

    def test_add_identity(self):
        f = S(2, F(1, 3), -5, 7)
        assert f + Series(QQ, [], trunc=4) == f

    def test_exp_times_exp_minus(self):
        # oracle: Cauchy product of the two factorial series
        a = exp_ct(QQ, 1, 4)
        b = exp_ct(QQ, -1, 4)
        expect = [
            sum(
                (F(1, factorial(j)) * F((-1) ** (k - j), factorial(k - j)) for j in range(k + 1)),
                F(0),
            )
            for k in range(4)
        ]
        assert expect == [1, 0, 0, 0]
        assert (a * b).coeffs == tuple(expect)

    def test_min_truncation(self):
        assert (S(1, 1) * S(1, 1, 1)).trunc == 2
        assert (S(1, 1) + S(1, 1, 1)).trunc == 2

    @given(a=qq_series(5), b=qq_series(5), c=qq_series(5))
    @settings(max_examples=50)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestInverse:
    def test_geometric(self):
        assert S(1, -1, T=4).inverse() == S(1, 1, 1, 1)

    def test_bernoulli_number_series(self):
        # oracle: triangular solve of sum_j c_j a_{k-j} = [k == 0]
        a = (exp_ct(QQ, 1, 4) - 1).shift_div(1)  # (e^t - 1)/t, T = 3
        c = [1 / a.coeffs[0]]
        for k in range(1, 3):
            c.append(-c[0] * sum(a.coeffs[j] * c[k - j] for j in range(1, k + 1)))
        assert c == [1, F(-1, 2), F(1, 12)]
        assert a.inverse().coeffs == tuple(c)

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            S(0, 1, 1).inverse()

    @given(f=qq_series(8))
    @settings(max_examples=60)
    def test_round_trip(self, f):
        if not f.coeffs[0]:
            f = f + 1
        assert (f * f.inverse()) == one(QQ, 8)


class TestCompose:
    def test_identity_inner(self):
        f = S(3, 1, 4, 1)
        assert f.compose(t_series(QQ, 4)) == f

    def test_inverse_pair(self):
        got = log1p_series(QQ, 5).compose(exp_ct(QQ, 1, 5) - 1)
        assert got == t_series(QQ, 5)

    def test_direct_substitution(self):
        # oracle: 1/(1-u) at u = t^2 is 1 + t^2 + t^4
        got = S(1, -1, T=5).inverse().compose(monomial(QQ, 2, 5))
        assert got == S(1, 0, 1, 0, 1)

    def test_order_violation(self):
        with pytest.raises(CompositionOrder):
            S(1, 1).compose(S(1, 1))

    @given(a=qq_series(6), b=qq_series(6, min_order=1), c=qq_series(6, min_order=1))
    @settings(max_examples=40)
    def test_associativity(self, a, b, c):
        lhs = a.compose(b).compose(c)
        rhs = a.compose(b.compose(c))
        assert lhs == rhs


class TestRevert:
    def test_identity(self):
        assert t_series(QQ, 5).revert() == t_series(QQ, 5)

    def test_exp_minus_one(self):
        got = (exp_ct(QQ, 1, 4) - 1).revert()
        assert got == S(0, 1, F(-1, 2), F(1, 3))  # log(1+t)
        assert got == log1p_series(QQ, 4)

    def test_t_over_one_minus_t(self):
        f = t_series(QQ, 4) * S(1, -1, T=4).inverse()
        got = f.revert()
        assert got == S(0, 1, -1, 1)  # t/(1+t)
        assert f.compose(got) == t_series(QQ, 4)

    def test_not_delta(self):
        with pytest.raises(NotDelta):
            S(1, 1, 1).revert()
        with pytest.raises(NotDelta):
            S(0, 0, 1).revert()

    @given(f=qq_series(8, min_order=1))
    @settings(max_examples=60)
    def test_round_trip(self, f):
        if not f.coeffs[1]:
            f = f + t_series(QQ, 8)
        fbar = f.revert()
        assert f.compose(fbar) == t_series(QQ, 8)
        assert fbar.compose(f) == t_series(QQ, 8)


class TestPow:
    def test_binomial_square(self):
        assert S(1, 1, 0).pow_int(2) == S(1, 2, 1)

    def test_negative_is_inverse(self):
        a = (exp_ct(QQ, 1, 4) - 1).shift_div(1)
        assert a.pow_int(-1) == a.inverse()

    def test_zeroth(self):
        assert S(2, 3, 4).pow_int(0) == one(QQ, 3)

    def test_negative_needs_unit(self):
        with pytest.raises(NotInvertible):
            S(0, 1, 1).pow_int(-2)

    def test_sqrt(self):
        h = S(1, 1, 0).pow_field(F(1, 2))
        assert h == S(1, F(1, 2), F(-1, 8))
        assert h * h == S(1, 1, 0)  # oracle: square back

    def test_field_pow_zero_and_negative(self):
        assert S(1, 1, 0).pow_field(F(0)) == one(QQ, 3)
        assert S(1, 1, 0, 0).pow_field(F(-1)) == S(1, -1, 1, -1)

    def test_unit_constant_required(self):
        with pytest.raises(UnitConstantRequired):
            S(2, 1, 1).pow_field(F(1, 2))

    @given(u=qq_series(6))
    @settings(max_examples=40)
    def test_int_field_consistency(self, u):
        u = Series(QQ, (F(1),) + u.coeffs[1:])  # force unit constant
        for k in (-2, -1, 0, 1, 3):
            assert u.pow_field(F(k)) == u.pow_int(k)


class TestShift:
    def test_basic(self):
        assert S(0, 1, 1).shift_div(1) == S(1, 1)

    def test_exp_shift(self):
        got = (exp_ct(QQ, 1, 4) - 1).shift_div(1)
        assert got == S(1, F(1, 2), F(1, 6))
        assert got.trunc == 3

    def test_order_too_low(self):
        with pytest.raises(OrderTooLow):
            S(1, 1).shift_div(1)

    def test_round_trip_with_mul_t(self):
        f = S(0, 0, 3, 5, T=6)
        back = f.shift_div(2).mul_t(2)
        assert back.trunc == 4 and back.coeffs == f.coeffs[:4]

    @pytest.mark.parametrize(
        "call",
        [
            lambda: monomial(QQ, -1, 3),
            lambda: Poly.monomial(QQ, -1),
            lambda: t_series(QQ, 4).mul_t(-1),
            lambda: t_series(QQ, 4).shift_div(-1),
            lambda: falling_factorial(QQ, -1),
        ],
        ids=["monomial", "Poly.monomial", "mul_t", "shift_div", "falling_factorial"],
    )
    def test_negative_shift_or_degree(self, call):
        with pytest.raises(DomainError, match="must be >= 0, got -1"):
            call()


class TestNamedSeries:
    def test_exp_ct(self):
        assert exp_ct(QQ, 1, 4) == S(1, 1, F(1, 2), F(1, 6))

    def test_log1p(self):
        assert log1p_series(QQ, 4) == S(0, 1, F(-1, 2), F(1, 3))

    @pytest.mark.parametrize("T", [0, -1])
    @pytest.mark.parametrize(
        "make",
        [
            lambda T: exp_ct(QQ, 1, T),
            lambda T: log1p_series(QQ, T),
            lambda T: one_plus_t_pow(QQ, F(1, 2), T),
        ],
        ids=["exp_ct", "log1p_series", "one_plus_t_pow"],
    )
    def test_truncation_below_one(self, make, T):
        with pytest.raises(TruncationTooShort):
            make(T)

    def test_exp_lambda(self):
        got = exp_ct(QL, LAMBDA - 1, 3)
        lm1 = LAMBDA - 1
        assert got.coeffs == (QL.one, lm1, lm1 * lm1 / 2)

    def test_order(self):
        assert S(0, 0, 1, 0).order() == 2
        assert Series(QQ, [], trunc=3).order() == 3
        assert S(5).order() == 0


class TestPoly:
    def test_derivative(self):
        assert Poly.monomial(QQ, 3).derivative() == Poly(QQ, [0, 0, 3])

    def test_mul_by_x(self):
        assert Poly(QQ, [-1, 0, 1]).mul_by_x() == Poly(QQ, [0, -1, 0, 1])

    def test_eval(self):
        assert Poly(QQ, [F(1, 2), 0, 1]).eval(F(1, 2)) == F(3, 4)

    def test_degree_and_trailing_zeros(self):
        assert Poly(QQ, [1, 2, 0, 0]).degree == 1
        assert Poly(QQ, [0, 0]).is_zero()

    def test_str_rendering(self):
        from umbralkit import frobenius_euler_poly

        assert str(frobenius_euler_poly(1, 2)) == (
            "x^2 + ((2)/(L - 1))*x + ((L + 1)/(L^2 - 2*L + 1))"
        )
        assert str(Poly(QL, [LAMBDA, -LAMBDA, 1])) == "x^2 - L*x + L"

    def test_shift_arg(self):
        p = Poly(QQ, [0, 0, 1])  # x^2
        assert p.shift_arg(1) == Poly(QQ, [1, 2, 1])

    @given(p=qq_polys(), q=qq_polys())
    @settings(max_examples=50)
    def test_product_rule(self, p, q):
        lhs = (p * q).derivative()
        rhs = p.derivative() * q + p * q.derivative()
        assert lhs == rhs

    @given(p=qq_polys())
    @settings(max_examples=30)
    def test_mul_by_x_derivative_interplay(self, p):
        # d/dx (x p) = p + x p'
        assert p.mul_by_x().derivative() == p + p.derivative().mul_by_x()


class TestFallingFactorial:
    def test_empty_product(self):
        assert falling_factorial(QQ, 0) == Poly(QQ, [1])

    def test_two_factors(self):
        assert falling_factorial(QQ, 2) == Poly(QQ, [0, -1, 1])

    def test_four_factors_signed_stirling_row(self):
        p = falling_factorial(QQ, 4)
        assert p == Poly(QQ, [0, -6, 11, -6, 1])
        assert [stirling1(4, k) for k in range(5)] == [0, -6, 11, -6, 1]


def test_series_str_rendering():
    a = (exp_ct(QQ, 1, 4) - 1).shift_div(1).inverse()
    assert str(a) == "1 - 1/2*t + 1/12*t^2 + O(t^3)"


def test_division_with_common_order(rng):
    for _ in range(10):
        f = rand_series(rng, 8, delta=True)
        g = rand_series(rng, 8, delta=True)
        q = f / g
        assert (q * g).agrees(f, upto=q.trunc - 1)
