"""Exact field arithmetic: Q and Q(L)."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from umbralkit import EvalPole, LAMBDA, QL, QQ, RatFunc
from umbralkit.fields import _zgcd

from conftest import fractions, ratfuncs

L = LAMBDA


class TestRat:
    def test_add(self):
        assert F(1, 2) + F(1, 3) == F(5, 6)

    def test_neg_canonical(self):
        v = -F(2, 4)
        assert (v.numerator, v.denominator) == (-1, 2)

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            F(1, 1) / F(0, 1)

    @given(a=fractions(), b=fractions(), c=fractions())
    def test_field_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if b:
            assert (a / b) * b == a


class TestRatFunc:
    def test_self_division(self):
        one_minus = 1 - L
        assert one_minus / one_minus == RatFunc(1)

    def test_add_monic_denominator(self):
        s = L / (1 - L) + 1 / (1 - L)
        # canonical: gcd-reduced with monic denominator
        assert str(s) == "(-L - 1)/(L - 1)"
        assert s.den[-1] == 1

    def test_zero_absorbs(self):
        p = (3 + L) / (1 - L)
        assert RatFunc(0) * p == RatFunc(0)
        assert not (RatFunc(0) * p)

    def test_reduction(self):
        g = (L * L - 1) / (L - 1)
        assert g == L + 1

    def test_canonical_idempotent(self):
        v = (2 + 4 * L) / (6 + 2 * L)
        again = RatFunc(v.num, v.den)
        assert again == v
        assert again.num == v.num and again.den == v.den

    def test_reduced_invariant(self):
        v = (L * L + 2 * L + 1) / (L * L - 1)
        assert v == (L + 1) / (L - 1)
        assert len(_zgcd(v._n, v._d)) == 1  # gcd(num, den) = 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            (1 + L) / RatFunc(0)

    def test_pow(self):
        v = (1 + L) / (1 - L)
        assert v ** 2 == v * v
        assert v ** 0 == RatFunc(1)
        assert v ** -1 == 1 / v

    @given(a=ratfuncs(), b=ratfuncs(), c=ratfuncs())
    @settings(max_examples=60)
    def test_field_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == RatFunc(0)
        if b:
            assert (a / b) * b == a


class TestEval:
    def test_simple_pole_free(self):
        assert (1 / (1 - L)).evaluate(2) == -1

    def test_pole(self):
        with pytest.raises(EvalPole):
            (1 / (1 - L)).evaluate(1)

    def test_reduce_before_eval(self):
        assert ((L * L - 1) / (L - 1)).evaluate(1) == 2

    @given(a=ratfuncs(), b=ratfuncs(), lam0=fractions(max_num=5, max_den=4))
    @settings(max_examples=60)
    def test_homomorphism(self, a, b, lam0):
        for op in (lambda x, y: x + y, lambda x, y: x * y):
            combined = op(a, b)
            try:
                lhs = combined.evaluate(lam0)
                ra = a.evaluate(lam0)
                rb = b.evaluate(lam0)
            except EvalPole:
                continue
            assert lhs == op(ra, rb)


class TestFieldObjects:
    def test_coerce(self):
        assert QQ.coerce(3) == F(3)
        assert QL.coerce(F(1, 2)) == RatFunc(F(1, 2))
        assert QQ.coerce(RatFunc(F(2, 3))) == F(2, 3)
        with pytest.raises(TypeError):
            QQ.coerce(L)

    def test_render(self):
        assert QQ.to_str(F(-3, 2)) == "-3/2"
        assert QQ.to_str(F(4)) == "4"
        assert QL.to_str(L) == "L"
        assert QL.to_str(1 / (1 - L)) == "(-1)/(L - 1)"

    def test_render_multi_term(self):
        assert str(RatFunc((1, -2, 0, 3), (2, 0, 5))) == "(3/5*L^3 - 2/5*L + 1/5)/(L^2 + 2/5)"
        assert str(RatFunc((-1, 2, -1), (4,))) == "-1/4*L^2 + 1/2*L - 1/4"
        assert str(RatFunc((0, -3), (1, 1))) == "(-3*L)/(L + 1)"
