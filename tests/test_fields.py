"""Exact field arithmetic: Q and Q(L)."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbralkit import EvalPole, LAMBDA, QL, QQ, RatFunc
from umbralkit.fields import (
    _P, _coprime_mod_p, _zgcd, _zgcd_prs, _zquo, latex_scalar, vec_add,
    vec_dot, vec_mul,
)

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


def _zpolys(max_size=5):
    """Nonzero integer polynomials, small or with coefficients beyond p."""
    coeff = st.one_of(
        st.integers(-9, 9), st.integers(-(2**70), 2**70), st.sampled_from([_P, -_P, 2 * _P])
    )
    return st.lists(coeff, min_size=1, max_size=max_size).filter(lambda c: c[-1])


def _sharing_ratfuncs():
    """Two Q(L) elements whose denominators share a planted factor."""
    small = st.lists(st.integers(-6, 6), min_size=1, max_size=3)
    nonzero = small.filter(lambda c: c[-1])

    def build(t):
        h, n1, d1, n2, d2 = t
        return RatFunc(tuple(n1), vec_mul(h, d1)), RatFunc(tuple(n2), vec_mul(h, d2))

    return st.tuples(nonzero, small, nonzero, small, nonzero).map(build)


class TestGcdFastPath:
    """``_zgcd`` (mod-p coprimality test, then PRS) against the plain PRS."""

    @given(f=_zpolys(), g=_zpolys())
    @settings(max_examples=100, deadline=None)
    def test_random(self, f, g):
        assert _zgcd(f, g) == _zgcd_prs(f, g)

    @given(h=_zpolys(4), u=_zpolys(4), v=_zpolys(4))
    @settings(max_examples=100, deadline=None)
    def test_planted_common_factor(self, h, u, v):
        f, g = vec_mul(h, u), vec_mul(h, v)
        got = _zgcd(f, g)
        assert got == _zgcd_prs(f, g)
        assert len(got) >= len(h)

    @pytest.mark.parametrize(
        "f,g",
        [
            ((1, _P), (0, 1)),  # p divides a leading coefficient
            ((1, 0, 1), (3, 2 * _P)),
            ((0, 1), (-_P, 1)),  # L and L - p: coprime over Z, equal mod p
            ((1, 0, 1), (1, _P, 1)),  # L^2 + 1 and L^2 + p*L + 1
        ],
    )
    def test_unlucky_prime_falls_back(self, f, g):
        assert not _coprime_mod_p(f, g)
        assert _zgcd(f, g) == _zgcd_prs(f, g) == (1,)

    def test_coprime_certificate(self):
        assert _coprime_mod_p((1, 1), (2, 1))
        assert not _coprime_mod_p((2, 3, 1), (1, 1))  # (L+1)(L+2) and L+1

    @staticmethod
    def _check_ops(a, b):
        """a + b and a * b equal the RatFunc of their unreduced num and den."""
        den = vec_mul(a.den, b.den)
        for x, num in (
            (a + b, vec_add(vec_mul(a.num, b.den), vec_mul(b.num, a.den))),
            (a * b, vec_mul(a.num, b.num)),
        ):
            assert x == RatFunc(num, den)
            assert _zgcd_prs(x._n, x._d) == (1,)

    @given(a=ratfuncs(), b=ratfuncs())
    @settings(max_examples=60, deadline=None)
    def test_ratfunc_ops_match_unreduced(self, a, b):
        self._check_ops(a, b)

    @given(ab=_sharing_ratfuncs())
    @settings(max_examples=60, deadline=None)
    def test_ratfunc_ops_shared_denominator_factor(self, ab):
        self._check_ops(*ab)


def _planted_terms():
    """Lists of Q(L) elements with planted factors (1-L)^k and (L+2)^j in
    numerators and denominators, so that products and sums share and
    cancel factors; with zeros and int and Fraction constants."""
    small = st.lists(st.integers(-6, 6), min_size=1, max_size=3)
    planted = st.tuples(st.integers(0, 3), st.integers(0, 2)).map(
        lambda kj: vec_mul(_pow((1, -1), kj[0]), _pow((2, 1), kj[1]))
    )

    def build(t):
        num, pn, rest, pd = t
        return RatFunc(vec_mul(tuple(num), pn), vec_mul(rest, pd))

    element = st.tuples(
        small, planted, st.sampled_from([(1,), (1, 1), (3, 0, 1)]), planted
    ).map(build)
    entry = st.one_of(element, element, st.just(RatFunc(0)), st.integers(-3, 3), fractions())
    return st.lists(entry, max_size=6)


def _pow(base, k):
    out = (1,)
    for _ in range(k):
        out = vec_mul(out, base)
    return out


def _plain_dot(a, b, w=None):
    acc = QL.zero
    for i, (x, y) in enumerate(zip(a, b)):
        acc += (1 if w is None else w[i]) * x * y
    return acc


def _same_form(x, y):
    """Structural equality of canonical forms: scale, numerator, denominator."""
    return (x.scale, x._n, x._d) == (y.scale, y._n, y._d)


def _as_q_fraction(v):
    """(numerator, denominator) over Q of a RatFunc, int or Fraction."""
    if isinstance(v, RatFunc):
        return v.num, v.den
    return (F(v),), (F(1),)


def _sum_form(a, b):
    """Canonical form of a + b, built by ``RatFunc(num, den)`` from the
    unreduced sum na*db + nb*da over da*db."""
    (na, da), (nb, db) = _as_q_fraction(a), _as_q_fraction(b)
    return RatFunc(vec_add(vec_mul(na, db), vec_mul(nb, da)), vec_mul(da, db))


def _addend_pairs():
    """(a, b) for ``a + b``: identical denominators, a constant denominator
    against a non-constant one, a sum that cancels to zero, and int and
    Fraction operands on either side."""
    constants = st.one_of(st.integers(-3, 3), fractions())
    poly = st.lists(st.integers(-6, 6), min_size=1, max_size=4).map(lambda c: RatFunc(tuple(c)))
    nonconstant_den = ratfuncs().filter(lambda v: len(v._d) > 1)

    def same_den(t):
        a, c = t
        # a + c over a's own denominator, so a._d == b._d exactly
        return a, RatFunc(vec_add(a.num, [c * x for x in a.den]), a.den)

    return st.one_of(
        st.tuples(ratfuncs(), constants.filter(bool)).map(same_den),
        st.tuples(poly, nonconstant_den),
        st.tuples(nonconstant_den, poly),
        ratfuncs().map(lambda a: (a, -a)),
        st.tuples(ratfuncs(), constants),
        st.tuples(constants, ratfuncs()),
        st.tuples(ratfuncs(), ratfuncs()),
    )


class TestAdd:
    """``RatFunc.__add__`` gives the canonical structure of the sum."""

    @given(ab=_addend_pairs())
    @settings(max_examples=200, deadline=None)
    def test_structure(self, ab):
        a, b = ab
        assert _same_form(a + b, _sum_form(a, b))

    @pytest.mark.parametrize(
        "a,b",
        [
            ((1 + L) / (1 - L), (3 - L) / (1 - L)),  # identical denominators
            (L, (1 + L) / (1 - L)),  # a constant denominator against 1 - L
            ((1 + L) / (1 - L), -(1 + L) / (1 - L)),  # cancels to zero
            (2, (1 + L) / (1 - L)),
            ((1 + L) / (1 - L), F(1, 3)),
        ],
    )
    def test_examples(self, a, b):
        assert _same_form(a + b, _sum_form(a, b))


class TestVecDot:
    """``vec_dot`` over Q(L), one normalisation, against the ``+=`` loop."""

    @given(a=_planted_terms(), b=_planted_terms())
    @settings(max_examples=150, deadline=None)
    def test_matches_plain_loop(self, a, b):
        assert _same_form(vec_dot(a, b, QL.zero), _plain_dot(a, b))

    @given(a=_planted_terms(), b=_planted_terms(), w=st.lists(st.integers(-30, 30), min_size=6))
    @settings(max_examples=60, deadline=None)
    def test_weighted_matches_plain_loop(self, a, b, w):
        assert _same_form(vec_dot(a, b, QL.zero, w), _plain_dot(a, b, w))

    @given(a=_planted_terms(), b=_planted_terms())
    @settings(max_examples=60, deadline=None)
    def test_cancelling_terms(self, a, b):
        # a.b + a.(-b) sums to zero
        a = a[: len(b)]
        b = b[: len(a)]
        got = vec_dot(a + a, b + [-QL.coerce(y) for y in b], QL.zero)
        assert _same_form(got, QL.zero)

    @pytest.mark.parametrize(
        "a,b",
        [
            ([L, RatFunc(1)], [1 / (1 - L), -1 / (1 - L)]),  # (L - 1)/(1 - L) = -1
            ([1 / (1 - L) ** 2, 1 / (1 - L)], [L, 1]),  # 1/(1-L)^2 after one gcd
            ([L + 2, L], [1 / ((L + 2) * (1 - L)), 1 / (L + 2)]),
            ([F(1, 2), F(2, 3), 3], [F(1, 3), L, 1 / (L + 2)]),
            ([], []),
            ([RatFunc(0), L], [L, RatFunc(0)]),
        ],
    )
    def test_examples(self, a, b):
        assert _same_form(vec_dot(a, b, QL.zero), _plain_dot(a, b))

    def test_over_q_is_the_plain_loop(self):
        assert vec_dot([F(1, 2), 0, 3], [F(2, 3), 5, F(1, 6)], F(0)) == F(5, 6)
        assert vec_dot([F(1, 2), 0, 3], [F(2, 3), 5, F(1, 6)], F(0), [3, 7, -2]) == F(0)
        assert vec_dot([], [], F(0)) == F(0)

    @given(a=st.lists(ratfuncs(), max_size=4), b=st.lists(ratfuncs(), max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_series_product(self, a, b):
        # vec_mul over Q(L) routes each coefficient through vec_dot
        got = vec_mul(a, b, QL.zero)
        want = [QL.zero] * (len(a) + len(b) - 1 if a and b else 0)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                want[i + j] += x * y
        assert len(got) == len(want)
        assert all(_same_form(x, y) for x, y in zip(got, want))


class TestZquo:
    """``_zquo``: the Z[L] quotient or None, certain either way."""

    @given(q=_zpolys(4), b=_zpolys(4))
    @settings(max_examples=100, deadline=None)
    def test_exact_quotient(self, q, b):
        a = vec_mul(q, b)
        assert _zquo(a, b) == tuple(q)

    @given(a=_zpolys(5), b=_zpolys(4))
    @settings(max_examples=100, deadline=None)
    def test_none_only_without_quotient(self, a, b):
        q = _zquo(a, b)
        if q is not None:
            assert vec_mul(q, b) == tuple(a)
            return
        # no quotient over Z[L]: long division over Q leaves a remainder
        # or a non-integral quotient
        r = [F(c) for c in a]
        quo = []
        while len(r) >= len(b):
            c = r[-1] / b[-1]
            quo.append(c)
            for j, bc in enumerate(b):
                r[len(r) - len(b) + j] -= c * bc
            r.pop()
        assert any(r) or any(c.denominator != 1 for c in quo)

    @pytest.mark.parametrize(
        "a,b",
        [
            ((1, 0, 1), (1, 2)),  # L^2 + 1 by 2L + 1: lead not divisible
            ((1, 0, 1), (1, 1)),  # L^2 + 1 by L + 1: remainder 2
            ((2, 1), (1, 0, 1)),  # shorter than the divisor
            ((3, 3), (2,)),  # divisible over Q, not over Z
        ],
    )
    def test_not_divisible(self, a, b):
        assert _zquo(a, b) is None

    def test_zero_dividend(self):
        assert _zquo((), (1, 1)) == ()


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

    def test_latex(self):
        assert latex_scalar(F(-3, 2)) == r"-\frac{3}{2}"
        assert latex_scalar(F(4)) == "4"
        assert latex_scalar(-L) == r"-\lambda"
        assert latex_scalar(1 / (1 - L)) == r"\frac{-1}{\lambda - 1}"
        assert latex_scalar(RatFunc((-1, 2, -1), (4,))) == (
            r"-\frac{1}{4} \lambda^{2} + \frac{1}{2} \lambda - \frac{1}{4}"
        )
        assert latex_scalar(RatFunc((0, -3), (1, 1))) == r"\frac{-3 \lambda}{\lambda + 1}"
