"""Exact field arithmetic: Q and Q(L)."""

import inspect
import textwrap
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbralkit import DivisionByZero, DomainError, EvalPole, LAMBDA, QL, QQ, RatFunc, Series
from umbralkit import fields
from umbralkit.fields import (
    _P, _coprime_mod_p, _lay_out, _lcm_cofactors, _linear_power, _lowest_terms, _pack,
    _slot_width, _unpack, _zgcd, _zgcd_prs, _zprimitive, _zquo, latex_scalar, vec_add,
    vec_dot, vec_mul, vec_trim,
)

from umbralkit.series import one, zero

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
        # RatFunc ** n and Series.pow_int share one squaring loop: both against
        # the plain product of |n| factors, over Q and Q(L), for n in -6 .. 9
        cases = [(RatFunc(F(-2, 3)), RatFunc(1), RatFunc.reciprocal, pow),
                 (v, RatFunc(1), RatFunc.reciprocal, pow),
                 (Series(QQ, [F(1, 2), 3, F(-1, 5), 0, 7]), one(QQ, 5), Series.inverse,
                  Series.pow_int),
                 (Series(QL, [1 - L, L, 0, F(1, 3)]), one(QL, 4), Series.inverse,
                  Series.pow_int)]
        for base, unit, invert, power in cases:
            for n in range(-6, 10):
                want, factor = unit, invert(base) if n < 0 else base
                for _ in range(abs(n)):
                    want = want * factor
                assert power(base, n) == want, (base, n)
        assert RatFunc(0) ** 0 == 1
        assert zero(QQ, 3).pow_int(0) == one(QQ, 3)
        with pytest.raises(DivisionByZero):
            RatFunc(0) ** -1

    def test_nested_ratfunc_is_num_over_den(self):
        v = 1 / (1 + L)
        assert RatFunc(v) == v
        assert RatFunc(1, v) == 1 + L
        assert RatFunc((2, 1), v) == (2 + L) * (1 + L)
        assert RatFunc(L / (1 - L), (1 + L) / (1 - L)) == L / (1 + L)
        with pytest.raises(ZeroDivisionError):
            RatFunc(v, RatFunc(0))

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


def _assert_canonical(v):
    """RatFunc's one form N / (q * D): q >= 1 prime to N's content, D
    primitive with positive lead, gcd(N, D) = 1, and zero ((), 1, (1,))."""
    n, q, d = v._n, v._q, v._d
    assert type(n) is tuple and type(d) is tuple and type(q) is int
    assert not n or n[-1]
    assert q >= 1 and gcd(q, *n) == 1
    assert d[-1] > 0 and gcd(*d) == 1
    assert _zgcd(n, d) == (1,)
    if not n:
        assert (n, q, d) == ((), 1, (1,))


_COEFFICIENT = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=6))


def _elements():
    """``fields._element(QL, num, q, den)`` for den primitive with positive lead."""
    den = st.lists(st.integers(-6, 6), min_size=1, max_size=3).filter(any).map(
        lambda d: _zprimitive(vec_trim(d))[1])
    return st.builds(lambda n, q, d: fields._element(QL, vec_trim(n), q, d),
                     st.lists(st.integers(-40, 40), max_size=4), st.integers(1, 36), den)


def _canonical_values():
    """Q(L) values from every way one is made: the constructor, ``from_rat``
    and ``_element``, then + - * /, ``**`` and ``reciprocal``."""
    poly = st.lists(_COEFFICIENT, max_size=4)
    base = st.one_of(st.builds(RatFunc, poly, poly.filter(any)),
                     st.builds(RatFunc, _COEFFICIENT), st.builds(RatFunc.from_rat, _COEFFICIENT),
                     _elements(), st.just(L))

    def steps(kids):
        pairs = st.tuples(kids, kids)
        return st.one_of(
            pairs.map(lambda ab: ab[0] + ab[1]), pairs.map(lambda ab: ab[0] - ab[1]),
            pairs.map(lambda ab: ab[0] * ab[1]),
            pairs.filter(lambda ab: ab[1]).map(lambda ab: ab[0] / ab[1]),
            kids.map(lambda a: -a), kids.filter(bool).map(RatFunc.reciprocal),
            st.tuples(kids.filter(bool), st.integers(-3, 3)).map(lambda ak: ak[0] ** ak[1]))

    return st.recursive(base, steps, max_leaves=5)


class TestCanonicalForm:
    """Every RatFunc is in the one form N / (q * D)."""

    @given(v=_canonical_values())
    @settings(max_examples=150, deadline=None)
    def test_invariant(self, v):
        _assert_canonical(v)

    @given(a=_canonical_values(), b=_canonical_values().filter(bool), k=st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_equal_values_have_equal_triples(self, a, b, k):
        twins = [a * b / b, a + b - b, RatFunc(a.num, a.den), RatFunc(a * b, b),
                 fields._element(QL, tuple(k * c for c in a._n), k * a._q, a._d)]
        if a:
            twins.append(a.reciprocal().reciprocal())
        for t in twins:
            _assert_canonical(t)
            assert t == a and (t._n, t._q, t._d) == (a._n, a._q, a._d) and hash(t) == hash(a)

    @given(c=st.fractions(-9, 9, max_denominator=9), v=_canonical_values().filter(bool),
           k=st.integers(1, 9))
    @settings(max_examples=80, deadline=None)
    def test_constant_is_its_fraction(self, c, v, k):
        for x in [RatFunc.from_rat(c), RatFunc(c), RatFunc((c,)), v - v + c, c * v / v,
                  fields._element(QL, (k * c.numerator,) if c else (), k * c.denominator, (1,))]:
            _assert_canonical(x)
            assert x == c and x.as_rat() == c and hash(x) == hash(c)

    def test_arithmetic_builds_no_fraction(self, monkeypatch):
        a, b = (1 + 2 * L) / (3 - L), (L * L + F(1, 2)) / (L - 1) ** 2
        c, entries = F(2, 5), [a, b, F(2, 3), 4, 0]
        built = []
        new = F.__new__
        monkeypatch.setattr(F, "__new__",
                            lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw))
        if hasattr(F, "_from_coprime_ints"):  # Fraction arithmetic from Python 3.12 on
            coprime = F._from_coprime_ints
            monkeypatch.setattr(F, "_from_coprime_ints", classmethod(
                lambda cls, n, d: built.append((n, d)) or coprime(n, d)))
        values = [RatFunc((1, 2), (3, 4)), RatFunc(a, b), a * b, a * 3, b * c, -a,
                  a.reciprocal(), a + b, a - c, a / b, 2 / a, a ** 3, b ** -2,
                  fields._element(QL, (2, 4), 6, (3, 1)),
                  vec_dot(entries, entries[::-1], QL.zero)]
        fields._lay_out(entries, [1, 2, 3, 4, 5])
        assert built == []
        assert values[-2] == F(1, 3) * (1 + 2 * L) / (L + 3)

    @given(c=st.lists(st.one_of(_canonical_values(), _COEFFICIENT), max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_layout_q_is_the_lcm(self, c):
        # the layout's q is the lcm of the entries' q's, not a multiple of it
        qs = [x._q if isinstance(x, RatFunc) else F(x).denominator for x in c]
        assert _lay_out(c).q == lcm(*qs)


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


def _plain_lowest_terms(num, den):
    """num / den reduced through the plain PRS gcd."""
    h = _zgcd_prs(num, den)
    return _zquo(num, h), _zquo(den, h)


@st.composite
def _linear_power_fractions(draw):
    """((b, a, e), num, den): den = P^e for P = aL + b primitive with a > 0
    (b = 0 only as P = L), and num the primitive part of r P^k with k from
    0 to e + 2, so num and den share P^min(k, e) or more (r may hold P)."""
    a = draw(st.integers(1, 6))
    b = draw(st.integers(-6, 6).filter(lambda b: gcd(a, b) == 1))
    e = draw(st.integers(1, 8))
    k = draw(st.integers(0, e + 2))
    r = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(lambda c: c[-1]))
    num = _zprimitive(vec_mul(tuple(r), _pow((b, a), k)))[1]
    return (b, a, e), num, _pow((b, a), e)


class TestLinearPowerDenominator:
    """``_lowest_terms`` for a denominator P^e of a linear P = aL + b (the
    exact path, no Euclid) against a reduction through ``_zgcd_prs``."""

    @given(case=_linear_power_fractions())
    @settings(max_examples=200, deadline=None)
    def test_matches_prs_reduction(self, case):
        power, num, den = case
        assert _linear_power(den) == power
        assert _lowest_terms(num, den) == _plain_lowest_terms(num, den)

    def test_runs_no_gcd(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fields, "_zgcd", lambda f, g: calls.append(1) or _zgcd(f, g))
        for b, a in ((-1, 1), (-1, 2), (0, 1), (-2, 3)):
            for e in (1, 2, 5):
                den = _pow((b, a), e)
                for k in range(e + 2):
                    num = vec_mul((1, 1, 1), _pow((b, a), k))
                    assert _lowest_terms(num, den) == _plain_lowest_terms(num, den)
        assert calls == []

    @pytest.mark.parametrize(
        "den",
        [(-1, 0, 1), (2, -3, 0, 1), (1, 0, 1), (-1, 0, 2)],
        ids=["(L-1)(L+1)", "(L-1)^2(L+2)", "L^2+1", "2L^2-1"],
    )
    def test_other_denominators_take_the_gcd_path(self, den, monkeypatch):
        assert _linear_power(den) is None
        calls = []
        monkeypatch.setattr(fields, "_zgcd", lambda f, g: calls.append(1) or _zgcd(f, g))
        nums = [(1, 2, 3), vec_mul(den, (2, 1)), (-1, 1), (1, 1), vec_mul((1, 0, 1), (1, 1))]
        for num in nums:
            assert _lowest_terms(num, den) == _plain_lowest_terms(num, den)
        assert len(calls) == len(nums)

    def test_stopping_one_factor_early_fails(self):
        # the mutation the k >= e cases exist for: a root-order loop that
        # stops one factor early leaves P in both num and den
        source = textwrap.dedent(inspect.getsource(fields._lowest_terms))
        assert "while v < e and" in source
        scope = dict(vars(fields))
        exec(source.replace("while v < e and", "while v < e - 1 and"), scope)
        mutant = scope["_lowest_terms"]
        wrong = 0
        for b, a in ((-1, 1), (-1, 2), (0, 1), (5, 6)):
            for e in (1, 3, 8):
                den = _pow((b, a), e)
                for k in range(e + 3):
                    num = vec_mul((2, 1), _pow((b, a), k))
                    want = _plain_lowest_terms(num, den)
                    assert _lowest_terms(num, den) == want
                    wrong += mutant(num, den) != want
        assert wrong


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
    """sum w[i] * a[i] * b[i] built as ``_sum_form`` builds a sum, by no
    Q(L) arithmetic: the Q-polynomial numerators and denominators are
    cross-multiplied with ``vec_mul`` and ``vec_add``, and one
    ``RatFunc(num, den)`` is made at the end."""
    num, den = (F(0),), (F(1),)
    for i, (x, y) in enumerate(zip(a, b)):
        (nx, dx), (ny, dy) = _as_q_fraction(x), _as_q_fraction(y)
        k = 1 if w is None else w[i]
        d = vec_mul(dx, dy)
        num = vec_add(vec_mul(num, d), vec_mul([k * c for c in vec_mul(nx, ny)], den))
        den = vec_mul(den, d)
    return RatFunc(num, den)


def _same_form(x, y):
    """Structural equality of canonical forms N / (q * D), (N, q, D), of
    which the first is reduced: gcd(N, D) = 1 by the plain PRS."""
    return (x._n, x._q, x._d) == (y._n, y._q, y._d) and _zgcd_prs(x._n, x._d) == (1,)


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
    """``vec_dot`` over Q(L), one normalisation, against ``_plain_dot``, which
    cross-multiplies over Q and reads no Q(L) kernel."""

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


def _q_entries(max_size=8):
    """Lists of ints and Fractions over a few planted denominators, so that
    products share factors and sums need a common denominator, with zeros."""
    dens = st.sampled_from([1, 2, 3, 6, 12, 35, 2**20, 3**12])
    entry = st.one_of(
        st.just(0), st.just(F(0)), st.integers(-9, 9),
        st.builds(F, st.integers(-50, 50), dens),
    )
    return st.lists(entry, max_size=max_size)


def _plain_q_dot(a, b, w=None):
    acc = F(0)
    for i, (x, y) in enumerate(zip(a, b)):
        acc += (1 if w is None else w[i]) * x * y
    return acc


def _plain_q_mul(a, b, n=None):
    if n is None:
        n = len(a) + len(b) - 1 if a and b else 0
    out = [F(0)] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] += x * y
    return tuple(out)


class TestQKernel:
    """``vec_dot`` and ``vec_mul`` over Q (integer numerators over one
    common denominator, one Fraction per output) against ``acc += x*y``."""

    @given(a=_q_entries(), b=_q_entries())
    @settings(max_examples=150, deadline=None)
    def test_dot_matches_plain_loop(self, a, b):
        got = vec_dot(a, b, QQ.zero)
        assert type(got) is F and got == _plain_q_dot(a, b)

    @given(a=_q_entries(), b=_q_entries(), w=st.lists(st.integers(-30, 30), min_size=8))
    @settings(max_examples=60, deadline=None)
    def test_weighted_dot_matches_plain_loop(self, a, b, w):
        assert vec_dot(a, b, QQ.zero, w) == _plain_q_dot(a, b, w)

    @given(a=_q_entries(), b=_q_entries())
    @settings(max_examples=60, deadline=None)
    def test_dot_cancelling_terms(self, a, b):
        a, b = a[: len(b)], b[: len(a)]
        assert vec_dot(a + a, b + [-y for y in b], QQ.zero) == 0

    @given(a=_q_entries(), b=_q_entries(), n=st.none() | st.integers(0, 20))
    @settings(max_examples=150, deadline=None)
    def test_mul_matches_plain_loop(self, a, b, n):
        # n both shorter and longer than the product
        got = vec_mul(a, b, QQ.zero, n)
        assert all(type(c) is F for c in got)
        assert got == _plain_q_mul(a, b, n)

    @given(a=_q_entries())
    @settings(max_examples=60, deadline=None)
    def test_mul_cancelling_terms(self, a):
        # p(x) p(-x) has only even powers: every odd coefficient sums to 0
        got = vec_mul(a, [(-1) ** i * x for i, x in enumerate(a)], QQ.zero)
        assert got == _plain_q_mul(a, [(-1) ** i * x for i, x in enumerate(a)])
        assert not any(got[1::2])


def _as_ratfuncs(v):
    return [x if isinstance(x, RatFunc) else RatFunc.from_rat(x) for x in v]


def _agrees_at_points(got, a, b, w=None):
    """got equals sum w[i] a[i] b[i] at a few rational L, each side evaluated
    by Horner's rule without any sum over Q(L); poles are skipped."""
    def at(v, x):
        return v.evaluate(x) if isinstance(v, RatFunc) else F(v)

    for x in (F(1, 7), F(-5, 3), F(11)):
        try:
            want = sum(((1 if w is None else w[i]) * at(u, x) * at(v, x)
                        for i, (u, v) in enumerate(zip(a, b))), F(0))
            if got.evaluate(x) != want:
                return False
        except EvalPole:
            pass
    return True


class TestQLambdaKernel:
    """``vec_dot`` and ``vec_mul`` over Q(L) on int and Fraction operands and
    on zero entries, which take the same path as any other: against the same
    sums with every operand a RatFunc, and against ``_plain_dot``."""

    @given(a=_planted_terms(), b=st.one_of(_planted_terms(), _q_entries()),
           w=st.none() | st.lists(st.integers(-30, 30), min_size=8))
    @settings(max_examples=80, deadline=None)
    def test_constants_read_as_they_are(self, a, b, w):
        # int and Fraction operands against the same values as RatFuncs
        got = vec_dot(a, b, QL.zero, w)
        assert _same_form(got, vec_dot(_as_ratfuncs(a), _as_ratfuncs(b), QL.zero, w))
        assert _same_form(got, _plain_dot(a, b, w))
        assert _agrees_at_points(got, a, b, w)

    @pytest.mark.parametrize("a,b", [
        ([L, 1], [F(1, 2), F(1, 3)]),  # a scale denominator the constants lack
        ([F(1, 4), 1 / (1 - L), F(2, 3)], [F(1, 5), F(1, 7), 6]),
        ([3, F(1, 2)], [F(-1, 3), F(2, 3)]),  # constants only, cancelling
        ([L, -L], [F(1, 2), F(1, 2)]),  # L-dependent terms cancelling
    ])
    def test_constants_examples(self, a, b):
        got = vec_dot(a, b, QL.zero)
        assert _same_form(got, vec_dot(_as_ratfuncs(a), _as_ratfuncs(b), QL.zero))
        assert _agrees_at_points(got, a, b)

    @given(a=st.one_of(_q_entries(), _q_entries().map(_as_ratfuncs)), b=_q_entries(),
           w=st.none() | st.lists(st.integers(-30, 30), min_size=8))
    @settings(max_examples=80, deadline=None)
    def test_constants_only(self, a, b, w):
        # no operand has L: the running lcm of the denominators stays 1
        got = vec_dot(a, b, QL.zero, w)
        assert _same_form(got, _plain_dot(a, b, w))
        assert got.is_constant()

    @given(a=st.lists(ratfuncs(), max_size=4), b=st.lists(ratfuncs(), max_size=4),
           za=st.integers(0, 3), zb=st.integers(0, 3), n=st.none() | st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_mul_zero_prefixes(self, a, b, za, zb, n):
        a, b = [QL.zero] * za + a, [F(0)] * zb + b
        got = vec_mul(a, b, QL.zero, n)
        if n is None:
            n = len(a) + len(b) - 1 if a and b else 0
        # one dot per coefficient over every a[i] b[k - i] in range, zeros too
        want = []
        for k in range(n):
            idx = [i for i in range(k + 1) if i < len(a) and k - i < len(b)]
            want.append(vec_dot([a[i] for i in idx], [b[k - i] for i in idx], QL.zero))
        assert len(got) == n
        assert all(_same_form(x, y) for x, y in zip(got, want))


def _as_element(num, q, den):
    """num / (q * den) for integer polynomials num and den, as a RatFunc."""
    return RatFunc(num, den) * F(1, q) if num else QL.zero


class TestPackedLayout:
    """The common-denominator layout and its Kronecker packing."""

    @given(t=st.lists(st.integers(-(2**80), 2**80), max_size=6), extra=st.integers(0, 5))
    @settings(max_examples=80, deadline=None)
    def test_pack_round_trip(self, t, extra):
        t = vec_trim(t)
        s = _slot_width(max(map(abs, t), default=0)) + extra
        assert _unpack(_pack(t, s), s) == t

    @pytest.mark.parametrize("s", [2, 8, 31, 64, 200])
    def test_slot_boundary(self, s):
        edge = 2 ** (s - 1) - 1
        assert _slot_width(edge) == s
        for t in [(edge, -edge, edge), (-edge, 0, -edge), (-(edge + 1), edge, 1)]:
            assert _unpack(_pack(t, s), s) == t
        # one past the bound is another polynomial at this width
        assert _unpack(_pack((edge + 1, 1), s), s) != (edge + 1, 1)

    def test_slot_width_at_least_two(self):
        # at width 1 the balanced digits are only -1 and 0, so _unpack(1, 1)
        # would never return; every width _slot_width gives is at least 2
        s = _slot_width(0)
        assert s >= 2
        assert all(_slot_width(b) >= 2 for b in range(8))
        for t in [(1,), (-1,)]:
            assert _unpack(_pack(t, s), s) == t

    @given(c=_planted_terms(), w=st.lists(st.integers(-20, 20), min_size=6, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_layout_reconstructs(self, c, w):
        lay = _lay_out(c, w)
        for i, x in enumerate(c):
            assert _as_element(lay.num[i], lay.q, lay.den) == w[i] * x
            assert lay.height >= max(map(abs, lay.num[i]), default=0)
            assert lay.length >= len(lay.num[i])
            assert vec_mul(lay.cofactors[i], lay.dens[i]) == lay.den
            # the numerators of the entries up to i are divisible by
            # cofactors[i]
            for k in range(i + 1):
                if lay.num[k]:
                    assert _zquo(lay.num[k], lay.cofactors[i]) is not None

    @given(c=st.one_of(_q_entries(), _q_entries().map(_as_ratfuncs)),
           w=st.none() | st.lists(st.integers(-20, 20), min_size=8, max_size=8),
           s=st.integers(2, 80))
    @settings(max_examples=80, deadline=None)
    def test_layout_of_constants(self, c, w, s):
        # no entry has L: the lcm steps leave every denominator 1, and each
        # numerator is one integer, which packs to itself at every width
        lay = _lay_out(c, w)
        w = [1] * len(c) if w is None else w[: len(c)]
        values = [k * (x.as_rat() if isinstance(x, RatFunc) else F(x)) for k, x in zip(w, c)]
        assert lay.den == (1,)
        assert lay.dens == lay.cofactors == [(1,)] * len(c)
        for i, v in enumerate(values):
            assert _as_element(lay.num[i], lay.q, lay.den) == v
        assert lay.packed(s) == [v * lay.q for v in values]

    @given(ab=_sharing_ratfuncs())
    @settings(max_examples=80, deadline=None)
    def test_lcm_cofactors(self, ab):
        a, b = ab[0]._d, ab[1]._d
        lcm, m, mb = _lcm_cofactors(a, b)
        assert vec_mul(a, m) == vec_mul(b, mb) == lcm
        assert len(lcm) - 1 == len(a) + len(b) - len(_zgcd(a, b)) - 1

    @given(num=st.lists(st.integers(-12, 12), max_size=6), k=st.integers(-(2**64), 2**64).filter(bool),
           q=st.integers(1, 2**40))
    @settings(max_examples=80, deadline=None)
    def test_element_over_a_constant_den(self, num, k, q):
        # a den of (1,) skips _lowest_terms and gives the very form that
        # _lowest_terms would, for any content of num
        num = tuple(vec_trim([k * c for c in num]))
        got = fields._element(QL, num, q, (1,))
        assert got == _as_element(num, q, (1,))
        if not num:
            assert got is QL.zero
            return
        g = gcd(q, *num)
        assert (got._n, got._q, got._d) == (tuple(c // g for c in num), q // g, (1,))


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
        with pytest.raises(DomainError):
            QQ.coerce(L)
        with pytest.raises(DomainError):
            QL.coerce("x")

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
