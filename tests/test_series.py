"""Truncated power series and polynomial kernel."""

import sys
from fractions import Fraction as F
from itertools import chain
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings, strategies as st

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
    bespoke_pair,
    exp_ct,
    falling_factorial,
    functional_apply,
    log1p_series,
    monomial,
    one,
    one_plus_t_pow,
    operator_apply,
    orthogonality_failure,
    sheffer_gf,
    sheffer_transfer_all,
    t_series,
    stirling1,
)
from umbralkit.fields import LAMBDA, RatFunc, vec_horner
from umbralkit import series
from umbralkit.series import _over_q

from conftest import fractions, plain_powers, qq_polys, qq_series, rand_series, ratfuncs


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

    @pytest.mark.parametrize("field, a0", [
        (QQ, "one"), (QQ, "rational"), (QL, "one"), (QL, "rational"), (QL, "in L"),
    ], ids=["q-one", "q-rational", "ql-one", "ql-rational", "ql-in-L"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_against_the_recurrence(self, field, a0, data):
        # a_0 = 1 takes the negated sum, any other a_0 the product with
        # -1/a_0: both equal the recurrence with the product at every k
        head = {
            "one": st.just(1),
            "rational": fractions().filter(lambda q: q not in (0, 1)),
            "in L": ratfuncs().filter(lambda r: not r.is_constant()),
        }[a0]
        T = data.draw(st.integers(1, 8))
        rest = data.draw(st.lists(ratfuncs() if field is QL else fractions(),
                                  min_size=T - 1, max_size=T - 1))
        s = Series(field, [data.draw(head)] + rest)
        inv = s.inverse()
        assert s * inv == one(field, T)
        assert inv.coeffs == _recurrence_inverse(s)
        assert all(type(c) is type(field.zero) for c in inv.coeffs)

    def test_one_plus_lambda_head(self):
        s = Series(QL, [1 + LAMBDA, F(1, 2), LAMBDA, 3])
        assert s * s.inverse() == one(QL, 4)
        assert s.inverse().coeffs == _recurrence_inverse(s)


def _recurrence_inverse(s) -> tuple:
    """1/s by out[k] = -(1/a_0) sum_{i=1..k} a_i out[k - i], the product
    with -1/a_0 taken at every k, whatever a_0 is."""
    a, field = s.coeffs, s.field
    inv0 = field.one / a[0]
    out = [inv0]
    for k in range(1, s.trunc):
        out.append(-inv0 * sum((a[i] * out[k - i] for i in range(1, k + 1)), field.zero))
    return tuple(out)


@st.composite
def compose_operands(draw):
    """(outer, inner) over Q or Q(L), truncations 1 .. 8 each; over Q(L) the
    inner series is free of L or not, and the outer one may hold L."""
    field = draw(st.sampled_from([QQ, QL]))
    outer_el = ratfuncs() if field is QL else fractions()
    inner_el = draw(st.sampled_from([fractions(), ratfuncs()])) if field is QL else fractions()
    T_outer, T_inner = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    outer = Series(field, draw(st.lists(outer_el, min_size=T_outer, max_size=T_outer)))
    inner = Series(field, [0] + draw(st.lists(inner_el, min_size=T_inner - 1,
                                              max_size=T_inner - 1)))
    return outer, inner


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

    @given(case=compose_operands())
    @settings(max_examples=80, deadline=None)
    def test_matches_horner(self, case):
        # oracle: the Horner rule acc = acc * inner + c, kept here as a
        # reference for the power-table composition
        outer, inner = case
        T = min(outer.trunc, inner.trunc)
        top = Series(outer.field, [outer.coeffs[T - 1]], trunc=T)
        assert outer.compose(inner) == vec_horner(outer.coeffs[: T - 1], inner.truncate(T), top)


class TestPowers:
    @given(s=qq_series(6))
    @settings(max_examples=30)
    def test_entry_k_is_pow_int(self, s):
        table = s.powers(8)
        assert len(table) == 9
        assert all(p == s.pow_int(k) for k, p in enumerate(table))

    def test_over_q_lambda(self):
        s = Series(QL, [1, LAMBDA, 0, F(1, 3)])
        assert s.powers(5) == [s.pow_int(k) for k in range(6)]

    def test_zeroth_only(self):
        assert exp_ct(QQ, 1, 4).powers(0) == [one(QQ, 4)]

    def test_n_above_truncation(self):
        s = S(0, 1, 2)
        table = s.powers(5)
        assert [p.trunc for p in table] == [3] * 6
        assert table[3:] == [Series(QQ, [], trunc=3)] * 3


@st.composite
def table_cases(draw):
    """(s, n): s over Q of order 0, a delta series, the zero series or of
    any order, with negative coefficients among them; n in {0, 1, 2, T - 1}
    or above T - 1."""
    T = draw(st.integers(1, 7))
    coeffs = draw(st.lists(fractions(), min_size=T, max_size=T))
    kind = draw(st.sampled_from(["order0", "delta", "zero", "any"]))
    if kind == "order0":
        coeffs[0] = draw(fractions().filter(bool))
    elif kind == "delta" and T >= 2:
        coeffs[:2] = [0, draw(fractions().filter(bool))]
    elif kind == "zero":
        coeffs = [0] * T
    n = draw(st.sampled_from([0, 1, 2, T - 1, T, T + 2]))
    return Series(QQ, coeffs), n


def _t2_fbar(n=40):
    """fbar of the T2[a=-1] pair (b = 1/2) over Q, truncated for degree n."""
    pair = bespoke_pair("T2", n + 1, order=-1, b=F(1, 2))
    return _over_q(pair.f).revert()


def _table_bits(table):
    """(largest bit length of the table's integers, rows and dens alike;
    largest bit length of a numerator or denominator of its entries in
    lowest terms)."""
    dens, rows = table
    stored = max(abs(x).bit_length() for x in chain(dens, *rows))
    reduced = max(max(abs(q.numerator).bit_length(), q.denominator.bit_length())
                  for e, row in zip(dens, rows) for q in (F(c, e) for c in row))
    return stored, reduced


class TestPowerRows:
    """``Series._power_rows`` over Q gives s^k as an integer row over its own
    reduced denominator; the plain ``out[-1] * s`` loop gives the same
    powers."""

    @given(case=table_cases())
    @settings(max_examples=120, deadline=None)
    def test_matches_plain_loop(self, case):
        s, n = case
        want = plain_powers(s, n)
        dens, rows = s._power_rows(n)
        assert len(dens) == len(rows) == n + 1 and all(len(row) == s.trunc for row in rows)
        assert all(type(c) is int for row in rows for c in row)
        assert all(type(e) is int and e >= 1 for e in dens)
        assert [[F(c, e) for c in row] for e, row in zip(dens, rows)] == [
            list(p.coeffs) for p in want]
        got = s.powers(n)
        assert got == want
        assert all(type(c) is F for p in got for c in p.coeffs)

    @given(case=table_cases())
    @settings(max_examples=60, deadline=None)
    def test_every_row_is_reduced(self, case):
        s, n = case
        dens, rows = s._power_rows(n)
        assert all(gcd(e, *row) == 1 for e, row in zip(dens, rows))

    def test_over_q_lambda_rows_are_products(self):
        s = Series(QL, [0, 1 + LAMBDA, F(1, 2), LAMBDA / 3])
        dens, rows = s._power_rows(5)
        assert dens == [1] * 6
        assert [Series(QL, row) for row in rows] == plain_powers(s, 5)

    def test_last_row_reaches_the_bound(self):
        # h (1 + t + .. + t^(T-1)): [t^(T-1)] of its square is h^2 T, the
        # largest a coefficient of a square of T entries of height h can be
        h, T = 3, 5
        s = Series(QQ, [h] * T)
        dens, rows = s._power_rows(2)
        assert dens == [1, 1, 1] and rows[2][-1] == h**2 * T
        assert [Series(QQ, [F(c, e) for c in row]) for e, row in zip(dens, rows)] == (
            plain_powers(s, 2))

    def test_rows_stay_the_size_of_the_reduced_entries(self):
        # time-independent size guard: a table over one d^k has entries of
        # 9 376 bits here, where the entries in lowest terms need 231
        stored, reduced = _table_bits(_t2_fbar()._power_rows(40))
        assert stored <= 2 * reduced

    def test_unreduced_rows_fail_the_size_guard(self, monkeypatch):
        # mutation: without the per-row gcd the values are the same, but the
        # rows grow like d^k and the guard above sees it
        fbar = _t2_fbar()
        monkeypatch.setattr(series, "gcd", lambda *args: 1)
        table = fbar._power_rows(40)
        dens, rows = table
        assert [[F(c, e) for c in row] for e, row in zip(dens, rows)] == [
            list(p.coeffs) for p in plain_powers(fbar, 40)]
        stored, reduced = _table_bits(table)
        assert stored > 2 * reduced

    def test_routes_agree_at_n_40(self):
        pair = bespoke_pair("T2", 41, order=-1, b=F(1, 2))
        polys = sheffer_gf(pair, 40)
        assert sheffer_transfer_all(pair, 40) == polys[1:]
        assert orthogonality_failure(pair, polys, 40) is None


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

    @pytest.mark.parametrize("c", ["x", None, 0.5])
    def test_exponent_not_a_field_element(self, c):
        with pytest.raises(DomainError):
            S(1, 1, 0).pow_field(c)

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

    def test_truncate_never_extends(self):
        s = exp_ct(QQ, 1, 3)
        assert s.truncate(3) is s and s.truncate(2) == S(1, 1)
        for T in (5, 0, -1):
            with pytest.raises(TruncationTooShort):
                s.truncate(T)

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
            lambda: Poly(QQ, [1, 2]).coefficient(-1),
            lambda: t_series(QQ, 4).agrees(t_series(QQ, 4), upto=-1),
        ],
        ids=["monomial", "Poly.monomial", "mul_t", "shift_div", "falling_factorial",
             "coefficient", "agrees"],
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

    def test_truncation_too_large_to_index(self):
        # one above sys.maxsize: [0] * trunc would raise OverflowError
        with pytest.raises(DomainError, match="trunc must be <= "):
            Series(QQ, [1], trunc=sys.maxsize + 1)

    def test_exp_lambda(self):
        got = exp_ct(QL, LAMBDA - 1, 3)
        lm1 = LAMBDA - 1
        assert got.coeffs == (QL.one, lm1, lm1 * lm1 / 2)

    # exp_ct and one_plus_t_pow take one exact step per coefficient; the
    # running-power, running-factorial forms they replaced are the reference
    @staticmethod
    def _exp_ct_by_accumulators(field, c, T):
        field = QL if isinstance(c, RatFunc) else field
        c = field.coerce(c)
        out, acc, fact = [field.one], field.one, F(1)
        for k in range(1, T):
            acc = acc * c
            fact *= k
            out.append(acc * field.coerce(F(1) / fact))
        return Series(field, out, trunc=T)

    @staticmethod
    def _one_plus_t_pow_by_accumulators(field, c, T):
        field = QL if isinstance(c, RatFunc) else field
        c = field.coerce(c)
        out, acc = [field.one], field.one
        for k in range(1, T):
            acc = acc * (c - (k - 1)) * field.coerce(F(1, k))
            out.append(acc)
        return Series(field, out, trunc=T)

    @given(field=st.sampled_from([QQ, QL]),
           c=st.one_of(fractions(), st.integers(-6, -1), ratfuncs()),
           T=st.integers(1, 9))
    @example(field=QQ, c=0, T=5)
    @example(field=QL, c=0, T=5)
    @example(field=QQ, c=-3, T=1)
    @example(field=QL, c=F(-5, 2), T=2)
    @example(field=QQ, c=RatFunc((1, 2), (3, 0, 1)), T=2)
    @settings(max_examples=60)
    def test_exp_ct_and_one_plus_t_pow_by_accumulators(self, field, c, T):
        for got, want in [
            (exp_ct(field, c, T), self._exp_ct_by_accumulators(field, c, T)),
            (one_plus_t_pow(field, c, T), self._one_plus_t_pow_by_accumulators(field, c, T)),
        ]:
            assert got.field is want.field and got.trunc == want.trunc == T
            assert got.coeffs == want.coeffs
            assert [type(v) for v in got.coeffs] == [type(v) for v in want.coeffs]

    def test_order(self):
        assert S(0, 0, 1, 0).order() == 2
        assert Series(QQ, [], trunc=3).order() == 3
        assert S(5).order() == 0


class TestPoly:
    def test_derivative(self):
        assert Poly.monomial(QQ, 3).derivative() == Poly(QQ, [0, 0, 3])

    def test_mul_by_x(self):
        assert Poly.x(QQ) * Poly(QQ, [-1, 0, 1]) == Poly(QQ, [0, -1, 0, 1])

    def test_eval(self):
        assert Poly(QQ, [F(1, 2), 0, 1]).eval(F(1, 2)) == F(3, 4)

    def test_degree_and_trailing_zeros(self):
        assert Poly(QQ, [1, 2, 0, 0]).degree == 1
        assert Poly(QQ, [0, 0]).is_zero()

    def test_coefficient_index(self):
        p = Poly(QQ, [1, 2])
        assert [p.coefficient(k) for k in range(4)] == [1, 2, 0, 0]
        for k in (1.0, F(1), True, "1"):
            with pytest.raises(DomainError, match="must be an int"):
                p.coefficient(k)

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
        x = Poly.x(QQ)
        assert (x * p).derivative() == p + x * p.derivative()


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


def _lift(v):
    """A Series or Poly over Q as the same values over Q(L)."""
    return type(v)(QL, v.coeffs)


class TestMixedFields:
    """Q is a subfield of Q(L): an operation on one operand over each field
    runs over Q(L) and gives the same result in either order."""

    Q_SERIES = S(1, 2, F(1, 3), -4)
    L_SERIES = Series(QL, [LAMBDA, 1, 0, 1 / (1 - LAMBDA)])
    Q_POLY = Poly(QQ, [F(1, 2), 0, 3])
    L_POLY = Poly(QL, [1, LAMBDA, LAMBDA**2 - 1])

    @pytest.mark.parametrize("op", [
        lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
    ], ids=["add", "sub", "mul"])
    @pytest.mark.parametrize("q,l", [(Q_SERIES, L_SERIES), (Q_POLY, L_POLY)],
                             ids=["series", "poly"])
    def test_both_orders(self, op, q, l):
        for got, want in ((op(q, l), op(_lift(q), l)), (op(l, q), op(l, _lift(q)))):
            assert got.field is QL
            assert got == want

    def test_compose_both_orders(self):
        q_delta = S(0, 1, F(-1, 2), 3)
        l_delta = Series(QL, [0, 1, LAMBDA, F(1, 5)])
        assert self.Q_SERIES.compose(l_delta) == _lift(self.Q_SERIES).compose(l_delta)
        assert self.L_SERIES.compose(q_delta) == self.L_SERIES.compose(_lift(q_delta))
        assert self.Q_SERIES.compose(l_delta).field is QL

    @given(outer=qq_series(5), inner=st.lists(ratfuncs(), min_size=4, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_compose_matches_lifted(self, outer, inner):
        inner = Series(QL, [0] + inner)
        assert outer.compose(inner) == _lift(outer).compose(inner)

    def test_umbral_applies_both_orders(self):
        for f, p in ((self.Q_SERIES, self.L_POLY), (self.L_SERIES, self.Q_POLY)):
            lf = _lift(f) if f.field is QQ else f
            lp = _lift(p) if p.field is QQ else p
            assert functional_apply(f, p) == functional_apply(lf, lp)
            got = operator_apply(f, p)
            assert got.field is QL and got == operator_apply(lf, lp)


class TestRatFuncScalarLift:
    """A RatFunc scalar is an element of Q(L): with a series or polynomial
    over Q, in either order, it gives the result of the lifted vector."""

    Q_SERIES = S(1, 2, 3)
    Q_POLY = Poly(QQ, [1, 2])
    SCALARS = [LAMBDA, (LAMBDA + 1) / (1 - LAMBDA), LAMBDA / LAMBDA]

    @pytest.mark.parametrize("op", [
        lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, lambda a, b: a / b,
    ], ids=["add", "sub", "mul", "div"])
    @pytest.mark.parametrize("c", SCALARS, ids=["L", "ratio", "one"])
    def test_series_both_orders(self, op, c):
        q = self.Q_SERIES
        for got, want in ((op(q, c), op(_lift(q), c)), (op(c, q), op(c, _lift(q)))):
            assert got.field is QL
            assert got == want

    def test_rtruediv_inverts(self):
        got = LAMBDA / self.Q_SERIES
        assert got.field is QL
        assert got == self.Q_SERIES.inverse() * LAMBDA
        assert got * self.Q_SERIES == Series(QL, [LAMBDA], trunc=3)

    @pytest.mark.parametrize("op", [
        lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
    ], ids=["add", "sub", "mul"])
    @pytest.mark.parametrize("c", SCALARS, ids=["L", "ratio", "one"])
    def test_poly_both_orders(self, op, c):
        q = self.Q_POLY
        for got, want in ((op(q, c), op(_lift(q), c)), (op(c, q), op(c, _lift(q)))):
            assert got.field is QL
            assert got == want

    @pytest.mark.parametrize("c", SCALARS, ids=["L", "ratio", "one"])
    def test_pow_field(self, c):
        # log(e^t) = t, so (e^t)^c = e^{ct}, over Q(L) for every RatFunc c
        u = exp_ct(QQ, 1, 4)
        got = u.pow_field(c)
        assert got.field is QL
        assert got == _lift(u).pow_field(c) == exp_ct(QL, c, 4)

    @pytest.mark.parametrize("make", [exp_ct, one_plus_t_pow], ids=["exp_ct", "one_plus_t_pow"])
    @pytest.mark.parametrize("c", SCALARS, ids=["L", "ratio", "one"])
    def test_named_series_rate(self, make, c):
        got = make(QQ, c, 4)
        assert got.field is QL
        assert got == make(QL, c, 4)

    def test_eval_and_shift_arg(self):
        p = self.Q_POLY  # 2x + 1
        assert p.eval(LAMBDA) == 2 * LAMBDA + 1 == _lift(p).eval(LAMBDA)
        shifted = p.shift_arg(LAMBDA)
        assert shifted.field is QL
        assert shifted == _lift(p).shift_arg(LAMBDA) == Poly(QL, [2 * LAMBDA + 1, 2])

    def test_rationals_keep_q(self):
        for got in (self.Q_SERIES * F(1, 2), F(1, 2) - self.Q_SERIES, self.Q_SERIES / 3,
                    self.Q_POLY + 1):
            assert got.field is QQ
        with pytest.raises(TypeError):
            self.Q_SERIES * "x"


class TestQKernelLifted:
    """The routes' L-free half over Q, lifted to Q(L), against the same
    calls over Q(L), where every coefficient is a constant RatFunc."""

    @given(f=qq_series(7, min_order=1))
    @settings(max_examples=40, deadline=None)
    def test_revert_powers_inverse(self, f):
        if not f.coeffs[1]:
            f = f + t_series(QQ, 7)
        lf = _lift(f)
        assert _lift(f.revert()) == lf.revert()
        assert [_lift(p) for p in f.powers(6)] == lf.powers(6)
        u = f + 1
        assert _lift(u.inverse()) == _lift(u).inverse()

    def test_over_q_only_when_free_of_lambda(self):
        f = S(0, 1, F(-1, 2), 3)
        assert _over_q(_lift(f)) == f
        assert _over_q(f) is f
        l_delta = Series(QL, [0, 1, LAMBDA])
        assert _over_q(l_delta) is l_delta
