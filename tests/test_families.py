"""Named polynomial families and their Sheffer pairs."""

from fractions import Fraction as F
from math import factorial

import pytest

from umbralkit import (
    DivisionByZero,
    DomainError,
    EvalPole,
    FamilySpec,
    Poly,
    QL,
    QQ,
    Series,
    bernoulli_2nd,
    bernoulli_number,
    bernoulli_poly,
    bespoke_pair,
    binom,
    catalog_pair,
    euler_poly,
    exp_ct,
    family_polys,
    frobenius_euler_poly,
    frobenius_eulerian_poly,
    gen_binom,
    log1p_series,
    monomial,
    multinomial,
    narumi_number,
    narumi_poly,
    narumi_value,
    poisson_charlier,
    sheffer_gf,
    stirling1,
    stirling2,
    t_series,
)
from umbralkit.fields import LAMBDA


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
            catalog_pair(FamilySpec.make("hermite", 1))

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
