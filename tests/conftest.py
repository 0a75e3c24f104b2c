"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from umbralkit import Poly, QQ, RatFunc, Series


def fractions(max_num=9, max_den=6):
    return st.fractions(
        min_value=-max_num, max_value=max_num, max_denominator=max_den
    )


def qq_series(T: int, min_order: int = 0):
    """Strategy for Series over Q with truncation T."""

    def build(coeffs):
        return Series(QQ, [Fraction(0)] * min_order + coeffs, trunc=T)

    return st.lists(fractions(), min_size=T - min_order, max_size=T - min_order).map(
        build
    )


def ratfuncs():
    """Strategy for small Q(L) elements (nonzero denominators)."""
    polys = st.lists(
        st.integers(min_value=-6, max_value=6), min_size=1, max_size=4
    )

    def build(pair):
        num, den = pair
        return RatFunc(tuple(num), tuple(den))

    return st.tuples(polys, polys.filter(lambda c: any(c))).map(build)


def plain_powers(s, n):
    """[1, s, .., s^n] by the plain product loop ``out[-1] * s``, the
    reference for the packed power table."""
    out = [Series(s.field, [s.field.one], trunc=s.trunc), s][: n + 1]
    while len(out) <= n:
        out.append(out[-1] * s)
    return out


def qq_polys(max_degree=6):
    return st.lists(fractions(), min_size=0, max_size=max_degree + 1).map(
        lambda cs: Poly(QQ, cs)
    )


@pytest.fixture
def rng():
    return random.Random(20260808)


def rand_fraction(rng, max_num=9, max_den=6, nonzero=False):
    while True:
        q = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        if q or not nonzero:
            return q


def rand_series(rng, T, order0_nonzero=False, delta=False):
    coeffs = [rand_fraction(rng) for _ in range(T)]
    if order0_nonzero:
        coeffs[0] = rand_fraction(rng, nonzero=True)
    if delta:
        coeffs[0] = Fraction(0)
        coeffs[1] = rand_fraction(rng, nonzero=True)
    return Series(QQ, coeffs)
