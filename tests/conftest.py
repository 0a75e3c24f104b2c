"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import strategies as st

from umbralkit import Poly, QQ, RatFunc, Series, bernoulli_2nd
from umbralkit.errors import nonnegative_integer, rational


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


def multinomial(parts) -> int:
    """Multinomial coefficient (sum parts)! / prod parts_i!."""
    total = 0
    acc = 1
    for p in parts:
        total += nonnegative_integer("part", p)
        acc *= comb(total, p)
    return acc


def b2_convolution_enumerated(n: int, l: int, c) -> Fraction:
    """The convolution of ``b2_convolution`` by literal enumeration of the
    compositions of l into n parts, sum over them of multinomial(parts)
    prod_i b_{parts_i}(c) (slow oracle)."""
    n, l = nonnegative_integer("n", n, 1), nonnegative_integer("l", l)
    c = rational("c", c)
    values = [bernoulli_2nd(i, c) for i in range(l + 1)]

    def rec(slots: int, remaining: int):
        if slots == 1:
            yield (remaining,)
            return
        for first in range(remaining + 1):
            for rest in rec(slots - 1, remaining - first):
                yield (first,) + rest

    total = Fraction(0)
    for parts in rec(n, l):
        prod = Fraction(multinomial(parts))
        for p in parts:
            prod *= values[p]
        total += prod
    return total


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
