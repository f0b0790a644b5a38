"""Property tests: the fraction-free product and quotient and the
valuation-aware jet Horner give exactly what the plain loops give.

Every comparison is by ``result_key.key``: exact coefficients by value and
exactness, floats bit for bit (sign of zero included).  An exact kernel
gives an int where a value is an integer and a Fraction otherwise
(``poly.rational``); the loops' own int-or-Fraction types are not kept.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charmatch.jets import Jet
from charmatch.poly import Poly, div, is_exact, mul, rational
from result_key import key

F = Fraction

nonzero = st.one_of(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=-30, max_value=-1),
    st.fractions(min_value=-20, max_value=20, max_denominator=60).filter(bool),
)
exact = st.one_of(nonzero, st.just(0), st.just(F(0)))
floats = st.floats(min_value=-8, max_value=8, allow_nan=False)
number = st.one_of(exact, floats)
nonzero_number = st.one_of(nonzero, floats.filter(bool))
nonzero_head = st.one_of(st.sampled_from([2, -3, F(3, 7), F(-5, 2), F(-1, 9), 1, -1]), nonzero)


def plain_mul(a, b, n, skip_zero_b=True):
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x == 0:
            continue
        for j, y in enumerate(b[:n - i]):
            if y != 0 or not skip_zero_b:
                out[i + j] += x * y
    return out


def plain_div(p, q):
    out = [0] * len(p)
    for k in range(len(p)):
        acc = p[k]
        for i in range(k):
            if out[i] != 0:
                acc -= out[i] * q[k - i]
        out[k] = div(acc, q[0])
    return tuple(out)


def plain_horner(coeffs, y):
    acc = [coeffs[-1]] + [0] * y.order
    for c in reversed(coeffs[:-1]):
        acc = plain_mul(acc, y.coeffs, y.order + 1)
        acc[0] = acc[0] + c
    return Jet(y.center, acc)


@st.composite
def jet_pair(draw, entries):
    n = draw(st.integers(min_value=1, max_value=9))
    a = draw(st.lists(entries, min_size=n, max_size=n))
    b = draw(st.lists(entries, min_size=n, max_size=n))
    return a, b


@settings(max_examples=200, deadline=None)
@given(jet_pair(number))
def test_jet_product_matches_the_double_loop(pair):
    a, b = pair
    got = Jet(0, a) * Jet(0, b)
    assert key(got) == key(Jet(0, plain_mul(a, b, len(a))))


zero = st.sampled_from([0, F(0), 0.0, -0.0])
special = st.sampled_from([math.inf, -math.inf, math.nan])
mul_entry = st.one_of(number, zero, special)


@st.composite
def mul_operand(draw):
    """Leading zeros, then entries with or without zeros among them."""
    tail = st.one_of(mul_entry, nonzero_number, special)
    return (draw(st.lists(zero, max_size=3))
            + draw(st.one_of(st.lists(mul_entry, max_size=10), st.lists(tail, max_size=10))))


@settings(max_examples=400, deadline=None)
@given(mul_operand(), mul_operand(), st.integers(min_value=0, max_value=14), st.booleans())
def test_mul_matches_the_double_loop(a, b, n, skip_zero_b):
    assert key(mul(a, b, n, skip_zero_b)) == key(plain_mul(a, b, n, skip_zero_b))
    assert key(mul(tuple(a), tuple(b), n, skip_zero_b)) == key(plain_mul(a, b, n, skip_zero_b))


@pytest.mark.parametrize("a, b", [
    ((F(1, 3), 0, 2, F(-5, 7)), (0.5, 0, -0.0, 3.25)),  # the float side's zeros are exact
    ((0, F(1, 3), 0), (math.inf, 1.5, 0)),
    ((F(1, 10 ** 400), 1, 0), (-1.5, 2.0, math.inf)),  # 1e-400 is 0.0 as a float
    ((0, 0, F(10 ** 400, 3)), (0.0, 0, 0.5)),  # 10^400 / 3 never meets a nonzero float
])
def test_exact_jet_times_float_jet_matches_the_double_loop(a, b):
    for x, y in ((a, b), (b, a)):
        assert key(Jet(0, x) * Jet(0, y)) == key(Jet(0, plain_mul(x, y, len(x))))


def test_overflowing_exact_entry_raises_where_it_meets_a_float():
    with pytest.raises(OverflowError):
        Jet(0, (F(10 ** 400, 3), 1, 0)) * Jet(0, (0.5, 0, 0))


@settings(max_examples=200, deadline=None)
@given(st.lists(number, min_size=1, max_size=8), st.lists(number, min_size=1, max_size=8))
def test_poly_product_matches_the_double_loop(a, b):
    a, b = Poly(a).coeffs, Poly(b).coeffs
    want = Poly(plain_mul(a, b, len(a) + len(b) - 1, skip_zero_b=False))
    assert key(Poly(a) * Poly(b)) == key(want)


@settings(max_examples=150, deadline=None)
@given(jet_pair(exact), nonzero_head)
def test_exact_quotient_matches_the_plain_recurrence(pair, q0):
    p, q = pair
    q = [q0] + q[1:]
    got = (Jet(0, p) / Jet(0, q)).coeffs
    assert key(got) == key(plain_div(p, q))
    assert all(is_exact(c) for c in got)


@st.composite
def horner_case(draw, entries, lead):
    order = draw(st.integers(min_value=1, max_value=10))
    v = draw(st.integers(min_value=1, max_value=3))
    head = draw(st.sampled_from([0, F(0), 0.0]))
    tail = draw(st.lists(entries, min_size=order, max_size=order))
    ys = [head] + [0 if k < v else c for k, c in enumerate(tail, 1)]
    if v <= order:
        ys[v] = draw(lead)
    coeffs = draw(st.lists(entries, min_size=1, max_size=12))
    return coeffs, Jet(0, ys)


@settings(max_examples=200, deadline=None)
@given(st.one_of(horner_case(exact, nonzero), horner_case(number, nonzero_number)))
def test_horner_on_a_zero_head_jet_matches_full_horner(case):
    coeffs, y = case
    got = Poly(coeffs)(y)
    assert key(got) == key(plain_horner(Poly(coeffs).coeffs, y))


@settings(max_examples=60, deadline=None)
@given(st.lists(number, min_size=1, max_size=8), nonzero_head, st.lists(number, max_size=6))
def test_horner_on_a_nonzero_head_jet_is_full_horner(coeffs, head, tail):
    y = Jet(0, [head] + tail)
    assert key(Poly(coeffs)(y)) == key(plain_horner(Poly(coeffs).coeffs, y))


def test_rational_is_an_int_where_the_value_is_an_integer():
    assert [type(rational(n, d)) for n, d in ((6, 3), (-4, -2), (0, 5))] == [int] * 3
    assert rational(6, 3) == 2 and rational(-4, -2) == 2 and rational(0, 5) == 0
    assert rational(3, 6) == F(1, 2) and rational(3, -6) == F(-1, 2)


def test_kernel_gives_exact_values_and_exact_zeros():
    a = Jet(0, (F(1, 2), 0, 3, 0))
    b = Jet(0, (0, 2, 0, 0))
    # a slot that no product reaches is an exact 0
    assert key((a * b).coeffs) == key((0, 1, 0, 6))
    assert key((Poly([F(1, 2)]) * Poly([0, 0, 1])).coeffs) == key((0, 0, F(1, 2)))
    # with floats the skip rules still count: a polynomial product reaches a
    # slot through a zero right factor (inf * 0 is nan), a jet product does not
    assert key((Poly([math.inf]) * Poly([0, 1.0])).coeffs) == key((math.nan, math.inf))
    assert key((Jet(0, (math.inf, 0)) * Jet(0, (0, 1.0))).coeffs) == key((0, math.inf))
