"""The float loops of the float-center round trip without Fraction's
operator fallback: the prepared Fourier terms and the exp-weighted map on
the cached rows of the exact w against their plain loops (``float_center_reference.py``) by
result key, the int-or-Fraction typing of exact quotients and parsed
literals, and no Fraction operation with a float operand left in the
loops that had them."""

import math
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charmatch import expansions, exprs, matching, registry
from charmatch.integral_match import FourierApproximant
from charmatch.errors import DomainError
from charmatch.matching import CharNumbers, CoeffSeq, Derivative
from charmatch.poly import div, tri_table
from charmatch.quadrature import GaussLegendre

from float_center_reference import exp_weighted_float_map, fourier_call
from result_key import outcome

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from mixed_ops import counting  # noqa: E402

SPECIAL = st.sampled_from([0, F(0), 0.0, -0.0, math.inf, -math.inf, math.nan,
                           10 ** 400, F(-10 ** 400, 3)])
C_ENTRY = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.fractions(max_denominator=10 ** 6),
                    st.floats(), SPECIAL)
POINTS = st.one_of(st.floats(-10, 10), st.floats(),
                   st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.lists(C_ENTRY, min_size=1, max_size=24),
       w=st.sampled_from([F(-1, 2), F(1, 3), -0.5, 2]), q=st.sampled_from([1, 2, 3]))
@example(values=[0.5, 1, 0, F(1, 3), -0.0, 10 ** 400, 2.5], w=F(-1, 2), q=2)
@example(values=[0.5, 1, 0, F(1, 3), -0.0, 0, 0, 0, 0, 0, 0, 0], w=10 ** 40, q=1)
@example(values=[0, 1, F(1, 3), 0, 0, 0, 0, 0, 0, 0, 0, 0.0], w=10 ** 40, q=1)
@example(values=[F(1, 2), 3, F(-2, 7), 0, 1], w=-0.5, q=1)
def test_exp_weighted_float_map_keeps_the_plain_loop_results(values, w, q):
    chars = CharNumbers(values, Derivative(0.5))
    got = outcome(lambda: expansions.exp_weighted_coeffs(chars, w, q).values)
    assert got == outcome(lambda: tuple(exp_weighted_float_map(values, w, q)))


@pytest.mark.parametrize("w", [math.inf, -math.inf, math.nan])
def test_exp_weighted_refuses_a_non_finite_w(w):
    chars = CharNumbers((1.0, 0.5, 0.25), Derivative(0.5))
    with pytest.raises(DomainError):
        expansions.exp_weighted_coeffs(chars, w, 2)


def test_a_float_w_reads_the_table_of_its_exact_value():
    # float c_i meet float(m_{n,i}) either way, so the bits agree
    chars = CharNumbers((1.0, 0.5, 0.25, -2.0, 3.5), Derivative(0.5))
    misses = tri_table.cache_info().misses
    exact_w = expansions.exp_weighted_coeffs(chars, F(-3, 8), 2).values
    float_w = expansions.exp_weighted_coeffs(chars, -0.375, 2).values
    assert tri_table.cache_info().misses <= misses + 1
    assert [a.hex() for a in float_w] == [a.hex() for a in exact_w]
    # and exact c_i meet a float w as floats
    exact_c = CharNumbers((1, F(1, 3), 0, 2), Derivative(0))
    assert all(type(a) is float for a in expansions.exp_weighted_coeffs(exact_c, -0.375, 2).values)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(C_ENTRY, max_size=12), x=POINTS)
@example(values=[1.5, 0, -2.0, F(1, 3), 7], x=0.0)
@example(values=[1.5, 0, -2.0, F(1, 3), 7], x=-0.0)
@example(values=[1.5, 0, -2.0, F(1, 3), 7], x=math.nan)
@example(values=[1.5, 0, -2.0, F(1, 3), 7], x=math.inf)
@example(values=[1.5, 0, 0, 0, 7], x=-math.inf)
@example(values=[0, 10 ** 400, 1.0], x=0.25)
@example(values=[], x=0.25)
def test_fourier_terms_keep_the_plain_loop_bits(values, x):
    approx = FourierApproximant(CoeffSeq(tuple(values), "fourier"))
    assert outcome(lambda: approx(x)) == outcome(lambda: fourier_call(approx, x))


def test_exact_quotients_are_ints_where_integer():
    for a, b, want in [(6, 3, 2), (F(3, 2), F(1, 2), 3), (-4, F(2), -2), (0, 5, 0),
                       (1, 3, F(1, 3)), (1, -3, F(-1, 3)), (F(1, 2), 3, F(1, 6))]:
        got = div(a, b)
        assert got == want and type(got) is type(want), (a, b)
    for a, b in [(1, 3.0), (1.5, 3), (F(1, 3), 0.5), (0.0, F(2)), (-0.0, 3)]:
        got = div(a, b)
        assert type(got) is float and got.hex() == (a / b).hex(), (a, b)
    for a, b in [(1, 0), (F(1, 2), 0), (0, F(0))]:
        with pytest.raises(ZeroDivisionError):
            div(a, b)


@pytest.mark.parametrize("text,want", [
    ("3", 3), ("2.0", 2), ("1e3", 1000), ("2.50", F(5, 2)), ("1e-3", F(1, 1000)), (".5", F(1, 2)),
])
def test_parsed_literals_are_ints_where_integer(text, want):
    value = exprs.parse(text).value
    assert value == want and type(value) is type(want)


def test_negative_powers_of_exact_numbers_stay_exact():
    for text, x, want in [("2^-1", 0, F(1, 2)), ("x^-2", 3, F(1, 9)), ("(x / x)^-1", 3, 1),
                          ("(x / 2)^-1", 3, F(2, 3))]:
        got = exprs.parse(text)(x)
        assert got == want and type(got) is type(want), text
    assert exprs.parse("x^-1")(4.0) == 0.25


def test_the_mended_float_loops_meet_no_fraction():
    f = exprs.parse("exp(x)")
    with counting() as counts:
        res = registry.build_kind("rational_x_over_x1", f, 20, x0=0.5)
        matching.verify_matching(res.approximant, res.chars)
    assert not counts
    with counting() as counts:
        expansions.exp_weighted_coeffs(res.chars, F(-1, 2), 2)
    assert not counts
    g = exprs.parse("sqrt(4 - x^2)")
    points = GaussLegendre().points(-1, 1)
    with counting() as counts:
        values = [g(x) for x in points]
    assert not counts and len(values) == 256 and all(type(v) is float for v in values)


def test_counting_sees_a_fraction_meeting_a_float():
    with counting() as counts:
        results = [F(1, 3) * 0.5, 2.0 - F(1, 3), F(1, 2) + 1]
    assert sum(counts.values()) == 2 and results[2] == F(3, 2)
