"""The grid sampler that figures and ``compare`` share."""

import math
from fractions import Fraction

import pytest

from charmatch.errors import DomainError, EvalDomainError
from charmatch.figures import sample


def test_sample_turns_exact_values_into_floats():
    out = sample(lambda x: Fraction(1, 3) * x, [0, 1, Fraction(3)])
    assert out == [0.0, 1 / 3, 1.0]
    assert all(type(v) is float for v in out)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_sample_maps_non_finite_values_to_nan(value):
    out = sample(lambda x: value if x == 1 else x, [0, 1, 2])
    assert out[0] == 0.0 and out[2] == 2.0
    assert math.isnan(out[1])


@pytest.mark.parametrize("error", [EvalDomainError("outside"), DomainError("outside"),
                                   OverflowError("big"), ZeroDivisionError("zero")])
def test_sample_maps_failures_to_nan(error):
    def fn(x):
        if x == 1:
            raise error
        return x

    out = sample(fn, [0, 1, 2])
    assert out[0] == 0.0 and out[2] == 2.0
    assert math.isnan(out[1])
