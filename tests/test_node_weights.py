"""The tables of quadrature weights w_n at the nodes of the one rule.

Each integral family tabulates its float w_n once per (family, n) in
``matching._node_weights``; every target and both sides of a verification
read that table.  These tests pin the tabulated integrals bit for bit to the
integrands the families formed before, w_n(x) * v evaluated per case.
"""

import math
import sys
from fractions import Fraction

import pytest

from charmatch import exprs
from charmatch import integral_match as im
from charmatch.matching import (
    CharNumbers,
    EndpointDiff,
    HigherIntegral,
    Moments,
    Projection,
    _node_weights,
    measure,
    verify_matching,
)
from charmatch.quadrature import GaussLegendre

F = Fraction


# the integrands w_n(x) * v of each family as they were written before the tables
def _moments_weighted(n, xs, vs):
    return [x ** n * v for x, v in zip(xs, vs)]


def _higher_weighted(n, ts, vs):
    return [(1 - t) ** (n - 1) * v for t, v in zip(ts, vs)]


def _projection_weighted(family):
    def weighted(n, xs, vs):
        scale, shape = family.term(n)
        return [scale * shape(x) * v for x, v in zip(xs, vs)]

    return weighted


def _reference(target, family, a, b, orders, weighted):
    """The old per-case path: sample, weight, integrate, then normalize."""
    quad = GaussLegendre()
    xs = quad.points(a, b)
    vs = [float(target(x)) for x in xs]
    vals = [quad.integrate(weighted(n, xs, vs), a, b) for n in orders]
    if isinstance(family, HigherIntegral):
        return [v / math.factorial(n - 1) for n, v in zip(orders, vals)]
    if isinstance(family, Projection):
        return [v / family.norm(n) for n, v in zip(orders, vals)]
    return vals


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # a target outside its domain raises on both paths
        return type(exc)


def _same_bits(got, want) -> bool:
    if isinstance(want, type):
        return got is want
    return len(got) == len(want) and all(
        (math.isnan(g) and math.isnan(w))
        or (g == w and math.copysign(1.0, g) == math.copysign(1.0, w))
        for g, w in zip(got, want))


TARGETS = {
    "exp": exprs.parse("exp(x)"),
    "sqrt": exprs.parse("sqrt(4 - x^2)"),
    # odd, so the symmetric rule sums some orders to zero
    "lambda": lambda x: math.sin(3 * x) * math.cos(x),
}

CASES = [
    (Moments(-1, 1), (-1, 1), range(41), _moments_weighted),
    (Moments(F(-1, 2), 2), (F(-1, 2), 2), range(41), _moments_weighted),
    (Moments(0, 1.5), (0, 1.5), range(41), _moments_weighted),
    (HigherIntegral(), (-1, 1), range(1, 41), _higher_weighted),
    (Projection("fourier"), (-math.pi, math.pi), range(41),
     _projection_weighted(Projection("fourier"))),
    (Projection("legendre"), (-1.0, 1.0), range(41),
     _projection_weighted(Projection("legendre"))),
    (EndpointDiff(0, 1), (0, 1), [0], _moments_weighted),
]


@pytest.mark.parametrize("target", TARGETS, ids=str)
@pytest.mark.parametrize("family, interval, orders, weighted", CASES,
                         ids=["moments(-1,1)", "moments(-1/2,2)", "moments(0,1.5)",
                              "higher_integral", "fourier", "legendre", "endpoint_zeroth"])
def test_tabulated_weights_give_the_old_integrals_bit_for_bit(family, interval, orders,
                                                              weighted, target):
    f = TARGETS[target]
    orders = list(orders)
    _node_weights.cache_clear()
    want = _outcome(lambda: _reference(f, family, *interval, orders, weighted))
    cold = _outcome(lambda: measure(f, family, orders))
    warm = _outcome(lambda: measure(f, family, orders))
    assert _same_bits(cold, want)
    assert _same_bits(warm, want)


def test_equal_families_share_one_table():
    _node_weights.cache_clear()
    f = TARGETS["exp"]
    first = measure(f, Moments(F(-1, 2), 2), [3])
    assert measure(f, Moments(-0.5, 2.0), [3]) == first
    info = _node_weights.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_build_and_verify_of_legendre_fourier_share_the_tables():
    _node_weights.cache_clear()
    approx = im.legendre_fourier_approx(TARGETS["exp"], 20)
    assert _node_weights.cache_info().misses == 21
    report = verify_matching(approx, CharNumbers(approx.coeffs.values,
                                                 Projection("legendre")))
    assert len(report.residuals) == 21
    info = _node_weights.cache_info()
    assert info.misses == 21
    assert info.hits >= 21


def test_the_tables_are_bounded_and_cleared_with_every_package_cache():
    measure(TARGETS["exp"], Moments(-1, 1), range(5))
    info = _node_weights.cache_info()
    assert info.currsize > 0 and info.maxsize is not None
    # every module-level cache_clear of the package, as a cold run starts
    for name, module in list(sys.modules.items()):
        if name == "charmatch" or name.startswith("charmatch."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()
    assert _node_weights.cache_info().currsize == 0
