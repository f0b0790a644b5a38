"""The per-point grid kernels against their plain one-step references, by
float bits (``grid_kernel_reference.py``)."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charmatch import expansions, exprs, specfun
from charmatch.interp import value_chars, ws_build, ws_node_systems
from charmatch.registry import build_kind

from grid_kernel_reference import bessel_sweep, dex_ladder, expansion_sum, ws_call


def outcome(fn, *args):
    """The float bits of fn(*args), element by element for a tuple, or the
    type and text of what it raised."""
    try:
        got = fn(*args)
    except Exception as exc:  # a refusal is an outcome too
        return type(exc).__name__, str(exc)
    return [v.hex() for v in got] if isinstance(got, tuple) else got.hex()


def bessel_arguments():
    rng = random.Random(24)
    xs = [0.0, 1e-300, 1e-31, 1e-30, 3e-30, 1e-20, 1e-8, 0.5, 1.0, 31.5, 64.0,
          999.75, 5000.0, specfun.BESSEL_X_MAX]
    xs += [10.0 ** rng.uniform(-30.0, 4.0) for _ in range(60)]
    return xs + [-x for x in xs]


@pytest.mark.parametrize("top", [31, 63, 95])
def test_bessel_sweep_keeps_the_one_step_bits(top, monkeypatch):
    scalars = []  # how many floats each rescaling divides besides out[k..top]
    rescaled = specfun._rescaled
    monkeypatch.setattr(specfun, "_rescaled",
                        lambda *args: scalars.append(len(args) - 3) or rescaled(*args))
    for x in bessel_arguments():
        assert outcome(specfun._bessel_sweep.__wrapped__, top, x) \
            == outcome(bessel_sweep, top, x), x
    # tiny |x| grows past the rescaling threshold, in the paired steps
    # (J_{k-1}, J_k and the norm) and in the last step to J_0 (J_0, the norm)
    assert set(scalars) == {2, 3}


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 1.0001e4])
def test_bessel_sweep_refuses_like_the_one_step_loop(x):
    assert outcome(specfun._bessel_sweep.__wrapped__, 31, x) == outcome(bessel_sweep, 31, x)


# every |x| the dex functions accept, subnormals and both zeros among them,
# and ladder lengths on both sides of the 64 that ``dex_eval`` asks for
@settings(max_examples=400, deadline=None)
@given(st.floats(min_value=-expansions._DEX_X_MAX, max_value=expansions._DEX_X_MAX),
       st.integers(min_value=1, max_value=130))
@example(0.0, 1)
@example(-0.0, 64)
@example(5e-324, 130)
@example(-5e-324, 1)
@example(1e-310, 64)
@example(expansions._DEX_X_MAX, 1)
@example(-expansions._DEX_X_MAX, 130)
@example(32.0, 64)
@example(-31.75, 64)
def test_dex_ladder_keeps_the_one_step_bits(x, length):
    assert outcome(expansions._dex_ladder.__wrapped__, x, length) \
        == outcome(dex_ladder, x, length)


def ws_arguments(approx):
    """Points at every node, inside, on and just past each radius and the
    reach of the flat path, far from every node, and non-finite ones."""
    xs = [math.nan, math.inf, -math.inf, 0.0, 0.3, -2.75, 1e3, -1e3]
    for t in approx.terms:
        for m in (0.0, 0.5, 0.999, 1.0, 1.001, 1.999, 2.0, 2.001, 3.0, 1e3):
            xs += [t.node + m * t.radius, t.node - m * t.radius]
        xs += [math.nextafter(t.node, math.inf), math.nextafter(t.node, -math.inf)]
    return xs


@pytest.mark.parametrize("name", ["ws-a", "ws-b", "ws-c", "ws-d", "ws-e", "ws-f",
                                  "ws-classic"])
def test_ws_series_keeps_the_term_by_term_bits(name):
    system = ws_node_systems()[name]
    c = value_chars(system.test_function or exprs.parse("sin(x)"), system, 12)
    approx = ws_build(system, c, 12)
    for x in ws_arguments(approx):
        assert outcome(approx, x) == outcome(ws_call, approx, x), x


def test_ws_series_with_no_terms():
    # ws-c runs over n >= 1 only, so order 0 retains no node at all
    empty_system = ws_node_systems()["ws-c"]
    empty = ws_build(empty_system, value_chars(empty_system.test_function, empty_system, 0), 0)
    assert not empty.terms
    for x in (0.0, 0.5, math.nan, math.inf):
        assert outcome(empty, x) == outcome(ws_call, empty, x) == (0.0).hex()


@pytest.mark.parametrize("kind", ["nsbf", "dex", "dirichlet_rat1", "dirichlet_rat2"])
@pytest.mark.parametrize("text, x0", [("exp(x)", 0), ("sin(5*x)", 0),
                                      ("cos(x) + x", Fraction(1, 2))])
def test_prepared_terms_keep_the_term_by_term_bits(kind, text, x0):
    # every even derivative of sin(5x) at 0 is zero, and so are many a_n
    approx = build_kind(kind, exprs.parse(text), 12, x0=x0).approximant
    rng = random.Random(25)
    xs = [0.0, -0.0, 1e-300, 0.25, -0.999, 2.5, -30.0, 1e3, math.nan, math.inf]
    for x in xs + [rng.uniform(-3.0, 3.0) for _ in range(40)]:
        if kind == "dirichlet_rat1" and abs(x - approx.center) == 1:
            continue  # refused before any term is summed
        assert outcome(approx, x) == outcome(expansion_sum, approx, x), x
