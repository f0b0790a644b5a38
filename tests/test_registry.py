"""The kind table and the approximant contract: every approximant carries
its coefficients, its center and the kind those coefficients belong to."""

import math
from fractions import Fraction

import pytest

from charmatch import exprs
from charmatch import integral_match as im
from charmatch.cli import _CorruptedApproximant
from charmatch.errors import DomainError
from charmatch.expansions import SeriesInGApproximant
from charmatch.interp import (
    lagrange_interp,
    newton_interp,
    rho_interp,
    value_chars,
    ws_build,
    ws_integral_match,
    ws_node_systems,
)
from charmatch.matching import CharNumbers, CoeffSeq, ValueNodes
from charmatch.poly import Poly
from charmatch.registry import KIND_NAMES, build_kind, kind_params
from result_key import key


def test_kind_names_keep_their_order():
    # the compare rows and the benchmark's case lists follow this order
    assert KIND_NAMES == (
        "taylor", "nsbf", "pade", "pow_sine", "exp_weighted", "log_powers",
        "stirling1_g", "lambert_w_g", "rational_x_over_x1", "dirichlet_g",
        "dirichlet_rat1", "dirichlet_rat2", "dex", "nonlinear",
    )


@pytest.mark.parametrize("x0", [0, Fraction(1, 2)])
@pytest.mark.parametrize("name", KIND_NAMES)
def test_registry_approximants_carry_kind_and_center(name, x0):
    res = build_kind(name, exprs.parse("exp(x)"), 6, x0=x0)
    assert res.approximant.kind == name == res.coeffs.kind
    assert res.approximant.coeffs is res.coeffs
    assert repr(res.approximant.center) == repr(x0)


@pytest.mark.parametrize("order", [0, 3, 4, 11])
def test_pade_and_dex_take_their_sizes_from_the_order(order):
    f = exprs.parse("exp(x)")
    pade = build_kind("pade", f, order).coeffs.params
    assert (pade["m"], pade["n"]) == ((order + 1) // 2, order // 2)
    assert build_kind("dex", f, order).coeffs.params["ring"] == order + 1


def _value_numbers():
    return CharNumbers((1, 2, 5), ValueNodes((0, 1, 2)))


def _ws_classic():
    return ws_node_systems()["ws-classic"]


@pytest.mark.parametrize("kind, build", [
    ("lagrange", lambda: lagrange_interp(_value_numbers())),
    ("newton", lambda: newton_interp(_value_numbers())),
    ("rho_interp", lambda: rho_interp(_value_numbers(), math.sin)),
    ("ws", lambda: ws_build(_ws_classic(),
                            value_chars(exprs.parse("exp(x)"), _ws_classic(), 3), 3)),
    ("ws_integral", lambda: ws_integral_match(
        _ws_classic(), 0.5, CharNumbers(tuple(range(7)), ValueNodes(())), 3)),
    ("fourier", lambda: im.fourier_approx(exprs.parse("exp(x)"), 4)),
    ("legendre_fourier", lambda: im.legendre_fourier_approx(exprs.parse("exp(x)"), 4)),
    ("legendre_moment", lambda: im.legendre_moment_match(
        im.moments_compute(Poly([1, 2, 3]), (-1, 1), 4))),
    ("higher_integral", lambda: im.higher_integral_approx(
        im.higher_integral_chars(Poly([1, 2, 3]), 4))),
    ("bernoulli", lambda: im.bernoulli_approx(
        im.bernoulli_chars(exprs.parse("exp(x)"), (0, 1), 4))),
])
def test_other_builders_take_the_kind_of_their_coefficients(kind, build):
    approx = build()
    assert approx.kind == kind == approx.coeffs.kind


def test_corrupted_approximant_reports_its_inner_kind():
    res = build_kind("pade", exprs.parse("exp(x)"), 4)
    bad = _CorruptedApproximant(res.approximant, 0, 2, 1e-3)
    assert bad.kind == "pade"
    assert bad.coeffs is res.coeffs


def test_series_in_g_refuses_a_kind_without_a_basis():
    with pytest.raises(DomainError, match="unknown basis function 'taylor'"):
        SeriesInGApproximant(CoeffSeq((1, 2), "taylor"))


# -- a kind reads only its own parameters -------------------------------------------

# every parameter some kind reads besides x0, and a misspelling of one
_PARAM_VALUES = {"w": Fraction(1, 3), "q": 3, "alpha": 2, "lam": "sqrt", "W": Fraction(1, 3)}


def test_the_kind_parameter_table():
    assert {name: kind_params(name) for name in KIND_NAMES if kind_params(name)} == {
        "exp_weighted": {"w": Fraction(-1, 2), "q": 2},
        "rational_x_over_x1": {"alpha": -1},
        "nonlinear": {"lam": "ln"},
    }


@pytest.mark.parametrize("name, param", [(name, param) for name in KIND_NAMES
                                         for param in _PARAM_VALUES
                                         if param not in kind_params(name)])
def test_a_kind_refuses_a_parameter_it_does_not_read(name, param):
    with pytest.raises(DomainError, match=f"kind {name} does not read {param!r}"):
        build_kind(name, exprs.parse("exp(x)"), 4, **{param: _PARAM_VALUES[param]})


def test_an_alias_refuses_under_its_kind_name():
    with pytest.raises(DomainError, match="kind rational_x_over_x1 does not read 'w'"):
        build_kind("newpade", exprs.parse("exp(x)"), 4, w=1)


@pytest.mark.parametrize("name, explicit", [
    ("exp_weighted", {"w": Fraction(-1, 2), "q": 2}),
    ("rational_x_over_x1", {"alpha": -1}),
    ("nonlinear", {"lam": "ln"}),
])
def test_a_left_out_parameter_takes_its_default(name, explicit):
    f = exprs.parse("exp(x)")
    default, given = build_kind(name, f, 6), build_kind(name, f, 6, **explicit)
    assert key((default.chars, default.coeffs)) == key((given.chars, given.coeffs))
    assert key(default.approximant(0.25)) == key(given.approximant(0.25))


@pytest.mark.parametrize("name, param, value", [
    ("exp_weighted", "w", Fraction(-1, 3)), ("exp_weighted", "q", 3),
    ("rational_x_over_x1", "alpha", 2), ("nonlinear", "lam", "sqrt"),
])
def test_a_given_parameter_changes_the_coefficients(name, param, value):
    f = exprs.parse("exp(x)")
    default, given = build_kind(name, f, 6), build_kind(name, f, 6, **{param: value})
    assert key(default.coeffs.values) != key(given.coeffs.values)
