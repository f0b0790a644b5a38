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
from charmatch.registry import KIND_NAMES, build_kind


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
