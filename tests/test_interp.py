"""Value matching: polynomial interpolation and the generalized WS family."""

import math
import random
from fractions import Fraction

import pytest

from charmatch import exprs
from charmatch.errors import DomainError, FamilyMismatchError, JetDomainError
from charmatch.figures import sample
from charmatch.interp import (
    NodeSystem,
    lagrange_interp,
    newton_interp,
    rho_interp,
    value_chars,
    ws_build,
    ws_integral_match,
    ws_node_systems,
)
from charmatch.jets import Jet
from charmatch.matching import (
    CharNumbers,
    Derivative,
    ValueNodes,
    measure,
    verify_matching,
)
from charmatch.poly import Poly
from charmatch.quadrature import GaussLegendre


F = Fraction


def chars(nodes, values):
    return CharNumbers(tuple(values), ValueNodes(tuple(nodes)))


# -- polynomial interpolation -----------------------------------------------------


def test_lagrange_examples():
    assert lagrange_interp(chars((0, 1), (0, 1))).poly == Poly([0, 1])
    assert lagrange_interp(chars((-1, 0, 1), (1, 0, 1))).poly == Poly([0, 0, 1])
    assert lagrange_interp(chars((3,), (7,))).poly == Poly([7])


def test_lagrange_duplicate_nodes():
    with pytest.raises(DomainError):
        lagrange_interp(chars((1, 1), (0, 0)))


def test_newton_polynomial_and_jet_equal_lagrange_on_exact_nodes():
    nodes = (F(-2), F(0), F(1, 3), F(1), F(5, 2))
    c = chars(nodes, (F(1), F(-2), F(3, 2), F(5), 0))
    poly = lagrange_interp(c).poly
    new = newton_interp(c)
    assert new.as_poly() == poly
    for x0 in (F(0), F(1, 2), F(-7, 3)):
        assert new.eval_jet(x0, 6) == poly(Jet.variable(x0, 6))
        # the jet holds the Taylor coefficients p^(k)(x0) / k!
        derivative = poly
        for k, coeff in enumerate(new.eval_jet(x0, 6).coeffs):
            assert coeff == derivative(x0) / math.factorial(k)
            derivative = derivative.derivative()


def test_newton_equals_lagrange_on_random_data():
    rng = random.Random(7)
    nodes = tuple(sorted(rng.uniform(-3, 3) for _ in range(8)))
    values = tuple(rng.uniform(-2, 2) for _ in range(8))
    c = chars(nodes, values)
    lag, new = lagrange_interp(c), newton_interp(c)
    for x in [i / 7 for i in range(-21, 22)]:
        assert abs(float(lag(x)) - float(new(x))) < 1e-10


def test_newton_persistence_when_adding_node():
    nodes = (0, 1, 2, 4)
    values = (1, 3, -2, 0)
    full = newton_interp(chars(nodes, values))
    partial = newton_interp(chars(nodes[:3], values[:3]))
    assert full.coeffs.values[:3] == partial.coeffs.values


def test_newton_constant_function():
    c = chars((0, 1, 2), (5, 5, 5))
    n = newton_interp(c)
    assert n.coeffs.values == (5, 0, 0)


def test_newton_verifies_under_value_family():
    c = chars((0, F(1, 2), 1), (1, 2, 0))
    report = verify_matching(newton_interp(c), c)
    assert report.passed and all(r == 0 for r in report.residuals)


def test_rho_identity_is_lagrange():
    c = chars((0.0, 0.5, 2.0), (1.0, -1.0, 3.0))
    r = rho_interp(c, lambda t: t)
    lag = lagrange_interp(c)
    for x in [i / 5 for i in range(-5, 15)]:
        assert abs(float(r(x)) - float(lag(x))) < 1e-11


@pytest.mark.parametrize("rho", [math.sin, lambda t: t ** 3])
def test_rho_interpolates(rho):
    rng = random.Random(3)
    nodes = tuple(sorted(rng.uniform(-2, 2) for _ in range(6)))
    values = tuple(rng.uniform(-1, 1) for _ in range(6))
    r = rho_interp(chars(nodes, values), rho)
    for x, v in zip(nodes, values):
        assert abs(r(x) - v) < 1e-12


def test_rho_requires_zero_at_origin():
    with pytest.raises(DomainError):
        rho_interp(chars((0, 1), (0, 1)), lambda t: t + 1)


def test_rho_vanishing_node_difference():
    with pytest.raises(DomainError):
        rho_interp(chars((0, 1), (0, 1)), lambda t: t * (t - 1))


# -- node systems --------------------------------------------------------------------


def test_preset_node_and_slope_values():
    systems = ws_node_systems()
    a = systems["ws-a"]
    assert a.node(8) == pytest.approx(2.0)
    assert a.slope_closed(2) == pytest.approx(3 * math.pi * 2 ** (2 / 3))
    assert 0 not in a.indices(5)
    b = systems["ws-b"]
    assert b.node(1) == pytest.approx(math.pi / 4)
    assert b.slope_closed(3) == pytest.approx(-10 * math.pi)
    c = systems["ws-c"]
    assert c.indices(4) == [1, 2, 3, 4]
    assert c.node(1) == 0.0 and c.slope_closed(2) == pytest.approx(2 * math.pi)
    d = systems["ws-d"]
    assert d.node(-2) == -0.5 and d.slope_closed(2) == pytest.approx(-math.pi)
    e = systems["ws-e"]
    assert e.node(1) == pytest.approx(2 / (math.sqrt(5) + 1))
    f = systems["ws-f"]
    assert f.node(0) == 0.0
    assert f.node(2) == pytest.approx(math.sqrt(specfun_w(8.0) / 2))


def specfun_w(x):
    from charmatch.specfun import lambert_w0

    return lambert_w0(x)


def test_lambda_vanishes_at_nodes():
    systems = ws_node_systems()
    for name, system in systems.items():
        if name == "ws-classic":
            continue
        for _, xn in system.nodes(20):
            assert abs(system.lambda_value(xn)) <= 1e-12


@pytest.mark.parametrize("name", ["ws-a", "ws-b", "ws-c", "ws-d", "ws-e"])
def test_jet_slopes_match_closed_forms(name):
    system = ws_node_systems()[name]
    for n in system.indices(20):
        closed = system.slope_closed(n)
        slope = float(system.lambda_jet(system.node(n), 1).coeffs[1])
        assert abs(slope - closed) <= 1e-10 * max(1.0, abs(closed))


def test_ws_f_slope_against_numerical_derivative():
    system = ws_node_systems()["ws-f"]
    for n in (-3, 1, 4):
        xn = system.node(n)
        h = 1e-6
        num = (system.lambda_value(xn + h) - system.lambda_value(xn - h)) / (2 * h)
        assert abs(system.slope(n, system.lambda_jet(xn, 1)) - num) < 1e-6 * max(1.0, abs(num))


def counting_lambda_jets(monkeypatch) -> list:
    """The (x, order) of every ``NodeSystem.lambda_jet`` call from here on."""
    calls = []
    lambda_jet = NodeSystem.lambda_jet

    def counting(self, x, order):
        calls.append((x, order))
        return lambda_jet(self, x, order)

    monkeypatch.setattr(NodeSystem, "lambda_jet", counting)
    return calls


@pytest.mark.parametrize("name", ["ws-a", "ws-b", "ws-c", "ws-d", "ws-e", "ws-classic"])
def test_ws_builds_with_a_closed_slope_take_no_lambda_jet(name, monkeypatch):
    system = ws_node_systems()[name]
    c = value_chars(system.test_function or exprs.parse("sin(x)"), system, 20)
    calls = counting_lambda_jets(monkeypatch)
    approx = ws_build(system, c, 20)
    assert calls == []
    # a point inside a node's radius takes that node's order-2 jet, once
    n, xn = system.nodes(20)[3]
    for x in (xn, xn + 1e-9, xn):
        approx(x)
    assert calls == [(xn, 2)]
    # a point away from every node reads no curvature
    calls.clear()
    approx(xn + 0.5 * abs(system.node(n + 1) - xn))
    assert calls == []


def test_ws_f_builds_one_lambda_jet_per_node(monkeypatch):
    # the slope s_n of ws-f is read from an order-1 lambda jet, the order-2
    # jet waits for a point inside the node's radius, and the integral
    # matching block reads s_n from its own order-6 jet
    system = ws_node_systems()["ws-f"]
    calls = counting_lambda_jets(monkeypatch)
    nodes = [xn for _, xn in system.nodes(20)]
    approx = ws_build(system, value_chars(system.test_function, system, 20), 20)
    assert calls == [(xn, 1) for xn in nodes]
    calls.clear()
    approx(nodes[5])
    approx(nodes[5])
    assert calls == [(nodes[5], 2)]
    calls.clear()
    ws_integral_match(system, 0.5, value_chars(system.test_function, system, 20), 20)
    assert calls == [(xn, 6) for xn in nodes]


@pytest.mark.parametrize("n_max", [12, 20, 100])
@pytest.mark.parametrize("name", ["ws-a", "ws-b", "ws-c", "ws-d", "ws-e", "ws-f",
                                  "ws-classic"])
def test_ws_curvature_on_first_use_keeps_the_eager_bits(name, n_max):
    # the build took s_n and lambda''(x_n) / (2 s_n) from one order-2 jet per node
    system = ws_node_systems()[name]
    approx = ws_build(system, value_chars(exprs.parse("cos(x)"), system, n_max), n_max)
    assert len(approx.terms) == len(system.nodes(n_max))
    for (n, xn), t in zip(system.nodes(n_max), approx.terms):
        jet = system.lambda_jet(xn, 2)
        slope = system.slope(n, jet)
        eager = 2.0 * float(jet.coeffs[2]) / (2.0 * float(slope))
        assert t.slope.hex() == float(slope).hex(), (name, n)
        assert t.half_curvature.hex() == eager.hex(), (name, n)


def test_a_node_whose_lambda_jet_fails_is_refused_only_within_its_radius():
    # lambda(x) = |x| sin(pi x): the sqrt jet has no expansion at the node
    # x_0 = 0, and the slopes are closed forms, so the build takes no jet;
    # the jet's own error reaches a point inside that node's radius only
    system = NodeSystem(name="kink", scaling=exprs.parse("x"),
                        normalizer=exprs.parse("sqrt(x^2)"), node_fn=float,
                        slope_closed=lambda n: math.pi * (-1.0) ** n)
    with pytest.raises(JetDomainError):
        system.lambda_jet(0.0, 2)
    c = value_chars(exprs.parse("cos(x)"), system, 3)
    approx = ws_build(system, c, 3)
    for x in (0.0, 5e-7, -5e-7):
        with pytest.raises(JetDomainError, match="sqrt"):
            approx(x)
    assert approx(1.0) == pytest.approx(math.cos(1.0), abs=1e-12)
    assert math.isfinite(approx(2e-6)) and math.isfinite(approx(0.5))
    got = sample(approx, [-1.0, 0.0, 5e-7, 2e-6, 0.5])
    assert math.isnan(got[1]) and math.isnan(got[2])
    assert all(math.isfinite(v) for v in got[:1] + got[3:])


# -- generalized WS interpolation ---------------------------------------------------------


@pytest.mark.parametrize("name", ["ws-a", "ws-b", "ws-c", "ws-d", "ws-e", "ws-f"])
def test_ws_interpolation_property(name):
    system = ws_node_systems()[name]
    f = system.test_function
    c = value_chars(f, system, 20)
    approx = ws_build(system, c, 20)
    for (n, xn), want in zip(system.nodes(20), c.values):
        assert abs(approx(xn) - want) <= 1e-9


def test_ws_classical_delta_property():
    system = ws_node_systems()["ws-classic"]
    f = exprs.parse("sin(x)")  # stands in for a band-limited sample set
    c = value_chars(f, system, 10)
    approx = ws_build(system, c, 10)
    # the node term itself is taken in the limit (exactly a_n); the residue
    # is float noise in sin(pi m) from the other terms
    for (n, xn), want in zip(system.nodes(10), c.values):
        assert abs(approx(xn) - want) < 1e-12


def test_ws_near_node_continuity():
    system = ws_node_systems()["ws-b"]
    c = value_chars(system.test_function, system, 20)
    approx = ws_build(system, c, 20)
    for n in (-5, 0, 7):
        xn = system.node(n)
        base = approx(xn)
        assert abs(approx(xn + 1e-9) - base) <= 1e-6
        assert abs(approx(xn - 1e-9) - base) <= 1e-6


def test_ws_verifies_under_value_family():
    system = ws_node_systems()["ws-e"]
    c = value_chars(system.test_function, system, 12)
    approx = ws_build(system, c, 12)
    report = verify_matching(approx, c)
    assert report.passed


def test_ws_not_jet_measurable():
    system = ws_node_systems()["ws-a"]
    c = value_chars(system.test_function, system, 6)
    approx = ws_build(system, c, 6)
    with pytest.raises(FamilyMismatchError):
        measure(approx, Derivative(0), range(3))


def test_ws_value_count_mismatch():
    system = ws_node_systems()["ws-a"]
    c = value_chars(system.test_function, system, 6)
    with pytest.raises(DomainError):
        ws_build(system, c, 7)


def test_ws_gibbs_observation_report():
    # Near the node-accumulation edge the error does not melt away with order:
    # recorded as an observation, not a convergence assertion.
    system = ws_node_systems()["ws-e"]
    f = system.test_function
    edge = [x / 1000 for x in range(990, 1000)]
    edge += [-x for x in edge]
    errs = {}
    for n_max in (20, 100):
        c = value_chars(f, system, n_max)
        approx = ws_build(system, c, n_max)
        errs[n_max] = max(abs(approx(x) - float(f(x))) for x in edge)
    print(f"\nGibbs report, preset e, max error on |x| in [0.99, 0.999]: {errs}")
    assert errs[100] > 0.25 * errs[20]
    assert errs[100] > 0.01  # no convergence to f near the edge


# -- integral matching -----------------------------------------------------------------------


def test_ws_integral_match_f_equals_one():
    # f = 1, a = 0, x_n = n: the primitive F(x) = x is interpolated exactly
    # and the integral-matching property holds through quadrature
    system = ws_node_systems()["ws-classic"].with_exclusions(0)
    nodes = system.nodes(8)
    c = CharNumbers(tuple(float(x) for _, x in nodes),
                    ValueNodes(tuple(x for _, x in nodes)))
    approx = ws_integral_match(system, 0.0, c, 8)
    for (_, xn), want in zip(nodes, c.values):
        assert abs(approx.primitive(xn) - want) < 1e-12
    quad = GaussLegendre(panels=16)
    for (_, xn), want in zip(nodes, c.values):
        got = quad.integrate(approx, 0.0, xn) if xn != 0 else 0.0
        assert abs(got - want) <= 1e-8


def test_ws_integral_match_cos_primitive():
    # c_n = integral of cos from 0 to x_n = sin(x_n)
    system = ws_node_systems()["ws-classic"].with_exclusions(0)
    nodes = system.nodes(6)
    c = CharNumbers(tuple(math.sin(x) for _, x in nodes),
                    ValueNodes(tuple(x for _, x in nodes)))
    approx = ws_integral_match(system, 0.0, c, 6)
    for (_, xn), want in zip(nodes, c.values):
        assert abs(approx.primitive(xn) - want) < 1e-12
    quad = GaussLegendre(panels=16)
    for (_, xn), want in zip(nodes, c.values):
        got = quad.integrate(approx, 0.0, xn) if xn != 0 else 0.0
        assert abs(got - want) <= 1e-8


def test_ws_integral_match_zero_function():
    system = ws_node_systems()["ws-classic"].with_exclusions(0)
    nodes = system.nodes(5)
    c = CharNumbers((0.0,) * len(nodes), ValueNodes(tuple(x for _, x in nodes)))
    approx = ws_integral_match(system, 0.0, c, 5)
    for x in (-3.3, 0.2, 4.7):
        assert approx(x) == 0.0


def test_ws_integral_match_rejects_node_at_a():
    system = ws_node_systems()["ws-classic"]
    nodes = system.nodes(3)
    c = CharNumbers(tuple(float(x) for _, x in nodes),
                    ValueNodes(tuple(x for _, x in nodes)))
    with pytest.raises(DomainError):
        ws_integral_match(system, 0.0, c, 3)


def test_ws_integral_derivative_is_consistent():
    # the analytic derivative of the primitive matches finite differences
    system = ws_node_systems()["ws-classic"].with_exclusions(0)
    nodes = system.nodes(8)
    c = CharNumbers(tuple(float(x) for _, x in nodes),
                    ValueNodes(tuple(x for _, x in nodes)))
    approx = ws_integral_match(system, 0.0, c, 8)
    h = 1e-6
    for x in (2.5, 0.3, -4.1, 7.5):
        num = (approx.primitive(x + h) - approx.primitive(x - h)) / (2 * h)
        assert abs(approx(x) - num) < 1e-7 * max(1.0, abs(num))
