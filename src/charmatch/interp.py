"""Value-matching approximations.

Lagrange/Newton interpolation, the zero-factory generalization with an
arbitrary rho(0) = 0 map, and the generalized Whittaker-Shannon family

    A(x) = sum_n a_n N(x) sin(pi s(x)) / (s_n (x - x_n)),   x_n = s^{-1}(n),

with the six node systems studied in the source material plus the classical
equispaced one, and the integral-matching variant obtained by interpolating
the primitive with blocks vanishing at the lower integration limit and
differentiating the interpolant analytically.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

from . import exprs, specfun
from .errors import DomainError
from .jets import Jet
from .matching import (
    Approximant,
    CharNumbers,
    CoeffSeq,
    PolynomialApproximant,
    ValueNodes,
)
from .poly import Poly, div

__all__ = [
    "NodeSystem",
    "ws_node_systems",
    "value_chars",
    "lagrange_interp",
    "newton_interp",
    "NewtonApproximant",
    "rho_interp",
    "RhoApproximant",
    "ws_build",
    "WsApproximant",
    "ws_integral_match",
    "WsIntegralDerivative",
]


# -- node systems ------------------------------------------------------------


@dataclass(frozen=True)
class NodeSystem:
    """Scaling s, normalizer N, nodes x_n = s^{-1}(n) and slope constants.

    ``slope_closed`` holds the closed-form s_n when one is known; otherwise
    s_n is lambda'(x_n), read from a jet of lambda(x) = N(x) sin(pi s(x))
    at x_n.  Excluded indices are dropped from the summation window entirely.
    """

    name: str
    scaling: exprs.Expr
    normalizer: exprs.Expr
    node_fn: Callable[[int], float]
    slope_closed: Callable[[int], float] | None = None
    exclusions: frozenset = frozenset()
    positive_only: bool = False
    test_function: exprs.Expr | None = None

    def indices(self, n_max: int) -> list[int]:
        start = 1 if self.positive_only else -n_max
        return [n for n in range(start, n_max + 1) if n not in self.exclusions]

    def node(self, n: int) -> float:
        return self.node_fn(n)

    def nodes(self, n_max: int) -> list[tuple[int, float]]:
        return [(n, self.node(n)) for n in self.indices(n_max)]

    def lambda_value(self, x: float) -> float:
        return float(self.normalizer(x)) * math.sin(math.pi * float(self.scaling(x)))

    def lambda_jet(self, x, order: int) -> Jet:
        s = self.scaling.lift(x, order)
        n = self.normalizer.lift(x, order)
        return n * (math.pi * s).sin()

    def slope(self, n: int, jet: Jet | None) -> float:
        """s_n: the closed form where one is known (``jet`` is then unread),
        else lambda'(x_n) read from ``jet``, a ``lambda_jet`` at x_n of order
        1 or more."""
        if self.slope_closed is not None:
            return self.slope_closed(n)
        return float(jet.coeffs[1])

    def with_exclusions(self, *extra: int) -> "NodeSystem":
        return replace(self, exclusions=self.exclusions | set(extra))


def _sgn(n: float) -> float:
    return (n > 0) - (n < 0)


def ws_node_systems() -> dict[str, NodeSystem]:
    """The six preset node systems (a)-(f) plus the classical equispaced one."""
    parse = exprs.parse
    one = exprs.Const(1)
    presets = {
        "ws-a": NodeSystem(
            name="ws-a",
            scaling=parse("x^3"),
            normalizer=one,
            node_fn=lambda n: _sgn(n) * abs(n) ** (1.0 / 3.0),
            slope_closed=lambda n: 3.0 * math.pi * abs(n) ** (2.0 / 3.0) * (-1.0) ** n,
            exclusions=frozenset({0}),
            test_function=parse("1 - x^2"),
        ),
        "ws-b": NodeSystem(
            name="ws-b",
            scaling=parse("sin(x)/cos(x)"),
            normalizer=one,
            node_fn=math.atan,
            slope_closed=lambda n: math.pi * (n * n + 1.0) * (-1.0) ** n,
            test_function=parse("exp(x)"),
        ),
        "ws-c": NodeSystem(
            name="ws-c",
            scaling=parse("exp(x)"),
            normalizer=one,
            node_fn=lambda n: math.log(n),
            slope_closed=lambda n: math.pi * n * (-1.0) ** n,
            positive_only=True,
            test_function=parse("cos(x)"),
        ),
        "ws-d": NodeSystem(
            name="ws-d",
            scaling=parse("1/x"),
            normalizer=parse("x^2"),
            node_fn=lambda n: 1.0 / n,
            slope_closed=lambda n: math.pi * (-1.0) ** (n + 1),
            exclusions=frozenset({0}),
            test_function=parse("ln(x^2 + 1)"),
        ),
        "ws-e": NodeSystem(
            name="ws-e",
            scaling=parse("x/(1 - x^2)"),
            normalizer=parse("1 - x^2"),
            node_fn=lambda n: 2.0 * n / (math.sqrt(4.0 * n * n + 1.0) + 1.0),
            slope_closed=lambda n: math.pi * (-1.0) ** n * math.sqrt(4.0 * n * n + 1.0),
            test_function=parse("sqrt(1 - x^2)"),
        ),
        "ws-f": NodeSystem(
            name="ws-f",
            scaling=parse("x*exp(x^2)"),
            normalizer=one,
            node_fn=lambda n: _sgn(n) * math.sqrt(specfun.lambert_w0(2.0 * n * n) / 2.0),
            slope_closed=None,  # differentiated via jets; no closed form published
            test_function=parse("bessel_j0(x)"),
        ),
        "ws-classic": NodeSystem(
            name="ws-classic",
            scaling=parse("x"),
            normalizer=one,
            node_fn=float,
            slope_closed=lambda n: math.pi * (-1.0) ** n,
        ),
    }
    return presets


def value_chars(f, system: NodeSystem, n_max: int) -> CharNumbers:
    """c_n = f(x_n) over the system's retained nodes."""
    family = ValueNodes(tuple(x for _, x in system.nodes(n_max)))
    return family.chars(f, len(family.nodes))


# -- polynomial interpolation ---------------------------------------------------


def _check_value_family(c: CharNumbers) -> tuple:
    if not isinstance(c.family, ValueNodes):
        raise DomainError("expected value-family characteristic numbers")
    nodes = c.family.nodes
    if len(set(nodes)) != len(nodes):
        raise DomainError("interpolation nodes must be distinct")
    return nodes


def lagrange_interp(c: CharNumbers) -> PolynomialApproximant:
    """The interpolation polynomial in Lagrange (delta-basis) form."""
    nodes = _check_value_family(c)
    total = Poly([0])
    for n, (xn, cn) in enumerate(zip(nodes, c.values)):
        if cn == 0:
            continue
        numer = Poly([1])
        denom = 1
        for i, xi in enumerate(nodes):
            if i != n:
                numer = numer * Poly([-xi, 1])
                denom = denom * (xn - xi)
        total = total + div(cn, denom) * numer
    return PolynomialApproximant(total, coeffs=CoeffSeq(c.values, "lagrange"))


class NewtonApproximant(Approximant):
    """Newton form: sum a_n prod_{i<n} (x - x_i), a_n divided differences."""

    def __init__(self, coeffs: CoeffSeq, nodes: tuple):
        super().__init__(coeffs)
        self.nodes = nodes

    def __call__(self, x):
        a = self.coeffs.values
        acc = a[-1]
        for k in range(len(a) - 2, -1, -1):
            acc = acc * (x - self.nodes[k]) + a[k]
        return acc

    def as_poly(self) -> Poly:
        total = Poly([self.coeffs.values[0]])
        basis = Poly([1])
        for k in range(1, len(self.coeffs.values)):
            basis = basis * Poly([-self.nodes[k - 1], 1])
            total = total + self.coeffs.values[k] * basis
        return total

    def eval_jet(self, x0, order: int) -> Jet:
        return self.as_poly().eval_jet(x0, order)


def newton_interp(c: CharNumbers) -> NewtonApproximant:
    """Triangular (divided-difference) form of the interpolation polynomial."""
    nodes = _check_value_family(c)
    table = list(c.values)
    diffs = [table[0]]
    for level in range(1, len(nodes)):
        for i in range(len(nodes) - level):
            table[i] = div(table[i + 1] - table[i], nodes[i + level] - nodes[i])
        diffs.append(table[0])
    return NewtonApproximant(CoeffSeq(tuple(diffs), "newton"), tuple(nodes))


class RhoApproximant(Approximant):
    """sum c_n prod_{k != n} rho(x - x_k) / rho(x_n - x_k)."""

    def __init__(self, coeffs: CoeffSeq, nodes: tuple, rho: Callable[[float], float]):
        super().__init__(coeffs)
        self.nodes = nodes
        self.rho = rho
        self._denoms = []
        for n, xn in enumerate(nodes):
            d = 1.0
            for k, xk in enumerate(nodes):
                if k != n:
                    r = float(rho(xn - xk))
                    if r == 0.0:
                        raise DomainError(
                            f"rho vanishes at a node difference: rho({xn} - {xk}) = 0"
                        )
                    d *= r
            self._denoms.append(d)

    def __call__(self, x):
        acc = 0.0
        for n, xn in enumerate(self.nodes):
            cn = float(self.coeffs.values[n])
            if cn == 0.0:
                continue
            prod = 1.0
            for k, xk in enumerate(self.nodes):
                if k != n:
                    prod *= float(self.rho(x - xk))
            acc += cn * prod / self._denoms[n]
        return acc


def rho_interp(c: CharNumbers, rho: Callable[[float], float]) -> RhoApproximant:
    """Interpolant built from an arbitrary zero-creating map rho(0) = 0."""
    nodes = _check_value_family(c)
    if abs(float(rho(0.0))) > 1e-12:
        raise DomainError("rho must vanish at zero")
    return RhoApproximant(CoeffSeq(c.values, "rho_interp"), nodes, rho)


# -- generalized Whittaker-Shannon ------------------------------------------------


@dataclass
class _WsTerm:
    system: NodeSystem
    coefficient: float
    node: float
    slope: float
    radius: float

    @cached_property
    def half_curvature(self) -> float:
        """lambda''(x_n) / (2 s_n), taken when a point first falls inside the
        radius: the series reads it nowhere else."""
        jet = self.system.lambda_jet(self.node, 2)
        return 2.0 * float(jet.coeffs[2]) / (2.0 * self.slope)


class WsApproximant(Approximant):
    """Evaluator for the generalized sampling formula.

    Away from nodes the direct ratio is used; inside a small radius around
    each node x_n the term is replaced by its removable-singularity
    expansion a_n [1 + lambda''(x_n) (x - x_n) / (2 s_n)], so evaluation is
    continuous through the nodes and A(x_n) = a_n holds exactly.
    """

    def __init__(self, system: NodeSystem, c: CharNumbers, n_max: int):
        nodes = system.nodes(n_max)
        if len(c.values) != len(nodes):
            raise DomainError("one value per retained node is required")
        super().__init__(CoeffSeq(c.values, "ws", params={"preset": system.name,
                                                          "n_max": n_max}))
        self.system = system
        self.n_max = n_max
        self.terms = []
        for (n, xn), a in zip(nodes, c.values):
            # an order-1 jet holds lambda'(x_n) with the bits of any higher order
            jet = system.lambda_jet(xn, 1) if system.slope_closed is None else None
            slope = system.slope(n, jet)
            if slope == 0:
                raise DomainError(f"slope s_{n} vanishes; node system invalid")
            self.terms.append(_WsTerm(
                system=system,
                coefficient=float(a),
                node=xn,
                slope=float(slope),
                radius=1e-6 * (1.0 + abs(xn)),
            ))
        # away from every node the series is one flat loop over (a_n, x_n, s_n)
        # (``sum`` compensates from Python 3.12 on); ``_reach`` keeps it clear
        # of every radius whatever x - x_n rounds to
        self._flat = tuple((t.coefficient, t.node, t.slope) for t in self.terms)
        self._nodes = sorted(t.node for t in self.terms)
        self._reach = 2.0 * max((t.radius for t in self.terms), default=0.0)

    def __call__(self, x):
        x = float(x)
        if self._flat:
            i = bisect_left(self._nodes, x)
            if (i == 0 or x - self._nodes[i - 1] > self._reach) and \
                    (i == len(self._nodes) or self._nodes[i] - x > self._reach):
                lam = self.system.lambda_value(x)
                acc = 0.0
                for c, xn, s in self._flat:
                    acc += c * lam / (s * (x - xn))
                return acc
        lam = None
        acc = 0.0
        for t in self.terms:
            d = x - t.node
            if abs(d) < t.radius:
                acc += t.coefficient * (1.0 + t.half_curvature * d)
            else:
                if lam is None:
                    lam = self.system.lambda_value(x)
                acc += t.coefficient * lam / (t.slope * d)
        return acc


def ws_build(system: NodeSystem, c: CharNumbers, n_max: int) -> WsApproximant:
    return WsApproximant(system, c, n_max)


# -- integral matching -------------------------------------------------------------


class WsIntegralDerivative(Approximant):
    """Derivative of the primitive's interpolant: the integral-matching
    approximant of f built from c_n = integral of f from a to x_n.

    Each building block lambda(x)(x - a) / (s_n (x_n - a)(x - x_n)) vanishes
    at ``a`` and interpolates the primitive at the nodes; the approximant
    differentiates the blocks in closed form, switching to a local series
    near each node.
    """

    def __init__(self, system: NodeSystem, a: float, c: CharNumbers, n_max: int):
        nodes = system.nodes(n_max)
        if len(c.values) != len(nodes):
            raise DomainError("one primitive value per retained node is required")
        super().__init__(CoeffSeq(c.values, "ws_integral",
                                  params={"preset": system.name, "a": a}))
        self.system = system
        self.a = float(a)
        self.entries = []
        order = 6
        for (n, xn), cn in zip(nodes, c.values):
            if abs(xn - self.a) <= 1e-12 * (1.0 + abs(xn)):
                raise DomainError(
                    f"integration limit a={a} coincides with node x_{n}={xn}"
                )
            lj = system.lambda_jet(xn, order)
            denom = float(system.slope(n, lj)) * (xn - self.a)
            # local series of v(x) = lambda(x)(x-a)/denom around x_n; the
            # noise-level constant term is dropped (removable singularity)
            lin = Jet(xn, (xn - self.a, 1) + (0,) * (order - 1))
            v = (lj * lin / denom).coeffs
            block = Poly(float(vk) for vk in v[1:])
            self.entries.append({
                "c": float(cn),
                "node": xn,
                "denom": denom,
                "block": block,
                "block_slope": block.derivative(),
                "radius": 1e-4 * (1.0 + abs(xn)),
            })

    def primitive(self, x: float) -> float:
        """The interpolant of the primitive itself."""
        x = float(x)
        lam = None
        acc = 0.0
        for e in self.entries:
            d = x - e["node"]
            if abs(d) < e["radius"]:
                # block = v/d = sum_k v_{k+1} d^k with v_1 -> 1 in the limit
                acc += e["c"] * e["block"](d)
            else:
                if lam is None:
                    lam = self.system.lambda_value(x)
                acc += e["c"] * lam * (x - self.a) / (e["denom"] * d)
        return acc

    def __call__(self, x):
        x = float(x)
        jet = None
        acc = 0.0
        for e in self.entries:
            d = x - e["node"]
            if abs(d) < e["radius"]:
                acc += e["c"] * e["block_slope"](d)
            else:
                if jet is None:
                    jet = self.system.lambda_jet(x, 1)
                lam = float(jet.coeffs[0])
                lamp = float(jet.coeffs[1])
                v = lam * (x - self.a) / e["denom"]
                vp = (lamp * (x - self.a) + lam) / e["denom"]
                acc += e["c"] * (vp * d - v) / (d * d)
        return acc


def ws_integral_match(system: NodeSystem, a: float, c: CharNumbers,
                      n_max: int) -> WsIntegralDerivative:
    """Approximant of f from integrals c_n = int_a^{x_n} f."""
    return WsIntegralDerivative(system, a, c, n_max)
