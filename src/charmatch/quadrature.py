"""Composite Gauss-Legendre quadrature for the integral-matching families.

The one rule has 32 nodes per panel, tabulated bit for bit as the eigenvalue
method of ``polynomial.legendre.leggauss(32)`` gives them (a test pins the
tables to it): the correctly rounded rule differs in 2 nodes and in all 32
weights (up to 5.8e-14 relative), so its bits would move every integral
computed so far.  The rule is symmetric to the bit, x_i = -x_{31-i} and
w_i = w_{31-i}, so its positive half holds all 32.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Sequence

from .errors import DomainError

__all__ = ["GaussLegendre"]

_HALF_NODES = (
    0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
    0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
    0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
    0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816,
)
_HALF_WEIGHTS = (
    0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
    0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
    0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
    0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506,
)


class GaussLegendre:
    """Composite Gauss-Legendre rule: the 32 tabulated nodes on each of
    ``panels`` equal panels.  Exact for polynomials of degree <= 63 per panel."""

    # ascending nodes, as leggauss orders them
    nodes = tuple(-x for x in reversed(_HALF_NODES)) + _HALF_NODES
    weights = _HALF_WEIGHTS[::-1] + _HALF_WEIGHTS

    def __init__(self, panels: int = 8):
        if panels < 1:
            raise DomainError("quadrature needs panels >= 1")
        self.panels = panels

    def points(self, a: float, b: float) -> list[float]:
        """The nodes of the composite rule on (a, b), panel by panel: the
        points at which ``integrate`` takes the values of its integrand."""
        a, m = float(a), self.panels
        width = (float(b) - a) / m
        half = 0.5 * width
        return [a + p * width + half + half * t for p in range(m) for t in self.nodes]

    def integrate(self, f: Callable[[float], float] | Sequence[float], a: float,
                  b: float, weight: Sequence[float] | None = None) -> float:
        """The rule applied to ``f`` on (a, b): a callable, or its values at
        ``points(a, b)`` when a family samples once for many integrands.

        ``weight``, the values g of a factor w_n at the same points, makes
        the integrand w_n * f: each node of weight w adds ``w * (g * v)``.
        Without it g is 1.0, and ``1.0 * v`` is a float v to the bit."""
        m = self.panels
        values = [f(x) for x in self.points(a, b)] if callable(f) else f
        k = len(self.weights)
        if len(values) != k * m:
            raise DomainError(f"quadrature needs {k * m} sampled values, got {len(values)}")
        if weight is not None and len(weight) != k * m:
            raise DomainError(f"quadrature needs {k * m} weight values, got {len(weight)}")
        half = 0.5 * ((float(b) - float(a)) / m)
        # zip ends each panel at its last weight, before taking a g or a v
        gs, vs = repeat(1.0) if weight is None else iter(weight), iter(values)
        total = 0.0
        for _ in range(m):
            acc = 0.0
            for w, g, v in zip(self.weights, gs, vs):
                acc += w * (g * v)
            total += half * acc
        return total

    def integrate_with_error(self, f, a, b) -> tuple[float, float]:
        """Value on 2x panels plus a doubling-refinement error estimate."""
        coarse = self.integrate(f, a, b)
        fine = GaussLegendre(2 * self.panels).integrate(f, a, b)
        return fine, abs(fine - coarse)
