"""Composite Gauss-Legendre quadrature for the integral-matching families."""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

from .errors import DomainError

__all__ = ["GaussLegendre"]


@lru_cache(maxsize=None)
def _rule(order: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    # numpy loads with the first rule, so a run that integrates nothing skips it
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(order)
    return tuple(nodes.tolist()), tuple(weights.tolist())


class GaussLegendre:
    """Composite Gauss-Legendre rule: ``order`` nodes on each of ``panels``
    equal panels.  Exact for polynomials of degree <= 2*order - 1 per panel."""

    def __init__(self, order: int = 32, panels: int = 8):
        if order < 1 or panels < 1:
            raise DomainError("quadrature needs order >= 1 and panels >= 1")
        self.order = order
        self.panels = panels
        self.nodes, self.weights = _rule(order)

    def points(self, a: float, b: float) -> list[float]:
        """The nodes of the composite rule on (a, b), panel by panel: the
        points at which ``integrate`` takes the values of its integrand."""
        a, m = float(a), self.panels
        width = (float(b) - a) / m
        half = 0.5 * width
        return [a + p * width + half + half * t for p in range(m) for t in self.nodes]

    def integrate(self, f: Callable[[float], float] | Sequence[float], a: float,
                  b: float) -> float:
        """The rule applied to ``f`` on (a, b): a callable, or its values at
        ``points(a, b)`` when a family samples once for many integrands."""
        m = self.panels
        values = [f(x) for x in self.points(a, b)] if callable(f) else f
        k = self.order
        if len(values) != k * m:
            raise DomainError(f"quadrature needs {k * m} sampled values, got {len(values)}")
        half = 0.5 * ((float(b) - float(a)) / m)
        total = 0.0
        for p in range(0, k * m, k):
            acc = 0.0
            for w, v in zip(self.weights, values[p:p + k]):
                acc += w * v
            total += half * acc
        return total

    def integrate_with_error(self, f, a, b) -> tuple[float, float]:
        """Value on 2x panels plus a doubling-refinement error estimate."""
        coarse = self.integrate(f, a, b)
        fine = GaussLegendre(self.order, 2 * self.panels).integrate(f, a, b)
        return fine, abs(fine - coarse)
