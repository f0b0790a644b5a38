"""Dense univariate polynomials over exact rationals or floats.

Coefficients are plain Python numbers (``int``, ``fractions.Fraction`` or
``float``); arithmetic stays exact as long as every participating number is
exact.  This is the workhorse behind the combinatorial polynomial tables
(Bernoulli, Legendre) and every place the tests demand exact-zero residuals.
Exactness follows the operand types; ``div`` and ``over`` are the only two
places where the package chooses between exact and float arithmetic by hand.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

EXACT_TYPES = (int, Fraction)


def is_exact(value) -> bool:
    """True for numbers participating in exact (rational) arithmetic."""
    return isinstance(value, EXACT_TYPES)


def div(a, b):
    """``a / b``, an exact Fraction when both operands are exact (``int / int``
    alone would give a float)."""
    if isinstance(a, EXACT_TYPES) and isinstance(b, EXACT_TYPES):
        return Fraction(a) / b
    return a / b


def over(x, den: int):
    """``x / den`` for an integer ``den`` as ``x`` times the reciprocal; for a
    float ``x`` that is the float ``1.0 / den`` (at ``den = 23!`` an ulp away
    from the correctly rounded 1/23!), which the float coefficients rely on."""
    return x * Fraction(1, den) if isinstance(x, EXACT_TYPES) else x * (1.0 / den)


class Poly:
    """Immutable polynomial ``c[0] + c[1] x + ... + c[d] x^d``."""

    __slots__ = ("coeffs", "_floats")

    def __init__(self, coeffs: Iterable = (0,)):
        cs = list(coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0]
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- basic protocol -------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __call__(self, x):
        """Horner evaluation at a number, a Poly or a Jet (the package's one
        Horner loop); exact when coefficients and ``x`` are exact.

        The result has the kind of ``x``, also for a constant polynomial.  At
        a float ``x`` the loop runs on float copies of the coefficients, made
        once; that gives the same bits, since a Fraction meeting a float is
        converted with ``float`` first.
        """
        coeffs = self.coeffs
        if isinstance(x, float):
            coeffs = self.floats
        acc = coeffs[-1]
        constant_like = getattr(x, "constant_like", None)
        if constant_like is not None:
            acc = constant_like(acc)
        for c in reversed(coeffs[:-1]):
            acc = acc * x + c
        return acc

    @property
    def floats(self) -> tuple:
        """The coefficients as floats, converted on first use."""
        try:
            return self._floats
        except AttributeError:
            object.__setattr__(self, "_floats", tuple(float(c) for c in self.coeffs))
            return self._floats

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Poly):
            n = max(len(self.coeffs), len(other.coeffs))
            a = list(self.coeffs) + [0] * (n - len(self.coeffs))
            b = list(other.coeffs) + [0] * (n - len(other.coeffs))
            return Poly(x + y for x, y in zip(a, b))
        return self + Poly([other])

    __radd__ = __add__

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else Poly([-other]))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly):
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        return Poly(c * other for c in self.coeffs)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- calculus -------------------------------------------------------

    def derivative(self) -> "Poly":
        if self.degree == 0:
            return Poly([0])
        return Poly(k * c for k, c in enumerate(self.coeffs) if k >= 1)

    def antiderivative(self) -> "Poly":
        """Antiderivative with zero constant term (exact over Fractions)."""
        out = [0]
        for k, c in enumerate(self.coeffs):
            out.append(div(c, k + 1))
        return Poly(out)

    def integral(self, a, b):
        """Definite integral over [a, b]; exact for exact inputs."""
        anti = self.antiderivative()
        return anti(b) - anti(a)

    # -- structural helpers ----------------------------------------------

    def compose_affine(self, alpha, beta) -> "Poly":
        """Return p(alpha*x + beta) by Horner over polynomials."""
        return self(Poly([beta, alpha]))

    def shift(self, a) -> "Poly":
        """Return q with q(t) = p(t + a), i.e. re-expansion around ``a``."""
        return self.compose_affine(1, a)

    def as_float(self) -> "Poly":
        return Poly(self.floats)

    def as_poly(self) -> "Poly":
        return self

    def constant_like(self, value) -> "Poly":
        """The constant polynomial ``value``."""
        return Poly([value])

    def eval_jet(self, x0, order: int):
        """Jet of the polynomial at ``x0`` (exact when inputs are exact)."""
        from .jets import Jet

        return self(Jet.variable(x0, order))


def monomial(k: int, coeff=1) -> Poly:
    return Poly([0] * k + [coeff])
