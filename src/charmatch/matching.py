"""Characteristic numbers, functional families and the universal verifier.

A *family* is a concrete sequence of functionals C_n; applying it to a
function yields the characteristic numbers c_n that an approximant has to
reproduce.  ``verify_matching`` re-measures an approximant under the family
that produced a CharNumbers object and reports per-order residuals -- it is
the acceptance primitive of the whole package.

Every family subclasses ``Family`` and owns its ``measure``; the same
method computes c_n(f) for a target f and C_n(A) for an approximant A, so
the characteristic numbers (``Family.chars``) and their verification cannot
drift apart.  Derivative-type families measure through jets.  The integral
families (Moments, HigherIntegral, the zeroth functional of EndpointDiff and
Projection) measure through ``_integrals``, which takes closed-form
integrals of targets with a polynomial form and otherwise one composite
Gauss-Legendre rule; Projection uses the rule for every target.  The
weights w_n of such a family at the nodes of the rule are tabulated once
per family and order (``_node_weights``).
"""

from __future__ import annotations

import json
import math
import operator
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Sequence

from .errors import DomainError, FamilyMismatchError, SingularSystemError
from .jets import Jet
from .poly import Poly, all_exact, div, is_exact, rational, scaled, tri_map
from .quadrature import GaussLegendre
from . import specfun

__all__ = [
    "Family",
    "Derivative",
    "Moments",
    "HigherIntegral",
    "EndpointDiff",
    "ValueNodes",
    "Projection",
    "Nonlinear",
    "CharNumbers",
    "CoeffSeq",
    "Approximant",
    "PolynomialApproximant",
    "TriMatrix",
    "tri_forward_solve",
    "tri_map",
    "measure",
    "derivative_chars",
    "verify_matching",
    "VerifyReport",
    "delta_check",
    "NONLINEAR_TRANSFORMS",
]


# -- target access -------------------------------------------------------------


def lift_exact(values) -> list | None:
    """``values`` as exact numbers, each finite float as the Fraction it equals
    (a dyadic rational); None when one of them is an inf or a nan."""
    if not all(is_exact(v) or math.isfinite(v) for v in values):
        return None
    return [v if is_exact(v) else Fraction(v) for v in values]


def target_poly(target) -> Poly | None:
    """The polynomial form of ``target``; None if it has none or a non-finite coefficient."""
    as_poly = getattr(target, "as_poly", None)
    if as_poly is None:
        return None
    p = as_poly()
    return p if isinstance(p, Poly) and lift_exact(p.coeffs) is not None else None


# the rule of every integral family: 32 tabulated nodes on each of 8 panels
_QUAD = GaussLegendre()


@lru_cache(maxsize=256)
def _node_weights(family: Family, n: int) -> array:
    """The float w_n of an integral family at the nodes of the rule on its
    interval, in node order: one table per family and order, shared by every
    target and by verification.  Equal families give the same nodes, since
    ``points`` reads the interval ends as floats."""
    return array("d", family.weights(n, _QUAD.points(*family.interval)))


def _target_jet(target, x0, order: int) -> Jet:
    eval_jet = getattr(target, "eval_jet", None)
    if eval_jet is None:
        raise FamilyMismatchError(
            f"target {target!r} cannot be measured by a derivative-type family"
        )
    return eval_jet(x0, order)


# -- functional families -----------------------------------------------------


class Family:
    """A sequence of functionals C_n.  A concrete family gives ``describe()``
    and ``measure(target, orders)``, the values C_n(target) in that order."""

    def orders(self, count: int) -> range:
        """The orders of the first ``count`` functionals."""
        return range(count)

    def chars(self, target, count: int) -> "CharNumbers":
        """The characteristic numbers C_n(target) of the first ``count`` orders."""
        return CharNumbers(measure(target, self, self.orders(count)), self)


@dataclass(frozen=True)
class Derivative(Family):
    """C_n(f) = f^(n)(center)."""

    center: object = 0

    def describe(self) -> str:
        return f"derivative@{self.center}"

    def measure(self, target, orders: list) -> list:
        der = _target_jet(target, self.center, max(orders)).derivatives()
        return [der[n] for n in orders]


def _power_integrals(a, b, top: int) -> tuple[list, int]:
    """The exact integrals M_m of x^m over (a, b), m = 0..top, for finite a and
    b, as integer numerators over one shared denominator, and that denominator."""
    a, b = Fraction(a), Fraction(b)
    pa, pb, table = a, b, []
    for m in range(top + 1):
        table.append((pb - pa) / (m + 1))
        pa, pb = pa * a, pb * b
    return scaled(table)


def _integrals(target, family, orders: list, row=None) -> list:
    """The integrals of w_n(x) f(x) over the family's interval (a, b), n in
    ``orders``: the one place where an integral family picks its method.

    ``row(n)`` gives the integer coefficients of w_n (``row`` is None when
    w_n has none) and ``family.weights(n, xs)`` the float w_n at the points
    ``xs``.  The ends a, b are finite (``Moments`` refuses others).  A
    polynomial w_n and a target with a polynomial form p take the one closed
    form on p, a, b lifted to exact numbers: with
    q_i = sum_j p_j M_(i+j), a Hankel product of p with the power integrals
    M_m over (a, b), the integral of w_n p is sum_i w_ni q_i on integer
    numerators, rounded once where p, a or b holds a float.  Every other
    target is sampled once at the nodes of the one rule, and each order
    integrates those values with its table of w_n as the rule's weight.
    """
    a, b = family.interval
    p = target_poly(target) if row is not None else None
    if p is not None:
        rows = [row(n) for n in orders]
        top = max(map(len, rows)) - 1
        num_p, den_p = scaled(lift_exact(p.coeffs))
        num_m, den_m = _power_integrals(a, b, top + p.degree)
        q = [sum(map(operator.mul, num_p, num_m[i:])) for i in range(top + 1)]
        value = rational if all_exact((a, b, *p.coeffs)) else operator.truediv
        return [value(sum(map(operator.mul, w, q)), den_p * den_m) for w in rows]
    vs = [float(target(x)) for x in _QUAD.points(a, b)]
    return [_QUAD.integrate(vs, a, b, _node_weights(family, n)) for n in orders]


@dataclass(frozen=True)
class Moments(Family):
    """C_n(f) = integral of x^n f(x) over (a, b)."""

    a: object = -1
    b: object = 1

    def __post_init__(self):
        if lift_exact((self.a, self.b)) is None:
            raise DomainError(f"moments need finite interval ends, got ({self.a}, {self.b})")

    @property
    def interval(self) -> tuple:
        return self.a, self.b

    def describe(self) -> str:
        return f"moments({self.a},{self.b})"

    def weights(self, n: int, xs: list) -> list:
        return [x ** n for x in xs]

    def measure(self, target, orders: list) -> list:
        return _integrals(target, self, orders, lambda n: [0] * n + [1])


@dataclass(frozen=True)
class HigherIntegral(Family):
    """C_n(f) = n-fold repeated integral on (-1, 1), evaluated at 1.

    Defined for n >= 1 only; via the Cauchy formula
    C_n(f) = (1/(n-1)!) * integral of (1-t)^(n-1) f(t) over (-1, 1).
    """

    interval = (-1, 1)

    def orders(self, count: int) -> range:
        return range(1, count + 1)

    def describe(self) -> str:
        return "higher_integral(-1,1)"

    def weights(self, n: int, ts: list) -> list:
        return [(1 - t) ** (n - 1) for t in ts]

    def measure(self, target, orders: list) -> list:
        if min(orders) < 1:
            raise DomainError("higher-integral functionals start at order 1")
        vals = _integrals(target, self, orders,  # the coefficients of (1 - t)^(n-1)
                          lambda n: [(-1) ** i * math.comb(n - 1, i) for i in range(n)])
        return [div(val, math.factorial(n - 1)) for n, val in zip(orders, vals)]


@dataclass(frozen=True)
class EndpointDiff(Family):
    """C_n(f) = f^(n-1)(b) - f^(n-1)(a) for n >= 1.

    The zeroth functional is either the plain integral over (a, b)
    (``zeroth="integral"``, the form under which the Bernoulli basis is a
    delta basis) or a point evaluation at ``anchor`` (``zeroth="value"``,
    the value-matching normalization).
    """

    a: object = 0
    b: object = 1
    zeroth: str = "integral"
    anchor: object = None

    def __post_init__(self):
        if self.zeroth not in ("integral", "value"):
            raise DomainError(f"unknown zeroth mode {self.zeroth!r}")
        if self.zeroth == "value" and self.anchor is None:
            object.__setattr__(self, "anchor", self.a)

    def describe(self) -> str:
        return f"endpoint_diff({self.a},{self.b};zeroth={self.zeroth})"

    def measure(self, target, orders: list) -> list:
        top = max(orders)
        if top >= 1:
            ja = _target_jet(target, self.a, top - 1)
            jb = _target_jet(target, self.b, top - 1)
        out = []
        for n in orders:
            if n >= 1:
                out.append(math.factorial(n - 1) * (jb.coeffs[n - 1] - ja.coeffs[n - 1]))
            elif self.zeroth == "value":
                out.append(_target_jet(target, self.anchor, 0).coeffs[0])
            else:
                out.append(Moments(self.a, self.b).measure(target, [0])[0])
        return out


@dataclass(frozen=True)
class ValueNodes(Family):
    """C_n(f) = f(x_n) on a fixed node set."""

    nodes: tuple

    def describe(self) -> str:
        return f"values@{len(self.nodes)} nodes"

    def measure(self, target, orders: list) -> list:
        return [target(self.nodes[n]) for n in orders]


@dataclass(frozen=True)
class Projection(Family):
    """Orthogonal-projection functionals C_n(f) = <v_n, f> / <v_n, v_n>.

    ``basis="fourier"`` uses the trigonometric system on (-pi, pi);
    ``basis="legendre"`` the Legendre system on (-1, 1).
    """

    basis: str = "legendre"

    def __post_init__(self):
        if self.basis not in ("fourier", "legendre"):
            raise DomainError(f"unknown projection basis {self.basis!r}")

    @property
    def interval(self) -> tuple[float, float]:
        return (-math.pi, math.pi) if self.basis == "fourier" else (-1.0, 1.0)

    def describe(self) -> str:
        return f"projection({self.basis})"

    def term(self, n: int) -> tuple[float, Callable[[float], float]]:
        """The basis function v_n as (scale, shape), v_n(x) = scale * shape(x).

        Fourier: 1/sqrt(2), sin(x), cos(x), sin(2x), ...; Legendre: the
        displayed basis sqrt(2/(2n+1)) P_n with the float polynomial P_n.
        """
        if self.basis == "legendre":
            return math.sqrt(2.0 / (2 * n + 1)), specfun.legendre_coeffs(n).as_float()
        if n == 0:
            return 1.0 / math.sqrt(2.0), Poly([1.0])
        if n % 2:
            k = (n + 1) / 2
            return 1.0, lambda x: math.sin(k * x)
        k = n / 2
        return 1.0, lambda x: math.cos(k * x)

    def norm(self, n: int) -> float:
        """<v_n, v_n> over the interval."""
        return math.pi if self.basis == "fourier" else (2.0 / (2 * n + 1)) ** 2

    def weights(self, n: int, xs: list) -> list:
        scale, shape = self.term(n)
        return [scale * shape(x) for x in xs]

    def measure(self, target, orders: list) -> list:
        inners = _integrals(target, self, orders)
        return [inner / self.norm(n) for n, inner in zip(orders, inners)]


@dataclass(frozen=True)
class Nonlinear(Family):
    """C_n(f) = d^n/dx^n Lambda(f(x)) at ``center`` for a fixed transform."""

    transform: str = "ln"
    center: object = 0

    def describe(self) -> str:
        return f"nonlinear({self.transform})@{self.center}"

    def measure(self, target, orders: list) -> list:
        transform = NONLINEAR_TRANSFORMS.get(self.transform)
        if transform is None:
            raise DomainError(f"unknown nonlinear transform {self.transform!r}")
        # approximants of the form Omega(series) expose Lambda(A) in closed
        # form; that keeps the measurement defined even where Omega itself is
        # not smooth (e.g. cube roots of a series vanishing at the center)
        hook = getattr(target, "transformed_jet", None)
        if hook is not None:
            lifted = hook(self.transform, self.center, max(orders))
        else:
            lifted = transform.lam_jet(_target_jet(target, self.center, max(orders)))
        der = lifted.derivatives()
        return [der[n] for n in orders]


# -- nonlinear transform registry ---------------------------------------------


def _cbrt(y: float) -> float:
    return math.copysign(abs(y) ** (1.0 / 3.0), y)


@dataclass(frozen=True)
class NonlinearTransform:
    """A pair (Lambda, Omega = Lambda^{-1}) with float and jet realizations."""

    name: str
    lam: Callable[[float], float]
    lam_jet: Callable[[Jet], Jet]
    omega: Callable[[float], float]
    omega_jet: Callable[[Jet], Jet]


NONLINEAR_TRANSFORMS = {
    "identity": NonlinearTransform(
        "identity", lambda y: y, lambda j: j, lambda y: y, lambda j: j
    ),
    "ln": NonlinearTransform(
        "ln", math.log, Jet.ln, math.exp, Jet.exp
    ),
    "sqrt": NonlinearTransform(
        "sqrt", math.sqrt, Jet.sqrt, lambda y: y * y, lambda j: j * j
    ),
    "cube": NonlinearTransform(
        "cube", lambda y: y ** 3, lambda j: j ** 3, _cbrt, Jet.cbrt
    ),
}


# -- data carriers -------------------------------------------------------------


@dataclass(frozen=True)
class CharNumbers:
    """Characteristic numbers c_n of some function under a family."""

    values: tuple
    family: Family

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    @property
    def order(self) -> int:
        return max(self.family.orders(len(self.values)))

    def orders(self) -> range:
        return self.family.orders(len(self.values))


@dataclass(frozen=True)
class CoeffSeq:
    """Expansion coefficients plus the kind (and parameters) they belong to."""

    values: tuple
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    @cached_property
    def floats(self) -> tuple:
        """The values as floats, converted on first use."""
        return tuple(float(a) for a in self.values)


class Approximant:
    """An evaluable approximant A^f: coefficients in some basis about an
    expansion point ``center``, of the kind its coefficients name.  Concrete
    kinds override the hooks they support."""

    kind: str = "approximant"
    first_index = 0  # the basis index n of the first coefficient

    def __init__(self, coeffs: CoeffSeq | None, center=0):
        if coeffs is not None:
            self.kind = coeffs.kind
        self.coeffs = coeffs
        self.center = center

    def __call__(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def eval_jet(self, x0, order: int) -> Jet:
        raise FamilyMismatchError(f"{self.kind} approximant is not jet-evaluable")

    def as_poly(self) -> Poly | None:
        return None


class PolynomialApproximant(Approximant):
    """Polynomial in (x - center); exact whenever its data is exact."""

    kind = "polynomial"

    def __init__(self, poly: Poly, center=0, coeffs: CoeffSeq | None = None):
        super().__init__(coeffs, center)
        self.poly = poly

    def __call__(self, x):
        return self.poly(x - self.center)

    def eval_jet(self, x0, order: int) -> Jet:
        return self.poly(Jet.variable(x0, order) - self.center)

    def as_poly(self) -> Poly:
        if self.center == 0:
            return self.poly
        return self.poly.compose_affine(1, -self.center)


# -- triangular systems ---------------------------------------------------------


class TriMatrix:
    """Lower-triangular matrix stored as rows T[n][0..n]."""

    def __init__(self, rows: Sequence[Sequence]):
        rows = tuple(tuple(r) for r in rows)
        for n, row in enumerate(rows):
            if len(row) != n + 1:
                raise DomainError(f"row {n} must have {n + 1} entries, got {len(row)}")
        self.rows = rows

    @property
    def order(self) -> int:
        return len(self.rows) - 1

    def entry(self, n: int, m: int):
        if m > n:
            return 0
        return self.rows[n][m]

    def multiply(self, t: Sequence) -> list:
        if len(t) != len(self.rows):
            raise DomainError("vector length does not match matrix order")
        # dense rows keep their zeros: a 0 * t[m] term with a float t[m] makes
        # the sum a float, or nan where t[m] is infinite
        return tri_map((enumerate(row) for row in self.rows), t)

    def matmul(self, other: "TriMatrix") -> "TriMatrix":
        if self.order != other.order:
            raise DomainError("triangular matrix orders differ")
        rows = []
        for n in range(self.order + 1):
            rows.append([
                sum(self.rows[n][k] * other.entry(k, m) for k in range(m, n + 1))
                for m in range(n + 1)
            ])
        return TriMatrix(rows)

    def is_identity(self) -> bool:
        return all(
            self.rows[n][m] == (1 if n == m else 0)
            for n in range(self.order + 1)
            for m in range(n + 1)
        )


def tri_forward_solve(T: TriMatrix, c) -> CoeffSeq:
    """Solve the lower-triangular system T t = c by forward substitution."""
    values = c.values if isinstance(c, CharNumbers) else tuple(c)
    if len(values) != len(T.rows):
        raise DomainError("characteristic numbers do not match matrix order")
    t: list = []
    for n, row in enumerate(T.rows):
        diag = row[n]
        if diag == 0:
            raise SingularSystemError(
                f"dependent triangular system: zero diagonal at index {n}"
            )
        acc = values[n]
        for m in range(n):
            acc = acc - row[m] * t[m]
        t.append(div(acc, diag))
    return CoeffSeq(tuple(t), kind="tri_solve")


# -- measurement ---------------------------------------------------------------


def measure(target, family: Family, orders: Sequence[int]) -> list:
    """Apply the family's functionals C_n to ``target`` for the given orders."""
    orders = list(orders)
    if not orders:
        return []
    family_measure = getattr(family, "measure", None)
    if family_measure is None:
        raise FamilyMismatchError(f"unknown family {family!r}")
    return family_measure(target, orders)


# -- verification ----------------------------------------------------------------


@dataclass
class VerifyReport:
    """Residual report for one approximant against its characteristic numbers."""

    kind: str
    order: int
    family: str
    residuals: tuple
    max_residual: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "order": self.order,
            "family": self.family,
            "residuals": [float(r) for r in self.residuals],
            "max_residual": float(self.max_residual),
            "pass": self.passed,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), indent=indent)


TOL_REL, TOL_ABS = 1e-9, 1e-12  # the tolerance of verify_matching


def verify_matching(approximant, c: CharNumbers) -> VerifyReport:
    """Check that C_n(approximant) reproduces c_n for every order.

    A residual passes if |C_n(A) - c_n| <= max(TOL_REL * |c_n|, TOL_ABS), so
    a NaN residual fails; exact arithmetic yields exact-zero residuals.
    """
    orders = list(c.orders())
    measured = measure(approximant, c.family, orders)
    residuals = []
    passed = True
    for got, want in zip(measured, c.values):
        if (type(got) is float) != (type(want) is float):
            # an exact number meets a float as its float
            got, want = float(got), float(want)
        r = abs(got - want)
        residuals.append(r)
        try:
            allowed = max(TOL_REL * float(abs(want)), TOL_ABS)
        except OverflowError:  # an exact |c_n| beyond the float range
            allowed = math.inf
        if not float(r) <= allowed:
            passed = False
    # a NaN ranks above every number, so max_residual shows it
    max_res = max((float(r) for r in residuals), key=lambda r: (math.isnan(r), r),
                  default=0.0)
    kind = getattr(approximant, "kind", type(approximant).__name__)
    return VerifyReport(
        kind=kind,
        order=max(orders) if orders else 0,
        family=c.family.describe(),
        residuals=tuple(residuals),
        max_residual=max_res,
        passed=passed,
    )


def derivative_chars(target, x0=0, order: int = 8) -> CharNumbers:
    """Characteristic numbers c_n = f^(n)(x0) of any jet-evaluable target."""
    return Derivative(x0).chars(target, order + 1)


def delta_check(basis: Sequence, family: Family, count: int | None = None) -> list[list]:
    """Matrix M[n][m] = C_n(basis[m]).

    The basis is a delta basis iff M is the identity and a triangular basis
    iff M is lower triangular with nonzero diagonal.
    """
    basis = list(basis)
    count = count if count is not None else len(basis)
    orders = list(family.orders(count))
    columns = [measure(b, family, orders) for b in basis]
    return [[columns[m][i] for m in range(len(basis))] for i in range(len(orders))]
