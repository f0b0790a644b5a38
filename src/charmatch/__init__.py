"""charmatch: function approximation as characteristic-number matching.

Compute characteristic numbers of a target function (derivatives, moments,
higher integrals, endpoint derivative differences, node values, nonlinear
functionals), map them to coefficients for a catalogue of expansion
families, evaluate the resulting approximants, and verify the matching
property numerically or exactly.
"""

from .errors import (
    CharmatchError,
    DomainError,
    EvalDomainError,
    FamilyMismatchError,
    JetDomainError,
    SingularSystemError,
)
from .exprs import Expr, parse
from .jets import Jet, bessel_jn_jet, compose
from .matching import (
    Approximant,
    CharNumbers,
    CoeffSeq,
    Derivative,
    EndpointDiff,
    HigherIntegral,
    Moments,
    Nonlinear,
    PolynomialApproximant,
    Projection,
    TriMatrix,
    ValueNodes,
    VerifyReport,
    delta_check,
    derivative_chars,
    measure,
    tri_forward_solve,
    verify_matching,
)
from .poly import Poly
from .quadrature import GaussLegendre
from .registry import KIND_NAMES, build_kind

__version__ = "0.1.0"

__all__ = [
    "CharmatchError", "DomainError", "EvalDomainError", "FamilyMismatchError",
    "JetDomainError", "SingularSystemError",
    "Expr", "parse", "Jet", "compose", "bessel_jn_jet", "Poly",
    "Approximant", "CharNumbers", "CoeffSeq", "Derivative", "EndpointDiff",
    "HigherIntegral", "Moments", "Nonlinear", "PolynomialApproximant",
    "Projection", "TriMatrix", "ValueNodes", "VerifyReport",
    "delta_check", "derivative_chars", "measure", "tri_forward_solve",
    "verify_matching", "GaussLegendre", "KIND_NAMES", "build_kind",
    "__version__",
]
