"""Registry: a plain table from expansion-kind names to builders.

Shared by the CLI and the acceptance suite: given a parsed expression, an
order and kind parameters, a builder returns the characteristic numbers,
the coefficient sequence and an evaluable approximant.  The table is also
the one place that says which parameters a kind reads; it refuses others.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from . import expansions as xp
from .errors import DomainError
from .matching import Approximant, CharNumbers, CoeffSeq, derivative_chars

__all__ = ["KINDS", "KIND_NAMES", "kind_params", "normalize_kind", "build_kind", "BuildResult"]


class BuildResult(NamedTuple):
    chars: CharNumbers
    coeffs: CoeffSeq
    approximant: Approximant


def _derivative(make) -> Callable:
    def build(f, order: int, x0, params: dict) -> tuple:
        c = derivative_chars(f, x0, order)
        return c, make(c, **params)

    return build


def _nonlinear(f, order: int, x0, params: dict) -> tuple:
    c = xp.nonlinear_chars(f, params["lam"], x0, order)
    return c, xp.nonlinear_approx(c)


# each kind's builder, (f, order, x0, params) -> (chars, approximant), and the
# parameters it reads besides x0, with their defaults
KINDS: dict[str, tuple[Callable, dict]] = {
    "taylor": (_derivative(xp.taylor_approx), {}),
    "nsbf": (_derivative(xp.nsbf_approx), {}),
    "pade": (_derivative(lambda c: xp.pade_approx(c, (c.order + 1) // 2, c.order // 2)), {}),
    "pow_sine": (_derivative(lambda c: xp.powers_of_g_approx(c, "pow_sine")), {}),
    "exp_weighted": (_derivative(xp.exp_weighted_approx), {"w": Fraction(-1, 2), "q": 2}),
    "log_powers": (_derivative(lambda c: xp.powers_of_g_approx(c, "log_powers")), {}),
    "stirling1_g": (_derivative(lambda c: xp.powers_of_g_approx(c, "stirling1_g")), {}),
    "lambert_w_g": (_derivative(lambda c: xp.powers_of_g_approx(c, "lambert_w_g")), {}),
    "rational_x_over_x1": (_derivative(xp.rational_x1_approx), {"alpha": -1}),
    "dirichlet_g": (_derivative(lambda c: xp.dirichlet_approx(c, "dirichlet_g")), {}),
    "dirichlet_rat1": (_derivative(lambda c: xp.dirichlet_approx(c, "dirichlet_rat1")), {}),
    "dirichlet_rat2": (_derivative(lambda c: xp.dirichlet_approx(c, "dirichlet_rat2")), {}),
    "dex": (_derivative(xp.dex_approx), {}),
    "nonlinear": (_nonlinear, {"lam": "ln"}),
}

KIND_NAMES = tuple(KINDS)

_ALIASES = {
    "newpade": "rational_x_over_x1",
    "rational_x1": "rational_x_over_x1",
    "powsine": "pow_sine",
    "dirichlet_G": "dirichlet_g",
}


def normalize_kind(name: str) -> str:
    key = name.strip().replace("-", "_")
    key = _ALIASES.get(key, _ALIASES.get(key.lower(), key.lower()))
    if key not in KINDS:
        raise DomainError(f"unknown expansion kind {name!r}")
    return key


def kind_params(name: str) -> dict:
    """The parameters the kind ``name`` reads besides ``x0``, with their defaults."""
    return KINDS[normalize_kind(name)][1]


def build_kind(name: str, f, order: int, **params) -> BuildResult:
    """Build chars, coefficients and approximant for a named expansion kind, which
    reads ``x0`` (default 0) and ``kind_params(name)``; other keywords raise."""
    if order < 0:
        raise DomainError("order must be nonnegative")
    key = normalize_kind(name)
    build, defaults = KINDS[key]
    for param in sorted(params.keys() - {"x0", *defaults}):
        raise DomainError(f"kind {key} does not read {param!r}; it reads "
                          f"{', '.join(('x0', *defaults))}")
    c, approx = build(f, order, params.pop("x0", 0), defaults | params)
    return BuildResult(c, approx.coeffs, approx)
