"""Registry: a plain table from expansion-kind names to builders.

Shared by the CLI and the acceptance suite: given a parsed expression, an
order and kind parameters, a builder returns the characteristic numbers,
the coefficient sequence and an evaluable approximant.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from . import expansions as xp
from .errors import DomainError
from .matching import Approximant, CharNumbers, CoeffSeq, derivative_chars

__all__ = ["KINDS", "KIND_NAMES", "normalize_kind", "build_kind", "BuildResult"]


class BuildResult(NamedTuple):
    chars: CharNumbers
    coeffs: CoeffSeq
    approximant: Approximant


def _derivative_builder(make) -> Callable:
    def build(f, order: int, params: dict) -> BuildResult:
        c = derivative_chars(f, params.get("x0", 0), order)
        approx = make(c, params)
        return BuildResult(c, approx.coeffs, approx)

    return build


def _build_nonlinear(f, order: int, params: dict) -> BuildResult:
    transform = params.get("lam", "ln")
    c = xp.nonlinear_chars(f, transform, params.get("x0", 0), order)
    approx = xp.nonlinear_approx(c)
    return BuildResult(c, approx.coeffs, approx)


KINDS: dict[str, Callable[[object, int, dict], BuildResult]] = {
    "taylor": _derivative_builder(lambda c, p: xp.taylor_approx(c)),
    "nsbf": _derivative_builder(lambda c, p: xp.nsbf_approx(c)),
    "pade": _derivative_builder(
        lambda c, p: xp.pade_approx(c, (c.order + 1) // 2, c.order // 2)),
    "pow_sine": _derivative_builder(lambda c, p: xp.pow_sine_approx(c)),
    "exp_weighted": _derivative_builder(
        lambda c, p: xp.exp_weighted_approx(c, p.get("w", Fraction(-1, 2)), p.get("q", 2))),
    "log_powers": _derivative_builder(lambda c, p: xp.powers_of_g_approx(c, "log_powers")),
    "stirling1_g": _derivative_builder(lambda c, p: xp.powers_of_g_approx(c, "stirling1_g")),
    "lambert_w_g": _derivative_builder(lambda c, p: xp.powers_of_g_approx(c, "lambert_w_g")),
    "rational_x_over_x1": _derivative_builder(
        lambda c, p: xp.rational_x1_approx(c, p.get("alpha", -1))),
    "dirichlet_g": _derivative_builder(lambda c, p: xp.dirichlet_approx(c, "dirichlet_g")),
    "dirichlet_rat1": _derivative_builder(
        lambda c, p: xp.dirichlet_approx(c, "dirichlet_rat1")),
    "dirichlet_rat2": _derivative_builder(
        lambda c, p: xp.dirichlet_approx(c, "dirichlet_rat2")),
    "dex": _derivative_builder(lambda c, p: xp.dex_approx(c)),
    "nonlinear": _build_nonlinear,
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


def build_kind(name: str, f, order: int, **params) -> BuildResult:
    """Build chars, coefficients and approximant for a named expansion kind."""
    if order < 0:
        raise DomainError("order must be nonnegative")
    return KINDS[normalize_kind(name)](f, order, params)
