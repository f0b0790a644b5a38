"""The main promise where it is made: exact characteristic numbers give
exactly zero residuals, at rational centers as well as at 0.

Every kind is built and verified for every target, rational center and
order of a fixed grid.  A case may end in three ways only: exact numbers
with all-zero residuals, a refusal (``CharmatchError``), or float numbers
with a well-formed report.  Float verdicts are not asserted here.
"""

import collections
import json
import math
from fractions import Fraction

from charmatch import exprs
from charmatch.errors import CharmatchError
from charmatch.matching import verify_matching
from charmatch.poly import is_exact
from charmatch.registry import KIND_NAMES, build_kind

# the six acceptance functions, then polynomials and rational functions
# with rational coefficients
TARGETS = (
    "exp(x)", "sin(x)", "cos(x)", "arctan(x)", "ln(x^2 + 1)", "sqrt(4 - x^2)",
    "x^3 - x/2 + 1/3",
    "2/3*x^5 - 3*x^2 + 7/4*x - 1",
    "(1 - x)^4 + x/9",
    "1/(1 + x^2)",
    "(x + 1/2)/(x^2 + 3)",
    "1/(2 - x)",
    "(x^2 - 1/5)/(3*x + 4)^2",
)
CENTERS = (0, Fraction(1, 3), Fraction(-1, 2), 2, Fraction(5, 4))
ORDERS = (11, 20)


def _outcome(kind, f, x0, order) -> str:
    try:
        res = build_kind(kind, f, order, x0=x0)
        report = verify_matching(res.approximant, res.chars)
    except CharmatchError:
        return "refused"
    assert len(report.residuals) == len(res.chars.values)
    if all(map(is_exact, res.chars.values)):
        assert all(r == 0 for r in report.residuals), report.residuals
        assert report.passed
        return "exact"
    assert isinstance(report.passed, bool)
    assert math.isnan(report.max_residual) or report.max_residual >= 0
    json.loads(report.to_json())
    return "float"


def test_exact_numbers_give_zero_residuals_at_rational_centers():
    tally = collections.Counter()
    for text in TARGETS:
        f = exprs.parse(text)
        for kind in KIND_NAMES:
            for x0 in CENTERS:
                for order in ORDERS:
                    try:
                        tally[_outcome(kind, f, x0, order)] += 1
                    except AssertionError as exc:
                        raise AssertionError((kind, text, x0, order)) from exc
    assert sum(tally.values()) == len(TARGETS) * len(KIND_NAMES) * len(CENTERS) * len(ORDERS)
    # the sweep reaches each outcome, the exact one at centers other than 0 too
    assert tally["exact"] > len(TARGETS) * len(KIND_NAMES) * len(ORDERS)
    assert tally["refused"] and tally["float"]
