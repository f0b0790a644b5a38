"""Characterization test: digests of exact outputs that refactors must keep.

For every expansion kind on the six acceptance targets at x0 = 0 and orders
11, 20 and 40, and for the moment, higher-integral and Bernoulli families on
three fixed exact polynomials, the sha256 of
``repr(key((chars.values, coeffs.values, residuals)))`` must equal the
digest stored in ``data/characterization.json``.  ``result_key.key`` keeps
exact values and exactness and float bits, not whether an exact value is
held as an int or a Fraction.  Only cases whose characteristic numbers are
exact rationals are kept, so the digests do not depend on the platform's
libm.

Regenerate the fixture (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_characterization.py
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from charmatch import exprs
from charmatch import integral_match as im
from charmatch.errors import CharmatchError
from charmatch.matching import verify_matching
from charmatch.poly import Poly, is_exact
from charmatch.registry import KIND_NAMES, build_kind
from result_key import key

FIXTURE = Path(__file__).parent / "data" / "characterization.json"

TARGETS = ("exp(x)", "sin(x)", "cos(x)", "arctan(x)", "ln(x^2 + 1)", "sqrt(4 - x^2)")
ORDERS = (11, 20, 40)
F = Fraction
POLYS = (
    (F(1), F(-2, 3), F(0), F(5, 7)),
    (F(-3, 4), F(1), F(2, 9), F(0), F(-1, 5), F(7, 2)),
    (F(0), F(0), F(1, 2), F(-4), F(3, 8), F(0), F(0), F(1, 6)),
)
POLY_ORDER = 11


def _digest(chars, approx) -> str:
    residuals = verify_matching(approx, chars).residuals
    text = repr(key((chars.values, approx.coeffs.values, residuals)))
    return hashlib.sha256(text.encode()).hexdigest()


def _kind_cases():
    for kind in KIND_NAMES:
        for target in TARGETS:
            for order in ORDERS:
                yield f"{kind}|{target}|{order}", kind, target, order


def _family_result(family: str, p: Poly):
    if family == "moments":
        m = im.moments_compute(p, (-1, 1), POLY_ORDER)
        return m.as_char_numbers(), im.legendre_moment_match(m)
    if family == "higher_integral":
        chars = im.higher_integral_chars(p, POLY_ORDER)
        return chars, im.higher_integral_approx(chars)
    chars = im.bernoulli_chars(p, (0, 1), POLY_ORDER)
    return chars, im.bernoulli_approx(chars)


def compute_digests() -> dict:
    """Digest per case id."""
    out = {}
    for key, kind, target, order in _kind_cases():
        try:
            res = build_kind(kind, exprs.parse(target), order)
        except CharmatchError:
            continue  # outside the kind's domain (odd Pade blocks, ln of 0)
        if all(is_exact(v) for v in res.chars.values):
            out[key] = _digest(res.chars, res.approximant)
    for family in ("moments", "higher_integral", "bernoulli"):
        for i, coeffs in enumerate(POLYS):
            out[f"{family}|poly{i}|{POLY_ORDER}"] = _digest(*_family_result(family, Poly(coeffs)))
    return out


def test_exact_outputs_unchanged():
    want = json.loads(FIXTURE.read_text())
    assert len(want) >= 100
    got = compute_digests()
    changed = sorted(k for k in want if got.get(k) != want[k])
    assert not changed, f"{len(changed)} exact outputs changed, first: {changed[:5]}"


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n")
