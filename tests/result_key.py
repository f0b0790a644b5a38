"""One comparison key for results, exact or float.

``key(value)`` compares exact numbers by value and exactness and floats by
their bits.  Each int or Fraction becomes ``Fraction(value)``: the exact
kernels give an int where a value is an integer and a Fraction otherwise
(``poly.rational``), and ``3`` and ``Fraction(3)`` get one key.  Each float
becomes its ``repr``, so 0.0 and -0.0 differ, as do two floats an ulp
apart, and no float shares a key with an exact number.  The key recurses
through tuples, lists, dicts (``CoeffSeq.params``), ``Jet``, ``Poly`` and
dataclasses (``CoeffSeq``, ``CharNumbers`` and the families); bools,
strings, None and anything else stay as they are.

The tests compare results through it, the characterization digests hash
``repr(key(...))``, and ``tools/output_digest.py`` digests its exact
sections the same way.  It reads ``Jet`` and ``Poly`` from the charmatch
that is imported first, so import charmatch from the tree under test
before this module.
"""

import dataclasses
from fractions import Fraction

from charmatch.jets import Jet
from charmatch.poly import Poly


def key(value):
    """The comparison key of ``value``: see the module docstring."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return tuple(map(key, value))
    if isinstance(value, list):
        return list(map(key, value))
    if isinstance(value, dict):
        return {k: key(v) for k, v in value.items()}
    if isinstance(value, Jet):
        return "Jet", key(value.center), key(value.coeffs)
    if isinstance(value, Poly):
        return "Poly", key(value.coeffs)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return type(value).__name__, tuple(
            (f.name, key(getattr(value, f.name))) for f in dataclasses.fields(value))
    return value


def outcome(fn):
    """The key of ``fn()``, or the name of the exception it raises."""
    try:
        return key(fn())
    except Exception as exc:  # both sides must fail alike
        return f"raised {type(exc).__name__}"


def same(new, old):
    """Assert that the calls ``new`` and ``old`` agree by key."""
    assert outcome(new) == outcome(old)
