"""Plain one-step references for the per-point grid kernels.

``specfun._bessel_sweep`` runs Miller's backward recurrence two steps per
pass, ``expansions._dex_ladder`` runs its x^j / j! ladder as a fixed-length
loop and then a short tail, ``interp.WsApproximant.__call__`` sums the
sampling series through a flat term table away from the nodes, and the
NSBF, dex and rational Dirichlet approximants sum over nonzero terms
prepared once.  All must give the same float bits as the plain loops below,
which take one recurrence step, and one series term, at a time.
"""

from charmatch import expansions, specfun
from charmatch.errors import DomainError
from charmatch.expansions import _TOL
from charmatch.specfun import BESSEL_X_MAX, _BESSEL_RESCALE, _BESSEL_TINY


def bessel_sweep(top: int, x: float) -> tuple:
    """(J_0(x), ..., J_top(x)) one recurrence step per pass."""
    if not abs(x) <= BESSEL_X_MAX:
        raise DomainError(f"bessel_j needs a finite |x| <= {BESSEL_X_MAX:g}, got {x}")
    ax = abs(x)
    out = [0.0] * (top + 1)
    if ax < _BESSEL_TINY:
        term = 1.0
        for i in range(top + 1):
            out[i] = term
            term *= ax / 2 / (i + 1)
        norm = 1.0
    else:
        big = max(top, int(ax))
        start = big + 20 + int(8.0 * big ** (1.0 / 3.0))
        start += start % 2
        nxt, cur = 0.0, 1.0
        norm = 0.0
        for k in range(start, 0, -1):
            nxt, cur = cur, (2 * k / ax) * cur - nxt
            if abs(cur) > _BESSEL_RESCALE:
                nxt /= _BESSEL_RESCALE
                cur /= _BESSEL_RESCALE
                norm /= _BESSEL_RESCALE
                for i in range(k, top + 1):
                    out[i] /= _BESSEL_RESCALE
            if k - 1 <= top:
                out[k - 1] = cur
            if k % 2 == 1 and k > 1:
                norm += 2.0 * cur
        norm += cur
    return tuple((-v if x < 0 and i % 2 else v) / norm for i, v in enumerate(out))


def dex_ladder(x: float, length: int) -> tuple:
    """x^j / j! for j = 0, 1, ..., one term per pass with every stopping test:
    at least ``length`` terms, and on until j >= 2|x| and the last term is at
    most ``_TOL``."""
    terms = [1.0]
    j = 0
    while j + 1 < length or j < 2 * abs(x) or abs(terms[-1]) > _TOL:
        j += 1
        terms.append(terms[-1] * (x / j))
    return tuple(terms)


def ws_call(approx, x) -> float:
    """The sampling series of a ``WsApproximant`` at x, one term at a time."""
    x = float(x)
    lam = None
    acc = 0.0
    for t in approx.terms:
        d = x - t.node
        if abs(d) < t.radius:
            acc += t.coefficient * (1.0 + t.half_curvature * d)
        else:
            if lam is None:
                lam = approx.system.lambda_value(x)
            acc += t.coefficient * lam / (t.slope * d)
    return acc


def expansion_sum(approx, x) -> float:
    """sum a_n phi_n(t) of an NSBF, dex, ``dirichlet_rat1`` or
    ``dirichlet_rat2`` approximant at t = x - center, one term at a time over
    a_n = ``coeffs.floats`` with the zero terms skipped."""
    t = x - approx.center
    if approx.kind == "nsbf":
        acc, first = 0, 0
        phi = lambda n: specfun.bessel_j(n, float(t))  # noqa: E731
    elif approx.kind == "dex":
        acc, first = 0, 0
        phi = lambda n: expansions.dex_eval(approx.ring, n, t)  # noqa: E731
    else:
        t, acc, first = float(t), float(approx.b0), 1
        g = {"dirichlet_rat1": lambda y: 1.0 / (1.0 - y),
             "dirichlet_rat2": lambda y: y / (y * y + 1.0)}[approx.kind]
        phi = lambda n: g(t ** n)  # noqa: E731
    for n, an in enumerate(approx.coeffs.floats, first):
        if an != 0:
            acc += an * phi(n)
    return acc
