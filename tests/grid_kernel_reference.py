"""Plain one-step references for two per-point grid kernels.

``specfun._bessel_sweep`` runs Miller's backward recurrence two steps per
pass and ``interp.WsApproximant.__call__`` sums the sampling series through
a flat term table away from the nodes.  Both must give the same float bits
as the plain loops below, which take one recurrence step, and one series
term, at a time.
"""

from charmatch.errors import DomainError
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


def ws_call(approx, x) -> float:
    """The sampling series of a ``WsApproximant`` at x, one term at a time."""
    x = float(x)
    lam = None
    acc = 0.0
    for t in approx.terms:
        d = x - t.node
        if abs(d) < t.radius:
            acc += t.coefficient * (1.0 + t.half_curvature * d)
        elif t.numerator is not None:
            acc += t.coefficient * float(t.numerator(x)) / (t.slope * d)
        else:
            if lam is None:
                lam = approx.system.lambda_value(x)
            acc += t.coefficient * lam / (t.slope * d)
    return acc
