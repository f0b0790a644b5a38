"""Native SVG line plots: fixed 800x600 viewbox, axes, ticks, legend.

No plotting dependency; output is a pure function of the input data, so
figures are byte-reproducible.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["line_plot_svg"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

_W, _H = 800, 600
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Round finite ticks on lo..hi; lo..lo+1 if empty, 0..1 if not finite or few-ulp."""
    if not (hi > lo):
        hi = lo + 1.0
    raw = (hi - lo) / target
    if not (math.isfinite(raw) and raw > 8 * math.ulp(max(abs(lo), abs(hi)))):
        lo, hi, raw = 0.0, 1.0, 1.0 / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    ticks, t = [], math.ceil(lo / step) * step
    while t <= hi + 1e-9 * step and math.isfinite(t):
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _polyline(color: str, points: list[str]) -> str:
    return (f'<polyline fill="none" stroke="{color}" '
            f'stroke-width="1.5" points="{" ".join(points)}"/>')


def line_plot_svg(x: Sequence[float], series: Sequence[tuple[str, Sequence[float]]],
                  title: str = "", ylim: tuple[float, float] | None = None) -> str:
    """Render one SVG line plot; non-finite and out-of-range points break lines."""
    xlo, xhi = min(x), max(x)
    if ylim is None:
        finite = [v for _, ys in series for v in ys if math.isfinite(v)]
        if not finite:
            finite = [0.0, 1.0]
        ylo, yhi = min(finite), max(finite)
        pad = 0.05 * (yhi - ylo or 1.0)
        ylo, yhi = ylo - pad, yhi + pad
    else:
        ylo, yhi = ylim
    spanx = xhi - xlo or 1.0
    spany = yhi - ylo or 1.0

    def px(v: float) -> float:
        return _ML + (v - xlo) / spanx * (_W - _ML - _MR)

    def py(v: float) -> float:
        return _H - _MB - (v - ylo) / spany * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}" '
        f'width="{_W}" height="{_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        out.append(
            f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{title}</text>'
        )
    for t in _nice_ticks(xlo, xhi):
        X = px(t)
        out.append(f'<line x1="{X:.2f}" y1="{_H - _MB}" x2="{X:.2f}" '
                   f'y2="{_H - _MB + 5}" stroke="#333"/>')
        out.append(f'<text x="{X:.2f}" y="{_H - _MB + 20}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12">{_fmt(t)}</text>')
    for t in _nice_ticks(ylo, yhi):
        Y = py(t)
        out.append(f'<line x1="{_ML - 5}" y1="{Y:.2f}" x2="{_ML}" y2="{Y:.2f}" '
                   f'stroke="#333"/>')
        out.append(f'<text x="{_ML - 8}" y="{Y + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="12">{_fmt(t)}</text>')
    # a point within one span of the y range is drawn clamped to it; any
    # other point, and a non-finite one, ends the polyline it would extend
    xpix = ["%.2f," % px(v) for v in x]
    keep_lo, keep_hi = ylo - spany, yhi + spany
    for idx, (label, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        points: list[str] = []
        for X, yv in zip(xpix, ys):
            if math.isfinite(yv) and keep_lo <= yv <= keep_hi:
                # min(max(yv, ylo), yhi) without the calls: max keeps its
                # first argument unless the second is greater, min unless
                # the second is less
                yc = ylo if ylo > yv else yv
                points.append(X + "%.2f" % py(yhi if yhi < yc else yc))
                continue
            if len(points) >= 2:
                out.append(_polyline(color, points))
            points = []
        if len(points) >= 2:
            out.append(_polyline(color, points))
        ly = _MT + 18 + 16 * idx
        out.append(f'<line x1="{_W - _MR - 150}" y1="{ly - 4}" '
                   f'x2="{_W - _MR - 120}" y2="{ly - 4}" stroke="{color}" '
                   f'stroke-width="2"/>')
        out.append(f'<text x="{_W - _MR - 114}" y="{ly}" font-family="sans-serif" '
                   f'font-size="12">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
