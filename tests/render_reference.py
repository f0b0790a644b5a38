"""Per-cell references for the figure renderers: one formatted cell at a time.

``ref_render_csv`` formats each CSV cell with its own f-string, row by row,
and ``ref_line_plot_svg`` keeps the one-point-at-a-time polyline loop that
formats the x pixel of every point of every series and tests each point
against the range bounds in place.  The renderers of ``charmatch.figures``
and ``charmatch.svgplot`` must give the same bytes; the tests compare them.
Axes, ticks and legend come from ``svgplot``'s own helpers, so only the
per-point work is written out again here.
"""

import math

from charmatch.figures import FigureData
from charmatch.svgplot import _H, _MB, _ML, _MR, _MT, _PALETTE, _W, _fmt, _nice_ticks


def ref_render_csv(fig: FigureData) -> str:
    lines = [",".join(label for label, _ in fig.columns)]
    for i in range(len(fig.x)):
        lines.append(",".join(f"{col[i]:.17g}" for _, col in fig.columns))
    return "\n".join(lines) + "\n"


def ref_render_svg(fig: FigureData) -> str:
    series = [(label, values) for label, values in fig.columns[1:]
              if not label.startswith("err_")]
    return ref_line_plot_svg(fig.x, series, title=fig.title, ylim=fig.ylim)


def ref_line_plot_svg(x, series, title="", ylim=None) -> str:
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

    def px(v):
        return _ML + (v - xlo) / spanx * (_W - _ML - _MR)

    def py(v):
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
    for idx, (label, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        points = []
        chunks = []
        for xv, yv in zip(x, ys):
            inside = math.isfinite(yv) and (ylo - spany) <= yv <= (yhi + spany)
            if inside:
                yc = min(max(yv, ylo), yhi)
                points.append(f"{px(xv):.2f},{py(yc):.2f}")
            elif points:
                chunks.append(points)
                points = []
        if points:
            chunks.append(points)
        for chunk in chunks:
            if len(chunk) >= 2:
                out.append(f'<polyline fill="none" stroke="{color}" '
                           f'stroke-width="1.5" points="{" ".join(chunk)}"/>')
        ly = _MT + 18 + 16 * idx
        out.append(f'<line x1="{_W - _MR - 150}" y1="{ly - 4}" '
                   f'x2="{_W - _MR - 120}" y2="{ly - 4}" stroke="{color}" '
                   f'stroke-width="2"/>')
        out.append(f'<text x="{_W - _MR - 114}" y="{ly}" font-family="sans-serif" '
                   f'font-size="12">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
