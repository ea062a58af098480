"""Minimal self-contained SVG line plots (no external renderer).

Just enough for the pipeline figures: polyline series on labeled axes,
optional horizontal guide lines, a legend, on a fixed 640 x 420 canvas.
Pixel coordinates are written at fixed precision so repeated runs emit
byte-identical files, and every text (title, axis labels, legend names,
guide labels) is XML-escaped.

A series whose x is monotone non-decreasing is thinned to the points
that draw the same line at this size, by M4 aggregation (Jugel, Jerzak,
Hackenbroich & Markl, "M4: a visualization-oriented time series data
aggregation", PVLDB 7(10), 2014): in each pixel column, the integer part
of the point's pixel x, only the first, the last, a lowest and a highest
point are kept (the first of several equal extremes), in series order.
A polyline then holds at most 4 points per pixel column, whatever the
sample count.  A series whose x turns back, such as a path in the plane,
is drawn whole.  Non-finite points are dropped before either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
WIDTH, HEIGHT = 640, 420


@dataclass
class Series:
    name: str
    x: np.ndarray
    y: np.ndarray
    color: str | None = None
    dash: str | None = None  # e.g. "6,4"


def _ticks(lo, hi, target=6):
    """Round tick positions covering [lo, hi] at a 1/2/5 step."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _fmt_tick(v):
    return f"{v:.6g}"


def _escape(text):
    """`text` as XML character data: the replacements of
    xml.sax.saxutils.escape, whose import would pull in urllib.request."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _m4(px, ys):
    """Mask of the points M4 keeps of a series whose pixel x `px` is
    monotone non-decreasing: each pixel column's first and last point and
    the first point at its lowest and at its highest y."""
    n = len(px)
    keep = np.zeros(n, dtype=bool)
    if n == 0:
        return keep
    col = np.floor(px)
    starts = np.flatnonzero(np.concatenate(([True], col[1:] != col[:-1])))
    ends = np.append(starts[1:], n)
    keep[starts] = True
    keep[ends - 1] = True
    column = np.repeat(np.arange(len(starts)), ends - starts)
    for extreme in (np.minimum, np.maximum):
        hits = np.flatnonzero(ys == extreme.reduceat(ys, starts)[column])
        # the first hit of each column
        keep[hits[np.concatenate(([True], column[hits[1:]] != column[hits[:-1]]))]] = True
    return keep


def line_plot(path, series, title="", xlabel="", ylabel="", ylim=None, hlines=()):
    """Write an SVG line chart.

    series : list of Series
    hlines : list of (y, label, color) guide lines
    Data outside the axes box is clipped, so diverging traces stay inside
    the frame.
    """
    series = list(series)
    ml, mr, mt, mb = 62, 16, 34, 46
    pw, ph = WIDTH - ml - mr, HEIGHT - mt - mb

    def data_range(pick):
        vals = [np.asarray(pick(s), dtype=float) for s in series]
        vals = [v[np.isfinite(v)] for v in vals]
        allv = np.concatenate(vals) if vals else np.array([0.0, 1.0])
        for y0, _, _ in (hlines if pick is _pick_y else ()):
            allv = np.append(allv, y0)
        lo, hi = float(np.min(allv)), float(np.max(allv))
        if hi <= lo:
            lo, hi = lo - 0.5, hi + 0.5
        pad = 0.04 * (hi - lo)
        return lo - pad, hi + pad

    x0, x1 = data_range(_pick_x)
    y0, y1 = data_range(_pick_y) if ylim is None else (float(ylim[0]), float(ylim[1]))

    def sx(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def sy(y):
        return mt + (y1 - y) / (y1 - y0) * ph

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
               f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    out.append('<style>text{font-family:Helvetica,Arial,sans-serif;font-size:11px;'
               'fill:#222}.t{font-size:13px;font-weight:bold}</style>')
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    out.append(f'<clipPath id="box"><rect x="{ml}" y="{mt}" width="{pw}" '
               f'height="{ph}"/></clipPath>')

    for tx in _ticks(x0, x1):
        px = sx(tx)
        out.append(f'<line x1="{px:.2f}" y1="{mt}" x2="{px:.2f}" y2="{mt + ph}" '
                   'stroke="#ddd" stroke-width="1"/>')
        out.append(f'<text x="{px:.2f}" y="{mt + ph + 16}" '
                   f'text-anchor="middle">{_fmt_tick(tx)}</text>')
    for ty in _ticks(y0, y1):
        py = sy(ty)
        out.append(f'<line x1="{ml}" y1="{py:.2f}" x2="{ml + pw}" y2="{py:.2f}" '
                   'stroke="#ddd" stroke-width="1"/>')
        out.append(f'<text x="{ml - 6}" y="{py + 4:.2f}" '
                   f'text-anchor="end">{_fmt_tick(ty)}</text>')

    out.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
               'fill="none" stroke="#444" stroke-width="1"/>')

    for y, label, color in hlines:
        py = sy(y)
        out.append(f'<line x1="{ml}" y1="{py:.2f}" x2="{ml + pw}" y2="{py:.2f}" '
                   f'stroke="{color}" stroke-width="1.2" stroke-dasharray="4,3" '
                   'clip-path="url(#box)"/>')
        if label:
            out.append(f'<text x="{ml + pw - 4}" y="{py - 4:.2f}" '
                       f'text-anchor="end" fill="{color}">{_escape(label)}</text>')

    for idx, s in enumerate(series):
        color = s.color or PALETTE[idx % len(PALETTE)]
        xs = np.asarray(s.x, dtype=float)
        ys = np.asarray(s.y, dtype=float)
        ok = np.isfinite(xs) & np.isfinite(ys)
        xs, ys = xs[ok], ys[ok]
        px = sx(xs)
        if np.all(xs[1:] >= xs[:-1]):
            keep = _m4(px, ys)
            px, ys = px[keep], ys[keep]
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px.tolist(), sy(ys).tolist()))
        dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.6"{dash} clip-path="url(#box)"/>')

    if title:
        out.append(f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
                   f'class="t">{_escape(title)}</text>')
    if xlabel:
        out.append(f'<text x="{ml + pw / 2:.1f}" y="{HEIGHT - 10}" '
                   f'text-anchor="middle">{_escape(xlabel)}</text>')
    if ylabel:
        out.append(f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
                   f'transform="rotate(-90 16 {mt + ph / 2:.1f})">{_escape(ylabel)}</text>')

    lx, ly = ml + 10, mt + 14
    for idx, s in enumerate(series):
        color = s.color or PALETTE[idx % len(PALETTE)]
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}">{_escape(s.name)}</text>')
        ly += 16

    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def _pick_x(s):
    return s.x


def _pick_y(s):
    return s.y
