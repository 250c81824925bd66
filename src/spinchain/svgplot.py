"""Minimal self-contained SVG writer for line plots and heatmaps.

No external references, scripts, or fonts beyond generic families; the
output is a static result display, not an interactive chart.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

# Piecewise-linear colormap stops (viridis-like): position 0..1 -> RGB.
_HEAT_POSITIONS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
_HEAT_RGB = np.array([(68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37)], dtype=float)

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 24, 36, 52

# Canvas sizes in pixels (width, height).
_LINE_SIZE = (720, 480)
_HEAT_SIZE = (720, 520)


def _tick_label(v: float) -> str:
    return f"{v:.6g}"


def _nice_ticks(lo: float, hi: float, whole: bool = False):
    """About six ticks from lo to hi, 1, 2, 2.5 or 5 times a power of ten apart (a whole number if `whole`)."""
    raw = (hi - lo) / 5
    if not raw > 0:
        return [lo]
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    if whole:
        step = math.ceil(step)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    # Count the ticks first: at large |lo| the step may not move t at all,
    # and a tick it did not move is not drawn again.
    for _ in range(math.floor((hi - first) / step + 1e-9) + 1):
        tick = 0.0 if abs(t) < 1e-12 * step else t
        if not ticks or tick > ticks[-1]:
            ticks.append(tick)
        t += step
    return ticks


class _Axis:
    """Data range lo..hi drawn from pixel px_lo to px_hi, linear in f(v):
    f = log on a log axis, else the identity."""

    def __init__(self, lo: float, hi: float, px_lo: float, px_hi: float, log: bool):
        if log and lo <= 0:
            raise ParameterError("log axis requires positive data")
        self.f = math.log if log else (lambda v: v)
        f_lo, f_hi = self.f(lo), self.f(hi)
        if f_hi <= f_lo:  # one value: widen by 1, or by one float spacing where 1 is below it
            f_hi = max(f_lo + 1.0, math.nextafter(f_lo, math.inf))
        self.lo, self.hi, self.f_lo, self.f_hi = lo, hi, f_lo, f_hi
        self.px_lo, self.px_hi, self.log = px_lo, px_hi, log

    def to_px(self, v: float) -> float:
        frac = (self.f(v) - self.f_lo) / (self.f_hi - self.f_lo)
        return self.px_lo + frac * (self.px_hi - self.px_lo)

    def ticks(self):
        """Round values; on a log axis, whole decades of the data by the same
        rule on log10, else its two ends."""
        if not self.log:
            return _nice_ticks(self.f_lo, self.f_hi)
        decades = _nice_ticks(math.log10(self.lo), math.log10(self.hi), whole=True)
        return [10.0 ** t for t in decades] or [self.lo, self.hi]


def _header(width: int, height: int, title: str) -> list:
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>\n',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(title)}</text>\n'
        )
    return parts


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _axes_frame(parts, xaxis: _Axis, yaxis: _Axis, xlabel: str, ylabel: str, width: int, height: int):
    x0, x1 = xaxis.px_lo, xaxis.px_hi
    y0, y1 = yaxis.px_lo, yaxis.px_hi  # px_lo is the bottom (larger y)
    parts.append(
        f'<rect x="{x0:.1f}" y="{y1:.1f}" width="{x1 - x0:.1f}" height="{y0 - y1:.1f}" '
        'fill="none" stroke="black" stroke-width="1"/>\n'
    )
    for t in xaxis.ticks():
        px = xaxis.to_px(t)
        parts.append(f'<line x1="{px:.1f}" y1="{y0:.1f}" x2="{px:.1f}" y2="{y0 + 5:.1f}" stroke="black"/>\n')
        parts.append(
            f'<text x="{px:.1f}" y="{y0 + 18:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_tick_label(t)}</text>\n'
        )
    for t in yaxis.ticks():
        py = yaxis.to_px(t)
        parts.append(f'<line x1="{x0 - 5:.1f}" y1="{py:.1f}" x2="{x0:.1f}" y2="{py:.1f}" stroke="black"/>\n')
        parts.append(
            f'<text x="{x0 - 8:.1f}" y="{py + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_tick_label(t)}</text>\n'
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{height - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_escape(xlabel)}</text>\n'
    )
    parts.append(
        f'<text x="16" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 16 {(y0 + y1) / 2:.1f})">{_escape(ylabel)}</text>\n'
    )


def render_line_plot(series, xlabel: str = "", ylabel: str = "", title: str = "", logx: bool = False) -> str:
    """Render polyline series [{label, x, y}, ...] with axes and a legend."""
    width, height = _LINE_SIZE
    if not series or any(len(s["x"]) != len(s["y"]) or len(s["x"]) == 0 for s in series):
        raise ParameterError("line plot needs series, each with the same nonzero number of x and y values")
    xs = [v for s in series for v in s["x"]]
    ys = [v for s in series for v in s["y"]]
    _check_finite(xs + ys)
    xaxis = _Axis(min(xs), max(xs), _MARGIN_L, width - _MARGIN_R, logx)
    ylo, yhi = min(ys + [0.0]), max(ys)
    pad = 0.05 * (yhi - ylo) if yhi > ylo else 0.5
    yaxis = _Axis(ylo, yhi + pad, height - _MARGIN_B, _MARGIN_T, False)
    parts = _header(width, height, title)
    _axes_frame(parts, xaxis, yaxis, xlabel, ylabel, width, height)
    for k, s in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(
            f"{xaxis.to_px(x):.2f},{yaxis.to_px(y):.2f}" for x, y in zip(s["x"], s["y"])
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>\n')
        ly = _MARGIN_T + 14 + 16 * k
        lx = width - _MARGIN_R - 130
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>\n')
        parts.append(
            f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" font-size="11">{_escape(s["label"])}</text>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)


def _check_finite(values):
    if not np.all(np.isfinite(np.asarray(values, dtype=float))):
        raise ParameterError("plot values must be finite")


def _heat_colors(frac: np.ndarray) -> np.ndarray:
    """24-bit RGB of each fraction, clipped to 0..1: a + t (b - a) between the
    stops around it, taking the lower segment at a stop, rounded half to even."""
    frac = np.clip(frac, 0.0, 1.0)
    seg = np.searchsorted(_HEAT_POSITIONS[1:], frac)
    p0, p1 = _HEAT_POSITIONS[seg], _HEAT_POSITIONS[seg + 1]
    c0, c1 = _HEAT_RGB[seg], _HEAT_RGB[seg + 1]
    t = ((frac - p0) / (p1 - p0))[..., None]
    rgb = np.rint(c0 + t * (c1 - c0)).astype(np.int64)
    return (rgb[..., 0] << 16) | (rgb[..., 1] << 8) | rgb[..., 2]


def _cell_edges(values, axis: _Axis):
    """Pixel boundaries between samples: the midpoints of their pixels."""
    px = [axis.to_px(v) for v in values]
    mids = [(a + b) / 2.0 for a, b in zip(px, px[1:])]
    return [axis.px_lo, *mids, axis.px_hi]


def render_heatmap(x, y, z, xlabel: str = "", ylabel: str = "", title: str = "", logy: bool = False) -> str:
    """Render z[row][col] (row per y sample, col per x sample) as colored cells."""
    width, height = _HEAT_SIZE
    if not x or not y or len(z) != len(y) or any(len(r) != len(x) for r in z):
        raise ParameterError("heatmap needs z shaped (len(y), len(x))")
    for values in (x, y, z):
        _check_finite(values)
    xaxis = _Axis(min(x), max(x), _MARGIN_L, width - _MARGIN_R, False)
    yaxis = _Axis(min(y), max(y), height - _MARGIN_B, _MARGIN_T, logy)
    # Python's min and max keep the first of equal values (0.0 or -0.0) in
    # row order, which decides the sign the range label shows.
    zlo, zhi = min(map(min, z)), max(map(max, z))
    span = (zhi - zlo) or 1.0
    colors = _heat_colors((np.asarray(z, dtype=float) - zlo) / span).tolist()
    parts = _header(width, height, title)
    xe = _cell_edges(list(x), xaxis)
    ye = _cell_edges(list(y), yaxis)
    cols = [(f"{a:.2f}", f"{b - a:.2f}") for a, b in zip(xe, xe[1:])]
    for (a, b), row in zip(zip(ye, ye[1:]), colors):
        y_top, h = f"{min(a, b):.2f}", f"{abs(a - b):.2f}"
        # One template per row: all but the cells' fills, left as %06x.
        cells = "".join([f'<rect x="{cx}" y="{y_top}" width="{w}" height="{h}" fill="#%06x"/>\n' for cx, w in cols])
        parts.append(cells % tuple(row))
    _axes_frame(parts, xaxis, yaxis, xlabel, ylabel, width, height)
    # Color scale legend: min and max of z.
    parts.append(
        f'<text x="{width - _MARGIN_R:.1f}" y="{_MARGIN_T - 8}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">range [{_tick_label(zlo)}, {_tick_label(zhi)}]</text>\n'
    )
    parts.append("</svg>\n")
    return "".join(parts)


def render_plot_payload(plot: dict) -> str:
    """Render a plot payload: its `kind` ("heatmap" or "lines") plus the
    keyword arguments of that kind's renderer."""
    renderers = {"heatmap": render_heatmap, "lines": render_line_plot}
    kwargs = dict(plot)
    kind = kwargs.pop("kind", None)
    if kind not in renderers:
        raise ParameterError(f"unknown plot kind {kind!r}")
    return renderers[kind](**kwargs)
