"""Minimal self-contained SVG writer for line plots and heatmaps.

No external references, scripts, or fonts beyond generic families; the
output is a static result display, not an interactive chart.
"""

from __future__ import annotations

import math

from .errors import ParameterError

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

# Piecewise-linear colormap stops (viridis-like), position 0..1 -> RGB.
_HEAT_STOPS = (
    (0.0, (68, 1, 84)),
    (0.25, (59, 82, 139)),
    (0.5, (33, 145, 140)),
    (0.75, (94, 201, 98)),
    (1.0, (253, 231, 37)),
)

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 24, 36, 52


def _tick_label(v: float) -> str:
    return f"{v:.6g}"


def _nice_ticks(lo: float, hi: float, count: int = 6):
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / max(1, count - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _log_ticks(lo: float, hi: float):
    ticks = []
    for dec in range(math.floor(math.log10(lo)), math.ceil(math.log10(hi)) + 1):
        t = 10.0 ** dec
        if lo <= t <= hi:
            ticks.append(t)
    return ticks or [lo, hi]


class _Axis:
    def __init__(self, lo: float, hi: float, px_lo: float, px_hi: float, log: bool):
        if log and lo <= 0:
            raise ParameterError("log axis requires positive data")
        if hi <= lo:
            hi = lo + 1.0
        self.lo, self.hi, self.px_lo, self.px_hi, self.log = lo, hi, px_lo, px_hi, log

    def to_px(self, v: float) -> float:
        if self.log:
            frac = (math.log(v) - math.log(self.lo)) / (math.log(self.hi) - math.log(self.lo))
        else:
            frac = (v - self.lo) / (self.hi - self.lo)
        return self.px_lo + frac * (self.px_hi - self.px_lo)

    def ticks(self):
        return _log_ticks(self.lo, self.hi) if self.log else _nice_ticks(self.lo, self.hi)


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


def render_line_plot(
    series,
    xlabel: str = "",
    ylabel: str = "",
    title: str = "",
    width: int = 720,
    height: int = 480,
    logx: bool = False,
) -> str:
    """Render polyline series [{label, x, y}, ...] with axes and a legend."""
    if not series:
        raise ParameterError("line plot needs at least one series")
    xs = [v for s in series for v in s["x"]]
    ys = [v for s in series for v in s["y"]]
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


def _heat_color(frac: float) -> str:
    frac = min(max(frac, 0.0), 1.0)
    for (p0, c0), (p1, c1) in zip(_HEAT_STOPS, _HEAT_STOPS[1:]):
        if frac <= p1:
            t = (frac - p0) / (p1 - p0)
            rgb = tuple(round(a + t * (b - a)) for a, b in zip(c0, c1))
            return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"
    return "#fde725"


def _cell_edges(values, axis: _Axis):
    """Pixel boundaries between samples (midpoints in axis coordinates)."""
    edges = [axis.px_lo]
    for a, b in zip(values, values[1:]):
        mid = math.sqrt(a * b) if axis.log else (a + b) / 2.0
        edges.append(axis.to_px(mid))
    edges.append(axis.px_hi)
    return edges


def render_heatmap(
    x,
    y,
    z,
    xlabel: str = "",
    ylabel: str = "",
    title: str = "",
    width: int = 720,
    height: int = 520,
    logy: bool = False,
) -> str:
    """Render z[row][col] (row per y sample, col per x sample) as colored cells."""
    if not x or not y or len(z) != len(y) or any(len(r) != len(x) for r in z):
        raise ParameterError("heatmap needs z shaped (len(y), len(x))")
    xaxis = _Axis(min(x), max(x), _MARGIN_L, width - _MARGIN_R, False)
    yaxis = _Axis(min(y), max(y), height - _MARGIN_B, _MARGIN_T, logy)
    zflat = [v for row in z for v in row]
    zlo, zhi = min(zflat), max(zflat)
    span = (zhi - zlo) or 1.0
    parts = _header(width, height, title)
    xe = _cell_edges(list(x), xaxis)
    ye = _cell_edges(list(y), yaxis)
    for r, row in enumerate(z):
        y_top = min(ye[r], ye[r + 1])
        h = abs(ye[r] - ye[r + 1])
        for c, v in enumerate(row):
            parts.append(
                f'<rect x="{xe[c]:.2f}" y="{y_top:.2f}" width="{xe[c + 1] - xe[c]:.2f}" '
                f'height="{h:.2f}" fill="{_heat_color((v - zlo) / span)}"/>\n'
            )
    _axes_frame(parts, xaxis, yaxis, xlabel, ylabel, width, height)
    # Color scale legend: min and max of z.
    parts.append(
        f'<text x="{width - _MARGIN_R:.1f}" y="{_MARGIN_T - 8}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">range [{_tick_label(zlo)}, {_tick_label(zhi)}]</text>\n'
    )
    parts.append("</svg>\n")
    return "".join(parts)


def render_plot_payload(plot: dict) -> str:
    """Render a figure plot payload produced by scans.figure_dataset."""
    if plot.get("kind") == "heatmap":
        return render_heatmap(
            plot["x"],
            plot["y"],
            plot["z"],
            xlabel=plot.get("xlabel", ""),
            ylabel=plot.get("ylabel", ""),
            title=plot.get("title", ""),
            logy=plot.get("logy", False),
        )
    if plot.get("kind") == "lines":
        return render_line_plot(
            plot["series"],
            xlabel=plot.get("xlabel", ""),
            ylabel=plot.get("ylabel", ""),
            title=plot.get("title", ""),
            logx=plot.get("logx", False),
        )
    raise ParameterError(f"unknown plot kind {plot.get('kind')!r}")
