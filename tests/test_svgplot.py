import math
import re

import numpy as np
import pytest

from oracles import HEAT_STOPS, heat_color
from spinchain import ParameterError, svgplot
from spinchain.svgplot import render_heatmap, render_line_plot, render_plot_payload


@pytest.mark.parametrize("x", [1e-300, 1.0, 1e17, 1e300])
def test_log_axis_of_one_value_is_finite(x):
    # One value spans no log range, and at 1e17 neither does x + 1: the axis
    # widens in log space.
    text = render_line_plot([{"label": "a", "x": [x], "y": [0.5]}], logx=True)
    assert text.rstrip().endswith("</svg>") and "nan" not in text and "inf" not in text


def _half_way_fractions():
    """Fractions at which some channel of the colour map lands on k + 0.5:
    a + t (b - a) = k + 0.5 solved for t in each segment, and its neighbours."""
    out = []
    for (p0, c0), (p1, c1) in zip(HEAT_STOPS, HEAT_STOPS[1:]):
        for a, b in zip(c0, c1):
            lo, hi = sorted((a, b))
            for k in range(lo, hi):
                frac = p0 + (k + 0.5 - a) / (b - a) * (p1 - p0)
                out += [np.nextafter(frac, -1.0), frac, np.nextafter(frac, 2.0)]
    return np.array(out)


def test_heat_colors_match_scalar_rule():
    rng = np.random.default_rng(20)
    stops = [p for p, _ in HEAT_STOPS]
    half = _half_way_fractions()
    assert len(half) > 1000
    fracs = np.concatenate([rng.random(10**5), [0.0, 1.0, -0.1, 1.1], stops, half])
    got = [f"#{rgb:06x}" for rgb in svgplot._heat_colors(fracs).tolist()]
    assert got == [heat_color(f) for f in fracs.tolist()]


def _fills(svg):
    return re.findall(r'<rect [^>]*fill="(#[0-9a-f]{6})"/>', svg)


def test_heatmap_cells_take_the_scalar_colour_of_their_value():
    z = [[0.0, 0.3, 0.5], [0.5 + 1e-17, 0.9, 1.0]]
    svg = render_heatmap([0.0, 1.0, 2.0], [0.1, 0.2], z)
    assert _fills(svg) == [heat_color(v) for row in z for v in row]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_heatmap_rejects_non_finite_z(bad):
    with pytest.raises(ParameterError, match="finite"):
        render_heatmap([0, 1], [0, 1], [[bad, 0.5], [0.2, 1.0]])


@pytest.mark.parametrize("axis", ["x", "y"])
def test_heatmap_rejects_non_finite_axis(axis):
    args = {"x": [0.0, 1.0], "y": [0.0, 1.0], "z": [[0.0, 0.5], [0.2, 1.0]]}
    args[axis] = [0.0, math.nan]
    with pytest.raises(ParameterError, match="finite"):
        render_heatmap(**args)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_line_plot_rejects_non_finite_values(axis, bad):
    series = {"label": "a", "x": [0.0, 1.0, 2.0], "y": [0.1, 0.2, 0.3]}
    series[axis] = [0.0, bad, 2.0]
    with pytest.raises(ParameterError, match="finite"):
        render_line_plot([series])


@pytest.mark.parametrize(
    "series",
    [
        [{"label": "a", "x": [1.0, 2.0, 3.0], "y": [1.0]}],  # zip would draw one point on a 3-value axis
        [{"label": "a", "x": [1.0], "y": [1.0, 2.0]}],
        [{"label": "a", "x": [], "y": []}],  # min() of nothing
        [{"label": "a", "x": [1.0, 2.0], "y": [0.1, 0.2]}, {"label": "b", "x": [], "y": []}],  # empty polyline
    ],
)
def test_line_plot_rejects_a_series_without_one_y_per_x(series):
    with pytest.raises(ParameterError, match="same nonzero number"):
        render_line_plot(series)


@pytest.mark.parametrize("x", [[0.0, 1.0], [-1.0, 2.0]])
def test_log_axis_rejects_non_positive_x(x):
    with pytest.raises(ParameterError, match="positive"):
        render_line_plot([{"label": "a", "x": x, "y": [0.1, 0.2]}], logx=True)


@pytest.mark.parametrize("z", [[[0.0, 0.5]], [[0.0, 0.5], [0.2]], []], ids=["rows", "columns", "empty"])
def test_heatmap_rejects_misshaped_z(z):
    with pytest.raises(ParameterError, match="shaped"):
        render_heatmap([0.0, 1.0], [0.0, 1.0], z)


def test_plot_payload_rejects_unknown_kind():
    with pytest.raises(ParameterError, match="'pie'"):
        render_plot_payload({"kind": "pie"})
