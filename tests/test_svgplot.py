import pytest

from spinchain.svgplot import render_line_plot


@pytest.mark.parametrize("x", [1e-300, 1.0, 1e17, 1e300])
def test_log_axis_of_one_value_is_finite(x):
    # One value spans no log range, and at 1e17 neither does x + 1: the axis
    # widens in log space.
    text = render_line_plot([{"label": "a", "x": [x], "y": [0.5]}], logx=True)
    assert text.rstrip().endswith("</svg>") and "nan" not in text and "inf" not in text
