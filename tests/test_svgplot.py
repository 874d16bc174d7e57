import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tiltrotor._files import _FIXED_MAX, points_text
from tiltrotor.svgplot import LinePlot

SVG = "{http://www.w3.org/2000/svg}"


def _points_per_scalar(plot, xs, ys):
    # one numpy scalar at a time, as the plot formatted its points before
    px, py = plot._to_px(xs, ys)
    return " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
def test_polyline_points_match_per_point_format(dtype):
    rng = np.random.default_rng(7)
    xs = rng.uniform(-12.0, 12.0, 500)
    ys = rng.uniform(-3.0, 9.0, 500)
    # limits, the origin, negative values and halfway cases of the rounding
    xs[:6] = [-10.0, 10.0, 0.0, -0.0, 0.125, -4.005]
    ys[:6] = [-2.0, 8.0, 0.0, -0.0, 0.375, 3.335]
    xs, ys = xs.astype(dtype), ys.astype(dtype)
    plot = LinePlot((-10.0, 10.0), (-2.0, 8.0))
    plot.polyline(xs, ys, color="red", width=1.5)
    want = _points_per_scalar(plot, np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
    assert plot._elements == [
        f'<polyline points="{want}" fill="none" stroke="red" stroke-width="1.5"/>'
    ]


def test_polyline_skips_single_point():
    plot = LinePlot((0.0, 1.0), (0.0, 1.0))
    plot.polyline([0.5], [0.5])
    assert plot._elements == []


def _percent_2f(values):
    v = np.asarray(values, dtype=float).tolist()
    return " ".join("%.2f,%.2f" % p for p in zip(v[0::2], v[1::2]))


def _points(values):
    v = np.asarray(values, dtype=float)
    return points_text(v[0::2], v[1::2])


@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
def test_points_text_of_any_finite_pair_is_percent_2f(x, y):
    # beyond the kernel's range too, where Python writes the value
    assert points_text(np.array([x]), np.array([y])) == "%.2f,%.2f" % (x, y)


_K = np.concatenate([np.arange(-20_000, 20_000),
                     np.round(np.logspace(4, 15.9, 2000)) * np.array([1, -1]).repeat(1000)])
_NEAR_TIES = (_K + 0.5) / 100  # the doubles nearest to k + 1/2 hundredths
_CASES = {
    "nearest-ties": np.concatenate([_NEAR_TIES, np.nextafter(_NEAR_TIES, np.inf),
                                    np.nextafter(_NEAR_TIES, -np.inf)]),
    # exact in binary, so only the tie rule decides them: 0.125 is 0.12,
    # 0.375 is 0.38; and ties of |v| * 100 above 2**52 and 2**53, whose
    # product is rounded to a double (odd multiples of 1/8 there)
    "exact-ties": np.concatenate([np.arange(-99, 100, 2) * 0.125,
                                  (np.arange(-64, 64) * 2 + 1 + 2 * (2 ** 52 // 25)) / 8,
                                  (np.arange(-64, 64) * 2 + 1 + 2 * (2 ** 53 // 25)) / 8]),
    "negative-zero": np.array([-0.001, -0.0, -0.004999, 0.0, -1e-300, -5e-324]),
    # both sides of the kernel's bound, and the doubles below it
    "fallback-bound": np.concatenate([
        [_FIXED_MAX, -_FIXED_MAX, np.nextafter(_FIXED_MAX, 0.0), np.nextafter(-_FIXED_MAX, 0.0),
         np.nextafter(_FIXED_MAX, np.inf), 1e300, -1e16],
        np.random.default_rng(3).uniform(4e13, 1e14, 4000)]),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_points_text_is_percent_2f_at_ties_and_bounds(case):
    values = _CASES[case]
    if values.size % 2:
        values = np.append(values, 0.0)
    # each value once as an x, followed by a comma, and once as a y
    for v in (values, np.roll(values, 1)):
        assert _points(v) == _percent_2f(v)


@pytest.mark.parametrize("args, match", [
    (((np.nan, 1.0), (0.0, 1.0)), "xlim must be two finite numbers"),
    (((0.0, np.inf), (0.0, 1.0)), "xlim must be two finite numbers"),
    (((0.0, 1.0), (-np.inf, 1.0)), "ylim must be two finite numbers"),
    (((0.0, 1.0, 2.0), (0.0, 1.0)), "xlim must be two finite numbers"),
    (((1.0, 0.0), (0.0, 1.0)), "axis limits must be increasing"),
    (((0.0, 1.0), (0.0, 1.0), 100), "width must be finite and larger than 100"),
    (((0.0, 1.0), (0.0, 1.0), np.inf), "width must be finite and larger than 100"),
    (((0.0, 1.0), (0.0, 1.0), 640, 99.5), "height must be finite and larger than 100"),
    (((0.0, 1.0), (0.0, 1.0), 640, np.nan), "height must be finite and larger than 100"),
    # finite limits whose span overflows
    (((-1e308, 1e308), (0.0, 1.0)), "axis spans must be finite"),
    (((0.0, 1.0), (-1e308, 1e308)), "axis spans must be finite"),
])
def test_line_plot_refuses_bad_limits_and_canvas(args, match):
    with pytest.raises(ValueError, match=match):
        LinePlot(*args)


@pytest.mark.parametrize("xs, ys, match", [
    ([0.0], [0.0, 1.0, 2.0], r"xs and ys must be 1-D and of one length, got shapes \(1,\) and \(3,\)"),
    ([0.0, 1.0], [0.0], "xs and ys must be 1-D and of one length"),
    ([[0.0, 1.0]], [[0.0, 1.0]], r"1-D and of one length, got shapes \(1, 2\)"),
    ([0.0, np.nan], [0.0, 1.0], "xs must be finite and in reach of the axis limits, got nan at index 1"),
    ([0.0, 1.0], [np.inf, 1.0], "ys must be finite and in reach of the axis limits, got inf at index 0"),
    ([np.nan], [0.0], "xs must be finite"),
    # finite, but too far from the limits for a finite pixel
    ([0.0, 1e308], [0.0, 1.0], "xs must be finite and in reach of the axis limits, got 1e[+]308"),
])
def test_polyline_refuses_bad_points(xs, ys, match):
    plot = LinePlot((0.0, 1.0), (0.0, 1.0))
    with pytest.raises(ValueError, match=match):
        plot.polyline(xs, ys)
    assert plot._elements == []


@pytest.mark.parametrize("color", ['a"b', "a'b", "<'\"&\">"])
def test_title_and_colour_are_escaped(tmp_path, color):
    title = "error <m> & rate"
    plot = LinePlot((0, 1), (0, 1), title=title)
    plot.polyline([0, 1], [0, 1], color=color)
    plot.save(tmp_path / "plot.svg")
    root = ET.parse(tmp_path / "plot.svg").getroot()
    assert [t.text for t in root.iter(f"{SVG}text")][-1] == title
    assert [line.get("stroke") for line in root.iter(f"{SVG}polyline")] == [color]
