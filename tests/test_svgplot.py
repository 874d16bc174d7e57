import numpy as np
import pytest

from tiltrotor.svgplot import LinePlot


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
