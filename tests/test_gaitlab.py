import bisect
import dataclasses
import json
import math
import pickle
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import tiltrotor as tr
from tiltrotor import gaitlab
from tiltrotor._core import kernels
from tiltrotor.gaitlab import CLUSTER_RADIUS, GAIT_PRESETS, scan_roots
from tiltrotor.linearization import DetCoefficients, abc_scale

from _oracles import (
    ab_grid_direct,
    abc_direct,
    phase_scan_reference,
    rectangle_stations,
    residual_scale,
    sign_grid_reference,
    zero_curves_scalar,
)

TWO_PI = 2.0 * math.pi


def _mod2pi_dist(a, b):
    d = (np.asarray(a) - np.asarray(b) + math.pi) % TWO_PI - math.pi
    return float(np.max(np.abs(d)))


class BruteForceOracle:
    """Independent |A|+|B| root locator: grid argmin in a window + Nelder-Mead polish.

    The window around each candidate stays below the minimum separation
    of distinct roots (~0.057 rad on the acceptance grid) so the argmin
    cannot lock onto a neighboring root family.  Only the grid points
    within :data:`SPAN` indices of the candidate are evaluated: the
    window is under two grid steps at the acceptance ``n``, and the
    indices stay in ascending order, so the argmin (first index on ties)
    picks the cell that the same mask over the whole grid would.
    """

    SPAN = 3

    def __init__(self, params, n=400, window=0.03):
        assert window <= (self.SPAN + 0.5) * TWO_PI / n, "the window reaches past the span"
        self.params = params
        self.window = window
        self.n = n
        self.axis = np.linspace(-math.pi, math.pi, n, endpoint=False)
        self.trig = (np.sin(self.axis), np.cos(self.axis))

    def _near(self, angle):
        """Ascending indices of the grid points within ``SPAN`` steps of ``angle``, wrapped."""
        k = round((angle + math.pi) * self.n / TWO_PI)
        return np.sort(np.arange(k - self.SPAN, k + self.SPAN + 1) % self.n)

    def roots_near(self, a1, a2, candidates):
        sin, cos = self.trig
        out = []
        for near in candidates:
            i3, i4 = self._near(near[0]), self._near(near[1])
            a3, a4 = self.axis[i3, None], self.axis[None, i4]
            trig34 = (sin[i3, None], cos[i3, None], sin[None, i4], cos[None, i4])
            res = ab_grid_direct(a1, a2, a3, a4, self.params, trig34=trig34)
            d3 = np.abs((a3 - near[0] + math.pi) % TWO_PI - math.pi)
            d4 = np.abs((a4 - near[1] + math.pi) % TWO_PI - math.pi)
            masked = np.where(np.hypot(d3, d4) < self.window, res, np.inf)
            i, j = np.unravel_index(np.argmin(masked), masked.shape)

            def objective(x):
                return float(ab_grid_direct(a1, a2, float(x[0]), float(x[1]), self.params))

            start = [float(a3[i, 0]), float(a4[0, j])]
            poly = minimize(objective, start, method="Nelder-Mead",
                            options={"xatol": 1e-8, "fatol": 1e-38, "maxiter": 250})
            out.append(poly.x)
        return out


def brute_force_root(a1, a2, near, params, n=400):
    return BruteForceOracle(params, n=n).roots_near(a1, a2, [near])[0]


# Newton convergence target in units of residual_scale: the gradient of
# (A, B) with respect to the completion is ~1e5 below that scale, so the
# target sits far below the 1e-8 acceptance bound to pin roots to ~1e-9 rad
NEWTON_TOL_FACTOR = 1e-14
NEWTON_STEP_TOL = 1e-10
NEWTON_MAX_ITER = 60


def newton_scan(alpha12, params, seeds=12):
    """Multi-start Newton scan of the ``A = B = 0`` root set: the oracle of ``scan_roots``.

    Seeds a ``seeds x seeds`` grid over ``[-pi, pi)^2``, clusters the
    converged roots modulo 2 pi within ``CLUSTER_RADIUS`` (keeping each
    cluster's least-residual member), and flags each cluster robust as
    ``scan_roots`` does, by ``|C| >= 1e-4 abc_scale``.
    """
    a1, a2 = float(alpha12[0]), float(alpha12[1])
    tol = NEWTON_TOL_FACTOR * residual_scale(params)
    grid = np.linspace(-math.pi, math.pi, seeds, endpoint=False).tolist()
    clusters = []
    for s3 in grid:
        for s4 in grid:
            n3, n4, res, ok = kernels.newton_ab(
                a1, a2, s3, s4, params.k_f, params.k_m, params.arm_length,
                tol, NEWTON_STEP_TOL, NEWTON_MAX_ITER,
            )
            if not ok:
                continue
            w = (float(tr.wrap_angle(n3)), float(tr.wrap_angle(n4)))
            for cl in clusters:
                d3 = (w[0] - cl["alpha34"][0] + math.pi) % TWO_PI - math.pi
                d4 = (w[1] - cl["alpha34"][1] + math.pi) % TWO_PI - math.pi
                if math.hypot(d3, d4) < CLUSTER_RADIUS:
                    if res < cl["residual"]:
                        cl["alpha34"], cl["residual"] = w, res
                    break
            else:
                clusters.append({"alpha34": w, "residual": res})
    for cl in clusters:
        cl["C"] = tr.det_decomposition((a1, a2) + cl["alpha34"], params).C
        cl["robust"] = abs(cl["C"]) >= 1e-4 * abc_scale(params)
    return clusters


# ---------------------------------------------------------------------------
# branch solving


def test_pair_at_origin(params):
    blue, red = tr.solve_color_pair((0.0, 0.0), params)
    np.testing.assert_allclose(blue.alpha34, [0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(red.alpha34, [math.pi, math.pi], atol=1e-9)
    assert blue.color == "blue" and red.color == "red"
    # residual sign of the blue origin solution equals sign(C) there
    c0 = abc_direct(np.zeros(4), params)[2]
    assert blue.residual_sign == math.copysign(1.0, c0)


def test_pair_against_brute_force(params):
    a12 = (0.4, -0.3)
    blue, red = tr.solve_color_pair(a12, params)
    for sol in (blue, red):
        bf = brute_force_root(a12[0], a12[1], sol.alpha34, params)
        assert _mod2pi_dist(sol.alpha34, bf) < 1e-3


def test_solutions_zero_both_coefficients(params, rng):
    bound = 1e-8 * residual_scale(params)
    for _ in range(25):
        a12 = rng.uniform(-0.6, 0.6, 2)
        for sol in tr.solve_color_pair(a12, params):
            A, B, _ = abc_direct(np.concatenate([sol.alpha12, sol.alpha34]), params)
            assert abs(A) < bound and abs(B) < bound


def test_root_scan_structure(params):
    clusters = scan_roots((0.4, -0.3), params)
    assert len(clusters) == 8
    robust = [c for c in clusters if c["robust"]]
    degenerate = [c for c in clusters if not c["robust"]]
    assert len(robust) == 4 and len(degenerate) == 4
    floor = 1e-4 * abc_scale(params)
    for c in degenerate:
        # rank-deficient family: C vanishes along with A and B
        assert abs(c["C"]) < floor


def test_verify_mode_near_sheet_collision(params):
    # isolated collision of the robust and rank-deficient sheets
    delta = 2 * math.atan(params.k_m / (params.arm_length * params.k_f))
    blue, red = tr.solve_color_pair((delta / 2, -delta / 2), params)
    np.testing.assert_allclose(blue.alpha34, [delta / 2, -delta / 2], atol=1e-6)
    np.testing.assert_allclose(red.alpha34, [delta / 2 + math.pi, -delta / 2 + math.pi],
                               atol=1e-6)
    # there each robust root is also a rank-deficient one: four roots, all with C = 0
    roots = scan_roots((delta / 2, -delta / 2), params)
    assert len(roots) == 4 and not any(r["robust"] for r in roots)
    for root in roots:
        assert min(_mod2pi_dist(root["alpha34"], (delta / 2 + k3 * math.pi,
                                                  -delta / 2 + k4 * math.pi))
                   for k3 in (0, 1) for k4 in (0, 1)) < 1e-12


def test_normalized_det_factorizes_on_solutions(params, rng):
    phis = np.linspace(-1.2, 1.2, 41)
    thetas = np.linspace(-1.2, 1.2, 41)
    for _ in range(10):
        a12 = rng.uniform(-0.6, 0.6, 2)
        blue = tr.solve_color_pair(a12, params)[0]
        coeffs = tr.det_decomposition(np.concatenate([blue.alpha12, blue.alpha34]), params)
        g = tr.normalized_det(phis[:, None], thetas[None, :], coeffs)
        expected = np.cos(phis)[:, None] * np.cos(thetas)[None, :] * coeffs.C
        if abs(coeffs.C) > 1e-3 * abc_scale(params):
            assert np.max(np.abs(g - expected)) < 1e-9 * abs(coeffs.C)


# ---------------------------------------------------------------------------
# color map


def test_color_map_plane_anchors(params):
    vals = np.linspace(-0.5, 0.5, 9)
    blue = tr.color_map(vals, vals, "blue", params)
    red = tr.color_map(vals, vals, "red", params)
    # each fit's value c0 + c1 alpha1 + c2 alpha2 at the origin
    origin = (1.0, 0.0, 0.0)
    assert abs(blue.plane3.coeffs @ origin) < max(1e-6, 10 * blue.plane3.rms)
    assert abs(blue.plane4.coeffs @ origin) < max(1e-6, 10 * blue.plane4.rms)
    assert abs(red.plane3.coeffs @ origin - math.pi) < max(1e-6, 10 * red.plane3.rms)
    assert abs(red.plane4.coeffs @ origin - math.pi) < max(1e-6, 10 * red.plane4.rms)
    for fit in (blue.plane3, blue.plane4, red.plane3, red.plane4):
        assert fit.rms < 1e-3


@pytest.mark.parametrize("a1v, a2v", [
    (np.linspace(-0.5, 0.4, 7), np.linspace(-0.3, 0.6, 5)),
    # a 1 x 1 grid: a least-squares fit reported a minimum-norm "plane"
    (np.array([0.3]), np.array([-0.2])),
], ids=["7x5", "1x1"])
def test_color_map_states_its_planes(params, a1v, a2v):
    for branch, off in OFFSETS.items():
        cm = tr.color_map(a1v, a2v, branch, params)
        assert cm.plane3.coeffs.tolist() == [off, 1.0, 0.0]
        assert cm.plane4.coeffs.tolist() == [off, 0.0, 1.0]
        for fit in (cm.plane3, cm.plane4):
            assert fit.rms == 0.0 and fit.max_abs == 0.0


@pytest.mark.parametrize("a1v, a2v", [
    ([], [0.1, 0.2]), ([0.1, 0.2], np.empty(0)),
    (np.zeros((2, 2)), [0.1, 0.2]), ([0.1, 0.2], [[0.1], [0.2]]), (0.1, [0.1, 0.2]),
], ids=["empty-alpha1", "empty-alpha2", "2x2-alpha1", "column-alpha2", "scalar-alpha1"])
def test_color_map_rejects_empty_or_non_1d_values(params, a1v, a2v):
    with pytest.raises(ValueError, match="non-empty 1-D"):
        tr.color_map(a1v, a2v, "blue", params)


def test_color_map_rejects_bad_branch(params):
    with pytest.raises(ValueError):
        tr.color_map(np.linspace(-0.1, 0.1, 3), np.linspace(-0.1, 0.1, 3), "green", params)


# ---------------------------------------------------------------------------
# gaits


def test_degenerate_rectangle_is_constant(params):
    g = tr.make_rectangle_gait((0.2, 0.1), (0.0, 0.0), 10.0, "blue", params)
    sol = tr.solve_color_pair((0.2, 0.1), params)[0]
    for t in (0.0, 1.7, 9.99, 25.0):
        np.testing.assert_allclose(
            g.sample_raw(t), np.concatenate([sol.alpha12, sol.alpha34]), atol=1e-9
        )


def test_gait_periodicity_and_closure(params):
    g = tr.make_rectangle_gait((0.0, 0.0), (0.3, 0.3), 10.0, "blue", params)
    for t in (0.0, 1.234, 4.5, 7.89):
        np.testing.assert_allclose(g.sample_raw(t), g.sample_raw(t + g.period_s), atol=1e-12)
    np.testing.assert_array_equal(g.alphas[0], g.alphas[-1])


def test_gait_stays_near_branch_plane(params):
    # spec's reference rectangle: center (0, 0), half extents (0.3, 0.3)
    g = tr.make_rectangle_gait((0.0, 0.0), (0.3, 0.3), 10.0, "blue", params)
    vals = np.linspace(-0.4, 0.4, 7)
    cmap = tr.color_map(vals, vals, "blue", params)
    for t in np.linspace(0.0, 10.0, 23):
        a = g.sample_raw(t)
        at = (1.0, a[0], a[1])
        assert abs(a[2] - cmap.plane3.coeffs @ at) < 0.5
        assert abs(a[3] - cmap.plane4.coeffs @ at) < 0.5


def test_edge_midpoint_interpolation(params):
    g = tr.make_rectangle_gait((0.0, 0.0), (0.2, 0.2), 8.0, "blue", params)
    k = 3
    t0 = g.waypoints[k] * g.period_s
    t1 = g.waypoints[k + 1] * g.period_s
    mid = g.sample_raw(0.5 * (t0 + t1))
    np.testing.assert_allclose(mid, 0.5 * (g.alphas[k] + g.alphas[k + 1]), atol=1e-12)


def test_bias_examples(params):
    g = tr.make_rectangle_gait((0.0, 0.0), (0.3, 0.3), 10.0, "blue", params)
    b = tr.bias_gait(g, 0.8)
    np.testing.assert_allclose(b.alphas[:, 2], 0.8 * g.alphas[:, 2], rtol=1e-15)
    np.testing.assert_allclose(b.alphas[:, 3], 0.8 * g.alphas[:, 3], rtol=1e-15)
    np.testing.assert_array_equal(b.alphas[:, 0:2], g.alphas[:, 0:2])
    same = tr.bias_gait(g, 1.0)
    for t in np.linspace(0, 10, 100):
        np.testing.assert_array_equal(same.sample_raw(t), g.sample_raw(t))
    with pytest.raises(ValueError):
        tr.bias_gait(g, 0.0)
    with pytest.raises(ValueError):
        tr.bias_gait(g, 1.2)


def test_pointwise_bias_rule():
    # scaling acts componentwise on the completion angles
    assert (0.8 * 1.0, 0.8 * -0.5) == (0.8, -0.4)


def test_biased_gait_leaves_branch(params):
    g = tr.make_rectangle_gait((0.0, 0.0), (0.3, 0.3), 10.0, "blue", params)
    b = tr.bias_gait(g, 0.8)
    bound = 1e-8 * residual_scale(params)
    violations = 0
    for t in np.linspace(0.0, 10.0, 16, endpoint=False):
        A, Bc, _ = abc_direct(b.sample_raw(t), params)
        violations += (abs(A) > bound or abs(Bc) > bound)
    assert violations > 8


def test_gait_csv_first_last_rows_match(tmp_path, params):
    g = tr.build_preset("gait2", params)
    path = tmp_path / "g2.csv"
    g.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert len(rows) == 1 + len(g.waypoints)  # header + one row per waypoint
    assert rows[1].split(",")[1:] == rows[-1].split(",")[1:]


@pytest.mark.parametrize("name", ["runs.v2/mygait", "runs.v2/mygait.csv"])
def test_gait_sidecar_stays_beside_its_csv(tmp_path, params, name):
    # the sidecar replaces the file's extension, if any, never a dot in a directory
    g = tr.build_preset("gait1", params)
    (tmp_path / "runs.v2").mkdir()
    path = tmp_path / name
    g.to_csv(path)
    assert [p.name for p in tmp_path.iterdir()] == ["runs.v2"]
    assert sorted(p.name for p in path.parent.iterdir()) == sorted([path.name, "mygait.json"])
    loaded = tr.load_gait(path)
    assert (loaded.period_s, loaded.color, loaded.bias) == (g.period_s, g.color, g.bias)
    np.testing.assert_array_equal(loaded.alphas[0], g.sample_raw(0.0))


# gait sidecars load_gait refuses, with the key its error must name
BAD_SIDECARS = [
    ([1], "sidecar"),
    ("gait1", "sidecar"),
    ({}, "period_s"),
    ({"period_s": None}, "period_s"),
    ({"period_s": "10"}, "period_s"),
    ({"period_s": True}, "period_s"),
    ({"period_s": 10, "bias": [1]}, "bias"),
    ({"period_s": 10, "bias": False}, "bias"),
    ({"period_s": 10, "color": 1}, "color"),
    ({"period_s": 10, "colour": "red"}, "colour"),
]


@pytest.mark.parametrize("meta, key", BAD_SIDECARS, ids=[repr(m) for m, _ in BAD_SIDECARS])
def test_load_gait_refuses_a_bad_sidecar(tmp_path, params, meta, key):
    path = tmp_path / "gait.csv"
    tr.build_preset("gait1", params).to_csv(path)
    sidecar = tmp_path / "gait.json"
    sidecar.write_text(json.dumps({"period_s": 10}))
    loaded = tr.load_gait(path)
    assert (loaded.period_s, loaded.color, loaded.bias) == (10.0, "blue", 1.0)
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=key):
        tr.load_gait(path)


def test_load_gait_refuses_a_repeated_sidecar_key(tmp_path, params):
    path = tmp_path / "gait.csv"
    tr.build_preset("gait1", params).to_csv(path)
    (tmp_path / "gait.json").write_text('{"period_s": 10, "bias": 1, "bias": 0.8}')
    with pytest.raises(ValueError, match="repeated key 'bias'"):
        tr.load_gait(path)


def test_load_gait_reads_crlf_files(tmp_path, params):
    # gait CSVs written with \r\n line ends, as the csv module wrote them,
    # load to the same gait as their \n twins
    g = tr.build_preset("gait1", params)
    path = tmp_path / "gait.csv"
    g.to_csv(path)
    text = path.read_bytes()
    assert b"\r" not in text
    (tmp_path / "crlf.csv").write_bytes(text.replace(b"\n", b"\r\n"))
    (tmp_path / "crlf.json").write_bytes((tmp_path / "gait.json").read_bytes())
    new, old = tr.load_gait(path), tr.load_gait(tmp_path / "crlf.csv")
    assert np.array_equal(old.waypoints, new.waypoints)
    assert np.array_equal(old.alphas, new.alphas)


def test_load_gait_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a1,a2\n0,0\n")
    with pytest.raises(ValueError):
        tr.load_gait(bad)


# ---------------------------------------------------------------------------
# singular curves and robustness


def test_branch_gait_curves_empty(params, rng):
    grid = tr.AttitudeGrid.symmetric(1.2)
    presets = [tr.build_preset(n, params) for n in sorted(GAIT_PRESETS)]
    center = rng.uniform(-0.4, 0.4, 2)
    presets.append(tr.make_rectangle_gait(center, (0.15, 0.25), 6.0, "red", params))
    for g in presets:
        for t in np.linspace(0.0, g.period_s, 8, endpoint=False):
            cs = tr.singular_curves(tuple(g.sample_raw(t)), grid, params)
            assert cs.curves == []


def test_dimensionless_theta_curve():
    grid = tr.AttitudeGrid.symmetric(1.2, 121)
    cs = tr.extract_zero_curves(DetCoefficients(A=1.0, B=0.0, C=0.0), grid)
    v = cs.vertices()
    assert len(v) > 0
    cell = 2.4 / 120
    assert np.max(np.abs(v[:, 1])) < cell
    # curve through the origin: zero hover margin
    assert np.min(np.hypot(v[:, 0], v[:, 1])) < cell


def test_curve_vertices_satisfy_residual_bound(params):
    g = tr.bias_gait(tr.build_preset("gait1", params), 0.8)
    grid = tr.AttitudeGrid.symmetric(1.2)
    found = False
    for k in range(64):
        alpha = tuple(g.sample_raw(k * g.period_s / 64))
        cs = tr.singular_curves(alpha, grid, params)
        if not cs.curves:
            continue
        found = True
        coeffs = tr.det_decomposition(alpha, params)
        eps = 1e-10 * max(map(abs, coeffs.abc))
        for poly in cs.curves:
            gv = tr.normalized_det(poly[:, 0], poly[:, 1], coeffs)
            assert np.max(np.abs(gv)) < eps
    assert found


def test_robustness_reports(params):
    grid = tr.AttitudeGrid.symmetric(1.2)
    g1 = tr.build_preset("gait1", params)
    rep = tr.robustness_report(g1, grid, 8, params)
    assert rep.area_fraction == 1.0
    assert rep.hover_margin == grid.diagonal  # sentinel: no singular point
    biased = tr.robustness_report(tr.bias_gait(g1, 0.8), grid, 64, params)
    assert biased.area_fraction < 1.0
    assert biased.singular_phases > 0
    assert biased.hover_margin < grid.diagonal
    with pytest.raises(ValueError):
        tr.robustness_report(g1, grid, 0, params)
    # a phase count is a whole number: 2.5 would scan np.arange(2.5), three phases
    for bad in (2.5, 3.0, True):
        for scan in (tr.robustness_report, gaitlab.curves_and_report):
            with pytest.raises(TypeError, match="n_phases"):
                scan(g1, grid, bad, params)


# ---------------------------------------------------------------------------
# curve extraction against the edge-by-edge oracle


UNIT = st.floats(-1.0, 1.0, allow_nan=False)
MAGNITUDE = st.sampled_from([1e-12, 1e-3, 1.0, 1e3, 1e12])
GRID_N = st.integers(2, 61)


@st.composite
def generic_curves(draw):
    """Random coefficients on a random grid inside |phi|, |theta| < pi/2."""
    scale = draw(MAGNITUDE)
    coeffs = tuple(scale * draw(UNIT) for _ in range(3))
    limit = draw(st.floats(0.1, 1.5))
    return coeffs, tr.AttitudeGrid(-limit, limit, -limit, limit, draw(GRID_N), draw(GRID_N))


@st.composite
def saddle_curves(draw):
    """Crossing zero lines phi = phi0 and theta = pi/2 (cos(theta) = 0).

    With A = 0 the factor ``cos(theta) * sin(phi - phi0)`` makes the cell
    around the crossing a marching-squares saddle (case 5 or 10); a small
    A splits the crossing into two close branches.
    """
    phi0 = draw(st.floats(-1.0, 1.0))
    rho = draw(MAGNITUDE)
    A = rho * draw(st.sampled_from([0.0, 1e-6, -1e-3, 1e-2]))
    coeffs = (A, rho * math.cos(phi0), -rho * math.sin(phi0))
    grid = tr.AttitudeGrid(
        phi0 - draw(st.floats(0.05, 1.0)), phi0 + draw(st.floats(0.05, 1.0)),
        math.pi / 2 - draw(st.floats(0.05, 1.0)), math.pi / 2 + draw(st.floats(0.05, 1.0)),
        draw(GRID_N), draw(GRID_N),
    )
    return coeffs, grid


@st.composite
def tangent_curves(draw):
    """A curve whose crest grazes a grid line of constant theta.

    The zero set is ``tan(theta) = rho sin(phi + phi0) / A``; its crest
    ``atan(rho / A)`` is put within a tiny offset of a grid theta, above a
    grid phi or between two, so the crossing edges there are near-tangent.
    """
    n = draw(st.integers(3, 61))
    limit = draw(st.floats(0.3, 1.5))
    axis = np.linspace(-limit, limit, n)
    cell = axis[1] - axis[0]
    offset = draw(st.sampled_from([0.0, 1e-12, -1e-9, 1e-6]))
    crest = axis[draw(st.integers(1, n - 2))] + cell * offset
    peak = axis[draw(st.integers(0, n - 1))] + cell * draw(st.sampled_from([0.0, 0.5, 1e-7]))
    A = draw(MAGNITUDE) * draw(st.sampled_from([1.0, -1.0]))
    rho = A * math.tan(crest)
    phi0 = math.pi / 2 - peak
    coeffs = (A, rho * math.cos(phi0), rho * math.sin(phi0))
    return coeffs, tr.AttitudeGrid(-limit, limit, -limit, limit, n, n)


@st.composite
def coarse_curves(draw):
    """Random coefficients on a grid far from the origin.

    Near ``1e8`` rad one float step moves ``g`` by more than the
    tolerance, so the bisections stall and return their last bracket's
    midpoint.
    """
    coeffs = tuple(draw(UNIT) for _ in range(3))
    far = st.sampled_from([1e6, 1e8, -3e9])
    phi0, theta0 = draw(far), draw(far)
    return coeffs, tr.AttitudeGrid(phi0, phi0 + 3.5, theta0, theta0 + 3.5,
                                   draw(GRID_N), draw(GRID_N))


THETA_LINE = ((1.0, 0.0, 0.0), tr.AttitudeGrid.symmetric(1.2, 121))


@settings(max_examples=150, deadline=None)
@given(st.one_of(generic_curves(), saddle_curves(), tangent_curves(), coarse_curves()))
@example(THETA_LINE)
@example(((0.0, 1.0, 0.0), tr.AttitudeGrid(-1.05, 0.95, 0.62, 2.6, 20, 23)))
def test_extract_zero_curves_matches_edge_by_edge_oracle(case):
    (A, B, C), grid = case
    coeffs = DetCoefficients(A=A, B=B, C=C)
    cs = tr.extract_zero_curves(coeffs, grid)
    _assert_same_polylines(cs.curves, phase_scan_reference(A, B, C, grid.phis, grid.thetas)[2])
    expected, eps, edges = zero_curves_scalar(A, B, C, grid.phis, grid.thetas)
    assert len(cs.curves) == len(expected)
    # |g| a vertex may keep: the oracle's tolerance, or the rounding of a
    # coordinate at the grid's largest magnitude; 4 ulp of the largest
    # coefficient keeps the bound above zero for subnormal coefficients
    scale = max(abs(A), abs(B), abs(C))
    coord = max(abs(grid.phi_min), abs(grid.phi_max), abs(grid.theta_min), abs(grid.theta_max))
    floor = max(eps, 4 * np.spacing(coord) * scale, 4 * np.spacing(scale))
    for got, want, ends in zip(cs.curves, expected, edges):
        assert got.shape == want.shape  # same curves, in the same order
        # on its grid edge: the coordinate the edge holds fixed is exact
        assert np.all((ends.min(axis=1) <= got) & (got <= ends.max(axis=1)))
        g_got = np.abs(tr.normalized_det(got[:, 0], got[:, 1], coeffs))
        g_want = np.abs(tr.normalized_det(want[:, 0], want[:, 1], coeffs))
        assert np.all(g_got <= np.maximum(floor, g_want))


def test_saddle_example_has_saddle_cells():
    # the explicit saddle example above really exercises cases 5 and 10
    grid = tr.AttitudeGrid(-1.05, 0.95, 0.62, 2.6, 20, 23)
    S = (np.cos(grid.thetas)[None, :] * np.sin(grid.phis)[:, None]) > 0.0
    cases = S[:-1, :-1] + 2 * S[1:, :-1] + 4 * S[1:, 1:] + 8 * S[:-1, 1:]
    assert np.any((cases == 5) | (cases == 10))


# ---------------------------------------------------------------------------
# robustness reports and curves against the step-by-step reference scan


def _assert_same_polylines(got, want):
    assert len(got) == len(want)
    for poly, expected in zip(got, want):
        assert poly.shape == expected.shape and poly.tobytes() == expected.tobytes()


def _reference_scans(gait, grid, n_phases, params):
    """The report and each phase's polylines, from ``phase_scan_reference``."""
    times = np.arange(n_phases) * gait.period_s / n_phases
    scans = []
    for alpha in gait.sample_array(times).tolist():
        c = tr.det_decomposition(tuple(alpha), params)
        scans.append(phase_scan_reference(c.A, c.B, c.C, grid.phis, grid.thetas))
    margins = [m for _, m, _ in scans if m is not None]
    report = tr.RobustnessReport(
        area_fraction=min(frac for frac, _, _ in scans),
        hover_margin=min(margins) if margins else grid.diagonal,
        n_phases=n_phases, singular_phases=len(margins))
    return report, [polylines for _, _, polylines in scans]


def _report_bytes(report):
    return np.array(dataclasses.astuple(report), dtype=float).tobytes()


def _assert_scans_match_reference(gait, grid, n_phases, params):
    want_report, want_curves = _reference_scans(gait, grid, n_phases, params)
    report = tr.robustness_report(gait, grid, n_phases, params)
    sets, both = gaitlab.curves_and_report(gait, grid, n_phases, params)
    assert _report_bytes(report) == _report_bytes(both) == _report_bytes(want_report)
    assert type(report.area_fraction) is type(both.area_fraction) is np.float64
    assert len(sets) == n_phases
    times = np.arange(n_phases) * gait.period_s / n_phases
    for cs, alpha, want in zip(sets, gait.sample_array(times).tolist(), want_curves):
        _assert_same_polylines(cs.curves, want)
        _assert_same_polylines(tr.singular_curves(tuple(alpha), grid, params).curves, want)
    return want_report


@pytest.mark.parametrize("bias", [1.0, 0.8])
@pytest.mark.parametrize("branch", ["blue", "red"])
def test_scans_match_the_reference_on_seeded_rectangles(params, branch, bias):
    rng = np.random.default_rng([9301, branch == "red", int(bias * 10)])
    grid = tr.AttitudeGrid.symmetric(1.3, 41)
    singular = 0
    for _ in range(12):
        gait = tr.make_rectangle_gait(rng.uniform(-1.2, 1.2, 2), rng.uniform(0.05, 0.4, 2),
                                      10.0, branch, params)
        singular += _assert_scans_match_reference(tr.bias_gait(gait, bias), grid, 8,
                                                  params).singular_phases
    # the biased gaits exercise the curves, the unbiased ones the empty sets
    assert (singular > 0) == (bias < 1.0)


def test_scans_match_the_reference_on_the_241_grid(params):
    grid = tr.AttitudeGrid(-1.2, 1.2, -1.2, 1.2, 241, 241)
    for name in ("gait1", "gait3"):
        gait = tr.bias_gait(tr.build_preset(name, params), 0.8)
        assert _assert_scans_match_reference(gait, grid, 8, params).singular_phases > 0


@pytest.mark.parametrize("name, n, n_phases", [
    pytest.param("gait2", 41, 64, id="gait2-41"),
    pytest.param("gait1", 41, 64, id="gait1-41"),
    pytest.param("gait1", 241, 64, id="gait1-241"),
    pytest.param("gait2", 41, 1, id="gait2-41-one-phase"),
])
def test_scans_match_the_reference_across_stacks(params, monkeypatch, name, n, n_phases):
    # 0.8-biased gait2 is singular at all 64 phases of a 41 x 41 grid;
    # gait1's robust and singular phases interleave, on 41 x 41 and on
    # 241 x 241 grids; and a report of one phase
    scanned = []
    grid_scan = gaitlab._grid_scan

    def recording(abc, grid, curves, least):
        scanned.append((curves, abc))
        return grid_scan(abc, grid, curves, least)

    monkeypatch.setattr(gaitlab, "_grid_scan", recording)
    grid = tr.AttitudeGrid.symmetric(1.2, n)
    gait = tr.bias_gait(tr.build_preset(name, params), 0.8)
    report = _assert_scans_match_reference(gait, grid, n_phases, params)
    if name == "gait2":
        assert report.singular_phases == n_phases
    else:
        assert 0 < report.singular_phases < n_phases
    # each phase the closed form does not prove is scanned alone: once by
    # the report, in ascending order of its margin bound, then in phase
    # order by curves_and_report and by singular_curves
    times = np.arange(n_phases) * gait.period_s / n_phases
    phases = [kernels.det_coeffs(*alpha, params.k_f, params.k_m, params.arm_length)
              for alpha in gait.sample_array(times).tolist()]
    unproved = [abc for abc in phases if not gaitlab._one_sign(abc, grid)]
    assert len(unproved) >= report.singular_phases
    assert [abc for curves, abc in scanned if not curves] == sorted(unproved,
                                                                    key=gaitlab._margin_bound)
    assert [abc for curves, abc in scanned if curves] == unproved + unproved


def test_reports_find_only_the_edge_zeros_that_can_lower_the_margin(params, monkeypatch):
    # in ascending order of the margin bound, a singular phase whose bound
    # (less its slack) is not below the least margin found before it has
    # no nearer zero, so the report skips its edge zeros and stays the
    # reference's byte for byte
    found = []
    edge_zeros = gaitlab._edge_zeros

    def counting(abc, *args):
        found.append(abc)
        return edge_zeros(abc, *args)

    monkeypatch.setattr(gaitlab, "_edge_zeros", counting)
    grid = tr.AttitudeGrid.symmetric(1.3, 41)
    singular = calls = 0
    for branch in ("blue", "red"):
        rng = np.random.default_rng([9301, branch == "red", 8])
        for _ in range(12):
            gait = tr.bias_gait(tr.make_rectangle_gait(rng.uniform(-1.2, 1.2, 2),
                                                       rng.uniform(0.05, 0.4, 2), 10.0,
                                                       branch, params), 0.8)
            want_report, _ = _reference_scans(gait, grid, 8, params)
            found.clear()
            report = tr.robustness_report(gait, grid, 8, params)
            assert _report_bytes(report) == _report_bytes(want_report)
            times = np.arange(8) * gait.period_s / 8
            phases = [tr.det_decomposition(tuple(alpha), params).abc
                      for alpha in gait.sample_array(times).tolist()]
            least, want = math.inf, []
            for abc in sorted(phases, key=gaitlab._margin_bound):
                margin = phase_scan_reference(*abc, grid.phis, grid.thetas)[1]
                if margin is not None and gaitlab._margin_bound(abc) - gaitlab._BOUND_SLACK < least:
                    want.append(abc)
                    least = min(least, margin)
            assert found == want
            singular += report.singular_phases
            calls += len(found)
    assert 0 < calls < singular


@pytest.mark.parametrize("grid", [
    tr.AttitudeGrid.symmetric(1.3, 41),
    # the saddle example, past theta = pi/2
    tr.AttitudeGrid(-1.05, 0.95, 0.62, 2.6, 20, 23),
    # wider than +-pi/2 in phi
    tr.AttitudeGrid(-2.4, 2.0, -1.3, 1.3, 41, 41),
    # a small box away from level attitude
    tr.AttitudeGrid(0.45, 0.7, -0.9, -0.62, 21, 17),
    # past theta = +-pi/2, with a node column at phi = 0: where |C| / |v|
    # rounds to 1, asin would put the bound above zeros near the pole
    tr.AttitudeGrid(-1.0, 1.0, -1.8, 1.8, 41, 37),
], ids=["square", "saddle", "wide-phi", "off-origin", "past-the-pole"])
def test_margin_bound_is_below_every_reference_margin(grid):
    # g = v . u(phi, theta) with v = (-A, B, C) and u a unit vector: the
    # singular set is a great circle at asin(|C| / |v|) from level attitude,
    # and the grid's metric is nowhere shorter than the sphere's
    rng = np.random.default_rng(3001)
    singular = 0
    for k in range(600):
        A, B, C = rng.normal(size=3) * 10.0 ** rng.uniform(-3.0, 3.0)
        A = 0.0 if k % 7 == 0 else A
        C *= (1.0, 1e-6, 1e-13)[k % 3]
        if k % 4 == 0:
            A, B = A * 1e-9, B * 1e-9
        bound = gaitlab._margin_bound((A, B, C))
        assert 0.0 <= bound <= 0.5 * math.pi
        assert bound == pytest.approx(math.asin(abs(C) / math.sqrt(A * A + B * B + C * C)),
                                      rel=0.0, abs=1e-7)
        margin = phase_scan_reference(A, B, C, grid.phis, grid.thetas)[1]
        if margin is not None:
            singular += 1
            assert margin >= bound - gaitlab._BOUND_SLACK, (A, B, C)
    assert singular >= 50


def test_a_phase_singular_at_every_attitude_counts_as_singular(params):
    # the rectangle's lower-left corner, its phase at t = 0, is the
    # rank-deficient completion (delta / 2, -delta / 2) on the blue plane
    d = gaitlab._delta(params)
    gait = tr.make_rectangle_gait((d / 2 + 0.125, -d / 2 + 0.125), (0.125, 0.125), 10.0,
                                  "blue", params)
    alpha = gait.sample_array([0.0]).tolist()[0]
    assert kernels.det_coeffs(*alpha, params.k_f, params.k_m, params.arm_length) == (0.0, 0.0,
                                                                                     0.0)
    for eta in ((0.0, 0.0, 0.0), (0.4, -0.7, 1.0), (-1.2, 1.1, 0.0)):
        assert tr.decoupling_matrix(eta, alpha, params).det == 0.0
    grid = tr.AttitudeGrid.symmetric(1.3, 41)
    report = tr.robustness_report(gait, grid, 4, params)
    sets, both = gaitlab.curves_and_report(gait, grid, 4, params)
    assert both == report
    assert (report.area_fraction, report.hover_margin) == (0.0, 0.0)
    assert report.singular_phases == 1
    assert sets[0].curves == []
    assert tr.singular_curves(tuple(alpha), grid, params).curves == []
    assert _assert_scans_match_reference(gait, grid, 4, params) == report


def test_robust_phases_form_no_grid(params, monkeypatch):
    # on a branch plane every phase is robust (the Two Color Map Theorem),
    # and the closed form proves it without a sign grid
    def no_grid(*args):
        raise AssertionError("a robust phase formed a sign grid")

    monkeypatch.setattr(gaitlab, "_grid_scan", no_grid)
    grid = tr.AttitudeGrid(-1.2, 1.2, -1.2, 1.2, 241, 241)
    for name in sorted(GAIT_PRESETS):
        gait = tr.build_preset(name, params)
        report = tr.robustness_report(gait, grid, 64, params)
        assert dataclasses.astuple(report) == PRESET_REPORTS[(name, 1.0)]
        sets, both = gaitlab.curves_and_report(gait, grid, 64, params)
        assert both == report and not any(cs.curves for cs in sets)


def test_reports_reach_no_public_det_decomposition(params, monkeypatch):
    # a gait's angles are checked finite when it is built, so its phases
    # take their coefficients from the kernel, without the public call
    def no_public_call(*args):
        raise AssertionError("a report called det_decomposition")

    monkeypatch.setattr(gaitlab, "det_decomposition", no_public_call)
    grid = tr.AttitudeGrid(-1.2, 1.2, -1.2, 1.2, 241, 241)
    for (name, bias), fields in PRESET_REPORTS.items():
        gait = tr.bias_gait(tr.build_preset(name, params), bias)
        report = tr.robustness_report(gait, grid, 64, params)
        assert dataclasses.astuple(report) == fields, (name, bias)
        sets, both = gaitlab.curves_and_report(gait, grid, 64, params)
        assert both == report and len(sets) == 64


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("slot", "ABC")
def test_extract_zero_curves_rejects_non_finite_coefficients(monkeypatch, bad, slot):
    def no_grid(*args):
        raise AssertionError("a non-finite coefficient reached the scan")

    monkeypatch.setattr(gaitlab, "_grid_scan", no_grid)
    abc = dict(A=0.3, B=-0.2, C=0.7)
    abc[slot] = bad
    got = re.escape(repr(tuple(abc.values())))
    with pytest.raises(ValueError, match=f"^coeffs must be three finite numbers, got {got}$"):
        tr.extract_zero_curves(DetCoefficients(**abc),
                               tr.AttitudeGrid.symmetric(1.2, 41))


# coefficient magnitudes from 1e-20 to 1e5, either sign; A and B may be
# exactly zero
MAGNITUDES = st.builds(lambda m, s: m * s, st.floats(1e-20, 1e5), st.sampled_from([1.0, -1.0]))
ABC = st.tuples(st.one_of(st.just(0.0), MAGNITUDES), st.one_of(st.just(0.0), MAGNITUDES),
                MAGNITUDES)
NODES = st.integers(2, 30)
HALF_PI = 0.5 * math.pi


@st.composite
def theta_ranges(draw):
    """A theta range inside +-pi/2 (up to its last float), or reaching across it."""
    if draw(st.booleans()):
        lo, hi = sorted(draw(st.floats(-HALF_PI, HALF_PI)) for _ in range(2))
    else:
        lo = draw(st.floats(-3.5, 1.5))
        hi = lo + draw(st.floats(0.01, 4.0))
    assume(lo < hi)
    return lo, hi


@st.composite
def random_boxes(draw):
    """Random phases on a grid whose phi span may exceed 2 pi."""
    phi_lo = draw(st.floats(-10.0, 10.0))
    phi_hi = phi_lo + draw(st.floats(0.01, 15.0))
    grid = tr.AttitudeGrid(phi_lo, phi_hi, *draw(theta_ranges()), draw(NODES), draw(NODES))
    return draw(st.lists(ABC, min_size=1, max_size=4)), grid


@st.composite
def grazing_boxes(draw):
    """A phase whose ``g`` vanishes within rounding of the box's phi end.

    With ``A`` zero or tiny, ``h = -A tan(theta) + R sin(phi + psi)``
    changes sign at ``phi = -psi``; the box ends a few ulp to 1e-9 rad
    either side of it, so the closed form must not prove a sign that
    the grid's rounding can break.
    """
    _, B, C = draw(ABC)
    A = draw(st.sampled_from([0.0, 1e-15, -1e-12, 1e-9])) * math.hypot(B, C)
    zero = -math.atan2(C, B)
    offset = draw(st.sampled_from([0.0, 1e-16, -1e-16, 1e-14, -1e-14, 1e-12, -1e-12, 1e-9, -1e-9]))
    phi_hi = zero + offset * (1.0 + abs(zero))
    grid = tr.AttitudeGrid(phi_hi - draw(st.floats(0.01, 3.0)), phi_hi, *draw(theta_ranges()),
                           draw(NODES), draw(NODES))
    return [(A, B, C)] + draw(st.lists(ABC, max_size=2)), grid


@settings(max_examples=400, deadline=None)
@given(st.one_of(random_boxes(), grazing_boxes()))
# g vanishes at the box's phi end, and the sign grid's rounding puts the
# nodes there on the other side of zero than the closed form's: without
# its margin the closed form would prove a sign the grid does not keep
@example(([(0.0, 0.000684160573506065, -4.186227276732718e-05)],
          tr.AttitudeGrid(-1.8206576727654822, 0.06111159876077652,
                          0.0997590374324826, 0.6778856070334761, 23, 23)))
@example(([(0.0, 6.713638611086307, -16.139511715605895)],
          tr.AttitudeGrid(-1.3517219150006559, 1.1765944249021885,
                          1.3759404349767292, 1.4867476846913172, 7, 17)))
def test_phase_scan_matches_the_reference_and_proves_only_one_sign(case):
    phases, grid = case
    scans = [gaitlab._phase_scan(abc, grid, curves=True) for abc in phases]
    for (A, B, C), (frac, margin, cs) in zip(phases, scans):
        want_frac, want_margin, want_curves = phase_scan_reference(A, B, C, grid.phis,
                                                                   grid.thetas)
        assert type(frac) is np.float64 and frac.tobytes() == np.float64(want_frac).tobytes()
        assert margin == want_margin
        _assert_same_polylines(cs.curves, want_curves)
        coeffs = DetCoefficients(A=A, B=B, C=C)
        _assert_same_polylines(tr.extract_zero_curves(coeffs, grid).curves, want_curves)
        if gaitlab._one_sign((A, B, C), grid):
            S = sign_grid_reference(A, B, C, grid.phis, grid.thetas)
            assert S.all() or not S.any()


@pytest.mark.parametrize("coeffs, grid, n_curves", [
    # the saddle example, with cells of cases 5 and 10
    ((0.0, 1.0, 0.0), tr.AttitudeGrid(-1.05, 0.95, 0.62, 2.6, 20, 23), 2),
    # g = cos(phi) cos(theta) > 0 on the whole grid: an empty curve set
    ((0.0, 0.0, 1.0), tr.AttitudeGrid.symmetric(1.2, 41), 0),
    (*THETA_LINE, 1),
    # zero lines phi = 0.5, 0.5 + pi and theta = +-pi/2 bound a rectangle
    # whose four saddle corners close it into a loop
    ((0.0, math.cos(0.5), -math.sin(0.5)),
     tr.AttitudeGrid(0.1, 0.5 + math.pi + 0.5, -2.0, 2.0, 31, 31), 5),
], ids=["saddle", "empty", "theta-line", "closed-loop"])
def test_extract_zero_curves_matches_the_reference(coeffs, grid, n_curves):
    A, B, C = coeffs
    cs = tr.extract_zero_curves(DetCoefficients(A=A, B=B, C=C), grid)
    want = phase_scan_reference(A, B, C, grid.phis, grid.thetas)[2]
    _assert_same_polylines(cs.curves, want)
    assert len(want) == n_curves


def test_extract_zero_curves_matches_the_reference_where_g_vanishes_at_a_node():
    # A puts g at a grid node within a few ulp of zero, so its sign there
    # is that of the rounding: the sign grid must round as normalized_det
    grid = tr.AttitudeGrid.symmetric(1.3, 41)
    rng = np.random.default_rng(14)
    for _ in range(300):
        i, j = rng.integers(0, 41, 2)
        if j == 20:  # theta = 0: no A puts g to zero there
            continue
        B, C = rng.normal(size=2)
        phi, theta = grid.phis[i], grid.thetas[j]
        A = math.cos(theta) * (math.sin(phi) * B + math.cos(phi) * C) / math.sin(theta)
        cs = tr.extract_zero_curves(DetCoefficients(A=A, B=B, C=C), grid)
        want = phase_scan_reference(A, B, C, grid.phis, grid.thetas)[2]
        _assert_same_polylines(cs.curves, want)


# robustness reports of the presets and their 0.8-biased variants on the
# acceptance grid (|phi|, |theta| <= 1.2, 241 x 241, 64 phases): area
# fraction, hover margin, phases, singular phases
PRESET_REPORTS = {
    ("gait1", 1.0): (1.0, 3.394112549695428, 64, 0),
    ("gait1", 0.8): (0.9998090277777778, 1.6566268521740568, 64, 4),
    ("gait2", 1.0): (1.0, 3.394112549695428, 64, 0),
    ("gait2", 0.8): (0.9925, 0.05136840212168424, 64, 64),
    ("gait3", 1.0): (1.0, 3.394112549695428, 64, 0),
    ("gait3", 0.8): (0.9923784722222222, 0.12077573652279712, 64, 64),
}
# hover margins of the same reports from curve vertices bisected to
# |g| < 1e-10 max(|A|, |B|, |C|) on gaits lifted by Newton continuation;
# the exact vertices on the exact branch planes stay within 2e-9 rad
BISECTED_HOVER_MARGINS = {
    ("gait1", 0.8): 1.6566268520560878,
    ("gait2", 0.8): 0.051368402121289514,
    ("gait3", 0.8): 0.12077573548781581,
}


def test_preset_robustness_reports_pinned(params):
    grid = tr.AttitudeGrid(-1.2, 1.2, -1.2, 1.2, 241, 241)
    for (name, bias), fields in PRESET_REPORTS.items():
        gait = tr.bias_gait(tr.build_preset(name, params), bias)
        rep = tr.robustness_report(gait, grid, 64, params)
        got = (rep.area_fraction, rep.hover_margin, rep.n_phases, rep.singular_phases)
        assert got == fields, (name, bias)
        bisected = BISECTED_HOVER_MARGINS.get((name, bias), grid.diagonal)
        assert abs(rep.hover_margin - bisected) <= 2e-9, (name, bias)


# ---------------------------------------------------------------------------
# boundary checks and cached data


@pytest.mark.parametrize("bounds", [
    (-1.2, math.inf, -1.2, 1.2), (-math.inf, 1.2, -1.2, 1.2),
    (-1.2, 1.2, math.nan, 1.2), (-1.2, 1.2, -1.2, math.nan),
    # finite bounds whose span overflows, as AttitudeGrid.symmetric(1e308) has
    (-1e308, 1e308, -1.2, 1.2), (-1.2, 1.2, -1e308, 1e308),
])
def test_attitude_grid_rejects_non_finite_bounds(bounds):
    with pytest.raises(ValueError, match="finite"):
        tr.AttitudeGrid(*bounds, 41, 41)


@pytest.mark.parametrize("counts", [(41.5, 41), (41, 41.0), (True, 41), (41, "41"), (41, None)])
def test_attitude_grid_rejects_non_integer_counts(counts):
    with pytest.raises(TypeError, match="integers"):
        tr.AttitudeGrid(-1.2, 1.2, -1.2, 1.2, *counts)


def test_attitude_grid_axes_cached_and_read_only():
    grid = tr.AttitudeGrid(-1.0, 1.2, -0.5, 0.7, np.int64(31), 17)
    assert grid.phis is grid.phis and grid.thetas is grid.thetas
    np.testing.assert_array_equal(grid.phis, np.linspace(-1.0, 1.2, 31))
    np.testing.assert_array_equal(grid.thetas, np.linspace(-0.5, 0.7, 17))
    with pytest.raises(ValueError):
        grid.phis[0] = 0.0
    # the attitude terms of g, and the axis sines and cosines under them,
    # are formed once per grid, as normalized_det forms them
    phi, theta = grid.phis[:, None], grid.thetas[None, :]
    want_terms = (-np.sin(theta), np.sin(phi) * np.cos(theta), np.cos(phi) * np.cos(theta))
    want_trig = (np.sin(grid.phis), np.cos(grid.phis), np.sin(grid.thetas), np.cos(grid.thetas))
    for cached, want in ((grid._g_terms, want_terms), (grid._axis_trig, want_trig)):
        assert len(cached) == len(want)
        for got, expected in zip(cached, want):
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
            with pytest.raises(ValueError):
                got.flat[0] = 0.0
    assert grid._g_terms is grid._g_terms and grid._axis_trig is grid._axis_trig
    assert grid == tr.AttitudeGrid(-1.0, 1.2, -0.5, 0.7, 31, 17)
    clone = pickle.loads(pickle.dumps(grid))
    assert clone == grid
    np.testing.assert_array_equal(clone.phis, grid.phis)
    for got, want in zip(clone._g_terms, grid._g_terms):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("grid", [
    tr.AttitudeGrid(-1.0, 1.2, -0.5, 0.7, 31, 17),
    # a box reaching |theta| >= pi/2, where no phase is proved one-signed
    tr.AttitudeGrid(-2.0, 0.5, -1.7, 1.6, 9, 14),
], ids=["non-square", "past-pi/2"])
def test_edge_table_rows_are_the_axis_gathers(grid):
    phis, thetas = grid.phis, grid.thetas
    n_phi, n_theta = grid.n_phi, grid.n_theta
    # phi edge (i, j) and theta edge (i, j), in the id order of _edge_zeros
    pi, pj = np.divmod(np.arange((n_phi - 1) * n_theta), n_theta)
    ti, tj = np.divmod(np.arange(n_phi * (n_theta - 1)), n_theta - 1)
    want = [
        np.concatenate([phis[pi], thetas[tj]]),
        np.concatenate([phis[pi + 1], thetas[tj + 1]]),
        np.concatenate([0.5 * (phis[:-1] + phis[1:])[pi], 0.5 * (thetas[:-1] + thetas[1:])[tj]]),
        np.concatenate([thetas[pj], phis[ti]]),
        np.concatenate([np.sin(thetas)[pj], np.sin(phis)[ti]]),
        np.concatenate([np.cos(thetas)[pj], np.cos(phis)[ti]]),
        np.concatenate([np.full(pi.size, TWO_PI), np.full(ti.size, math.pi)]),
    ]
    table = grid._edge_table
    assert table.shape == (7, pi.size + ti.size) and table is grid._edge_table
    for row, expected in zip(table, want):
        assert row.tobytes() == expected.tobytes()
    with pytest.raises(ValueError):
        table[0, 0] = 0.0


def test_uneven_crossings_match_the_reference():
    # theta reaches past pi/2, so every phase is scanned: g = sin(theta)
    # keeps its sign on the box, and the others cross on different
    # numbers of edges
    grid = tr.AttitudeGrid(-1.4, 1.1, 0.2, 1.75, 31, 37)
    phases = [(0.0, 1.0, 0.0), (-1.0, 0.0, 0.0), (0.2, 1.0, 0.3), (0.0, 0.0, 1.0)]
    assert grid._box is None
    scans = [gaitlab._phase_scan(abc, grid, curves=True) for abc in phases]
    counts = []
    for (A, B, C), (frac, margin, cs) in zip(phases, scans):
        want_frac, want_margin, want_curves = phase_scan_reference(A, B, C, grid.phis, grid.thetas)
        assert type(frac) is np.float64 and frac.tobytes() == np.float64(want_frac).tobytes()
        assert margin == want_margin
        _assert_same_polylines(cs.curves, want_curves)
        counts.append(sum(len(poly) for poly in want_curves))
    assert counts[1] == 0 and len(set(counts)) == len(counts)
    report = [gaitlab._phase_scan(abc, grid, curves=False) for abc in phases]
    assert [scan[:2] for scan in report] == [scan[:2] for scan in scans]


def test_gait_segments_are_the_read_only_row_differences(params):
    g = tr.bias_gait(tr.build_preset("gait2", params), 0.8)
    starts, lengths, rows, steps = g._segments
    wp, al = g.waypoints, g.alphas
    for got, want in ((starts, wp[:-1]), (lengths, wp[1:] - wp[:-1]), (rows, al[:-1]),
                      (steps, al[1:] - al[:-1])):
        assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            got.flat[0] = 0.0


def _sample_scalar(gait, t):
    # the schedule's interpolation written out for one time, in plain floats
    fr = gait.waypoints.tolist()
    al = gait.alphas.tolist()
    u = (t / gait.period_s) % 1.0
    k = min(bisect.bisect_right(fr, u) - 1, len(fr) - 2)
    s = (u - fr[k]) / (fr[k + 1] - fr[k])
    return [al[k][j] + s * (al[k + 1][j] - al[k][j]) for j in range(4)]


@pytest.mark.parametrize("preset", sorted(GAIT_PRESETS))
def test_sample_array_is_the_scalar_formula_bit_for_bit(params, preset):
    g = tr.bias_gait(tr.build_preset(preset, params), 0.8)
    rng = np.random.default_rng(7)
    t = np.concatenate([
        np.arange(3001) * 1e-3 * 7.0,                 # the loop's step grid
        g.waypoints * g.period_s,                      # exactly on the knots
        g.waypoints * g.period_s + 5.0 * g.period_s,   # knots a few periods on
        rng.uniform(-30.0, 200.0, 1000),
    ])
    got = g.sample_array(t)
    assert got.shape == (len(t), 4)
    want = np.array([_sample_scalar(g, v) for v in t.tolist()])
    assert got.tobytes() == want.tobytes()
    assert g.sample_array(t.reshape(-1, 1)).shape == (len(t), 1, 4)


def test_sample_array_takes_the_segment_that_starts_at_a_knot():
    # with a 1 s period, u is exactly each knot; a sample there is the
    # knot's own angles, not the end of the segment before it
    rng = np.random.default_rng(11)
    fr = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 30)), [1.0]])
    al = rng.uniform(-3.0, 3.0, (32, 4))
    al[-1] = al[0]
    g = _gait(period_s=1.0, waypoints=fr, alphas=al)
    t = np.concatenate([fr[:-1], fr[:-1] + 3.0])
    want = np.array([_sample_scalar(g, v) for v in t.tolist()])
    assert g.sample_array(t).tobytes() == want.tobytes()
    np.testing.assert_array_equal(g.sample_array(fr[:-1]), al[:-1])


def test_curves_and_report_is_one_pass_of_both(params, monkeypatch):
    g = tr.bias_gait(tr.build_preset("gait1", params), 0.8)
    grid = tr.AttitudeGrid.symmetric(1.3, 61)
    want_report = tr.robustness_report(g, grid, 8, params)
    want_sets = [tr.singular_curves(tuple(g.sample_raw(k * g.period_s / 8)), grid, params)
                 for k in range(8)]
    # one coefficient kernel call per phase feeds both the curves and the report
    calls = []
    real = kernels.det_coeffs
    monkeypatch.setattr(kernels, "det_coeffs", lambda *a: calls.append(a) or real(*a))
    sets, report = gaitlab.curves_and_report(g, grid, 8, params)
    assert len(calls) == 8
    assert report == want_report and report.singular_phases > 0
    assert [len(cs.curves) for cs in sets] == [len(cs.curves) for cs in want_sets]
    for cs, want in zip(sets, want_sets):
        for poly, want_poly in zip(cs.curves, want.curves):
            assert poly.tobytes() == want_poly.tobytes()


def test_sample_raw_matches_sampler_and_survives_pickle(params):
    g = tr.bias_gait(tr.build_preset("gait3", params), 0.8)
    clone = pickle.loads(pickle.dumps(g))
    sample = g.sampler()
    for t in np.linspace(0.0, 3.0 * g.period_s, 97):
        want = np.array(sample(float(t)))
        assert g.sample_raw(t).tobytes() == want.tobytes()
        assert clone.sample_raw(t).tobytes() == want.tobytes()
        assert all(type(v) is float for v in sample(float(t)))
    # the samplers follow a replaced schedule, and the schedule itself
    # cannot change under them
    flat = tr.bias_gait(g, 0.5)
    np.testing.assert_array_equal(flat.sample_raw(0.0)[2:], 0.5 * g.alphas[0, 2:])
    with pytest.raises(ValueError):
        g.alphas[0, 2] = 0.0
    with pytest.raises(ValueError):
        g.waypoints[1] = 0.5


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_sample_raw_rejects_non_finite_time(params, t):
    g = tr.build_preset("gait1", params)
    with pytest.raises(ValueError, match="t must be finite"):
        g.sample_raw(t)
    with pytest.raises(ValueError, match="t must be finite"):
        g.sample_raw(np.float64(t))


# ---------------------------------------------------------------------------
# closed-form branches against independent oracles


OFFSETS = {"blue": 0.0, "red": math.pi}
ANGLE = st.floats(-math.pi, math.pi)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def rotor_params(draw):
    return tr.Params(
        k_f=10.0 ** draw(st.floats(-7.0, -4.0)),
        k_m=10.0 ** draw(st.floats(-9.0, -5.0)),
        arm_length=draw(st.floats(0.05, 1.0)),
    )


# delta = 2 atan(k_m / (arm k_f)) lies 1.1e-3 rad from pi: |A| + |B| is flat
# enough there to fall below the Newton tolerance 1e-3 rad from any root
FLAT_NEAR_PI = dict(a1=0.0, a2=1.0, params=tr.Params(k_f=1e-7, k_m=1e-5, arm_length=0.0546875))
# delta = 4e-4 rad: the red root (pi, pi) lies 5.7e-4 rad from the
# rank-deficient root (pi + delta, pi - delta)
NEAR_COLLISION = dict(a1=0.0, a2=0.0, params=tr.Params(k_f=1e-5, k_m=1e-9, arm_length=0.5))


@settings(max_examples=60, deadline=None)
@given(a1=ANGLE, a2=ANGLE, params=rotor_params())
@example(**FLAT_NEAR_PI)
@example(**NEAR_COLLISION)
def test_color_pair_matches_robust_newton_clusters(a1, a2, params):
    scale = abc_scale(params)
    blue, red = tr.solve_color_pair((a1, a2), params)
    coeffs = [tr.det_decomposition(np.concatenate([s.alpha12, s.alpha34]), params)
              for s in (blue, red)]
    for sol, co in zip((blue, red), coeffs):
        assert abs(co.A) <= 1e-12 * scale and abs(co.B) <= 1e-12 * scale
    # off the on-branch C = 0 locus, where the scan flags the branch root
    # as rank-deficient
    assume(min(abs(co.C) for co in coeffs) > 1e-3 * scale)
    robust = [c["alpha34"] for c in newton_scan((a1, a2), params) if c["robust"]]
    hits = [[k for k, r in enumerate(robust) if _mod2pi_dist(sol.alpha34, r) < 1e-2]
            for sol in (blue, red)]
    assert len(hits[0]) == 1 and len(hits[1]) == 1 and hits[0] != hits[1]


@settings(max_examples=60, deadline=None)
@given(a1=ANGLE, a2=ANGLE, params=rotor_params())
@example(**FLAT_NEAR_PI)
@example(**NEAR_COLLISION)
def test_scan_roots_matches_the_newton_oracle(a1, a2, params):
    roots = scan_roots((a1, a2), params)
    oracle = newton_scan((a1, a2), params)
    assert len(roots) == len(oracle)
    for root in roots:
        near = [cl for cl in oracle if _mod2pi_dist(root["alpha34"], cl["alpha34"]) < 1e-8]
        assert len(near) == 1 and near[0]["robust"] == root["robust"]


@settings(max_examples=200, deadline=None)
@given(a1=ANGLE, a2=ANGLE, params=rotor_params(), branch=st.sampled_from(sorted(OFFSETS)))
def test_on_branch_c_is_that_of_det_coeffs(a1, a2, params, branch):
    off = OFFSETS[branch]
    k_f, k_m, arm = params.k_f, params.k_m, params.arm_length
    want = kernels.det_coeffs(a1, a2, a1 + off, a2 + off, k_f, k_m, arm)[2]
    rho = math.hypot(arm * k_f, k_m)
    assert abs(gaitlab._on_branch_c(a1, a2, params) - want) <= 1e-13 * k_f * rho**3


def test_preset_on_branch_margins(params):
    # the margin and sign changes the GAIT_PRESETS comment gives, along the
    # schedule every 1e-4 s: gait2 and gait3 cross the C = 0 locus, so only
    # gait1 has a margin to state
    scale = 4.0 * params.k_f * math.hypot(params.arm_length * params.k_f, params.k_m) ** 3
    for name, margin, changes in (("gait1", 0.2651, 0), ("gait2", None, 2), ("gait3", None, 2)):
        gait = tr.build_preset(name, params)
        # t = 0 and t = period are the same phase: one period of sign changes
        alphas = gait.sample_array(np.linspace(0.0, gait.period_s, 100_001))
        C = gaitlab._on_branch_c(alphas[:, 0], alphas[:, 1], params) / scale
        if margin is not None:
            assert np.abs(C).min() == pytest.approx(margin, rel=0.05)
        assert np.count_nonzero(np.diff(np.sign(C))) == changes


def test_scan_roots_skips_flat_near_roots():
    params = tr.Params(k_f=1e-7, k_m=1e-5, arm_length=0.0546875)
    delta = 2.0 * math.atan(params.k_m / (params.arm_length * params.k_f))
    clusters = scan_roots((0.0, 1.0), params)
    # the robust set {0, pi} x {1, 1 + pi} and the rank-deficient set
    # (delta - a1 + k pi, -delta - a2 + k pi), nothing else
    robust = [(a3, a4) for a3 in (0.0, math.pi) for a4 in (1.0, 1.0 + math.pi)]
    deficient = [(delta + k3 * math.pi, -delta - 1.0 + k4 * math.pi)
                 for k3 in (0, 1) for k4 in (0, 1)]
    assert len(clusters) == 8
    for cl in clusters:
        family = robust if cl["robust"] else deficient
        assert min(_mod2pi_dist(cl["alpha34"], r) for r in family) < 1e-9
    assert sum(cl["robust"] for cl in clusters) == 4
    blue, red = tr.solve_color_pair((0.0, 1.0), params)
    assert blue.color == "blue" and red.color == "red"


@st.composite
def rectangles(draw):
    center = (draw(ANGLE), draw(ANGLE))
    half = draw(st.one_of(st.just((0.0, 0.0)),
                          st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0))))
    return center, half, draw(st.sampled_from(sorted(OFFSETS)))


@settings(max_examples=100, deadline=None)
@given(rectangles())
def test_rectangle_gait_lies_on_branch_plane(params, rect):
    center, half, branch = rect
    g = tr.make_rectangle_gait(center, half, 10.0, branch, params)
    stations, fracs = rectangle_stations(center, half, 1)
    assert g.waypoints.tobytes() == fracs.tobytes()
    assert np.ascontiguousarray(g.alphas[:, :2]).tobytes() == stations.tobytes()
    off = OFFSETS[branch]
    assert np.ascontiguousarray(g.alphas[:, 2]).tobytes() == (stations[:, 0] + off).tobytes()
    assert np.ascontiguousarray(g.alphas[:, 3]).tobytes() == (stations[:, 1] + off).tobytes()


def _preset_rect(name):
    entry = GAIT_PRESETS[name]
    return entry["center"], entry["half_extents"], entry["branch"]


@settings(max_examples=100, deadline=None)
@given(rect=rectangles(), seed=st.integers(0, 2**32 - 1))
@example(rect=_preset_rect("gait1"), seed=1)
@example(rect=_preset_rect("gait2"), seed=2)
@example(rect=_preset_rect("gait3"), seed=3)
@example(rect=((0.1, -0.2), (0.05, 0.9), "blue"), seed=4)
@example(rect=((-0.3, 0.4), (0.7, 0.02), "red"), seed=5)
def test_corner_gait_is_the_station_gait(params, rect, seed):
    # five corners and 16 stations an edge are one schedule, up to rounding
    center, half, branch = rect
    times = np.random.default_rng(seed).uniform(-10.0, 20.0, 500)
    stations, fracs = rectangle_stations(center, half, 16)
    u = (times / 10.0) % 1.0
    cols = [np.interp(u, fracs, stations[:, k]) for k in (0, 1)]
    want = np.column_stack(cols + [c + OFFSETS[branch] for c in cols])
    g = tr.make_rectangle_gait(center, half, 10.0, branch, params)
    assert np.max(np.abs(g.sample_array(times) - want)) <= 1e-14


def _preset_example(name, bias):
    entry = GAIT_PRESETS[name]
    return example(rect=(entry["center"], entry["half_extents"], entry["branch"]),
                   period=10.0, bias=bias)


@settings(max_examples=60, deadline=None)
@given(rect=rectangles(), period=st.floats(1e-3, 1e3), bias=st.sampled_from([1.0, 0.8]))
@_preset_example("gait1", 1.0)
@_preset_example("gait1", 0.8)
@_preset_example("gait2", 1.0)
@_preset_example("gait3", 1.0)
@example(rect=((0.2, 0.1), (0.0, 0.0), "blue"), period=10.0, bias=0.8)
def test_gait_csv_roundtrip(tmp_path_factory, params, rect, period, bias):
    # a gait file is the gait: load_gait gives back what to_csv wrote, bit for bit
    center, half, branch = rect
    g = tr.bias_gait(tr.make_rectangle_gait(center, half, period, branch, params), bias)
    path = tmp_path_factory.getbasetemp() / "roundtrip.csv"
    g.to_csv(path)
    loaded = tr.load_gait(path)
    assert np.array_equal(loaded.waypoints, g.waypoints)
    assert np.array_equal(loaded.alphas, g.alphas)
    assert (loaded.period_s, loaded.color, loaded.bias) == (g.period_s, g.color, g.bias)


def test_color_map_is_the_branch_plane(params):
    a1v = np.linspace(-0.7, 0.5, 13)
    a2v = np.linspace(-0.4, 0.9, 11)
    a1g, a2g = np.meshgrid(a1v, a2v, indexing="ij")
    floor = 1e-3 * abc_scale(params)
    for branch, off in OFFSETS.items():
        cm = tr.color_map(a1v, a2v, branch, params)
        np.testing.assert_array_equal(cm.alpha3, a1g + off)
        np.testing.assert_array_equal(cm.alpha4, a2g + off)
        for fit in (cm.plane3, cm.plane4):
            assert fit.rms <= 1e-12
        np.testing.assert_allclose(cm.plane3.coeffs, [off, 1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(cm.plane4.coeffs, [off, 0.0, 1.0], atol=1e-12)
        C = np.array([[abc_direct(np.array([x, y, x + off, y + off]), params)[2]
                       for y in a2v] for x in a1v])
        clear = np.abs(C) > floor
        assert clear.any()
        np.testing.assert_array_equal(cm.residual_sign[clear], np.sign(C[clear]))


def test_color_pair_sign_is_the_color_map_sign(params, rng):
    # both public APIs read one closed-form on-branch C, so they agree in
    # every cell, also on the C = 0 locus lines a1 = u + pi/2 and a2 = pi/2
    # - u, where the sign is that of rounding noise
    u = math.atan2(params.k_m, params.arm_length * params.k_f)
    a1v = np.concatenate([rng.uniform(-math.pi, math.pi, 12), [u + math.pi / 2, u - math.pi / 2]])
    a2v = np.concatenate([rng.uniform(-math.pi, math.pi, 12), [math.pi / 2 - u, -math.pi / 2 - u]])
    for k, branch in enumerate(("blue", "red")):
        cm = tr.color_map(a1v, a2v, branch, params)
        for i, a1 in enumerate(a1v.tolist()):
            for j, a2 in enumerate(a2v.tolist()):
                sol = tr.solve_color_pair((a1, a2), params)[k]
                assert sol.color == branch
                assert sol.residual_sign == cm.residual_sign[i, j], (branch, a1, a2)


def test_curve_vertices_are_exact_zeros(params):
    grid = tr.AttitudeGrid.symmetric(1.2)
    worst, found = 0.0, 0
    for name in sorted(GAIT_PRESETS):
        g = tr.bias_gait(tr.build_preset(name, params), 0.8)
        for k in range(16):
            alpha = tuple(g.sample_raw(k * g.period_s / 16))
            coeffs = tr.det_decomposition(alpha, params)
            v = tr.singular_curves(alpha, grid, params).vertices()
            if len(v):
                found += 1
                gv = tr.normalized_det(v[:, 0], v[:, 1], coeffs)
                worst = max(worst, np.max(np.abs(gv)) / max(map(abs, coeffs.abc)))
    assert found > 0
    assert worst <= 1e-14


# ---------------------------------------------------------------------------
# boundary checks of the gait constructors


@settings(deadline=None)
@given(bad=NON_FINITE, slot=st.integers(0, 3), branch=st.sampled_from(sorted(OFFSETS)))
def test_rectangle_gait_rejects_non_finite_geometry(params, bad, slot, branch):
    geometry = [0.1, -0.2, 0.3, 0.25]
    geometry[slot] = bad
    with pytest.raises(ValueError, match="finite"):
        tr.make_rectangle_gait(geometry[:2], geometry[2:], 10.0, branch, params)


@given(center=st.tuples(ANGLE, ANGLE), extent=st.floats(1e-6, 1.0), slot=st.integers(0, 1))
def test_rectangle_gait_rejects_one_zero_half_extent(params, center, extent, slot):
    half = [extent, extent]
    half[slot] = 0.0
    with pytest.raises(ValueError, match="one is zero"):
        tr.make_rectangle_gait(center, half, 10.0, "blue", params)


@given(bad=NON_FINITE, slot=st.integers(0, 1))
def test_solve_color_pair_rejects_non_finite(params, bad, slot):
    a12 = [0.4, -0.3]
    a12[slot] = bad
    with pytest.raises(ValueError, match="finite"):
        tr.solve_color_pair(a12, params)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("slot", [0, 1])
def test_scan_roots_rejects_non_finite(params, bad, slot):
    a12 = [0.4, -0.3]
    a12[slot] = bad
    got = re.escape(repr(a12))
    with pytest.raises(ValueError, match=f"^alpha12 must be two finite numbers, got {got}$"):
        scan_roots(a12, params)


@given(bad=NON_FINITE, axis=st.integers(0, 1), index=st.integers(0, 4))
def test_color_map_rejects_non_finite(params, bad, axis, index):
    values = [np.linspace(-0.2, 0.2, 5), np.linspace(-0.2, 0.2, 5)]
    values[axis][index] = bad
    with pytest.raises(ValueError, match="finite"):
        tr.color_map(values[0], values[1], "blue", params)


@pytest.mark.parametrize("branch", ["green", "Blue", "", None, ("blue",)])
def test_gait_constructors_reject_unknown_branch(params, branch):
    with pytest.raises(ValueError, match="'blue' or 'red'"):
        tr.make_rectangle_gait((0.1, 0.2), (0.3, 0.3), 10.0, branch, params)
    with pytest.raises(ValueError, match="'blue' or 'red'"):
        tr.color_map(np.linspace(-0.1, 0.1, 3), np.linspace(-0.1, 0.1, 3), branch, params)
    with pytest.raises(ValueError, match="'blue' or 'red'"):
        _gait(color=branch)


def _gait(**changes):
    fields = dict(period_s=10.0, color="blue", bias=1.0, waypoints=[0.0, 0.5, 1.0],
                  alphas=[[0.0, 0.0, 0.0, 0.0], [0.2, 0.1, 0.2, 0.1], [0.0, 0.0, 0.0, 0.0]])
    fields.update(changes)
    return tr.Gait(**fields)


def test_gait_fixture_is_valid():
    assert _gait().color == "blue"
    assert _gait(color="red").color == "red"


@given(period=st.one_of(NON_FINITE, st.floats(max_value=0.0)))
def test_gait_rejects_bad_period(period):
    with pytest.raises(ValueError, match="period"):
        _gait(period_s=period)


@given(bad=NON_FINITE, row=st.integers(0, 2), col=st.integers(0, 3))
def test_gait_rejects_non_finite_angles(bad, row, col):
    alphas = np.zeros((3, 4))
    alphas[1] = 0.2
    alphas[row, col] = bad
    with pytest.raises(ValueError, match="finite"):
        _gait(alphas=alphas)


def test_gait_rejects_angles_whose_steps_overflow():
    # each angle is finite, but a step of -2e308 is not, and samples
    # between the rows would be infinite or NaN
    alphas = np.full((3, 4), 1e308)
    alphas[1] = -1e308
    with pytest.raises(ValueError, match="within half the float range"):
        _gait(alphas=alphas)
    alphas[1] = -0.5 * sys.float_info.max
    alphas[[0, 2]] = 0.5 * sys.float_info.max
    assert np.isfinite(_gait(alphas=alphas).sample_array(np.arange(10.0))).all()


def test_gait_rejects_nan_time_fraction():
    with pytest.raises(ValueError, match="time fractions"):
        _gait(waypoints=[0.0, math.nan, 1.0])


@pytest.mark.parametrize("waypoints", [
    [0.0, 0.5, 0.5, 1.0],     # equal consecutive fractions
    [0.0, 0.6, 0.4, 1.0],     # decreasing
    [0.1, 0.4, 0.6, 1.0],     # the first is not 0
    [0.0, 0.4, 0.6, 0.9],     # the last is not 1
], ids=["equal", "decreasing", "first", "last"])
def test_gait_rejects_bad_time_fractions(waypoints):
    alphas = np.zeros((4, 4))
    alphas[1:3] = 0.2
    with pytest.raises(ValueError, match="time fractions must increase strictly from 0 to 1"):
        _gait(waypoints=waypoints, alphas=alphas)


def test_gait_rejects_three_angle_columns():
    with pytest.raises(ValueError, match=r"need matching waypoint fractions and \(n, 4\) angles"):
        _gait(alphas=np.zeros((3, 3)))


def test_gait_must_close_within_1e6():
    alphas = np.zeros((3, 4))
    alphas[1] = 0.2
    alphas[-1, 2] = 1e-6
    assert _gait(alphas=alphas).alphas[-1, 2] == 1e-6
    alphas[-1, 2] = 2e-6
    with pytest.raises(ValueError, match="gait must close: first and last waypoints differ"):
        _gait(alphas=alphas)


@pytest.mark.parametrize("bias", [0.0, 1.5])
def test_gait_rejects_bias_outside_the_unit_interval(bias):
    with pytest.raises(ValueError, match=r"bias factor must lie in \(0, 1\], got"):
        _gait(bias=bias)
