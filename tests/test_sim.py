import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tiltrotor as tr
from tiltrotor import cli, gaitlab, sim
from tiltrotor._core import kernels
from tiltrotor._files import CSV_CHUNK, write_csv
from tiltrotor.control import InnerRefs, decoupler_core
from tiltrotor.errors import AbortedSingular
from tiltrotor.linearization import EPS_SING
from tiltrotor.model import EPS_REP
from tiltrotor.sim import TRACKLOG_HEADER, TRACK_BLOCK

from _oracles import abc_direct, branch_crossings, track_direct


@pytest.fixture(scope="module")
def gait1():
    return tr.build_preset("gait1", tr.Params())


LOG_ARRAYS = ("t", "states", "alpha", "varpi", "ref_pos", "det", "saturated", "singular")


def _gait1_rows(gait1_run, duration):
    """The rows of a default-start gait1 run of ``duration`` seconds, from the session's run.

    A shorter run's rows are the session run's first rows bit for bit
    (:func:`test_a_shorter_gait1_run_is_a_prefix_of_the_session_run`).
    The slice carries no end fields: only a run of its own can say how it
    ended.
    """
    log, _ = gait1_run
    k = round(duration / 1e-3) + 1
    return tr.TrackLog(**{name: getattr(log, name)[:k] for name in LOG_ARRAYS})


# ---------------------------------------------------------------------------
# reference


def test_circular_reference_values():
    r0, r = tr.circular_reference(np.array([0.0, 5 * math.pi]))
    np.testing.assert_allclose(r0[0:3], [5.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(r0[3:6], [0.0, 0.5, 0.0], atol=1e-15)
    np.testing.assert_array_equal(r0[6:9], [0.0, 0.0, 0.0])
    np.testing.assert_allclose(r[0:3], [0.0, 5.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(r[3:6], [-0.5, 0.0, 0.0], atol=1e-12)
    rows = tr.circular_reference(np.linspace(0.0, 100.0, 37))
    assert rows.shape == (37, 9)
    for rr in rows:
        pos, vel = rr[0:3], rr[3:6]
        assert abs(np.linalg.norm(pos) - 5.0) < 1e-12
        # counter-clockwise: the velocity is the position turned by +90 degrees
        np.testing.assert_allclose(vel, 0.1 * np.array([-pos[1], pos[0], 0.0]), atol=1e-12)
    np.testing.assert_array_equal(rows[:, 6:9], 0.0)


# ---------------------------------------------------------------------------
# closed-loop runs


def test_a_shorter_gait1_run_is_a_prefix_of_the_session_run(params, gains, gait1, gait1_run):
    log = tr.run_tracking(tr.SimConfig(duration=5.0), params, gains, gait1)
    assert len(log) == 5001
    _assert_rows_equal(log, gait1_run[0], 5001)


def test_initial_lift_deficit_and_recovery(params, gait1_run):
    log = _gait1_rows(gait1_run, 30.0)
    # 0.8 x hover speeds cannot balance gravity at t = 0
    d0 = tr.state_derivative(
        tr.State.from_array(log.states[0]), log.alpha[0],
        tr.speeds_to_input(log.varpi[0]), params,
    )
    # the plant holds the *initial* speeds for the first step, so check
    # the acceleration the deficit produces
    w_init = tr.speeds_to_input(params.spin_sign * 0.8 * params.hover_speed)
    dm = tr.decoupling_matrix(log.states[0][6:9], log.alpha[0], params)
    zdd0 = (dm.delta @ w_init)[3] - params.g
    assert zdd0 < 0.0
    # altitude recovers
    assert abs(log.states[-1][2]) < 0.05
    assert d0 is not None


def test_error_series(params, gains, gait1):
    config = tr.SimConfig(duration=0.5)
    log = tr.run_tracking(config, params, gains, gait1)
    err = tr.error_series(log)
    np.testing.assert_allclose(err.error[0], [5.0, 0.0, 0.0], atol=1e-15)
    assert err.norm[0] == 5.0
    # a log whose states sit on the reference has zero error
    fake = tr.TrackLog(
        t=log.t, states=log.states.copy(), alpha=log.alpha, varpi=log.varpi,
        ref_pos=log.states[:, 0:3].copy(), det=log.det,
        saturated=log.saturated, singular=log.singular,
    )
    np.testing.assert_array_equal(tr.error_series(fake).norm, np.zeros(len(log)))


def test_determinism_bit_identical(params, gains, gait1, tmp_path):
    config = tr.SimConfig(duration=2.0)
    log1 = tr.run_tracking(config, params, gains, gait1)
    log2 = tr.run_tracking(config, params, gains, gait1)
    assert np.array_equal(log1.as_matrix(), log2.as_matrix())
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    log1.to_csv(p1)
    log2.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("band", [None, (520.0, 600.0)])
def test_run_tracking_matches_public_composition(gains, gait1, band):
    # the loop shares sines and cosines between its layers and steps, and
    # builds the gait, tilt trig and reference ahead in blocks; the public
    # operations, and the decoupler core on the yaw's own sine and cosine,
    # take every one afresh, so both must agree row by row, across a block
    # boundary.  The narrow speed band saturates two rotors on most rows.
    params = tr.Params() if band is None else tr.Params(omega_lo=band[0], omega_hi=band[1])
    dt = 1e-3
    n_steps = max(500, TRACK_BLOCK + 10)
    log = tr.run_tracking(tr.SimConfig(duration=n_steps * dt, dt=dt), params, gains, gait1)
    assert len(log) == n_steps + 1 > TRACK_BLOCK
    state = tr.State()
    last = params.spin_sign * (0.8 * params.hover_speed)
    for i in range(len(log)):
        t = i * dt
        alpha = gait1.sample_raw(t)
        ref = tr.circular_reference(np.array([t]))[0]
        x = state.as_array().tolist()
        phi_ref, theta_ref = decoupler_core(
            x[0], x[1], x[3], x[4], math.sin(x[8]), math.cos(x[8]),
            *ref[0:2].tolist(), *ref[3:5].tolist(), *ref[6:8].tolist(),
            gains.kp_xy, gains.kd_xy, gains.clamp, params.g,
        )
        out = tr.fl_inner_loop(state, alpha, InnerRefs(value=[phi_ref, theta_ref, 0.0, 0.0]),
                               gains, params, last_command=last)
        np.testing.assert_allclose(log.states[i], state.as_array(), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(log.alpha[i], alpha, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(log.ref_pos[i], ref[0:3], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(log.varpi[i], out.varpi_cmd, rtol=1e-12)
        np.testing.assert_allclose(log.det[i], out.det_delta, rtol=1e-12)
        assert log.saturated[i].tolist() == out.saturated.tolist()
        assert log.singular[i] == out.singular
        if not out.singular:
            last = out.varpi_cmd
        # zero-order hold on the command
        state = tr.integrate_step(state, gait1.sample_raw, out.varpi_cmd, t, dt, params)
    assert log.saturated.any() == (band is not None)


@pytest.mark.parametrize("preset, band", [
    ("gait1", None), ("gait1", (520.0, 600.0)), ("gait2", None),
], ids=["gait1", "gait1-saturating", "gait2"])
def test_run_tracking_matches_the_direct_oracle(gains, preset, band):
    # track_direct shares none of the loop's kernels: numpy matrices, det and
    # solve, and textbook RK4 of the oracle derivative.  gait1 runs across a
    # block boundary in the default band and in a narrow band that saturates
    # two rotors on most rows; gait2 runs to its determinant abort at row 799
    params = tr.Params() if band is None else tr.Params(omega_lo=band[0], omega_hi=band[1])
    gait = tr.build_preset(preset, params)
    dt = 1e-3
    n_steps = max(500, TRACK_BLOCK + 10) if preset == "gait1" else 1000
    want = track_direct(gait, params, gains, n_steps, dt, EPS_SING)
    try:
        log = tr.run_tracking(tr.SimConfig(duration=n_steps * dt, dt=dt), params, gains, gait)
    except AbortedSingular as exc:
        log = exc.log
    if preset == "gait2":
        assert log.end_reason == want["end_reason"] == "determinant"
        assert len(log) == len(want["t"]) == 800
    else:
        assert log.end_reason == want["end_reason"] == "completed"
        assert len(log) == len(want["t"]) == n_steps + 1 > TRACK_BLOCK + 10
    np.testing.assert_array_equal(log.t, want["t"])
    for name in ("states", "alpha", "ref_pos"):
        np.testing.assert_allclose(getattr(log, name), want[name], rtol=1e-12, atol=1e-15,
                                   err_msg=name)
    np.testing.assert_allclose(log.varpi, want["varpi"], rtol=1e-12)
    # det to 1e-12 of the matrix's scale, the product of its row norms: the
    # plain relative error of a determinant grows as 1 / ratio near a
    # singular row (1.3e-12 at gait2's row 799, ratio 9.8e-5)
    assert np.all(np.abs(log.det - want["det"]) <= 1e-12 * want["det_scale"])
    ratios = np.abs(want["det"]) / want["det_scale"]
    assert abs(log.min_det_ratio - ratios.min()) <= 1e-12
    assert log.min_det_ratio_time == want["t"][np.argmin(ratios)]
    np.testing.assert_array_equal(log.saturated, want["saturated"])
    np.testing.assert_array_equal(log.singular, want["singular"])
    # gait2 saturates before it turns singular; gait1 only in the narrow band
    assert log.saturated.any() == (preset == "gait2" or band is not None)


def test_zero_order_hold_consistency(params, gains, gait1, gait1_run):
    base = _gait1_rows(gait1_run, 10.0)
    fine = tr.run_tracking(tr.SimConfig(duration=10.0, dt=5e-4), params, gains, gait1)
    diff = np.linalg.norm(base.states[-1][0:3] - fine.states[-1][0:3])
    assert diff < 1e-3


def test_log_schema_and_bounds(params, gains, gait1):
    config = tr.SimConfig(duration=1.0)
    log = tr.run_tracking(config, params, gains, gait1)
    assert len(log) == int(round(config.duration / config.dt)) + 1
    assert np.all(np.diff(log.t) > 0)
    mags = np.abs(log.varpi)
    assert np.all(mags >= params.omega_lo - 1e-12)
    assert np.all(mags <= params.omega_hi + 1e-12)
    m = log.as_matrix()
    assert m.shape == (len(log), 30)
    assert TRACKLOG_HEADER.count(",") == 29


def test_rotor_speed_continuity(params, gait1_run):
    log = _gait1_rows(gait1_run, 40.0)
    jumps = np.abs(np.diff(log.varpi[log.t > 20.0], axis=0))
    assert jumps.max() < (params.omega_hi - params.omega_lo) / 10.0


def test_csv_roundtrip_full_precision(params, gains, gait1, tmp_path):
    log = tr.run_tracking(tr.SimConfig(duration=0.3), params, gains, gait1)
    path = tmp_path / "track.csv"
    log.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == TRACKLOG_HEADER
    loaded = tr.TrackLog.from_csv(path)
    assert np.array_equal(loaded.as_matrix(), log.as_matrix())


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(rows=st.integers(1, 12).flatmap(lambda n: st.tuples(
    hnp.arrays(float, (n, 25), elements=_finite),
    hnp.arrays(bool, (n, 5)),
)))
def test_csv_roundtrip_any_log(rows):
    # every finite float, flag and row count survives the 17-digit text
    values, flags = rows
    log = tr.TrackLog(
        t=values[:, 0], states=values[:, 1:13], alpha=values[:, 13:17],
        varpi=values[:, 17:21], ref_pos=values[:, 21:24], det=values[:, 24],
        saturated=flags[:, 0:4], singular=flags[:, 4],
    )
    buf = io.StringIO()
    log.to_csv(buf)
    buf.seek(0)
    loaded = tr.TrackLog.from_csv(buf)
    assert loaded.as_matrix().tobytes() == log.as_matrix().tobytes()


def _savetxt_lines(matrix, header):
    # compared as lists of lines: a failing comparison of the whole text
    # makes pytest diff about a megabyte character by character
    oracle = io.StringIO()
    np.savetxt(oracle, matrix, fmt="%.17g", delimiter=",", header=header, comments="")
    return oracle.getvalue().split("\n")


# doubles whose 17-digit product lies within 3e-15 of a tie, where the
# writer's double-double arithmetic rounds the wrong way: found by solving
# (m * c) mod M near M / 2 for the mantissa m, binade by binade of 1e-99 to 1e99
NEAR_TIES = ("0x1.370c26fed5112p-328", "0x1.0a5e71d51dc8bp-94", "0x1.578bbd6e9cf3cp-98",
             "0x1.8a7a30d361a04p+128", "0x1.ef5472b801038p+138", "0x1.647673c907592p+328")


def test_csv_text_is_that_of_savetxt(tmp_path, params):
    # the chunked writer against np.savetxt as the oracle, on a log longer
    # than one chunk and not a multiple of it, through a path and a stream
    rng = np.random.default_rng(7)
    n = 2 * CSV_CHUNK + 37
    values = rng.standard_normal((n, 25)) * 10.0 ** rng.integers(-300, 300, (n, 25))
    values[::5, 3] = 0.0
    values[1::5, 4] = -0.0
    values[2::7, 5] = 5e-324
    flags = rng.random((n, 5)) < 0.3
    log = tr.TrackLog(
        t=values[:, 0], states=values[:, 1:13], alpha=values[:, 13:17],
        varpi=values[:, 17:21], ref_pos=values[:, 21:24], det=values[:, 24],
        saturated=flags[:, 0:4], singular=flags[:, 4],
    )
    want = _savetxt_lines(log.as_matrix(), TRACKLOG_HEADER)
    assert len(want) == n + 2 and want[-1] == ""
    buf = io.StringIO()
    log.to_csv(buf)
    assert buf.getvalue().split("\n") == want
    path = tmp_path / "track.csv"
    log.to_csv(path)
    assert path.read_bytes().decode().split("\n") == want

    # the digit kernel's hard cases, as one column over several chunks:
    # exact ties (1 + j * 2**-17 ends in a 5 at its 18th digit); the edges
    # of fixed notation; powers of ten and their neighbours, some of which
    # round up to the next power; near-ties whose double-double product
    # falls on the wrong side of the tie; nan, inf and random bit patterns
    edges = np.array([1e-5, 1e-4, np.nextafter(1e-4, 0.0), 1e16, 99999999999999984.0, 1e17])
    tens = 10.0 ** np.arange(-110, 111)
    column = np.concatenate([
        1.0 + np.arange(2 * CSV_CHUNK) * 2.0 ** -17, edges, -edges,
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        [float.fromhex(h) for h in NEAR_TIES], [np.nan, np.inf, -np.inf, 0.0, -0.0],
        rng.integers(0, 2 ** 64, 4 * CSV_CHUNK, dtype=np.uint64).view(np.float64),
    ])
    buf = io.StringIO()
    write_csv(buf, "x", [column])
    assert buf.getvalue().split("\n") == _savetxt_lines(column[:, None], "x")

    # the other tables the package writes, each against its rows built
    # one by one: the colormap grid, row-major over (alpha1, alpha2)
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), "colormap", "--branch", "red",
                     "--range", "0.5", "--res", "7"]) == 0
    grid_values = np.linspace(-0.5, 0.5, 7)
    cm = gaitlab.color_map(grid_values, grid_values, "red", params)
    rows = [[a1, a2, cm.alpha3[i, j], cm.alpha4[i, j], cm.residual_sign[i, j]]
            for i, a1 in enumerate(grid_values) for j, a2 in enumerate(grid_values)]
    want = _savetxt_lines(np.array(rows), "alpha1,alpha2,alpha3,alpha4,residual_sign")
    assert (out / "colormap_red.csv").read_bytes().decode().split("\n") == want

    # the curves table: each polyline's vertices with its number, the
    # gait's curves first, then the biased gait's
    assert cli.main(["--out", str(out), "curves", "--preset", "gait2", "--phases", "4",
                     "--grid-res", "41"]) == 0
    gait = tr.build_preset("gait2", params)
    attitudes = tr.AttitudeGrid.symmetric(1.3, 41)
    polys = [poly for g in (gait, tr.bias_gait(gait, 0.8))
             for cs in gaitlab.curves_and_report(g, attitudes, 4, params)[0] for poly in cs.curves]
    rows = [[phi, theta, k] for k, poly in enumerate(polys) for phi, theta in poly]
    assert len(polys) > 2
    want = _savetxt_lines(np.array(rows), "phi,theta,curve_id")
    assert (out / "curves.csv").read_bytes().decode().split("\n") == want

    # a gait: one row per waypoint, its fraction and its angles
    gait.to_csv(out / "gait.csv")
    rows = [[u, *a] for u, a in zip(gait.waypoints, gait.alphas)]
    want = _savetxt_lines(np.array(rows), "t_frac,alpha1,alpha2,alpha3,alpha4")
    assert (out / "gait.csv").read_bytes().decode().split("\n") == want


@given(st.floats())
def test_csv_text_of_any_float_is_that_of_g17(x):
    buf = io.StringIO()
    write_csv(buf, "x", [np.array([x])])
    assert buf.getvalue() == "x\n" + "%.17g\n" % x


def test_csv_writer_holds_no_copy_of_the_log():
    # a 20 s log's worth of rows: the writer's peak stays below half of one
    # (n, 30) float64 matrix, so it never builds the whole as_matrix copy.
    # Only memory is measured here (zeros format fastest under tracing);
    # test_csv_text_is_that_of_savetxt checks the text.
    n = 20_001
    values = np.zeros((n, 25))
    flags = np.zeros((n, 5), dtype=bool)
    log = tr.TrackLog(
        t=values[:, 0], states=values[:, 1:13], alpha=values[:, 13:17],
        varpi=values[:, 17:21], ref_pos=values[:, 21:24], det=values[:, 24],
        saturated=flags[:, 0:4], singular=flags[:, 4],
    )

    class Discard:
        def write(self, text):
            pass

    tracemalloc.start()
    try:
        log.to_csv(Discard())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * n * 30 * 8


# files that are not tracking logs: a gait CSV, a log's header alone, and
# 30 numbers a row under another header
NOT_LOGS = {
    "gait": "t_frac,alpha1,alpha2,alpha3,alpha4\n0,0,0,0,0\n1,0,0,0,0\n",
    "header-only": TRACKLOG_HEADER + "\n",
    "other-header": ",".join(f"c{k}" for k in range(30)) + "\n" + ",".join(["0"] * 30) + "\n",
}


@pytest.mark.parametrize("text", NOT_LOGS.values(), ids=NOT_LOGS.keys())
def test_from_csv_refuses_what_is_not_a_log(tmp_path, text):
    path = tmp_path / "not_a_log.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="not_a_log.csv"):
        tr.TrackLog.from_csv(path)


def test_abort_on_singular_gait(params, gains):
    gait2 = tr.build_preset("gait2", params)
    with pytest.raises(AbortedSingular) as exc_info:
        tr.run_tracking(tr.SimConfig(duration=120.0), params, gains, gait2)
    log = exc_info.value.log
    assert log is not None and log.aborted
    assert 0.0 < log.abort_time < 120.0
    assert log.singular[-1]
    assert len(log) == int(round(log.abort_time / 1e-3)) + 1


@pytest.mark.parametrize("preset, end", [("gait2", 0.799), ("gait3", 4.064)])
def test_abort_reason_determinant(params, gains, preset, end):
    with pytest.raises(AbortedSingular, match="singular decoupling matrix") as exc_info:
        tr.run_tracking(tr.SimConfig(duration=120.0), params, gains, tr.build_preset(preset, params))
    exc = exc_info.value
    assert exc.log.end_reason == "determinant" and exc.log.abort_time == end
    assert str(exc) == f"tracking aborted on singular decoupling matrix at t={end:.3f} s"
    assert len(exc.log) == round(end / 1e-3) + 1


@pytest.mark.parametrize("preset, crossings, aborted_before", [
    ("gait1", [], None), ("gait2", [0.799168, 4.200832], 0), ("gait3", [1.146583, 4.064371], 1),
])
def test_aborts_fall_at_two_color_map_crossings(params, gains, preset, crossings, aborted_before):
    # the paper's failing gaits fail where on-branch C changes sign: A = B =
    # C = 0 there, so the matrix is singular at every attitude.  gait2 aborts
    # on the row before its first crossing; gait3 steps over its first and
    # aborts on the row before its second; gait1 has no crossing
    gait = tr.build_preset(preset, params)
    found = branch_crossings(gait, params)
    assert found == pytest.approx(crossings, abs=1e-6)
    if aborted_before is None:
        return
    config = tr.SimConfig(duration=120.0)
    with pytest.raises(AbortedSingular) as exc_info:
        tr.run_tracking(config, params, gains, gait)
    end = exc_info.value.log.abort_time
    assert 0.0 < found[aborted_before] - end <= config.dt
    assert all(t + config.dt < end for t in found[:aborted_before])


# seeded rectangle gaits, closed loop: each draws its centre, then its half
# extents, from this seed, on the blue branch for even draws and the red one
# for odd ones, with a 10 s period, and runs 10 s from the default start
CLOSED_LOOP_SEED = 0
CLOSED_LOOP_DRAWS = 12


def _seeded_rectangle_runs(params, gains):
    rng = np.random.default_rng(CLOSED_LOOP_SEED)
    for k in range(CLOSED_LOOP_DRAWS):
        centre, half = rng.uniform(-0.6, 0.6, 2), rng.uniform(0.05, 0.35, 2)
        gait = tr.make_rectangle_gait(centre, half, 10.0, ("blue", "red")[k % 2], params)
        try:
            log = tr.run_tracking(tr.SimConfig(duration=10.0), params, gains, gait)
        except AbortedSingular as exc:
            log = exc.log
        yield k, gait, log


def test_determinant_factors_in_closed_loop_on_seeded_rectangles(params, gains):
    # On a branch plane A = B = 0 (to rounding), so m det(I_B) det(Delta) =
    # cos(phi) C, and the loop can lose authority only where one of three
    # factors is small: f_C = |C| / (4 k_f rho^3) with rho = hypot(arm k_f,
    # k_m), |cos(phi)| or cos(theta).  The bound on them, from the ratio's
    # factored form Delta = blockdiag(T, 1) @ [Q; v]:
    # * rows 0-2 are T_i Q, with |T_0| = |T_2| = 1 / cos(theta) and |T_1| = 1,
    #   and |Q| <= |torque map|_F / lambda_min(I_B) = 2 rho / lambda_min, as
    #   each torque-map column has norm rho;
    # * row 3 is v = R[2, :] @ thrust map / m, whose columns have norm k_f,
    #   so |v| <= 2 k_f / m;
    # so prod(row norms) <= 16 k_f rho^3 / (m lambda_min^3 cos(theta)^2) and
    # ratio >= kappa f_C |cos(phi)| cos(theta)^2, kappa = lambda_min^3 / (4
    # det(I_B)).  A determinant abort has ratio < EPS_SING, so its row has
    # f_C |cos(phi)| cos(theta)^2 < EPS_SING / kappa, and its least factor
    # is below (EPS_SING / kappa)^(1/4), 0.168 at the default inertia.
    lam = np.linalg.eigvalsh(params.inertia)
    kappa = lam.min() ** 3 / (4.0 * np.linalg.det(params.inertia))
    c_unit = 4.0 * params.k_f * math.hypot(params.arm_length * params.k_f, params.k_m) ** 3
    reasons, crossed, rolled = set(), 0, 0
    for k, gait, log in _seeded_rectangle_runs(params, gains):
        reasons.add(log.end_reason)
        # the least ratio is below EPS_SING exactly when the run hit the test
        assert (log.min_det_ratio < EPS_SING) == (log.end_reason == "determinant"), k
        if log.end_reason == "determinant":
            phi, theta = log.states[-1, 6:8].tolist()
            f = (abs(abc_direct(log.alpha[-1], params)[2]) / c_unit, abs(math.cos(phi)),
                 math.cos(theta))
            assert f[0] * f[1] * f[2] ** 2 < EPS_SING / kappa, (k, f)
            assert min(f) < (EPS_SING / kappa) ** 0.25, (k, f)
        # det = cos(phi) C / (m det(I_B)) changes sign between two evaluated
        # rows exactly when an odd number of passes lies between them: Two
        # Color Map crossings of C (bisected by the oracle; each is the last
        # time before C's sign changes) and passes of phi through pi/2 (mod pi)
        # a pitch-guard abort row logs det = 0 without evaluating the law
        n = len(log) - (log.end_reason == "pitch_guard")
        t, det, phi = log.t[:n], log.det[:n], log.states[:n, 6]
        crossings = np.searchsorted(branch_crossings(gait, params), t)
        rolls = np.floor((phi - 0.5 * math.pi) / math.pi)
        passes = np.diff(crossings) + np.abs(np.diff(rolls))
        crossed += int(crossings[-1] - crossings[0])
        rolled += int(np.abs(np.diff(rolls)).sum())
        changed = np.signbit(det[1:]) != np.signbit(det[:-1])
        odd = passes % 2 == 1
        assert np.array_equal(changed, odd), (k, t[1:][changed != odd])
    # the draws meet both kinds of pass and both ends
    assert reasons == {"completed", "determinant"} and crossed and rolled


def test_abort_reason_pitch_guard(params, gains, gait1):
    start = tr.State(eta=[0.0, math.pi / 2 - 0.5 * EPS_REP, 0.0])
    with pytest.raises(AbortedSingular, match="guard band") as exc_info:
        tr.run_tracking(tr.SimConfig(duration=1.0, initial_state=start), params, gains, gait1)
    exc = exc_info.value
    assert exc.log.end_reason == "pitch_guard"
    assert exc.log.abort_time == 0.0 and len(exc.log) == 1
    assert exc.log.singular[0] and exc.log.det[0] == 0.0
    np.testing.assert_array_equal(exc.log.states[-1], start.as_array())
    # the control law never ran, so there is no determinant ratio to report
    assert exc.log.end_reason == "pitch_guard"
    assert exc.log.min_det_ratio is None and exc.log.min_det_ratio_time is None


# ---------------------------------------------------------------------------
# how a run ended and how close it came to the singular test


def test_gait1_completes_with_its_determinant_margin(gait1_run):
    log, _ = gait1_run
    assert log.end_reason == "completed" and not log.aborted
    assert log.min_det_ratio >= 0.81
    assert 0.0 <= log.min_det_ratio_time <= 120.0
    assert "completed" in log.summary()


def _least_row_ratio(log, params):
    ratios = [tr.decoupling_matrix(x[6:9], a, params).ratio
              for x, a in zip(log.states, log.alpha)]
    i = int(np.argmin(ratios))
    return ratios[i], log.t[i]


def test_min_det_ratio_is_the_least_ratio_of_the_logged_rows(params, gains, gait1):
    log = tr.run_tracking(tr.SimConfig(duration=12.0), params, gains, gait1)
    ratio, t = _least_row_ratio(log, params)
    assert abs(log.min_det_ratio - ratio) <= 1e-12
    assert log.min_det_ratio_time == t


def test_gait2_ends_on_the_determinant_test(params, gains):
    with pytest.raises(AbortedSingular) as exc_info:
        tr.run_tracking(tr.SimConfig(duration=120.0), params, gains,
                        tr.build_preset("gait2", params))
    log = exc_info.value.log
    assert log.end_reason == "determinant"
    assert log.min_det_ratio < 1e-4 and log.min_det_ratio_time == 0.799
    ratio, t = _least_row_ratio(log, params)
    assert abs(log.min_det_ratio - ratio) <= 1e-12 and t == log.min_det_ratio_time


def test_end_fields_agree(params, gains, gait1, tmp_path):
    # aborted and abort_time are read from end_reason and the last row, for
    # a completed run, each abort reason, and a log read back from CSV
    def aborted_log(config, gait):
        with pytest.raises(AbortedSingular) as exc_info:
            tr.run_tracking(config, params, gains, gait)
        exc = exc_info.value
        # the message is built from the log's end reason and abort time
        message = AbortedSingular.MESSAGES[exc.log.end_reason]
        assert str(exc) == f"{message} at t={exc.log.abort_time:.3f} s"
        return exc.log

    done = tr.run_tracking(tr.SimConfig(duration=0.05), params, gains, gait1)
    determinant = aborted_log(tr.SimConfig(duration=1.0), tr.build_preset("gait2", params))
    kick = tr.State(eta=[0.0, 1.2, 0.0], omega=[0.0, 10.0, 0.0])
    pitch = aborted_log(tr.SimConfig(duration=1.0, initial_state=kick), gait1)
    done.to_csv(tmp_path / "done.csv")
    read = tr.TrackLog.from_csv(tmp_path / "done.csv")
    cases = [(done, "completed", False, None), (determinant, "determinant", True, 0.799),
             (pitch, "pitch_guard", True, 0.037), (read, None, False, None)]
    for log, reason, aborted, at in cases:
        assert (log.end_reason, log.aborted, log.abort_time) == (reason, aborted, at), reason
    # the stored fields are gone from the constructor
    arrays = {name: getattr(done, name) for name in LOG_ARRAYS}
    for extra in ({"aborted": True}, {"abort_time": 0.05}):
        with pytest.raises(TypeError):
            tr.TrackLog(**arrays, **extra)
    # an abort is built only from a log that ended in one
    for log in (done, read):
        with pytest.raises(ValueError, match="unknown abort reason"):
            AbortedSingular(log)


def _det_identity(log, params):
    # det Delta from the logged alpha and (phi, theta) alone, through the
    # determinant decomposition, independent of the loop's 4x4 assembly
    scale = params.m * np.linalg.det(params.inertia)
    phi, theta = log.states[:, 6], log.states[:, 7]
    return np.array([
        float(tr.normalized_det(f, th, tr.det_decomposition(a, params))) / (scale * math.cos(th))
        for f, th, a in zip(phi.tolist(), theta.tolist(), log.alpha)
    ])


def test_logged_det_matches_the_det_identity(params, gains, gait1_run):
    log = _gait1_rows(gait1_run, 5.0)
    with pytest.raises(AbortedSingular) as exc_info:
        tr.run_tracking(tr.SimConfig(duration=120.0), params, gains,
                        tr.build_preset("gait2", params))
    for run in (log, exc_info.value.log):
        err = np.abs(run.det - _det_identity(run, params))
        assert err.max() <= 1e-12 * np.abs(run.det).max()
    # gait1 stays on the blue plane, where A = B = 0: det = cos(phi) C / (m det(I_B))
    # with the closed-form on-branch C, without the determinant decomposition
    C = gaitlab._on_branch_c(log.alpha[:, 0], log.alpha[:, 1], params)
    on_branch = np.cos(log.states[:, 6]) * C / (params.m * np.linalg.det(params.inertia))
    assert np.abs(log.det - on_branch).max() <= 1e-12 * np.abs(log.det).max()


def test_public_matrix_is_the_loops_law(params, gains, gait1_run):
    # every 7th row and the last: the explicit matrix gives the logged det
    # bit for bit and the logged singular flag, the abort rows included.
    # The tilt trig is taken with numpy, as the loop takes it
    runs = [_gait1_rows(gait1_run, 5.0)]
    for name in ("gait2", "gait3"):
        with pytest.raises(AbortedSingular) as exc_info:
            tr.run_tracking(tr.SimConfig(duration=120.0), params, gains,
                            tr.build_preset(name, params))
        runs.append(exc_info.value.log)
    for log in runs:
        trig = np.hstack((np.sin(log.alpha), np.cos(log.alpha))).tolist()
        rows = sorted({*range(0, len(log), 7), len(log) - 1})
        for i in rows:
            x = log.states[i].tolist()
            _, _, det, _ = kernels.decoupling(
                kernels.attitude_trig(*x[6:9]), *x[9:12], tuple(trig[i]), params.pack)
            assert det == log.det[i], (log.t[i], det, log.det[i])
            dm = tr.decoupling_matrix(x[6:9], log.alpha[i], params)
            assert dm.is_singular() == log.singular[i], log.t[i]
    assert [log.singular[-1] for log in runs] == [False, True, True]


# ---------------------------------------------------------------------------
# block construction of the loop


# runs that end around half a block (inside the first block), around one
# block, and just past two blocks
@pytest.mark.parametrize("n_steps", sorted({
    TRACK_BLOCK // 2 - 1, TRACK_BLOCK // 2, TRACK_BLOCK // 2 + 1,
    TRACK_BLOCK - 1, TRACK_BLOCK, TRACK_BLOCK + 1, 2 * TRACK_BLOCK + 1}))
def test_alpha_column_is_the_gait_at_every_block_size(params, gains, gait1, n_steps):
    dt = 1e-3
    log = tr.run_tracking(tr.SimConfig(duration=n_steps * dt, dt=dt), params, gains, gait1)
    assert len(log) == n_steps + 1
    for i in range(len(log)):
        np.testing.assert_array_equal(log.alpha[i], gait1.sample_raw(i * dt))


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_log_does_not_depend_on_the_block_size(params, gains, gait1, monkeypatch, block):
    config = tr.SimConfig(duration=0.6)
    want = tr.run_tracking(config, params, gains, gait1).as_matrix()
    monkeypatch.setattr(sim, "TRACK_BLOCK", block)
    assert np.array_equal(tr.run_tracking(config, params, gains, gait1).as_matrix(), want)


def test_abort_inside_a_block(params, gains, monkeypatch):
    # the gait2 abort row is neither the first nor the last of its block
    assert 799 % TRACK_BLOCK not in (0, TRACK_BLOCK - 1)
    gait2 = tr.build_preset("gait2", params)

    def run():
        with pytest.raises(AbortedSingular) as exc_info:
            tr.run_tracking(tr.SimConfig(duration=120.0), params, gains, gait2)
        return exc_info.value

    exc = run()
    assert exc.log.abort_time == 799 * 1e-3 and len(exc.log) == 800
    assert exc.log.singular[-1] and not exc.log.singular[:-1].any()
    # one row per block: every row is a block boundary
    monkeypatch.setattr(sim, "TRACK_BLOCK", 1)
    one = run()
    assert one.log.abort_time == exc.log.abort_time
    assert one.log.as_matrix().tobytes() == exc.log.as_matrix().tobytes()


def _assert_rows_equal(log, want, rows):
    # every log column of the first ``rows`` rows, bit for bit
    for name in LOG_ARRAYS:
        assert np.array_equal(getattr(log, name)[:rows], getattr(want, name)[:rows]), name


def _assert_abort_row(log, exc, gait, dt):
    # the abort row: the state the run stopped in, the gait and reference at its time
    k = len(log) - 1
    assert np.array_equal(log.states[k], exc.log.states[-1])
    assert np.array_equal(log.alpha[k], gait.sample_raw(k * dt))
    assert np.array_equal(log.ref_pos[k], tr.circular_reference(np.array([k * dt]))[0, :3])
    assert log.singular[k]


def test_determinant_abort_keeps_the_buffered_rows(params, gains):
    # the abort row 799 is mid-block: the rows buffered since the block
    # start reach the log, equal to those of a run that ends just before it
    gait2 = tr.build_preset("gait2", params)
    with pytest.raises(AbortedSingular) as exc_info:
        tr.run_tracking(tr.SimConfig(duration=120.0), params, gains, gait2)
    exc = exc_info.value
    log = exc.log
    assert len(log) == 800 and 799 % TRACK_BLOCK not in (0, TRACK_BLOCK - 1)
    done = tr.run_tracking(tr.SimConfig(duration=0.798), params, gains, gait2)
    assert done.end_reason == "completed" and len(done) == 799
    _assert_rows_equal(log, done, 799)
    _assert_abort_row(log, exc, gait2, 1e-3)


def test_pitch_guard_abort_keeps_the_buffered_rows(params, gains, gait1, monkeypatch):
    # a pitch kick that reaches the guard band mid-block, three blocks in,
    # with no singular row before it
    dt = 1e-3
    monkeypatch.setattr(sim, "TRACK_BLOCK", 16)
    start = tr.State(eta=[0.0, 1.2, 0.0], omega=[0.0, 10.0, 0.0])
    with pytest.raises(AbortedSingular) as exc_info:
        tr.run_tracking(tr.SimConfig(duration=3.0, initial_state=start), params, gains, gait1)
    exc = exc_info.value
    log, k = exc.log, len(exc.log) - 1
    assert log.end_reason == "pitch_guard" and k == 37
    assert k // 16 == 2 and k % 16 not in (0, 15)
    assert not log.singular[:k].any()
    done = tr.run_tracking(tr.SimConfig(duration=(k - 1) * dt, initial_state=start),
                           params, gains, gait1)
    assert done.end_reason == "completed" and len(done) == k
    _assert_rows_equal(log, done, k)
    _assert_abort_row(log, exc, gait1, dt)
    assert abs(log.states[k, 7]) >= math.pi / 2 - EPS_REP
    assert log.det[k] == 0.0


def test_run_tracks_the_circle_rows(params, gains, gait1):
    # the run logs the circle's rows, and the one-time float form the
    # benchmark tracer wraps agrees with them
    config = tr.SimConfig(duration=0.6)
    log = tr.run_tracking(config, params, gains, gait1)
    t = np.arange(len(log)) * config.dt
    rows = tr.circular_reference(t)
    np.testing.assert_allclose(log.ref_pos, rows[:, 0:3], rtol=1e-12, atol=1e-15)
    floats = [tr.circular_reference.floats(v) for v in t.tolist()]
    np.testing.assert_allclose(rows, floats, rtol=1e-12, atol=1e-15)


def test_config_validation():
    with pytest.raises(ValueError):
        tr.SimConfig(duration=0.0)
    with pytest.raises(ValueError):
        tr.SimConfig(dt=-1e-3)


@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       field=st.sampled_from(["duration", "dt"]))
def test_config_rejects_non_finite(bad, field):
    with pytest.raises(ValueError, match="finite"):
        tr.SimConfig(**{field: bad})


@pytest.mark.parametrize("initial", [np.zeros(12), None], ids=["array", "none"])
def test_config_rejects_an_initial_state_that_is_not_a_state(initial):
    with pytest.raises(TypeError, match="initial_state must be a State"):
        tr.SimConfig(initial_state=initial)


@given(duration=st.floats(1e-6, 1e3), over=st.floats(1.0, 1e3, exclude_min=True))
def test_config_rejects_dt_above_duration(duration, over):
    assume(duration * over > duration)
    with pytest.raises(ValueError, match="exceeds"):
        tr.SimConfig(duration=duration, dt=duration * over)


@pytest.mark.parametrize("duration, dt", [(1e300, 1e-3), (1.0, 1e-300), (1e300, 1e-300)])
def test_config_rejects_a_log_numpy_cannot_index(duration, dt):
    with pytest.raises(ValueError, match=r"duration \S+ / dt \S+ is more steps than numpy can index"):
        tr.SimConfig(duration=duration, dt=dt)


def test_config_takes_the_longest_log_numpy_can_index():
    # rows of 12 float64s: numpy indexes at most intp.max bytes
    rows = np.iinfo(np.intp).max // 96
    longest = tr.SimConfig(duration=np.nextafter(float(rows), 0.0), dt=1.0)
    assert (longest.n_steps + 1) * 96 <= np.iinfo(np.intp).max
    with pytest.raises(ValueError, match="more steps than numpy can index"):
        tr.SimConfig(duration=np.nextafter(float(rows), np.inf), dt=1.0)


@pytest.mark.parametrize("duration, rows", [(0.0105, 11), (0.0115, 13), (0.0104, 11),
                                            (0.001, 2)])
def test_duration_snaps_to_dt_grid(params, gains, gait1, duration, rows):
    # round(duration / dt) steps, ties to even: 10.5 -> 10, 11.5 -> 12
    log = tr.run_tracking(tr.SimConfig(duration=duration, dt=1e-3), params, gains, gait1)
    assert len(log) == rows
