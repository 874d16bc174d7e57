import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tiltrotor as tr
from tiltrotor import gaitlab, sim
from tiltrotor.control import InnerRefs, decoupler_core
from tiltrotor.errors import AbortedSingular
from tiltrotor.linearization import EPS_SING
from tiltrotor.model import EPS_REP
from tiltrotor.sim import TRACKLOG_HEADER, TRACK_BLOCK

from _oracles import track_direct


@pytest.fixture(scope="module")
def gait1():
    return tr.build_preset("gait1", tr.Params())


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


def test_initial_lift_deficit_and_recovery(params, gains, gait1):
    config = tr.SimConfig(duration=30.0)
    log = tr.run_tracking(config, params, gains, gait1)
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


def test_zero_order_hold_consistency(params, gains, gait1):
    base = tr.run_tracking(tr.SimConfig(duration=10.0, dt=1e-3), params, gains, gait1)
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


def test_rotor_speed_continuity(params, gains, gait1):
    log = tr.run_tracking(tr.SimConfig(duration=40.0), params, gains, gait1)
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


def test_csv_text_is_that_of_savetxt(tmp_path):
    # the chunked writer against np.savetxt as the oracle, on a log longer
    # than one chunk and not a multiple of it, through a path and a stream
    rng = np.random.default_rng(7)
    n = 2 * sim.CSV_CHUNK + 37
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
    oracle = io.StringIO()
    np.savetxt(oracle, log.as_matrix(), fmt="%.17g", delimiter=",",
               header=TRACKLOG_HEADER, comments="")
    # compared as lists of lines: a failing comparison of the whole text
    # makes pytest diff about a megabyte character by character
    want = oracle.getvalue().split("\n")
    assert len(want) == n + 2 and want[-1] == ""
    buf = io.StringIO()
    log.to_csv(buf)
    assert buf.getvalue().split("\n") == want
    path = tmp_path / "track.csv"
    log.to_csv(path)
    assert path.read_text().split("\n") == want


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


def test_abort_on_singular_gait(params, gains):
    gait2 = tr.build_preset("gait2", params)
    with pytest.raises(AbortedSingular) as exc_info:
        tr.run_tracking(tr.SimConfig(duration=120.0), params, gains, gait2)
    exc = exc_info.value
    assert 0.0 < exc.time < 120.0
    assert exc.log is not None and exc.log.aborted
    assert exc.log.singular[-1]
    assert len(exc.log) == int(round(exc.time / 1e-3)) + 1


@pytest.mark.parametrize("preset, end", [("gait2", 0.799), ("gait3", 4.064)])
def test_abort_reason_determinant(params, gains, preset, end):
    with pytest.raises(AbortedSingular, match="singular decoupling matrix") as exc_info:
        tr.run_tracking(tr.SimConfig(duration=120.0), params, gains, tr.build_preset(preset, params))
    exc = exc_info.value
    assert exc.reason == "determinant"
    assert round(exc.time, 3) == end == exc.log.abort_time
    assert len(exc.log) == round(end / 1e-3) + 1


def test_abort_reason_pitch_guard(params, gains, gait1):
    start = tr.State(eta=[0.0, math.pi / 2 - 0.5 * EPS_REP, 0.0])
    with pytest.raises(AbortedSingular, match="guard band") as exc_info:
        tr.run_tracking(tr.SimConfig(duration=1.0, initial_state=start), params, gains, gait1)
    exc = exc_info.value
    assert exc.reason == "pitch_guard"
    assert exc.time == 0.0 and len(exc.log) == 1
    assert exc.log.singular[0] and exc.log.det[0] == 0.0
    np.testing.assert_array_equal(exc.state.as_array(), start.as_array())
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
        assert exc.log.end_reason == exc.reason and exc.log.abort_time == exc.time
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
    arrays = {name: getattr(done, name) for name in
              ("t", "states", "alpha", "varpi", "ref_pos", "det", "saturated", "singular")}
    for extra in ({"aborted": True}, {"abort_time": 0.05}):
        with pytest.raises(TypeError):
            tr.TrackLog(**arrays, **extra)


def _det_identity(log, params):
    # det Delta from the logged alpha and (phi, theta) alone, through the
    # determinant decomposition, independent of the loop's 4x4 assembly
    scale = params.m * np.linalg.det(params.inertia)
    phi, theta = log.states[:, 6], log.states[:, 7]
    return np.array([
        float(tr.normalized_det(f, th, tr.det_decomposition(a, params))) / (scale * math.cos(th))
        for f, th, a in zip(phi.tolist(), theta.tolist(), log.alpha)
    ])


def test_logged_det_matches_the_det_identity(params, gains, gait1):
    log = tr.run_tracking(tr.SimConfig(duration=5.0), params, gains, gait1)
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
    assert exc.time == 799 * 1e-3 and len(exc.log) == 800
    assert exc.log.singular[-1] and not exc.log.singular[:-1].any()
    # one row per block: every row is a block boundary
    monkeypatch.setattr(sim, "TRACK_BLOCK", 1)
    one = run()
    assert one.time == exc.time
    assert one.log.as_matrix().tobytes() == exc.log.as_matrix().tobytes()


def _assert_rows_equal(log, want, rows):
    # every log column of the first ``rows`` rows, bit for bit
    for name in ("t", "states", "alpha", "varpi", "ref_pos", "det", "saturated", "singular"):
        assert np.array_equal(getattr(log, name)[:rows], getattr(want, name)[:rows]), name


def _assert_abort_row(log, exc, gait, dt):
    # the abort row: the state the run stopped in, the gait and reference at its time
    k = len(log) - 1
    assert np.array_equal(log.states[k], exc.state.as_array())
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
    assert exc.reason == "pitch_guard" and k == 37
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


@given(duration=st.floats(1e-6, 1e3), over=st.floats(1.0, 1e3, exclude_min=True))
def test_config_rejects_dt_above_duration(duration, over):
    assume(duration * over > duration)
    with pytest.raises(ValueError, match="exceeds"):
        tr.SimConfig(duration=duration, dt=duration * over)


@pytest.mark.parametrize("duration, rows", [(0.0105, 11), (0.0115, 13), (0.0104, 11),
                                            (0.001, 2)])
def test_duration_snaps_to_dt_grid(params, gains, gait1, duration, rows):
    # round(duration / dt) steps, ties to even: 10.5 -> 10, 11.5 -> 12
    log = tr.run_tracking(tr.SimConfig(duration=duration, dt=1e-3), params, gains, gait1)
    assert len(log) == rows
