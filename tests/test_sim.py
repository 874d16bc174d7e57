import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import tiltrotor as tr
from tiltrotor.control import InnerRefs
from tiltrotor.errors import AbortedSingular
from tiltrotor.sim import TRACKLOG_HEADER


@pytest.fixture(scope="module")
def gait1():
    return tr.build_preset("gait1", tr.Params())


# ---------------------------------------------------------------------------
# reference


def test_circular_reference_values():
    r0 = tr.circular_reference(0.0)
    np.testing.assert_allclose(r0.pos, [5.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(r0.vel, [0.0, 0.5, 0.0], atol=1e-15)
    np.testing.assert_array_equal(r0.acc, [0.0, 0.0, 0.0])
    r = tr.circular_reference(5 * math.pi)
    np.testing.assert_allclose(r.pos, [0.0, 5.0, 0.0], atol=1e-12)
    for t in np.linspace(0.0, 100.0, 37):
        rr = tr.circular_reference(t)
        assert abs(np.linalg.norm(rr.pos) - 5.0) < 1e-12
        assert abs(np.linalg.norm(rr.vel) - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# closed-loop runs


def test_regulation_to_hover(params, gains):
    gait = tr.make_rectangle_gait((-0.25, 0.85), (0.0, 0.0), 10.0, "blue", params)
    config = tr.SimConfig(duration=25.0, reference=tr.fixed_reference((0.0, 0.0, 0.0)))
    log = tr.run_tracking(config, params, gains, gait)
    err = tr.error_series(log)
    assert np.all(err.norm[log.t > 20.0] < 1e-3)


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
    # the loop shares sines and cosines between its layers and steps; the
    # public operations take every one afresh, so both must agree row by row.
    # The narrow speed band saturates two rotors on most rows.
    params = tr.Params() if band is None else tr.Params(omega_lo=band[0], omega_hi=band[1])
    dt = 1e-3
    log = tr.run_tracking(tr.SimConfig(duration=0.5, dt=dt), params, gains, gait1)
    assert len(log) == 501
    state = tr.State()
    last = params.spin_sign * (0.8 * params.hover_speed)
    for i in range(len(log)):
        t = i * dt
        alpha = gait1.sample_raw(t)
        ref = tr.circular_reference(t)
        phi_ref, theta_ref = tr.position_decoupler(state, ref, gains, params)
        out = tr.fl_inner_loop(state, alpha, InnerRefs(value=[phi_ref, theta_ref, 0.0, 0.0]),
                               gains, params, last_command=last)
        np.testing.assert_allclose(log.states[i], state.as_array(), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(log.alpha[i], alpha, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(log.ref_pos[i], ref.pos, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(log.varpi[i], out.varpi_cmd, rtol=1e-12)
        np.testing.assert_allclose(log.det[i], out.det_delta, rtol=1e-12)
        assert log.saturated[i].tolist() == out.saturated.tolist()
        assert log.singular[i] == out.singular
        if not out.singular:
            last = out.varpi_cmd
        # zero-order hold on the command
        state = tr.integrate_step(state, gait1.sample_raw, lambda _t, v=out.varpi_cmd: v,
                                  t, dt, params)
    assert log.saturated.any() == (band is not None)


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


def test_abort_on_singular_gait(params, gains):
    gait2 = tr.build_preset("gait2", params)
    with pytest.raises(AbortedSingular) as exc_info:
        tr.run_tracking(tr.SimConfig(duration=120.0), params, gains, gait2)
    exc = exc_info.value
    assert 0.0 < exc.time < 120.0
    assert exc.log is not None and exc.log.aborted
    assert exc.log.singular[-1]
    assert len(exc.log) == int(round(exc.time / 1e-3)) + 1


def test_abort_flag_can_be_disabled(params, gains):
    gait2 = tr.build_preset("gait2", params)
    config = tr.SimConfig(duration=1.0, abort_on_singular=False)
    try:
        log = tr.run_tracking(config, params, gains, gait2)
    except AbortedSingular as exc:
        # a representation blow-up still ends the run
        log = exc.log
        assert exc.time <= 1.0
    assert log.singular.any()


def test_config_validation():
    with pytest.raises(ValueError):
        tr.SimConfig(duration=0.0)
    with pytest.raises(ValueError):
        tr.SimConfig(dt=-1e-3)


@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       field=st.sampled_from(["duration", "dt", "eps_sing"]))
def test_config_rejects_non_finite(bad, field):
    with pytest.raises(ValueError, match="finite"):
        tr.SimConfig(**{field: bad})


@given(duration=st.floats(1e-6, 1e3), over=st.floats(1.0, 1e3, exclude_min=True))
def test_config_rejects_dt_above_duration(duration, over):
    assume(duration * over > duration)
    with pytest.raises(ValueError, match="exceeds"):
        tr.SimConfig(duration=duration, dt=duration * over)


def test_config_rejects_bad_initial_command():
    with pytest.raises(ValueError):
        tr.SimConfig(initial_varpi=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        tr.SimConfig(initial_varpi=[1.0, 2.0, math.nan, 4.0])


@pytest.mark.parametrize("duration, rows", [(0.0105, 11), (0.0115, 13), (0.0104, 11),
                                            (0.001, 2)])
def test_duration_snaps_to_dt_grid(params, gains, gait1, duration, rows):
    # round(duration / dt) steps, ties to even: 10.5 -> 10, 11.5 -> 12
    log = tr.run_tracking(tr.SimConfig(duration=duration, dt=1e-3), params, gains, gait1)
    assert len(log) == rows
