import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tiltrotor as tr
from tiltrotor._core import kernels
from tiltrotor.errors import RepresentationSingular

from _oracles import (
    rotation_direct,
    state_derivative_direct,
    thrust_direct,
    torque_direct,
)

ANGLE = st.floats(-math.pi, math.pi, allow_nan=False)


# ---------------------------------------------------------------------------
# input maps


def test_thrust_matrix_zero_tilt(params):
    F = tr.thrust_matrix(np.zeros(4), params)
    kf = params.k_f
    expected = np.array([[0, 0, 0, 0], [0, 0, 0, 0], [-kf, kf, -kf, kf]])
    np.testing.assert_array_equal(F, expected)


def test_thrust_matrix_first_unit_tilted(params):
    F = tr.thrust_matrix(np.array([math.pi / 2, 0, 0, 0]), params)
    kf = params.k_f
    np.testing.assert_allclose(F[1], [kf, 0, 0, 0], atol=1e-21)
    np.testing.assert_allclose(F[2], [0, kf, -kf, kf], atol=1e-21)
    np.testing.assert_allclose(F[0], [0, 0, 0, 0], atol=1e-21)


def test_torque_matrix_zero_tilt(params):
    tau = tr.torque_matrix(np.zeros(4), params)
    lk = params.arm_length * params.k_f
    km = params.k_m
    expected = np.array([
        [0, lk, 0, -lk],
        [lk, 0, -lk, 0],
        [-km, -km, -km, -km],
    ])
    np.testing.assert_array_equal(tau, expected)


def test_torque_matrix_all_tilted_quarter(params):
    tau = tr.torque_matrix(np.full(4, math.pi / 2), params)
    lk = params.arm_length * params.k_f
    km = params.k_m
    np.testing.assert_allclose(tau[0], [0, -km, 0, km], atol=1e-21)
    np.testing.assert_allclose(tau[1], [km, 0, -km, 0], atol=1e-21)
    np.testing.assert_allclose(tau[2], [lk, -lk, lk, -lk], atol=1e-21)


def test_input_maps_match_direct_transcription(params, rng):
    for _ in range(200):
        alpha = rng.uniform(-math.pi, math.pi, 4)
        np.testing.assert_allclose(
            tr.thrust_matrix(alpha, params), thrust_direct(alpha, params.k_f),
            rtol=0, atol=1e-20,
        )
        np.testing.assert_allclose(
            tr.torque_matrix(alpha, params),
            torque_direct(alpha, params.k_f, params.k_m, params.arm_length),
            rtol=0, atol=1e-20,
        )


@settings(max_examples=100, deadline=None)
@given(ANGLE, ANGLE, ANGLE, ANGLE)
def test_input_map_entry_bounds(a1, a2, a3, a4):
    p = tr.Params()
    alpha = np.array([a1, a2, a3, a4])
    F = tr.thrust_matrix(alpha, p)
    assert np.all(np.abs(F) <= p.k_f * (1 + 1e-12))
    tau = tr.torque_matrix(alpha, p)
    bound = math.hypot(p.arm_length * p.k_f, p.k_m)
    assert np.all(np.abs(tau) <= bound * (1 + 1e-12))


# ---------------------------------------------------------------------------
# rotation and Euler-rate kinematics


def test_rotation_identity_and_yaw():
    np.testing.assert_allclose(tr.rotation_matrix(np.zeros(3)), np.eye(3), atol=1e-15)
    R = tr.rotation_matrix([0.0, 0.0, math.pi / 2])
    # world vertical axis rotation by pi/2: x -> y
    np.testing.assert_allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-15)
    np.testing.assert_allclose(R @ [0, 0, 1], [0, 0, 1], atol=1e-15)


def test_rotation_matches_elementary_product(rng):
    for _ in range(100):
        eta = rng.uniform(-1.5, 1.5, 3)
        np.testing.assert_allclose(
            tr.rotation_matrix(eta), rotation_direct(eta), rtol=0, atol=1e-14
        )


def test_rotation_orthonormality(rng):
    for _ in range(1000):
        eta = rng.uniform(-math.pi, math.pi, 3)
        R = tr.rotation_matrix(eta)
        np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_rotation_third_row_formula(rng):
    # the construction is literally (-s_theta, s_phi c_theta, c_phi c_theta)
    for _ in range(200):
        phi, theta, psi = rng.uniform(-math.pi, math.pi, 3)
        R = tr.rotation_matrix([phi, theta, psi])
        row = [-math.sin(theta), math.sin(phi) * math.cos(theta),
               math.cos(phi) * math.cos(theta)]
        np.testing.assert_array_equal(R[2], row)


def test_euler_rate_matrix_properties():
    np.testing.assert_allclose(tr.euler_rate_matrix(np.zeros(3)), np.eye(3), atol=1e-15)
    theta = 0.4
    T = tr.euler_rate_matrix([0.0, theta, 0.0])
    assert abs(np.linalg.det(T) - 1.0 / math.cos(theta)) < 1e-14
    # independent of yaw
    T1 = tr.euler_rate_matrix([0.3, 0.2, 0.0])
    T2 = tr.euler_rate_matrix([0.3, 0.2, 2.5])
    np.testing.assert_array_equal(T1, T2)


def test_euler_rate_matrix_guard():
    with pytest.raises(RepresentationSingular):
        tr.euler_rate_matrix([0.0, math.pi / 2 - 5e-4, 0.0])
    with pytest.raises(RepresentationSingular):
        tr.euler_rate_matrix([0.0, -math.pi / 2, 0.0])


# ---------------------------------------------------------------------------
# rotor speed convention


def test_speed_input_examples():
    np.testing.assert_array_equal(
        tr.speeds_to_input([100.0, -50.0, 0.0, 1.0]), [10000.0, -2500.0, 0.0, 1.0]
    )
    np.testing.assert_array_equal(
        tr.input_to_speeds([10000.0, -2500.0, 0.0, 1.0]), [100.0, -50.0, 0.0, 1.0]
    )
    v = np.array([-552.1, 552.1, -552.1, 552.1])
    np.testing.assert_allclose(tr.speeds_to_input(v), np.sign(v) * 552.1**2, rtol=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.floats(-2000, 2000, allow_nan=False))
def test_speed_input_roundtrip(v):
    w = tr.speeds_to_input([v, 0, 0, 0])[0]
    back = tr.input_to_speeds([w, 0, 0, 0])[0]
    assert abs(back - v) <= 1e-12 * max(1.0, abs(v))


def test_speed_map_monotone_odd(rng):
    v = np.sort(rng.uniform(-1000, 1000, 50))
    w = tr.speeds_to_input(v)
    assert np.all(np.diff(w) > 0)
    np.testing.assert_allclose(tr.speeds_to_input(-v), -w, rtol=0, atol=0)


# ---------------------------------------------------------------------------
# state derivative and integration


def test_hover_equilibrium_derivative(params):
    state = tr.State()
    w = tr.speeds_to_input(tr.hover_speeds(params))
    d = tr.state_derivative(state, np.zeros(4), w, params)
    assert np.linalg.norm(d) < 1e-9


def test_free_fall(params, rng):
    eta = rng.uniform(-0.5, 0.5, 3)
    state = tr.State(eta=eta, omega=rng.uniform(-1, 1, 3))
    d = tr.state_derivative(state, rng.uniform(-1, 1, 4), np.zeros(4), params)
    np.testing.assert_allclose(d[3:6], [0, 0, -params.g], atol=1e-15)
    np.testing.assert_allclose(d[9:12], np.zeros(3), atol=1e-15)


def test_state_derivative_matches_oracle(params, rng):
    for _ in range(100):
        x = rng.uniform(-1, 1, 12)
        x[7] *= 0.9  # keep pitch clear of the guard
        alpha = rng.uniform(-math.pi, math.pi, 4)
        w = rng.uniform(-3e5, 3e5, 4)
        got = tr.state_derivative(tr.State.from_array(x), alpha, w, params)
        want = state_derivative_direct(x, alpha, w, params)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_integrate_preserves_equilibrium(params):
    state = tr.State()
    varpi = tr.hover_speeds(params)
    alpha_fn = lambda t: np.zeros(4)
    for k in range(1000):
        state = tr.integrate_step(state, alpha_fn, varpi, k * 1e-3, 1e-3, params)
    assert np.linalg.norm(state.as_array()) < 1e-8


def test_single_step_ballistic(params):
    dt = 1e-2
    state = tr.integrate_step(tr.State(), lambda t: np.zeros(4), np.zeros(4), 0.0, dt, params)
    assert abs(state.pos[2] - (-0.5 * params.g * dt**2)) < dt**4
    assert abs(state.vel[2] - (-params.g * dt)) < dt**4


def _textbook_rk4(x, alpha_0, alpha_mid, alpha_1, w, dt, pp):
    # classical RK4 composed from the state derivative, the tilts at the
    # stage times and the input held over the step
    def f(s, alpha):
        return np.asarray(kernels.state_derivative(tuple(s), alpha, w, pp))

    x = np.asarray(x)
    k1 = f(x, alpha_0)
    k2 = f(x + 0.5 * dt * k1, alpha_mid)
    k3 = f(x + 0.5 * dt * k2, alpha_mid)
    k4 = f(x + dt * k3, alpha_1)
    return x + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)


def test_rk4_step_matches_textbook_composition(params, rng):
    # a distinct tilt at every stage time, so a stage that picks up the
    # wrong sample, or shares one it must not share, shows up
    pp = params.pack
    dt = 1e-2
    for _ in range(200):
        x = rng.uniform(-1, 1, 12)
        x[7] *= 0.9  # keep pitch clear of the guard
        a0, am, a1 = (tuple(rng.uniform(-math.pi, math.pi, 4).tolist()) for _ in range(3))
        w = tuple(rng.uniform(-3e5, 3e5, 4).tolist())
        x = tuple(x.tolist())
        got = kernels.rk4_step(
            x, kernels.attitude_trig(x[6], x[7], x[8]),
            kernels.tilt_trig(a0), kernels.tilt_trig(am), kernels.tilt_trig(a1),
            w, dt, pp,
        )
        want = _textbook_rk4(x, a0, am, a1, w, dt, pp)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def _composed_rk4(state, att_0, tilt_0, tilt_mid, tilt_1, w, dt, pp):
    # the Runge-Kutta step composed from the kernel's own helpers, stage by
    # stage: the straight-line rk4_step must return these bits exactly
    m, g = pp[0], pp[1]
    half = 0.5 * dt
    x, y, z, vx, vy, vz, phi, theta, psi, p, q, r = state
    fx0, fy0, fz0, dp0, dq0, dr0 = kernels._input_effect(tilt_0, w, pp)
    fxm, fym, fzm, dpm, dqm, drm = kernels._input_effect(tilt_mid, w, pp)
    fx1, fy1, fz1, dp1, dq1, dr1 = kernels._input_effect(tilt_1, w, pp)
    rates, trig = kernels._attitude_rates, kernels.attitude_trig
    ax1, ay1, az1, ef1, et1, ep1 = rates(att_0, p, q, r, fx0, fy0, fz0, m, g)
    vx2, vy2, vz2 = vx + half * ax1, vy + half * ay1, vz + half * az1
    ax2, ay2, az2, ef2, et2, ep2 = rates(
        trig(phi + half * ef1, theta + half * et1, psi + half * ep1),
        p + half * dp0, q + half * dq0, r + half * dr0, fxm, fym, fzm, m, g)
    vx3, vy3, vz3 = vx + half * ax2, vy + half * ay2, vz + half * az2
    ax3, ay3, az3, ef3, et3, ep3 = rates(
        trig(phi + half * ef2, theta + half * et2, psi + half * ep2),
        p + half * dpm, q + half * dqm, r + half * drm, fxm, fym, fzm, m, g)
    vx4, vy4, vz4 = vx + dt * ax3, vy + dt * ay3, vz + dt * az3
    ax4, ay4, az4, ef4, et4, ep4 = rates(
        trig(phi + dt * ef3, theta + dt * et3, psi + dt * ep3),
        p + dt * dpm, q + dt * dqm, r + dt * drm, fx1, fy1, fz1, m, g)
    sixth = dt / 6.0
    return (
        x + sixth * (vx + 2.0 * (vx2 + vx3) + vx4),
        y + sixth * (vy + 2.0 * (vy2 + vy3) + vy4),
        z + sixth * (vz + 2.0 * (vz2 + vz3) + vz4),
        vx + sixth * (ax1 + 2.0 * (ax2 + ax3) + ax4),
        vy + sixth * (ay1 + 2.0 * (ay2 + ay3) + ay4),
        vz + sixth * (az1 + 2.0 * (az2 + az3) + az4),
        phi + sixth * (ef1 + 2.0 * (ef2 + ef3) + ef4),
        theta + sixth * (et1 + 2.0 * (et2 + et3) + et4),
        psi + sixth * (ep1 + 2.0 * (ep2 + ep3) + ep4),
        p + sixth * (dp0 + 2.0 * (dpm + dpm) + dp1),
        q + sixth * (dq0 + 2.0 * (dqm + dqm) + dq1),
        r + sixth * (dr0 + 2.0 * (drm + drm) + dr1),
    )


def test_rk4_step_is_the_helper_composition_bit_for_bit(params, rng):
    # states over several magnitudes, distinct stage tilts, and a start
    # attitude whose pitch cosine is exactly zero (the _safe_div guard)
    pp = params.pack
    for n in range(2000):
        x = rng.uniform(-1, 1, 12) * 10.0 ** rng.integers(-3, 3, 12)
        x = tuple(x.tolist())
        att = kernels.attitude_trig(x[6], x[7], x[8])
        if n % 100 == 0:
            att = att[:3] + (0.0,) + att[4:]
        tilts = [kernels.tilt_trig(tuple(rng.uniform(-4, 4, 4).tolist())) for _ in range(3)]
        w = tuple(rng.uniform(-3e5, 3e5, 4).tolist())
        dt = float(rng.choice([1e-3, 1e-2, 0.1]))
        got = kernels.rk4_step(x, att, *tilts, w, dt, pp)
        want = _composed_rk4(x, att, *tilts, w, dt, pp)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def _free_response_endpoint(params, dt, duration=1.0):
    # smooth, torque-active trajectory: constant unbalanced speeds; the
    # step sizes are chosen so truncation error dominates round-off
    varpi = tr.hover_speeds(params) * np.array([1.02, 1.0, 0.98, 1.0])
    alpha = np.array([0.3, -0.2, 0.25, 0.1])
    state = tr.State()
    n = int(round(duration / dt))
    for k in range(n):
        state = tr.integrate_step(state, lambda t: alpha, varpi, k * dt, dt, params)
    return state.as_array()


def test_rk4_convergence(params):
    ref = _free_response_endpoint(params, 2e-2 / 64)
    err1 = np.linalg.norm(_free_response_endpoint(params, 2e-2) - ref)
    err2 = np.linalg.norm(_free_response_endpoint(params, 1e-2) - ref)
    err4 = np.linalg.norm(_free_response_endpoint(params, 5e-3) - ref)
    assert err1 / err2 >= 12.0
    order = math.log2(err1 / err2)
    order2 = math.log2(err2 / err4)
    assert min(order, order2) >= 3.5


def test_integrate_step_rejects_bad_dt(params):
    with pytest.raises(ValueError):
        tr.integrate_step(tr.State(), lambda t: np.zeros(4), np.zeros(4), 0.0, 0.0, params)


# ---------------------------------------------------------------------------
# parameters and wrapping


def test_params_json_roundtrip(tmp_path, params):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "m": 1.2, "g": 9.8, "k_f": 8.048e-6, "k_m": 2.423e-7,
        "arm_length": 0.25, "inertia": [0.02, 0, 0, 0, 0.02, 0, 0, 0, 0.03],
        "omega_lo": 10.0, "omega_hi": 900.0, "spin_sign": [-1, 1, -1, 1],
    }))
    p, gains, extras = tr.load_config(path)
    assert p.m == 1.2 and p.arm_length == 0.25 and p.omega_lo == 10.0
    np.testing.assert_array_equal(p.inertia, np.diag([0.02, 0.02, 0.03]))
    # absent sections keep their defaults
    np.testing.assert_array_equal(gains.kp, tr.Gains().kp)
    assert extras == {"abort_on_singular": True}


@pytest.mark.parametrize("bad", [
    {"m": -1.0},
    {"k_f": 0.0},
    {"omega_lo": 900.0, "omega_hi": 800.0},
    {"inertia": np.diag([1.0, -1.0, 1.0])},
    {"inertia": [[0.01, 0.5, 0], [0, 0.01, 0], [0, 0, 0.02]]},
    {"omega_hi": 100.0},            # cannot lift the default mass
    {"spin_sign": [1, 1, 1, 2]},
])
def test_params_validation(bad):
    with pytest.raises(ValueError):
        tr.Params(**bad)


@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       field=st.sampled_from(["m", "g", "k_f", "k_m", "arm_length", "omega_lo", "omega_hi"]))
def test_params_rejects_non_finite(bad, field):
    with pytest.raises(ValueError, match="finite"):
        tr.Params(**{field: bad})


@given(bad=st.sampled_from([math.nan, math.inf]), i=st.integers(0, 2))
def test_params_rejects_non_finite_inertia(bad, i):
    inertia = np.diag([0.01, 0.01, 0.02])
    inertia[i, i] = bad
    with pytest.raises(ValueError, match="finite"):
        tr.Params(inertia=inertia)


@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       field=st.sampled_from(["pos", "vel", "eta", "omega"]), axis=st.integers(0, 2))
def test_state_rejects_non_finite(bad, field, axis):
    value = np.zeros(3)
    value[axis] = bad
    with pytest.raises(ValueError, match="finite"):
        tr.State(**{field: value})


def test_hover_feasibility_default(params):
    assert 4 * params.k_f * params.omega_hi**2 > params.m * params.g


@settings(max_examples=200, deadline=None)
@given(st.floats(-50, 50, allow_nan=False))
def test_wrap_idempotent(a):
    w = float(tr.wrap_angle(a))
    assert -math.pi <= w < math.pi
    assert float(tr.wrap_angle(w)) == w


def test_tilt_angles_wrap():
    t = tr.TiltAngles(np.array([3.5, -3.5, math.pi, 0.0]))
    assert np.all(t.alpha >= -math.pi) and np.all(t.alpha < math.pi)
    with pytest.raises(ValueError):
        tr.TiltAngles(np.array([np.inf, 0, 0, 0]))
