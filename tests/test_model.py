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
    v = np.array([-552.1, 552.1, -552.1, 552.1])
    np.testing.assert_allclose(tr.speeds_to_input(v), np.sign(v) * 552.1**2, rtol=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.floats(-2000, 2000, allow_nan=False))
def test_speed_input_roundtrip(v):
    # the control law's sign * sqrt inverts the map
    w = float(tr.speeds_to_input([v, 0, 0, 0])[0])
    back = math.copysign(math.sqrt(abs(w)), w)
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


def _textbook_rk4(x, alpha_0, alpha_mid, alpha_1, w, dt, params):
    # classical RK4 composed from the public state derivative, the tilts at
    # the stage times and the input held over the step
    def f(s, alpha):
        return tr.state_derivative(tr.State.from_array(s), alpha, w, params)

    x = np.asarray(x)
    k1 = f(x, alpha_0)
    k2 = f(x + 0.5 * dt * k1, alpha_mid)
    k3 = f(x + 0.5 * dt * k2, alpha_mid)
    k4 = f(x + dt * k3, alpha_1)
    return x + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)


def test_rk4_step_matches_textbook_composition(params, rng):
    # states over several magnitudes, a distinct tilt at every stage time
    # (so a stage that picks up the wrong sample, or shares one it must
    # not share, shows up) and three step sizes; a draw whose stages reach
    # the pitch guard band, where the public derivative refuses, is skipped
    pp = params.pack
    compared = 0
    for _ in range(2000):
        x = rng.uniform(-1, 1, 12) * 10.0 ** rng.integers(-3, 3, 12)
        x[7] = rng.uniform(-1.5, 1.5)  # pitch inside the guard
        a0, am, a1 = (tuple(rng.uniform(-4, 4, 4).tolist()) for _ in range(3))
        w = tuple(rng.uniform(-3e5, 3e5, 4).tolist())
        dt = float(rng.choice([1e-3, 1e-2, 0.1]))
        x = tuple(x.tolist())
        try:
            want = _textbook_rk4(x, a0, am, a1, w, dt, params)
        except RepresentationSingular:
            continue
        got = kernels.rk4_step(
            x, kernels.attitude_trig(x[6], x[7], x[8]),
            kernels.tilt_trig(a0), kernels.tilt_trig(am), kernels.tilt_trig(a1),
            w, dt, pp,
        )
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        compared += 1
    assert compared >= 1500


def test_rk4_step_keeps_a_zero_pitch_cosine_off_zero(params, rng):
    # a start attitude whose pitch cosine is exactly zero is stepped as if
    # it were 1e-300, and the step stays finite
    pp = params.pack
    for _ in range(50):
        x = tuple(rng.uniform(-1, 1, 12).tolist())
        att = kernels.attitude_trig(x[6], x[7], x[8])
        tilts = [kernels.tilt_trig(tuple(rng.uniform(-4, 4, 4).tolist())) for _ in range(3)]
        w = tuple(rng.uniform(-3e5, 3e5, 4).tolist())
        dt = float(rng.choice([1e-3, 1e-2, 0.1]))
        got = np.array(kernels.rk4_step(x, att[:3] + (0.0,) + att[4:], *tilts, w, dt, pp))
        tiny = np.array(kernels.rk4_step(x, att[:3] + (1e-300,) + att[4:], *tilts, w, dt, pp))
        assert got.tobytes() == tiny.tobytes()
        assert np.all(np.isfinite(got))


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
    p, gains = tr.load_config(path)
    assert p.m == 1.2 and p.arm_length == 0.25 and p.omega_lo == 10.0
    np.testing.assert_array_equal(p.inertia, np.diag([0.02, 0.02, 0.03]))
    # absent sections keep their defaults
    np.testing.assert_array_equal(gains.kp, tr.Gains().kp)


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


# every public function that reads the tilting angles, called with alpha
TILT_READERS = {
    "thrust_matrix": lambda a, p: tr.thrust_matrix(a, p),
    "torque_matrix": lambda a, p: tr.torque_matrix(a, p),
    "state_derivative": lambda a, p: tr.state_derivative(tr.State(), a, np.zeros(4), p),
    "integrate_step": lambda a, p: tr.integrate_step(
        tr.State(), lambda t: a, tr.hover_speeds(p), 0.0, 1e-3, p),
    "decoupling_matrix": lambda a, p: tr.decoupling_matrix((0.0, 0.0, 0.0), a, p),
    "det_decomposition": lambda a, p: tr.det_decomposition(a, p),
    "singular_curves": lambda a, p: tr.singular_curves(a, tr.AttitudeGrid.symmetric(1.3, 5), p),
    "fl_inner_loop": lambda a, p: tr.fl_inner_loop(tr.State(), a, tr.InnerRefs(), tr.Gains(), p),
    "InnerLoop.step": lambda a, p: tr.InnerLoop(tr.Gains(), p).step(tr.State(), a, tr.InnerRefs()),
}
BAD_TILTS = {
    "nan": [0.1, math.nan, 0.0, 0.0], "inf": [math.inf, 0.0, 0.0, 0.0],
    "-inf": [0.0, 0.0, 0.0, -math.inf], "three": [0.1, 0.2, 0.3],
    "five": [0.1, 0.2, 0.3, 0.4, 0.5],
}


@pytest.mark.parametrize("bad", BAD_TILTS.values(), ids=BAD_TILTS.keys())
@pytest.mark.parametrize("reader", TILT_READERS.values(), ids=TILT_READERS.keys())
def test_tilt_arguments_must_be_four_finite_numbers(params, reader, bad):
    reader(np.zeros(4), params)
    with pytest.raises(ValueError, match="alpha must be four finite numbers"):
        reader(bad, params)


# the rotor arguments of the plant functions, each with its name in the error
ROTOR_READERS = {
    "integrate_step": (lambda v, p: tr.integrate_step(
        tr.State(), lambda t: np.zeros(4), v, 0.0, 1e-3, p), "varpi"),
    "state_derivative": (lambda v, p: tr.state_derivative(tr.State(), np.zeros(4), v, p), "w"),
}


def _no_kernels(monkeypatch):
    def fail(*args):
        raise AssertionError("a kernel ran on refused input")

    for name in ("attitude_trig", "tilt_trig", "thrust_entries", "torque_entries",
                 "rotation_entries", "euler_rate_entries", "rk4_step"):
        monkeypatch.setattr(kernels, name, fail)


@pytest.mark.parametrize("bad", BAD_TILTS.values(), ids=BAD_TILTS.keys())
@pytest.mark.parametrize("name", ROTOR_READERS)
def test_rotor_arguments_must_be_four_finite_numbers(params, monkeypatch, name, bad):
    reader, arg = ROTOR_READERS[name]
    reader(tr.hover_speeds(params), params)
    _no_kernels(monkeypatch)
    with pytest.raises(ValueError, match=f"{arg} must be four finite numbers"):
        reader(bad, params)


BAD_DTS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "zero": 0.0, "negative": -1e-3}


@pytest.mark.parametrize("dt", BAD_DTS.values(), ids=BAD_DTS.keys())
def test_integrate_step_dt_must_be_positive_and_finite(params, monkeypatch, dt):
    _no_kernels(monkeypatch)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        tr.integrate_step(tr.State(), lambda t: np.zeros(4), tr.hover_speeds(params),
                          0.0, dt, params)


# every public function that reads Euler angles, called with eta, and the
# angles it reads
ATTITUDE_READERS = {
    "rotation_matrix": (lambda eta, p: tr.rotation_matrix(eta), ("phi", "theta", "psi")),
    "euler_rate_matrix": (lambda eta, p: tr.euler_rate_matrix(eta), ("phi", "theta")),
    "decoupling_matrix": (lambda eta, p: tr.decoupling_matrix(eta, np.zeros(4), p),
                          ("phi", "theta")),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name, angle", [
    pytest.param(name, angle, id=f"{name}-{angle}")
    for name, (_, angles) in ATTITUDE_READERS.items() for angle in angles
])
def test_attitude_arguments_must_be_finite(params, name, angle, bad):
    reader = ATTITUDE_READERS[name][0]
    eta = [0.1, -0.2, 0.3]
    reader(eta, params)
    eta[("phi", "theta", "psi").index(angle)] = bad
    with pytest.raises(ValueError, match="attitude angles must be finite"):
        reader(eta, params)
