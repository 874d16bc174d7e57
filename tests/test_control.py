import json
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tiltrotor as tr
from tiltrotor._core import kernels
from tiltrotor.control import _sat1, decoupler_core, fl_core, tilt_factors
from tiltrotor.linearization import abc_scale


# ---------------------------------------------------------------------------
# position decoupler


def test_decoupler_zero_error(params, gains):
    # at the reference position, at rest, with no reference motion
    phi_r, theta_r = decoupler_core(
        1.0, 2.0, 0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 0.0, 0.0,
        gains.kp_xy, gains.kd_xy, gains.clamp, params.g,
    )
    assert phi_r == 0.0 and theta_r == 0.0


def test_decoupler_axis_alignment(params, gains):
    # pure x-acceleration request of 0.1 g with zero yaw -> pitch reference;
    # a request of a g is the position error a g / kp_xy at rest
    def request(psi, ax, ay):
        return decoupler_core(
            0.0, 0.0, 0.0, 0.0, math.sin(psi), math.cos(psi),
            ax * params.g / gains.kp_xy, ay * params.g / gains.kp_xy, 0.0, 0.0,
            gains.kp_xy, gains.kd_xy, gains.clamp, params.g,
        )

    phi_r, theta_r = request(0.0, 0.1, 0.0)
    assert abs(theta_r - 0.1) < 1e-15 and abs(phi_r) < 1e-15
    # same request at yaw pi/2 -> roll reference
    phi_r, theta_r = request(math.pi / 2, 0.1, 0.0)
    assert abs(phi_r - 0.1) < 1e-15 and abs(theta_r) < 1e-15
    # a pure y request: negative roll at zero yaw, pitch at yaw pi/2
    phi_r, theta_r = request(0.0, 0.0, 0.1)
    assert abs(phi_r + 0.1) < 1e-15 and abs(theta_r) < 1e-15
    phi_r, theta_r = request(math.pi / 2, 0.0, 0.1)
    assert abs(theta_r - 0.1) < 1e-15 and abs(phi_r) < 1e-15


def test_decoupler_clamped(params, gains, rng):
    # each reference is the requested acceleration in the yaw frame over g,
    # (theta, -phi) = Rz(psi).T @ u / g, clipped to +-clamp; a twentieth of
    # the errors' scale puts some requests inside the band
    clamp = gains.clamp
    seen = set()
    for k in range(60):
        scale = 0.05 if k % 2 else 1.0
        px, py = (scale * rng.uniform(-50, 50, 2)).tolist()
        vx, vy = (scale * rng.uniform(-20, 20, 2)).tolist()
        psi = float(rng.uniform(-math.pi, math.pi))
        phi_r, theta_r = decoupler_core(
            px, py, vx, vy, math.sin(psi), math.cos(psi), 0.0, 0.0, 0.0, 0.0,
            gains.kp_xy, gains.kd_xy, clamp, params.g,
        )
        u = -gains.kd_xy * np.array([vx, vy]) - gains.kp_xy * np.array([px, py])
        c, s = math.cos(psi), math.sin(psi)
        forward, left = np.array([[c, -s], [s, c]]).T @ u / params.g
        for got, want, axis in ((theta_r, forward, "theta"), (phi_r, -left, "phi")):
            seen.add((axis, int(np.sign(want)) if abs(want) > clamp else 0))
            assert got == pytest.approx(float(np.clip(want, -clamp, clamp)), rel=1e-12, abs=1e-15)
    # every side of the band was reached on both axes
    assert seen == {(axis, side) for axis in ("theta", "phi") for side in (-1, 0, 1)}


# ---------------------------------------------------------------------------
# saturation


def test_saturate_examples():
    # each speed magnitude is clamped into [lo, hi], its sign kept
    got = [_sat1(v, 15.0, 900.0) for v in (1000.0, -10.0, 500.0, -950.0, 0.0, -0.0)]
    assert got == [900.0, -15.0, 500.0, -900.0, 15.0, -15.0]
    assert [math.copysign(1.0, v) for v in got[4:]] == [1.0, -1.0]


def test_saturate_idempotent(params, rng):
    lo, hi = params.omega_lo, params.omega_hi
    for v in rng.uniform(-1200, 1200, 200).tolist():
        once = _sat1(v, lo, hi)
        assert lo <= abs(once) <= hi
        # the loop's flag, once != v, is set iff v lies outside the band
        assert (once != v) == (not lo <= abs(v) <= hi)
        assert _sat1(once, lo, hi) == once


# ---------------------------------------------------------------------------
# inner loop


def test_inner_loop_hover_allocation(params, gains):
    state = tr.State()
    out = tr.fl_inner_loop(state, np.zeros(4), tr.InnerRefs(), gains, params)
    hover = params.hover_speed
    np.testing.assert_allclose(out.varpi_cmd, params.spin_sign * hover, rtol=1e-9)
    assert not out.singular and not out.saturated.any()
    # the solved input balances gravity through the decoupling matrix
    dm = tr.decoupling_matrix(state.eta, np.zeros(4), params)
    w = tr.speeds_to_input(out.varpi_cmd)
    np.testing.assert_allclose(dm.delta @ w, [0, 0, 0, params.g], atol=1e-9)


def test_inner_loop_reconstruction(params_nosat, gains, rng):
    # Delta w + b reproduces the commanded v when unsaturated
    for _ in range(50):
        x = rng.uniform(-0.5, 0.5, 12)
        state = tr.State.from_array(x)
        alpha = rng.uniform(-0.3, 0.3, 4)
        refs = tr.InnerRefs(value=rng.uniform(-0.2, 0.2, 4),
                            rate=rng.uniform(-0.2, 0.2, 4),
                            accel=rng.uniform(-0.2, 0.2, 4))
        out = tr.fl_inner_loop(state, alpha, refs, gains, params_nosat)
        assert not out.saturated.any() and not out.singular
        dm = tr.decoupling_matrix(state.eta, alpha, params_nosat)
        b = tr.drift_vector(state, params_nosat)
        w = tr.speeds_to_input(out.varpi_cmd)
        T = tr.euler_rate_matrix(state.eta)
        eta_dot = T @ state.omega
        y = np.array([x[6], x[7], x[8], x[2]])
        ydot = np.array([eta_dot[0], eta_dot[1], eta_dot[2], x[5]])
        v = refs.accel + gains.kd * (refs.rate - ydot) + gains.kp * (refs.value - y)
        recon = dm.delta @ w + b
        assert np.max(np.abs(recon - v)) <= 1e-10 * max(1.0, np.max(np.abs(v)))


def _rank_deficient_completion(params):
    """A completion with A = B = C = 0: the decoupling matrix is singular at every attitude."""
    delta = 2.0 * math.atan2(params.k_m, params.arm_length * params.k_f)
    return np.array([0.3, -0.2, delta - 0.3, -delta + 0.2])


# a vehicle whose rank-deficient completion has a subnormal n . n (1.16e-311)
SUBNORMAL_NN = tr.Params(
    k_f=9.489855171031449e-05, k_m=5.960464477539063e-08, arm_length=0.59375,
    inertia=[[0.0625, 6.81563537e-132, 0.0], [6.81563537e-132, 0.046875, 0.0], [0.0, 0.0, 0.0625]],
)


def test_inner_loop_singular_flag_and_hold(params, gains):
    state = tr.State()
    last = np.array([-500.0, 500.0, -500.0, 500.0])
    out = tr.fl_inner_loop(state, _rank_deficient_completion(params), tr.InnerRefs(), gains,
                           params, last_command=last)
    assert out.singular
    np.testing.assert_array_equal(out.varpi_cmd, last)


BAD_FOUR = [[math.nan, 500.0, -500.0, 500.0], [-500.0, math.inf, -500.0, 500.0],
            [-500.0, 500.0, -math.inf, 500.0], [-500.0, 500.0, -500.0],
            [-500.0, 500.0, -500.0, 500.0, 500.0]]
BAD_FOUR_IDS = ["nan", "inf", "-inf", "three", "five"]


@pytest.mark.parametrize("path", ["singular", "regular"])
@pytest.mark.parametrize("last", BAD_FOUR, ids=BAD_FOUR_IDS)
def test_last_command_must_be_four_finite_numbers(params, gains, path, last):
    # refused at entry, whether or not the step would hold it
    alpha = _rank_deficient_completion(params) if path == "singular" else np.zeros(4)
    with pytest.raises(ValueError, match="last_command must be four finite numbers"):
        tr.fl_inner_loop(tr.State(), alpha, tr.InnerRefs(), gains, params, last_command=last)


def test_inner_loop_holds_where_n_dot_n_is_subnormal(gains):
    # 1 / (n . n) would overflow: the factors stay finite, and the
    # vanishing determinant still flags the row and holds the command
    alpha = _rank_deficient_completion(SUBNORMAL_NN)
    fac = tilt_factors(kernels.tilt_trig(alpha.tolist()), SUBNORMAL_NN.pack)
    assert 0.0 < sum(v * v for v in fac[12:16]) < sys.float_info.min
    assert all(math.isfinite(v) for v in fac)
    last = SUBNORMAL_NN.spin_sign * 200.0
    out = tr.fl_inner_loop(tr.State(), alpha, tr.InnerRefs(), gains, SUBNORMAL_NN,
                           last_command=last)
    assert out.singular
    np.testing.assert_array_equal(out.varpi_cmd, last)


def test_inner_loop_without_memory_holds_the_start_command(params, gains):
    # before any safe command, a singular step holds the command a
    # tracking run starts from: 0.8 x the hover pattern
    start = params.spin_sign * (0.8 * params.hover_speed)
    alpha = _rank_deficient_completion(params)
    out = tr.fl_inner_loop(tr.State(), alpha, tr.InnerRefs(), gains, params)
    assert out.singular
    np.testing.assert_array_equal(out.varpi_cmd, start)


def test_inner_loop_singular_on_degenerate_completion(params, gains):
    # on-branch completion with C = 0 is singular at level attitude
    def c_on_sheet(a2):
        return tr.det_decomposition((0.2, a2, 0.2, a2), params).C

    lo, hi = -0.2, 0.2
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if c_on_sheet(lo) * c_on_sheet(mid) <= 0:
            hi = mid
        else:
            lo = mid
    alpha = np.array([0.2, lo, 0.2, lo])
    out = tr.fl_inner_loop(tr.State(), alpha, tr.InnerRefs(), gains, params)
    assert out.singular


def test_closed_loop_identity_one_step(params_nosat, gains):
    # with exact linearization each output obeys e'' = -kd e' - kp e;
    # verify the second derivative by finite differences over tiny steps
    # non-zero body rates, so the attitude drift terms of the law are not 0
    state = tr.State(eta=np.array([0.08, -0.05, 0.1]), pos=np.array([0, 0, 0.1]),
                     omega=np.array([0.3, -0.2, 0.1]))
    alpha = np.zeros(4)
    out = tr.fl_inner_loop(state, alpha, tr.InnerRefs(), gains, params_nosat)
    varpi = out.varpi_cmd
    h = 1e-6

    def outputs(s):
        T = tr.euler_rate_matrix(s.eta)
        eta_dot = T @ s.omega
        return np.array([s.eta[0], s.eta[1], s.eta[2], s.pos[2]]), \
            np.array([eta_dot[0], eta_dot[1], eta_dot[2], s.vel[2]])

    s_p = tr.integrate_step(state, lambda t: alpha, varpi, 0.0, h, params_nosat)
    s_pp = tr.integrate_step(s_p, lambda t: alpha, varpi, h, h, params_nosat)
    y0, yd0 = outputs(state)
    y1, _ = outputs(s_p)
    y2, _ = outputs(s_pp)
    ydd = (y2 - 2 * y1 + y0) / h**2
    v = gains.kd * (0.0 - yd0) + gains.kp * (0.0 - y0)
    np.testing.assert_allclose(ydd, v, atol=1e-4)


def test_analytic_second_order_response(params_nosat, gains):
    # all four channels start 0.1 off and must follow the critically
    # damped closed form within 2% over 2 s
    dt = 1e-3
    state = tr.State(pos=np.array([0.0, 0.0, 0.1]), eta=np.array([0.1, 0.1, 0.1]))
    alpha = np.zeros(4)
    n = int(round(2.0 / dt))
    worst = np.zeros(4)
    # the last safe command, held by a singular step as run_tracking holds it
    last = None
    for k in range(n + 1):
        t = k * dt
        y = np.array([state.eta[0], state.eta[1], state.eta[2], state.pos[2]])
        expected = 0.1 * (1.0 + 2.0 * t) * math.exp(-2.0 * t)
        worst = np.maximum(worst, np.abs(y - expected))
        out = tr.fl_inner_loop(state, alpha, tr.InnerRefs(), gains, params_nosat,
                               last_command=last)
        if not out.singular:
            last = out.varpi_cmd
        state = tr.integrate_step(state, lambda _t: alpha, out.varpi_cmd, t, dt, params_nosat)
    assert np.all(worst <= 0.02 * 0.1)


# ---------------------------------------------------------------------------
# gains and configuration


@pytest.mark.parametrize("bad", [
    {"kp": 0.0}, {"kd": [-1, 1, 1, 1]}, {"kp_xy": 0.0}, {"clamp": 0.0},
    {"clamp": 2.0},
])
def test_gains_validation(bad):
    with pytest.raises(ValueError):
        tr.Gains(**bad)


@pytest.mark.parametrize("bad", [
    [4.0, 4.0, 4.0], [4.0] * 5, np.full((4, 1), 4.0), "abc", [[4.0], 4.0, 4.0, 4.0],
], ids=["short", "long", "column", "non-number", "ragged"])
@pytest.mark.parametrize("field", ["kp", "kd"])
def test_gains_name_a_wrong_kp_or_kd(field, bad):
    # one number still stands for all four channels
    assert getattr(tr.Gains(**{field: 2.5}), field).tolist() == [2.5] * 4
    with pytest.raises(ValueError, match=f"^{field} must be four finite numbers, got "):
        tr.Gains(**{field: bad})


@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       field=st.sampled_from(["kp", "kd", "kp_xy", "kd_xy", "clamp"]),
       channel=st.integers(0, 3))
def test_gains_rejects_non_finite(bad, field, channel):
    if field in ("kp", "kd"):
        value = np.full(4, 4.0)
        value[channel] = bad
    else:
        value = bad
    with pytest.raises(ValueError):
        tr.Gains(**{field: value})


@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       field=st.sampled_from(["value", "rate", "accel"]), channel=st.integers(0, 3))
def test_inner_refs_reject_non_finite(bad, field, channel):
    value = np.zeros(4)
    value[channel] = bad
    with pytest.raises(ValueError, match="finite"):
        tr.InnerRefs(**{field: value})


@settings(max_examples=200, deadline=None)
@given(x=st.lists(st.floats(-0.5, 0.5), min_size=12, max_size=12),
       alpha=st.lists(st.floats(-math.pi, math.pi), min_size=4, max_size=4),
       ref=st.lists(st.floats(-0.4, 0.4), min_size=4, max_size=4))
def test_fl_core_saturation_matches_sat1(params, x, alpha, ref):
    # the in-range shortcut and the clamp path give what clamping the
    # unsaturated command with _sat1 gives, bit for bit, with its flags,
    # for every band that cuts the n_lo smallest and n_hi largest magnitudes
    att = kernels.attitude_trig(x[6], x[7], x[8])
    tilt = kernels.tilt_trig(alpha)
    fac = tilt_factors(tilt, params.pack)
    args = (tuple(x), att, tilt, fac, tuple(ref), (0.0,) * 4, (0.0,) * 4,
            (4.0,) * 4, (4.0,) * 4, params.pack)
    held = (-20.0, 20.0, -20.0, 20.0)
    raw, det, sat, singular, ratio_sq = fl_core(*args, 0.0, math.inf, 1e-4, held)
    assume(not singular)
    assert sat == (False,) * 4
    mags = sorted(abs(v) for v in raw)
    for n_lo in range(5):
        for n_hi in range(5 - n_lo):
            lo = mags[n_lo - 1] * (1.0 + 1e-9) if n_lo else 0.5 * mags[0]
            hi = mags[4 - n_hi] * (1.0 - 1e-9) if n_hi else 2.0 * mags[3]
            if not lo < hi:
                continue
            out, det2, sat2, singular2, ratio_sq2 = fl_core(*args, lo, hi, 1e-4, held)
            assert (det2, singular2, ratio_sq2) == (det, False, ratio_sq)
            want = tuple(_sat1(v, lo, hi) for v in raw)
            assert out == want
            assert sat2 == tuple(o != v for o, v in zip(want, raw))


def test_config_file_roundtrip(tmp_path):
    cfg = {
        "m": 1.1, "g": 9.81, "k_f": 8.048e-6, "k_m": 2.423e-7, "arm_length": 0.3,
        "inertia": [0.01, 0, 0, 0, 0.01, 0, 0, 0, 0.02],
        "omega_lo": 12.0, "omega_hi": 850.0, "spin_sign": [-1, 1, -1, 1],
        "gains": {"kp": [4, 4, 4, 4], "kd": 4.0, "kp_xy": 0.5, "kd_xy": 1.5, "clamp": 0.35},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    params, gains = tr.load_config(path)
    assert params.m == 1.1 and params.omega_lo == 12.0
    np.testing.assert_array_equal(gains.kp, [4, 4, 4, 4])
    assert gains.kd_xy == 1.5
    np.testing.assert_array_equal(gains.kd, [4, 4, 4, 4])
    assert (gains.kp_xy, gains.clamp) == (0.5, 0.35)


# configurations load_config refuses, with the key its error must name
BAD_CONFIGS = [
    ([1], "configuration"),
    ("gait1", "configuration"),
    ({"gains": 5}, "gains"),
    ({"gains": [4.0]}, "gains"),
    # retired: every tracking run stops at its first singular row
    ({"abort_on_singular": True}, "abort_on_singular"),
    ({"abort_on_singular": False}, "abort_on_singular"),
    ({"arm_lenght": 0.5}, "arm_lenght"),
    ({"gains": {"kp_yx": 0.5}}, "kp_yx"),
    ({"m": "1.0"}, "m"),
    ({"m": None}, "m"),
    ({"m": True}, "m"),
    ({"m": 10**400}, "m"),
    ({"inertia": [0.01, 0, 0, 0, 0.01, 0, 0, 0]}, "inertia"),
    ({"spin_sign": [-1, 1, -1, "1"]}, "spin_sign"),
    ({"gains": {"kd": [4.0, 4.0]}}, "kd"),
    ({"gains": {"clamp": [0.3]}}, "clamp"),
]


@pytest.mark.parametrize("cfg, key", BAD_CONFIGS, ids=[k for _, k in BAD_CONFIGS])
def test_load_config_refuses_what_it_does_not_read(tmp_path, cfg, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match=key):
        tr.load_config(path)


@pytest.mark.parametrize("text, key", [
    ('{"m": 1.0, "m": 2.5}', "m"),
    ('{"gains": {"kp_xy": 0.5, "kp_xy": 0.6}}', "kp_xy"),
], ids=["top-level", "in-gains"])
def test_load_config_refuses_a_repeated_key(tmp_path, text, key):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"repeated key '{key}'"):
        tr.load_config(path)


# ---------------------------------------------------------------------------
# 4x4 solve


def test_solve4_matches_numpy(rng):
    checked = 0
    while checked < 500:
        d = rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-6, 2)
        if np.linalg.cond(d) > 1e6:
            continue
        rhs = rng.normal(size=4)
        got = kernels.solve4(tuple(d.ravel().tolist()), tuple(rhs.tolist()))
        want = np.linalg.solve(d, rhs)
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8 * np.abs(want).max())
        checked += 1


def test_solve4_decoupling_system(params, rng):
    # the decoupling systems, solved from the explicit matrix
    for _ in range(200):
        phi, theta = rng.uniform(-1.2, 1.2, 2)
        alpha = tuple(rng.uniform(-math.pi, math.pi, 4).tolist())
        d, det, _ = kernels.decoupling(
            kernels.attitude_trig(phi, theta, 0.0), kernels.tilt_trig(alpha), params.pack,
        )
        m = np.asarray(d).reshape(4, 4)
        if np.linalg.cond(m) > 1e6:
            continue
        rhs = rng.normal(size=4)
        got = kernels.solve4(d, tuple(rhs.tolist()))
        np.testing.assert_allclose(m @ np.asarray(got), rhs, rtol=0, atol=1e-8)
        assert det == pytest.approx(np.linalg.det(m), rel=1e-9)


# ---------------------------------------------------------------------------
# the factored law against the explicit decoupling matrix


@st.composite
def vehicles(draw):
    """Rotor constants, mass and a random SPD inertia (eigenvalues within 20x)."""
    eig = [draw(st.floats(0.005, 0.1)) for _ in range(3)]
    assume(max(eig) <= 20.0 * min(eig))
    yaw, pitch, roll = (draw(st.floats(-math.pi, math.pi)) for _ in range(3))
    rot = tr.rotation_matrix((roll, pitch, yaw))
    inertia = rot @ np.diag(eig) @ rot.T
    return tr.Params(
        m=draw(st.floats(0.3, 5.0)), k_f=draw(st.floats(1e-6, 1e-4)),
        k_m=draw(st.floats(1e-8, 1e-5)), arm_length=draw(st.floats(0.1, 0.6)),
        inertia=0.5 * (inertia + inertia.T),
    )


@settings(max_examples=400, deadline=None)
@given(params=vehicles(),
       eta=st.tuples(st.floats(-math.pi, math.pi), st.floats(-1.3, 1.3), st.floats(-math.pi, math.pi)),
       omega=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
       alpha=st.lists(st.floats(-math.pi, math.pi), min_size=4, max_size=4),
       ref=st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12),
       eps=st.floats(1e-6, 0.5))
def test_factored_law_matches_the_explicit_matrix(params, eta, omega, alpha, ref, eps):
    # fl_core evaluates the law from tilt-only factors; kernels.decoupling
    # is its explicit view, Delta = blockdiag(T, 1) @ [Q; v] from the same
    # factors, so the determinants are one value, and drift_vector forms
    # the drift at the state.  The ratio is checked against numpy's row
    # norms of Delta
    x = (0.3, -0.2, 0.1, 0.4, -0.1, 0.2, *eta, *omega)
    att = kernels.attitude_trig(*eta)
    tilt = kernels.tilt_trig(alpha)
    fac = tilt_factors(tilt, params.pack)
    d, det, scale = kernels.decoupling(att, tilt, params.pack)
    b = tr.drift_vector(tr.State.from_array(x), params)
    delta = np.asarray(d).reshape(4, 4)
    norms = np.linalg.norm(delta, axis=1).prod()
    ratio = abs(det) / norms
    gains = (ref[0:4], ref[4:8], ref[8:12], (4.0,) * 4, (3.0,) * 4)
    held = (-20.0, 20.0, -20.0, 20.0)
    varpi, det2, sat, singular, ratio_sq = fl_core(
        x, att, tilt, fac, *gains, params.pack, 0.0, math.inf, eps, held)

    assert det2 == det
    assert math.sqrt(ratio_sq) == pytest.approx(ratio, rel=1e-9, abs=1e-12)
    if abs(ratio - eps) > 1e-9:
        assert singular == (det == 0.0 or abs(det) < eps * scale**4)
    # v . n m det(I_B) is the attitude factor of the determinant identity
    n = np.asarray(fac[12:16])
    coeffs = tr.det_decomposition(alpha, params)
    got = delta[3] @ n * params.m * np.linalg.det(params.inertia)
    want = float(tr.normalized_det(eta[0], eta[1], coeffs))
    assert abs(got - want) <= 1e-12 * abc_scale(params)
    if singular:
        assert varpi == held
    elif ratio > 1e-6:
        # the command solves Delta w = v - b with v the PD law on the outputs
        eta_dot = tr.euler_rate_matrix(eta) @ np.asarray(omega)
        y = np.array([eta[0], eta[1], eta[2], x[2]])
        ydot = np.array([*eta_dot, x[5]])
        rhs = np.asarray(ref[8:12]) + 3.0 * (np.asarray(ref[4:8]) - ydot) \
            + 4.0 * (np.asarray(ref[0:4]) - y) - np.asarray(b)
        w = tr.speeds_to_input(varpi)
        residual = np.linalg.norm(delta @ w - rhs)
        assert residual <= 1e-10 * (np.linalg.norm(delta) * np.linalg.norm(w) + np.linalg.norm(rhs))


def test_rank_deficient_tilt_is_singular_and_holds(params, gains):
    # the completion (delta - a1, -delta - a2) with delta = 2 atan2(k_m, l k_f)
    # zeroes A, B and C: the torque map loses rank at every attitude
    delta = 2.0 * math.atan2(params.k_m, params.arm_length * params.k_f)
    a1, a2 = 0.3, -0.2
    alpha = (a1, a2, delta - a1, -delta - a2)
    coeffs = tr.det_decomposition(alpha, params)
    assert max(abs(v) for v in coeffs.abc) <= 1e-12 * abc_scale(params)
    tilt = kernels.tilt_trig(alpha)
    fac = tilt_factors(tilt, params.pack)
    assert all(math.isfinite(v) for v in fac)
    # a torque map of exact rank zero gives n = 0 and K = 0, with no division
    # by n . n (a RuntimeWarning fails the suite)
    zero = tilt_factors((0.0,) * 8, params.pack)
    assert zero == (0.0,) * 22
    held = tuple((params.spin_sign * 400.0).tolist())
    for eta in ((0.0, 0.0, 0.0), (0.2, -0.3, 1.0)):
        state = tr.State(eta=np.array(eta))
        out = tr.fl_inner_loop(state, alpha, tr.InnerRefs(), gains, params, last_command=held)
        assert out.singular
        np.testing.assert_array_equal(out.varpi_cmd, held)
        x = tuple(state.as_array().tolist())
        varpi, det, _, singular, ratio_sq = fl_core(
            x, kernels.attitude_trig(*eta), tilt, fac, (0.0,) * 4, (0.0,) * 4,
            (0.0,) * 4, (4.0,) * 4, (4.0,) * 4, params.pack, params.omega_lo,
            params.omega_hi, 1e-4, held)
        assert singular and varpi == held
        assert math.isfinite(det) and ratio_sq < 1e-8


@settings(max_examples=100, deadline=None)
@given(params=vehicles(),
       alphas=st.lists(st.lists(st.floats(-math.pi, math.pi), min_size=4, max_size=4),
                       min_size=1, max_size=40))
@example(params=SUBNORMAL_NN, alphas=[[0.0, 0.0, 0.0, 0.0]])
def test_tilt_factor_block_rows_are_the_float_rows(params, alphas):
    # one body serves a float row and a block of columns: each block row is
    # the float row, bit for bit, here with the rank-deficient completion
    # and the all-zero trig row (n = 0, so K = 0) in every block
    trig = [kernels.tilt_trig(a) for a in alphas]
    trig += [kernels.tilt_trig(_rank_deficient_completion(params).tolist()), (0.0,) * 8]
    block = np.array(tilt_factors(np.array(trig).T, params.pack)).T
    assert block.shape == (len(trig), 22)
    assert np.isfinite(block).all()
    for row, tilt in zip(block, trig):
        fac = tilt_factors(tilt, params.pack)
        assert all(type(v) is float for v in fac)
        assert row.tobytes() == np.array(fac).tobytes(), (row, fac)
    np.testing.assert_array_equal(block[-1], np.zeros(22))


@pytest.mark.parametrize("d", [
    (0.0,) * 16,
    (1.0, 2.0, 3.0, 4.0,
     2.0, 4.0, 6.0, 8.0,      # twice row 0
     0.0, 1.0, 0.0, 1.0,
     1.0, 0.0, 1.0, 0.0),
    (1.0, 0.0, 0.0, 0.0,
     0.0, 1.0, 0.0, 0.0,
     0.0, 0.0, 1.0, 0.0,
     0.0, 0.0, 0.0, 0.0),     # zero last row
])
def test_solve4_raises_on_singular(d):
    with pytest.raises(ArithmeticError):
        kernels.solve4(d, (1.0, 2.0, 3.0, 4.0))
