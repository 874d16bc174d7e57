import math

import numpy as np
import pytest

import tiltrotor as tr
from tiltrotor._core import kernels
from tiltrotor.errors import RepresentationSingular
from tiltrotor.linearization import DetCoefficients

from _oracles import abc_direct, decoupling_direct


def test_structure_at_level_zero_tilt(params):
    dm = tr.decoupling_matrix(np.zeros(3), np.zeros(4), params)
    kf = params.k_f
    np.testing.assert_allclose(
        dm.delta[3], np.array([-kf, kf, -kf, kf]) / params.m, atol=1e-21
    )
    expected_top = np.linalg.solve(params.inertia, tr.torque_matrix(np.zeros(4), params))
    np.testing.assert_allclose(dm.delta[0:3], expected_top, rtol=1e-12)


def test_matches_oracle_assembly(params, rng):
    for _ in range(100):
        eta = rng.uniform(-1.2, 1.2, 3)
        alpha = rng.uniform(-math.pi, math.pi, 4)
        dm = tr.decoupling_matrix(eta, alpha, params)
        np.testing.assert_allclose(dm.delta, decoupling_direct(eta, alpha, params),
                                   rtol=1e-9, atol=1e-22)


def test_yaw_invariance(params, rng):
    for _ in range(50):
        phi, theta = rng.uniform(-1.2, 1.2, 2)
        alpha = rng.uniform(-math.pi, math.pi, 4)
        dets = [
            tr.decoupling_matrix([phi, theta, psi], alpha, params).det
            for psi in np.linspace(-math.pi, math.pi, 16, endpoint=False)
        ]
        spread = (max(dets) - min(dets)) / max(abs(d) for d in dets)
        assert spread < 1e-12


def test_pitch_guard(params):
    with pytest.raises(RepresentationSingular):
        tr.decoupling_matrix([0.0, math.pi / 2, 0.0], np.zeros(4), params)


def test_determinant_decomposition_identity(params, rng):
    det_ib = np.linalg.det(params.inertia)
    for _ in range(1000):
        phi, theta = rng.uniform(-1.3, 1.3, 2)
        psi = rng.uniform(-math.pi, math.pi)
        alpha = rng.uniform(-math.pi, math.pi, 4)
        dm = tr.decoupling_matrix([phi, theta, psi], alpha, params)
        coeffs = tr.det_decomposition(alpha, params)
        lhs = params.m * math.cos(theta) * det_ib * dm.det
        rhs = float(tr.normalized_det(phi, theta, coeffs))
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))


def test_coefficients_match_direct_determinants(params, rng):
    for _ in range(200):
        alpha = rng.uniform(-math.pi, math.pi, 4)
        coeffs = tr.det_decomposition(alpha, params)
        want = abc_direct(alpha, params)
        np.testing.assert_allclose(coeffs.abc, want, rtol=1e-9, atol=1e-34)


def test_coefficients_at_zero_tilt(params):
    coeffs = tr.det_decomposition(np.zeros(4), params)
    # thrust rows 1-2 vanish identically at zero tilt
    assert coeffs.A == 0.0 and coeffs.B == 0.0
    assert coeffs.C != 0.0
    # C relates to the level-attitude determinant
    dm = tr.decoupling_matrix(np.zeros(3), np.zeros(4), params)
    det_ib = np.linalg.det(params.inertia)
    assert abs(coeffs.C / (params.m * det_ib) - dm.det) <= 1e-9 * abs(dm.det)


def test_normalized_det_examples():
    c = DetCoefficients(A=0.3, B=-0.2, C=0.7)
    assert float(tr.normalized_det(0.0, 0.0, c)) == 0.7
    # factorized form when A = B = 0
    c2 = DetCoefficients(A=0.0, B=0.0, C=0.7)
    phi, theta = 0.35, -0.8
    g = float(tr.normalized_det(phi, theta, c2))
    assert abs(g - 0.7 * math.cos(phi) * math.cos(theta)) < 1e-15
    # zero curve of (A, B, C) = (1, 0, 1) satisfies tan(theta) = cos(phi)
    c3 = DetCoefficients(A=1.0, B=0.0, C=1.0)
    for phi in np.linspace(-1.2, 1.2, 13):
        theta = math.atan(math.cos(phi))
        assert abs(float(tr.normalized_det(phi, theta, c3))) < 1e-15


def _minor3(t, c0, c1, c2):
    # det of the 3x3 whose columns are torque columns c0, c1, c2
    a, b, c = t[0 + c0], t[0 + c1], t[0 + c2]
    d, e, f = t[4 + c0], t[4 + c1], t[4 + c2]
    g, h, i = t[8 + c0], t[8 + c1], t[8 + c2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _torque_minors(tilt, k_f, k_m, arm):
    # the four 3x3 minors of the torque map, column j removed
    t = kernels.torque_entries(tilt, k_f, k_m, arm)
    return (_minor3(t, 1, 2, 3), _minor3(t, 0, 2, 3), _minor3(t, 0, 1, 3), _minor3(t, 0, 1, 2))


def test_cofactor_sums_match_minors(params, rng):
    # A, B, C are the cofactor sums of the thrust rows against the minors
    for _ in range(50):
        alpha = rng.uniform(-math.pi, math.pi, 4)
        coeffs = tr.det_decomposition(alpha, params)
        F = tr.thrust_matrix(alpha, params)
        D = np.array(_torque_minors(kernels.tilt_trig(tuple(alpha.tolist())),
                                    params.k_f, params.k_m, params.arm_length))
        signs = np.array([-1.0, 1.0, -1.0, 1.0])
        np.testing.assert_allclose(coeffs.A, np.sum(signs * F[0] * D), rtol=1e-12, atol=1e-40)
        np.testing.assert_allclose(coeffs.B, np.sum(signs * F[1] * D), rtol=1e-12, atol=1e-40)
        np.testing.assert_allclose(coeffs.C, np.sum(signs * F[2] * D), rtol=1e-12, atol=1e-40)


@pytest.mark.parametrize("k_m, arm", [(2.423e-7, 0.3), (3e-6, 0.12)])
def test_det_coeffs_is_the_maps_and_minors_composed(rng, k_m, arm):
    # the kernel bit for bit against thrust_entries, torque_entries and
    # the minors, each taken on its own
    k_f = 8.048e-6
    tilts = [tuple(rng.uniform(-4.0, 4.0, 4).tolist()) for _ in range(2000)]
    tilts += [(0.0,) * 4, (math.pi / 2,) * 4, (0.3, -0.2, 0.3, -0.2),
              (0.3, -0.2, 0.3 + math.pi, -0.2)]
    for alpha in tilts:
        tilt = kernels.tilt_trig(alpha)
        F = kernels.thrust_entries(tilt, k_f)
        D = _torque_minors(tilt, k_f, k_m, arm)
        want = tuple(-F[r] * D[0] + F[r + 1] * D[1] - F[r + 2] * D[2] + F[r + 3] * D[3]
                     for r in (0, 4, 8))
        got = kernels.det_coeffs(*alpha, k_f, k_m, arm)
        assert np.array(got).tobytes() == np.array(want).tobytes(), alpha


def test_cross_of_plucker_is_the_4x4_determinant(rng):
    # e . _cross(_plucker(a, b), c) = det[a; b; c; e] for every row e, on
    # rows of mixed magnitude, as floats and as numpy columns
    rows = rng.normal(size=(500, 4, 4)) * 10.0 ** rng.uniform(-3.0, 3.0, (500, 4, 1))
    bound = 1e-12 * np.prod(np.linalg.norm(rows, axis=2), axis=1)
    want = np.linalg.det(rows)
    for m, w, tol in zip(rows, want, bound):
        a, b, c, e = m.tolist()
        x = kernels._cross(kernels._plucker(a, b), c)
        assert abs(e[0] * x[0] + e[1] * x[1] + e[2] * x[2] + e[3] * x[3] - w) <= tol
    a, b, c, e = (tuple(rows[:, i, j] for j in range(4)) for i in range(4))
    x = kernels._cross(kernels._plucker(a, b), c)
    assert np.all(np.abs(e[0] * x[0] + e[1] * x[1] + e[2] * x[2] + e[3] * x[3] - want) <= bound)


def test_drift_zero_rates(params, rng):
    for _ in range(20):
        eta = rng.uniform(-1.2, 1.2, 3)
        state = tr.State(pos=rng.uniform(-1, 1, 3), vel=rng.uniform(-1, 1, 3), eta=eta)
        b = tr.drift_vector(state, params)
        np.testing.assert_allclose(b, [0.0, 0.0, 0.0, -params.g], atol=1e-15)


def test_drift_matches_finite_difference(params, rng):
    # d(eta_dot)/dt along the unforced flow (w = 0) equals b[0:3]
    h = 1e-6
    for _ in range(20):
        eta = rng.uniform(-0.8, 0.8, 3)
        omega = rng.uniform(-0.5, 0.5, 3)
        state = tr.State(eta=eta, omega=omega)
        b = tr.drift_vector(state, params)

        def eta_dot_at(dt):
            x = state.as_array()
            d = tr.state_derivative(tr.State.from_array(x), np.zeros(4), np.zeros(4), params)
            x2 = x + dt * d  # Euler probe along the flow
            d2 = tr.state_derivative(tr.State.from_array(x2), np.zeros(4), np.zeros(4), params)
            return d2[6:9]

        fd = (eta_dot_at(h) - eta_dot_at(-h)) / (2 * h)
        np.testing.assert_allclose(b[0:3], fd, atol=1e-5)


def test_output_accelerations_consistency(params, rng):
    # (roll'', pitch'', yaw'', z'') from the plant equal b + Delta @ w
    for _ in range(100):
        x = rng.uniform(-1, 1, 12)
        x[7] *= 0.9
        alpha = rng.uniform(-math.pi, math.pi, 4)
        w = rng.uniform(-3e5, 3e5, 4)
        state = tr.State.from_array(x)
        dm = tr.decoupling_matrix(state.eta, alpha, params)
        b = tr.drift_vector(state, params)
        pred = b + dm.delta @ w

        d = tr.state_derivative(state, alpha, w, params)
        eta_dot, omega_dot = d[6:9], d[9:12]
        # eta'' = Tdot omega + T omega_dot; reuse the plant pieces only
        h = 1e-7
        T_p = tr.euler_rate_matrix(state.eta + h * eta_dot)
        T_m = tr.euler_rate_matrix(state.eta - h * eta_dot)
        T = tr.euler_rate_matrix(state.eta)
        tdot_omega = (T_p - T_m) / (2 * h) @ state.omega
        eta_dd = tdot_omega + T @ omega_dot
        actual = np.array([eta_dd[0], eta_dd[1], eta_dd[2], d[5]])
        scale = max(1.0, np.max(np.abs(actual)))
        np.testing.assert_allclose(pred, actual, rtol=0, atol=5e-6 * scale)


def test_exact_consistency_identity(params, rng):
    # algebraic check at tighter tolerance: b + Delta w vs Tdot omega + T omega_dot
    # with Tdot built from the same analytic expression family
    for _ in range(200):
        x = rng.uniform(-1, 1, 12)
        x[7] *= 0.9
        alpha = rng.uniform(-math.pi, math.pi, 4)
        w = rng.uniform(-3e5, 3e5, 4)
        state = tr.State.from_array(x)
        dm = tr.decoupling_matrix(state.eta, alpha, params)
        b = tr.drift_vector(state, params)
        pred = b + dm.delta @ w
        d = tr.state_derivative(state, alpha, w, params)
        # yaw/roll/pitch acceleration via analytic Tdot (oracle of its own):
        phi, theta = state.eta[0], state.eta[1]
        dphi, dtheta = d[6], d[7]
        cf, sf, ct, st = math.cos(phi), math.sin(phi), math.cos(theta), math.sin(theta)
        tt, sec2 = st / ct, 1.0 / ct**2
        tdot = np.array([
            [0.0, cf * tt * dphi + sf * sec2 * dtheta, -sf * tt * dphi + cf * sec2 * dtheta],
            [0.0, -sf * dphi, -cf * dphi],
            [0.0, cf / ct * dphi + sf * st * sec2 * dtheta,
             -sf / ct * dphi + cf * st * sec2 * dtheta],
        ])
        eta_dd = tdot @ state.omega + tr.euler_rate_matrix(state.eta) @ d[9:12]
        actual = np.array([eta_dd[0], eta_dd[1], eta_dd[2], d[5]])
        scale = max(np.max(np.abs(actual)), np.max(np.abs(pred)), 1e-30)
        assert np.max(np.abs(pred - actual)) <= 1e-9 * scale


def test_singularity_ratio_behaviour(params):
    healthy = tr.decoupling_matrix(np.zeros(3), np.zeros(4), params)
    assert not healthy.is_singular()
    assert healthy.ratio > 1e-2

    # on-branch completion where the remaining coefficient C crosses zero:
    # the matrix is singular at every attitude there
    def c_on_sheet(a2):
        return tr.det_decomposition((0.2, a2, 0.2, a2), params).C

    lo, hi = -0.2, 0.2
    assert c_on_sheet(lo) * c_on_sheet(hi) < 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if c_on_sheet(lo) * c_on_sheet(mid) <= 0:
            hi = mid
        else:
            lo = mid
    a2 = 0.5 * (lo + hi)
    sick = tr.decoupling_matrix(np.zeros(3), (0.2, a2, 0.2, a2), params)
    assert sick.is_singular()

    # a vehicle so weak that scale**4 underflows reads ratio 0, and singular
    faint = tr.decoupling_matrix(np.zeros(3), np.zeros(4), tr.Params(k_f=1e-100, k_m=1e-101))
    assert faint.scale > 0.0 and faint.scale**4 == 0.0
    assert faint.ratio == 0.0 and faint.is_singular()
