"""The package's hot kernels, the one implementation of its inner math.

The kernels operate on plain floats and tuples, without numpy call
overhead: arithmetic on ``numpy.float64`` scalars would cost about twice
as much per operation.  :func:`q_entries`, :func:`tilt_factors` and the
cofactor helpers are ``+ - * /`` alone, so they also take numpy columns,
a block of tilts at once.

The input maps are written once, in :func:`thrust_entries` and
:func:`torque_entries`; :func:`det_coeffs` and :func:`q_entries` unpack
them.  The cofactor algebra is written once, in :func:`_plucker` and
:func:`_cross`: every 2x2 minor and cofactor row below comes from them.
The decoupling law is written once too: :func:`tilt_factors` factors
``Q = inv(I_B) @ torque map`` (:func:`q_entries`) per tilt, the
tracking loop's ``control.fl_core`` solves each step from those factors,
and :func:`decoupling` is the same law written out as the explicit
matrix, for the public ``decoupling_matrix``.
:func:`rk4_step` is the one hand-written form of the plant: it forms the
maps times the input grouped by sine and cosine, and the public
``model.state_derivative`` composes the same model from the public maps.

Conventions baked into the kernels:

* Euler angles are Z-Y-X (yaw, pitch, roll), ``R = Rz(psi) @ Ry(theta) @ Rx(phi)``.
* ``state`` is the 12-tuple ``(x, y, z, vx, vy, vz, phi, theta, psi, p, q, r)``.
* ``pp`` is the parameter pack
  ``(m, g, kf, km, arm, i00, i01, i02, i10, i11, i12, i20, i21, i22)``
  with ``i..`` the row-major inverse inertia matrix.
* The step kernels take sines and cosines, not angles, so that a caller
  can take them once and share them: ``att`` is the attitude set of
  :func:`attitude_trig` and ``tilt`` the tilt set of :func:`tilt_trig`.
* The kernels divide by the pitch cosine as it is, which no double
  makes zero: the least ``|cos|`` of a double is 4.7e-19, at
  6381956970095103 * 2**797, the worst case of argument reduction.
  The callers of :func:`euler_rate_entries` and :func:`decoupling`
  refuse a pitch in the guard band (``model.check_pitch``);
  :func:`rk4_step` checks no stage's pitch and needs no guard.
"""

import sys
from math import cos, exp, log, sin, sqrt


def attitude_trig(phi, theta, psi):
    """``(sf, cf, st, ct, sp, cp)``: sines and cosines of roll, pitch and yaw."""
    return sin(phi), cos(phi), sin(theta), cos(theta), sin(psi), cos(psi)


def tilt_trig(alpha):
    """``(s1, s2, s3, s4, c1, c2, c3, c4)``: sines and cosines of the four tilts."""
    a1, a2, a3, a4 = alpha
    return sin(a1), sin(a2), sin(a3), sin(a4), cos(a1), cos(a2), cos(a3), cos(a4)


def thrust_entries(tilt, kf):
    """Row-major 3x4 map from signed squared rotor speeds to body force."""
    s1, s2, s3, s4, c1, c2, c3, c4 = tilt
    return (
        0.0, kf * s2, 0.0, -kf * s4,
        kf * s1, 0.0, -kf * s3, 0.0,
        -kf * c1, kf * c2, -kf * c3, kf * c4,
    )


def torque_entries(tilt, kf, km, arm):
    """Row-major 3x4 map from signed squared rotor speeds to body torque."""
    s1, s2, s3, s4, c1, c2, c3, c4 = tilt
    lk = arm * kf
    return (
        0.0, lk * c2 - km * s2, 0.0, -lk * c4 + km * s4,
        lk * c1 + km * s1, 0.0, -lk * c3 - km * s3, 0.0,
        lk * s1 - km * c1, -lk * s2 - km * c2, lk * s3 - km * c3, -lk * s4 - km * c4,
    )


def _plucker(r, s):
    """The six 2x2 minors ``r_j s_k - r_k s_j`` of rows ``r`` and ``s``, jk = 01, 02, 03, 12, 13, 23."""
    r0, r1, r2, r3 = r
    s0, s1, s2, s3 = s
    return (
        r0 * s1 - r1 * s0, r0 * s2 - r2 * s0, r0 * s3 - r3 * s0,
        r1 * s2 - r2 * s1, r1 * s3 - r3 * s1, r2 * s3 - r3 * s2,
    )


def _cross(p, c):
    """The x with ``e . x = det[a; b; c; e]`` for every row ``e``, where ``p = _plucker(a, b)``."""
    p01, p02, p03, p12, p13, p23 = p
    c0, c1, c2, c3 = c
    return (
        p13 * c2 - p23 * c1 - p12 * c3,
        p23 * c0 - p03 * c2 + p02 * c3,
        p03 * c1 - p13 * c0 - p01 * c3,
        p12 * c0 - p02 * c1 + p01 * c2,
    )


def det_coeffs(a1, a2, a3, a4, kf, km, arm):
    """Attitude-independent coefficients of the decoupling-matrix determinant.

    Returns ``(A, B, C) = (f0 . n, f1 . n, f2 . n)``: ``A = det[T; f0]`` with
    ``T`` the torque map, ``n`` its cofactor row and ``fi`` the thrust rows.
    """
    tilt = tilt_trig((a1, a2, a3, a4))
    f00, f01, f02, f03, f10, f11, f12, f13, f20, f21, f22, f23 = thrust_entries(tilt, kf)
    t = torque_entries(tilt, kf, km, arm)
    n0, n1, n2, n3 = _cross(_plucker(t[4:8], t[8:12]), t[0:4])
    return (
        f00 * n0 + f01 * n1 + f02 * n2 + f03 * n3,
        f10 * n0 + f11 * n1 + f12 * n2 + f13 * n3,
        f20 * n0 + f21 * n1 + f22 * n2 + f23 * n3,
    )


def newton_ab(a1, a2, s3, s4, kf, km, arm, tol, step_tol, max_iter):
    """Damped 2-D Newton for A(a3, a4) = B(a3, a4) = 0 at fixed (a1, a2).

    Finite-difference Jacobian with a 1e-6 rad step; step backtracking
    halves up to 8 times while |A| + |B| does not decrease.  Converged
    means ``|A| + |B| < tol`` after a Newton step of at most ``step_tol``
    rad per coordinate: where |A| + |B| is very flat, the residual alone
    falls below ``tol`` far from any root.

    The package itself finds no root numerically: ``gaitlab.scan_roots``
    writes the whole root set down in closed form, and the test suite's
    multi-start scan over this kernel is its independent oracle.

    Returns ``(a3, a4, residual, converged)`` with ``residual = |A| + |B|``.
    """
    h = 1e-6
    x0, x1 = s3, s4
    fa, fb, _ = det_coeffs(a1, a2, x0, x1, kf, km, arm)
    res = abs(fa) + abs(fb)
    for _ in range(max_iter):
        ga0, gb0, _ = det_coeffs(a1, a2, x0 + h, x1, kf, km, arm)
        ga1, gb1, _ = det_coeffs(a1, a2, x0, x1 + h, kf, km, arm)
        j00 = (ga0 - fa) / h
        j10 = (gb0 - fb) / h
        j01 = (ga1 - fa) / h
        j11 = (gb1 - fb) / h
        det = j00 * j11 - j01 * j10
        if det == 0.0:
            return x0, x1, res, 0
        d0 = -(j11 * fa - j01 * fb) / det
        d1 = -(-j10 * fa + j00 * fb) / det
        lam = 1.0
        for _ in range(8):
            y0, y1 = x0 + lam * d0, x1 + lam * d1
            na, nb, _ = det_coeffs(a1, a2, y0, y1, kf, km, arm)
            nres = abs(na) + abs(nb)
            if nres <= res:
                break
            lam *= 0.5
        x0, x1, fa, fb, res = y0, y1, na, nb, nres
        if res < tol and abs(d0) <= step_tol and abs(d1) <= step_tol:
            return x0, x1, res, 1
    return x0, x1, res, 0


def rotation_entries(phi, theta, psi):
    """Row-major body-to-world rotation matrix for Z-Y-X Euler angles."""
    cf, sf = cos(phi), sin(phi)
    ct, st = cos(theta), sin(theta)
    cp, sp = cos(psi), sin(psi)
    return (
        cp * ct, cp * st * sf - sp * cf, cp * st * cf + sp * sf,
        sp * ct, sp * st * sf + cp * cf, sp * st * cf - cp * sf,
        -st, ct * sf, ct * cf,
    )


def euler_rate_entries(phi, theta):
    """Row-major map from body rates to Euler-angle rates (yaw-independent)."""
    cf, sf = cos(phi), sin(phi)
    ct = cos(theta)
    tt = sin(theta) / ct
    return (
        1.0, sf * tt, cf * tt,
        0.0, cf, -sf,
        0.0, sf / ct, cf / ct,
    )


def rk4_step(state, att_0, tilt_0, tilt_mid, tilt_1, w, dt, pp):
    """One classical Runge-Kutta step holding the input ``w`` over the step.

    ``att_0`` is the attitude trig of ``state``; ``tilt_0``, ``tilt_mid``
    and ``tilt_1`` are the tilt trig at the step start, midpoint and end;
    ``w`` is the signed squared rotor-speed input, held constant (the
    zero-order hold of the tracking loop).  This is the package's one
    hand-written form of the plant; ``model.state_derivative`` states the
    same model over the public maps, and the tests check this step
    against textbook RK4 of it.

    The input-dependent part of the derivative, body force and ``inv(I_B)``
    times body torque (:func:`thrust_entries` and :func:`torque_entries`
    times ``w``, grouped by sine and cosine), is state-free, so it is
    formed once per stage tilt: stages 2 and 3 share ``tilt_mid``.  Each
    stage then only evaluates the attitude-dependent rotation and
    Euler-rate terms.  The stage sums are those of the textbook scheme
    written out per component.  No stage's pitch cosine is zero, so
    none is guarded (see the module docstring).
    """
    m, g, kf, km, arm, i00, i01, i02, i10, i11, i12, i20, i21, i22 = pp
    lk = arm * kf
    half = 0.5 * dt
    x, y, z, vx, vy, vz, phi, theta, psi, p, q, r = state

    # input effect at the step start, midpoint and end: body force
    # (fx, fy, fz) and body angular acceleration (dp, dq, dr)
    w1, w2, w3, w4 = w
    s1, s2, s3, s4, c1, c2, c3, c4 = tilt_0
    sw1, sw2 = s1 * w1, s2 * w2
    sw3, sw4 = s3 * w3, s4 * w4
    cw1, cw2 = c1 * w1, c2 * w2
    cw3, cw4 = c3 * w3, c4 * w4
    s13, s24 = sw1 - sw3, sw2 - sw4
    tx = lk * (cw2 - cw4) - km * s24
    ty = lk * (cw1 - cw3) + km * s13
    tz = lk * (sw1 - sw2 + sw3 - sw4) - km * (cw1 + cw2 + cw3 + cw4)
    fx0, fy0, fz0 = kf * s24, kf * s13, kf * (cw2 + cw4 - cw1 - cw3)
    dp0 = i00 * tx + i01 * ty + i02 * tz
    dq0 = i10 * tx + i11 * ty + i12 * tz
    dr0 = i20 * tx + i21 * ty + i22 * tz
    s1, s2, s3, s4, c1, c2, c3, c4 = tilt_mid
    sw1, sw2 = s1 * w1, s2 * w2
    sw3, sw4 = s3 * w3, s4 * w4
    cw1, cw2 = c1 * w1, c2 * w2
    cw3, cw4 = c3 * w3, c4 * w4
    s13, s24 = sw1 - sw3, sw2 - sw4
    tx = lk * (cw2 - cw4) - km * s24
    ty = lk * (cw1 - cw3) + km * s13
    tz = lk * (sw1 - sw2 + sw3 - sw4) - km * (cw1 + cw2 + cw3 + cw4)
    fxm, fym, fzm = kf * s24, kf * s13, kf * (cw2 + cw4 - cw1 - cw3)
    dpm = i00 * tx + i01 * ty + i02 * tz
    dqm = i10 * tx + i11 * ty + i12 * tz
    drm = i20 * tx + i21 * ty + i22 * tz
    s1, s2, s3, s4, c1, c2, c3, c4 = tilt_1
    sw1, sw2 = s1 * w1, s2 * w2
    sw3, sw4 = s3 * w3, s4 * w4
    cw1, cw2 = c1 * w1, c2 * w2
    cw3, cw4 = c3 * w3, c4 * w4
    s13, s24 = sw1 - sw3, sw2 - sw4
    tx = lk * (cw2 - cw4) - km * s24
    ty = lk * (cw1 - cw3) + km * s13
    tz = lk * (sw1 - sw2 + sw3 - sw4) - km * (cw1 + cw2 + cw3 + cw4)
    fx1, fy1, fz1 = kf * s24, kf * s13, kf * (cw2 + cw4 - cw1 - cw3)
    dp1 = i00 * tx + i01 * ty + i02 * tz
    dq1 = i10 * tx + i11 * ty + i12 * tz
    dr1 = i20 * tx + i21 * ty + i22 * tz

    # each stage: R @ f one elementary rotation at a time, Rx(phi), Ry(theta)
    # and Rz(psi), and the Euler rates dphi = p + tan(theta) u, dtheta =
    # cf q - sf r and dpsi = u / cos(theta) through u = sf q + cf r
    # stage 1 at the step start; its body-rate slope is (dp0, dq0, dr0)
    sf, cf, st, ct, sp, cp = att_0
    ry = cf * fy0 - sf * fz0
    rz = sf * fy0 + cf * fz0
    rx = ct * fx0 + st * rz
    u = sf * q + cf * r
    ax1, ay1 = (cp * rx - sp * ry) / m, (sp * rx + cp * ry) / m
    az1 = (ct * rz - st * fx0) / m - g
    ef1, et1, ep1 = p + st / ct * u, cf * q - sf * r, u / ct
    # stage 2 at the midpoint along k1
    vx2, vy2, vz2 = vx + half * ax1, vy + half * ay1, vz + half * az1
    p2, q2, r2 = p + half * dp0, q + half * dq0, r + half * dr0
    a, b, c = phi + half * ef1, theta + half * et1, psi + half * ep1
    sf, cf = sin(a), cos(a)
    st, ct = sin(b), cos(b)
    sp, cp = sin(c), cos(c)
    ry = cf * fym - sf * fzm
    rz = sf * fym + cf * fzm
    rx = ct * fxm + st * rz
    u = sf * q2 + cf * r2
    ax2, ay2 = (cp * rx - sp * ry) / m, (sp * rx + cp * ry) / m
    az2 = (ct * rz - st * fxm) / m - g
    ef2, et2, ep2 = p2 + st / ct * u, cf * q2 - sf * r2, u / ct
    # stage 3 at the midpoint along k2
    vx3, vy3, vz3 = vx + half * ax2, vy + half * ay2, vz + half * az2
    p3, q3, r3 = p + half * dpm, q + half * dqm, r + half * drm
    a, b, c = phi + half * ef2, theta + half * et2, psi + half * ep2
    sf, cf = sin(a), cos(a)
    st, ct = sin(b), cos(b)
    sp, cp = sin(c), cos(c)
    ry = cf * fym - sf * fzm
    rz = sf * fym + cf * fzm
    rx = ct * fxm + st * rz
    u = sf * q3 + cf * r3
    ax3, ay3 = (cp * rx - sp * ry) / m, (sp * rx + cp * ry) / m
    az3 = (ct * rz - st * fxm) / m - g
    ef3, et3, ep3 = p3 + st / ct * u, cf * q3 - sf * r3, u / ct
    # stage 4 at the step end along k3
    vx4, vy4, vz4 = vx + dt * ax3, vy + dt * ay3, vz + dt * az3
    p4, q4, r4 = p + dt * dpm, q + dt * dqm, r + dt * drm
    a, b, c = phi + dt * ef3, theta + dt * et3, psi + dt * ep3
    sf, cf = sin(a), cos(a)
    st, ct = sin(b), cos(b)
    sp, cp = sin(c), cos(c)
    ry = cf * fy1 - sf * fz1
    rz = sf * fy1 + cf * fz1
    rx = ct * fx1 + st * rz
    u = sf * q4 + cf * r4
    ax4, ay4 = (cp * rx - sp * ry) / m, (sp * rx + cp * ry) / m
    az4 = (ct * rz - st * fx1) / m - g
    ef4, et4, ep4 = p4 + st / ct * u, cf * q4 - sf * r4, u / ct

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


def q_entries(tilt, pp):
    """Row-major 3x4 ``Q = inv(I_B) @ torque map`` at a :func:`tilt_trig` set (floats or columns)."""
    _, _, kf, km, arm, i00, i01, i02, i10, i11, i12, i20, i21, i22 = pp
    # the nonzero entries of the torque map, rows tx = (0, x1, 0, x3),
    # ty = (y0, 0, y2, 0) and tz = (z0, z1, z2, z3); q_ij = I_i0 tx_j + I_i1 ty_j + I_i2 tz_j
    _, x1, _, x3, y0, _, y2, _, z0, z1, z2, z3 = torque_entries(tilt, kf, km, arm)
    return (
        i01 * y0 + i02 * z0, i00 * x1 + i02 * z1, i01 * y2 + i02 * z2, i00 * x3 + i02 * z3,
        i11 * y0 + i12 * z0, i10 * x1 + i12 * z1, i11 * y2 + i12 * z2, i10 * x3 + i12 * z3,
        i21 * y0 + i22 * z0, i20 * x1 + i22 * z1, i21 * y2 + i22 * z2, i20 * x3 + i22 * z3,
    )


def tilt_factors(tilt, pack) -> tuple:
    """The tilt-only factors of the decoupling matrix: 22 values per tilt.

    ``tilt`` is the :func:`tilt_trig` set (four sines, then four
    cosines) as eight floats, giving 22 floats, or as eight numpy columns
    (``trig.T`` of an ``(n, 8)`` block), giving 22 columns.  One body of
    ``+ - * /`` serves both, so a block row is the float row bit for bit.
    With ``Q = inv(I_B) @ torque_map`` (3x4) the decoupling matrix is
    ``blockdiag(T, 1) @ [Q; v]``, ``T`` the Euler-rate map and ``v`` the
    attitude-dependent vertical row.  The values are, for ``control.fl_core``:

    * ``K = Q^T (Q Q^T)^-1`` (12 values, row by row): a right inverse of ``Q``;
    * ``n`` (4 values), the cofactors of the fourth row of ``[Q; v]``, so
      ``Q n = 0`` and ``det [Q; v] = v . n``;
    * ``G = Q Q^T`` (6 values, upper triangle row by row), for the row norms.

    ``K`` is formed from cofactors, not by inverting ``G``: its column
    ``i`` is ``-_cross(p, n) / (n . n)`` with ``p`` the pair of the other
    two rows of ``Q``, orthogonal to them and to ``n``, which keeps it as
    accurate as ``Q`` is conditioned, not ``G``.  Where ``n . n`` is zero
    or subnormal (``Q`` rank-deficient to working precision) the divisor
    becomes 1, with no branch on the input's type, so ``1 / (n . n)``
    cannot overflow: ``K`` is linear in ``n``, so it is zero or as small
    as ``n`` there, and the vanishing determinant makes the step hold.
    """
    q00, q01, q02, q03, q10, q11, q12, q13, q20, q21, q22, q23 = q = q_entries(tilt, pack)
    q0, q1, q2 = q[0:4], q[4:8], q[8:12]
    a, b, d = _plucker(q1, q2), _plucker(q2, q0), _plucker(q0, q1)
    n0, n1, n2, n3 = n = _cross(d, q2)
    nn = n0 * n0 + n1 * n1 + n2 * n2 + n3 * n3
    h = -1.0 / (nn + (nn < sys.float_info.min))
    ka, kb, kd = _cross(a, n), _cross(b, n), _cross(d, n)
    return (
        ka[0] * h, kb[0] * h, kd[0] * h, ka[1] * h, kb[1] * h, kd[1] * h,
        ka[2] * h, kb[2] * h, kd[2] * h, ka[3] * h, kb[3] * h, kd[3] * h,
        n0, n1, n2, n3,
        q00 * q00 + q01 * q01 + q02 * q02 + q03 * q03,
        q00 * q10 + q01 * q11 + q02 * q12 + q03 * q13,
        q00 * q20 + q01 * q21 + q02 * q22 + q03 * q23,
        q10 * q10 + q11 * q11 + q12 * q12 + q13 * q13,
        q10 * q20 + q11 * q21 + q12 * q22 + q13 * q23,
        q20 * q20 + q21 * q21 + q22 * q22 + q23 * q23,
    )


def decoupling(att, p, q, r, tilt, pp):
    """Decoupling matrix, drift vector, determinant and row-norm scale.

    ``att`` is the attitude trig (only roll and pitch enter) and ``tilt``
    the tilt trig.  Returns ``(delta, b, det, scale)`` where ``delta`` is
    the row-major 4x4 matrix mapping signed squared rotor speeds to
    (roll'', pitch'', yaw'', altitude'') contributions, ``b`` is the
    matching drift 4-vector and ``scale`` is the geometric mean of the
    four row norms of ``delta``.

    The tracking loop's law written out, for the public ``decoupling_matrix``
    and ``drift_vector``: ``delta = blockdiag(T, 1) @ [Q; v]`` (``T`` the
    Euler-rate map, ``v`` formed as ``control.fl_core`` forms it) and ``det
    = v . n / cos(theta)`` with ``n`` formed as :func:`tilt_factors` forms
    it, so at the same trig ``det`` is the loop's determinant bit for bit.
    """
    m, g, kf = pp[0], pp[1], pp[2]
    sf, cf, st, ct = att[0], att[1], att[2], att[3]
    tt = st / ct
    q00, q01, q02, q03, q10, q11, q12, q13, q20, q21, q22, q23 = qm = q_entries(tilt, pp)
    # T = (rows: 1, sf*tt, cf*tt / 0, cf, -sf / 0, sf/ct, cf/ct)
    t01, t02, t21, t22 = sf * tt, cf * tt, sf / ct, cf / ct
    # v = R[2, :] @ F / m: world vertical acceleration per unit input
    s1, s2, s3, s4, c1, c2, c3, c4 = tilt
    fm = kf / m
    r31, r32 = ct * sf, ct * cf
    e30, e31 = fm * (r31 * s1 - r32 * c1), fm * (r32 * c2 - st * s2)
    e32, e33 = -fm * (r31 * s3 + r32 * c3), fm * (r32 * c4 + st * s4)
    d = (
        q00 + t01 * q10 + t02 * q20, q01 + t01 * q11 + t02 * q21,
        q02 + t01 * q12 + t02 * q22, q03 + t01 * q13 + t02 * q23,
        cf * q10 - sf * q20, cf * q11 - sf * q21, cf * q12 - sf * q22, cf * q13 - sf * q23,
        t21 * q10 + t22 * q20, t21 * q11 + t22 * q21, t21 * q12 + t22 * q22, t21 * q13 + t22 * q23,
        e30, e31, e32, e33,
    )
    n0, n1, n2, n3 = _cross(_plucker(qm[0:4], qm[4:8]), qm[8:12])
    det = (e30 * n0 + e31 * n1 + e32 * n2 + e33 * n3) / ct

    # drift: Tdot(eta, etadot) @ omega with etadot = T @ omega, plus gravity.
    # With u = sf q + cf r the Euler rates are dphi = p + tan(theta) u and
    # dtheta = cf q - sf r, and Tdot @ omega reduces to the terms below.
    u = sf * q + cf * r
    dtheta = cf * q - sf * r
    dphi = p + tt * u
    tu = dtheta * u / (ct * ct)
    b = (tt * dphi * dtheta + tu, -dphi * u, dphi * dtheta / ct + st * tu, -g)

    rows = (d[0:4], d[4:8], d[8:12], d[12:16])
    norms = [sqrt(w * w + x * x + y * y + z * z) for w, x, y, z in rows]
    scale = exp(0.25 * sum(map(log, norms))) if min(norms) > 0.0 else 0.0
    return d, b, det, scale


def solve4(d, rhs):
    """Solve the 4x4 system ``d @ x = rhs`` by the adjugate (Cramer's rule).

    The determinant and the adjugate are both formed from the 2x2 minors
    of rows (0, 1) and rows (2, 3) (:func:`_plucker`).  Raises
    ``ArithmeticError`` when the determinant is exactly zero.
    """
    p01, p02, p03, p12, p13, p23 = _plucker(d[0:4], d[4:8])
    q01, q02, q03, q12, q13, q23 = _plucker(d[8:12], d[12:16])
    det = p01 * q23 - p02 * q13 + p03 * q12 + p12 * q03 - p13 * q02 + p23 * q01
    if det == 0.0:
        raise ArithmeticError("singular 4x4 system")
    d0, d1, d2, d3, d4, d5, d6, d7, d8, d9, d10, d11, d12, d13, d14, d15 = d
    r0, r1, r2, r3 = rhs
    # u_k / v_k: column k of rows (0, 1) / rows (2, 3) against the matching rhs pair
    u0, u1 = d4 * r0 - d0 * r1, d5 * r0 - d1 * r1
    u2, u3 = d6 * r0 - d2 * r1, d7 * r0 - d3 * r1
    v0, v1 = d12 * r2 - d8 * r3, d13 * r2 - d9 * r3
    v2, v3 = d14 * r2 - d10 * r3, d15 * r2 - d11 * r3
    return (
        (q23 * u1 - q13 * u2 + q12 * u3 + p23 * v1 - p13 * v2 + p12 * v3) / det,
        (-q23 * u0 + q03 * u2 - q02 * u3 - p23 * v0 + p03 * v2 - p02 * v3) / det,
        (q13 * u0 - q03 * u1 + q01 * u3 + p13 * v0 - p03 * v1 + p01 * v3) / det,
        (-q12 * u0 + q02 * u1 - q01 * u2 - p12 * v0 + p02 * v1 - p01 * v2) / det,
    )
