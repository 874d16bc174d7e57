"""The package's hot kernels, the one implementation of its inner math.

Every function here operates on plain floats and tuples, without numpy
call overhead: arithmetic on ``numpy.float64`` scalars would cost about
twice as much per operation.

Conventions baked into the kernels:

* Euler angles are Z-Y-X (yaw, pitch, roll), ``R = Rz(psi) @ Ry(theta) @ Rx(phi)``.
* ``state`` is the 12-tuple ``(x, y, z, vx, vy, vz, phi, theta, psi, p, q, r)``.
* ``pp`` is the parameter pack
  ``(m, g, kf, km, arm, i00, i01, i02, i10, i11, i12, i20, i21, i22)``
  with ``i..`` the row-major inverse inertia matrix.
* The step kernels take sines and cosines, not angles, so that a caller
  can take them once and share them: ``att`` is the attitude set of
  :func:`attitude_trig` and ``tilt`` the tilt set of :func:`tilt_trig`.
"""

from math import cos, exp, log, sin, sqrt


def attitude_trig(phi, theta, psi):
    """``(sf, cf, st, ct, sp, cp)``: sines and cosines of roll, pitch and yaw."""
    return sin(phi), cos(phi), sin(theta), cos(theta), sin(psi), cos(psi)


def tilt_trig(alpha):
    """``(s1, s2, s3, s4, c1, c2, c3, c4)``: sines and cosines of the four tilts."""
    a1, a2, a3, a4 = alpha
    return sin(a1), sin(a2), sin(a3), sin(a4), cos(a1), cos(a2), cos(a3), cos(a4)


def _safe_div(c: float) -> float:
    # keeps 1/cos(theta) finite if an integrator stage lands exactly on pi/2
    if c == 0.0:
        return 1e-300
    return c


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


def det_coeffs(a1, a2, a3, a4, kf, km, arm):
    """Attitude-independent coefficients of the decoupling-matrix determinant.

    Returns ``(A, B, C, D1, D2, D3, D4)`` where ``Dj`` is the 3x3 minor of
    the torque map with column ``j`` removed and ``A``, ``B``, ``C`` are the
    cofactor sums of the three thrust-map rows against those minors.
    """
    tilt = tilt_trig((a1, a2, a3, a4))
    f00, f01, f02, f03, f10, f11, f12, f13, f20, f21, f22, f23 = thrust_entries(tilt, kf)
    t00, t01, t02, t03, t10, t11, t12, t13, t20, t21, t22, t23 = torque_entries(tilt, kf, km, arm)
    # each minor expanded along the torque map's first row, with the 2x2
    # minors mPQ of its lower rows (columns P and Q) formed once
    m01 = t10 * t21 - t11 * t20
    m02 = t10 * t22 - t12 * t20
    m03 = t10 * t23 - t13 * t20
    m12 = t11 * t22 - t12 * t21
    m13 = t11 * t23 - t13 * t21
    m23 = t12 * t23 - t13 * t22
    d1 = t01 * m23 - t02 * m13 + t03 * m12
    d2 = t00 * m23 - t02 * m03 + t03 * m02
    d3 = t00 * m13 - t01 * m03 + t03 * m01
    d4 = t00 * m12 - t01 * m02 + t02 * m01
    A = -f00 * d1 + f01 * d2 - f02 * d3 + f03 * d4
    B = -f10 * d1 + f11 * d2 - f12 * d3 + f13 * d4
    C = -f20 * d1 + f21 * d2 - f22 * d3 + f23 * d4
    return A, B, C, d1, d2, d3, d4


def ab_residual(a1, a2, a3, a4, kf, km, arm):
    """Just the (A, B) pair of ``det_coeffs``: the residual of :func:`newton_ab`."""
    out = det_coeffs(a1, a2, a3, a4, kf, km, arm)
    return out[0], out[1]


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
    fa, fb = ab_residual(a1, a2, x0, x1, kf, km, arm)
    res = abs(fa) + abs(fb)
    for _ in range(max_iter):
        ga0, gb0 = ab_residual(a1, a2, x0 + h, x1, kf, km, arm)
        ga1, gb1 = ab_residual(a1, a2, x0, x1 + h, kf, km, arm)
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
            na, nb = ab_residual(a1, a2, y0, y1, kf, km, arm)
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
    ct = _safe_div(cos(theta))
    tt = sin(theta) / ct
    return (
        1.0, sf * tt, cf * tt,
        0.0, cf, -sf,
        0.0, sf / ct, cf / ct,
    )


def _input_effect(tilt, w, pp):
    """Body force and body angular acceleration of input ``w`` at tilt trig ``tilt``.

    Returns ``(fx, fy, fz, dp, dq, dr)``: the thrust map times ``w`` and
    ``inv(I_B)`` times the torque map times ``w``.  These are the only
    parts of the state derivative that depend on the inputs, and they do
    not depend on the state.
    """
    _, _, kf, km, arm, i00, i01, i02, i10, i11, i12, i20, i21, i22 = pp
    s1, s2, s3, s4, c1, c2, c3, c4 = tilt
    w1, w2, w3, w4 = w
    sw1, sw2, sw3, sw4 = s1 * w1, s2 * w2, s3 * w3, s4 * w4
    cw1, cw2, cw3, cw4 = c1 * w1, c2 * w2, c3 * w3, c4 * w4
    lk = arm * kf
    s13, s24 = sw1 - sw3, sw2 - sw4
    # rows of thrust_entries / torque_entries times w, grouped by sin and cos
    tx = lk * (cw2 - cw4) - km * s24
    ty = lk * (cw1 - cw3) + km * s13
    tz = lk * (sw1 - sw2 + sw3 - sw4) - km * (cw1 + cw2 + cw3 + cw4)
    return (
        kf * s24, kf * s13, kf * (cw2 + cw4 - cw1 - cw3),
        i00 * tx + i01 * ty + i02 * tz,
        i10 * tx + i11 * ty + i12 * tz,
        i20 * tx + i21 * ty + i22 * tz,
    )


def _attitude_rates(att, p, q, r, fx, fy, fz, m, g):
    """World acceleration and Euler-angle rates at one attitude, given its trig.

    Returns ``(ax, ay, az, dphi, dtheta, dpsi)`` for body force
    ``(fx, fy, fz)`` and body rates ``(p, q, r)``.
    """
    sf, cf, st, ct, sp, cp = att
    # R @ f applied one elementary rotation at a time: Rx(phi), Ry(theta), Rz(psi)
    fy1 = cf * fy - sf * fz
    fz1 = sf * fy + cf * fz
    fx2 = ct * fx + st * fz1
    # Euler rates: dphi = p + tan(theta) u, dtheta = cf q - sf r, dpsi = u / cos(theta)
    u = sf * q + cf * r
    ctd = _safe_div(ct)
    return (
        (cp * fx2 - sp * fy1) / m,
        (sp * fx2 + cp * fy1) / m,
        (ct * fz1 - st * fx) / m - g,
        p + st / ctd * u,
        cf * q - sf * r,
        u / ctd,
    )


def state_derivative(state, alpha, w, pp):
    """Time derivative of the 12-dimensional rigid-body state."""
    fx, fy, fz, dp, dq, dr = _input_effect(tilt_trig(alpha), w, pp)
    ax, ay, az, dphi, dtheta, dpsi = _attitude_rates(
        attitude_trig(state[6], state[7], state[8]), state[9], state[10], state[11],
        fx, fy, fz, pp[0], pp[1],
    )
    return (state[3], state[4], state[5], ax, ay, az, dphi, dtheta, dpsi, dp, dq, dr)


def rk4_step(state, att_0, tilt_0, tilt_mid, tilt_1, w, dt, pp):
    """One classical Runge-Kutta step holding the input ``w`` over the step.

    ``att_0`` is the attitude trig of ``state``; ``tilt_0``, ``tilt_mid``
    and ``tilt_1`` are the tilt trig at the step start, midpoint and end;
    ``w`` is the signed squared rotor-speed input, held constant (the
    zero-order hold of the tracking loop).  The input-dependent part of
    the derivative (:func:`_input_effect`) is state-free, so it is formed
    once per stage tilt: stages 2 and 3 share ``tilt_mid``.  Each stage
    then only evaluates the attitude-dependent rotation and Euler-rate
    terms (:func:`_attitude_rates`).  The stage sums are those of the
    textbook scheme written out per component.

    The body is written out in straight lines: it performs the operations
    of three :func:`_input_effect` calls, four :func:`_attitude_rates`
    calls and three :func:`attitude_trig` calls in their order, without
    the calls and their tuple packing, so it returns the same bits as the
    composition of those helpers.
    """
    m, g, kf, km, arm, i00, i01, i02, i10, i11, i12, i20, i21, i22 = pp
    lk = arm * kf
    half = 0.5 * dt
    x, y, z, vx, vy, vz, phi, theta, psi, p, q, r = state

    # input effect at the step start, midpoint and end, as in _input_effect:
    # body force (fx, fy, fz) and body angular acceleration (dp, dq, dr)
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

    # each stage as in _attitude_rates (ctd is its _safe_div of ct): R @ f
    # one elementary rotation at a time, and the Euler rates through
    # u = sf q + cf r
    # stage 1 at the step start; its body-rate slope is (dp0, dq0, dr0)
    sf, cf, st, ct, sp, cp = att_0
    ry = cf * fy0 - sf * fz0
    rz = sf * fy0 + cf * fz0
    rx = ct * fx0 + st * rz
    u = sf * q + cf * r
    ctd = ct if ct != 0.0 else 1e-300
    ax1, ay1 = (cp * rx - sp * ry) / m, (sp * rx + cp * ry) / m
    az1 = (ct * rz - st * fx0) / m - g
    ef1, et1, ep1 = p + st / ctd * u, cf * q - sf * r, u / ctd
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
    ctd = ct if ct != 0.0 else 1e-300
    ax2, ay2 = (cp * rx - sp * ry) / m, (sp * rx + cp * ry) / m
    az2 = (ct * rz - st * fxm) / m - g
    ef2, et2, ep2 = p2 + st / ctd * u, cf * q2 - sf * r2, u / ctd
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
    ctd = ct if ct != 0.0 else 1e-300
    ax3, ay3 = (cp * rx - sp * ry) / m, (sp * rx + cp * ry) / m
    az3 = (ct * rz - st * fxm) / m - g
    ef3, et3, ep3 = p3 + st / ctd * u, cf * q3 - sf * r3, u / ctd
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
    ctd = ct if ct != 0.0 else 1e-300
    ax4, ay4 = (cp * rx - sp * ry) / m, (sp * rx + cp * ry) / m
    az4 = (ct * rz - st * fx1) / m - g
    ef4, et4, ep4 = p4 + st / ctd * u, cf * q4 - sf * r4, u / ctd

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


def decoupling(att, p, q, r, tilt, pp):
    """Decoupling matrix, drift vector, determinant and row-norm scale.

    ``att`` is the attitude trig (only roll and pitch enter) and ``tilt``
    the tilt trig.  Returns ``(delta, b, det, scale)`` where ``delta`` is
    the row-major 4x4 matrix mapping signed squared rotor speeds to
    (roll'', pitch'', yaw'', altitude'') contributions, ``b`` is the
    matching drift 4-vector and ``scale`` is the geometric mean of the
    four row norms of ``delta``.  The tracking loop does not assemble
    ``delta``: it evaluates the same law from tilt-only factors
    (``control.tilt_factors``); this explicit form serves the public
    ``decoupling_matrix`` and ``drift_vector``.
    """
    m, g, kf, km, arm, i00, i01, i02, i10, i11, i12, i20, i21, i22 = pp
    sf, cf, st, ct = att[0], att[1], att[2], att[3]
    ctd = _safe_div(ct)
    tt = st / ctd
    # Euler-rate map T (rows: 1, sf*tt, cf*tt / 0, cf, -sf / 0, sf/ct, cf/ct)
    t01, t02 = sf * tt, cf * tt
    t21, t22 = sf / ctd, cf / ctd
    # M = T @ inv(I_B)
    m00 = i00 + t01 * i10 + t02 * i20
    m01 = i01 + t01 * i11 + t02 * i21
    m02 = i02 + t01 * i12 + t02 * i22
    m10 = cf * i10 - sf * i20
    m11 = cf * i11 - sf * i21
    m12 = cf * i12 - sf * i22
    m20 = t21 * i10 + t22 * i20
    m21 = t21 * i11 + t22 * i21
    m22 = t21 * i12 + t22 * i22

    # nonzero entries of the torque map (rows tx, ty, tz) and thrust map
    s1, s2, s3, s4, c1, c2, c3, c4 = tilt
    lk = arm * kf
    tx1, tx3 = lk * c2 - km * s2, -lk * c4 + km * s4
    ty0, ty2 = lk * c1 + km * s1, -lk * c3 - km * s3
    tz0, tz1 = lk * s1 - km * c1, -lk * s2 - km * c2
    tz2, tz3 = lk * s3 - km * c3, -lk * s4 - km * c4
    # fourth row: world vertical acceleration per unit input, R[2, :] @ F / m
    r30, r31, r32 = -st, ct * sf, ct * cf
    e00, e01 = m01 * ty0 + m02 * tz0, m00 * tx1 + m02 * tz1
    e02, e03 = m01 * ty2 + m02 * tz2, m00 * tx3 + m02 * tz3
    e10, e11 = m11 * ty0 + m12 * tz0, m10 * tx1 + m12 * tz1
    e12, e13 = m11 * ty2 + m12 * tz2, m10 * tx3 + m12 * tz3
    e20, e21 = m21 * ty0 + m22 * tz0, m20 * tx1 + m22 * tz1
    e22, e23 = m21 * ty2 + m22 * tz2, m20 * tx3 + m22 * tz3
    fm = kf / m
    e30, e31 = fm * (r31 * s1 - r32 * c1), fm * (r30 * s2 + r32 * c2)
    e32, e33 = -fm * (r31 * s3 + r32 * c3), fm * (r32 * c4 - r30 * s4)
    d = (e00, e01, e02, e03, e10, e11, e12, e13, e20, e21, e22, e23, e30, e31, e32, e33)

    # drift: Tdot(eta, etadot) @ omega with etadot = T @ omega, plus gravity.
    # With u = sf q + cf r the Euler rates are dphi = p + tan(theta) u and
    # dtheta = cf q - sf r, and Tdot @ omega reduces to the terms below.
    u = sf * q + cf * r
    dtheta = cf * q - sf * r
    dphi = p + tt * u
    tu = dtheta * u / (ctd * ctd)
    b = (
        tt * dphi * dtheta + tu,
        -dphi * u,
        dphi * dtheta / ctd + st * tu,
        -g,
    )

    # Laplace expansion over the first two rows (2x2 complementary minors)
    p01, p02, p03, p12, p13, p23, q01, q02, q03, q12, q13, q23 = _minors(d)
    det = p01 * q23 - p02 * q13 + p03 * q12 + p12 * q03 - p13 * q02 + p23 * q01
    n0 = sqrt(e00 * e00 + e01 * e01 + e02 * e02 + e03 * e03)
    n1 = sqrt(e10 * e10 + e11 * e11 + e12 * e12 + e13 * e13)
    n2 = sqrt(e20 * e20 + e21 * e21 + e22 * e22 + e23 * e23)
    n3 = sqrt(e30 * e30 + e31 * e31 + e32 * e32 + e33 * e33)
    if n0 > 0.0 and n1 > 0.0 and n2 > 0.0 and n3 > 0.0:
        scale = exp(0.25 * (log(n0) + log(n1) + log(n2) + log(n3)))
    else:
        scale = 0.0
    return d, b, det, scale


def _minors(d):
    # 2x2 minors of rows (0, 1) and of rows (2, 3), columns (01, 02, 03, 12, 13, 23)
    d0, d1, d2, d3, d4, d5, d6, d7, d8, d9, d10, d11, d12, d13, d14, d15 = d
    return (
        d0 * d5 - d1 * d4,
        d0 * d6 - d2 * d4,
        d0 * d7 - d3 * d4,
        d1 * d6 - d2 * d5,
        d1 * d7 - d3 * d5,
        d2 * d7 - d3 * d6,
        d8 * d13 - d9 * d12,
        d8 * d14 - d10 * d12,
        d8 * d15 - d11 * d12,
        d9 * d14 - d10 * d13,
        d9 * d15 - d11 * d13,
        d10 * d15 - d11 * d14,
    )


def solve4(d, rhs):
    """Solve the 4x4 system ``d @ x = rhs`` by the adjugate (Cramer's rule).

    The determinant and the adjugate are both formed from the 2x2 minors
    of rows (0, 1) and rows (2, 3) (:func:`_minors`).  Raises
    ``ArithmeticError`` when the determinant is exactly zero.
    """
    p01, p02, p03, p12, p13, p23, q01, q02, q03, q12, q13, q23 = _minors(d)
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
