"""Independent reference implementations used as test oracles.

Everything here is a direct numpy transcription of the published input
maps and kinematic conventions, kept free of the package's kernel code so
the two paths can disagree.  :func:`branch_crossings` is the exception:
it scans the package's closed-form on-branch ``C``, which other tests
check against the determinants, and adds only the scan and bisection.
"""

import math

import numpy as np

from tiltrotor.gaitlab import _on_branch_c


def residual_scale(params):
    """Scale for A/B residual tolerances: ``k_f * (arm * k_f + k_m)**2``.

    A loose upper scale for the coefficients; the gradient of ``(A, B)``
    with respect to the completion is about 1e5 smaller.
    """
    return params.k_f * (params.arm_length * params.k_f + params.k_m) ** 2


def thrust_direct(alpha, k_f):
    s = np.sin(alpha)
    c = np.cos(alpha)
    return np.array([
        [0.0, k_f * s[1], 0.0, -k_f * s[3]],
        [k_f * s[0], 0.0, -k_f * s[2], 0.0],
        [-k_f * c[0], k_f * c[1], -k_f * c[2], k_f * c[3]],
    ])


def torque_direct(alpha, k_f, k_m, arm):
    s = np.sin(alpha)
    c = np.cos(alpha)
    lk = arm * k_f
    return np.array([
        [0.0, lk * c[1] - k_m * s[1], 0.0, -lk * c[3] + k_m * s[3]],
        [lk * c[0] + k_m * s[0], 0.0, -lk * c[2] - k_m * s[2], 0.0],
        [lk * s[0] - k_m * c[0], -lk * s[1] - k_m * c[1],
         lk * s[2] - k_m * c[2], -lk * s[3] - k_m * c[3]],
    ])


def rotation_direct(eta):
    """Rz(psi) @ Ry(theta) @ Rx(phi) from elementary rotations."""
    phi, theta, psi = eta
    cf, sf = np.cos(phi), np.sin(phi)
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(psi), np.sin(psi)
    rz = np.array([[cp, -sp, 0], [sp, cp, 0], [0, 0, 1.0]])
    ry = np.array([[ct, 0, st], [0, 1.0, 0], [-st, 0, ct]])
    rx = np.array([[1.0, 0, 0], [0, cf, -sf], [0, sf, cf]])
    return rz @ ry @ rx


def body_rate_map_direct(eta):
    """W with omega_body = W @ eta_dot; the Euler-rate map is inv(W)."""
    phi, theta, _ = eta
    cf, sf = np.cos(phi), np.sin(phi)
    ct, st = np.cos(theta), np.sin(theta)
    return np.array([
        [1.0, 0.0, -st],
        [0.0, cf, sf * ct],
        [0.0, -sf, cf * ct],
    ])


def state_derivative_direct(x, alpha, w, params):
    """Assemble the 12-state derivative from scratch."""
    vel = x[3:6]
    eta = x[6:9]
    om = x[9:12]
    R = rotation_direct(eta)
    acc = np.array([0.0, 0.0, -params.g]) + R @ (thrust_direct(alpha, params.k_f) @ w) / params.m
    eta_dot = np.linalg.solve(body_rate_map_direct(eta), om)
    om_dot = np.linalg.solve(
        params.inertia, torque_direct(alpha, params.k_f, params.k_m, params.arm_length) @ w
    )
    return np.concatenate([vel, acc, eta_dot, om_dot])


def abc_direct(alpha, params):
    """A, B, C as 4x4 determinants of the stacked torque/thrust rows."""
    tau = torque_direct(alpha, params.k_f, params.k_m, params.arm_length)
    F = thrust_direct(alpha, params.k_f)
    return tuple(np.linalg.det(np.vstack([tau, F[i]])) for i in range(3))


def ab_grid_direct(a1, a2, a3_grid, a4_grid, params, trig34=None):
    """|A| + |B| evaluated on a meshgrid of completions (vectorized).

    ``trig34 = (s3, c3, s4, c4)`` may be supplied to reuse precomputed
    trigonometry of the completion grid.
    """
    k_f, k_m, arm = params.k_f, params.k_m, params.arm_length
    lk = arm * k_f
    s1, c1 = np.sin(a1), np.cos(a1)
    s2, c2 = np.sin(a2), np.cos(a2)
    if trig34 is None:
        s3, c3 = np.sin(a3_grid), np.cos(a3_grid)
        s4, c4 = np.sin(a4_grid), np.cos(a4_grid)
    else:
        s3, c3, s4, c4 = trig34

    # torque columns (3 components each); columns 1, 2 are scalars
    t1 = (0.0 * s3, lk * c1 + k_m * s1, lk * s1 - k_m * c1)
    t2 = (lk * c2 - k_m * s2, 0.0 * s3, -lk * s2 - k_m * c2)
    t3 = (0.0 * s3, -lk * c3 - k_m * s3, lk * s3 - k_m * c3)
    t4 = (-lk * c4 + k_m * s4, 0.0 * s3, -lk * s4 - k_m * c4)

    def det3(u, v, z):
        return (
            u[0] * (v[1] * z[2] - v[2] * z[1])
            - u[1] * (v[0] * z[2] - v[2] * z[0])
            + u[2] * (v[0] * z[1] - v[1] * z[0])
        )

    d1 = det3(t2, t3, t4)
    d2 = det3(t1, t3, t4)
    d3 = det3(t1, t2, t4)
    d4 = det3(t1, t2, t3)

    f_row1 = (0.0, k_f * s2, 0.0, -k_f * s4)
    f_row2 = (k_f * s1, 0.0, -k_f * s3, 0.0)
    A = -f_row1[0] * d1 + f_row1[1] * d2 - f_row1[2] * d3 + f_row1[3] * d4
    B = -f_row2[0] * d1 + f_row2[1] * d2 - f_row2[2] * d3 + f_row2[3] * d4
    return np.abs(A) + np.abs(B)


def decoupling_direct(eta, alpha, params):
    """Decoupling matrix assembled from the oracle building blocks."""
    T = np.linalg.inv(body_rate_map_direct(eta))
    tau = torque_direct(alpha, params.k_f, params.k_m, params.arm_length)
    F = thrust_direct(alpha, params.k_f)
    top = T @ np.linalg.solve(params.inertia, tau)
    bottom = rotation_direct(eta)[2] @ F / params.m
    return np.vstack([top, bottom])


def euler_rate_dot_direct(eta, eta_dot):
    """Time derivative of the Euler-rate map T = inv(W): Tdot = -T Wdot T."""
    phi, theta, _ = eta
    dphi, dtheta, _ = eta_dot
    cf, sf = np.cos(phi), np.sin(phi)
    ct, st = np.cos(theta), np.sin(theta)
    # Wdot = dW/dphi * dphi + dW/dtheta * dtheta, W = body_rate_map_direct
    w_dot = np.array([
        [0.0, 0.0, -ct * dtheta],
        [0.0, -sf * dphi, cf * ct * dphi - sf * st * dtheta],
        [0.0, -cf * dphi, -sf * ct * dphi - cf * st * dtheta],
    ])
    T = np.linalg.inv(body_rate_map_direct(eta))
    return -T @ w_dot @ T


def track_direct(gait, params, gains, n_steps, dt, eps_sing):
    """The closed-loop circular tracking run, row by row, from the oracles above.

    Each row: the circle of radius 5 m at 0.1 rad/s from its formula (no
    acceleration is fed forward); the outer decoupler, the horizontal
    acceleration demand turned by the yaw over ``g`` and clamped; the
    inner law ``Delta w = v - b`` with ``Delta`` from
    :func:`decoupling_direct`, the drift ``b = (Tdot omega, -g)``, the
    singular test ``|det Delta| / prod(row norms) < eps_sing`` through
    ``np.linalg.det`` (the row holds the last safe command and ends the
    run), then ``np.linalg.solve``, ``sign(w) sqrt|w|`` and the speed
    clamp; then textbook RK4 of :func:`state_derivative_direct` with the
    command held and the gait read through ``gait.sample_raw``.  The run
    starts at rest at the origin from 0.8 x the hover pattern, and must
    stay out of the pitch guard band, which is not modelled.

    Returns the log's columns as arrays, ``det_scale`` (the product of
    the row norms of each row's ``Delta``) and ``end_reason``
    (``"completed"`` or ``"determinant"``).
    """
    radius, rate = 5.0, 0.1
    lo, hi, g = params.omega_lo, params.omega_hi, params.g
    last = params.spin_sign * (0.8 * params.hover_speed)
    x = np.zeros(12)
    rows = {k: [] for k in ("t", "states", "alpha", "varpi", "ref_pos", "det", "det_scale",
                            "saturated", "singular")}
    end = "completed"

    def f(x, alpha, w):
        return state_derivative_direct(x, alpha, w, params)

    for i in range(n_steps + 1):
        t = i * dt
        assert abs(x[7]) < math.pi / 2 - 1e-3, "the pitch guard band is not modelled"
        alpha = np.asarray(gait.sample_raw(t), dtype=float)
        c, s = math.cos(rate * t), math.sin(rate * t)
        ref_pos = np.array([radius * c, radius * s, 0.0])
        ref_vel = np.array([-radius * rate * s, radius * rate * c, 0.0])

        eta, omega = x[6:9], x[9:12]
        cp, sp = math.cos(eta[2]), math.sin(eta[2])
        ux, uy = (gains.kd_xy * (ref_vel[0:2] - x[3:5])
                  + gains.kp_xy * (ref_pos[0:2] - x[0:2]))
        theta_ref = min(max((ux * cp + uy * sp) / g, -gains.clamp), gains.clamp)
        phi_ref = min(max((ux * sp - uy * cp) / g, -gains.clamp), gains.clamp)

        eta_dot = np.linalg.solve(body_rate_map_direct(eta), omega)
        y = np.array([eta[0], eta[1], eta[2], x[2]])
        y_dot = np.append(eta_dot, x[5])
        v = gains.kd * -y_dot + gains.kp * (np.array([phi_ref, theta_ref, 0.0, 0.0]) - y)
        b = np.append(euler_rate_dot_direct(eta, eta_dot) @ omega, -g)
        delta = decoupling_direct(eta, alpha, params)
        det = np.linalg.det(delta)
        det_scale = np.prod(np.linalg.norm(delta, axis=1))
        singular = bool(abs(det) / det_scale < eps_sing)
        if singular:
            raw = last
        else:
            w = np.linalg.solve(delta, v - b)
            raw = np.sign(w) * np.sqrt(np.abs(w))
        cmd = np.copysign(np.clip(np.abs(raw), lo, hi), raw)

        for key, value in (("t", t), ("states", x), ("alpha", alpha), ("varpi", cmd),
                           ("ref_pos", ref_pos), ("det", det), ("det_scale", det_scale),
                           ("saturated", cmd != raw), ("singular", singular)):
            rows[key].append(value)
        if singular:
            end = "determinant"
            break
        last = cmd
        if i < n_steps:
            wq = cmd * np.abs(cmd)
            a_mid = gait.sample_raw(t + 0.5 * dt)
            a_end = gait.sample_raw(t + dt)
            k1 = f(x, alpha, wq)
            k2 = f(x + 0.5 * dt * k1, a_mid, wq)
            k3 = f(x + 0.5 * dt * k2, a_mid, wq)
            k4 = f(x + dt * k3, a_end, wq)
            x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    out = {k: np.array(v) for k, v in rows.items()}
    out["end_reason"] = end
    return out


# ---------------------------------------------------------------------------
# singular-curve extraction, one edge at a time


_MS_SEGMENTS = {
    1: (("l", "b"),), 2: (("b", "r"),), 3: (("l", "r"),), 4: (("t", "r"),),
    6: (("b", "t"),), 7: (("l", "t"),), 8: (("l", "t"),), 9: (("b", "t"),),
    11: (("t", "r"),), 12: (("l", "r"),), 13: (("b", "r"),), 14: (("l", "b"),),
}


def _g_direct(phi, theta, A, B, C):
    """Attitude factor of the determinant, in the package's operation order."""
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    ct = np.cos(theta)
    return -np.sin(theta) * A + np.sin(phi) * ct * B + np.cos(phi) * ct * C


def refine_edge_scalar(p0, p1, g0, geval, eps):
    """Bisect the sign change between grid points ``p0`` and ``p1``.

    Up to 80 halvings; stops at the first midpoint with ``|g| < eps``,
    otherwise returns the final bracket's midpoint.
    """
    a, b = p0, p1
    ga = g0
    for _ in range(80):
        mid = (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]))
        gm = geval(mid[0], mid[1])
        if abs(gm) < eps:
            return mid
        if (gm > 0.0) == (ga > 0.0):
            a, ga = mid, gm
        else:
            b = mid
    return (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]))


def zero_curves_scalar(A, B, C, phis, thetas):
    """Marching-squares zero curves with each crossing edge bisected alone.

    Returns ``(polylines, eps, edges)``: curves as ``(n, 2)`` arrays in
    the stitching order of the package (endpoints first, sorted by edge
    key, then closed loops), the bisection tolerance, and for each curve
    the ``(n, 2, 2)`` end points of the grid edge of every vertex.
    """
    scale = max(abs(A), abs(B), abs(C))
    eps = 1e-10 * scale if scale > 0.0 else 1e-300
    G = _g_direct(phis[:, None], thetas[None, :], A, B, C)
    S = G > 0.0

    def geval(phi, theta):
        return float(_g_direct(phi, theta, A, B, C))

    verts = {}
    ends = {}
    for i, j in zip(*(k.tolist() for k in np.nonzero(S[:-1, :] != S[1:, :]))):
        ends[("p", i, j)] = ((phis[i], thetas[j]), (phis[i + 1], thetas[j]))
    for i, j in zip(*(k.tolist() for k in np.nonzero(S[:, :-1] != S[:, 1:]))):
        ends[("t", i, j)] = ((phis[i], thetas[j]), (phis[i], thetas[j + 1]))
    for key, (p0, p1) in ends.items():
        verts[key] = refine_edge_scalar(p0, p1, G[key[1], key[2]], geval, eps)

    adjacency = {}
    for i in range(len(phis) - 1):
        for j in range(len(thetas) - 1):
            case = (int(S[i, j]) | 2 * int(S[i + 1, j])
                    | 4 * int(S[i + 1, j + 1]) | 8 * int(S[i, j + 1]))
            if case in (0, 15):
                continue
            keys = {"b": ("p", i, j), "t": ("p", i, j + 1),
                    "l": ("t", i, j), "r": ("t", i + 1, j)}
            if case in (5, 10):
                centre_pos = geval(0.5 * (phis[i] + phis[i + 1]),
                                   0.5 * (thetas[j] + thetas[j + 1])) > 0.0
                if (case == 5) == centre_pos:
                    pairs = (("b", "r"), ("l", "t"))
                else:
                    pairs = (("l", "b"), ("t", "r"))
            else:
                pairs = _MS_SEGMENTS[case]
            for ea, eb in pairs:
                adjacency.setdefault(keys[ea], []).append(keys[eb])
                adjacency.setdefault(keys[eb], []).append(keys[ea])

    visited = set()
    chains = []

    def walk(start):
        chain = [start]
        visited.add(start)
        prev, node = None, start
        while True:
            nxt = [k for k in adjacency[node] if k != prev and k not in visited]
            if not nxt:
                if prev is not None and start in adjacency[node] and len(chain) > 2:
                    chain.append(start)
                return chain
            prev, node = node, nxt[0]
            visited.add(node)
            chain.append(node)

    for key in sorted(k for k, nb in adjacency.items() if len(nb) == 1):
        if key not in visited:
            chains.append(walk(key))
    for key in sorted(adjacency):
        if key not in visited:
            chains.append(walk(key))
    return ([np.array([verts[k] for k in chain]) for chain in chains], eps,
            [np.array([ends[k] for k in chain]) for chain in chains])


# ---------------------------------------------------------------------------
# one phase's grid scan as the package wrote it before its scans cached
# the grid's trigonometry and keyed edges by integer ids: each step
# rebuilds its arrays, crossing edges are keyed by ('p' | 't', i, j)


_SADDLE_PAIRS = {
    5: ((("b", "r"), ("l", "t")), (("l", "b"), ("t", "r"))),
    10: ((("l", "b"), ("t", "r")), (("b", "r"), ("l", "t"))),
}


def _changed_cells(S):
    c00 = S[:-1, :-1]
    return (S[1:, :-1] != c00) | (S[:-1, 1:] != c00) | (S[1:, 1:] != c00)


def _nearest_root(lo, hi, roots, period):
    mid = 0.5 * (lo + hi)
    best = np.full_like(mid, np.inf)
    for r in roots:
        cand = r + period * np.round((mid - r) / period)
        best = np.where(np.abs(cand - mid) < np.abs(best - mid), cand, best)
    return np.clip(best, lo, hi)


def _edge_zeros(A, B, C, phis, thetas, S):
    pi, pj = np.nonzero(S[:-1, :] != S[1:, :])
    ti, tj = np.nonzero(S[:, :-1] != S[:, 1:])
    theta_p = thetas[pj]
    psi = math.atan2(C, B)
    u = np.arcsin(np.clip(A * np.sin(theta_p) / (math.hypot(B, C) * np.cos(theta_p)),
                          -1.0, 1.0))
    phi_p = _nearest_root(phis[pi], phis[pi + 1], (u - psi, math.pi - u - psi), 2.0 * math.pi)
    phi_t = phis[ti]
    K = B * np.sin(phi_t) + C * np.cos(phi_t)
    theta_t = _nearest_root(thetas[tj], thetas[tj + 1], (np.arctan2(K, A),), math.pi)
    return (pi, pj), (ti, tj), np.concatenate([phi_p, phi_t]), np.concatenate([theta_p, theta_t])


def _stitch_curves(A, B, C, phis, thetas, S, changed, zeros):
    (pi, pj), (ti, tj), vphi, vtheta = zeros
    keys = [("p", i, j) for i, j in zip(pi.tolist(), pj.tolist())]
    keys += [("t", i, j) for i, j in zip(ti.tolist(), tj.tolist())]
    verts = dict(zip(keys, zip(vphi.tolist(), vtheta.tolist())))

    ci, cj = np.nonzero(changed)
    cases = S[ci, cj] + 2 * S[ci + 1, cj] + 4 * S[ci + 1, cj + 1] + 8 * S[ci, cj + 1]
    centre_pos = np.zeros(len(cases), dtype=bool)
    saddle = (cases == 5) | (cases == 10)
    if saddle.any():
        si, sj = ci[saddle], cj[saddle]
        centre = _g_direct(0.5 * (phis[si] + phis[si + 1]),
                           0.5 * (thetas[sj] + thetas[sj + 1]), A, B, C)
        centre_pos[saddle] = centre > 0.0

    adjacency = {}
    for i, j, case, pos in zip(ci.tolist(), cj.tolist(), cases.tolist(), centre_pos.tolist()):
        edge_keys = {"b": ("p", i, j), "t": ("p", i, j + 1),
                     "l": ("t", i, j), "r": ("t", i + 1, j)}
        if case in _SADDLE_PAIRS:
            pairs = _SADDLE_PAIRS[case][0 if pos else 1]
        else:
            pairs = _MS_SEGMENTS[case]
        for ea, eb in pairs:
            adjacency.setdefault(edge_keys[ea], []).append(edge_keys[eb])
            adjacency.setdefault(edge_keys[eb], []).append(edge_keys[ea])

    visited = set()
    chains = []

    def walk(start):
        chain = [start]
        visited.add(start)
        prev, node = None, start
        while True:
            nxt = [k for k in adjacency[node] if k != prev and k not in visited]
            if not nxt:
                if prev is not None and start in adjacency[node] and len(chain) > 2:
                    chain.append(start)
                return chain
            prev, node = node, nxt[0]
            visited.add(node)
            chain.append(node)

    for key in sorted(k for k, nb in adjacency.items() if len(nb) == 1):
        if key not in visited:
            chains.append(walk(key))
    for key in sorted(adjacency):
        if key not in visited:
            chains.append(walk(key))
    return [np.array([verts[k] for k in chain]) for chain in chains]


def sign_grid_reference(A, B, C, phis, thetas):
    """``g > 0`` at every node of the grid ``phis x thetas``."""
    return _g_direct(phis[:, None], thetas[None, :], A, B, C) > 0.0


def phase_scan_reference(A, B, C, phis, thetas):
    """``(area fraction, hover margin or None, polylines)`` of one phase.

    The package's robustness metrics and marching-squares curves of the
    attitude factor ``g`` on the grid ``phis x thetas``, step by step.
    With ``A = B = C = 0``, ``g`` vanishes at every attitude: no cell is
    robust, level attitude is singular, and there is no curve to draw.
    """
    if A == B == C == 0.0:
        return 0.0, 0.0, []
    S = sign_grid_reference(A, B, C, phis, thetas)
    changed = _changed_cells(S)
    frac = 1.0 - float(changed.sum()) / changed.size
    if not changed.any():
        return frac, None, []
    zeros = _edge_zeros(A, B, C, phis, thetas, S)
    margin = float(np.min(np.hypot(zeros[2], zeros[3])))
    return frac, margin, _stitch_curves(A, B, C, phis, thetas, S, changed, zeros)


# ---------------------------------------------------------------------------
# rectangle gait stations


def rectangle_stations(center, half_extents, stations_per_edge=16):
    """``(alpha1, alpha2)`` stations and time fractions of a rectangle gait.

    Counter-clockwise from the lower-left corner at constant speed, the
    last station repeating the first; a rectangle of zero extent is its
    centre held for the whole period.
    """
    cx, cy = float(center[0]), float(center[1])
    hx, hy = float(half_extents[0]), float(half_extents[1])
    if hx == 0.0 and hy == 0.0:
        return np.array([[cx, cy], [cx, cy]]), np.array([0.0, 1.0])
    corners = [(cx - hx, cy - hy), (cx + hx, cy - hy), (cx + hx, cy + hy), (cx - hx, cy + hy)]
    pts = []
    for k in range(4):
        x0, y0 = corners[k]
        x1, y1 = corners[(k + 1) % 4]
        for s in range(stations_per_edge):
            f = s / stations_per_edge
            pts.append((x0 + f * (x1 - x0), y0 + f * (y1 - y0)))
    pts.append(corners[0])
    pts = np.asarray(pts)
    seglen = np.sqrt(np.sum(np.diff(pts, axis=0) ** 2, axis=1))
    cum = np.concatenate([[0.0], np.cumsum(seglen)])
    return pts, cum / cum[-1]


# ---------------------------------------------------------------------------
# Two Color Map crossings of a gait


def branch_crossings(gait, params, step=1e-4):
    """Times in ``[0, period]`` at which a gait's on-branch ``C`` changes sign.

    ``C`` of ``gait.sample_array`` is scanned every ``step`` seconds over
    one period, and each sign change is bisected until its bracket holds
    no double between its ends; the lower end is returned.  ``A`` and
    ``B`` are zero on the branch, so at a crossing the decoupling matrix
    is singular at every attitude.
    """
    def c(t):
        alphas = gait.sample_array(np.atleast_1d(t))
        return _on_branch_c(alphas[:, 0], alphas[:, 1], params)

    t = np.linspace(0.0, gait.period_s, round(gait.period_s / step) + 1)
    positive = c(t) > 0.0
    crossings = []
    for k in np.flatnonzero(positive[1:] != positive[:-1]):
        lo, hi = float(t[k]), float(t[k + 1])
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if (c(mid)[0] > 0.0) == positive[k]:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        crossings.append(lo)
    return crossings
