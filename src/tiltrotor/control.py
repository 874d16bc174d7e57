"""Outer position decoupler and inner feedback-linearization loop.

The outer loop converts horizontal position errors into roll/pitch
references through the gravity coupling; the inner loop linearizes the
(roll, pitch, yaw, altitude) dynamics exactly by inverting the decoupling
matrix, then saturates the rotor-speed commands.

A singular decoupling matrix is flagged rather than raised: the loop
holds the last safe command and lets the caller decide whether to abort.

The float-tuple helpers ``decoupler_core`` and ``fl_core`` are the single
implementation of the control laws; the public operations wrap them and
the simulation loop calls them directly to avoid per-step overhead.  They
take the sines and cosines of the attitude and tilts (the kernels'
``attitude_trig``/``tilt_trig`` sets), so that one step takes each once.

``fl_core`` does not assemble the decoupling matrix.  It writes it as
``Delta = blockdiag(T, 1) @ [Q; v]`` (see :mod:`tiltrotor.linearization`)
and takes the tilt-only part from a row of :func:`tilt_factors`: the
tracking loop builds those rows with numpy for a block of steps at once,
and :func:`fl_inner_loop` builds its single row the same way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from tiltrotor._core import kernels
from tiltrotor.linearization import EPS_SING
from tiltrotor.model import Params, State, _alpha4, check_pitch


@dataclass(frozen=True)
class Gains:
    """Controller gains and limits.

    ``kp``/``kd`` act per channel on (roll, pitch, yaw, altitude);
    ``kp_xy``/``kd_xy`` drive the outer position loop; ``clamp`` bounds
    the attitude references handed to the inner loop [rad].
    """

    kp: np.ndarray = field(default_factory=lambda: np.full(4, 4.0))
    kd: np.ndarray = field(default_factory=lambda: np.full(4, 4.0))
    kp_xy: float = 0.5
    kd_xy: float = 1.5
    clamp: float = 0.35

    def __post_init__(self):
        kp = np.broadcast_to(np.asarray(self.kp, dtype=float), (4,)).copy()
        kd = np.broadcast_to(np.asarray(self.kd, dtype=float), (4,)).copy()
        object.__setattr__(self, "kp", kp)
        object.__setattr__(self, "kd", kd)
        gains = (*kp.tolist(), *kd.tolist(), self.kp_xy, self.kd_xy)
        if not all(math.isfinite(v) and v > 0 for v in gains):
            raise ValueError(f"all gains must be positive and finite, got {gains}")
        if not 0.0 < self.clamp < math.pi / 2:
            raise ValueError(f"clamp must lie in (0, pi/2), got {self.clamp}")

    @classmethod
    def from_dict(cls, d: dict) -> "Gains":
        kw = {}
        for key in ("kp", "kd"):
            if key in d:
                kw[key] = np.asarray(d[key], dtype=float)
        for key in ("kp_xy", "kd_xy", "clamp"):
            if key in d:
                kw[key] = float(d[key])
        return cls(**kw)


def load_config(path) -> tuple[Params, Gains, dict]:
    """Load the shared JSON configuration file; the package's one reader of it.

    Recognised keys, each optional (a missing key keeps its default):

    * vehicle parameters (:class:`~tiltrotor.model.Params`): ``m, g, k_f,
      k_m, arm_length``, ``inertia`` (9 numbers, row-major), ``omega_lo,
      omega_hi, spin_sign``;
    * ``gains``, an object with the :class:`Gains` fields ``kp, kd`` (one
      number or four), ``kp_xy, kd_xy, clamp``;
    * ``abort_on_singular`` (default True).

    Returns ``(params, gains, extras)`` with ``extras =
    {"abort_on_singular": ...}``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    params = Params.from_dict(d)
    gains = Gains.from_dict(d.get("gains", {}))
    extras = {"abort_on_singular": bool(d.get("abort_on_singular", True))}
    return params, gains, extras


@dataclass(frozen=True)
class InnerRefs:
    """References for the (roll, pitch, yaw, altitude) channels."""

    value: np.ndarray = field(default_factory=lambda: np.zeros(4))
    rate: np.ndarray = field(default_factory=lambda: np.zeros(4))
    accel: np.ndarray = field(default_factory=lambda: np.zeros(4))

    def __post_init__(self):
        for name in ("value", "rate", "accel"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (4,):
                raise ValueError(f"{name} must be a 4-vector")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite, got {v}")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class ControlOutput:
    varpi_cmd: np.ndarray
    det_delta: float
    saturated: np.ndarray
    singular: bool


def saturate(varpi, params: Params) -> tuple[np.ndarray, np.ndarray]:
    """Clamp each speed magnitude into ``[omega_lo, omega_hi]``, keeping sign.

    Returns ``(varpi_sat, flags)``; a flag is set iff clamping changed
    the value.  Idempotent.
    """
    v = np.asarray(varpi, dtype=float)
    mag = np.clip(np.abs(v), params.omega_lo, params.omega_hi)
    out = np.copysign(mag, v)
    return out, out != v


def _sat1(v: float, lo: float, hi: float) -> float:
    mag = abs(v)
    if mag < lo:
        mag = lo
    elif mag > hi:
        mag = hi
    return math.copysign(mag, v)


def decoupler_core(px, py, vx, vy, sp, cp,
                   rpx, rpy, rvx, rvy, rax, ray,
                   kp_xy, kd_xy, clamp, g):
    """Float core of the position decoupler; returns ``(phi_ref, theta_ref)``.

    ``sp``, ``cp`` are the sine and cosine of the yaw.
    """
    ux = rax + kd_xy * (rvx - vx) + kp_xy * (rpx - px)
    uy = ray + kd_xy * (rvy - vy) + kp_xy * (rpy - py)
    theta_ref = (ux * cp + uy * sp) / g
    phi_ref = (ux * sp - uy * cp) / g
    if phi_ref > clamp:
        phi_ref = clamp
    elif phi_ref < -clamp:
        phi_ref = -clamp
    if theta_ref > clamp:
        theta_ref = clamp
    elif theta_ref < -clamp:
        theta_ref = -clamp
    return phi_ref, theta_ref


def position_decoupler(state: State, ref, gains: Gains, params: Params) -> tuple[float, float]:
    """Roll/pitch references that steer horizontal position along ``ref``.

    ``ref`` provides ``pos``, ``vel``, ``acc`` 3-vectors.  The commanded
    horizontal accelerations are rotated by the current yaw, scaled by
    gravity, then clamped to ``+/- gains.clamp``.
    """
    psi = float(state.eta[2])
    return decoupler_core(
        float(state.pos[0]), float(state.pos[1]),
        float(state.vel[0]), float(state.vel[1]),
        math.sin(psi), math.cos(psi),
        float(ref.pos[0]), float(ref.pos[1]),
        float(ref.vel[0]), float(ref.vel[1]),
        float(ref.acc[0]), float(ref.acc[1]),
        gains.kp_xy, gains.kd_xy, gains.clamp, params.g,
    )


_UNSATURATED = (False, False, False, False)

# Plücker coordinates (01, 02, 03, 12, 13, 23) of a pair of 4-vectors (a, b)
# are a_j b_k - a_k b_j over these column pairs
_PAIR_J = np.array([0, 0, 0, 1, 1, 2])
_PAIR_K = np.array([1, 2, 3, 2, 3, 3])
# the 4-vector x with d . x = det[a; b; c; d], from the Plücker coordinates
# P of (a, b): x_l = sum over m of sign * P[plucker] * c[column], three terms
_CROSS_P = np.array([5, 4, 3, 5, 2, 1, 4, 2, 0, 3, 1, 0])
_CROSS_C = np.array([1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1, 2])
_CROSS_SIGN = np.array([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0] * 2)[:, None]
# the Gram matrix's upper triangle, row by row: 00, 01, 02, 11, 12, 22
_GRAM_I = np.array([0, 0, 0, 1, 1, 2])
_GRAM_K = np.array([0, 1, 2, 1, 2, 2])
_ALTERNATE = np.array([1.0, -1.0, 1.0, -1.0])[:, None]


def _cross(pl, c):
    """``x`` with ``d . x = det[a; b; c; d]``, given the Plücker coordinates ``pl`` of (a, b).

    ``pl`` has shape ``(..., 6, n)`` and ``c`` ``(..., 4, n)``; the result
    ``(..., 4, n)``.  Each entry is a 3-term sum taken in a fixed order.
    """
    t = pl.take(_CROSS_P, -2) * c.take(_CROSS_C, -2) * _CROSS_SIGN
    t = t.reshape(t.shape[:-2] + (4, 3, t.shape[-1]))
    return t[..., 0, :] + t[..., 1, :] + t[..., 2, :]


def tilt_factors(tilts, pack) -> np.ndarray:
    """The tilt-only factors of the decoupling matrix, one 22-float row per tilt.

    ``tilts`` is an ``(n, 8)`` array of tilt trig rows (the kernels'
    ``tilt_trig`` order: four sines, then four cosines).  With ``Q =
    inv(I_B) @ torque_map`` (3x4) the decoupling matrix is
    ``blockdiag(T, 1) @ [Q; v]``, ``T`` the Euler-rate map and ``v`` the
    attitude-dependent vertical row.  Each row holds, for :func:`fl_core`:

    * ``K = Q^T (Q Q^T)^-1`` (12 floats, row by row): a right inverse of ``Q``;
    * ``n`` (4 floats), the cofactors of the fourth row of ``[Q; v]``, so
      ``Q n = 0`` and ``det [Q; v] = v . n``;
    * ``G = Q Q^T`` (6 floats, upper triangle row by row), for the row norms.

    ``K`` is formed from cofactors, not by inverting ``G``: its column
    ``i`` is the vector orthogonal to the other two rows of ``Q`` and to
    ``n``, over ``n . n``, which keeps it as accurate as ``Q`` is
    conditioned, not ``G``.  Where ``Q`` is rank-deficient (``n = 0``)
    ``K`` is zero; the determinant is then zero and the step holds.  The
    arithmetic is elementwise in the rows, so no row depends on another.
    """
    _, _, kf, km, arm, *inv_inertia = pack
    trig = np.ascontiguousarray(np.asarray(tilts, dtype=float).T)
    s, c = trig[0:4], trig[4:8]
    lk = arm * kf
    lkc, kms = lk * c, km * s
    # the torque map of kernels.torque_entries: tx = (0, lk c2 - km s2, 0,
    # -(lk c4 - km s4)), ty = (lk c1 + km s1, 0, -(lk c3 + km s3), 0) and
    # tz_j = +-lk s_j - km c_j, the sign alternating from +
    torque = np.zeros((3, 4, trig.shape[1]))
    torque[0, 1::2] = (lkc - kms)[1::2] * _ALTERNATE[0:2]
    torque[1, 0::2] = (lkc + kms)[0::2] * _ALTERNATE[0:2]
    torque[2] = lk * s * _ALTERNATE - km * c
    ii = np.asarray(inv_inertia).reshape(3, 3, 1, 1)
    q = ii[:, 0] * torque[0] + ii[:, 1] * torque[1] + ii[:, 2] * torque[2]
    # Plücker coordinates of the row pairs (q1, q2), (q2, q0), (q0, q1)
    a, b = q.take([1, 2, 0], 0), q.take([2, 0, 1], 0)
    pl = a.take(_PAIR_J, 1) * b.take(_PAIR_K, 1) - a.take(_PAIR_K, 1) * b.take(_PAIR_J, 1)
    n = _cross(pl[2], q[2])
    nn = n[0] * n[0] + n[1] * n[1] + n[2] * n[2] + n[3] * n[3]
    scale = np.divide(-1.0, nn, out=np.zeros_like(nn), where=nn != 0.0)
    # column i of K is -cross(q_(i+1), q_(i+2), n) / (n . n)
    k = _cross(pl, n) * scale
    g = q.take(_GRAM_I, 0) * q.take(_GRAM_K, 0)
    gram = g[:, 0] + g[:, 1] + g[:, 2] + g[:, 3]
    return np.concatenate((k.transpose(1, 0, 2).reshape(12, -1), n, gram)).T


def fl_core(state, att, tilt, fac,
            ref_val, ref_rate, ref_acc,
            kp4, kd4, pack, omega_lo, omega_hi, eps_sing, last_cmd):
    """Float core of the inner loop.

    ``state`` is the kernels' 12-tuple, ``att`` its attitude trig,
    ``tilt`` the tilt trig and ``fac`` its :func:`tilt_factors` row;
    ``ref_*``, ``kp4``, ``kd4`` and ``last_cmd`` are 4-tuples; ``pack``
    is the kernel parameter pack; the pitch must lie below the guard
    band.  Returns ``(varpi4, det, sat4, singular, ratio_sq)`` with
    ``ratio_sq`` the square of the scale-free ratio ``|det| / prod(row
    norms)`` that the singular test compares with ``eps_sing``.

    Only the attitude-dependent work is done here.  With ``W = inv(T)``
    and ``y = W @ rhs[0:3]``, the solution of ``Delta w = rhs`` is ``w =
    K y + t n`` with ``t`` fixed by the vertical row ``v``; ``det Delta
    = (v . n) / cos(theta)``, and the squared row norms are ``T_i G
    T_i^T`` and ``v . v``, so the test needs no root or logarithm.
    """
    _, _, z, _, _, vz, phi, theta, psi, p, q, r = state
    sf, cf, st, ct = att[0], att[1], att[2], att[3]
    (k00, k01, k02, k10, k11, k12, k20, k21, k22, k30, k31, k32,
     n0, n1, n2, n3, g00, g01, g02, g11, g12, g22) = fac
    s1, s2, s3, s4, c1, c2, c3, c4 = tilt
    # row 3 of Delta, v = R[2, :] @ F / m: vertical acceleration per unit input
    fm = pack[2] / pack[0]
    r31, r32 = ct * sf, ct * cf
    e30, e31 = fm * (r31 * s1 - r32 * c1), fm * (r32 * c2 - st * s2)
    e32, e33 = -fm * (r31 * s3 + r32 * c3), fm * (r32 * c4 + st * s4)
    vn = e30 * n0 + e31 * n1 + e32 * n2 + e33 * n3
    det = vn / ct
    # squared row norms T_i G T_i^T and v . v; that of row 2, T_2 = (0, sf, cf)
    # / ct, is taken times ct**2 (gs), as vn = det * ct is, so the test
    # compares vn**2 with their product
    tt = st / ct
    sf2, cf2, sc2 = sf * sf, cf * cf, 2.0 * sf * cf
    gs = sf2 * g11 + sc2 * g12 + cf2 * g22
    norms = (
        (g00 + 2.0 * tt * (sf * g01 + cf * g02) + tt * tt * gs)
        * (cf2 * g11 - sc2 * g12 + sf2 * g22)
        * gs
        * (e30 * e30 + e31 * e31 + e32 * e32 + e33 * e33)
    )
    vn2 = vn * vn
    ratio_sq = vn2 / norms if norms > 0.0 else 0.0
    if vn == 0.0 or vn2 < eps_sing * eps_sing * norms:
        held = last_cmd
        out = (
            _sat1(held[0], omega_lo, omega_hi),
            _sat1(held[1], omega_lo, omega_hi),
            _sat1(held[2], omega_lo, omega_hi),
            _sat1(held[3], omega_lo, omega_hi),
        )
        sat = (out[0] != held[0], out[1] != held[1], out[2] != held[2], out[3] != held[3])
        return out, det, sat, True, ratio_sq

    # outputs y = (phi, theta, psi, z), their rates (dphi, dtheta, dpsi, vz)
    # and the drift b = (Tdot @ omega, -g); with u = sf q + cf r,
    # dphi = p + tan(theta) u, dtheta = cf q - sf r, dpsi = u / cos(theta)
    u = sf * q + cf * r
    dtheta = cf * q - sf * r
    dphi = p + tt * u
    tu = dtheta * u / (ct * ct)
    rhs0 = (ref_acc[0] + kd4[0] * (ref_rate[0] - dphi) + kp4[0] * (ref_val[0] - phi)
            - (tt * dphi * dtheta + tu))
    rhs1 = ref_acc[1] + kd4[1] * (ref_rate[1] - dtheta) + kp4[1] * (ref_val[1] - theta) + dphi * u
    rhs2 = (ref_acc[2] + kd4[2] * (ref_rate[2] - u / ct) + kp4[2] * (ref_val[2] - psi)
            - (dphi * dtheta / ct + st * tu))
    rhs3 = ref_acc[3] + kd4[3] * (ref_rate[3] - vz) + kp4[3] * (ref_val[3] - z) + pack[1]
    # y = W @ rhs[0:3], W = [[1, 0, -st], [0, cf, sf ct], [0, -sf, cf ct]]
    y0 = rhs0 - st * rhs2
    y1 = cf * rhs1 + r31 * rhs2
    y2 = r32 * rhs2 - sf * rhs1
    p0 = k00 * y0 + k01 * y1 + k02 * y2
    p1 = k10 * y0 + k11 * y1 + k12 * y2
    p2 = k20 * y0 + k21 * y1 + k22 * y2
    p3 = k30 * y0 + k31 * y1 + k32 * y2
    t = (rhs3 - (e30 * p0 + e31 * p1 + e32 * p2 + e33 * p3)) / vn
    w0, w1, w2, w3 = p0 + t * n0, p1 + t * n1, p2 + t * n2, p3 + t * n3
    v0 = math.copysign(math.sqrt(abs(w0)), w0) if w0 != 0.0 else 0.0
    v1 = math.copysign(math.sqrt(abs(w1)), w1) if w1 != 0.0 else 0.0
    v2 = math.copysign(math.sqrt(abs(w2)), w2) if w2 != 0.0 else 0.0
    v3 = math.copysign(math.sqrt(abs(w3)), w3) if w3 != 0.0 else 0.0
    if (omega_lo <= abs(v0) <= omega_hi and omega_lo <= abs(v1) <= omega_hi
            and omega_lo <= abs(v2) <= omega_hi and omega_lo <= abs(v3) <= omega_hi):
        # in range: _sat1 would return each value unchanged
        return (v0, v1, v2, v3), det, _UNSATURATED, False, ratio_sq
    out = (
        _sat1(v0, omega_lo, omega_hi),
        _sat1(v1, omega_lo, omega_hi),
        _sat1(v2, omega_lo, omega_hi),
        _sat1(v3, omega_lo, omega_hi),
    )
    sat = (out[0] != v0, out[1] != v1, out[2] != v2, out[3] != v3)
    return out, det, sat, False, ratio_sq


def fl_inner_loop(
    state: State,
    alpha,
    refs: InnerRefs,
    gains: Gains,
    params: Params,
    last_command=None,
) -> ControlOutput:
    """One evaluation of the exact-linearization law on (roll, pitch, yaw, altitude).

    Computes ``v = r'' + kd (r' - y') + kp (r - y)``, solves ``Delta w =
    v - b`` for the signed squared speeds, converts to rotor speeds, and
    saturates.  When the scale-aware determinant test (threshold
    :data:`~tiltrotor.linearization.EPS_SING`) fires, the output is the
    last safe command (or the spin-sign pattern at the magnitude floor if
    none is given) with ``singular=True``.
    """
    theta = float(state.eta[1])
    check_pitch(theta)
    if last_command is None:
        held = tuple((params.spin_sign * params.omega_lo).tolist())
    else:
        held = tuple(float(v) for v in last_command)
    x = tuple(state.as_array().tolist())
    tilt = kernels.tilt_trig(_alpha4(alpha))
    varpi, det, sat, singular, _ = fl_core(
        x, kernels.attitude_trig(x[6], x[7], x[8]), tilt,
        tilt_factors([tilt], params.pack)[0].tolist(),
        tuple(refs.value.tolist()), tuple(refs.rate.tolist()), tuple(refs.accel.tolist()),
        tuple(gains.kp.tolist()), tuple(gains.kd.tolist()),
        params.pack, params.omega_lo, params.omega_hi, EPS_SING, held,
    )
    return ControlOutput(
        varpi_cmd=np.array(varpi),
        det_delta=det,
        saturated=np.array(sat, dtype=bool),
        singular=singular,
    )


class InnerLoop:
    """Inner-loop context owning the one-step memory of the last safe command.

    Not safe to share across concurrent simulations; clone per run.
    """

    def __init__(self, gains: Gains, params: Params):
        self.gains = gains
        self.params = params
        self.last_safe = None

    def step(self, state: State, alpha, refs: InnerRefs) -> ControlOutput:
        out = fl_inner_loop(state, alpha, refs, self.gains, self.params,
                            last_command=self.last_safe)
        if not out.singular:
            self.last_safe = out.varpi_cmd
        return out
