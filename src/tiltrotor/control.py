"""Outer position decoupler and inner feedback-linearization loop.

The outer loop converts horizontal position errors into roll/pitch
references through the gravity coupling; the inner loop linearizes the
(roll, pitch, yaw, altitude) dynamics exactly by inverting the decoupling
matrix, then saturates the rotor-speed commands.

A singular decoupling matrix is flagged rather than raised: the loop
holds the last safe command, and the tracking run
(:func:`~tiltrotor.sim.run_tracking`) stops at the flagged row.

The float-tuple helpers ``decoupler_core`` and ``fl_core`` are the single
implementation of the control laws; :func:`fl_inner_loop` wraps
``fl_core``, and the simulation loop calls both directly to avoid
per-step overhead.  They take the sines and cosines of the attitude and
tilts (the kernels' ``attitude_trig``/``tilt_trig`` sets), so that one
step takes each once.

``fl_core`` does not assemble the decoupling matrix.  It writes it as
``Delta = blockdiag(T, 1) @ [Q; v]`` (see :mod:`tiltrotor.linearization`)
and takes the tilt-only part from a row of :func:`tilt_factors`, one
straight-line body of arithmetic: given the floats of one tilt it
returns one row of floats, for :func:`fl_inner_loop`, and given numpy
columns it returns the columns of a block of rows, for the tracking loop.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from tiltrotor._core import kernels
from tiltrotor.linearization import EPS_SING
from tiltrotor.model import Params, State, _finite4, check_pitch


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


# the keys load_config reads and the forms their values may take: None for
# one number, n for a list of n numbers
_PARAM_KEYS = {
    "m": (None,), "g": (None,), "k_f": (None,), "k_m": (None,), "arm_length": (None,),
    "omega_lo": (None,), "omega_hi": (None,), "inertia": (9,), "spin_sign": (4,),
}
_GAIN_KEYS = {
    "kp": (None, 4), "kd": (None, 4), "kp_xy": (None,), "kd_xy": (None,), "clamp": (None,),
}


def _fields(d, forms: dict, where: str) -> dict:
    """The entries of the JSON object ``d`` as keyword arguments, each checked against ``forms``.

    ``d`` is read with integers as floats, so a float is a JSON number and
    a boolean is not.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {json.dumps(d)}")
    kw = {}
    for key, value in d.items():
        if key not in forms:
            raise ValueError(f"unknown key {key!r} in {where}")
        if None in forms[key] and isinstance(value, float):
            kw[key] = value
        elif (isinstance(value, list) and len(value) in forms[key]
              and all(isinstance(v, float) for v in value)):
            kw[key] = np.array(value, dtype=float)
        else:
            form = " or ".join("a number" if n is None else f"a list of {n} numbers"
                               for n in forms[key])
            raise ValueError(f"{key} must be {form}, got {json.dumps(value)}")
    return kw


def load_config(path) -> tuple[Params, Gains]:
    """Load the shared JSON configuration file; the package's one reader of it.

    The file holds one JSON object.  Recognised keys, each optional (a
    missing key keeps its default):

    * vehicle parameters (:class:`~tiltrotor.model.Params`): ``m, g, k_f,
      k_m, arm_length, omega_lo, omega_hi`` (numbers), ``inertia`` (a list
      of 9 numbers, row-major) and ``spin_sign`` (a list of 4);
    * ``gains``, an object with the :class:`Gains` fields ``kp, kd`` (one
      number or a list of four), ``kp_xy, kd_xy, clamp`` (numbers).

    Anything else raises :class:`ValueError` naming the key: an unknown
    or misspelt key, a value of the wrong form (a string, ``null``, a
    boolean for a number, a list of the wrong length), a file that is not
    one object, and values the constructors refuse.

    Returns ``(params, gains)``.
    """
    # integers read as floats: one too large for a float reads as inf, which
    # the constructors refuse, where float() of the int would overflow
    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh, parse_int=float)
    if not isinstance(d, dict):
        raise ValueError(f"the configuration must be a JSON object, got {json.dumps(d)}")
    gains = Gains(**_fields(d.pop("gains", {}), _GAIN_KEYS, "gains"))
    kw = _fields(d, _PARAM_KEYS, "the configuration")
    if "inertia" in kw:
        kw["inertia"] = kw["inertia"].reshape(3, 3)
    return Params(**kw), gains


def _start_command(params: Params) -> tuple:
    """The command held before any safe one exists: 0.8 x the hover pattern, as floats."""
    return tuple((params.spin_sign * (0.8 * params.hover_speed)).tolist())


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


_UNSATURATED = (False, False, False, False)


def tilt_factors(tilt, pack) -> tuple:
    """The tilt-only factors of the decoupling matrix: 22 values per tilt.

    ``tilt`` is the kernels' ``tilt_trig`` (four sines, then four
    cosines) as eight floats, giving 22 floats, or as eight numpy columns
    (``trig.T`` of an ``(n, 8)`` block), giving 22 columns.  One body of
    ``+ - * /`` serves both, so a block row is the float row bit for bit.
    With ``Q = inv(I_B) @ torque_map`` (3x4) the decoupling matrix is
    ``blockdiag(T, 1) @ [Q; v]``, ``T`` the Euler-rate map and ``v`` the
    attitude-dependent vertical row.  The values are, for :func:`fl_core`:

    * ``K = Q^T (Q Q^T)^-1`` (12 values, row by row): a right inverse of ``Q``;
    * ``n`` (4 values), the cofactors of the fourth row of ``[Q; v]``, so
      ``Q n = 0`` and ``det [Q; v] = v . n``;
    * ``G = Q Q^T`` (6 values, upper triangle row by row), for the row norms.

    ``K`` is formed from cofactors, not by inverting ``G``: its column
    ``i`` is the vector orthogonal to the other two rows of ``Q`` and to
    ``n``, over ``n . n``, which keeps it as accurate as ``Q`` is
    conditioned, not ``G``.  Where ``n . n`` is zero or subnormal (``Q``
    rank-deficient to working precision) the divisor becomes 1, with no
    branch on the input's type, so ``1 / (n . n)`` cannot overflow:
    ``K`` is linear in ``n``, so it is zero or as small as ``n`` there,
    and the vanishing determinant makes the step hold.
    """
    _, _, kf, km, arm, i00, i01, i02, i10, i11, i12, i20, i21, i22 = pack
    # the nonzero entries of the torque map, rows tx = (0, x1, 0, x3),
    # ty = (y0, 0, y2, 0) and tz = (z0, z1, z2, z3)
    _, x1, _, x3, y0, _, y2, _, z0, z1, z2, z3 = kernels.torque_entries(tilt, kf, km, arm)
    # Q = inv(I_B) @ torque, column by column: q_ij = I_i0 tx_j + I_i1 ty_j + I_i2 tz_j
    q00, q10, q20 = i01 * y0 + i02 * z0, i11 * y0 + i12 * z0, i21 * y0 + i22 * z0
    q01, q11, q21 = i00 * x1 + i02 * z1, i10 * x1 + i12 * z1, i20 * x1 + i22 * z1
    q02, q12, q22 = i01 * y2 + i02 * z2, i11 * y2 + i12 * z2, i21 * y2 + i22 * z2
    q03, q13, q23 = i00 * x3 + i02 * z3, i10 * x3 + i12 * z3, i20 * x3 + i22 * z3
    # Plücker coordinates p_jk = a_j b_k - a_k b_j of the row pairs (a, b):
    # (q1, q2) in a, (q2, q0) in b and (q0, q1) in d
    a01, a02, a03 = q10 * q21 - q11 * q20, q10 * q22 - q12 * q20, q10 * q23 - q13 * q20
    a12, a13, a23 = q11 * q22 - q12 * q21, q11 * q23 - q13 * q21, q12 * q23 - q13 * q22
    b01, b02, b03 = q20 * q01 - q21 * q00, q20 * q02 - q22 * q00, q20 * q03 - q23 * q00
    b12, b13, b23 = q21 * q02 - q22 * q01, q21 * q03 - q23 * q01, q22 * q03 - q23 * q02
    d01, d02, d03 = q00 * q11 - q01 * q10, q00 * q12 - q02 * q10, q00 * q13 - q03 * q10
    d12, d13, d23 = q01 * q12 - q02 * q11, q01 * q13 - q03 * q11, q02 * q13 - q03 * q12
    # cross(p, c), the x with e . x = det[a; b; c; e] for every e, is
    # (p13 c2 - p23 c1 - p12 c3, p23 c0 - p03 c2 + p02 c3,
    #  p03 c1 - p13 c0 - p01 c3, p12 c0 - p02 c1 + p01 c2); n = cross(d, q2)
    n0 = d13 * q22 - d23 * q21 - d12 * q23
    n1 = d23 * q20 - d03 * q22 + d02 * q23
    n2 = d03 * q21 - d13 * q20 - d01 * q23
    n3 = d12 * q20 - d02 * q21 + d01 * q22
    nn = n0 * n0 + n1 * n1 + n2 * n2 + n3 * n3
    h = -1.0 / (nn + (nn < sys.float_info.min))
    # column i of K is cross(p, n) * -1 / (n . n), p the pair of the other two rows
    return (
        (a13 * n2 - a23 * n1 - a12 * n3) * h, (b13 * n2 - b23 * n1 - b12 * n3) * h,
        (d13 * n2 - d23 * n1 - d12 * n3) * h, (a23 * n0 - a03 * n2 + a02 * n3) * h,
        (b23 * n0 - b03 * n2 + b02 * n3) * h, (d23 * n0 - d03 * n2 + d02 * n3) * h,
        (a03 * n1 - a13 * n0 - a01 * n3) * h, (b03 * n1 - b13 * n0 - b01 * n3) * h,
        (d03 * n1 - d13 * n0 - d01 * n3) * h, (a12 * n0 - a02 * n1 + a01 * n2) * h,
        (b12 * n0 - b02 * n1 + b01 * n2) * h, (d12 * n0 - d02 * n1 + d01 * n2) * h,
        n0, n1, n2, n3,
        q00 * q00 + q01 * q01 + q02 * q02 + q03 * q03,
        q00 * q10 + q01 * q11 + q02 * q12 + q03 * q13,
        q00 * q20 + q01 * q21 + q02 * q22 + q03 * q23,
        q10 * q10 + q11 * q11 + q12 * q12 + q13 * q13,
        q10 * q20 + q11 * q21 + q12 * q22 + q13 * q23,
        q20 * q20 + q21 * q21 + q22 * q22 + q23 * q23,
    )


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
    last safe command, saturated, with ``singular=True``; with none given
    it is the command a tracking run starts from, 0.8 x the hover pattern.
    A tilt or ``last_command`` other than four finite numbers raises :class:`ValueError`.
    """
    held = (_start_command(params) if last_command is None
            else _finite4(last_command, "last_command"))
    tilt = kernels.tilt_trig(_finite4(alpha, "alpha"))
    check_pitch(float(state.eta[1]))
    x = tuple(state.as_array().tolist())
    varpi, det, sat, singular, _ = fl_core(
        x, kernels.attitude_trig(x[6], x[7], x[8]), tilt,
        tilt_factors(tilt, params.pack),
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
