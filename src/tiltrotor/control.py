"""Outer position decoupler and inner feedback-linearization loop.

The outer loop converts horizontal position errors into roll/pitch
references through the gravity coupling; the inner loop linearizes the
(roll, pitch, yaw, altitude) dynamics exactly by inverting the decoupling
matrix, then saturates the rotor-speed commands.

A singular decoupling matrix is flagged rather than raised: the step
returns the held ``last_command``, whose memory the caller keeps; the
tracking run (:func:`~tiltrotor.sim.run_tracking`) stops at the flagged row.

The float-tuple helpers ``decoupler_core`` and ``fl_core`` are the single
implementation of the control laws; :func:`fl_inner_loop` wraps
``fl_core``, and the simulation loop calls both directly to avoid
per-step overhead.  They take the sines and cosines of the attitude and
tilts (the kernels' ``attitude_trig``/``tilt_trig`` sets), so that one
step takes each once.

``fl_core`` does not assemble the decoupling matrix.  It writes it as
``Delta = blockdiag(T, 1) @ [Q; v]`` (see :mod:`tiltrotor.linearization`)
and takes the tilt-only part from a row of ``tilt_factors``, a kernel
imported here: given the floats of one tilt it returns one row of
floats, for :func:`fl_inner_loop`, and given numpy columns it returns the
columns of a block of rows, for the tracking loop.  The public
``decoupling_matrix`` is built from the same factors (``kernels.decoupling``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from tiltrotor._core import kernels
from tiltrotor._core.kernels import tilt_factors
from tiltrotor.linearization import EPS_SING
from tiltrotor.model import Params, State, _floats, check_pitch


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
        for name in ("kp", "kd"):
            value = getattr(self, name)
            # one number stands for all four channels
            value = value if np.iterable(value) else [value] * 4
            object.__setattr__(self, name, np.array(_floats(value, 4, name)))
        gains = (*self.kp.tolist(), *self.kd.tolist(), self.kp_xy, self.kd_xy)
        if not all(math.isfinite(v) and v > 0 for v in gains):
            raise ValueError(f"all gains must be positive and finite, got {gains}")
        if not 0.0 < self.clamp < math.pi / 2:
            raise ValueError(f"clamp must lie in (0, pi/2), got {self.clamp}")


# the keys load_config reads and the forms their values may take (see
# read_object): None for one number, n for a list of n numbers
_CONFIG_KEYS = {
    "m": (None,), "g": (None,), "k_f": (None,), "k_m": (None,), "arm_length": (None,),
    "omega_lo": (None,), "omega_hi": (None,), "inertia": (9,), "spin_sign": (4,),
    "gains": {"kp": (None, 4), "kd": (None, 4), "kp_xy": (None,), "kd_xy": (None,),
              "clamp": (None,)},
}


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
    boolean for a number, a list of the wrong length), a key repeated in
    one object, a file that is not one object, and values the
    constructors refuse.

    Returns ``(params, gains)``.
    """
    from tiltrotor._files import read_object

    kw = read_object(path, _CONFIG_KEYS, "the configuration")
    gains = Gains(**kw.pop("gains", {}))
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
            object.__setattr__(self, name, np.array(_floats(getattr(self, name), 4, name)))


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


def _sat4(v, lo: float, hi: float) -> tuple:
    """``(out, sat)``: :func:`_sat1` of each of the four values ``v``, and which it changed."""
    out = (_sat1(v[0], lo, hi), _sat1(v[1], lo, hi), _sat1(v[2], lo, hi), _sat1(v[3], lo, hi))
    return out, (out[0] != v[0], out[1] != v[1], out[2] != v[2], out[3] != v[3])


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
    norms)``: the step is singular, and holds ``last_cmd``, when that
    ratio is below ``eps_sing``.

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
    # / ct, is taken times ct**2 (gs), as vn = det * ct is, so the squared
    # ratio is vn**2 over their product
    tt = st / ct
    sf2, cf2, sc2 = sf * sf, cf * cf, 2.0 * sf * cf
    gs = sf2 * g11 + sc2 * g12 + cf2 * g22
    norms = (
        (g00 + 2.0 * tt * (sf * g01 + cf * g02) + tt * tt * gs)
        * (cf2 * g11 - sc2 * g12 + sf2 * g22)
        * gs
        * (e30 * e30 + e31 * e31 + e32 * e32 + e33 * e33)
    )
    # a zero determinant or a zero row gives ratio 0, which the test holds
    ratio_sq = vn * vn / norms if norms > 0.0 else 0.0
    if ratio_sq < eps_sing * eps_sing:
        out, sat = _sat4(last_cmd, omega_lo, omega_hi)
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
    out, sat = _sat4((v0, v1, v2, v3), omega_lo, omega_hi)
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
            else _floats(last_command, 4, "last_command"))
    tilt = kernels.tilt_trig(_floats(alpha, 4, "alpha"))
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

