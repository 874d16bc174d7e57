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

    @classmethod
    def from_json(cls, path) -> "Gains":
        """Read the ``gains`` section of the shared configuration file."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh).get("gains", {}))


load_gains = Gains.from_json


def load_config(path) -> tuple[Params, Gains, dict]:
    """Load the shared JSON configuration.

    Returns ``(params, gains, extras)`` where ``extras`` carries loop
    options such as ``abort_on_singular`` (default True).
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


def fl_core(state, att, tilt,
            ref_val, ref_rate, ref_acc,
            kp4, kd4, pack, omega_lo, omega_hi, eps_sing, last_cmd):
    """Float core of the inner loop.

    ``state`` is the kernels' 12-tuple, ``att`` its attitude trig and
    ``tilt`` the tilt trig; ``ref_*``, ``kp4``, ``kd4`` and ``last_cmd``
    are 4-tuples; ``pack`` is the kernel parameter pack.  Returns
    ``(varpi4, det, sat4, singular)``.
    """
    _, _, z, _, _, vz, phi, theta, psi, p, q, r = state
    d, b, det, scale, eta_dot, minors = kernels.decoupling(att, p, q, r, tilt, pack)
    if det == 0.0 or abs(det) < eps_sing * scale**4:
        held = last_cmd
        out = (
            _sat1(held[0], omega_lo, omega_hi),
            _sat1(held[1], omega_lo, omega_hi),
            _sat1(held[2], omega_lo, omega_hi),
            _sat1(held[3], omega_lo, omega_hi),
        )
        sat = (out[0] != held[0], out[1] != held[1], out[2] != held[2], out[3] != held[3])
        return out, det, sat, True

    # outputs y = (phi, theta, psi, z) and their rates (eta_dot, vz)
    yd0, yd1, yd2 = eta_dot
    rhs = (
        ref_acc[0] + kd4[0] * (ref_rate[0] - yd0) + kp4[0] * (ref_val[0] - phi) - b[0],
        ref_acc[1] + kd4[1] * (ref_rate[1] - yd1) + kp4[1] * (ref_val[1] - theta) - b[1],
        ref_acc[2] + kd4[2] * (ref_rate[2] - yd2) + kp4[2] * (ref_val[2] - psi) - b[2],
        ref_acc[3] + kd4[3] * (ref_rate[3] - vz) + kp4[3] * (ref_val[3] - z) - b[3],
    )
    w0, w1, w2, w3 = kernels.solve4(d, rhs, minors)
    v0 = math.copysign(math.sqrt(abs(w0)), w0) if w0 != 0.0 else 0.0
    v1 = math.copysign(math.sqrt(abs(w1)), w1) if w1 != 0.0 else 0.0
    v2 = math.copysign(math.sqrt(abs(w2)), w2) if w2 != 0.0 else 0.0
    v3 = math.copysign(math.sqrt(abs(w3)), w3) if w3 != 0.0 else 0.0
    if (omega_lo <= abs(v0) <= omega_hi and omega_lo <= abs(v1) <= omega_hi
            and omega_lo <= abs(v2) <= omega_hi and omega_lo <= abs(v3) <= omega_hi):
        # in range: _sat1 would return each value unchanged
        return (v0, v1, v2, v3), det, _UNSATURATED, False
    out = (
        _sat1(v0, omega_lo, omega_hi),
        _sat1(v1, omega_lo, omega_hi),
        _sat1(v2, omega_lo, omega_hi),
        _sat1(v3, omega_lo, omega_hi),
    )
    sat = (out[0] != v0, out[1] != v1, out[2] != v2, out[3] != v3)
    return out, det, sat, False


def fl_inner_loop(
    state: State,
    alpha,
    refs: InnerRefs,
    gains: Gains,
    params: Params,
    last_command=None,
    eps_sing: float = EPS_SING,
) -> ControlOutput:
    """One evaluation of the exact-linearization law on (roll, pitch, yaw, altitude).

    Computes ``v = r'' + kd (r' - y') + kp (r - y)``, solves ``Delta w =
    v - b`` for the signed squared speeds, converts to rotor speeds, and
    saturates.  When the scale-aware determinant test fires, the output
    is the last safe command (or the spin-sign pattern at the magnitude
    floor if none is given) with ``singular=True``.
    """
    theta = float(state.eta[1])
    check_pitch(theta)
    if last_command is None:
        held = tuple((params.spin_sign * params.omega_lo).tolist())
    else:
        held = tuple(float(v) for v in last_command)
    x = tuple(state.as_array().tolist())
    varpi, det, sat, singular = fl_core(
        x, kernels.attitude_trig(x[6], x[7], x[8]), kernels.tilt_trig(_alpha4(alpha)),
        tuple(refs.value.tolist()), tuple(refs.rate.tolist()), tuple(refs.accel.tolist()),
        tuple(gains.kp.tolist()), tuple(gains.kd.tolist()),
        params.pack, params.omega_lo, params.omega_hi, eps_sing, held,
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

    def __init__(self, gains: Gains, params: Params, initial_command=None,
                 eps_sing: float = EPS_SING):
        self.gains = gains
        self.params = params
        self.eps_sing = eps_sing
        self.last_safe = None if initial_command is None else np.asarray(initial_command, float)

    def step(self, state: State, alpha, refs: InnerRefs) -> ControlOutput:
        out = fl_inner_loop(
            state, alpha, refs, self.gains, self.params,
            last_command=self.last_safe, eps_sing=self.eps_sing,
        )
        if not out.singular:
            self.last_safe = out.varpi_cmd
        return out
