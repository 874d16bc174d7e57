"""Closed-loop tracking experiment: reference, loop orchestration, logging.

One simulation step: sample the gait, turn horizontal position error into
roll/pitch references, run the inner feedback-linearization loop, then
advance the plant one Runge-Kutta step holding the rotor speeds constant
(zero-order hold).  Control runs at the integration rate.  A step takes
the sines and cosines of its start attitude once, for the outer and inner
loops and the first Runge-Kutta stage, and those of each gait sample
once: the end-stage tilts of one step are the start-stage tilts of the
next.

Identical configurations produce bit-identical logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from tiltrotor._core import kernels
from tiltrotor.control import Gains, decoupler_core, fl_core
from tiltrotor.errors import AbortedSingular
from tiltrotor.model import EPS_REP, Params, State
from tiltrotor.linearization import EPS_SING

TRACKLOG_HEADER = (
    "t,x,y,z,vx,vy,vz,phi,theta,psi,p,q,r,a1,a2,a3,a4,"
    "w1,w2,w3,w4,xr,yr,zr,det,sat1,sat2,sat3,sat4,singular"
)

CIRCLE_RADIUS = 5.0
CIRCLE_RATE = 0.1


@dataclass(frozen=True)
class Reference:
    """Reference position, velocity, and acceleration at one query time."""

    pos: np.ndarray
    vel: np.ndarray
    acc: np.ndarray


def _circle_floats(t: float) -> tuple:
    a = CIRCLE_RATE * t
    c, s = math.cos(a), math.sin(a)
    rv = CIRCLE_RADIUS * CIRCLE_RATE
    return (
        CIRCLE_RADIUS * c, CIRCLE_RADIUS * s, 0.0,
        -rv * s, rv * c, 0.0,
        0.0, 0.0, 0.0,
    )


def circular_reference(t: float) -> Reference:
    """Uniform circular reference of radius 5 m at 0.1 rad/s, zero altitude.

    The commanded acceleration is zero: the tracking loops must absorb
    the centripetal term themselves.
    """
    f = _circle_floats(t)
    return Reference(pos=np.array(f[0:3]), vel=np.array(f[3:6]), acc=np.array(f[6:9]))


circular_reference.floats = _circle_floats  # fast path for the tracking loop


def fixed_reference(pos) -> Callable[[float], Reference]:
    """Constant hover reference at ``pos`` (regulation experiments)."""
    p = tuple(float(v) for v in pos)
    flo = (p[0], p[1], p[2], 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def ref(_t: float) -> Reference:
        return Reference(pos=np.array(flo[0:3]), vel=np.zeros(3), acc=np.zeros(3))

    ref.floats = lambda _t: flo
    return ref


@dataclass(frozen=True)
class SimConfig:
    """Run configuration for :func:`run_tracking`.

    ``duration`` and ``dt`` must be positive and finite, with ``dt <=
    duration``.  The run takes ``round(duration / dt)`` steps, so a
    duration off the ``dt`` grid snaps to the nearest multiple of ``dt``,
    ties to an even step count (0.0105 s at ``dt = 1e-3`` runs 10 steps,
    to t = 0.010 s); the log has one row more than the step count.
    """

    duration: float = 120.0
    dt: float = 1e-3
    initial_state: State = field(default_factory=State)
    initial_varpi: np.ndarray | None = None  # default: 0.8 x hover pattern
    abort_on_singular: bool = True
    reference: Callable[[float], Reference] = circular_reference
    eps_sing: float = EPS_SING

    def __post_init__(self):
        for name in ("duration", "dt"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.dt > self.duration:
            raise ValueError(f"dt {self.dt} exceeds the duration {self.duration}")
        if not (math.isfinite(self.eps_sing) and self.eps_sing >= 0):
            raise ValueError(f"eps_sing must be non-negative and finite, got {self.eps_sing}")
        if self.initial_varpi is not None:
            varpi = np.asarray(self.initial_varpi, dtype=float)
            if varpi.shape != (4,) or not np.all(np.isfinite(varpi)):
                raise ValueError(f"initial_varpi must be four finite speeds, got {varpi}")
            object.__setattr__(self, "initial_varpi", varpi)


@dataclass
class TrackLog:
    """Fixed-step time series of the closed-loop run."""

    t: np.ndarray
    states: np.ndarray        # (n, 12): pos, vel, eta, omega
    alpha: np.ndarray         # (n, 4) sampled gait angles (continuous lift)
    varpi: np.ndarray         # (n, 4) commanded (saturated) rotor speeds
    ref_pos: np.ndarray       # (n, 3)
    det: np.ndarray           # (n,) decoupling-matrix determinant
    saturated: np.ndarray     # (n, 4) bool
    singular: np.ndarray      # (n,) bool
    aborted: bool = False
    abort_time: float | None = None

    def __len__(self) -> int:
        return len(self.t)

    def as_matrix(self) -> np.ndarray:
        """Rows in the CSV column order (flags as 0/1)."""
        return np.column_stack([
            self.t, self.states, self.alpha, self.varpi, self.ref_pos,
            self.det, self.saturated.astype(float), self.singular.astype(float),
        ])

    def to_csv(self, path) -> None:
        """Write the log with 17 significant digits so it round-trips exactly."""
        np.savetxt(path, self.as_matrix(), fmt="%.17g", delimiter=",",
                   header=TRACKLOG_HEADER, comments="")

    @classmethod
    def from_csv(cls, path) -> "TrackLog":
        m = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return cls(
            t=m[:, 0], states=m[:, 1:13], alpha=m[:, 13:17], varpi=m[:, 17:21],
            ref_pos=m[:, 21:24], det=m[:, 24],
            saturated=m[:, 25:29] != 0.0, singular=m[:, 29] != 0.0,
        )


@dataclass(frozen=True)
class ErrorSeries:
    """Reference-minus-actual position error over the log timestamps."""

    t: np.ndarray
    error: np.ndarray   # (n, 3) per-axis
    norm: np.ndarray    # (n,)


def error_series(log: TrackLog) -> ErrorSeries:
    if len(log) == 0:
        raise ValueError("empty log")
    e = log.ref_pos - log.states[:, 0:3]
    return ErrorSeries(t=log.t.copy(), error=e, norm=np.sqrt((e * e).sum(axis=1)))


def run_tracking(config: SimConfig, params: Params, gains: Gains, gait) -> TrackLog:
    """Run the closed-loop experiment and return the step-by-step log.

    Aborts with :class:`AbortedSingular` (partial log attached) when the
    decoupling matrix goes singular and ``config.abort_on_singular`` is
    set, or whenever the pitch reaches the Euler-representation guard
    band, after which the loop cannot be evaluated at all.
    """
    dt = float(config.dt)
    n_steps = int(round(config.duration / dt))
    n_rows = n_steps + 1

    t_arr = np.arange(n_rows) * dt
    states = np.empty((n_rows, 12))
    alphas = np.empty((n_rows, 4))
    varpis = np.empty((n_rows, 4))
    refs = np.empty((n_rows, 3))
    dets = np.empty(n_rows)
    sats = np.zeros((n_rows, 4), dtype=bool)
    sings = np.zeros(n_rows, dtype=bool)

    sample = gait.sampler()
    ref_fn = config.reference
    ref_floats = getattr(ref_fn, "floats", None)
    if ref_floats is None:
        def ref_floats(t, _r=ref_fn):
            rr = _r(t)
            return (*map(float, rr.pos), *map(float, rr.vel), *map(float, rr.acc))

    # plain floats here and in the gains below: numpy scalars would make
    # every kernel operation slower
    if config.initial_varpi is None:
        last_cmd = tuple((params.spin_sign * (0.8 * params.hover_speed)).tolist())
    else:
        last_cmd = tuple(float(v) for v in config.initial_varpi)

    state = tuple(config.initial_state.as_array().tolist())
    pack = params.pack
    kp4 = tuple(gains.kp.tolist())
    kd4 = tuple(gains.kd.tolist())
    lo, hi = params.omega_lo, params.omega_hi
    kp_xy, kd_xy, clamp, g = gains.kp_xy, gains.kd_xy, gains.clamp, params.g
    eps_sing = config.eps_sing
    theta_guard = math.pi / 2 - EPS_REP
    abort_on_singular = config.abort_on_singular

    def finish(i, aborted, abort_time):
        k = i + 1
        return TrackLog(
            t=t_arr[:k], states=states[:k], alpha=alphas[:k], varpi=varpis[:k],
            ref_pos=refs[:k], det=dets[:k], saturated=sats[:k], singular=sings[:k],
            aborted=aborted, abort_time=abort_time,
        )

    attitude_trig, tilt_trig = kernels.attitude_trig, kernels.tilt_trig
    zero4 = (0.0, 0.0, 0.0, 0.0)
    a_next = sample(0.0)
    tilt_next = tilt_trig(a_next)
    for i in range(n_rows):
        t = i * dt
        # the end-stage sample of the previous step, and its trig
        a, tilt = a_next, tilt_next
        rf = ref_floats(t)
        states[i] = state
        alphas[i] = a
        refs[i, 0] = rf[0]; refs[i, 1] = rf[1]; refs[i, 2] = rf[2]

        if abs(state[7]) >= theta_guard:
            # representation blow-up: the loop cannot be evaluated past here
            varpis[i] = last_cmd
            dets[i] = 0.0
            sings[i] = True
            raise AbortedSingular(t, State.from_array(np.asarray(state)),
                                  log=finish(i, True, t))

        att = attitude_trig(state[6], state[7], state[8])
        phi_ref, theta_ref = decoupler_core(
            state[0], state[1], state[3], state[4], att[4], att[5],
            rf[0], rf[1], rf[3], rf[4], rf[6], rf[7],
            kp_xy, kd_xy, clamp, g,
        )
        varpi, det, sat, singular = fl_core(
            state, att, tilt, (phi_ref, theta_ref, 0.0, 0.0), zero4, zero4,
            kp4, kd4, pack, lo, hi, eps_sing, last_cmd,
        )
        varpis[i] = varpi
        dets[i] = det
        # the flag arrays start zeroed: write only rows with a flag set
        if True in sat:
            sats[i] = sat

        if singular:
            sings[i] = True
            if abort_on_singular:
                raise AbortedSingular(t, State.from_array(np.asarray(state)),
                                      log=finish(i, True, t))
        else:
            last_cmd = varpi

        if i < n_steps:
            w = (
                varpi[0] * abs(varpi[0]),
                varpi[1] * abs(varpi[1]),
                varpi[2] * abs(varpi[2]),
                varpi[3] * abs(varpi[3]),
            )
            a_next = sample((i + 1) * dt)
            tilt_next = tilt_trig(a_next)
            state = kernels.rk4_step(
                state, att, tilt, tilt_trig(sample(t + 0.5 * dt)), tilt_next,
                w, w, w, dt, pack,
            )

    return finish(n_rows - 1, False, None)
