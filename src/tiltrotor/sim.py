"""Closed-loop tracking experiment: reference, loop orchestration, logging.

One simulation step: sample the gait, turn horizontal position error into
roll/pitch references, run the inner feedback-linearization loop, then
advance the plant one Runge-Kutta step holding the rotor speeds constant
(zero-order hold).  Control runs at the integration rate.

Nothing about the gait or the reference depends on the state, so the
loop builds them ahead in blocks of :data:`TRACK_BLOCK` steps with numpy:
the gait angles at the step starts (the logged ``alpha``), midpoints and
ends, their sines and cosines, the tilt-only factors of the decoupling
matrix at the step starts (:func:`~tiltrotor.control.tilt_factors`), and
the rows of :func:`circular_reference`.  That arithmetic is elementwise,
so the block size does not change a bit of the log.  The per-step work is
what depends on the state: the attitude trig (taken once, for the outer
and inner loops and the first Runge-Kutta stage), the outer loop, the
attitude part of the inner loop's solve, and the Runge-Kutta step.  The
step's state, rotor speeds and determinant go to flat Python lists,
which reach the log arrays in one slice assignment per block (and once
more, for the partial block, before an abort raises).  A completed and
an aborted run take their :class:`TrackLog` from the same constructor.

The log records how the run ended and the least scale-free determinant
ratio of its rows, which the singular test forms anyway; neither costs
the step more than a comparison.

Identical configurations produce bit-identical logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from tiltrotor._core import kernels
from tiltrotor._files import read_csv, write_csv
from tiltrotor.control import Gains, _start_command, decoupler_core, fl_core, tilt_factors
from tiltrotor.errors import AbortedSingular
from tiltrotor.model import EPS_REP, Params, State
from tiltrotor.linearization import EPS_SING

TRACKLOG_HEADER = (
    "t,x,y,z,vx,vy,vz,phi,theta,psi,p,q,r,a1,a2,a3,a4,"
    "w1,w2,w3,w4,xr,yr,zr,det,sat1,sat2,sat3,sat4,singular"
)

CIRCLE_RADIUS = 5.0
CIRCLE_RATE = 0.1

# steps per block of gait, tilt-trig, tilt-factor and reference rows built
# ahead: the tilt factors take about 260 numpy calls per block whatever its
# size, about 1.5 us a step at 256 steps against 1.8 at 128, and the block's
# Python rows add under 1 MB of peak memory
TRACK_BLOCK = 256
# reference columns the outer loop reads: position, velocity, acceleration in x and y
_REF_XY = (0, 1, 3, 4, 6, 7)


def circular_reference(t: np.ndarray) -> np.ndarray:
    """Uniform circular reference of radius 5 m at 0.1 rad/s, zero altitude.

    ``t`` is a 1-D array of times; each gets one row of 9 floats, its
    position, velocity and acceleration.  The commanded acceleration is
    zero: the tracking loops must absorb the centripetal term themselves.
    """
    a = CIRCLE_RATE * t
    c, s = np.cos(a), np.sin(a)
    rv = CIRCLE_RADIUS * CIRCLE_RATE
    rows = np.zeros((len(t), 9))
    rows[:, 0] = CIRCLE_RADIUS * c
    rows[:, 1] = CIRCLE_RADIUS * s
    rows[:, 3] = -rv * s
    rows[:, 4] = rv * c
    return rows


# one time's row as a 9-tuple; only perfbench's sim.reference span reads it
circular_reference.floats = lambda t: tuple(circular_reference(np.array([float(t)]))[0].tolist())


# the most rows whose (rows, 12) float64 log numpy can index
_MAX_LOG_ROWS = np.iinfo(np.intp).max // (12 * 8)


@dataclass(frozen=True)
class SimConfig:
    """Run configuration for :func:`run_tracking`.

    ``duration`` and ``dt`` must be positive and finite, with ``dt <=
    duration``; ``initial_state`` must be a :class:`~tiltrotor.model.State`
    (anything else raises :class:`TypeError`).  The run takes
    :attr:`n_steps` ``= round(duration / dt)`` steps, so a duration off
    the ``dt`` grid snaps to the nearest multiple of ``dt``, ties to an
    even step count (0.0105 s at ``dt = 1e-3`` runs 10 steps, to t =
    0.010 s); the log has one row more than the step count.  A
    ``duration / dt`` whose log of ``(rows, 12)`` floats numpy could not
    index raises :class:`ValueError`; a log that numpy can index but the
    host cannot hold raises :class:`MemoryError` from :func:`run_tracking`.

    Every run is the paper's experiment: it tracks
    :func:`circular_reference`, starts from the command 0.8 x the hover
    pattern, holds each rotor command over its Runge-Kutta step and stops
    at the first row whose decoupling matrix fails the test against the
    fixed :data:`~tiltrotor.linearization.EPS_SING`.
    """

    duration: float = 120.0
    dt: float = 1e-3
    initial_state: State = field(default_factory=State)

    def __post_init__(self):
        for name in ("duration", "dt"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.dt > self.duration:
            raise ValueError(f"dt {self.dt} exceeds the duration {self.duration}")
        if not self.duration / self.dt < _MAX_LOG_ROWS:
            raise ValueError(f"duration {self.duration} / dt {self.dt} is more steps than "
                             f"numpy can index in a log of (rows, 12) floats")
        if not isinstance(self.initial_state, State):
            raise TypeError(
                f"initial_state must be a State, got {type(self.initial_state).__name__}")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))


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
    # how the run ended: "completed", or the AbortedSingular reason
    # ("determinant", "pitch_guard"); a log read from CSV does not know.
    # aborted and abort_time (the last row's time) are read from it
    end_reason: str | None = None
    # least scale-free determinant ratio |det| / prod(row norms) over the
    # rows the control law was evaluated on, and the time of that row
    min_det_ratio: float | None = None
    min_det_ratio_time: float | None = None

    def __len__(self) -> int:
        return len(self.t)

    @property
    def aborted(self) -> bool:
        return self.end_reason in AbortedSingular.MESSAGES

    @property
    def abort_time(self) -> float | None:
        return float(self.t[-1]) if self.aborted else None

    def summary(self) -> str:
        """How the run ended and how close it came to the singular test."""
        if self.min_det_ratio is None:
            return f"ended: {self.end_reason}"
        return (f"ended: {self.end_reason}; min det ratio {self.min_det_ratio:.4g} "
                f"at t={self.min_det_ratio_time:.3f} s")

    def _columns(self) -> list:
        """The log arrays in the CSV column order."""
        return [self.t, self.states, self.alpha, self.varpi, self.ref_pos, self.det,
                self.saturated, self.singular]

    def as_matrix(self) -> np.ndarray:
        """Rows in the CSV column order (flags as 0/1)."""
        return np.column_stack(self._columns())

    def to_csv(self, path) -> None:
        """Write :meth:`as_matrix` to a path or an open text stream as ``_files.write_csv`` does."""
        write_csv(path, TRACKLOG_HEADER, self._columns())

    @classmethod
    def from_csv(cls, path) -> "TrackLog":
        """Read a log :meth:`to_csv` wrote; any other file raises :class:`ValueError`."""
        m = read_csv(path, TRACKLOG_HEADER)
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

    Aborts with :class:`AbortedSingular` (partial log attached, the failed
    row last) at the first row whose decoupling matrix is singular (reason
    ``"determinant"``; the row logs the held command) or whose pitch is in
    the Euler-representation guard band, where the loop cannot be evaluated
    at all (reason ``"pitch_guard"``; the row logs ``det = 0``).
    """
    dt = float(config.dt)
    n_steps = config.n_steps
    n_rows = n_steps + 1

    t_arr = np.arange(n_rows) * dt
    states = np.empty((n_rows, 12))
    alphas = np.empty((n_rows, 4))
    varpis = np.empty((n_rows, 4))
    refs = np.empty((n_rows, 3))
    dets = np.empty(n_rows)
    sats = np.zeros((n_rows, 4), dtype=bool)
    sings = np.zeros(n_rows, dtype=bool)

    # plain floats here and in the gains below: numpy scalars would make
    # every kernel operation slower
    last_cmd = _start_command(params)

    state = tuple(config.initial_state.as_array().tolist())
    pack = params.pack
    kp4 = tuple(gains.kp.tolist())
    kd4 = tuple(gains.kd.tolist())
    lo, hi = params.omega_lo, params.omega_hi
    kp_xy, kd_xy, clamp, g = gains.kp_xy, gains.kd_xy, gains.clamp, params.g
    eps = EPS_SING
    theta_guard = math.pi / 2 - EPS_REP
    half_dt = 0.5 * dt

    # running minimum of the squared determinant ratio, and its row
    min_ratio_sq, min_row = math.inf, -1

    def log(k, reason):
        # the first k rows, and the least ratio if the law ran on any of them
        least = {} if min_row < 0 else {
            "min_det_ratio": math.sqrt(min_ratio_sq), "min_det_ratio_time": min_row * dt}
        return TrackLog(
            t=t_arr[:k], states=states[:k], alpha=alphas[:k], varpi=varpis[:k],
            ref_pos=refs[:k], det=dets[:k], saturated=sats[:k], singular=sings[:k],
            end_reason=reason, **least,
        )

    # this block's states, varpi and det, buffered as flat lists of floats:
    # one slice assignment per block costs less than a numpy row write per
    # step, and a flat list converts faster than a list of row tuples
    row_states, row_varpis, row_dets = [], [], []
    add_state, add_varpi, add_det = row_states.extend, row_varpis.extend, row_dets.append

    def flush(i0):
        k = i0 + len(row_dets)
        states[i0:k] = np.reshape(row_states, (k - i0, 12))
        varpis[i0:k] = np.reshape(row_varpis, (k - i0, 4))
        dets[i0:k] = row_dets
        row_states.clear()
        row_varpis.clear()
        row_dets.clear()

    def abort(i0, i, reason):
        flush(i0)
        return AbortedSingular(log(i + 1, reason))

    attitude_trig = kernels.attitude_trig
    zero4 = (0.0, 0.0, 0.0, 0.0)
    for i0 in range(0, n_rows, TRACK_BLOCK):
        i1 = min(i0 + TRACK_BLOCK, n_rows)
        n = i1 - i0
        # the gait at the n step starts, the step end after the last, and
        # the n midpoints; a step's end is the next step's start
        starts = np.arange(i0, i1 + 1) * dt
        alpha = gait.sample_array(np.concatenate((starts, starts[:-1] + half_dt)))
        alphas[i0:i1] = alpha[:n]
        trig = np.hstack((np.sin(alpha), np.cos(alpha)))
        tilts = trig.tolist()
        factors = np.array(tilt_factors(trig[:n].T, pack)).T.tolist()
        ref = circular_reference(starts[:-1])
        refs[i0:i1] = ref[:, 0:3]
        for i, tilt, fac, tilt_end, tilt_mid, (rpx, rpy, rvx, rvy, rax, ray) in zip(
            range(i0, i1), tilts, factors, tilts[1:n + 1], tilts[n + 1:],
            ref[:, _REF_XY].tolist(),
        ):
            add_state(state)
            if abs(state[7]) >= theta_guard:
                # representation blow-up: the loop cannot be evaluated past here
                add_varpi(last_cmd)
                add_det(0.0)
                sings[i] = True
                raise abort(i0, i, "pitch_guard")

            att = attitude_trig(state[6], state[7], state[8])
            phi_ref, theta_ref = decoupler_core(
                state[0], state[1], state[3], state[4], att[4], att[5],
                rpx, rpy, rvx, rvy, rax, ray,
                kp_xy, kd_xy, clamp, g,
            )
            varpi, det, sat, singular, ratio_sq = fl_core(
                state, att, tilt, fac, (phi_ref, theta_ref, 0.0, 0.0), zero4, zero4,
                kp4, kd4, pack, lo, hi, eps, last_cmd,
            )
            add_varpi(varpi)
            add_det(det)
            if ratio_sq < min_ratio_sq:
                min_ratio_sq, min_row = ratio_sq, i
            # the flag arrays start zeroed: write only rows with a flag set
            if True in sat:
                sats[i] = sat

            if singular:
                sings[i] = True
                raise abort(i0, i, "determinant")
            last_cmd = varpi

            if i < n_steps:
                w = (
                    varpi[0] * abs(varpi[0]),
                    varpi[1] * abs(varpi[1]),
                    varpi[2] * abs(varpi[2]),
                    varpi[3] * abs(varpi[3]),
                )
                state = kernels.rk4_step(state, att, tilt, tilt_mid, tilt_end, w, dt, pack)
        flush(i0)

    return log(n_rows, "completed")
