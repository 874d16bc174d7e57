"""Vehicle parameters, rigid-body state, input maps, and integration.

The vehicle is a quadrotor whose four thrust units tilt about their arms:
the plant input is the 4-vector of signed squared rotor speeds ``w`` with
``w_i = varpi_i * |varpi_i|``, and the four tilting angles enter through
the force and torque maps ``thrust_matrix`` / ``torque_matrix``.

Conventions:

* World frame: x-y horizontal, z up.  Euler angles are Z-Y-X
  (yaw ``psi``, pitch ``theta``, roll ``phi``), so the body-to-world
  rotation is ``R = Rz(psi) @ Ry(theta) @ Rx(phi)``.
* The Euler-rate map ``euler_rate_matrix`` is valid for ``|theta| <
  pi/2 - EPS_REP`` and raises :class:`RepresentationSingular` outside.
  It, :func:`rotation_matrix` and
  :func:`tiltrotor.linearization.decoupling_matrix` raise
  :class:`ValueError` for a non-finite Euler angle that they read.
* Every function that takes the tilting angles takes them as four
  finite numbers, and raises :class:`ValueError` for anything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from tiltrotor._core import kernels
from tiltrotor.errors import RepresentationSingular

# guard band around the pitch representation singularity [rad]
EPS_REP = 1e-3

TWO_PI = 2.0 * math.pi


def wrap_angle(a):
    """Wrap an angle (or array of angles) to ``[-pi, pi)``."""
    return (np.asarray(a) + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True)
class Params:
    """Physical constants of the vehicle.

    Attributes
    ----------
    m : float
        Total mass [kg].
    g : float
        Gravitational acceleration [m/s^2].
    k_f : float
        Thrust coefficient [N s^2 / rad^2].
    k_m : float
        Drag (yaw moment) coefficient [N m s^2 / rad^2].
    arm_length : float
        Distance from the center of mass to each rotor [m].
    inertia : (3, 3) ndarray
        Body inertia matrix [kg m^2]; must be symmetric positive definite.
    omega_lo, omega_hi : float
        Rotor speed magnitude limits [rad/s], ``0 <= omega_lo < omega_hi``.
    spin_sign : (4,) ndarray
        Nominal rotor spin directions (+/-1).  The alternating pattern
        (-, +, -, +) makes equal-magnitude speeds produce upward net
        force and zero net drag torque.
    """

    m: float = 1.0
    g: float = 9.81
    k_f: float = 8.048e-6
    k_m: float = 2.423e-7
    arm_length: float = 0.3
    inertia: np.ndarray = field(default_factory=lambda: np.diag([0.01, 0.01, 0.02]))
    omega_lo: float = 15.0
    omega_hi: float | None = None
    spin_sign: np.ndarray = field(default_factory=lambda: np.array([-1.0, 1.0, -1.0, 1.0]))

    def __post_init__(self):
        object.__setattr__(self, "inertia", np.asarray(self.inertia, dtype=float))
        object.__setattr__(self, "spin_sign", np.asarray(self.spin_sign, dtype=float))
        for name in ("m", "g", "k_f", "k_m", "arm_length"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.omega_hi is None:
            object.__setattr__(self, "omega_hi", 1.5 * self.hover_speed)
        if not (math.isfinite(self.omega_lo) and math.isfinite(self.omega_hi)):
            raise ValueError(
                f"rotor speed limits must be finite, got ({self.omega_lo}, {self.omega_hi})"
            )
        if self.inertia.shape != (3, 3):
            raise ValueError(f"inertia must be 3x3, got {self.inertia.shape}")
        if not np.all(np.isfinite(self.inertia)):
            raise ValueError("inertia must be finite")
        if not np.allclose(self.inertia, self.inertia.T, rtol=1e-12, atol=0.0):
            raise ValueError("inertia must be symmetric")
        if np.any(np.linalg.eigvalsh(self.inertia) <= 0):
            raise ValueError("inertia must be positive definite")
        if not 0 <= self.omega_lo < self.omega_hi:
            raise ValueError(
                f"need 0 <= omega_lo < omega_hi, got ({self.omega_lo}, {self.omega_hi})"
            )
        if 4.0 * self.k_f * self.omega_hi**2 <= self.m * self.g:
            raise ValueError("rotor speed ceiling cannot lift the vehicle")
        if self.spin_sign.shape != (4,) or np.any(np.abs(self.spin_sign) != 1.0):
            raise ValueError("spin_sign must be four values of +/-1")
        object.__setattr__(self, "inertia_inv", np.linalg.inv(self.inertia))
        # plain floats, row-major inverse inertia: the kernels' arithmetic on
        # numpy scalars would be several times slower
        pack = (
            float(self.m), float(self.g), float(self.k_f), float(self.k_m),
            float(self.arm_length), *self.inertia_inv.ravel().tolist(),
        )
        object.__setattr__(self, "pack", pack)

    @property
    def hover_speed(self) -> float:
        """Rotor speed magnitude that balances gravity at level attitude."""
        return math.sqrt(self.m * self.g / (4.0 * self.k_f))


@dataclass(frozen=True)
class State:
    """Rigid-body state: position, velocity, attitude, body rates.

    ``pos`` and ``vel`` are world-frame [m, m/s]; ``eta = (phi, theta,
    psi)`` are roll/pitch/yaw [rad]; ``omega = (p, q, r)`` are body
    angular rates [rad/s].
    """

    pos: np.ndarray = field(default_factory=lambda: np.zeros(3))
    vel: np.ndarray = field(default_factory=lambda: np.zeros(3))
    eta: np.ndarray = field(default_factory=lambda: np.zeros(3))
    omega: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        for name in ("pos", "vel", "eta", "omega"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite, got {v}")
            object.__setattr__(self, name, v)

    def as_array(self) -> np.ndarray:
        """12-vector layout ``(x, y, z, vx, vy, vz, phi, theta, psi, p, q, r)``."""
        return np.concatenate([self.pos, self.vel, self.eta, self.omega])

    @classmethod
    def from_array(cls, x) -> "State":
        x = np.asarray(x, dtype=float)
        return cls(pos=x[0:3].copy(), vel=x[3:6].copy(), eta=x[6:9].copy(), omega=x[9:12].copy())


def _finite4(values, name: str) -> tuple:
    """``values`` as four floats; anything but four finite numbers raises :class:`ValueError`."""
    v = np.asarray(values, dtype=float)
    if v.shape == (4,):
        a1, a2, a3, a4 = v.tolist()
        if math.isfinite(a1) and math.isfinite(a2) and math.isfinite(a3) and math.isfinite(a4):
            return a1, a2, a3, a4
    raise ValueError(f"{name} must be four finite numbers, got {values!r}")


def speeds_to_input(varpi) -> np.ndarray:
    """Signed squared speeds ``w_i = varpi_i * |varpi_i|``."""
    v = np.asarray(varpi, dtype=float)
    return v * np.abs(v)


def thrust_matrix(alpha, params: Params) -> np.ndarray:
    """3x4 map from signed squared rotor speeds to body-frame force."""
    tilt = kernels.tilt_trig(_finite4(alpha, "alpha"))
    return np.asarray(kernels.thrust_entries(tilt, params.k_f)).reshape(3, 4)


def torque_matrix(alpha, params: Params) -> np.ndarray:
    """3x4 map from signed squared rotor speeds to body-frame torque."""
    tilt = kernels.tilt_trig(_finite4(alpha, "alpha"))
    return np.asarray(
        kernels.torque_entries(tilt, params.k_f, params.k_m, params.arm_length)
    ).reshape(3, 4)


def _finite_euler(*angles: float) -> tuple:
    """``angles``, Euler angles as floats; a non-finite one raises :class:`ValueError`."""
    if not all(math.isfinite(a) for a in angles):
        raise ValueError(f"attitude angles must be finite, got {angles}")
    return angles


def rotation_matrix(eta) -> np.ndarray:
    """Body-to-world rotation for Z-Y-X Euler angles ``eta = (phi, theta, psi)``."""
    phi, theta, psi = _finite_euler(*(float(v) for v in eta))
    return np.asarray(kernels.rotation_entries(phi, theta, psi)).reshape(3, 3)


def check_pitch(theta: float) -> None:
    """Raise :class:`RepresentationSingular` when pitch is inside the guard band."""
    if abs(theta) >= math.pi / 2 - EPS_REP:
        raise RepresentationSingular(theta)


def euler_rate_matrix(eta) -> np.ndarray:
    """Matrix ``T`` with ``eta_dot = T @ omega_body``; requires ``|theta| < pi/2``."""
    phi, theta = _finite_euler(float(eta[0]), float(eta[1]))
    check_pitch(theta)
    return np.asarray(kernels.euler_rate_entries(phi, theta)).reshape(3, 3)


def state_derivative(state: State, alpha, w, params: Params) -> np.ndarray:
    """Time derivative of the state as a 12-vector.

    ``w`` is the signed squared rotor-speed input, four finite numbers.
    Raises :class:`RepresentationSingular` inside the pitch guard band.
    """
    check_pitch(float(state.eta[1]))
    out = kernels.state_derivative(
        tuple(state.as_array().tolist()), _finite4(alpha, "alpha"), _finite4(w, "w"),
        params.pack,
    )
    return np.asarray(out)


def integrate_step(
    state: State,
    alpha_of_t: Callable[[float], Sequence[float]],
    varpi: Sequence[float],
    t: float,
    dt: float,
    params: Params,
) -> State:
    """Advance the plant one fixed step with classical 4th-order Runge-Kutta.

    The rotor speeds ``varpi`` are held over the step (zero-order hold,
    as the tracking loop holds its command); the tilting angles
    ``alpha_of_t`` are sampled at the stage times ``t``, ``t + dt/2`` and
    ``t + dt``.  ``varpi`` must be four finite numbers and ``dt`` positive
    and finite.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    varpi = _finite4(varpi, "varpi")
    check_pitch(float(state.eta[1]))
    a0 = _finite4(alpha_of_t(t), "alpha")
    am = _finite4(alpha_of_t(t + 0.5 * dt), "alpha")
    a1 = _finite4(alpha_of_t(t + dt), "alpha")
    x = tuple(state.as_array().tolist())
    out = kernels.rk4_step(
        x, kernels.attitude_trig(x[6], x[7], x[8]),
        kernels.tilt_trig(a0), kernels.tilt_trig(am), kernels.tilt_trig(a1),
        tuple(speeds_to_input(varpi).tolist()), float(dt), params.pack,
    )
    return State.from_array(out)


def hover_speeds(params: Params) -> np.ndarray:
    """Signed rotor speeds that balance gravity at level attitude, zero tilt."""
    return params.spin_sign * params.hover_speed
