"""Decoupling matrix of the (roll, pitch, yaw, altitude) loop and its determinant.

The controlled outputs are ``y = (phi, theta, psi, Z)``.  Differentiating
twice gives ``y'' = b + Delta @ w`` with

* rows 1-3 of ``Delta`` equal to ``T(eta) @ inv(I_B) @ torque_matrix(alpha)``,
* row 4 equal to ``(1/m) * (third row of R(eta)) @ thrust_matrix(alpha)``,
* ``b = (Tdot(eta, eta_dot) @ omega_body, -g)``.

Because the third row of ``R`` and the matrix ``T`` are yaw-free, the
determinant splits into attitude and tilt factors::

    m * cos(theta) * det(I_B) * det(Delta)
        = -sin(theta) * A + sin(phi) cos(theta) * B + cos(phi) cos(theta) * C

where ``A``, ``B``, ``C`` depend on the tilting angles only (see
:func:`det_decomposition`).  The zero set of the right-hand side is the
set of attitudes at which feedback linearization breaks down.

The identity comes from a factorization that the tracking loop uses
directly::

    Delta = blockdiag(T, 1) @ [Q; v],   Q = inv(I_B) @ torque_matrix(alpha)

``Q`` (3x4) depends on the tilts only and ``v = R[2, :] @ thrust / m``
on the tilts and roll and pitch.  With ``n`` the cofactor vector of
``Q`` (``Q n = 0``), ``det Delta = (v . n) / cos(theta)``, and ``v . n *
m * det(I_B)`` is the right-hand side above; ``A``, ``B``, ``C`` are the
thrust rows dotted with the torque map's cofactor vector.  The loop
builds ``n``, a right inverse of ``Q`` and its Gram matrix once per tilt
(``kernels.tilt_factors``, one body for a float row and a block of rows)
and keeps only the attitude part per step.
:func:`decoupling_matrix` writes out the same law: its rows are
``blockdiag(T, 1) @ [Q; v]`` and its determinant is ``(v . n) /
cos(theta)`` from the same ``n``, so at the loop's sines and cosines it
is the determinant the loop logs, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tiltrotor._core import kernels
from tiltrotor.model import Params, State, _floats, check_pitch

# Delta is singular when its scale-free ratio |det| / prod(row norms), 0 at
# a zero determinant or row, is below EPS_SING: control.fl_core and
# DecouplingMatrix.is_singular test that one ratio.  Healthy closed-loop runs
# stay above ~0.5; runs that lose control authority fall below 1e-4.
EPS_SING = 1e-4


@dataclass(frozen=True)
class DetCoefficients:
    """Tilt-dependent coefficients of the determinant decomposition.

    ``A = det[T; f0]``, ``B = det[T; f1]`` and ``C = det[T; f2]``, with ``T``
    the 3x4 torque map and ``f0``-``f2`` the thrust-map rows.
    """

    A: float
    B: float
    C: float

    @property
    def abc(self) -> tuple:
        return (self.A, self.B, self.C)


@dataclass(frozen=True)
class DecouplingMatrix:
    """4x4 input-to-output-acceleration map with its determinant and scale."""

    delta: np.ndarray
    det: float
    scale: float

    @property
    def ratio(self) -> float:
        """Scale-free singularity measure ``|det| / scale**4``, 0 where ``scale**4`` underflows."""
        scale4 = self.scale**4
        return abs(self.det) / scale4 if scale4 > 0.0 else 0.0

    def is_singular(self) -> bool:
        """The loop's singular test: :attr:`ratio` below :data:`EPS_SING`."""
        return self.ratio < EPS_SING


def decoupling_matrix(eta, alpha, params: Params) -> DecouplingMatrix:
    """Assemble the decoupling matrix at attitude ``eta`` and tilt ``alpha``.

    Depends only on ``(phi, theta)`` and ``alpha``.  ``eta = (phi, theta,
    psi)`` must be three finite numbers, the unread yaw included, and
    ``alpha`` four, or :class:`ValueError` is raised; inside the pitch
    guard band :class:`~tiltrotor.errors.RepresentationSingular` is raised.
    """
    phi, theta, _ = _floats(eta, 3, "eta")
    check_pitch(theta)
    tilt = kernels.tilt_trig(_floats(alpha, 4, "alpha"))
    d, det, scale = kernels.decoupling(kernels.attitude_trig(phi, theta, 0.0), tilt, params.pack)
    return DecouplingMatrix(delta=np.asarray(d).reshape(4, 4), det=float(det), scale=float(scale))


def drift_vector(state: State, params: Params) -> np.ndarray:
    """Drift ``b`` of the output dynamics: ``y'' = b + Delta @ w``.

    ``b[0:3] = Tdot(eta, eta_dot) @ omega_body`` with ``eta_dot = T @
    omega_body``, and ``b[3] = -g``, formed at the state by the expressions
    ``control.fl_core`` subtracts, so bit for bit the loop's drift.
    """
    phi, theta = float(state.eta[0]), float(state.eta[1])
    check_pitch(theta)
    p, q, r = (float(v) for v in state.omega)
    sf, cf, st, ct = math.sin(phi), math.cos(phi), math.sin(theta), math.cos(theta)
    tt = st / ct
    u = sf * q + cf * r
    dtheta = cf * q - sf * r
    dphi = p + tt * u
    tu = dtheta * u / (ct * ct)
    return np.array((tt * dphi * dtheta + tu, -dphi * u, dphi * dtheta / ct + st * tu, -params.g))


def det_decomposition(alpha, params: Params) -> DetCoefficients:
    """Tilt-only coefficients ``(A, B, C)`` of the determinant identity.

    For all attitudes with ``|theta| < pi/2``::

        det(Delta) = (-sin(theta) * A + sin(phi) cos(theta) * B
                      + cos(phi) cos(theta) * C) / (m * cos(theta) * det(I_B))
    """
    a1, a2, a3, a4 = _floats(alpha, 4, "alpha")
    A, B, C = kernels.det_coeffs(a1, a2, a3, a4, params.k_f, params.k_m, params.arm_length)
    return DetCoefficients(A=A, B=B, C=C)


def normalized_det(phi, theta, coeffs: DetCoefficients):
    """Attitude factor ``g = -sin(theta) A + sin(phi) cos(theta) B + cos(phi) cos(theta) C``.

    Continuous on the whole ``(phi, theta)`` plane and proportional to
    ``det(Delta)`` on ``|theta| < pi/2``; accepts scalars or arrays.
    """
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    ct = np.cos(theta)
    return -np.sin(theta) * coeffs.A + np.sin(phi) * ct * coeffs.B + np.cos(phi) * ct * coeffs.C


def abc_scale(params: Params) -> float:
    """Natural magnitude of the ``A``, ``B``, ``C`` coefficients.

    The determinant of one thrust row stacked on the three torque rows
    scales as ``k_f * (arm * k_f + k_m)**3``; used for scale-aware
    tolerances on the coefficients.
    """
    return params.k_f * (params.arm_length * params.k_f + params.k_m) ** 3
