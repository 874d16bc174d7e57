"""Robust gait planning on the two-branch tilt-angle map.

For a prescribed pair ``(alpha1, alpha2)`` there are, generically, two
useful completions ``(alpha3, alpha4)`` that zero both tilt coefficients
``A`` and ``B`` of the determinant decomposition.  On such a completion
the decoupling matrix stays invertible at every attitude with ``|phi|,
|theta| < pi/2``: its determinant reduces to ``cos(phi) cos(theta) C``
up to a state-independent factor.  The two completions are planes over
the ``(alpha1, alpha2)`` plane, for every ``k_f``, ``k_m`` and arm
length:

* the **blue** branch ``(alpha3, alpha4) = (alpha1, alpha2)``,
* the **red** branch ``(alpha3, alpha4) = (alpha1 + pi, alpha2 + pi)``.

The solver writes them down in closed form, which keeps rectangle gaits
exactly on-branch under linear interpolation.

The raw root set of ``A = B = 0`` is larger, and closed-form too
(:func:`scan_roots`): with ``delta = 2 atan2(k_m, arm k_f)`` it is the
four robust completions ``{alpha1, alpha1 + pi} x {alpha2, alpha2 + pi}``
and four rank-deficient ones ``(delta - alpha1, -delta - alpha2) + {0,
pi}^2``, where ``A = B = C = 0`` (singular at *every* attitude).  On a
branch plane ``C`` itself is a product of three closed-form factors, so
``color_map`` reads its sign without a determinant decomposition.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from tiltrotor._core import kernels
from tiltrotor.linearization import DetCoefficients, abc_scale, det_decomposition, normalized_det
from tiltrotor.model import Params, TiltAngles, wrap_angle

TWO_PI = 2.0 * math.pi

# roots closer than this [rad] are reported once: the robust and rank-
# deficient families meet where delta -> pi and on the on-branch C = 0
# locus.  Distinct roots come within 1e-3 rad of each other (alpha1,
# alpha2 near multiples of pi/2 with delta near 0 or pi), so the radius
# stays far below that.
CLUSTER_RADIUS = 1e-6

# (alpha3, alpha4) = (alpha1, alpha2) + offset on each robust branch
BRANCH_OFFSETS = {"blue": 0.0, "red": math.pi}

# stations per edge of a rectangle gait's perimeter
STATIONS_PER_EDGE = 16


def residual_scale(params: Params) -> float:
    """Scale for A/B residual tolerances: ``k_f * (arm * k_f + k_m)**2``.

    A loose upper scale for the coefficients; the gradient of ``(A, B)``
    with respect to the completion is about 1e5 smaller.
    """
    return params.k_f * (params.arm_length * params.k_f + params.k_m) ** 2


def _branch_offset(branch) -> float:
    if not isinstance(branch, str) or branch not in BRANCH_OFFSETS:
        raise ValueError(f"branch color must be 'blue' or 'red', got {branch!r}")
    return BRANCH_OFFSETS[branch]


def _completion(alpha1, alpha2, branch: str):
    """``(alpha3, alpha4)`` of ``branch`` at ``(alpha1, alpha2)``, scalars or arrays.

    Both branch planes zero ``A`` and ``B`` identically, whatever the
    rotor constants; the red plane stays on the continuous sheet near
    ``pi`` rather than wrapping.
    """
    offset = _branch_offset(branch)
    return alpha1 + offset, alpha2 + offset


def _finite(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite, got {values!r}")
    return arr


@dataclass(frozen=True)
class ColorSolution:
    """One branch completion at a prescribed ``(alpha1, alpha2)``.

    ``alpha34`` is stored on the continuous branch sheet (the red branch
    keeps values near ``pi`` rather than wrapping), so gaits built from
    it interpolate without seams.  ``residual_sign`` is the sign of the
    remaining determinant coefficient ``C`` at the solution and
    ``residual`` is ``|A| + |B|`` there.
    """

    alpha12: np.ndarray
    alpha34: np.ndarray
    color: str
    residual_sign: float
    residual: float


def _solution(a1: float, a2: float, color: str, params: Params) -> ColorSolution:
    a3, a4 = _completion(a1, a2, color)
    coeffs = det_decomposition((a1, a2, a3, a4), params)
    return ColorSolution(
        alpha12=np.array([a1, a2]),
        alpha34=np.array([a3, a4]),
        color=color,
        residual_sign=1.0 if coeffs.C >= 0 else -1.0,
        residual=abs(coeffs.A) + abs(coeffs.B),
    )


def _delta(params: Params) -> float:
    """``delta = 2 atan2(k_m, arm k_f)``, the offset of the rank-deficient roots."""
    return 2.0 * math.atan2(params.k_m, params.arm_length * params.k_f)


def _on_branch_c(a1, a2, params: Params):
    """``C`` on either branch plane at ``(a1, a2)``, scalars or arrays.

    With ``u = delta / 2`` and ``rho = hypot(arm k_f, k_m)``::

        C = 4 k_f rho^3 cos(a1 - u) cos(a2 + u)
              (2 sin(u) cos(a1) cos(a2) - cos(u) sin(a1 - a2))

    on the blue and the red plane alike, so ``C = 0`` is the union of
    ``a1 = u + pi/2``, ``a2 = pi/2 - u`` (mod pi) and ``tan(a1) - tan(a2)
    = 2 tan(u)``.
    """
    lk = params.arm_length * params.k_f
    u = 0.5 * _delta(params)
    scale = 4.0 * params.k_f * math.hypot(lk, params.k_m) ** 3
    return (scale * np.cos(a1 - u) * np.cos(a2 + u)
            * (2.0 * math.sin(u) * np.cos(a1) * np.cos(a2) - math.cos(u) * np.sin(a1 - a2)))


def _angle_gap(p, q) -> float:
    """Distance between two angle pairs, each coordinate taken modulo 2 pi."""
    return math.hypot((p[0] - q[0] + math.pi) % TWO_PI - math.pi,
                      (p[1] - q[1] + math.pi) % TWO_PI - math.pi)


def scan_roots(alpha12, params: Params) -> list[dict]:
    """The full ``A = B = 0`` root set at ``alpha12``, in closed form.

    With ``delta = 2 atan2(k_m, arm k_f)`` the set is eight completions:
    the robust ``{alpha1, alpha1 + pi} x {alpha2, alpha2 + pi}`` and the
    rank-deficient ``(delta - alpha1, -delta - alpha2) + {0, pi}^2``.
    Each is wrapped to ``[-pi, pi)``, and roots closer than
    :data:`CLUSTER_RADIUS` are reported once.  Each root carries its
    ``C`` coefficient and a robustness flag (``C`` bounded away from
    zero), sorted by ``alpha34``.  Where the two families meet,
    ``alpha12 = (delta/2, -delta/2)`` modulo ``pi/2``, they merge into
    four roots, and ``A = B = 0`` holds on whole lines of completions
    through them as well.
    """
    a1, a2 = float(alpha12[0]), float(alpha12[1])
    delta = _delta(params)
    c_floor = 1e-4 * abc_scale(params)
    roots: list[dict] = []
    for b3, b4 in ((a1, a2), (delta - a1, -delta - a2)):
        for k3 in (0.0, math.pi):
            for k4 in (0.0, math.pi):
                w3, w4 = float(wrap_angle(b3 + k3)), float(wrap_angle(b4 + k4))
                if any(_angle_gap((w3, w4), r["alpha34"]) < CLUSTER_RADIUS for r in roots):
                    continue
                C = kernels.det_coeffs(a1, a2, w3, w4,
                                       params.k_f, params.k_m, params.arm_length)[2]
                roots.append({"alpha34": (w3, w4), "C": C, "robust": abs(C) >= c_floor})
    roots.sort(key=lambda r: (round(r["alpha34"][0], 6), round(r["alpha34"][1], 6)))
    return roots


def solve_color_pair(alpha12, params: Params) -> list[ColorSolution]:
    """The blue and red completions at ``alpha12``, in closed form.

    Returns ``[blue, red]``; ``alpha12`` must be finite.
    """
    a1, a2 = _finite((alpha12[0], alpha12[1]), "alpha1, alpha2").tolist()
    return [_solution(a1, a2, "blue", params), _solution(a1, a2, "red", params)]


# ---------------------------------------------------------------------------
# color map over a grid, with plane fits


@dataclass(frozen=True)
class PlaneFit:
    """Least-squares plane ``value = c0 + c1 * alpha1 + c2 * alpha2``."""

    coeffs: np.ndarray
    rms: float
    max_abs: float

    def evaluate(self, a1, a2):
        return self.coeffs[0] + self.coeffs[1] * np.asarray(a1) + self.coeffs[2] * np.asarray(a2)


@dataclass(frozen=True)
class ColorMapResult:
    branch: str
    alpha1_values: np.ndarray
    alpha2_values: np.ndarray
    alpha3: np.ndarray          # (n1, n2) continuous-sheet values
    alpha4: np.ndarray
    residual_sign: np.ndarray
    plane3: PlaneFit
    plane4: PlaneFit


def _fit_plane(a1g, a2g, values) -> PlaneFit:
    A = np.column_stack([np.ones(values.size), a1g.ravel(), a2g.ravel()])
    coeffs, *_ = np.linalg.lstsq(A, values.ravel(), rcond=None)
    resid = values.ravel() - A @ coeffs
    return PlaneFit(
        coeffs=coeffs,
        rms=float(np.sqrt(np.mean(resid**2))),
        max_abs=float(np.max(np.abs(resid))) if resid.size else 0.0,
    )


def color_map(alpha1_values, alpha2_values, branch: str, params: Params) -> ColorMapResult:
    """One branch over a rectangular grid, with plane fits.

    The completions are the closed-form branch plane at every cell (the
    fits confirm it to rounding); ``residual_sign`` is the sign of the
    closed-form on-branch ``C`` there.  Grid values must be finite.
    """
    a1v = _finite(alpha1_values, "alpha1 values")
    a2v = _finite(alpha2_values, "alpha2 values")
    a1g, a2g = np.meshgrid(a1v, a2v, indexing="ij")
    alpha3, alpha4 = _completion(a1g, a2g, branch)
    rsign = np.where(_on_branch_c(a1g, a2g, params) >= 0, 1.0, -1.0)
    return ColorMapResult(
        branch=branch,
        alpha1_values=a1v,
        alpha2_values=a2v,
        alpha3=alpha3,
        alpha4=alpha4,
        residual_sign=rsign,
        plane3=_fit_plane(a1g, a2g, alpha3),
        plane4=_fit_plane(a1g, a2g, alpha4),
    )


# ---------------------------------------------------------------------------
# gaits


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Gait:
    """Time-periodic tilting-angle schedule.

    ``waypoints`` holds strictly increasing time fractions from 0 to 1;
    ``alphas`` the matching four angle columns on the continuous branch
    sheet (first and last rows coincide).  Sampling is piecewise-linear
    in time and periodic with ``period_s``.
    """

    period_s: float
    color: str
    bias: float
    waypoints: np.ndarray      # (n,) time fractions
    alphas: np.ndarray         # (n, 4)

    def __post_init__(self):
        wp = np.asarray(self.waypoints, dtype=float)
        al = np.asarray(self.alphas, dtype=float)
        _branch_offset(self.color)
        if not (math.isfinite(self.period_s) and self.period_s > 0):
            raise ValueError(f"period must be positive and finite, got {self.period_s}")
        if not 0.0 < self.bias <= 1.0:
            raise ValueError(f"bias factor must lie in (0, 1], got {self.bias}")
        if wp.ndim != 1 or len(wp) < 2 or al.shape != (len(wp), 4):
            raise ValueError("need matching waypoint fractions and (n, 4) angles")
        if wp[0] != 0.0 or wp[-1] != 1.0 or not np.all(np.diff(wp) > 0):
            raise ValueError("time fractions must increase strictly from 0 to 1")
        if not np.all(np.isfinite(al)):
            raise ValueError("gait angles must be finite")
        if np.max(np.abs(al[0] - al[-1])) > 1e-6:
            raise ValueError("gait must close: first and last waypoints differ")
        # own read-only copies: the samplers read them on every call
        object.__setattr__(self, "waypoints", _frozen(wp.copy()))
        object.__setattr__(self, "alphas", _frozen(al.copy()))

    def sample_array(self, t) -> np.ndarray:
        """Continuous-sheet angles at the times ``t``: shape ``t.shape + (4,)``.

        The one implementation of the schedule's interpolation: phase
        ``u = (t / period) % 1``, segment ``k`` with ``fr[k] <= u <
        fr[k + 1]``, then ``a[k] + s (a[k + 1] - a[k])`` with ``s`` the
        position of ``u`` within the segment.  Each element is the same
        IEEE arithmetic on the same operands as a scalar evaluation, so a
        block of times samples exactly as the times one by one.
        """
        fr, al = self.waypoints, self.alphas
        u = (np.asarray(t, dtype=float) / self.period_s) % 1.0
        # searching only the segment starts puts u = 1.0, which rounding
        # can give, in the last segment
        k = fr[:-1].searchsorted(u, "right") - 1
        f0 = fr[k]
        s = (u - f0) / (fr[k + 1] - f0)
        a0 = al[k]
        return a0 + s[..., None] * (al[k + 1] - a0)

    def sampler(self) -> Callable[[float], tuple]:
        """Periodic piecewise-linear sampler returning 4-tuples of floats."""
        sample_array = self.sample_array

        def sample(t: float) -> tuple:
            return tuple(sample_array(t).tolist())

        return sample

    def sample_raw(self, t: float) -> np.ndarray:
        """Continuous-sheet angles at time ``t`` (no wrapping)."""
        return self.sample_array(float(t))

    def to_csv(self, path, n_samples: int = 200) -> None:
        """Write one period resampled at ``n_samples`` rows plus a JSON sidecar."""
        fracs = np.linspace(0.0, 1.0, n_samples)
        rows = self.sample_array(fracs * self.period_s)
        rows[fracs >= 1.0] = self.alphas[-1]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t_frac", "alpha1", "alpha2", "alpha3", "alpha4"])
            for u, a in zip(fracs.tolist(), rows.tolist()):
                writer.writerow([f"{u:.17g}"] + [f"{v:.17g}" for v in a])
        with open(_sidecar(path), "w", encoding="utf-8") as fh:
            json.dump({"period_s": self.period_s, "color": self.color, "bias": self.bias}, fh)
            fh.write("\n")


def _sidecar(path) -> str:
    """The JSON sidecar of a gait CSV: its path with the extension, if any, replaced by ``.json``."""
    return os.path.splitext(os.fspath(path))[0] + ".json"


def load_gait(path) -> Gait:
    """Read a gait CSV (with its JSON sidecar) back into a :class:`Gait`."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["t_frac", "alpha1", "alpha2", "alpha3", "alpha4"]:
            raise ValueError(f"malformed gait file {path}: bad header {header}")
        for row in reader:
            if len(row) != 5:
                raise ValueError(f"malformed gait file {path}: bad row {row}")
            rows.append([float(v) for v in row])
    if len(rows) < 2:
        raise ValueError(f"malformed gait file {path}: need at least two rows")
    m = np.asarray(rows)
    with open(_sidecar(path), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    return Gait(
        period_s=float(meta["period_s"]),
        color=str(meta.get("color", "blue")),
        bias=float(meta.get("bias", 1.0)),
        waypoints=m[:, 0],
        alphas=m[:, 1:5],
    )


def make_rectangle_gait(
    center,
    half_extents,
    period: float,
    branch: str,
    params: Params,
) -> Gait:
    """Rectangle gait: ``(alpha1, alpha2)`` traverses the perimeter CCW.

    The traversal starts at the lower-left corner and runs at constant
    speed through :data:`STATIONS_PER_EDGE` stations per edge;
    ``(alpha3, alpha4)`` sit on the requested branch plane at every
    station, so the gait is exactly on-branch and closes exactly.  The
    planes do not depend on ``params``.  Centre and half extents must be
    finite, the half extents both positive or both zero (a fixed point).
    """
    cx, cy, hx, hy = _finite(
        (center[0], center[1], half_extents[0], half_extents[1]), "center and half extents"
    ).tolist()
    if hx < 0 or hy < 0:
        raise ValueError("half extents must be non-negative")
    if (hx == 0.0) != (hy == 0.0):
        raise ValueError(
            f"half extents ({hx}, {hy}): one is zero, so two edges have zero length; "
            "give both positive, or both zero for a fixed point"
        )

    if hx == 0.0 and hy == 0.0:
        pts = np.array([[cx, cy], [cx, cy]])
        fracs = np.array([0.0, 1.0])
    else:
        corners = [
            (cx - hx, cy - hy), (cx + hx, cy - hy),
            (cx + hx, cy + hy), (cx - hx, cy + hy),
        ]
        pts = []
        for k in range(4):
            x0, y0 = corners[k]
            x1, y1 = corners[(k + 1) % 4]
            for s in range(STATIONS_PER_EDGE):
                f = s / STATIONS_PER_EDGE
                pts.append((x0 + f * (x1 - x0), y0 + f * (y1 - y0)))
        pts.append(corners[0])
        pts = np.asarray(pts)

        seglen = np.sqrt(np.sum(np.diff(pts, axis=0) ** 2, axis=1))
        cum = np.concatenate([[0.0], np.cumsum(seglen)])
        fracs = cum / cum[-1]

    a3, a4 = _completion(pts[:, 0], pts[:, 1], branch)
    alphas = np.column_stack([pts[:, 0], pts[:, 1], a3, a4])
    return Gait(period_s=period, color=branch, bias=1.0, waypoints=fracs, alphas=alphas)


def bias_gait(gait: Gait, factor: float) -> Gait:
    """Scale the lifted ``alpha3, alpha4`` columns by ``factor`` in (0, 1].

    The prescribed ``alpha1, alpha2`` schedule is unchanged; factor 1
    returns an identical gait.
    """
    if not 0.0 < factor <= 1.0:
        raise ValueError(f"bias factor must lie in (0, 1], got {factor}")
    alphas = gait.alphas.copy()
    alphas[:, 2] *= factor
    alphas[:, 3] *= factor
    return replace(gait, bias=gait.bias * factor, alphas=alphas)


def sample_gait(gait: Gait, t: float) -> TiltAngles:
    """Piecewise-linear periodic sample of the gait at ``t >= 0``."""
    if t < 0:
        raise ValueError("t must be non-negative")
    return TiltAngles(gait.sample_raw(t))


# ---------------------------------------------------------------------------
# singular-attitude curves and robustness metrics


@dataclass(frozen=True)
class AttitudeGrid:
    """Rectangular (phi, theta) evaluation grid."""

    phi_min: float = -1.3
    phi_max: float = 1.3
    theta_min: float = -1.3
    theta_max: float = 1.3
    n_phi: int = 241
    n_theta: int = 241

    def __post_init__(self):
        bounds = (self.phi_min, self.phi_max, self.theta_min, self.theta_max)
        if not all(math.isfinite(v) for v in bounds):
            raise ValueError(f"grid bounds must be finite, got {bounds}")
        for n in (self.n_phi, self.n_theta):
            if isinstance(n, bool) or not isinstance(n, numbers.Integral):
                raise TypeError(f"sample counts must be integers, got {n!r}")
        if self.phi_min >= self.phi_max or self.theta_min >= self.theta_max:
            raise ValueError("grid bounds must be increasing")
        if self.n_phi < 2 or self.n_theta < 2:
            raise ValueError("need at least 2 samples per axis")

    @classmethod
    def symmetric(cls, limit: float, n: int = 241) -> "AttitudeGrid":
        return cls(-limit, limit, -limit, limit, n, n)

    # cached in the instance ``__dict__`` (read-only, so shared safely)
    @cached_property
    def phis(self) -> np.ndarray:
        return _frozen(np.linspace(self.phi_min, self.phi_max, self.n_phi))

    @cached_property
    def thetas(self) -> np.ndarray:
        return _frozen(np.linspace(self.theta_min, self.theta_max, self.n_theta))

    @property
    def diagonal(self) -> float:
        return math.hypot(self.phi_max - self.phi_min, self.theta_max - self.theta_min)


@dataclass(frozen=True)
class SingularCurveSet:
    """Polylines of singular attitudes extracted on a grid."""

    curves: list
    grid: AttitudeGrid
    eps_curve: float

    def vertices(self) -> np.ndarray:
        if not self.curves:
            return np.empty((0, 2))
        return np.vstack(self.curves)


_SEGMENTS = {
    1: (("l", "b"),), 2: (("b", "r"),), 3: (("l", "r"),), 4: (("t", "r"),),
    6: (("b", "t"),), 7: (("l", "t"),), 8: (("l", "t"),), 9: (("b", "t"),),
    11: (("t", "r"),), 12: (("l", "r"),), 13: (("b", "r"),), 14: (("l", "b"),),
}
# saddle cases: (pairs if the cell centre is positive, pairs otherwise)
_SADDLES = {
    5: ((("b", "r"), ("l", "t")), (("l", "b"), ("t", "r"))),
    10: ((("l", "b"), ("t", "r")), (("b", "r"), ("l", "t"))),
}


def _curve_eps(coeffs: DetCoefficients) -> float:
    scale = max(abs(coeffs.A), abs(coeffs.B), abs(coeffs.C))
    return 1e-10 * scale if scale > 0.0 else 1e-300


def _sign_grid(coeffs: DetCoefficients, grid: AttitudeGrid) -> np.ndarray:
    """``g > 0`` at every grid node."""
    return normalized_det(grid.phis[:, None], grid.thetas[None, :], coeffs) > 0.0


def _changed_cells(S: np.ndarray) -> np.ndarray:
    """Cells whose four corners do not all share one sign."""
    c00 = S[:-1, :-1]
    return (S[1:, :-1] != c00) | (S[:-1, 1:] != c00) | (S[1:, 1:] != c00)


def _nearest_root(lo, hi, roots, period):
    """The root ``r + k * period`` (``r`` from ``roots``) nearest each edge middle.

    Clipped into ``[lo, hi]``, which only rounding can leave.  An edge
    whose ends differ in sign holds a root, and every candidate within
    half an edge of its middle lies on it, so the nearest candidate is
    a root on the edge.
    """
    mid = 0.5 * (lo + hi)
    best = np.full_like(mid, np.inf)
    for r in roots:
        cand = r + period * np.round((mid - r) / period)
        best = np.where(np.abs(cand - mid) < np.abs(best - mid), cand, best)
    return np.clip(best, lo, hi)


def _edge_zeros(coeffs: DetCoefficients, grid: AttitudeGrid, S: np.ndarray):
    """Exact zero of ``g`` on every crossing grid edge.

    Returns ``(p_edges, t_edges, phi, theta)``: the ``(i, j)`` index
    arrays of the crossing edges along phi (node ``(i, j)`` to
    ``(i + 1, j)``) and along theta (to ``(i, j + 1)``), both row-major,
    and the vertex coordinates, phi edges first.

    Along phi, at fixed ``theta``, ``g = 0`` reads ``cos(theta) R
    sin(phi + psi) = A sin(theta)`` with ``R = hypot(B, C)`` and ``psi =
    atan2(C, B)``; along theta, at fixed ``phi``, ``g = -A sin(theta) + K
    cos(theta)`` with ``K = B sin(phi) + C cos(phi)`` vanishes at
    ``theta = atan2(K, A) + k pi``.  ``R > 0`` on every crossing phi
    edge: with ``B = C = 0``, ``g`` is the same at both of its ends.
    """
    A, B, C = coeffs.A, coeffs.B, coeffs.C
    phis, thetas = grid.phis, grid.thetas
    pi, pj = np.nonzero(S[:-1, :] != S[1:, :])
    ti, tj = np.nonzero(S[:, :-1] != S[:, 1:])

    theta_p = thetas[pj]
    psi = math.atan2(C, B)
    u = np.arcsin(np.clip(A * np.sin(theta_p) / (math.hypot(B, C) * np.cos(theta_p)),
                          -1.0, 1.0))
    phi_p = _nearest_root(phis[pi], phis[pi + 1], (u - psi, math.pi - u - psi), TWO_PI)

    phi_t = phis[ti]
    K = B * np.sin(phi_t) + C * np.cos(phi_t)
    theta_t = _nearest_root(thetas[tj], thetas[tj + 1], (np.arctan2(K, A),), math.pi)
    return (pi, pj), (ti, tj), np.concatenate([phi_p, phi_t]), np.concatenate([theta_p, theta_t])


def singular_curves(alpha, grid: AttitudeGrid, params: Params) -> SingularCurveSet:
    """Zero curves of the normalized determinant at the tilt ``alpha``.

    See :func:`extract_zero_curves`; an empty set is a valid result.
    """
    return extract_zero_curves(det_decomposition(alpha, params), grid)


def extract_zero_curves(coeffs: DetCoefficients, grid: AttitudeGrid) -> SingularCurveSet:
    """Marching-squares zero curves of the normalized determinant.

    Each vertex is the closed-form zero of ``g`` on its crossing grid
    edge, so ``|g|`` there is rounding error, well below ``eps_curve =
    1e-10 * max(|A|, |B|, |C|)``.  Adjacent cells share vertices, so the
    segments stitch into polylines exactly.
    """
    S = _sign_grid(coeffs, grid)
    return _stitch_curves(coeffs, grid, S, _changed_cells(S), _edge_zeros(coeffs, grid, S))


def _stitch_curves(coeffs, grid, S, changed, zeros) -> SingularCurveSet:
    """The curves of :func:`extract_zero_curves` from its sign grid and edge zeros."""
    phis, thetas = grid.phis, grid.thetas
    (pi, pj), (ti, tj), vphi, vtheta = zeros
    # refined vertex per crossing grid edge, keyed by (axis, i, j)
    keys = [("p", i, j) for i, j in zip(pi.tolist(), pj.tolist())]
    keys += [("t", i, j) for i, j in zip(ti.tolist(), tj.tolist())]
    verts = dict(zip(keys, zip(vphi.tolist(), vtheta.tolist())))

    ci, cj = np.nonzero(changed)
    cases = S[ci, cj] + 2 * S[ci + 1, cj] + 4 * S[ci + 1, cj + 1] + 8 * S[ci, cj + 1]
    centre_pos = np.zeros(len(cases), dtype=bool)
    saddle = (cases == 5) | (cases == 10)
    if saddle.any():
        si, sj = ci[saddle], cj[saddle]
        centre = normalized_det(0.5 * (phis[si] + phis[si + 1]),
                                0.5 * (thetas[sj] + thetas[sj + 1]), coeffs)
        centre_pos[saddle] = centre > 0.0

    segments = []
    for i, j, case, pos in zip(ci.tolist(), cj.tolist(), cases.tolist(), centre_pos.tolist()):
        edge_keys = {
            "b": ("p", i, j),
            "t": ("p", i, j + 1),
            "l": ("t", i, j),
            "r": ("t", i + 1, j),
        }
        pairs = _SADDLES[case][0 if pos else 1] if case in _SADDLES else _SEGMENTS[case]
        for ea, eb in pairs:
            segments.append((edge_keys[ea], edge_keys[eb]))

    # stitch segments into polylines (every vertex has degree <= 2)
    adjacency: dict = {}
    for ka, kb in segments:
        adjacency.setdefault(ka, []).append(kb)
        adjacency.setdefault(kb, []).append(ka)

    visited = set()
    curves = []

    def walk(start):
        chain = [start]
        visited.add(start)
        prev = None
        node = start
        while True:
            nxt = [k for k in adjacency[node] if k != prev and k not in visited]
            if not nxt:
                # allow closing back to the start of a cycle
                if prev is not None and start in adjacency[node] and len(chain) > 2:
                    chain.append(start)
                break
            prev, node = node, nxt[0]
            visited.add(node)
            chain.append(node)
        return chain

    endpoints = sorted(k for k, nb in adjacency.items() if len(nb) == 1)
    for key in endpoints:
        if key not in visited:
            curves.append(walk(key))
    for key in sorted(adjacency):
        if key not in visited:
            curves.append(walk(key))

    polylines = [np.array([verts[k] for k in chain]) for chain in curves]
    return SingularCurveSet(curves=polylines, grid=grid, eps_curve=_curve_eps(coeffs))


@dataclass(frozen=True)
class RobustnessReport:
    """Attitude-robustness metrics of a gait.

    ``area_fraction``: fraction of grid cells without a sign change of
    the normalized determinant, minimized over the sampled gait phases.
    ``hover_margin``: distance from level attitude to the nearest
    singular point [rad], minimized over phases; equals the grid
    diagonal when no singular point exists anywhere.
    """

    area_fraction: float
    hover_margin: float
    n_phases: int
    singular_phases: int


def _phase_scans(gait: Gait, grid: AttitudeGrid, n_phases: int, params: Params,
                 curves: bool) -> list:
    """:func:`_phase_scan` of the gait at ``n_phases`` evenly spaced phases."""
    if n_phases < 1:
        raise ValueError(f"n_phases must be >= 1, got {n_phases}")
    times = np.arange(n_phases) * gait.period_s / n_phases
    return [_phase_scan(det_decomposition(tuple(alpha), params), grid, curves)
            for alpha in gait.sample_array(times).tolist()]


def _phase_scan(coeffs: DetCoefficients, grid: AttitudeGrid, curves: bool):
    """``(area fraction, hover margin or None, curve set or None)`` of one phase."""
    S = _sign_grid(coeffs, grid)
    changed = _changed_cells(S)
    frac = 1.0 - float(changed.sum()) / changed.size
    if not changed.any():
        empty = SingularCurveSet(curves=[], grid=grid, eps_curve=_curve_eps(coeffs))
        return frac, None, empty if curves else None
    # every crossing edge's vertex lies on a curve, so the nearest
    # singular point needs the refined vertices but no stitching
    zeros = _edge_zeros(coeffs, grid, S)
    margin = float(np.min(np.hypot(zeros[2], zeros[3])))
    return frac, margin, _stitch_curves(coeffs, grid, S, changed, zeros) if curves else None


def _report(scans, grid: AttitudeGrid) -> RobustnessReport:
    area = min(frac for frac, _, _ in scans)
    margins = [m for _, m, _ in scans if m is not None]
    return RobustnessReport(
        area_fraction=area,
        hover_margin=min(margins) if margins else grid.diagonal,
        n_phases=len(scans),
        singular_phases=len(margins),
    )


def robustness_report(
    gait: Gait, grid: AttitudeGrid, n_phases: int, params: Params,
) -> RobustnessReport:
    """Evaluate the singular set at evenly spaced gait phases."""
    return _report(_phase_scans(gait, grid, n_phases, params, curves=False), grid)


def curves_and_report(
    gait: Gait, grid: AttitudeGrid, n_phases: int, params: Params,
) -> tuple[list[SingularCurveSet], RobustnessReport]:
    """The singular curves of each phase and the :func:`robustness_report`, in one pass.

    Each phase's determinant decomposition, sign grid and edge zeros
    feed both its curves and its metrics.
    """
    scans = _phase_scans(gait, grid, n_phases, params, curves=True)
    return [cs for _, _, cs in scans], _report(scans, grid)


# ---------------------------------------------------------------------------
# preset catalog

GAIT_PRESETS = {
    # The on-branch C = 0 locus, with u = atan2(k_m, arm k_f), is
    # alpha1 = u + pi/2 (mod pi), alpha2 = pi/2 - u (mod pi) and
    # tan(alpha1) - tan(alpha2) = 2 tan(u).  Margins below are the least
    # |C| / (4 k_f rho^3), rho = hypot(arm k_f, k_m), over the waypoints
    # at the default Params.
    # blue rectangle clear of the locus (margin 0.265, C keeps its sign)
    # so tracking stays well-conditioned, yet close enough that its
    # 0.8-biased variant develops singular attitude curves
    "gait1": {"center": (-0.25, 0.85), "half_extents": (0.30, 0.30), "branch": "blue"},
    # red rectangles crossing the locus (margins 0.0039 and 0.0002, C
    # changes sign twice per period): they lose control authority at two
    # gait phases per period and fail in closed loop under input
    # saturation
    "gait2": {"center": (0.0, 0.0), "half_extents": (0.30, 0.30), "branch": "red"},
    "gait3": {"center": (0.4, 0.4), "half_extents": (0.20, 0.20), "branch": "red"},
}

DEFAULT_GAIT_PERIOD = 10.0


def build_preset(name: str, params: Params, period: float = DEFAULT_GAIT_PERIOD) -> Gait:
    """Construct one of the named preset gaits."""
    try:
        entry = GAIT_PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown gait preset {name!r}") from None
    return make_rectangle_gait(
        entry["center"], entry["half_extents"], period, entry["branch"], params
    )
