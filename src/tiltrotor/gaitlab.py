"""Robust gait planning on the two-branch tilt-angle map.

For a prescribed pair ``(alpha1, alpha2)`` there are, generically, two
useful completions ``(alpha3, alpha4)`` that zero both tilt coefficients
``A`` and ``B`` of the determinant decomposition.  On such a completion
the decoupling matrix stays invertible at every attitude with ``|phi|,
|theta| < pi/2``: its determinant reduces to ``cos(phi) cos(theta) C``
up to a state-independent factor.  The two completions form continuous
sheets over the ``(alpha1, alpha2)`` plane:

* the **blue** branch passes through ``(0, 0)`` at the origin,
* the **red** branch passes through ``(pi, pi)``.

Both are planes (the fits in :func:`color_map` confirm this to machine
precision), which keeps rectangle gaits exactly on-branch under linear
interpolation.

The raw root set of ``A = B = 0`` is larger: it also contains rank-
deficient completions with ``A = B = C = 0`` (singular at *every*
attitude) and a second robust pair of opposite residual parity.  The
solver tracks the blue/red pair by continuation from the origin anchors
and can cross-check against a multi-start scan (``verify=True``).
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from tiltrotor._core import kernels
from tiltrotor.errors import ContinuationBreak, Degenerate, NoRoot
from tiltrotor.linearization import DetCoefficients, abc_scale, det_decomposition, normalized_det
from tiltrotor.model import Params, TiltAngles, wrap_angle

TWO_PI = 2.0 * math.pi

# |A| + |B| convergence target and acceptance bound, in units of
# k_f * (arm * k_f + k_m)^2 (loose upper scale for the coefficients).
# The gradient of (A, B) w.r.t. the completion is ~1e5 smaller than that
# scale, so the convergence target must sit far below the acceptance
# bound to pin roots to ~1e-9 rad (gait closure needs 1e-6).
RES_SCALE_EXP = 2
AB_TOL_FACTOR = 1e-14
AB_BOUND_FACTOR = 1e-8

CONTINUATION_STEP = 0.2     # max anchor-path step [rad]
CONTINUATION_JUMP = 0.5     # branch-tracking jump guard [rad]
CLUSTER_RADIUS = 1e-3       # multi-start root clustering radius [rad]
NEWTON_MAX_ITER = 60

BLUE_ANCHOR = (0.0, 0.0)
RED_ANCHOR = (math.pi, math.pi)


def residual_scale(params: Params) -> float:
    """Scale for A/B residual tolerances."""
    return params.k_f * (params.arm_length * params.k_f + params.k_m) ** RES_SCALE_EXP


@dataclass(frozen=True)
class ColorSolution:
    """One branch completion at a prescribed ``(alpha1, alpha2)``.

    ``alpha34`` is stored on the continuous branch sheet (the red branch
    keeps values near ``pi`` rather than wrapping), so gaits built from
    it interpolate without seams.  ``residual_sign`` is the sign of the
    remaining determinant coefficient ``C`` at the solution.
    """

    alpha12: np.ndarray
    alpha34: np.ndarray
    color: str
    residual_sign: float
    residual: float

    def tilt_angles(self) -> TiltAngles:
        return TiltAngles(np.concatenate([self.alpha12, self.alpha34]))


def _newton(a1, a2, seed34, params: Params, tol):
    return kernels.newton_ab(
        a1, a2, seed34[0], seed34[1],
        params.k_f, params.k_m, params.arm_length,
        tol, NEWTON_MAX_ITER,
    )


def _track_branch(alpha12, anchor, params: Params, tol) -> tuple:
    """Follow one branch from its origin anchor to ``alpha12``.

    Straight-line continuation in the (alpha1, alpha2) plane with a
    linear predictor and Newton polishing at each step.  The prediction
    matters: the robust sheets intersect the rank-deficient root family
    at isolated points, and a nearest-seed corrector can hop families
    there, while extrapolation along the (planar) sheet stays on-branch.
    Returns the continuous-sheet ``(a3, a4, residual)``.
    """
    a1t, a2t = float(alpha12[0]), float(alpha12[1])
    dist = math.hypot(a1t, a2t)
    if dist == 0.0:
        n3, n4, res, ok = _newton(a1t, a2t, anchor, params, tol)
        if not ok:
            raise NoRoot("branch polish failed at the anchor", res)
        return n3, n4, res

    n_steps = max(1, math.ceil(dist / CONTINUATION_STEP))
    fracs = [k / n_steps for k in range(1, n_steps + 1)]
    # short bootstrap step so the predictor has two on-sheet points
    # before the path can approach a sheet collision
    boot = 0.05 / dist
    if boot < fracs[0]:
        fracs.insert(0, boot)

    prev_f, prev = 0.0, anchor
    prev2_f, prev2 = None, None
    res = math.inf
    for f in fracs:
        if prev2 is None:
            seed = prev
        else:
            scale = (f - prev_f) / (prev_f - prev2_f)
            seed = (
                prev[0] + scale * (prev[0] - prev2[0]),
                prev[1] + scale * (prev[1] - prev2[1]),
            )
        a1, a2 = a1t * f, a2t * f
        n3, n4, res, ok = _newton(a1, a2, seed, params, tol)
        if not ok:
            raise NoRoot(
                f"branch tracking failed at (alpha1, alpha2)=({a1:.4f}, {a2:.4f})", res
            )
        jump = math.hypot(n3 - seed[0], n4 - seed[1])
        if jump > CONTINUATION_JUMP:
            raise ContinuationBreak((a1, a2), jump)
        prev2_f, prev2 = prev_f, prev
        prev_f, prev = f, (n3, n4)
    return prev[0], prev[1], res


def _solution(alpha12, a3, a4, res, color, params: Params) -> ColorSolution:
    coeffs = det_decomposition((alpha12[0], alpha12[1], a3, a4), params)
    return ColorSolution(
        alpha12=np.array([float(alpha12[0]), float(alpha12[1])]),
        alpha34=np.array([a3, a4]),
        color=color,
        residual_sign=1.0 if coeffs.C >= 0 else -1.0,
        residual=res,
    )


def scan_roots(alpha12, params: Params, seeds: int = 12) -> list[dict]:
    """Multi-start Newton scan of the full ``A = B = 0`` root set.

    Seeds a ``seeds x seeds`` grid over ``[-pi, pi)^2``, clusters the
    converged roots modulo 2 pi, and reports each cluster with its ``C``
    coefficient and a robustness flag (``C`` bounded away from zero).
    """
    a1, a2 = float(alpha12[0]), float(alpha12[1])
    tol = AB_TOL_FACTOR * residual_scale(params)
    c_floor = 1e-4 * abc_scale(params)
    grid = np.linspace(-math.pi, math.pi, seeds, endpoint=False)
    clusters: list[dict] = []
    for s3 in grid:
        for s4 in grid:
            n3, n4, res, ok = _newton(a1, a2, (s3, s4), params, tol)
            if not ok:
                continue
            w3, w4 = wrap_angle(n3), wrap_angle(n4)
            for cl in clusters:
                d3 = (w3 - cl["alpha34"][0] + math.pi) % TWO_PI - math.pi
                d4 = (w4 - cl["alpha34"][1] + math.pi) % TWO_PI - math.pi
                if math.hypot(d3, d4) < CLUSTER_RADIUS:
                    cl["hits"] += 1
                    if res < cl["residual"]:
                        cl["alpha34"] = (w3, w4)
                        cl["residual"] = res
                    break
            else:
                clusters.append({"alpha34": (w3, w4), "residual": res, "hits": 1})
    for cl in clusters:
        coeffs = det_decomposition((a1, a2, cl["alpha34"][0], cl["alpha34"][1]), params)
        cl["C"] = coeffs.C
        cl["robust"] = abs(coeffs.C) >= c_floor
    clusters.sort(key=lambda cl: (round(cl["alpha34"][0], 6), round(cl["alpha34"][1], 6)))
    return clusters


def solve_color_pair(alpha12, params: Params, verify: bool = False) -> list[ColorSolution]:
    """Solve the blue and red completions at ``alpha12``.

    Returns ``[blue, red]``.  With ``verify=True`` a multi-start scan
    cross-checks the pair against the clustered root set and raises
    :class:`Degenerate` when either branch cannot be matched to a unique
    cluster (branch sheets colliding).
    """
    tol = AB_TOL_FACTOR * residual_scale(params)
    b3, b4, bres = _track_branch(alpha12, BLUE_ANCHOR, params, tol)
    r3, r4, rres = _track_branch(alpha12, RED_ANCHOR, params, tol)
    blue = _solution(alpha12, b3, b4, bres, "blue", params)
    red = _solution(alpha12, r3, r4, rres, "red", params)

    if verify:
        clusters = scan_roots(alpha12, params)

        def match(sol):
            w = wrap_angle(sol.alpha34)
            found = []
            for idx, cl in enumerate(clusters):
                d3 = (w[0] - cl["alpha34"][0] + math.pi) % TWO_PI - math.pi
                d4 = (w[1] - cl["alpha34"][1] + math.pi) % TWO_PI - math.pi
                if math.hypot(d3, d4) < 10 * CLUSTER_RADIUS:
                    found.append(idx)
            return found

        mb, mr = match(blue), match(red)
        if len(mb) != 1 or len(mr) != 1 or mb[0] == mr[0]:
            raise Degenerate(
                f"branch pair at ({alpha12[0]:.4f}, {alpha12[1]:.4f}) is ambiguous",
                [cl["alpha34"] for cl in clusters],
            )
    return [blue, red]


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
    """Solve one branch over a rectangular grid by cell-to-cell continuation.

    The scan runs row-major with serpentine ordering so every cell is
    seeded from an adjacent solved cell; a jump beyond 0.5 rad between
    neighbors raises :class:`ContinuationBreak`.
    """
    if branch not in ("blue", "red"):
        raise ValueError(f"branch must be 'blue' or 'red', got {branch!r}")
    a1v = np.asarray(alpha1_values, dtype=float)
    a2v = np.asarray(alpha2_values, dtype=float)
    n1, n2 = len(a1v), len(a2v)
    tol = AB_TOL_FACTOR * residual_scale(params)

    alpha3 = np.empty((n1, n2))
    alpha4 = np.empty((n1, n2))
    rsign = np.empty((n1, n2))

    pair = solve_color_pair((a1v[0], a2v[0]), params)
    root = pair[0 if branch == "blue" else 1].alpha34

    # serpentine scan seeded by linear extrapolation from solved
    # neighbors: on the (planar) branch sheets the prediction is exact,
    # which keeps the corrector on-branch across sheet collisions
    for i in range(n1):
        cols = list(range(n2)) if i % 2 == 0 else list(range(n2 - 1, -1, -1))
        for step, j in enumerate(cols):
            a1, a2 = a1v[i], a2v[j]
            if i == 0 and step == 0:
                seed = (float(root[0]), float(root[1]))
            elif step >= 2:
                jp, jp2 = cols[step - 1], cols[step - 2]
                seed = (2 * alpha3[i, jp] - alpha3[i, jp2], 2 * alpha4[i, jp] - alpha4[i, jp2])
            elif step == 1:
                jp = cols[0]
                seed = (alpha3[i, jp], alpha4[i, jp])
            elif i >= 2:
                seed = (2 * alpha3[i - 1, j] - alpha3[i - 2, j],
                        2 * alpha4[i - 1, j] - alpha4[i - 2, j])
            else:
                seed = (alpha3[i - 1, j], alpha4[i - 1, j])
            n3, n4, res, ok = _newton(a1, a2, seed, params, tol)
            if not ok:
                raise NoRoot(f"color map stalled at ({a1:.4f}, {a2:.4f})", res)
            jump = math.hypot(n3 - seed[0], n4 - seed[1])
            if jump > CONTINUATION_JUMP:
                raise ContinuationBreak((a1, a2), jump)
            alpha3[i, j] = n3
            alpha4[i, j] = n4
            coeffs = det_decomposition((a1, a2, n3, n4), params)
            rsign[i, j] = 1.0 if coeffs.C >= 0 else -1.0

    a1g, a2g = np.meshgrid(a1v, a2v, indexing="ij")
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
        if self.period_s <= 0:
            raise ValueError("period must be positive")
        if not 0.0 < self.bias <= 1.0:
            raise ValueError(f"bias factor must lie in (0, 1], got {self.bias}")
        if wp.ndim != 1 or len(wp) < 2 or al.shape != (len(wp), 4):
            raise ValueError("need matching waypoint fractions and (n, 4) angles")
        if wp[0] != 0.0 or wp[-1] != 1.0 or np.any(np.diff(wp) <= 0):
            raise ValueError("time fractions must increase strictly from 0 to 1")
        if np.max(np.abs(al[0] - al[-1])) > 1e-6:
            raise ValueError("gait must close: first and last waypoints differ")
        # own read-only copies, so the knot lists below cannot go stale
        object.__setattr__(self, "waypoints", _frozen(wp.copy()))
        object.__setattr__(self, "alphas", _frozen(al.copy()))
        # plain-float knot lists for the samplers, built once; not a field,
        # so equality is unaffected, and plain lists keep the gait picklable
        object.__setattr__(self, "_knots", (wp.tolist(), *al.T.tolist()))

    def sampler(self) -> Callable[[float], tuple]:
        """Fast periodic piecewise-linear sampler returning 4-tuples."""
        fr, a1, a2, a3, a4 = self._knots
        period = self.period_s
        last = len(fr) - 2

        def sample(t: float) -> tuple:
            u = (t / period) % 1.0
            k = bisect_right(fr, u) - 1
            if k > last:
                k = last
            s = (u - fr[k]) / (fr[k + 1] - fr[k])
            return (
                a1[k] + s * (a1[k + 1] - a1[k]),
                a2[k] + s * (a2[k + 1] - a2[k]),
                a3[k] + s * (a3[k + 1] - a3[k]),
                a4[k] + s * (a4[k + 1] - a4[k]),
            )

        return sample

    def sample_raw(self, t: float) -> np.ndarray:
        """Continuous-sheet angles at time ``t`` (no wrapping)."""
        return np.array(self.sampler()(float(t)))

    def to_csv(self, path, n_samples: int = 200) -> None:
        """Write one period resampled at ``n_samples`` rows plus a JSON sidecar."""
        sample = self.sampler()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t_frac", "alpha1", "alpha2", "alpha3", "alpha4"])
            for u in np.linspace(0.0, 1.0, n_samples):
                a = sample(u * self.period_s) if u < 1.0 else tuple(self.alphas[-1])
                writer.writerow([f"{u:.17g}"] + [f"{v:.17g}" for v in a])
        sidecar = str(path)
        sidecar = sidecar[: sidecar.rfind(".")] + ".json" if "." in sidecar else sidecar + ".json"
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump({"period_s": self.period_s, "color": self.color, "bias": self.bias}, fh)
            fh.write("\n")


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
    sidecar = str(path)
    sidecar = sidecar[: sidecar.rfind(".")] + ".json" if "." in sidecar else sidecar + ".json"
    with open(sidecar, "r", encoding="utf-8") as fh:
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
    stations_per_edge: int = 16,
) -> Gait:
    """Rectangle gait: ``(alpha1, alpha2)`` traverses the perimeter CCW.

    The traversal starts at the lower-left corner and runs at constant
    speed; ``(alpha3, alpha4)`` are lifted onto the requested branch by
    continuation along the perimeter.  The lifted path must close within
    1e-6 rad, otherwise :class:`ContinuationBreak` is raised.
    """
    cx, cy = float(center[0]), float(center[1])
    hx, hy = float(half_extents[0]), float(half_extents[1])
    if hx < 0 or hy < 0:
        raise ValueError("half extents must be non-negative")
    tol = AB_TOL_FACTOR * residual_scale(params)

    if hx == 0.0 and hy == 0.0:
        pair = solve_color_pair((cx, cy), params)
        sol = pair[0 if branch == "blue" else 1]
        alphas = np.array([
            [cx, cy, sol.alpha34[0], sol.alpha34[1]],
            [cx, cy, sol.alpha34[0], sol.alpha34[1]],
        ])
        return Gait(period_s=period, color=branch, bias=1.0,
                    waypoints=np.array([0.0, 1.0]), alphas=alphas)

    corners = [
        (cx - hx, cy - hy), (cx + hx, cy - hy),
        (cx + hx, cy + hy), (cx - hx, cy + hy),
    ]
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
    fracs = cum / cum[-1]

    pair = solve_color_pair((pts[0, 0], pts[0, 1]), params)
    first = pair[0 if branch == "blue" else 1].alpha34
    lift = [(float(first[0]), float(first[1]))]
    for k, (a1, a2) in enumerate(pts[1:-1], start=1):
        if k >= 2:
            seed = (2 * lift[-1][0] - lift[-2][0], 2 * lift[-1][1] - lift[-2][1])
        else:
            seed = lift[-1]
        n3, n4, res, ok = _newton(a1, a2, seed, params, tol)
        if not ok:
            raise NoRoot(f"gait lift stalled at ({a1:.4f}, {a2:.4f})", res)
        jump = math.hypot(n3 - seed[0], n4 - seed[1])
        if jump > CONTINUATION_JUMP:
            raise ContinuationBreak((a1, a2), jump)
        lift.append((n3, n4))

    # returning to the start must land on the starting completion
    seed = (2 * lift[-1][0] - lift[-2][0], 2 * lift[-1][1] - lift[-2][1])
    n3, n4, res, ok = _newton(pts[-1, 0], pts[-1, 1], seed, params, tol)
    if not ok:
        raise NoRoot("gait lift failed to close", res)
    gap = math.hypot(n3 - lift[0][0], n4 - lift[0][1])
    if gap > 1e-6:
        raise ContinuationBreak((pts[-1, 0], pts[-1, 1]), gap)
    lift.append(lift[0])

    alphas = np.column_stack([pts[:, 0], pts[:, 1], np.asarray(lift)])
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
_BISECT_STEPS = 80


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


def _bisect_edges(a_phi, a_theta, b_phi, b_theta, pos_a, coeffs, eps):
    """Bisect the sign change of ``g`` on every edge ``a -> b`` at once.

    ``pos_a`` is ``g(a) > 0``.  Each edge runs the scalar iteration: it
    stops at the first midpoint with ``|g| < eps``; otherwise the
    midpoint replaces the end whose sign it shares, so ``a`` keeps its
    sign throughout.  A stopped edge collapses its bracket onto that
    midpoint, which later halvings then reproduce exactly, so every edge
    returns the midpoint of its bracket after ``_BISECT_STEPS`` halvings
    or once all edges have stopped.
    """
    for _ in range(_BISECT_STEPS):
        m_phi = 0.5 * (a_phi + b_phi)
        m_theta = 0.5 * (a_theta + b_theta)
        gm = normalized_det(m_phi, m_theta, coeffs)
        hit = np.abs(gm) < eps
        if hit.all():
            return m_phi, m_theta
        same = (gm > 0.0) == pos_a
        to_a = hit | same
        to_b = hit | ~same
        a_phi = np.where(to_a, m_phi, a_phi)
        a_theta = np.where(to_a, m_theta, a_theta)
        b_phi = np.where(to_b, m_phi, b_phi)
        b_theta = np.where(to_b, m_theta, b_theta)
    return 0.5 * (a_phi + b_phi), 0.5 * (a_theta + b_theta)


def _edge_zeros(coeffs: DetCoefficients, grid: AttitudeGrid, S: np.ndarray):
    """Refined zero of ``g`` on every crossing grid edge.

    Returns ``(p_edges, t_edges, phi, theta)``: the ``(i, j)`` index
    arrays of the crossing edges along phi (node ``(i, j)`` to
    ``(i + 1, j)``) and along theta (to ``(i, j + 1)``), both row-major,
    and the vertex coordinates, phi edges first.
    """
    phis, thetas = grid.phis, grid.thetas
    pi, pj = np.nonzero(S[:-1, :] != S[1:, :])
    ti, tj = np.nonzero(S[:, :-1] != S[:, 1:])
    phi, theta = _bisect_edges(
        np.concatenate([phis[pi], phis[ti]]),
        np.concatenate([thetas[pj], thetas[tj]]),
        np.concatenate([phis[pi + 1], phis[ti]]),
        np.concatenate([thetas[pj], thetas[tj + 1]]),
        np.concatenate([S[pi, pj], S[ti, tj]]),
        coeffs, _curve_eps(coeffs),
    )
    return (pi, pj), (ti, tj), phi, theta


def singular_curves(alpha, grid: AttitudeGrid, params: Params) -> SingularCurveSet:
    """Zero curves of the normalized determinant at the tilt ``alpha``.

    See :func:`extract_zero_curves`; an empty set is a valid result.
    """
    return extract_zero_curves(det_decomposition(alpha, params), grid)


def extract_zero_curves(coeffs: DetCoefficients, grid: AttitudeGrid) -> SingularCurveSet:
    """Marching-squares zero curves of the normalized determinant.

    Vertices are refined on all crossing grid edges together, in one
    vectorized bisection, to ``|g| < eps_curve`` with ``eps_curve =
    1e-10 * max(|A|, |B|, |C|)`` (or to the 80th halving).  Adjacent
    cells share refined vertices, so the segments stitch into polylines
    exactly.
    """
    S = _sign_grid(coeffs, grid)
    phis, thetas = grid.phis, grid.thetas
    (pi, pj), (ti, tj), vphi, vtheta = _edge_zeros(coeffs, grid, S)
    # refined vertex per crossing grid edge, keyed by (axis, i, j)
    keys = [("p", i, j) for i, j in zip(pi.tolist(), pj.tolist())]
    keys += [("t", i, j) for i, j in zip(ti.tolist(), tj.tolist())]
    verts = dict(zip(keys, zip(vphi.tolist(), vtheta.tolist())))

    ci, cj = np.nonzero(_changed_cells(S))
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


def _phase_metrics(args):
    gait, grid, params, t = args
    coeffs = det_decomposition(tuple(gait.sample_raw(t)), params)
    S = _sign_grid(coeffs, grid)
    changed = _changed_cells(S)
    frac = 1.0 - float(changed.sum()) / changed.size
    margin = None
    if changed.any():
        # every crossing edge's vertex lies on a curve, so the nearest
        # singular point needs the refined vertices but no stitching
        _, _, phi, theta = _edge_zeros(coeffs, grid, S)
        margin = float(np.min(np.hypot(phi, theta)))
    return frac, margin


def robustness_report(
    gait: Gait,
    grid: AttitudeGrid,
    n_phases: int,
    params: Params,
    workers: int = 1,
) -> RobustnessReport:
    """Evaluate the singular set at evenly spaced gait phases.

    ``workers > 1`` distributes the (independent) phases over a process
    pool; results merge in phase order either way.
    """
    if n_phases < 1:
        raise ValueError(f"n_phases must be >= 1, got {n_phases}")
    tasks = [(gait, grid, params, k * gait.period_s / n_phases) for k in range(n_phases)]
    if workers > 1 and n_phases > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_phase_metrics, tasks)
    else:
        results = [_phase_metrics(t) for t in tasks]

    area = min(frac for frac, _ in results)
    margins = [m for _, m in results if m is not None]
    return RobustnessReport(
        area_fraction=area,
        hover_margin=min(margins) if margins else grid.diagonal,
        n_phases=n_phases,
        singular_phases=sum(1 for _, m in results if m is not None),
    )


# ---------------------------------------------------------------------------
# preset catalog

GAIT_PRESETS = {
    # blue rectangle placed clear of the on-branch C = 0 locus
    # (alpha2 ~ alpha1 - 2 atan(k_m / (arm k_f))) so tracking stays
    # well-conditioned, yet close enough that its 0.8-biased variant
    # develops singular attitude curves
    "gait1": {"center": (-0.25, 0.85), "half_extents": (0.30, 0.30), "branch": "blue"},
    # red rectangles crossing that locus: they lose control authority at
    # two gait phases per period and fail in closed loop under input
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
