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
exactly on-branch under linear interpolation: a rectangle gait is its
five corners, each lifted onto the plane.

The raw root set of ``A = B = 0`` is larger, and closed-form too
(:func:`scan_roots`): with ``delta = 2 atan2(k_m, arm k_f)`` it is the
four robust completions ``{alpha1, alpha1 + pi} x {alpha2, alpha2 + pi}``
and four rank-deficient ones ``(delta - alpha1, -delta - alpha2) + {0,
pi}^2``, where ``A = B = C = 0`` (singular at *every* attitude).  On a
branch plane ``C`` itself is a product of three closed-form factors, so
``color_map`` reads its sign without a determinant decomposition, and it
states each branch plane rather than fitting it.

The robustness metrics scan the normalized determinant ``g`` over an
attitude grid at each sampled gait phase.  A phase on which ``g`` keeps
one strict sign over the whole grid box forms no grid: the range of ``g
/ cos(theta)`` over the box has a closed form.  On a branch plane ``g =
cos(phi) cos(theta) C``, so every phase of an on-branch gait with ``C !=
0`` is in that case on a box inside ``|phi|, |theta| < pi/2``.  Every
other phase is scanned alone, with one sign grid, for a report and for
curves alike.  A phase with ``A = B = C = 0`` is singular at every
attitude: it forms no grid, and it counts as singular with area
fraction and hover margin 0.  A gait's angles are checked finite when
it is built, so each phase's ``(A, B, C)`` comes straight from the
coefficient kernel as three floats.  The zeros on the crossing grid
edges of both kinds come from one pass over one gather of the grid's
cached edge table.  A report keeps only each phase's area fraction and
the least distance from level attitude to such a zero, so only the
curves stitch those zeros.

``g`` is the product of ``(-A, B, C)`` with a unit vector, so each
phase's singular attitudes lie on a great circle, whose distance from
level attitude bounds the phase's hover margin from below in closed
form.  A report visits its phases in ascending order of that bound and
finds the edge zeros of a singular phase only where the bound is below
the least margin found so far; curves need every zero, so they find
them all.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from tiltrotor._core import kernels
from tiltrotor.linearization import DetCoefficients, abc_scale, det_decomposition, normalized_det
from tiltrotor.model import TWO_PI, Params, _floats, wrap_angle

# roots closer than this [rad] are reported once: the robust and rank-
# deficient families meet where delta -> pi and on the on-branch C = 0
# locus.  Distinct roots come within 1e-3 rad of each other (alpha1,
# alpha2 near multiples of pi/2 with delta near 0 or pi), so the radius
# stays far below that.
CLUSTER_RADIUS = 1e-6

# (alpha3, alpha4) = (alpha1, alpha2) + offset on each robust branch
BRANCH_OFFSETS = {"blue": 0.0, "red": math.pi}


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


@dataclass(frozen=True)
class ColorSolution:
    """One branch completion at a prescribed ``(alpha1, alpha2)``.

    ``alpha34`` is stored on the continuous branch sheet (the red branch
    keeps values near ``pi`` rather than wrapping), so gaits built from
    it interpolate without seams.  ``residual_sign`` is the sign of the
    remaining determinant coefficient ``C`` at the solution, the
    closed-form on-branch ``C`` that :func:`color_map` reads.
    """

    alpha12: np.ndarray
    alpha34: np.ndarray
    color: str
    residual_sign: float


def _solution(a1: float, a2: float, color: str, params: Params) -> ColorSolution:
    a3, a4 = _completion(a1, a2, color)
    return ColorSolution(
        alpha12=np.array([a1, a2]),
        alpha34=np.array([a3, a4]),
        color=color,
        residual_sign=1.0 if _on_branch_c(a1, a2, params) >= 0 else -1.0,
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
    through them as well.  ``alpha12`` must be two finite numbers.
    """
    a1, a2 = _floats(alpha12, 2, "alpha12")
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

    Returns ``[blue, red]``; ``alpha12`` must be two finite numbers.
    """
    a1, a2 = _floats(alpha12, 2, "alpha12")
    return [_solution(a1, a2, "blue", params), _solution(a1, a2, "red", params)]


# ---------------------------------------------------------------------------
# color map over a grid, with its branch planes


@dataclass(frozen=True)
class PlaneFit:
    """Branch plane ``value = c0 + c1 * alpha1 + c2 * alpha2``, as :func:`color_map` states it.

    ``coeffs`` is ``(offset, 1, 0)`` for ``alpha3`` and ``(offset, 0, 1)``
    for ``alpha4``, with the offset of :data:`BRANCH_OFFSETS`.  The map's
    completions are this plane, so its residual to them, ``rms`` and
    ``max_abs``, is 0 by construction; the two fields keep the planes
    file's form.
    """

    coeffs: np.ndarray
    rms: float
    max_abs: float


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


def color_map(alpha1_values, alpha2_values, branch: str, params: Params) -> ColorMapResult:
    """One branch over a rectangular grid, with its planes.

    The completions are the closed-form branch plane at every cell, and
    each :class:`PlaneFit` states that plane; ``residual_sign`` is the
    sign of the closed-form on-branch ``C`` there.  Each axis of values
    must be a non-empty 1-D array of finite values.
    """
    a1v, a2v = np.asarray(alpha1_values, dtype=float), np.asarray(alpha2_values, dtype=float)
    if (a1v.ndim != 1 or a2v.ndim != 1 or not (a1v.size and a2v.size)
            or not (np.isfinite(a1v).all() and np.isfinite(a2v).all())):
        raise ValueError("grid values must be two non-empty 1-D arrays of finite values, "
                         f"got shapes {a1v.shape} and {a2v.shape}")
    offset = _branch_offset(branch)
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
        plane3=PlaneFit(np.array((offset, 1.0, 0.0)), 0.0, 0.0),
        plane4=PlaneFit(np.array((offset, 0.0, 1.0)), 0.0, 0.0),
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
        # own read-only copies: the samplers read them on every call
        wp = np.array(self.waypoints, dtype=float)
        al = np.array(self.alphas, dtype=float)
        _branch_offset(self.color)
        if not (math.isfinite(self.period_s) and self.period_s > 0):
            raise ValueError(f"period must be positive and finite, got {self.period_s}")
        if not 0.0 < self.bias <= 1.0:
            raise ValueError(f"bias factor must lie in (0, 1], got {self.bias}")
        if wp.ndim != 1 or len(wp) < 2 or al.shape != (len(wp), 4):
            raise ValueError("need matching waypoint fractions and (n, 4) angles")
        if wp[0] != 0.0 or wp[-1] != 1.0 or not np.logical_and.reduce(wp[1:] > wp[:-1]):
            raise ValueError("time fractions must increase strictly from 0 to 1")
        # within half the float range each step between rows, and so
        # every interpolated sample, is finite too
        if not np.maximum.reduce(abs(al), axis=None) <= 0.5 * sys.float_info.max:
            raise ValueError("gait angles must be finite, within half the float range")
        if max(map(abs, (al[0] - al[-1]).tolist())) > 1e-6:
            raise ValueError("gait must close: first and last waypoints differ")
        object.__setattr__(self, "waypoints", _frozen(wp))
        object.__setattr__(self, "alphas", _frozen(al))
        # each segment's start fraction, length, first row and step, for sample_array
        object.__setattr__(self, "_segments", (wp[:-1], _frozen(wp[1:] - wp[:-1]), al[:-1],
                                               _frozen(al[1:] - al[:-1])))

    def sample_array(self, t) -> np.ndarray:
        """Continuous-sheet angles at the times ``t``: shape ``t.shape + (4,)``.

        The one implementation of the schedule's interpolation: phase
        ``u = (t / period) % 1``, segment ``k`` with ``fr[k] <= u <
        fr[k + 1]``, then ``a[k] + s (a[k + 1] - a[k])`` with ``s = (u -
        fr[k]) / (fr[k + 1] - fr[k])``; the differences are formed when the
        gait is built.  Each element is the same IEEE arithmetic on the same
        operands as a scalar evaluation, so a block of times samples
        exactly as the times one by one.
        """
        starts, lengths, rows, steps = self._segments
        u = (np.asarray(t, dtype=float) / self.period_s) % 1.0
        # searching only the segment starts puts u = 1.0, which rounding
        # can give, in the last segment
        k = starts.searchsorted(u, "right") - 1
        s = (u - starts[k]) / lengths[k]
        return rows[k] + s[..., None] * steps[k]

    def sampler(self) -> Callable[[float], tuple]:
        """Periodic piecewise-linear sampler returning 4-tuples of floats."""
        sample_array = self.sample_array

        def sample(t: float) -> tuple:
            return tuple(sample_array(t).tolist())

        return sample

    def sample_raw(self, t: float) -> np.ndarray:
        """Continuous-sheet angles at time ``t`` (no wrapping); ``t`` must be finite."""
        t = float(t)
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got {t}")
        return self.sample_array(t)

    def to_csv(self, path) -> None:
        """Write the gait: one row per waypoint, its fraction and angles, plus a JSON sidecar.

        The sidecar holds ``period_s``, ``color`` and ``bias``, so
        :func:`load_gait` gives back this gait, bit for bit.
        """
        from tiltrotor._files import write_csv, write_object

        write_csv(path, _GAIT_HEADER, [self.waypoints, self.alphas])
        write_object(_sidecar(path), {"period_s": self.period_s, "color": self.color,
                                      "bias": self.bias})


def _sidecar(path) -> str:
    """The JSON sidecar of a gait CSV: its path with the extension, if any, replaced by ``.json``."""
    return os.path.splitext(os.fspath(path))[0] + ".json"


_GAIT_HEADER = "t_frac,alpha1,alpha2,alpha3,alpha4"
# the keys of a gait sidecar and their forms (see read_object); period_s is required
_SIDECAR_KEYS = {"period_s": (None,), "color": (str,), "bias": (None,)}


def load_gait(path) -> Gait:
    """Read a gait CSV (with its JSON sidecar) back into a :class:`Gait`.

    Each row is one waypoint, as :meth:`Gait.to_csv` writes them; a file of
    resampled rows, as older versions wrote, loads as the gait it holds.
    The sidecar is one JSON object: ``period_s`` (a number, required),
    ``color`` (a string, default ``"blue"``) and ``bias`` (a number,
    default 1).  Any other key or form, or a repeated key, raises
    :class:`ValueError` naming the key.
    """
    from tiltrotor._files import read_csv, read_object

    m = read_csv(path, _GAIT_HEADER)
    meta = read_object(_sidecar(path), _SIDECAR_KEYS, "the gait sidecar")
    if "period_s" not in meta:
        raise ValueError("the gait sidecar has no period_s")
    return Gait(**{"color": "blue", "bias": 1.0, **meta}, waypoints=m[:, 0], alphas=m[:, 1:5])


def make_rectangle_gait(
    center,
    half_extents,
    period: float,
    branch: str,
    params: Params,
) -> Gait:
    """Rectangle gait: ``(alpha1, alpha2)`` traverses the perimeter CCW.

    The gait is its five corners, counter-clockwise from the lower left
    and back to it, reached at time fractions proportional to the
    perimeter walked, so the traversal runs at constant speed;
    ``(alpha3, alpha4)`` sit on the requested branch plane at every
    corner.  The plane is linear in ``(alpha1, alpha2)``, so the
    interpolated gait is exactly on-branch, and it closes exactly.  A
    fixed point is its centre, held from fraction 0 to 1.  The planes do
    not depend on ``params``.  ``center`` and ``half_extents`` must each
    be two finite numbers, the half extents both positive or both zero.
    """
    cx, cy = _floats(center, 2, "center")
    hx, hy = _floats(half_extents, 2, "half_extents")
    if hx < 0 or hy < 0:
        raise ValueError("half extents must be non-negative")
    if (hx == 0.0) != (hy == 0.0):
        raise ValueError(
            f"half extents ({hx}, {hy}): one is zero, so two edges have zero length; "
            "give both positive, or both zero for a fixed point"
        )

    offset = _branch_offset(branch)
    if hx == 0.0 and hy == 0.0:
        return Gait(period, branch, 1.0, [0.0, 1.0], [(cx, cy, cx + offset, cy + offset)] * 2)
    x0, x1, y0, y1 = cx - hx, cx + hx, cy - hy, cy + hy
    corners = ((x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0))
    # the perimeter walked up to each corner, edge by edge
    walked = list(itertools.accumulate((0.0, x1 - x0, y1 - y0, x1 - x0, y1 - y0)))
    return Gait(period_s=period, color=branch, bias=1.0,
                waypoints=[w / walked[-1] for w in walked],
                alphas=[(x, y, x + offset, y + offset) for x, y in corners])


def bias_gait(gait: Gait, factor: float) -> Gait:
    """Scale the lifted ``alpha3, alpha4`` columns by ``factor`` in (0, 1].

    The prescribed ``alpha1, alpha2`` schedule is unchanged; factor 1
    returns an identical gait.
    """
    if not 0.0 < factor <= 1.0:
        raise ValueError(f"bias factor must lie in (0, 1], got {factor}")
    # x * 1.0 is exact, so the prescribed columns keep their bits
    return Gait(gait.period_s, gait.color, gait.bias * factor, gait.waypoints,
                gait.alphas * (1.0, 1.0, factor, factor))


# ---------------------------------------------------------------------------
# singular-attitude curves and robustness metrics


@dataclass(frozen=True)
class AttitudeGrid:
    """Rectangular (phi, theta) evaluation grid.

    What the scans read of it (axes, trigonometry, the terms of ``g``,
    the edge table, box) is cached read-only on first use.
    """

    phi_min: float = -1.3
    phi_max: float = 1.3
    theta_min: float = -1.3
    theta_max: float = 1.3
    n_phi: int = 241
    n_theta: int = 241

    def __post_init__(self):
        bounds = (self.phi_min, self.phi_max, self.theta_min, self.theta_max)
        spans = (self.phi_max - self.phi_min, self.theta_max - self.theta_min)
        if not all(math.isfinite(v) for v in bounds + spans):
            raise ValueError(f"grid bounds and their spans must be finite, got {bounds}")
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

    @cached_property
    def _axis_trig(self) -> tuple:
        """``(sin phi, cos phi, sin theta, cos theta)`` along the axes."""
        return tuple(_frozen(f(axis)) for axis in (self.phis, self.thetas)
                     for f in (np.sin, np.cos))

    @cached_property
    def _g_terms(self) -> tuple:
        """The attitude terms of ``g`` at every node.

        ``-sin(theta)`` as a ``(1, n_theta)`` row, then ``sin(phi)
        cos(theta)`` and ``cos(phi) cos(theta)`` as ``(n_phi, n_theta)``
        arrays, each formed as :func:`normalized_det` forms it.
        """
        sin_phi, cos_phi, sin_theta, cos_theta = self._axis_trig
        return (_frozen(-sin_theta[None, :]), _frozen(sin_phi[:, None] * cos_theta[None, :]),
                _frozen(cos_phi[:, None] * cos_theta[None, :]))

    @cached_property
    def _edge_table(self) -> np.ndarray:
        """One column per grid edge, by the edge ids of :func:`_edge_zeros`: the
        edge's lower end, upper end and middle, its fixed coordinate with
        that one's sine and cosine, and its period (2 pi along phi, pi along theta).
        """
        sin_phi, cos_phi, sin_theta, cos_theta = self._axis_trig
        # phi edge (i, j) runs along phi at theta_j, theta edge (i, j)
        # along theta at phi_i
        lo, hi = self.phis[:-1, None], self.phis[1:, None]
        along_phi = np.broadcast_arrays(lo, hi, 0.5 * (lo + hi), self.thetas, sin_theta,
                                        cos_theta, TWO_PI)
        lo, hi = self.thetas[:-1], self.thetas[1:]
        along_theta = np.broadcast_arrays(lo, hi, 0.5 * (lo + hi), self.phis[:, None],
                                          sin_phi[:, None], cos_phi[:, None], math.pi)
        return _frozen(np.hstack([np.reshape(along_phi, (7, -1)),
                                  np.reshape(along_theta, (7, -1))]))

    @cached_property
    def _box(self):
        """The box terms of :func:`_one_sign`, or ``None`` if ``cos(theta)`` is not positive on it.

        ``(tan theta_min, tan theta_max, 1 / min cos(theta), phi_min,
        phi_max, sin phi_min, cos phi_min, sin phi_max, cos phi_max)``
        as floats.
        """
        if not (-0.5 * math.pi < self.theta_min and self.theta_max < 0.5 * math.pi):
            return None
        lo, hi = self.phi_min, self.phi_max
        return (math.tan(self.theta_min), math.tan(self.theta_max),
                1.0 / math.cos(max(-self.theta_min, self.theta_max)), lo, hi,
                math.sin(lo), math.cos(lo), math.sin(hi), math.cos(hi))

    @property
    def diagonal(self) -> float:
        return math.hypot(self.phi_max - self.phi_min, self.theta_max - self.theta_min)


@dataclass(frozen=True)
class SingularCurveSet:
    """Polylines of singular attitudes, each an ``(n, 2)`` array of ``(phi, theta)`` vertices.

    Each vertex is a closed-form zero, so the set keeps no tolerance.
    """

    curves: list

    def vertices(self) -> np.ndarray:
        if not self.curves:
            return np.empty((0, 2))
        return np.vstack(self.curves)


# a saddle cell crosses on all four edges.  Its row of edge ids (bottom,
# top, left, right) taken in the order of row ``corner == centre`` (whether
# its lower-left corner has the sign of its centre) reads as its two
# pairs: left-bottom and top-right where the signs differ, bottom-right
# and left-top where they agree.  Each pair cuts off a corner whose sign
# is not the centre's.
_SADDLE_PAIRS = np.array([[2, 0, 1, 3], [0, 3, 2, 1]])


def _one_sign(abc, grid: AttitudeGrid) -> bool:
    """Whether ``g`` keeps one strict sign on the grid's box, proved in closed form.

    ``abc`` is the phase's ``(A, B, C)``.  Where ``cos(theta) > 0`` on
    the box, ``g = cos(theta) h`` with ``h = -A tan(theta) + R sin(phi +
    psi)``, ``R = hypot(B, C)`` and ``psi = atan2(C, B)``.  The two terms
    vary independently, so the range of ``h`` is the sum of theirs: ``-A
    tan(theta)`` is monotone, with its extremes at the box's theta ends,
    and ``R sin(phi + psi)`` has its extremes at the box's phi ends, or
    ``+-R`` where ``phi = +-pi/2 - psi`` (mod 2 pi) falls inside the box.
    The sign is proved when the range clears zero by ``1e-12 (|A| + |B|
    + |C|) / min cos(theta)``: then ``|g|`` at every node exceeds the
    rounding of the sign grid by some thousand times, and no cell
    changes sign.  Never proved on a box that reaches ``|theta| >=
    pi/2``.
    """
    box = grid._box
    if box is None:
        return False
    tan_lo, tan_hi, sec, lo, hi, sin_lo, cos_lo, sin_hi, cos_hi = box
    A, B, C = abc
    t_lo, t_hi = -A * tan_lo, -A * tan_hi
    end_lo, end_hi = B * sin_lo + C * cos_lo, B * sin_hi + C * cos_hi
    r, psi = math.hypot(B, C), math.atan2(C, B)
    # +-R where top (bottom) + 2 pi k lies in [lo, hi] for some k
    top, bottom = 0.5 * math.pi - psi, -0.5 * math.pi - psi
    h_max = r if top + TWO_PI * math.ceil((lo - top) / TWO_PI) <= hi else max(end_lo, end_hi)
    h_min = -r if bottom + TWO_PI * math.ceil((lo - bottom) / TWO_PI) <= hi else min(end_lo, end_hi)
    margin = 1e-12 * (abs(A) + abs(B) + abs(C)) * sec
    return min(t_lo, t_hi) + h_min > margin or max(t_lo, t_hi) + h_max < -margin


# absolute slack of _margin_bound [rad]: the rounding of the edge zeros
# (most of all the subtraction u - psi near phi = 0) leaves a hover margin
# up to some 1e-14 rad below the bound, whatever the scale of (A, B, C)
_BOUND_SLACK = 1e-12


def _margin_bound(abc) -> float:
    """A lower bound, in closed form, on the distance from level attitude to a zero of ``g``.

    ``abc`` is the phase's ``(A, B, C)``.  ``g = v . u(phi, theta)`` with
    ``v = (-A, B, C)`` and the unit vector ``u = (sin(theta), cos(theta)
    sin(phi), cos(theta) cos(phi))``, so the phase's singular attitudes
    lie on the great circle orthogonal to ``v``, at geodesic distance
    ``asin(|C| / |v|)`` from level attitude ``u(0, 0)``.  That angle is
    written ``atan2(|C|, hypot(A, B))``, which keeps its digits where
    ``|C| / |v|`` rounds to 1, and is 0 when ``v = 0``.  The sphere's
    metric ``dtheta^2 + cos(theta)^2 dphi^2`` is nowhere longer than the
    grid's ``dphi^2 + dtheta^2``, so on any box, ``|theta| >= pi/2``
    included, no zero of ``g`` lies nearer ``(0, 0)``.  The edge zeros
    are exact up to rounding, so no hover margin falls below the bound by
    more than ``_BOUND_SLACK``.
    """
    A, B, C = abc
    return math.atan2(abs(C), math.hypot(A, B))


def _edge_zeros(abc, grid: AttitudeGrid, cross_phi, cross_theta):
    """Exact zero of ``g`` on every crossing grid edge of one phase.

    ``abc`` is the phase's ``(A, B, C)``; ``cross_phi`` and
    ``cross_theta`` mark its crossing edges along phi (node ``(i, j)``
    to ``(i + 1, j)``) and along theta (to ``(i, j + 1)``).  Returns
    ``(margin, ids, vertices)``: the least distance from level attitude
    to a zero, the id of each crossing edge, ascending, and the edge's
    ``(phi, theta)`` vertex, a row each.
    Phi edge ``(i, j)`` has id ``i * n_theta + j`` and theta edge ``(i,
    j)`` the id ``(n_phi - 1) * n_theta + i * (n_theta - 1) + j``, so the
    phi edges come first, each kind row-major.

    Along phi, at fixed ``theta``, ``g = 0`` reads ``cos(theta) R
    sin(phi + psi) = A sin(theta)`` with ``R = hypot(B, C)`` and ``psi =
    atan2(C, B)``, roots ``u - psi`` and ``pi - u - psi`` with ``sin(u) =
    A tan(theta) / R``; along theta, at fixed ``phi``, ``g = -A sin(theta)
    + K cos(theta)`` with ``K = B sin(phi) + C cos(phi)`` vanishes at
    ``theta = atan2(K, A) + k pi``.  ``R > 0`` on every crossing phi edge:
    with ``B = C = 0``, ``g`` is the same at both of its ends.  Both kinds
    take one gather of :attr:`AttitudeGrid._edge_table` and one ``(2,
    m)`` array of candidates, a theta edge's in both rows.  Each edge
    takes the candidate plus a multiple of its period nearest its middle,
    the first row on a tie, clamped into the edge: an edge whose ends
    differ in sign holds a root, and every candidate within half an edge
    of its middle lies on it, so only rounding needs the clamp.
    """
    A, B, C = abc
    ip = cross_phi.ravel().nonzero()[0]
    it = cross_theta.ravel().nonzero()[0]
    ids = np.concatenate([ip, it + cross_phi.size])
    p, t = slice(None, ip.size), slice(ip.size, None)
    lower, upper, mid, fixed, sin_f, cos_f, period = grid._edge_table.take(ids, axis=1)

    roots = np.empty((2, ids.size))
    u = A * sin_f[p]
    u /= math.hypot(B, C) * cos_f[p]
    u = np.arcsin(np.minimum(np.maximum(u, -1.0, out=u), 1.0, out=u), out=u)
    psi = math.atan2(C, B)
    np.subtract(u, psi, out=roots[0, p])
    np.subtract(np.subtract(math.pi, u, out=u), psi, out=roots[1, p])
    K = B * sin_f[t]
    K += C * cos_f[t]
    roots[1, t] = np.arctan2(K, A, out=roots[0, t])
    cand = roots + period * np.rint((mid - roots) / period)
    off = abs(cand - mid)
    zero = np.where(off[1] < off[0], cand[1], cand[0])
    np.minimum(np.maximum(zero, lower, out=zero), upper, out=zero)

    verts = np.empty((ids.size, 2))
    verts[p, 0], verts[p, 1], verts[t, 0], verts[t, 1] = zero[p], fixed[p], fixed[t], zero[t]
    # hypot is symmetric, so the distance needs no vertex order
    return np.minimum.reduce(np.hypot(zero, fixed)).item(), ids, verts


def singular_curves(alpha, grid: AttitudeGrid, params: Params) -> SingularCurveSet:
    """Zero curves of the normalized determinant at the tilt ``alpha``.

    See :func:`extract_zero_curves`; an empty set is a valid result.
    """
    return extract_zero_curves(det_decomposition(alpha, params), grid)


def extract_zero_curves(coeffs: DetCoefficients, grid: AttitudeGrid) -> SingularCurveSet:
    """Marching-squares zero curves of the normalized determinant.

    Each vertex is the closed-form zero of ``g`` on its crossing grid
    edge, so ``|g|`` there is rounding error, far below ``1e-10 *
    max(|A|, |B|, |C|)``; the set keeps no tolerance.  Adjacent cells
    share vertices, so the segments stitch into polylines exactly.
    ``coeffs.abc``, the ``(A, B, C)`` triple, must be three finite
    numbers.  With ``A = B = C = 0``, ``g`` vanishes at every attitude
    and the set is empty: there is no curve to draw.
    """
    return _phase_scan(_floats(coeffs.abc, 3, "coeffs"), grid, curves=True)[2]


def _stitch_curves(abc, grid, S, changed, ids, verts) -> SingularCurveSet:
    """The curves of :func:`extract_zero_curves` from its sign grid and edge zeros.

    Vertex ``v`` is the zero on the ``v``-th crossing edge in id order
    (see :func:`_edge_zeros`), so sorting vertices sorts their edges.  A
    changed cell crosses on two of its edges, which form its segment, or
    on all four at a saddle, which pair up by the sign of ``g`` at its
    centre.  The segments come in cell order; within a cell the order of
    a pair, or of two pairs, leaves the curves as they are, since no
    vertex lies on two segments of one cell.
    """
    kc = changed.ravel().nonzero()[0]
    # cell (i, j), c = i * (n_theta - 1) + j, has the phi edges (i, j) and
    # (i, j + 1) and the theta edges (i, j) and (i + 1, j)
    bottom = kc + kc // (grid.n_theta - 1)
    left = kc + (grid.n_phi - 1) * grid.n_theta
    edges = np.column_stack([bottom, bottom + 1, left, left + (grid.n_theta - 1)])
    # each cell edge's vertex, where the edge crosses
    pos = ids.searchsorted(edges)
    crossing = ids[np.minimum(pos, ids.size - 1)] == edges
    segments = pos[crossing]
    if segments.size > 2 * kc.size:
        saddle = crossing.all(axis=1).nonzero()[0]
        # a cell's bottom edge has the id of its lower-left node, and the
        # middles of its bottom and left edges are its centre
        bottom, _, left, _ = edges[saddle].T
        phi, theta = grid._edge_table[2].take([bottom, left])
        centre = normalized_det(phi, theta, DetCoefficients(*abc))
        pairs = _SADDLE_PAIRS[(S.ravel()[bottom] == (centre > 0.0)).astype(np.intp)]
        pos[saddle] = np.take_along_axis(pos[saddle], pairs, axis=1)
        segments = pos[crossing]
    segments = segments.reshape(-1, 2).tolist()

    # the neighbours of each vertex in the order its segments come; every
    # vertex has one or two
    first = [-1] * ids.size
    second = [-1] * ids.size
    for a, b in segments:
        if first[a] < 0:
            first[a] = b
        else:
            second[a] = b
        if first[b] < 0:
            first[b] = a
        else:
            second[b] = a

    visited = [False] * ids.size
    chains = []

    def walk(v):
        chain = [v]
        visited[v] = True
        node = v
        while True:
            a, b = first[node], second[node]
            if not visited[a]:
                node = a
            elif b >= 0 and not visited[b]:
                node = b
            else:
                # allow closing back to the start of a cycle
                if v in (a, b) and len(chain) > 2:
                    chain.append(v)
                return chain
            visited[node] = True
            chain.append(node)

    # paths from their lower end, then cycles from their lowest vertex
    for v in [v for v in range(ids.size) if second[v] < 0] + list(range(ids.size)):
        if not visited[v]:
            chains.append(walk(v))

    return SingularCurveSet([verts[chain] for chain in chains])


@dataclass(frozen=True)
class RobustnessReport:
    """Attitude-robustness metrics of a gait.

    ``area_fraction``: fraction of grid cells without a sign change of
    the normalized determinant, minimized over the sampled gait phases.
    ``hover_margin``: distance from level attitude to the nearest
    singular point [rad], minimized over phases; equals the grid
    diagonal when no singular point exists anywhere.
    ``singular_phases``: phases with a singular point on the grid.  A
    phase with ``A = B = C = 0`` is singular at every attitude: it
    counts, with area fraction and hover margin 0.  Sampled phases can
    miss a Two Color Map crossing, where the on-branch ``C`` changes sign:
    gait2 and gait3 cross twice a period, yet with 64 phases on a 241 x
    241 grid both read area 1.0, margin 3.394 and no singular phase.
    """

    area_fraction: float
    hover_margin: float
    n_phases: int
    singular_phases: int


def _gait_phases(gait: Gait, n_phases: int, params: Params) -> list:
    """The ``(A, B, C)`` of the gait at ``n_phases`` evenly spaced phases.

    A gait's angles are checked finite when it is built, so each phase's
    ``(A, B, C)`` comes straight from :func:`kernels.det_coeffs` on the
    float rows of :meth:`Gait.sample_array`.
    """
    if isinstance(n_phases, bool) or not isinstance(n_phases, numbers.Integral):
        raise TypeError(f"n_phases must be an integer, got {n_phases!r}")
    if n_phases < 1:
        raise ValueError(f"n_phases must be >= 1, got {n_phases}")
    times = [k * gait.period_s / n_phases for k in range(n_phases)]
    kf, km, arm = params.k_f, params.k_m, params.arm_length
    return [kernels.det_coeffs(a1, a2, a3, a4, kf, km, arm)
            for a1, a2, a3, a4 in gait.sample_array(times).tolist()]


def _phase_scan(abc, grid: AttitudeGrid, curves: bool, least: float = math.inf) -> tuple:
    """``(area fraction, hover margin or None, curve set or None)`` of one phase.

    ``abc`` is the phase's ``(A, B, C)``.  A phase with ``A = B = C =
    0`` is singular at every attitude: area fraction and hover margin 0
    and an empty curve set, with no grid.  A phase whose sign
    :func:`_one_sign` proves forms no grid either; each other phase is
    scanned alone by :func:`_grid_scan`, for a report and for curves
    alike.  A report passes the least hover margin it has found as
    ``least``; see :func:`_grid_scan`.
    """
    if not any(abc):
        return np.float64(0.0), 0.0, SingularCurveSet([]) if curves else None
    if _one_sign(abc, grid):
        return np.float64(1.0), None, SingularCurveSet([]) if curves else None
    return _grid_scan(abc, grid, curves, least)


def _grid_scan(abc, grid: AttitudeGrid, curves: bool, least: float) -> tuple:
    """:func:`_phase_scan` of one phase, from its ``(n_phi, n_theta)`` sign grid.

    ``abc`` is three floats, so each term of ``g`` is one cached grid
    term times a scalar.  The edge zeros give the hover margin; only a
    curve scan stitches them.  A report scan (``curves`` false) of a
    singular phase whose :func:`_margin_bound`, less ``_BOUND_SLACK``, is
    not below ``least`` finds no edge zero: no margin of that phase can
    be below ``least``, and it reads ``inf``.
    """
    A, B, C = abc
    minus_sin_theta, sin_phi_cos_theta, cos_phi_cos_theta = grid._g_terms
    # normalized_det's sum (-sin(theta) A + sin(phi) cos(theta) B) + cos(phi)
    # cos(theta) C, its first addition with the operands swapped, which
    # rounds the same
    g = sin_phi_cos_theta * B
    g += minus_sin_theta * A
    g += cos_phi_cos_theta * C
    S = g > 0.0
    cross_phi, cross_theta = S[:-1] != S[1:], S[:, :-1] != S[:, 1:]
    # a cell's corners differ in sign iff one of its edges crosses; if its
    # bottom, top and left edges do not, all four corners agree
    changed = cross_phi[:, :-1] | cross_phi[:, 1:] | cross_theta[:-1]
    n = np.count_nonzero(changed)
    frac = np.float64(1.0 - n / changed.size)
    if not n:
        return frac, None, SingularCurveSet([]) if curves else None
    if not curves and _margin_bound(abc) - _BOUND_SLACK >= least:
        return frac, math.inf, None
    # every crossing edge's vertex lies on a curve, so the nearest
    # singular point needs the refined vertices but no stitching
    margin, ids, verts = _edge_zeros(abc, grid, cross_phi, cross_theta)
    return frac, margin, _stitch_curves(abc, grid, S, changed, ids, verts) if curves else None


def _report(scans, grid: AttitudeGrid) -> RobustnessReport:
    margins = [m for _, m, _ in scans if m is not None]
    return RobustnessReport(min(frac for frac, _, _ in scans), min(margins, default=grid.diagonal),
                            n_phases=len(scans), singular_phases=len(margins))


def robustness_report(
    gait: Gait, grid: AttitudeGrid, n_phases: int, params: Params,
) -> RobustnessReport:
    """Evaluate the singular set at ``n_phases`` evenly spaced gait phases.

    A phase whose ``g`` keeps one strict sign over the grid box, proved
    in closed form (:func:`_one_sign`), counts as robust without a sign
    grid: on a box inside ``|phi|, |theta| < pi/2``, every phase with
    ``C != 0`` of a gait on a branch plane, where the Two Color Map
    Theorem keeps the decoupling matrix invertible.  A phase with ``A =
    B = C = 0`` counts as singular, with area fraction and hover margin
    0.  Each other phase is scanned alone, with one sign grid, and the
    metrics stay the grid's: area fraction and hover margin.

    The phases are visited in ascending order of :func:`_margin_bound`,
    a closed-form lower bound on each phase's margin.  A singular phase
    finds its edge zeros only if its bound, less ``_BOUND_SLACK``, is
    below the least margin found so far; otherwise none of its zeros is
    nearer level attitude.  Every phase still forms its sign grid, so the
    report is that of a scan of every edge zero.
    """
    scans, least = [], math.inf
    for abc in sorted(_gait_phases(gait, n_phases, params), key=_margin_bound):
        scans.append(_phase_scan(abc, grid, False, least))
        if scans[-1][1] is not None:
            least = min(least, scans[-1][1])
    return _report(scans, grid)


def curves_and_report(
    gait: Gait, grid: AttitudeGrid, n_phases: int, params: Params,
) -> tuple[list[SingularCurveSet], RobustnessReport]:
    """The singular curves of each phase and the :func:`robustness_report`, in one pass.

    Each phase's determinant decomposition, sign grid and edge zeros
    feed both its curves and its metrics, one phase at a time, in phase
    order.  Every singular phase finds all its edge zeros, which its
    curves need, where :func:`robustness_report` skips those its margin
    bound rules out; the two reports are equal.  A phase proved robust in closed form has an empty
    curve set and forms no grid; so has a phase with ``A = B = C = 0``,
    singular at every attitude, which no curve can draw.
    """
    scans = [_phase_scan(abc, grid, True) for abc in _gait_phases(gait, n_phases, params)]
    return [cs for _, _, cs in scans], _report(scans, grid)


# ---------------------------------------------------------------------------
# preset catalog

GAIT_PRESETS = {
    # The on-branch C = 0 locus, with u = atan2(k_m, arm k_f), is
    # alpha1 = u + pi/2 (mod pi), alpha2 = pi/2 - u (mod pi) and
    # tan(alpha1) - tan(alpha2) = 2 tan(u).  A margin below is the least
    # |C| / (4 k_f rho^3), rho = hypot(arm k_f, k_m), along the schedule
    # at the default Params.
    # blue rectangle clear of the locus (margin 0.265, C keeps its sign)
    # so tracking stays well-conditioned, yet close enough that its
    # 0.8-biased variant develops singular attitude curves
    "gait1": {"center": (-0.25, 0.85), "half_extents": (0.30, 0.30), "branch": "blue"},
    # red rectangles crossing the locus (C changes sign twice per period,
    # so the least margin is 0): they lose control authority at two gait
    # phases per period and fail in closed loop under input saturation.
    # A report's sampled phases can miss those crossings
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
