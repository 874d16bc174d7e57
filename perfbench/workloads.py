"""Benchmark workloads: their inputs, operations and output checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned and been checked.  An operation is an
:class:`Op`; :func:`measure` runs them for a time budget and records one
:class:`Record` per operation.

An operation fails on the continuation lift's known defect: it raises one
of its ``expected_errors`` (the package's documented lift errors), or its
check raises :class:`KnownDefect` because the lifted gait left its branch.
Such failures are counted apart, not fatal.  An operation is wrong when
it raises anything else or its output fails its check; a wrong output
makes the whole run incorrect.

The package is always reached through module attributes at call time
(``self.gaitlab.make_rectangle_gait(...)``) so that the tracer's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi
GAIT_PERIOD = 10.0
BIAS = 0.8
CIRCLE_RADIUS = 5.0
CIRCLE_RATE = 0.1
DT = 1e-3                           # the CLI's default step, used by every workload
MIN_OPS = 2                         # repeated runs are compared for identical output
PLANE_TOL = 1e-3                    # lifted gaits and color maps on the closed-form planes
# |A|, |B|, |C| below this share of abc_scale: a rank-deficient completion
# (the package's own floor for a robust root in scan_roots)
RANK_DEFICIENT = 1e-4
# lift errors the package documents for make_rectangle_gait and color_map;
# names that a later version no longer defines are skipped
LIFT_ERRORS = ("ContinuationBreak", "NoRoot", "Degenerate")


class KnownDefect(Exception):
    """A check found the known continuation-lift defect, named ``kind``."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, the smoke test shrinks them."""

    track_duration: float = 120.0       # track-gait1: the paper's full circle
    cli_gait1_duration: float = 20.0    # cli-track: gait1 before the two aborts
    design_grid: int = 41               # attitude grid points per axis, |phi|,|theta| <= 1.3
    design_phases: int = 4              # robustness phases per gait
    cmap_res: int = 21                  # color_map grid points per axis


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    expected_errors: tuple = ()
    work: dict = field(default_factory=dict)


@dataclass
class Record:
    kind: str
    seconds: float
    error: str | None = None       # exception type or defect name if the operation failed
    problems: list = field(default_factory=list)
    known_defect: bool = False     # the failure is the continuation lift's known defect
    work: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)   # traced call counts during the op

    @property
    def ok(self) -> bool:
        return self.error is None and not self.problems

    @property
    def wrong(self) -> bool:
        return (self.error is not None and not self.known_defect) or bool(self.problems)


def lift_errors() -> tuple:
    errors = importlib.import_module("tiltrotor.errors")
    return tuple(e for e in (getattr(errors, n, None) for n in LIFT_ERRORS) if e is not None)


def _wrap_dist(a):
    """Distance of angles ``a`` from 0 modulo 2 pi."""
    return np.abs((np.asarray(a) + math.pi) % TWO_PI - math.pi)


def _digest(log) -> str:
    h = hashlib.sha256()
    for name in ("t", "states", "alpha", "varpi", "ref_pos", "det", "saturated", "singular"):
        h.update(np.ascontiguousarray(getattr(log, name)).tobytes())
    return h.hexdigest()


def check_tracking_log(log, duration: float, dt: float) -> list:
    """Criterion 08 on a completed gait1 log, from the log arrays alone."""
    problems = []
    rows = int(round(duration / dt)) + 1
    if log.aborted or len(log) != rows:
        return [f"expected {rows} rows, completed; got {len(log)} rows, aborted={log.aborted}"]
    t = np.asarray(log.t)
    pos = np.asarray(log.states)[:, 0:3]
    ref = np.column_stack([
        CIRCLE_RADIUS * np.cos(CIRCLE_RATE * t), CIRCLE_RADIUS * np.sin(CIRCLE_RATE * t),
        np.zeros_like(t),
    ])
    if np.max(np.abs(np.asarray(log.ref_pos) - ref)) > 1e-9:
        problems.append("logged reference is not the 5 m circle")
    err = np.sqrt(np.sum((ref - pos) ** 2, axis=1))
    late = err[t > 80.0]
    if late.size and not late.max() < 0.2:
        problems.append(f"late error {late.max():.4f} m >= 0.2 m")
    period = TWO_PI / CIRCLE_RATE
    if t[-1] >= period:
        final = t >= t[-1] - period
        radial = np.abs(np.hypot(pos[final, 0], pos[final, 1]) - CIRCLE_RADIUS)
        if not radial.max() < 0.2:
            problems.append(f"radial error {radial.max():.4f} m >= 0.2 m")
    if not np.all(np.isfinite(np.asarray(log.states))):
        problems.append("non-finite state")
    return problems


class _Workload:
    primary = ""

    def __init__(self, seed: int, sizes: Sizes, tmp_dir: str):
        self.seed = seed
        self.sizes = sizes
        self.tmp_dir = tmp_dir
        self.tr = importlib.import_module("tiltrotor")
        self.linearization = importlib.import_module("tiltrotor.linearization")
        self.sim = importlib.import_module("tiltrotor.sim")
        self.gaitlab = importlib.import_module("tiltrotor.gaitlab")
        self.cli = importlib.import_module("tiltrotor.cli")
        self.digests: dict = {}

    def setup(self):
        self.params = self.tr.Params()
        self.gains = self.tr.Gains()

    def _same_digest(self, key, digest) -> list:
        first = self.digests.setdefault(key, digest)
        return [] if first == digest else [f"{key}: output differs from the first run"]


class TrackGait1(_Workload):
    """sim.run_tracking on preset gait1 over the full circle, no file output."""

    primary = "track"

    def setup(self):
        super().setup()
        self.gait = self.gaitlab.build_preset("gait1", self.params)

    def ops(self):
        s = self.sizes
        config = self.sim.SimConfig(duration=s.track_duration, dt=DT)

        def run():
            return self.sim.run_tracking(config, self.params, self.gains, self.gait)

        while True:
            work = {}

            def check(log, work=work):
                work["steps"] = len(log)
                problems = check_tracking_log(log, s.track_duration, DT)
                return problems or self._same_digest("gait1", _digest(log))

            yield Op("track", run, check, work=work)


# preset, extra CLI arguments, expected exit code, expected last logged time
def _cli_plan(sizes: Sizes):
    return (
        ("gait1", ["--duration", repr(sizes.cli_gait1_duration)], 0, sizes.cli_gait1_duration),
        ("gait2", [], 4, 0.799),
        ("gait3", [], 4, 4.064),
    )


class CliTrack(_Workload):
    """cli.main track for gait1 (shortened), then gait2 and gait3 to their aborts."""

    primary = "cli"

    def ops(self):
        plan = _cli_plan(self.sizes)
        while True:
            work = {}
            yield Op("cli", lambda: self._run_cli(plan),
                     lambda result, work=work: self._check_cli(result, plan, work), work=work)

    def _run_cli(self, plan):
        out = tempfile.mkdtemp(dir=self.tmp_dir)
        codes = {}
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for preset, extra, _, _ in plan:
                codes[preset] = self.cli.main(
                    ["--out", os.path.join(out, preset), "track", "--preset", preset, *extra]
                )
        return out, codes

    def _check_cli(self, result, plan, work) -> list:
        out, codes = result
        try:
            return self._check_outputs(out, codes, plan, work)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check_outputs(self, out, codes, plan, work) -> list:
        problems = []
        total_bytes = 0
        steps = 0
        for preset, _, code, t_end in plan:
            if codes[preset] != code:
                problems.append(f"{preset}: exit code {codes[preset]}, expected {code}")
                continue
            folder = os.path.join(out, preset)
            with open(os.path.join(folder, "track.csv"), "rb") as fh:
                data = fh.read()
            rows = data.count(b"\n") - 1
            last_t = float(data.rstrip(b"\n").rsplit(b"\n", 1)[-1].split(b",", 1)[0])
            expected_rows = int(round(t_end / DT)) + 1
            if rows != expected_rows or abs(last_t - t_end) > 5e-4:
                problems.append(
                    f"{preset}: {rows} rows ending at t={last_t}, expected "
                    f"{expected_rows} ending at t={t_end}"
                )
            steps += rows
            problems += self._same_digest(preset, hashlib.sha256(data).hexdigest())
            for name in sorted(os.listdir(folder)):
                path = os.path.join(folder, name)
                total_bytes += os.path.getsize(path)
                if name.endswith(".svg"):
                    with open(path, "rb") as fh:
                        if not fh.read().rstrip().endswith(b"</svg>"):
                            problems.append(f"{preset}: {name} is not a complete SVG")
        work["bytes"] = total_bytes
        work["steps"] = steps
        return problems


def rectangle_stream(seed: int):
    """Seeded rectangle gait inputs: ``(center, half_extents, branch, phase_fraction)``.

    Centers are drawn from U(-1.2, 1.2)^2 and half extents from
    U(0.05, 0.4)^2, in that order per rectangle; branches alternate blue,
    red.  The phase of the singular-curve probe comes from a second
    stream, so it does not shift the rectangles.
    """
    rng = np.random.default_rng(seed)
    phase_rng = np.random.default_rng([seed, 1])
    k = 0
    while True:
        center = rng.uniform(-1.2, 1.2, 2)
        half = rng.uniform(0.05, 0.4, 2)
        yield center, half, ("blue" if k % 2 == 0 else "red"), float(phase_rng.uniform())
        k += 1


def color_map_grid(seed: int, res: int):
    """Seeded square (alpha1, alpha2) grid inside [-0.6, 0.6]^2."""
    rng = np.random.default_rng([seed, 2])
    c1, c2 = rng.uniform(-0.2, 0.2, 2)
    half = rng.uniform(0.3, 0.4)
    return np.linspace(c1 - half, c1 + half, res), np.linspace(c2 - half, c2 + half, res)


def _branch_offset(branch: str) -> float:
    return 0.0 if branch == "blue" else math.pi


class GaitDesign(_Workload):
    """One color_map per branch, then rectangle gait designs until time is up."""

    primary = "design"

    def setup(self):
        super().setup()
        self.grid = self.gaitlab.AttitudeGrid.symmetric(1.3, self.sizes.design_grid)
        self.errors = lift_errors()

    def ops(self):
        a1v, a2v = color_map_grid(self.seed, self.sizes.cmap_res)
        for branch in ("blue", "red"):
            yield Op("color_map",
                     lambda b=branch: self.gaitlab.color_map(a1v, a2v, b, self.params),
                     lambda res, b=branch: self._check_color_map(res, a1v, a2v, b),
                     self.errors, {"cells": a1v.size * a2v.size})
        for center, half, branch, phase in rectangle_stream(self.seed):
            work = {}
            yield Op("design",
                     lambda c=center, h=half, b=branch, p=phase, w=work: self._design(c, h, b, p, w),
                     lambda res, c=center, h=half, b=branch: self._check_design(res, c, h, b),
                     self.errors, work)

    def _design(self, center, half, branch, phase, work):
        gl = self.gaitlab
        gait = gl.make_rectangle_gait(center, half, GAIT_PERIOD, branch, self.params)
        biased = gl.bias_gait(gait, BIAS)
        t1 = time.perf_counter()
        rep = gl.robustness_report(gait, self.grid, self.sizes.design_phases, self.params)
        rep_b = gl.robustness_report(biased, self.grid, self.sizes.design_phases, self.params)
        t2 = time.perf_counter()
        alpha = tuple(biased.sample_raw(phase * GAIT_PERIOD))
        curves = gl.singular_curves(alpha, self.grid, self.params)
        work.update(robustness_s=t2 - t1, phases=2 * self.sizes.design_phases)
        return gait, biased, rep, rep_b, alpha, curves

    def _check_color_map(self, res, a1v, a2v, branch) -> list:
        problems = []
        for plane in (res.plane3, res.plane4):
            if not plane.rms < PLANE_TOL:
                problems.append(f"color_map {branch}: plane rms {plane.rms:.2e} >= {PLANE_TOL}")
        a1g, a2g = np.meshgrid(a1v, a2v, indexing="ij")
        off = _branch_offset(branch)
        gap = max(np.max(_wrap_dist(res.alpha3 - a1g - off)),
                  np.max(_wrap_dist(res.alpha4 - a2g - off)))
        if not gap < PLANE_TOL:
            problems.append(f"color_map {branch}: {gap:.2e} rad off the closed-form plane")
        return problems

    def _check_design(self, result, center, half, branch) -> list:
        gait, biased, rep, rep_b, alpha, curves = result
        al = np.asarray(gait.alphas)
        lo, hi = np.asarray(center) - half, np.asarray(center) + half
        if (gait.color != branch
                or np.max(np.abs(al[:, 0:2].min(axis=0) - lo)) > 1e-12
                or np.max(np.abs(al[:, 0:2].max(axis=0) - hi)) > 1e-12):
            return ["gait does not traverse the requested rectangle on its branch"]
        problems = []
        bl = np.asarray(biased.alphas)
        if (not np.array_equal(bl[:, 0:2], al[:, 0:2])
                or not np.array_equal(bl[:, 2:4], BIAS * al[:, 2:4])):
            problems.append("biased gait is not the 0.8-scaled lift")
        n = self.sizes.design_phases
        for name, r in (("gait", rep), ("biased", rep_b)):
            if (r.n_phases != n or not 0 <= r.singular_phases <= n
                    or not 0.0 <= r.area_fraction <= 1.0 or not r.hover_margin > 0.0):
                problems.append(f"{name} robustness report out of range: {r}")
        problems += self._check_curves(curves, alpha)
        off = _branch_offset(branch)
        gaps = np.maximum(_wrap_dist(al[:, 2] - al[:, 0] - off),
                          _wrap_dist(al[:, 3] - al[:, 1] - off))
        stray = np.flatnonzero(~(gaps < PLANE_TOL))
        if stray.size:
            message = (f"lifted gait {gaps.max():.2e} rad off the closed-form {branch} "
                       f"plane at stations {stray.tolist()}")
            if not problems and self._rank_deficient_hops(al, gaps, stray):
                raise KnownDefect("OffBranch", message)
            problems.append(message)
        return problems

    def _rank_deficient_hops(self, alphas, gaps, stray) -> bool:
        """The lift's known defect: isolated interior stations on ``A = B = C = 0``.

        Each stray station has both neighbours on the plane and is a
        rank-deficient completion, where the branch sheet crosses that
        root family and the lift's corrector can hop onto it and back.
        """
        floor = RANK_DEFICIENT * self.linearization.abc_scale(self.params)
        for i in stray:
            if not 0 < i < len(alphas) - 1:
                return False
            if not (gaps[i - 1] < PLANE_TOL and gaps[i + 1] < PLANE_TOL):
                return False
            co = self.tr.det_decomposition(alphas[i], self.params)
            if not max(abs(co.A), abs(co.B), abs(co.C)) < floor:
                return False
        return True

    def _check_curves(self, curves, alpha) -> list:
        """Curve vertices lie in the grid and make the decoupling matrix singular."""
        verts = np.asarray(curves.vertices()).reshape(-1, 2)
        if verts.size == 0:
            return []
        g = self.grid
        slack = 1e-9
        if (verts[:, 0].min() < g.phi_min - slack or verts[:, 0].max() > g.phi_max + slack
                or verts[:, 1].min() < g.theta_min - slack
                or verts[:, 1].max() > g.theta_max + slack):
            return ["singular-curve vertex outside the attitude grid"]
        picks = verts[np.linspace(0, len(verts) - 1, min(16, len(verts))).astype(int)]
        worst = max(
            self.tr.decoupling_matrix((phi, theta, 0.0), alpha, self.params).ratio
            for phi, theta in picks
        )
        return [] if worst < 1e-6 else [f"singular-curve vertex with |det| ratio {worst:.2e}"]


WORKLOADS = {
    "track-gait1": TrackGait1,
    "cli-track": CliTrack,
    "gait-design": GaitDesign,
}


def measure(workload: _Workload, seconds: float, tracer=None, host=None) -> list:
    """Run operations for ``seconds`` (at least ``MIN_OPS``); return the records.

    A further operation starts only if the median duration of the primary
    operations so far still fits in the budget, so a run never overshoots
    by more than one operation.  With a :class:`hostspeed.HostSpeed`
    ``host``, its reference loop samples the host's speed throughout, and
    the time it takes is left out of the operations' durations.
    """
    if host is None:
        return _measure(workload, seconds, tracer, lambda: 0.0)
    host.sample(0.0)
    with host.sampling():
        return _measure(workload, seconds, tracer, lambda: host.seconds)


def _measure(workload, seconds, tracer, sampled) -> list:
    records: list[Record] = []
    primary: list[float] = []
    suspend = tracer.suspended if tracer is not None else contextlib.nullcontext
    counts = (lambda: {k: v[0] for k, v in tracer.stats.items()}) if tracer else dict
    start = time.perf_counter()
    for op in workload.ops():
        before = counts()
        s0 = sampled()
        t0 = time.perf_counter()
        rec = Record(op.kind, 0.0, work=op.work)
        try:
            out = op.run()
        except op.expected_errors as exc:
            rec.error, rec.known_defect = type(exc).__name__, True
        except Exception as exc:  # noqa: BLE001 - counted as a wrong operation, never raised
            rec.error = f"{type(exc).__name__}: {exc}"
        rec.seconds = time.perf_counter() - t0 - (sampled() - s0)
        after = counts()
        rec.calls = {k: n - before.get(k, 0) for k, n in after.items() if n != before.get(k, 0)}
        if rec.error is None:
            with suspend():
                try:
                    rec.problems = op.check(out)
                except KnownDefect as exc:
                    rec.error, rec.known_defect = exc.kind, True
                except Exception as exc:  # noqa: BLE001
                    rec.problems = [f"check raised {type(exc).__name__}: {exc}"]
            del out
        records.append(rec)
        if op.kind == workload.primary:
            primary.append(rec.seconds)
        if len(records) >= MIN_OPS and primary:
            if time.perf_counter() - start + statistics.median(primary) > seconds:
                break
    return records
