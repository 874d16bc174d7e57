#!/usr/bin/env python3
"""Benchmark of the tiltrotor package on its pure-Python path.

Run from the root of a checkout:

    python3 perfbench/run.py --workload track-gait1 --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``track-gait1``,
``cli-track``, ``gait-design``.  Only ``gait-design`` uses ``--seed``.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` first runs the same workload untraced in a child process
(without the set-up probes) for the untraced wall time, then repeats it
here with the tracer's wrappers installed and reports the per-layer
metrics.

The program is imported from ``src/`` of the checkout this file lives in,
always on the pure-Python path (``TILTROTOR_PURE=1``, here and in every
child process); the benchmark exits with code 2 when the package is
missing or reports another kernel backend.  Every operation's
output is checked; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and the lines before it
give the environment and the workload's own figures with their units.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter

import numpy as np

from hostspeed import HostSpeed
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, Sizes, measure

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def use_checkout():
    """Import the package from the checkout's ``src`` on its pure-Python path."""
    if not os.path.isfile(os.path.join(SRC, "tiltrotor", "__init__.py")):
        _fail(f"no package at {SRC}/tiltrotor")
    os.environ["TILTROTOR_PURE"] = "1"
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import tiltrotor

    if os.path.dirname(os.path.abspath(tiltrotor.__file__)) != os.path.join(SRC, "tiltrotor"):
        _fail(f"tiltrotor imported from {tiltrotor.__file__}, not {SRC}")
    backend = getattr(tiltrotor, "backend_name", lambda: "python")()
    if backend != "python":
        _fail(f"kernel backend is {backend!r}, not the pure-Python path")
    return tiltrotor


def _child_env() -> dict:
    env = dict(os.environ, TILTROTOR_PURE="1")
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment(tr) -> dict:
    backend = getattr(tr, "backend_name", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": backend() if backend is not None else "absent",
        "TILTROTOR_PURE": os.environ.get("TILTROTOR_PURE", ""),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "machine": platform.machine(),
        "commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def setup_probes() -> list:
    """``(seconds, host speed)`` of set-up in fresh interpreters (see ``setup_probe.py``)."""
    probe = os.path.join(HERE, "setup_probe.py")
    probes = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, probe], cwd=ROOT, env=_child_env(),
                             capture_output=True, text=True, timeout=60, check=True)
        seconds, speed = out.stdout.split()[-2:]
        probes.append((float(seconds), float(speed)))
    return probes


def _percentile(values, q) -> float:
    return float(np.percentile(values, q))


def _latencies(wl, records) -> list:
    prim = [r for r in records if r.kind == wl.primary]
    return [r.seconds for r in prim if r.error is None] or [r.seconds for r in prim]


def end_to_end(wl, records, probes, host) -> dict:
    """The bounded metrics; both times are scaled to the nominal host speed."""
    prim = [r for r in records if r.kind == wl.primary]
    busy = sum(r.seconds for r in prim) * host.speed
    values = {
        "setup_s": statistics.median(seconds * speed for seconds, speed in probes),
        # successful operations per second of operation time, failed ones included
        "ops_per_s": sum(1 for r in prim if r.ok) / busy if busy > 0 else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: (v, E2E_UNITS[k]) for k, v in values.items()}


def host_figures(probes, host) -> dict:
    """The host speeds used by :func:`end_to_end`, and the unscaled set-up time."""
    return {
        "host_speed": (host.speed, "ratio"),
        "setup_host_speed": (statistics.median(speed for _, speed in probes), "ratio"),
        "setup_unscaled_s": (statistics.median(seconds for seconds, _ in probes), "s"),
    }


def workload_figures(wl, records) -> dict:
    """The workload's own end-to-end figures, printed beside the contract metrics."""
    out = {
        "attempted": (len(records), "count"),
        # wrong outputs and the lift's known defect, over attempted
        "failed_ratio": (sum(1 for r in records if not r.ok) / len(records), "ratio"),
    }
    prim = [r for r in records if r.kind == wl.primary and r.ok]
    lat = _latencies(wl, records)
    busy = sum(r.seconds for r in prim)
    if wl.primary == "track" and busy > 0:
        out["track_steps_per_s"] = (sum(r.work["steps"] for r in prim) / busy, "1/s")
    elif wl.primary == "cli" and prim:
        out["cli_track_s"] = (statistics.median(lat), "s")
        out["cli_steps_per_s"] = (sum(r.work["steps"] for r in prim) / busy, "1/s")
        out["cli_bytes_written"] = (statistics.mean(r.work["bytes"] for r in prim), "B")
    elif wl.primary == "design":
        out["design_gaits"] = (len(lat), "count")
        out["design_gaits_per_s"] = (len(prim) / busy if busy > 0 else 0.0, "1/s")
        out["design_gait_ms_p50"] = (statistics.median(lat) * 1e3, "ms")
        out["design_gait_ms_p90"] = (_percentile(lat, 90) * 1e3, "ms")
        cmaps = [r for r in records if r.kind == "color_map" and r.ok]
        cm_s = sum(r.seconds for r in cmaps)
        out["design_cells_per_s"] = (sum(r.work["cells"] for r in cmaps) / cm_s
                                     if cm_s > 0 else 0.0, "1/s")
        rob_s = sum(r.work["robustness_s"] for r in prim)
        out["design_phases_per_s"] = (sum(r.work["phases"] for r in prim) / rob_s
                                      if rob_s > 0 else 0.0, "1/s")
        for name, n in sorted(Counter(r.error for r in records if r.known_defect).items()):
            out[f"lift_failures.{name}"] = (n, "count")
    return out


def per_layer(wl, records, tracer, untraced_seconds) -> dict:
    """Per-layer metrics of a traced run; layers a workload does not reach read 0."""
    t = tracer

    def per_call(name, scale, self_only=False):
        n = t.calls(name)
        if not n:
            return 0.0
        return (t.self_time(name) if self_only else t.total(name)) / n * scale

    def ratio(a, b):
        return a / b if b else 0.0

    rows = sum(r for r, _, _ in t.logs)
    prim = [r for r in records if r.kind == wl.primary]
    cmaps = [r for r in records if r.kind == "color_map"]
    designs = [r for r in records if r.kind == "design"]
    cells = sum(r.work["cells"] for r in cmaps)
    phases = sum(r.work.get("phases", 0) for r in designs)
    lifts = Counter(r.error for r in records if r.known_defect)
    wall = sum(r.seconds for r in records)
    traced = [r.seconds for r in prim][:len(untraced_seconds)]

    m = {
        "model.rk4_step_us": (per_call("model.rk4_step", 1e6), "us"),
        "model.rk4_calls_per_step": (ratio(t.calls("model.rk4_step"), rows), "count"),
        "linearization.decoupling_us": (per_call("linearization.decoupling", 1e6), "us"),
        "linearization.det_decomposition_us":
            (per_call("linearization.det_decomposition", 1e6), "us"),
        "linearization.det_decomposition_calls_per_op":
            (ratio(t.calls("linearization.det_decomposition"), len(prim)), "count"),
        "control.fl_core_self_us": (per_call("control.fl_core", 1e6, self_only=True), "us"),
        "control.decoupler_us": (per_call("control.decoupler", 1e6), "us"),
        "control.solve4_us": (per_call("control.solve4", 1e6), "us"),
        "control.min_det_ratio":
            (t.min_det_ratio if t.min_det_ratio is not None else -1.0, "ratio"),
        "control.saturated_steps": (ratio(sum(s for _, s, _ in t.logs), len(prim)), "count"),
        "control.singular_steps": (ratio(sum(s for _, _, s in t.logs), len(prim)), "count"),
        "gaitlab.sample_us": (per_call("gaitlab.sample", 1e6), "us"),
        "gaitlab.samples_per_step": (ratio(t.calls("gaitlab.sample"), rows), "count"),
        "gaitlab.make_rectangle_gait_ms": (per_call("gaitlab.make_rectangle_gait", 1e3), "ms"),
        "gaitlab.solve_color_pair_us": (per_call("gaitlab.solve_color_pair", 1e6), "us"),
        "gaitlab.newton_ab_calls_per_cell":
            (ratio(sum(r.calls.get("gaitlab.newton_ab", 0) for r in cmaps), cells), "count"),
        "gaitlab.newton_ab_calls_per_gait":
            (ratio(sum(r.calls.get("gaitlab.newton_ab", 0) for r in designs), len(designs)),
             "count"),
        "gaitlab.color_map_ms": (per_call("gaitlab.color_map", 1e3), "ms"),
        "gaitlab.color_map_cells_per_s": (ratio(cells, t.total("gaitlab.color_map")), "1/s"),
        "gaitlab.robustness_report_ms": (per_call("gaitlab.robustness_report", 1e3), "ms"),
        "gaitlab.robustness_phases_per_s":
            (ratio(phases, t.total("gaitlab.robustness_report")), "1/s"),
        "gaitlab.singular_curves_ms": (per_call("gaitlab.singular_curves", 1e3), "ms"),
        "gaitlab.lift_failures": (sum(lifts.values()), "count"),
        "sim.reference_us": (per_call("sim.reference", 1e6), "us"),
        "sim.loop_self_us_per_step": (ratio(t.self_time("sim.run_tracking"), rows) * 1e6, "us"),
        "sim.to_csv_s": (per_call("sim.to_csv", 1.0), "s"),
        "sim.to_csv_rows_per_s": (ratio(t.to_csv_rows, t.total("sim.to_csv")), "1/s"),
        "svgplot.polyline_ms": (per_call("svgplot.polyline", 1e3), "ms"),
        "svgplot.save_s": (per_call("svgplot.save", 1.0), "s"),
        "cli.bytes_written": (ratio(sum(r.work.get("bytes", 0) for r in prim), len(prim)), "B"),
    }
    for name in ("ContinuationBreak", "NoRoot", "Degenerate", "OffBranch"):
        m[f"gaitlab.lift_failures.{name}"] = (lifts.get(name, 0), "count")
    accounted = 0.0
    for layer in LAYERS:
        busy = sum(t.self_time(n) for n in t.stats if n.split(".", 1)[0] == layer)
        accounted += busy
        m[f"share.{layer}"] = (100.0 * ratio(busy, wall), "%")
    m["share.unaccounted"] = (100.0 * ratio(wall - accounted, wall), "%")
    # the same leading operations, traced here and untraced in the child
    m["trace.overhead_ratio"] = (ratio(sum(traced), sum(untraced_seconds[:len(traced)])),
                                 "ratio")
    return m


def summary(records) -> tuple:
    """``(correct, attempted, failed)``: no wrong output; operations; wrong operations.

    The lift's known defect is not a failure here: how many rectangles a
    time-bounded run reaches varies, and with it the number of defects it
    meets, so it is reported in ``failed_ratio``, ``lift_failures.*`` and
    ``gaitlab.lift_failures`` instead.
    """
    wrong = sum(1 for r in records if r.wrong)
    return wrong == 0, len(records), wrong


def _untraced_run(args) -> dict:
    """The workload run untraced in a child: ``{"correct", "op_seconds"}``."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--op-seconds-only"]
    out = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        _fail(f"untraced run exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def run(args) -> dict:
    """Measure one workload; return the result object printed as the last line."""
    tr = use_checkout()
    print("env " + json.dumps(environment(tr), sort_keys=True))
    untraced = _untraced_run(args) if args.trace else None
    probes = None if args.trace or args.op_seconds_only else setup_probes()
    figures = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        wl = WORKLOADS[args.workload](args.seed, Sizes(), tmp)
        wl.setup()
        if args.trace:
            with Tracer() as tracer:
                records = measure(wl, args.seconds, tracer)
            if tracer.absent:
                print("absent (not traced): " + ", ".join(tracer.absent))
            metrics = per_layer(wl, records, tracer, untraced["op_seconds"])
        elif args.op_seconds_only:
            records = measure(wl, args.seconds)
            return {"correct": summary(records)[0],
                    "op_seconds": [r.seconds for r in records if r.kind == wl.primary]}
        else:
            host = HostSpeed()
            records = measure(wl, args.seconds, host=host)
            metrics = end_to_end(wl, records, probes, host)
            figures = host_figures(probes, host)
    figures.update(workload_figures(wl, records))
    for name, (value, unit) in {**figures, **metrics}.items():
        print(f"{args.workload:12s} {name:46s} {value:>16.6g} {unit}")
    for r in records:
        if r.wrong:
            print(f"WRONG {r.kind}: {r.error or '; '.join(r.problems)}")
    correct, attempted, failed = summary(records)
    return {
        "correct": correct and (untraced is None or untraced["correct"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # the untraced child of a --trace 1 run: no set-up probes, no metrics
    ap.add_argument("--op-seconds-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
