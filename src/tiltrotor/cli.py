"""Batch command-line front end.

Subcommands produce the experiment artifacts as CSV (17 significant
digits, exact round-trip) and JSON, plus simple SVG plots:

* ``colormap`` -- branch completions over an (alpha1, alpha2) grid with
  their branch planes,
* ``gaitgen``  -- gait files (presets or custom rectangles): one row per
  waypoint plus a JSON sidecar, which ``--gait`` reads back as the same
  gait,
* ``curves``   -- singular-attitude curves of a gait and its biased
  variant, with robustness metrics,
* ``track``    -- the closed-loop tracking run and its logs.

Exit codes: 0 success, 2 invalid input (also a result that does not fit
in memory), 3 refused overwrite, 4 tracking aborted (singular decoupling
matrix, or pitch in the Euler-representation guard band).  Every command
refuses its outputs before its work and makes ``--out`` only after it, so
a refused run leaves no directory.  Existing outputs are never
overwritten without ``--force``.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from tiltrotor import gaitlab
from tiltrotor._files import write_csv, write_object
from tiltrotor.control import Gains, load_config
from tiltrotor.errors import AbortedSingular
from tiltrotor.model import Params

# sim and svgplot are imported by the commands that use them, so that
# gaitgen and colormap compile neither

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_REFUSED = 3
EXIT_ABORTED = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_setup(args) -> tuple[Params, Gains]:
    if args.config:
        try:
            return load_config(args.config)
        except (OSError, ValueError) as exc:
            raise CliError(f"bad config {args.config}: {exc}", EXIT_INVALID) from exc
    return Params(), Gains()


def _output_paths(args, names) -> list[str]:
    """The paths of ``names`` in ``--out``, refused before anything is made.

    Exit 2 if ``--out`` cannot be made a directory (a file stands at it or
    above it, or its nearest existing parent is not writable), exit 3 if a
    path exists and ``--force`` is not given.
    """
    out = top = os.path.abspath(args.out)
    while not os.path.exists(top):
        top = os.path.dirname(top)
    if not os.path.isdir(top) or (top != out and not os.access(top, os.W_OK | os.X_OK)):
        raise CliError(f"--out {args.out}: cannot use it as the output directory", EXIT_INVALID)
    paths = [os.path.join(args.out, n) for n in names]
    if not args.force:
        existing = [p for p in paths if os.path.exists(p)]
        if existing:
            raise CliError(
                f"refusing to overwrite {', '.join(existing)} (use --force)", EXIT_REFUSED
            )
    return paths


def _make_out(args) -> None:
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise CliError(
            f"--out {args.out}: cannot use it as the output directory ({exc.strerror})",
            EXIT_INVALID,
        ) from exc


def _bias_gait(gait: gaitlab.Gait, factor: float) -> gaitlab.Gait:
    try:
        return gaitlab.bias_gait(gait, factor)
    except ValueError as exc:
        raise CliError(f"--bias: {exc}", EXIT_INVALID) from exc


def _load_gait_arg(args, params: Params) -> gaitlab.Gait:
    if args.gait and args.preset:
        raise CliError(
            f"--gait {args.gait} and --preset {args.preset} both name a gait; give one",
            EXIT_INVALID,
        )
    if args.gait:
        try:
            return gaitlab.load_gait(args.gait)
        except (OSError, ValueError) as exc:
            raise CliError(f"bad gait file {args.gait}: {exc}", EXIT_INVALID) from exc
    if args.preset:
        return gaitlab.build_preset(args.preset, params)
    raise CliError("need --gait FILE or --preset NAME", EXIT_INVALID)


# ---------------------------------------------------------------------------


def cmd_colormap(args) -> int:
    params, _ = _load_setup(args)
    if not 0.0 < args.range < math.pi / 2:
        raise CliError(f"--range must lie in (0, pi/2), got {args.range}", EXIT_INVALID)
    if args.res < 2:
        raise CliError(f"--res must be >= 2, got {args.res}", EXIT_INVALID)
    csv_path, json_path = _output_paths(
        args, [f"colormap_{args.branch}.csv", f"colormap_{args.branch}_planes.json"]
    )
    values = np.linspace(-args.range, args.range, args.res)
    result = gaitlab.color_map(values, values, args.branch, params)
    _make_out(args)

    a1, a2 = result.alpha1_values, result.alpha2_values
    write_csv(csv_path, "alpha1,alpha2,alpha3,alpha4,residual_sign", [
        a1.repeat(a2.size), np.tile(a2, a1.size), result.alpha3.ravel(),
        result.alpha4.ravel(), result.residual_sign.ravel(),
    ])

    def plane(fit):
        return {**dataclasses.asdict(fit), "coeffs": fit.coeffs.tolist()}

    write_object(json_path, {"branch": result.branch, "alpha3_plane": plane(result.plane3),
                             "alpha4_plane": plane(result.plane4)})
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def cmd_gaitgen(args) -> int:
    params, _ = _load_setup(args)
    custom = [f"--{k}" for k in ("center", "half", "branch") if getattr(args, k) is not None]
    if args.preset and custom:
        raise CliError(
            f"--preset {args.preset} and {'/'.join(custom)} both name a gait; give one",
            EXIT_INVALID,
        )
    if not args.preset and len(custom) < 3:
        raise CliError("need --preset or (--center --half --branch)", EXIT_INVALID)
    if args.output and any(sep and sep in args.output for sep in (os.sep, os.altsep)):
        raise CliError(f"--output {args.output}: give a stem without a directory", EXIT_INVALID)
    try:
        if args.preset:
            gait = gaitlab.build_preset(args.preset, params, period=args.period)
        else:
            gait = gaitlab.make_rectangle_gait(
                args.center, args.half, args.period, args.branch, params
            )
    except ValueError as exc:
        raise CliError(f"gait construction failed: {exc}", EXIT_INVALID) from exc
    if args.bias is not None:
        gait = _bias_gait(gait, args.bias)

    stem = args.output or f"gait_{args.preset or 'custom'}"
    csv_path, _ = _output_paths(args, [f"{stem}.csv", f"{stem}.json"])
    _make_out(args)
    gait.to_csv(csv_path)
    print(f"wrote {csv_path} (+ sidecar)")
    return EXIT_OK


def cmd_curves(args) -> int:
    from tiltrotor.svgplot import LinePlot

    params, _ = _load_setup(args)
    if args.phases < 1:
        raise CliError(f"--phases must be >= 1, got {args.phases}", EXIT_INVALID)
    gait = _load_gait_arg(args, params)
    biased = _bias_gait(gait, args.bias)
    try:
        grid = gaitlab.AttitudeGrid.symmetric(args.grid_limit, args.grid_res)
    except ValueError as exc:
        raise CliError(f"bad attitude grid: {exc}", EXIT_INVALID) from exc
    csv_path, svg_path, json_path = _output_paths(
        args, ["curves.csv", "curves.svg", "robustness.json"]
    )
    base_sets, report = gaitlab.curves_and_report(gait, grid, args.phases, params)
    biased_sets, report_b = gaitlab.curves_and_report(biased, grid, args.phases, params)
    _make_out(args)

    polys = [poly for sets in (base_sets, biased_sets) for cs in sets for poly in cs.curves]
    write_csv(csv_path, "phi,theta,curve_id", [
        np.concatenate([np.empty((0, 2)), *polys]),
        np.arange(len(polys)).repeat([len(poly) for poly in polys]),
    ])

    plot = LinePlot(
        (grid.phi_min, grid.phi_max), (grid.theta_min, grid.theta_max),
        title="singular attitudes: unbiased (red) vs biased (blue)",
    )
    for cs in base_sets:
        for poly in cs.curves:
            plot.polyline(poly[:, 0], poly[:, 1], color="red")
    for cs in biased_sets:
        for poly in cs.curves:
            plot.polyline(poly[:, 0], poly[:, 1], color="blue")
    plot.save(svg_path)

    write_object(json_path, {"bias": args.bias, "unbiased": dataclasses.asdict(report),
                             "biased": dataclasses.asdict(report_b)})
    print(
        f"wrote {csv_path}, {svg_path}, {json_path} "
        f"(area {report.area_fraction:.4f} vs biased {report_b.area_fraction:.4f})"
    )
    return EXIT_OK


def cmd_track(args) -> int:
    from tiltrotor import sim

    params, gains = _load_setup(args)
    try:
        config = sim.SimConfig(duration=args.duration, dt=args.dt)
    except ValueError as exc:
        raise CliError(f"--duration/--dt: {exc}", EXIT_INVALID) from exc
    gait = _load_gait_arg(args, params)
    if args.bias is not None:
        gait = _bias_gait(gait, args.bias)
    paths = _output_paths(args, ["track.csv", "trajectory.svg", "error.svg", "rotors.svg"])
    aborted = None
    try:
        log = sim.run_tracking(config, params, gains, gait)
    except AbortedSingular as exc:
        # keep the message, not the exception: its traceback holds the
        # loop's frame, and with it memory the writers below could reuse
        log = exc.log
        aborted = str(exc)

    _make_out(args)
    err = sim.error_series(log)
    _write_track_outputs(log, err, paths)
    if aborted is not None:
        print(f"{aborted}; {log.summary()}")
        return EXIT_ABORTED
    print(f"wrote {paths[0]}; final position error {err.norm[-1]:.4f} m; {log.summary()}")
    return EXIT_OK


def _write_track_outputs(log, err, paths) -> None:
    from tiltrotor import sim
    from tiltrotor.svgplot import LinePlot

    csv_path, traj_path, err_path, rotors_path = paths
    log.to_csv(csv_path)

    lim = max(6.0, float(np.max(np.abs(log.states[:, 0:2]))) * 1.05 + 0.5)
    plot = LinePlot((-lim, lim), (-lim, lim), width=560, height=560,
                    title="trajectory (blue: reference, red: actual)")
    th = np.linspace(0.0, 2.0 * np.pi, 361)
    plot.polyline(sim.CIRCLE_RADIUS * np.cos(th), sim.CIRCLE_RADIUS * np.sin(th), color="blue")
    plot.polyline(log.states[:, 0], log.states[:, 1], color="red")
    plot.save(traj_path)

    top = max(1e-3, float(err.norm.max()) * 1.05)
    plot = LinePlot((0.0, max(log.t[-1], 1e-3)), (0.0, top), title="position error norm [m]")
    plot.polyline(err.t, err.norm, color="red")
    plot.save(err_path)

    vmax = float(np.max(np.abs(log.varpi))) * 1.05 + 1.0
    plot = LinePlot((0.0, max(log.t[-1], 1e-3)), (-vmax, vmax), title="rotor speeds [rad/s]")
    for k, color in enumerate(("red", "blue", "green", "orange")):
        plot.polyline(log.t, log.varpi[:, k], color=color)
    plot.save(rotors_path)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiltrotor", description="tilt-rotor gait planning and tracking experiments"
    )
    parser.add_argument("--config", help="JSON configuration file (parameters and gains)")
    parser.add_argument("--out", default=".", help="output directory (created if absent)")
    parser.add_argument("--force", action="store_true", help="allow overwriting outputs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("colormap", help="branch completions over an (alpha1, alpha2) grid")
    p.add_argument("--branch", choices=sorted(gaitlab.BRANCH_OFFSETS), required=True)
    p.add_argument("--range", type=float, default=0.6, help="grid half-range [rad]")
    p.add_argument("--res", type=int, default=21, help="grid points per axis")
    p.set_defaults(func=cmd_colormap, size="--res")

    p = sub.add_parser("gaitgen", help="generate a gait schedule file")
    p.add_argument("--preset", choices=sorted(gaitlab.GAIT_PRESETS))
    p.add_argument("--center", type=float, nargs=2, metavar=("A1", "A2"))
    p.add_argument("--half", type=float, nargs=2, metavar=("H1", "H2"))
    p.add_argument("--branch", choices=sorted(gaitlab.BRANCH_OFFSETS))
    p.add_argument("--period", type=float, default=gaitlab.DEFAULT_GAIT_PERIOD)
    p.add_argument("--bias", type=float, default=None)
    p.add_argument("--output", help="file stem in --out, no directory (default gait_<preset>)")
    p.set_defaults(func=cmd_gaitgen, size="gaitgen")

    p = sub.add_parser("curves", help="singular-attitude curves and robustness metrics")
    p.add_argument("--gait", help="gait CSV file (with JSON sidecar)")
    p.add_argument("--preset", choices=sorted(gaitlab.GAIT_PRESETS))
    p.add_argument("--bias", type=float, default=0.8, help="bias factor for the comparison gait")
    p.add_argument("--phases", type=int, default=64)
    p.add_argument("--grid-limit", type=float, default=1.3)
    p.add_argument("--grid-res", type=int, default=241)
    p.set_defaults(func=cmd_curves, size="--grid-res/--phases")

    p = sub.add_parser("track", help="closed-loop circular tracking run")
    p.add_argument("--gait", help="gait CSV file (with JSON sidecar)")
    p.add_argument("--preset", choices=sorted(gaitlab.GAIT_PRESETS))
    p.add_argument("--bias", type=float, default=None)
    p.add_argument("--duration", type=float, default=120.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.set_defaults(func=cmd_track, size="--duration/--dt")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except MemoryError as exc:
        # raised by the work, which every command runs before it makes --out
        print(f"{args.size}: the result of this run does not fit in memory ({exc})",
              file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
