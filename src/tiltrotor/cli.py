"""Batch command-line front end.

Subcommands produce the experiment artifacts as CSV (17 significant
digits, exact round-trip) plus simple SVG plots:

* ``colormap`` -- branch completions over an (alpha1, alpha2) grid with
  plane fits,
* ``gaitgen``  -- gait schedule files (presets or custom rectangles),
* ``curves``   -- singular-attitude curves of a gait and its biased
  variant, with robustness metrics,
* ``track``    -- the closed-loop tracking run and its logs.

Exit codes: 0 success, 2 invalid input, 3 refused overwrite, 4 tracking
aborted (singular decoupling matrix, or pitch in the Euler-representation
guard band).  Existing outputs are never overwritten without ``--force``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from tiltrotor import gaitlab, sim
from tiltrotor.control import Gains, load_config
from tiltrotor.errors import AbortedSingular
from tiltrotor.model import Params
from tiltrotor.svgplot import LinePlot

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


def _prepare_outputs(args, names) -> list[str]:
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise CliError(
            f"--out {args.out}: cannot use it as the output directory ({exc.strerror})",
            EXIT_INVALID,
        ) from exc
    paths = [os.path.join(args.out, n) for n in names]
    if not args.force:
        existing = [p for p in paths if os.path.exists(p)]
        if existing:
            raise CliError(
                f"refusing to overwrite {', '.join(existing)} (use --force)", EXIT_REFUSED
            )
    return paths


def _fmt(value: float) -> str:
    return f"{value:.17g}"


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
    if not 0.0 < args.range <= 1.5707:
        raise CliError(f"--range must lie in (0, pi/2), got {args.range}", EXIT_INVALID)
    if args.res < 2:
        raise CliError(f"--res must be >= 2, got {args.res}", EXIT_INVALID)
    csv_path, json_path = _prepare_outputs(
        args, [f"colormap_{args.branch}.csv", f"colormap_{args.branch}_planes.json"]
    )
    values = np.linspace(-args.range, args.range, args.res)
    result = gaitlab.color_map(values, values, args.branch, params)

    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("alpha1,alpha2,alpha3,alpha4,residual_sign\n")
        for i, a1 in enumerate(result.alpha1_values):
            for j, a2 in enumerate(result.alpha2_values):
                fh.write(
                    f"{_fmt(a1)},{_fmt(a2)},{_fmt(result.alpha3[i, j])},"
                    f"{_fmt(result.alpha4[i, j])},{int(result.residual_sign[i, j])}\n"
                )

    def plane(fit):
        return {**dataclasses.asdict(fit), "coeffs": fit.coeffs.tolist()}

    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"branch": result.branch, "alpha3_plane": plane(result.plane3),
             "alpha4_plane": plane(result.plane4)},
            fh,
            indent=2,
        )
        fh.write("\n")
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def cmd_gaitgen(args) -> int:
    params, _ = _load_setup(args)
    if args.samples < 2:
        raise CliError(f"--samples must be >= 2, got {args.samples}", EXIT_INVALID)
    custom = [f"--{k}" for k in ("center", "half", "branch") if getattr(args, k) is not None]
    if args.preset and custom:
        raise CliError(
            f"--preset {args.preset} and {'/'.join(custom)} both name a gait; give one",
            EXIT_INVALID,
        )
    if args.preset:
        name = args.preset
        try:
            gait = gaitlab.build_preset(name, params, period=args.period)
        except ValueError as exc:
            raise CliError(f"gait construction failed: {exc}", EXIT_INVALID) from exc
    else:
        if args.center is None or args.half is None or args.branch is None:
            raise CliError("need --preset or (--center --half --branch)", EXIT_INVALID)
        name = "custom"
        try:
            gait = gaitlab.make_rectangle_gait(
                args.center, args.half, args.period, args.branch, params
            )
        except ValueError as exc:
            raise CliError(f"gait construction failed: {exc}", EXIT_INVALID) from exc
    if args.bias is not None:
        gait = _bias_gait(gait, args.bias)

    stem = args.output or f"gait_{name}"
    csv_path, _ = _prepare_outputs(args, [f"{stem}.csv", f"{stem}.json"])
    gait.to_csv(csv_path, n_samples=args.samples)
    print(f"wrote {csv_path} (+ sidecar)")
    return EXIT_OK


def cmd_curves(args) -> int:
    params, _ = _load_setup(args)
    if args.phases < 1:
        raise CliError(f"--phases must be >= 1, got {args.phases}", EXIT_INVALID)
    gait = _load_gait_arg(args, params)
    biased = _bias_gait(gait, args.bias)
    try:
        grid = gaitlab.AttitudeGrid.symmetric(args.grid_limit, args.grid_res)
    except ValueError as exc:
        raise CliError(f"bad attitude grid: {exc}", EXIT_INVALID) from exc
    csv_path, svg_path, json_path = _prepare_outputs(
        args, ["curves.csv", "curves.svg", "robustness.json"]
    )
    base_sets, report = gaitlab.curves_and_report(gait, grid, args.phases, params)
    biased_sets, report_b = gaitlab.curves_and_report(biased, grid, args.phases, params)

    curve_id = 0
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("phi,theta,curve_id\n")
        for sets in (base_sets, biased_sets):
            for cs in sets:
                for poly in cs.curves:
                    for phi, theta in poly:
                        fh.write(f"{_fmt(phi)},{_fmt(theta)},{curve_id}\n")
                    curve_id += 1

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

    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"bias": args.bias, "unbiased": dataclasses.asdict(report),
             "biased": dataclasses.asdict(report_b)},
            fh,
            indent=2,
        )
        fh.write("\n")
    print(
        f"wrote {csv_path}, {svg_path}, {json_path} "
        f"(area {report.area_fraction:.4f} vs biased {report_b.area_fraction:.4f})"
    )
    return EXIT_OK


def cmd_track(args) -> int:
    params, gains = _load_setup(args)
    try:
        config = sim.SimConfig(duration=args.duration, dt=args.dt)
    except ValueError as exc:
        raise CliError(f"--duration/--dt: {exc}", EXIT_INVALID) from exc
    gait = _load_gait_arg(args, params)
    if args.bias is not None:
        gait = _bias_gait(gait, args.bias)
    paths = _prepare_outputs(
        args, ["track.csv", "trajectory.svg", "error.svg", "rotors.svg"]
    )
    aborted = None
    try:
        log = sim.run_tracking(config, params, gains, gait)
    except AbortedSingular as exc:
        # keep the message, not the exception: its traceback holds the
        # loop's frame, and with it memory the writers below could reuse
        log = exc.log
        aborted = str(exc)

    _write_track_outputs(log, paths)
    if aborted is not None:
        print(f"{aborted}; {log.summary()}")
        return EXIT_ABORTED
    err = sim.error_series(log)
    print(f"wrote {paths[0]}; final position error {err.norm[-1]:.4f} m; {log.summary()}")
    return EXIT_OK


def _write_track_outputs(log, paths) -> None:
    csv_path, traj_path, err_path, rotors_path = paths
    log.to_csv(csv_path)

    lim = max(6.0, float(np.max(np.abs(log.states[:, 0:2]))) * 1.05 + 0.5)
    plot = LinePlot((-lim, lim), (-lim, lim), width=560, height=560,
                    title="trajectory (blue: reference, red: actual)")
    th = np.linspace(0.0, 2.0 * np.pi, 361)
    plot.polyline(sim.CIRCLE_RADIUS * np.cos(th), sim.CIRCLE_RADIUS * np.sin(th), color="blue")
    plot.polyline(log.states[:, 0], log.states[:, 1], color="red")
    plot.save(traj_path)

    err = sim.error_series(log)
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
    p.add_argument("--branch", choices=("blue", "red"), required=True)
    p.add_argument("--range", type=float, default=0.6, help="grid half-range [rad]")
    p.add_argument("--res", type=int, default=21, help="grid points per axis")
    p.set_defaults(func=cmd_colormap)

    p = sub.add_parser("gaitgen", help="generate a gait schedule file")
    p.add_argument("--preset", choices=sorted(gaitlab.GAIT_PRESETS))
    p.add_argument("--center", type=float, nargs=2, metavar=("A1", "A2"))
    p.add_argument("--half", type=float, nargs=2, metavar=("H1", "H2"))
    p.add_argument("--branch", choices=("blue", "red"))
    p.add_argument("--period", type=float, default=gaitlab.DEFAULT_GAIT_PERIOD)
    p.add_argument("--bias", type=float, default=None)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--output", help="output stem (default gait_<preset>)")
    p.set_defaults(func=cmd_gaitgen)

    p = sub.add_parser("curves", help="singular-attitude curves and robustness metrics")
    p.add_argument("--gait", help="gait CSV file (with JSON sidecar)")
    p.add_argument("--preset", choices=sorted(gaitlab.GAIT_PRESETS))
    p.add_argument("--bias", type=float, default=0.8, help="bias factor for the comparison gait")
    p.add_argument("--phases", type=int, default=64)
    p.add_argument("--grid-limit", type=float, default=1.3)
    p.add_argument("--grid-res", type=int, default=241)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("track", help="closed-loop circular tracking run")
    p.add_argument("--gait", help="gait CSV file (with JSON sidecar)")
    p.add_argument("--preset", choices=sorted(gaitlab.GAIT_PRESETS))
    p.add_argument("--bias", type=float, default=None)
    p.add_argument("--duration", type=float, default=120.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.set_defaults(func=cmd_track)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
