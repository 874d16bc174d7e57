"""Byte-identity digests of the package's outputs, for comparing two trees.

Run it on each tree, then compare::

    PYTHONPATH=<tree>/src python tests/_identity.py --out parent.json --arrays
    PYTHONPATH=<tree>/src python tests/_identity.py --out change.json --arrays
    python tests/_identity.py --compare parent.json change.json

``--out FILE`` writes one sha256 per item as a JSON object.  With
``--arrays`` the arrays behind each digest also go to ``FILE`` with the
extension replaced by ``.npz``.  ``--compare A B`` names each item whose
digest differs, is missing on one side, and, where both ``.npz`` files
exist, its largest relative difference; it exits 1 when any item differs.

The items use only the public API and the CLI:

* ``track/<preset>``: the ``TrackLog`` of gait1 over 20 s and of the
  gait2 and gait3 runs to their aborts (10 s configuration);
* ``maps/*``: ``decoupling_matrix`` (``delta``, ``det``, ``scale``),
  ``drift_vector``, ``euler_rate_matrix`` and ``state_derivative`` on
  3000 seeded draws, and ``control.tilt_factors`` of 300 seeded tilts,
  as float rows and as one block;
* ``rectangles/*``: 400 seeded rectangle gaits and their 0.8-biased
  variants: waypoints and angles, ``sample_array`` at seeded times,
  ``robustness_report``, ``curves_and_report`` and ``singular_curves``
  on a 41 x 41 grid with 4 phases;
* ``presets/<preset>@<bias>``: the curves and report of each preset, plain
  and 0.8-biased, on a 241 x 241 grid with 64 phases;
* ``color_map/<branch>``: the completions and residual signs of a seeded
  grid;
* ``cli/<run>/<file>``: the files written by ``colormap`` (both
  branches), ``gaitgen`` (the presets, and gait1 0.8-biased), ``curves
  --preset gait1`` and ``track`` of the three presets.

:func:`collect` with :data:`QUICK` runs every item at reduced sizes;
the Tier-1 test that does so keeps this script from going stale.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

# the package is imported where an item needs it, so --compare runs
# without it


@dataclass(frozen=True)
class Sizes:
    draws: int = 3000
    tilts: int = 300
    rectangles: int = 400
    design_grid: int = 41
    design_phases: int = 4
    preset_grid: int = 241
    preset_phases: int = 64
    cmap_res: int = 21
    gait1_s: float = 20.0
    abort_s: float = 10.0
    cli_grid: int = 241
    cli_phases: int = 64


FULL = Sizes()
QUICK = Sizes(draws=20, tilts=5, rectangles=4, design_grid=21, preset_grid=21, preset_phases=4, cmap_res=5,
              gait1_s=0.05, abort_s=0.9, cli_grid=21, cli_phases=4)

BIAS = 0.8
TRACK_FIELDS = ("t", "states", "alpha", "varpi", "ref_pos", "det", "saturated", "singular")


def _track(name, duration, params, gains):
    import tiltrotor as tr

    gait = tr.build_preset(name, params)
    try:
        log = tr.run_tracking(tr.SimConfig(duration=duration), params, gains, gait)
    except tr.AbortedSingular as exc:
        log = exc.log
    arrays = {f: getattr(log, f) for f in TRACK_FIELDS}
    arrays["end_reason"] = np.array(str(log.end_reason))
    arrays["min_det_ratio"] = np.array(np.nan if log.min_det_ratio is None else log.min_det_ratio)
    return arrays


def _maps(sizes, params):
    import math

    import tiltrotor as tr
    from tiltrotor.control import tilt_factors

    rng = np.random.default_rng([2024, 3])
    delta, det, drift, euler, deriv = [], [], [], [], []
    for _ in range(sizes.draws):
        eta = np.array([rng.uniform(-1.3, 1.3), rng.uniform(-1.3, 1.3), rng.uniform(-4, 4)])
        state = tr.State(rng.normal(size=3), rng.normal(size=3), eta, rng.normal(size=3))
        alpha, w = rng.uniform(-4.0, 4.0, 4), rng.uniform(-3e5, 3e5, 4)
        d = tr.decoupling_matrix(eta, alpha, params)
        delta.append(d.delta)
        det.append((d.det, d.scale))
        drift.append(tr.drift_vector(state, params))
        euler.append(tr.euler_rate_matrix(eta))
        deriv.append(tr.state_derivative(state, alpha, w, params))
    tilts = [[f(a) for f in (math.sin, math.cos) for a in alpha]
             for alpha in rng.uniform(-4.0, 4.0, (sizes.tilts, 4)).tolist()]
    return {
        "maps/decoupling_matrix": {"delta": np.array(delta), "det_scale": np.array(det)},
        "maps/drift_vector": {"b": np.array(drift)},
        "maps/euler_rate_matrix": {"T": np.array(euler)},
        "maps/state_derivative": {"xdot": np.array(deriv)},
        "maps/tilt_factors": {
            "rows": np.array([tilt_factors(tilt, params.pack) for tilt in tilts]),
            "block": np.array(tilt_factors(tuple(np.array(tilts).T), params.pack)).T,
        },
    }


def _curves(sets):
    """The polylines of curve sets as one vertex array and its lengths."""
    polys = [poly for cs in sets for poly in cs.curves]
    return {
        "vertices": np.concatenate(polys) if polys else np.empty((0, 2)),
        "lengths": np.array([len(poly) for poly in polys], dtype=np.int64),
        "per_set": np.array([len(cs.curves) for cs in sets], dtype=np.int64),
    }


def _report(rep):
    return [rep.area_fraction, rep.hover_margin, rep.n_phases, rep.singular_phases]


def _rectangles(sizes, params):
    import tiltrotor as tr
    from tiltrotor import gaitlab

    rng = np.random.default_rng([2024, 21])
    grid = tr.AttitudeGrid.symmetric(1.3, sizes.design_grid)
    n = sizes.design_phases
    gaits, samples, reports, sets, single = [], [], [], [], []
    for k in range(sizes.rectangles):
        center, half = rng.uniform(-1.2, 1.2, 2), rng.uniform(0.05, 0.4, 2)
        times = rng.uniform(-20.0, 40.0, 8)
        phase = float(rng.uniform())
        gait = tr.make_rectangle_gait(center, half, 10.0, ("blue", "red")[k % 2], params)
        for g in (gait, tr.bias_gait(gait, BIAS)):
            gaits.append(np.column_stack([g.waypoints, g.alphas]))
            samples.append(g.sample_array(times))
            curve_sets, rep = gaitlab.curves_and_report(g, grid, n, params)
            reports += [_report(tr.robustness_report(g, grid, n, params)), _report(rep)]
            sets += curve_sets
            single.append(tr.singular_curves(tuple(g.sample_raw(phase * 10.0)), grid, params))
    return {
        "rectangles/gaits": {"rows": np.concatenate(gaits),
                             "lengths": np.array([len(g) for g in gaits], dtype=np.int64)},
        "rectangles/sample_array": {"angles": np.concatenate(samples)},
        "rectangles/reports": {"fields": np.array(reports)},
        "rectangles/curves": _curves(sets),
        "rectangles/singular_curves": _curves(single),
    }


def _cli_files(sizes, tmp):
    """Run the CLI commands into ``tmp`` and read back every file they wrote."""
    from tiltrotor.cli import main as cli_main

    runs = {
        "colormap_blue": ["colormap", "--branch", "blue", "--res", str(sizes.cmap_res)],
        "colormap_red": ["colormap", "--branch", "red", "--res", str(sizes.cmap_res)],
        "gaitgen": ["gaitgen", "--preset", "gait1"],
        "gaitgen_gait2": ["gaitgen", "--preset", "gait2"],
        "gaitgen_gait3": ["gaitgen", "--preset", "gait3"],
        "gaitgen_biased": ["gaitgen", "--preset", "gait1", "--bias", str(BIAS),
                           "--output", "gait_gait1_biased"],
        "curves": ["curves", "--preset", "gait1", "--grid-res", str(sizes.cli_grid),
                   "--phases", str(sizes.cli_phases)],
        "track_gait1": ["track", "--preset", "gait1", "--duration", str(sizes.gait1_s)],
        "track_gait2": ["track", "--preset", "gait2", "--duration", str(sizes.abort_s)],
        "track_gait3": ["track", "--preset", "gait3", "--duration", str(sizes.abort_s)],
    }
    items = {}
    for run, argv in runs.items():
        out = os.path.join(tmp, run)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["--out", out, *argv])
        if code not in (0, 4):
            raise RuntimeError(f"tiltrotor {' '.join(argv)} exited {code}")
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                data = fh.read()
            items[f"cli/{run}/{name}"] = {"bytes": np.frombuffer(data, dtype=np.uint8)}
    return items


def collect(sizes: Sizes = FULL) -> dict:
    """Every item: a dict of named arrays per item name."""
    import tiltrotor as tr
    from tiltrotor import gaitlab

    params, gains = tr.Params(), tr.Gains()
    items = {}
    items["track/gait1"] = _track("gait1", sizes.gait1_s, params, gains)
    for name in ("gait2", "gait3"):
        items[f"track/{name}"] = _track(name, sizes.abort_s, params, gains)
    items.update(_maps(sizes, params))
    items.update(_rectangles(sizes, params))
    grid = tr.AttitudeGrid.symmetric(1.2, sizes.preset_grid)
    for name in sorted(gaitlab.GAIT_PRESETS):
        for bias in (1.0, BIAS):
            gait = tr.bias_gait(tr.build_preset(name, params), bias)
            sets, rep = gaitlab.curves_and_report(gait, grid, sizes.preset_phases, params)
            items[f"presets/{name}@{bias}"] = {
                **_curves(sets),
                "report": np.array(_report(tr.robustness_report(gait, grid,
                                                                sizes.preset_phases, params))),
                "pass_report": np.array(_report(rep)),
            }
    rng = np.random.default_rng([2024, 6])
    a1v = np.sort(rng.uniform(-0.6, 0.6, sizes.cmap_res))
    a2v = np.sort(rng.uniform(-0.6, 0.6, sizes.cmap_res + 2))
    for branch in ("blue", "red"):
        cm = tr.color_map(a1v, a2v, branch, params)
        items[f"color_map/{branch}"] = {f: getattr(cm, f) for f in (
            "alpha1_values", "alpha2_values", "alpha3", "alpha4", "residual_sign")}
    with tempfile.TemporaryDirectory() as tmp:
        items.update(_cli_files(sizes, tmp))
    return items


def digest(arrays: dict) -> str:
    """sha256 over each array's name, dtype, shape and bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(f"{name}|{a.dtype.str}|{a.shape}|".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _numbers(arr):
    """The numbers in a text file's bytes, or ``None`` for a file with none."""
    found = re.findall(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf", arr.tobytes())
    return np.array([float(v) for v in found]) if found else None


def largest_relative_difference(a: dict, b: dict):
    """The largest ``|x - y| / max(|x|, |y|)`` over the arrays of one item.

    A file's bytes are compared through the numbers in its text.  Returns
    ``None`` where the items differ in names, shapes or kinds.
    """
    if sorted(a) != sorted(b):
        return None
    worst = 0.0
    for name in a:
        x, y = a[name], b[name]
        if name == "bytes":
            x, y = _numbers(x), _numbers(y)
            if x is None or y is None:
                return None
        if x.shape != y.shape or x.dtype.kind != y.dtype.kind:
            return None
        if x.dtype.kind not in "fiub":
            if not np.array_equal(x, y):
                return None
            continue
        x, y = x.astype(float), y.astype(float)
        differ = (x != y) & ~(np.isnan(x) & np.isnan(y))
        if not differ.any():
            continue
        x, y = x[differ], y[differ]
        # a NaN or an infinity against a number differs without bound
        with np.errstate(invalid="ignore"):
            rel = abs(x - y) / np.maximum(abs(x), abs(y))
        worst = max(worst, float(np.max(np.where(np.isnan(rel), np.inf, rel))))
    return worst


def _npz_path(path):
    return os.path.splitext(path)[0] + ".npz"


def save(items: dict, path, arrays: bool) -> dict:
    digests = {name: digest(items[name]) for name in sorted(items)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    if arrays:
        np.savez(_npz_path(path), **{f"{item}::{name}": value
                                     for item, fields in items.items()
                                     for name, value in fields.items()})
    return digests


def _load_arrays(path):
    npz = _npz_path(path)
    if not os.path.exists(npz):
        return None
    items = {}
    with np.load(npz) as data:
        for key in data.files:
            item, name = key.split("::")
            items.setdefault(item, {})[name] = data[key]
    return items


def compare(path_a, path_b) -> list[str]:
    """One line per item that differs between two digest files."""
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    arrays_a, arrays_b = _load_arrays(path_a), _load_arrays(path_b)
    lines = []
    for item in sorted(set(a) | set(b)):
        if item not in a or item not in b:
            lines.append(f"{item}: only in {path_a if item in a else path_b}")
        elif a[item] != b[item]:
            diff = "arrays not saved"
            if arrays_a is not None and arrays_b is not None:
                rel = largest_relative_difference(arrays_a[item], arrays_b[item])
                diff = ("names, shapes or text differ" if rel is None
                        else f"largest relative difference {rel:.3g}")
            lines.append(f"{item}: differs, {diff}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="write the digests of this tree to OUT (JSON)")
    parser.add_argument("--arrays", action="store_true", help="also save the arrays (.npz)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two digest files")
    args = parser.parse_args(argv)
    if args.compare:
        lines = compare(*args.compare)
        print("\n".join(lines) if lines else "every item identical")
        return 1 if lines else 0
    if not args.out:
        parser.error("give --out FILE or --compare A B")
    digests = save(collect(FULL), args.out, args.arrays)
    print(f"wrote {len(digests)} digests to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
