"""Mutation check: each listed mutant must make its named tests fail.

Run it by hand from the repository root::

    python tests/_mutants.py                 # every mutant
    python tests/_mutants.py NAME [NAME ...]  # only the named mutants

Each mutant applies to its own copy of ``src/``, ``tests/`` and
``pyproject.toml`` under a temporary directory: its old text, which must
occur exactly once in its file, becomes its new text.  The script then
runs only the mutant's tests on that copy with pytest, up to
``os.cpu_count()`` mutants at once.  A mutant is killed when every one
of its tests fails; the script prints one line per mutant, in list
order, with the tests that passed on a mutant not killed, and exits 1
when any mutant is not killed.  An equivalent mutant changes no
result that any test can see; it names no tests and gives its reason
instead, and it is not run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GAITLAB = "src/tiltrotor/gaitlab.py"
ACROSS_STACKS = "tests/test_gaitlab.py::test_scans_match_the_reference_across_stacks"
UNEVEN = "tests/test_gaitlab.py::test_uneven_crossings_match_the_reference"
ZERO_CURVES = "tests/test_gaitlab.py::test_extract_zero_curves_matches_the_reference"
REFUSE_SHAPES = "tests/test_model.py::test_fixed_length_arguments_refuse_other_shapes"
GAINS = "tests/test_control.py::test_gains_name_a_wrong_kp_or_kd"
FILES = "src/tiltrotor/_files.py"
CSV_TEXT = "tests/test_sim.py::test_csv_text_is_that_of_savetxt"
POINTS = "tests/test_svgplot.py::test_points_text_is_percent_2f_at_ties_and_bounds"
OUT_OF_MEMORY = "tests/test_cli.py::test_work_out_of_memory_exits_2_and_makes_no_out"
SEEDED = "tests/test_gaitlab.py::test_scans_match_the_reference_on_seeded_rectangles"
BOUND = "tests/test_gaitlab.py::test_margin_bound_is_below_every_reference_margin"
KERNELS = "src/tiltrotor/_core/kernels.py"
ORACLE_ASSEMBLY = "tests/test_linearization.py::test_matches_oracle_assembly"
DIRECT_ABC = "tests/test_linearization.py::test_coefficients_match_direct_determinants"
CROSS_DET = "tests/test_linearization.py::test_cross_of_plucker_is_the_4x4_determinant"
TEXTBOOK_RK4 = "tests/test_model.py::test_rk4_step_matches_textbook_composition"
FACTORED_LAW = "tests/test_control.py::test_factored_law_matches_the_explicit_matrix"
DECOUPLER_YAW = "tests/test_control.py::test_decoupler_axis_alignment"
DECOUPLER_CLAMP = "tests/test_control.py::test_decoupler_clamped"
ONE_STEP = "tests/test_control.py::test_closed_loop_identity_one_step"
ABORT_REASON = "tests/test_sim.py::test_abort_reason_determinant"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str          # relative to the repository root
    old: str
    new: str
    tests: tuple = ()  # pytest node ids, each of which must fail
    equivalent: str = ""  # why no test can tell it from the original


MUTANTS = (
    # the one-phase grid scan: each mutant changes what its reference checks see
    Mutant("hover-margin-by-maximum", GAITLAB,
           "np.minimum.reduce(np.hypot(zero, fixed))",
           "np.maximum.reduce(np.hypot(zero, fixed))",
           (f"{ACROSS_STACKS}[gait2-41-one-phase]", f"{ACROSS_STACKS}[gait2-41]")),
    Mutant("changed-cells-skip-theta-crossings", GAITLAB,
           "changed = cross_phi[:, :-1] | cross_phi[:, 1:] | cross_theta[:-1]",
           "changed = cross_phi[:, :-1] | cross_phi[:, 1:]",
           (f"{ACROSS_STACKS}[gait2-41]", UNEVEN)),
    Mutant("theta-root-arctan2-swapped", GAITLAB,
           "np.arctan2(K, A, out=roots[0, t])", "np.arctan2(A, K, out=roots[0, t])",
           (f"{ACROSS_STACKS}[gait2-41]", UNEVEN)),
    Mutant("phi-second-root-unreflected", GAITLAB,
           "np.subtract(np.subtract(math.pi, u, out=u), psi, out=roots[1, p])",
           "np.subtract(u, psi, out=roots[1, p])",
           (f"{ACROSS_STACKS}[gait2-41]", f"{ZERO_CURVES}[closed-loop]")),
    Mutant("cell-right-edge-off-by-one", GAITLAB,
           "left + (grid.n_theta - 1)])", "left + grid.n_theta])",
           (f"{ACROSS_STACKS}[gait2-41]", f"{ZERO_CURVES}[closed-loop]")),
    # the report's margin bound: measured from the wrong coefficient it
    # skips edge zeros nearer level attitude than the margin so far; left
    # in phase order it finds edge zeros that bound order would skip
    Mutant("margin-bound-from-a", GAITLAB,
           "return math.atan2(abs(C), math.hypot(A, B))",
           "return math.atan2(abs(A), math.hypot(B, C))",
           (f"{SEEDED}[red-0.8]", f"{BOUND}[square]", f"{BOUND}[past-the-pole]")),
    Mutant("report-phases-unsorted", GAITLAB,
           "for abc in sorted(_gait_phases(gait, n_phases, params), key=_margin_bound):",
           "for abc in _gait_phases(gait, n_phases, params):",
           ("tests/test_gaitlab.py::"
            "test_reports_find_only_the_edge_zeros_that_can_lower_the_margin",)),
    Mutant("floats-let-conversion-errors-through", "src/tiltrotor/model.py",
           "except (TypeError, ValueError) as exc:",
           "except ZeroDivisionError as exc:",
           (f"{REFUSE_SHAPES}[thrust_matrix-alpha-non-number]",
            f"{REFUSE_SHAPES}[solve_color_pair-ragged]")),
    Mutant("floats-unchained", "src/tiltrotor/model.py",
           "finite numbers, got {values!r}\") from cause",
           "finite numbers, got {values!r}\") from None",
           (f"{REFUSE_SHAPES}[thrust_matrix-alpha-non-number]",
            f"{REFUSE_SHAPES}[solve_color_pair-ragged]")),
    Mutant("gains-unchecked", "src/tiltrotor/control.py",
           "np.array(_floats(value, 4, name))",
           "np.broadcast_to(np.asarray(value, dtype=float), (4,)).copy()",
           (f"{GAINS}[kp-short]", f"{GAINS}[kd-column]")),
    Mutant("gains-scalar-not-broadcast", "src/tiltrotor/control.py",
           "else [value] * 4", "else [value]",
           (f"{GAINS}[kp-short]",)),
    # the one output lifecycle: refuse, compute, then make --out
    Mutant("memory-error-uncaught", "src/tiltrotor/cli.py",
           "except MemoryError as exc:", "except OverflowError as exc:",
           ("tests/test_cli.py::test_track_rejects_bad_timing[timing4]",
            f"{OUT_OF_MEMORY}[colormap]", f"{OUT_OF_MEMORY}[curves]")),
    Mutant("out-made-before-work", "src/tiltrotor/cli.py",
           "    base_sets, report = gaitlab.curves_and_report(",
           "    _make_out(args)\n    base_sets, report = gaitlab.curves_and_report(",
           (f"{OUT_OF_MEMORY}[curves]",)),
    Mutant("track-error-series-twice", "src/tiltrotor/cli.py",
           "final position error {err.norm[-1]:.4f}",
           "final position error {sim.error_series(log).norm[-1]:.4f}",
           ("tests/test_cli.py::test_track_forms_the_error_series_once",)),
    # the CSV digit kernel: exact ties (1 + j * 2**-17) rounded half up, the
    # near-ties of inexact scales trusted, and log10's exponent trusted
    Mutant("csv-digits-round-half-up", FILES,
           "    r = np.rint(t)\n", "    r = np.floor(t + 0.5)\n", (CSV_TEXT,)),
    Mutant("csv-tie-margin-zero", FILES,
           "_TIE_MARGIN = 1e-9", "_TIE_MARGIN = 0.0", (CSV_TEXT,)),
    Mutant("csv-exponent-uncorrected", FILES,
           "    j += a >= tb.least.take(j + 1)\n    j -= a < tb.least.take(j)\n", "",
           (CSV_TEXT,)),
    # the SVG points kernel: exact ties (odd multiples of 0.125) rounded half
    # up, the product's rounding error ignored, so the doubles nearest a tie
    # fall on it, and a negative zero written without its minus sign
    Mutant("points-ties-half-up", FILES,
           "    n0 = np.rint(p)\n", "    n0 = np.floor(p + 0.5)\n", (f"{POINTS}[exact-ties]",)),
    Mutant("points-error-term-dropped", FILES,
           "    up += t\n    down += t\n", "",
           (f"{POINTS}[nearest-ties]",)),
    Mutant("points-negative-zero-unsigned", FILES,
           "np.flatnonzero(np.signbit(v) & fast)", "np.flatnonzero((v < 0.0) & fast)",
           (f"{POINTS}[negative-zero]",)),
    # the rectangle gait is its five corners, counter-clockwise, at fractions
    # of the perimeter walked (uniform quarters only fit a square), and
    # color_map states the plane that independent roots fit
    Mutant("rectangle-corners-clockwise", GAITLAB,
           "corners = ((x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0))",
           "corners = ((x0, y0), (x0, y1), (x1, y1), (x1, y0), (x0, y0))",
           ("tests/test_gaitlab.py::test_rectangle_gait_lies_on_branch_plane",)),
    Mutant("rectangle-fractions-uniform", GAITLAB,
           "waypoints=[w / walked[-1] for w in walked],",
           "waypoints=[0.0, 0.25, 0.5, 0.75, 1.0],",
           ("tests/test_gaitlab.py::test_corner_gait_is_the_station_gait",)),
    Mutant("plane3-stated-as-alpha2", GAITLAB,
           "plane3=PlaneFit(np.array((offset, 1.0, 0.0)), 0.0, 0.0),",
           "plane3=PlaneFit(np.array((offset, 0.0, 1.0)), 0.0, 0.0),",
           ("tests/test_acceptance.py::test_criterion_04_planarity",)),
    # the decoupling kernels that the loop and the public matrix share: only
    # an independent oracle (numpy assembly, numpy determinants, the
    # test-side minors, numpy's solve) can tell a flipped term from the
    # original, since the cofactor helpers serve both sides of any identity
    # between the kernels.  p02 is flipped, not p13: det_coeffs pairs torque
    # rows 1 and 2, and row 1 is zero in columns 1 and 3, so p13 is 0 there
    Mutant("q-entry-term-flipped", KERNELS,
           "i21 * y0 + i22 * z0,", "i21 * y0 - i22 * z0,", (ORACLE_ASSEMBLY,)),
    Mutant("delta-row-term-flipped", KERNELS,
           "cf * q10 - sf * q20,", "cf * q10 + sf * q20,", (ORACLE_ASSEMBLY,)),
    Mutant("cofactor-term-flipped", KERNELS,
           "p13 * c2 - p23 * c1 - p12 * c3,", "p13 * c2 + p23 * c1 - p12 * c3,",
           (DIRECT_ABC, "tests/test_linearization.py::test_cofactor_sums_match_minors",
            CROSS_DET)),
    Mutant("plucker-term-flipped", KERNELS,
           "r0 * s2 - r2 * s0,", "r0 * s2 + r2 * s0,",
           (DIRECT_ABC, "tests/test_control.py::test_solve4_matches_numpy", CROSS_DET)),
    # the plant's RK4 step against textbook RK4 of the public derivative,
    # with a distinct tilt at each stage time
    Mutant("rk4-stage4-sign-flipped", KERNELS,
           "ry = cf * fy1 - sf * fz1", "ry = cf * fy1 + sf * fz1", (TEXTBOOK_RK4,)),
    Mutant("rk4-midpoint-weight-lost", KERNELS,
           "2.0 * (dpm + dpm)", "(dpm + dpm)", (TEXTBOOK_RK4,)),
    Mutant("rk4-start-tilt-at-midpoint", KERNELS,
           "s1, s2, s3, s4, c1, c2, c3, c4 = tilt_mid",
           "s1, s2, s3, s4, c1, c2, c3, c4 = tilt_0", (TEXTBOOK_RK4,)),
    # the inner loop's attitude solve, against the explicit matrix's Delta w
    # = v - b and a finite-difference step from non-zero body rates: a term
    # of y = W @ rhs[0:3], and a drift term of each attitude row
    Mutant("fl-w-row-term-flipped", "src/tiltrotor/control.py",
           "y1 = cf * rhs1 + r31 * rhs2", "y1 = cf * rhs1 - r31 * rhs2", (FACTORED_LAW,)),
    Mutant("fl-pitch-drift-dropped", "src/tiltrotor/control.py",
           "kp4[1] * (ref_val[1] - theta) + dphi * u\n",
           "kp4[1] * (ref_val[1] - theta)\n",
           (FACTORED_LAW, ONE_STEP)),
    Mutant("fl-roll-drift-dropped", "src/tiltrotor/control.py",
           "- (tt * dphi * dtheta + tu))", "- (tt * dphi * dtheta))",
           (FACTORED_LAW, ONE_STEP)),
    Mutant("fl-yaw-drift-dropped", "src/tiltrotor/control.py",
           "- (dphi * dtheta / ct + st * tu))", "- (dphi * dtheta / ct))",
           (FACTORED_LAW, ONE_STEP)),
    Mutant("decoupler-theta-uy-flipped", "src/tiltrotor/control.py",
           "theta_ref = (ux * cp + uy * sp) / g", "theta_ref = (ux * cp - uy * sp) / g",
           (DECOUPLER_YAW,)),
    # the outer loop's clamp at its lower bounds
    Mutant("decoupler-phi-lower-clamp-flipped", "src/tiltrotor/control.py",
           "phi_ref = -clamp", "phi_ref = clamp", (DECOUPLER_CLAMP,)),
    Mutant("decoupler-theta-lower-clamp-flipped", "src/tiltrotor/control.py",
           "theta_ref = -clamp", "theta_ref = clamp", (DECOUPLER_CLAMP,)),
    # the circle's y velocity, the reference taken one step late, the
    # schedule's segment at a knot, and the margin by which the closed form
    # proves a phase's sign
    Mutant("reference-vy-flipped", "src/tiltrotor/sim.py",
           "rows[:, 4] = rv * c", "rows[:, 4] = -rv * c",
           ("tests/test_sim.py::test_circular_reference_values",)),
    Mutant("reference-one-step-late", "src/tiltrotor/sim.py",
           "ref = circular_reference(starts[:-1])", "ref = circular_reference(starts[1:])",
           ("tests/test_sim.py::test_run_tracks_the_circle_rows",
            "tests/test_sim.py::test_run_tracking_matches_public_composition[None]",
            "tests/test_sim.py::test_run_tracking_matches_public_composition[band1]")),
    Mutant("sample-segment-left", GAITLAB,
           'k = starts.searchsorted(u, "right") - 1', 'k = starts.searchsorted(u, "left") - 1',
           ("tests/test_gaitlab.py::test_sample_array_takes_the_segment_that_starts_at_a_knot",)),
    Mutant("one-sign-margin-zero", GAITLAB,
           "margin = 1e-12 * (abs(A) + abs(B) + abs(C)) * sec", "margin = 0.0",
           ("tests/test_gaitlab.py::"
            "test_phase_scan_matches_the_reference_and_proves_only_one_sign",)),
    # gait2 still ends at row 799, since its determinant ratio falls from
    # above 2e-4 to below 1e-4 in one step; gait3 ends at 1.146 s, not 4.064 s
    Mutant("loop-eps-sing-doubled", "src/tiltrotor/sim.py",
           "    eps = EPS_SING\n", "    eps = 2.0 * EPS_SING\n",
           (f"{ABORT_REASON}[gait3-4.064]",)),
    # the one singular rule, the squared ratio against the squared
    # threshold, in the loop and in the public matrix, and the abort built
    # from its log
    Mutant("loop-ratio-against-unsquared-eps", "src/tiltrotor/control.py",
           "if ratio_sq < eps_sing * eps_sing:", "if ratio_sq < eps_sing:",
           (f"{ABORT_REASON}[gait2-0.799]", f"{ABORT_REASON}[gait3-4.064]",
            "tests/test_sim.py::test_determinant_factors_in_closed_loop_on_seeded_rectangles")),
    Mutant("public-singular-inverted", "src/tiltrotor/linearization.py",
           "return self.ratio < EPS_SING", "return self.ratio >= EPS_SING",
           ("tests/test_sim.py::test_public_matrix_is_the_loops_law",
            "tests/test_linearization.py::test_singularity_ratio_behaviour")),
    Mutant("abort-message-at-first-row", "src/tiltrotor/errors.py",
           "at t={log.abort_time:.3f} s", "at t={log.t[0]:.3f} s",
           (f"{ABORT_REASON}[gait2-0.799]", "tests/test_sim.py::test_end_fields_agree")),
    # finite bounds a span apart that overflows: refused by the grid at the
    # CLI's boundary, and by the plot
    Mutant("grid-span-unchecked", GAITLAB,
           "spans = (self.phi_max - self.phi_min, self.theta_max - self.theta_min)",
           "spans = ()",
           ("tests/test_gaitlab.py::test_attitude_grid_rejects_non_finite_bounds[bounds4]",
            "tests/test_cli.py::test_curves_invalid_grid[grid_args4]")),
    Mutant("plot-span-unchecked", "src/tiltrotor/svgplot.py",
           "if not (self.xlim[1] - self.xlim[0] < np.inf and", "if not (True and",
           ("tests/test_svgplot.py::test_line_plot_refuses_bad_limits_and_canvas"
            "[args9-axis spans must be finite]",)),
)


def apply(tree: str, mutant: Mutant) -> None:
    """Replace the mutant's old text, which must occur once, in ``tree``."""
    path = os.path.join(tree, mutant.path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text occurs {count} times in {mutant.path}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant) -> list[str]:
    """The mutant's tests that do not fail on a mutated copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tree:
        for name in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(tree, name),
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tree)
        apply(tree, mutant)
        env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                               *mutant.tests], cwd=tree, env=env, capture_output=True, text=True)
    # "FAILED <node id> - <message>"; a node id may hold spaces
    failed = {line[len("FAILED "):].split(" - ")[0] for line in done.stdout.splitlines()
              if line.startswith("FAILED ")}
    return [test for test in mutant.tests if test not in failed]


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    survived = 0
    # each mutant is its own pytest process, so threads only wait on them;
    # map yields the results in list order
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        results = pool.map(lambda m: None if m.equivalent else run(m), chosen)
        for mutant, passed in zip(chosen, results):
            if mutant.equivalent:
                print(f"{mutant.name}: equivalent, not run ({mutant.equivalent})")
                continue
            survived += bool(passed)
            print(f"{mutant.name}: " + (f"NOT KILLED, passed: {' '.join(passed)}" if passed
                                        else "killed"), flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
