"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one ``CRITERION nn PASS/FAIL`` line (run with ``-s`` to
see them live).  Tolerances and runtime budgets are pinned here, not
configurable.
"""

import math
import time

import numpy as np
import pytest

import tiltrotor as tr
from tiltrotor.cli import main as cli_main
from tiltrotor.errors import AbortedSingular
from tiltrotor.gaitlab import GAIT_PRESETS

from _oracles import abc_direct, residual_scale
from test_gaitlab import BruteForceOracle, _mod2pi_dist

PARAMS = tr.Params()
GAINS = tr.Gains()


def _report(num: int, ok: bool, desc: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"CRITERION {num:02d} {status}: {desc}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_determinant_decomposition_identity():
    rng = np.random.default_rng(11)
    det_ib = np.linalg.det(PARAMS.inertia)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        phi, theta = rng.uniform(-1.3, 1.3, 2)
        psi = rng.uniform(-math.pi, math.pi)
        alpha = rng.uniform(-math.pi, math.pi, 4)
        dm = tr.decoupling_matrix([phi, theta, psi], alpha, PARAMS)
        coeffs = tr.det_decomposition(alpha, PARAMS)
        lhs = PARAMS.m * math.cos(theta) * det_ib * dm.det
        rhs = float(tr.normalized_det(phi, theta, coeffs))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    elapsed = time.perf_counter() - t0
    _report(
        1, worst < 1e-9 and elapsed < 5.0,
        "determinant decomposition identity over 1000 random samples (rel 1e-9, < 5 s)",
        f"worst rel err {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_02_yaw_invariance():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        phi, theta = rng.uniform(-1.2, 1.2, 2)
        alpha = rng.uniform(-math.pi, math.pi, 4)
        dets = np.array([
            tr.decoupling_matrix([phi, theta, psi], alpha, PARAMS).det
            for psi in np.linspace(-math.pi, math.pi, 16, endpoint=False)
        ])
        worst = max(worst, float(np.ptp(dets) / np.max(np.abs(dets))))
    _report(2, worst < 1e-12, "determinant varies < 1e-12 across 16 yaw samples",
            f"worst rel spread {worst:.2e}")


CRITERION_03_GRID = np.linspace(-0.6, 0.6, 21)


@pytest.fixture(scope="module")
def branch_roots():
    """Criterion 03's cells: their branch pairs, each solution's polished oracle root, and the seconds taken.

    Every solution of the 21 x 21 cells goes to the brute-force oracle in
    one call; ``roots[c]`` holds the roots of cell ``c``'s solutions, in
    their order, and criterion 04 reads the same roots.
    """
    t0 = time.perf_counter()
    pairs = [tr.solve_color_pair((a1, a2), PARAMS)
             for a1 in CRITERION_03_GRID for a2 in CRITERION_03_GRID]
    sols = [sol for pair in pairs for sol in pair]
    roots = BruteForceOracle(PARAMS).roots_near([s.alpha12 for s in sols],
                                                [s.alpha34 for s in sols])
    cell_roots = np.split(roots, np.cumsum([len(pair) for pair in pairs])[:-1])
    return pairs, cell_roots, time.perf_counter() - t0


def test_criterion_03_two_branch_existence(branch_roots):
    t0 = time.perf_counter()
    pairs, cell_roots, search_s = branch_roots
    bound = 1e-8 * residual_scale(PARAMS)
    ok = True
    worst_resid = 0.0
    worst_match = 0.0
    for pair, refined in zip(pairs, cell_roots):
        if len(pair) != 2 or _mod2pi_dist(pair[0].alpha34, pair[1].alpha34) < 1.0:
            ok = False
            break
        for sol in pair:
            A, B, _ = abc_direct(np.concatenate([sol.alpha12, sol.alpha34]), PARAMS)
            worst_resid = max(worst_resid, abs(A), abs(B))
        for sol, bf in zip(pair, refined):
            worst_match = max(worst_match, _mod2pi_dist(sol.alpha34, bf))
    elapsed = search_s + time.perf_counter() - t0
    ok = ok and worst_resid < bound and worst_match < 1e-3 and elapsed < 60.0
    _report(
        3, ok,
        "exactly 2 branch roots per cell on the 21x21 grid, matching the "
        "400x400 brute-force oracle (1e-3 rad, < 60 s)",
        f"worst |A|,|B| {worst_resid:.2e} (bound {bound:.2e}), "
        f"worst oracle gap {worst_match:.2e} rad, {elapsed:.1f} s",
    )


# largest gap [rad] between a plane fitted to the oracle's roots and the
# plane color_map states: the fits came within 1.4e-15 of it, and a stated
# offset off by 1e-3 misses by that much
PLANE_GAP = 1e-12


def test_criterion_04_planarity(branch_roots):
    # both roots of every third cell of criterion 03's grid, polished by the
    # brute-force oracle (criterion 03's roots, blue then red); each
    # branch's alpha3 and alpha4 are fitted by least squares over (1,
    # alpha1, alpha2)
    t0 = time.perf_counter()
    n = len(CRITERION_03_GRID)
    axis = CRITERION_03_GRID[::3]
    maps = [tr.color_map(axis, axis, branch, PARAMS) for branch in ("blue", "red")]
    a1g, a2g = np.meshgrid(axis, axis, indexing="ij")
    near = np.array([np.column_stack([m.alpha3.ravel(), m.alpha4.ravel()]) for m in maps])
    cell_roots = branch_roots[1]
    roots = np.empty_like(near)
    for k, cell in enumerate(i * n + j for i in range(0, n, 3) for j in range(0, n, 3)):
        roots[:, k] = cell_roots[cell]
    # the oracle's angles are taken modulo 2 pi: move each onto the branch
    # sheet of its candidate
    roots += 2.0 * math.pi * np.rint((near - roots) / (2.0 * math.pi))
    design = np.column_stack([np.ones(a1g.size), a1g.ravel(), a2g.ravel()])
    worst_rms = worst_gap = 0.0
    for cmap, branch_roots in zip(maps, roots):
        coeffs = np.linalg.lstsq(design, branch_roots, rcond=None)[0]
        resid = branch_roots - design @ coeffs
        stated = np.column_stack([cmap.plane3.coeffs, cmap.plane4.coeffs])
        worst_rms = max(worst_rms, float(np.sqrt(np.mean(resid * resid, axis=0)).max()))
        worst_gap = max(worst_gap, float(np.abs(coeffs - stated).max()))
    elapsed = time.perf_counter() - t0
    _report(4, worst_rms < 1e-3 and worst_gap < PLANE_GAP,
            "brute-force branch roots fit planes (rms 1e-3) that color_map states "
            f"({PLANE_GAP:.0e} per coefficient)",
            f"worst rms {worst_rms:.2e} rad, worst coefficient gap {worst_gap:.2e}, "
            f"{elapsed:.1f} s")


def test_criterion_05_branch_gait_singularity_freedom():
    grid = tr.AttitudeGrid(-1.2, 1.2, -1.2, 1.2, 241, 241)
    rng = np.random.default_rng(13)
    gaits = [tr.build_preset(n, PARAMS) for n in sorted(GAIT_PRESETS)]
    gaits.append(tr.make_rectangle_gait(rng.uniform(-0.3, 0.3, 2), (0.2, 0.15),
                                        8.0, "blue", PARAMS))
    gaits.append(tr.make_rectangle_gait(rng.uniform(-0.3, 0.3, 2), (0.1, 0.25),
                                        12.0, "red", PARAMS))
    ok = True
    for gait in gaits:
        rep = tr.robustness_report(gait, grid, 16, PARAMS)
        empty = all(
            not tr.singular_curves(tuple(gait.sample_raw(k * gait.period_s / 16)),
                                   grid, PARAMS).curves
            for k in range(16)
        )
        ok = ok and rep.area_fraction == 1.0 and empty
    _report(5, ok,
            "on-branch gaits: empty singular set on |phi|,|theta| <= 1.2 and "
            "area fraction exactly 1.0")


def test_criterion_06_bias_degrades_robustness():
    t0 = time.perf_counter()
    grid = tr.AttitudeGrid(-1.2, 1.2, -1.2, 1.2, 241, 241)
    strict = 0
    ok = True
    details = []
    for name in sorted(GAIT_PRESETS):
        gait = tr.build_preset(name, PARAMS)
        rep = tr.robustness_report(gait, grid, 64, PARAMS)
        rep_b = tr.robustness_report(tr.bias_gait(gait, 0.8), grid, 64, PARAMS)
        ok = ok and rep.area_fraction >= rep_b.area_fraction
        ok = ok and rep_b.singular_phases > 0  # biased singular set nonempty
        strict += rep.area_fraction > rep_b.area_fraction
        details.append(f"{name}: {rep.area_fraction:.4f} vs {rep_b.area_fraction:.4f}")
    elapsed = time.perf_counter() - t0
    ok = ok and strict >= 1 and elapsed < 60.0
    _report(6, ok,
            "0.8-biased presets lose acceptable-attitude area (strict for >= 1) "
            "with nonempty singular sets (< 60 s)",
            "; ".join(details) + f"; {elapsed:.1f} s")


def test_criterion_07_exact_linearization():
    params = tr.Params(omega_lo=0.0, omega_hi=1e9)  # saturation off
    dt = 1e-3
    state = tr.State(pos=np.array([0.0, 0.0, 0.1]), eta=np.array([0.1, 0.1, 0.1]))
    alpha = np.zeros(4)
    worst = np.zeros(4)
    # the last safe command, held by a singular step as run_tracking holds it
    last = None
    for k in range(int(round(2.0 / dt)) + 1):
        t = k * dt
        y = np.array([state.eta[0], state.eta[1], state.eta[2], state.pos[2]])
        expected = 0.1 * (1.0 + 2.0 * t) * math.exp(-2.0 * t)
        worst = np.maximum(worst, np.abs(y - expected))
        out = tr.fl_inner_loop(state, alpha, tr.InnerRefs(), GAINS, params, last_command=last)
        if not out.singular:
            last = out.varpi_cmd
        state = tr.integrate_step(state, lambda _t: alpha, out.varpi_cmd, t, dt, params)
    ok = bool(np.all(worst <= 0.02 * 0.1))
    _report(7, ok,
            "each inner channel follows the critically damped response within "
            "2% over 2 s from a 0.1 offset",
            f"worst channel deviation {worst.max():.2e} (limit 2e-3)")


def test_criterion_08_tracking_reproduction(gait1_run):
    # preset gait1 for 120 s at dt 1e-3 from 0.8 x hover, with the wall time
    # of run_tracking; the session runs it once, for this and tests/test_sim.py
    log, elapsed = gait1_run
    err = tr.error_series(log)
    late = err.norm[log.t > 80.0]
    period = 2 * math.pi / 0.1
    final = log.t >= log.t[-1] - period
    radial = np.abs(np.hypot(log.states[final, 0], log.states[final, 1]) - 5.0)
    ok = (len(log) == 120001 and late.max() < 0.2 and radial.max() < 0.2
          and elapsed < 10.0)
    _report(8, ok,
            "preset gait1 completes 120 s; position error < 0.2 m beyond 80 s; "
            "radial error < 0.2 m over the final period (< 10 s runtime)",
            f"max err {late.max():.3f} m, max radial {radial.max():.3f} m, "
            f"{elapsed:.2f} s")


def test_criterion_09_failure_reproduction(tmp_path):
    codes = {}
    for name in ("gait2", "gait3"):
        out = tmp_path / name
        codes[name] = cli_main(["--out", str(out), "track", "--preset", name])
    ok = codes["gait2"] == 4 and codes["gait3"] == 4
    # the direct API reports the abort time
    times = {}
    for name in ("gait2", "gait3"):
        with pytest.raises(AbortedSingular) as exc_info:
            tr.run_tracking(tr.SimConfig(), PARAMS, GAINS, tr.build_preset(name, PARAMS))
        times[name] = exc_info.value.log.abort_time
    _report(9, ok,
            "presets gait2 and gait3 abort with exit code 4 (singular after "
            "saturation engages)",
            f"exit codes {codes}, abort times {times}")


def test_criterion_10_numerics_hygiene(tmp_path):
    # hover equilibrium
    w = tr.speeds_to_input(tr.hover_speeds(PARAMS))
    hover_norm = float(np.linalg.norm(
        tr.state_derivative(tr.State(), np.zeros(4), w, PARAMS)
    ))

    # measured integrator order on a smooth run
    def endpoint(dt):
        varpi = tr.hover_speeds(PARAMS) * np.array([1.02, 1.0, 0.98, 1.0])
        alpha = np.array([0.3, -0.2, 0.25, 0.1])
        state = tr.State()
        for k in range(int(round(1.0 / dt))):
            state = tr.integrate_step(state, lambda t: alpha, varpi,
                                      k * dt, dt, PARAMS)
        return state.as_array()

    ref = endpoint(2e-2 / 64)
    e1 = np.linalg.norm(endpoint(2e-2) - ref)
    e2 = np.linalg.norm(endpoint(1e-2) - ref)
    order = math.log2(e1 / e2)

    # bit-identical logs
    gait = tr.build_preset("gait1", PARAMS)
    config = tr.SimConfig(duration=5.0)
    log1 = tr.run_tracking(config, PARAMS, GAINS, gait)
    log2 = tr.run_tracking(config, PARAMS, GAINS, gait)
    identical = bool(np.array_equal(log1.as_matrix(), log2.as_matrix()))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    log1.to_csv(p1)
    log2.to_csv(p2)
    identical = identical and p1.read_bytes() == p2.read_bytes()

    ok = hover_norm < 1e-9 and order >= 3.5 and identical
    _report(10, ok,
            "hover derivative < 1e-9; integrator order >= 3.5; identical "
            "configs give bit-identical logs",
            f"hover {hover_norm:.2e}, order {order:.2f}, identical {identical}")
