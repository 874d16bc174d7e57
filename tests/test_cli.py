import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import tiltrotor as tr
from tiltrotor.cli import main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def gait_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("gaits")
    assert run_cli("--out", str(out), "gaitgen", "--preset", "gait1") == 0
    assert run_cli("--out", str(out), "gaitgen", "--preset", "gait2") == 0
    return out


def test_gaitgen_outputs(gait_files):
    csv_path = gait_files / "gait_gait1.csv"
    sidecar = gait_files / "gait_gait1.json"
    assert csv_path.exists() and sidecar.exists()
    meta = json.loads(sidecar.read_text())
    assert meta == {"period_s": 10.0, "color": "blue", "bias": 1.0}
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "t_frac,alpha1,alpha2,alpha3,alpha4"
    assert len(rows) == 6  # the header and the rectangle's 5 corners


def test_gaitgen_bias_scales_columns(gait_files, tmp_path):
    out = tmp_path / "b"
    assert run_cli("--out", str(out), "gaitgen", "--preset", "gait1", "--bias", "0.8") == 0
    base = np.loadtxt(gait_files / "gait_gait1.csv", delimiter=",", skiprows=1)
    biased = np.loadtxt(out / "gait_gait1.csv", delimiter=",", skiprows=1)
    # both files hold the waypoints, so the lifted columns are scaled exactly
    np.testing.assert_array_equal(biased[:, 0:3], base[:, 0:3])
    np.testing.assert_array_equal(biased[:, 3:5], 0.8 * base[:, 3:5])


def test_gaitgen_requires_geometry(tmp_path):
    assert run_cli("--out", str(tmp_path), "gaitgen") == 2


@pytest.mark.parametrize("geometry", [
    ["--center", "nan", "0.1", "--half", "0.3", "0.3"],
    ["--center", "0.1", "0.1", "--half", "inf", "0.3"],
    ["--center", "0.1", "0.1", "--half", "0.3", "0.3", "--period", "inf"],
    ["--center", "0.1", "0.1", "--half", "0.3", "0.3", "--period", "nan"],
])
def test_gaitgen_rejects_non_finite_geometry(tmp_path, geometry):
    assert run_cli("--out", str(tmp_path), "gaitgen", "--branch", "red", *geometry) == 2
    assert not any(tmp_path.iterdir())


def test_colormap_rows_and_planes(tmp_path):
    out = tmp_path / "cm"
    code = run_cli("--out", str(out), "colormap", "--branch", "blue",
                   "--range", "0.3", "--res", "5")
    assert code == 0
    rows = (out / "colormap_blue.csv").read_text().strip().splitlines()
    assert rows[0] == "alpha1,alpha2,alpha3,alpha4,residual_sign"
    assert len(rows) == 26
    data = np.loadtxt(out / "colormap_blue.csv", delimiter=",", skiprows=1)
    center = data[np.argmin(np.abs(data[:, 0]) + np.abs(data[:, 1]))]
    assert abs(center[2]) < 1e-6 and abs(center[3]) < 1e-6

    code = run_cli("--out", str(out), "colormap", "--branch", "red",
                   "--range", "0.3", "--res", "5")
    assert code == 0
    data = np.loadtxt(out / "colormap_red.csv", delimiter=",", skiprows=1)
    center = data[np.argmin(np.abs(data[:, 0]) + np.abs(data[:, 1]))]
    assert abs(center[2] - np.pi) < 1e-6 and abs(center[3] - np.pi) < 1e-6

    planes = json.loads((out / "colormap_blue_planes.json").read_text())
    assert planes["alpha3_plane"]["rms"] < 1e-3
    assert sorted(planes["alpha3_plane"]) == sorted(planes["alpha4_plane"]) == ["coeffs", "rms"]


def test_overwrite_guard(tmp_path):
    out = tmp_path / "cm"
    args = ("--out", str(out), "colormap", "--branch", "blue", "--range", "0.2", "--res", "3")
    assert run_cli(*args) == 0
    before = (out / "colormap_blue.csv").read_bytes()
    assert run_cli(*args) == 3
    assert (out / "colormap_blue.csv").read_bytes() == before
    assert run_cli("--force", *args) == 0


OUT_COMMANDS = {
    "colormap": ["colormap", "--branch", "blue", "--range", "0.2", "--res", "3"],
    "gaitgen": ["gaitgen", "--preset", "gait1"],
    "curves": ["curves", "--preset", "gait1", "--phases", "2", "--grid-res", "5"],
    "track": ["track", "--preset", "gait1", "--duration", "0.01"],
}


@pytest.mark.parametrize("command", OUT_COMMANDS.values(), ids=OUT_COMMANDS.keys())
def test_out_naming_a_file_exits_2(tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    assert run_cli("--out", str(taken), *command) == 2
    assert f"--out {taken}" in capsys.readouterr().err
    assert taken.read_text() == "keep\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


TWO_GAITS = {
    "gaitgen": (["gaitgen", "--preset", "gait1", "--center", "0", "0", "--half", "0.1", "0.1",
                 "--branch", "red"], "--preset gait1 and --center/--half/--branch"),
    "curves": (["curves", "--gait", "GAIT", "--preset", "gait2"], "--gait GAIT and --preset gait2"),
    "track": (["track", "--gait", "GAIT", "--preset", "gait2"], "--gait GAIT and --preset gait2"),
}


@pytest.mark.parametrize("command, named", TWO_GAITS.values(), ids=TWO_GAITS.keys())
def test_two_gait_sources_exit_2(tmp_path, capsys, gait_files, command, named):
    # a gait file or custom rectangle beside a preset: neither is run
    gait = str(gait_files / "gait_gait1.csv")
    out = tmp_path / "out"
    assert run_cli("--out", str(out), *[gait if a == "GAIT" else a for a in command]) == 2
    assert named.replace("GAIT", gait) in capsys.readouterr().err
    assert not out.exists()


def test_colormap_invalid_args(tmp_path):
    assert run_cli("--out", str(tmp_path), "colormap", "--branch", "blue",
                   "--range", "-1") == 2
    assert run_cli("--out", str(tmp_path), "colormap", "--branch", "blue",
                   "--res", "1") == 2
    # the interval is open at pi/2: pi/2 is refused, a value just below it is not
    assert run_cli("--out", str(tmp_path), "colormap", "--branch", "blue",
                   "--range", "1.5707963267948966") == 2
    assert not any(tmp_path.iterdir())
    assert run_cli("--out", str(tmp_path), "colormap", "--branch", "blue",
                   "--range", "1.57079", "--res", "3") == 0
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "colormap_blue.csv", "colormap_blue_planes.json"]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_colormap_rejects_non_finite_range(tmp_path, value):
    assert run_cli("--out", str(tmp_path), "colormap", "--branch", "blue",
                   "--range", value) == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", [
    ["colormap"], ["gaitgen", "--center", "0.1", "0.1", "--half", "0.3", "0.3"],
], ids=["colormap", "gaitgen"])
def test_unknown_branch_exits_2(tmp_path, capsys, command):
    # the choices are BRANCH_OFFSETS' keys; argparse refuses any other
    with pytest.raises(SystemExit) as exc:
        run_cli("--out", str(tmp_path), *command, "--branch", "green")
    assert exc.value.code == 2
    assert "'blue', 'red'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_curves_outputs(tmp_path, gait_files):
    out = tmp_path / "cv"
    code = run_cli("--out", str(out), "curves", "--gait",
                   str(gait_files / "gait_gait1.csv"),
                   "--phases", "8", "--grid-res", "121")
    assert code == 0
    rows = (out / "curves.csv").read_text().strip().splitlines()
    assert rows[0] == "phi,theta,curve_id"
    rep = json.loads((out / "robustness.json").read_text())
    assert rep["unbiased"]["area_fraction"] >= rep["biased"]["area_fraction"]
    assert (out / "curves.svg").exists()


def test_curves_without_polylines_write_the_header_alone(tmp_path):
    # gait1 and its biased variant stay regular on this grid
    out = tmp_path / "cv"
    assert run_cli("--out", str(out), "curves", "--preset", "gait1", "--phases", "4",
                   "--grid-res", "21", "--grid-limit", "1.0") == 0
    assert (out / "curves.csv").read_bytes() == b"phi,theta,curve_id\n"


def test_curves_invalid_phases(tmp_path, gait_files):
    assert run_cli("--out", str(tmp_path), "curves", "--gait",
                   str(gait_files / "gait_gait1.csv"), "--phases", "0") == 2


@pytest.mark.parametrize("grid_args", [("--grid-limit", "inf"), ("--grid-limit", "nan"),
                                       ("--grid-limit", "0"), ("--grid-res", "1"),
                                       # finite, but the grid's span overflows
                                       ("--grid-limit", "1e308", "--grid-res", "5")])
def test_curves_invalid_grid(tmp_path, gait_files, grid_args):
    out = tmp_path / "o"
    assert run_cli("--out", str(out), "curves", "--gait",
                   str(gait_files / "gait_gait1.csv"), "--phases", "1", *grid_args) == 2
    assert not out.exists()


def test_curves_malformed_gait(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n1,2\n")
    assert run_cli("--out", str(tmp_path / "o"), "curves", "--gait", str(bad)) == 2


def test_track_success_and_failure(tmp_path, gait_files):
    out = tmp_path / "t1"
    code = run_cli("--out", str(out), "track", "--gait",
                   str(gait_files / "gait_gait1.csv"), "--duration", "5")
    assert code == 0
    for name in ("track.csv", "trajectory.svg", "error.svg", "rotors.svg"):
        assert (out / name).exists()
    log = tr.TrackLog.from_csv(out / "track.csv")
    assert len(log) == 5001

    out2 = tmp_path / "t2"
    code = run_cli("--out", str(out2), "track", "--gait",
                   str(gait_files / "gait_gait2.csv"), "--duration", "5")
    assert code == 4
    partial = tr.TrackLog.from_csv(out2 / "track.csv")
    assert partial.singular[-1]


def _polyline_points(path):
    """The points of each polyline of the SVG file ``path``, which must parse as XML."""
    root = ET.parse(path).getroot()
    return [np.array([p.split(",") for p in e.get("points").split(" ")], dtype=float)
            for e in root.iter("{http://www.w3.org/2000/svg}polyline")]


@pytest.mark.parametrize("preset, duration, code", [("gait1", "2", 0), ("gait2", "5", 4)])
def test_track_svgs_parse_with_a_point_per_log_row(tmp_path, preset, duration, code):
    assert run_cli("--out", str(tmp_path), "track", "--preset", preset,
                   "--duration", duration) == code
    rows = len(tr.TrackLog.from_csv(tmp_path / "track.csv"))
    lines = {name: _polyline_points(tmp_path / f"{name}.svg")
             for name in ("trajectory", "error", "rotors")}
    # the reference circle is drawn at 361 angles; every other line is the log's
    assert [len(xy) for xy in lines["trajectory"]] == [361, rows]
    assert [len(xy) for xy in lines["error"]] == [rows]
    assert [len(xy) for xy in lines["rotors"]] == [rows] * 4


def test_curves_svg_parses_with_a_polyline_per_curve(tmp_path):
    assert run_cli("--out", str(tmp_path), "curves", "--preset", "gait2", "--phases", "4",
                   "--grid-res", "61") == 0
    ids = np.loadtxt(tmp_path / "curves.csv", delimiter=",", skiprows=1)[:, 2].astype(int)
    sizes = np.bincount(ids)
    assert sizes.size > 1
    assert [len(xy) for xy in _polyline_points(tmp_path / "curves.svg")] == \
        sizes[sizes >= 2].tolist()


def test_track_forms_the_error_series_once(tmp_path, monkeypatch):
    calls = []
    error_series = tr.sim.error_series

    def counting(log):
        calls.append(len(log))
        return error_series(log)

    monkeypatch.setattr(tr.sim, "error_series", counting)
    assert run_cli("--out", str(tmp_path), "track", "--preset", "gait1", "--duration", "0.01") == 0
    assert calls == [11]


def test_track_invalid_duration(tmp_path, gait_files):
    assert run_cli("--out", str(tmp_path), "track", "--gait",
                   str(gait_files / "gait_gait1.csv"), "--duration", "0") == 2


@pytest.mark.parametrize("timing", [
    ["--duration", "nan"], ["--duration", "inf"], ["--dt", "nan"],
    ["--duration", "0.001", "--dt", "0.002"],
    # a log no host can allocate
    ["--duration", "1e12"],
    # a log numpy cannot index
    ["--duration", "1e300"], ["--duration", "1", "--dt", "1e-300"],
])
def test_track_rejects_bad_timing(tmp_path, gait_files, timing, capsys):
    out = tmp_path / "o"
    assert run_cli("--out", str(out), "track", "--gait",
                   str(gait_files / "gait_gait1.csv"), *timing) == 2
    assert "--duration/--dt" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, work, size", [
    (["colormap", "--branch", "blue"], "color_map", "--res"),
    (["curves", "--preset", "gait2", "--phases", "1", "--grid-res", "5"], "curves_and_report",
     "--grid-res/--phases"),
], ids=["colormap", "curves"])
def test_work_out_of_memory_exits_2_and_makes_no_out(tmp_path, monkeypatch, capsys,
                                                     command, work, size):
    def refuse(*args):
        raise MemoryError("Unable to allocate 298. GiB")

    monkeypatch.setattr(tr.gaitlab, work, refuse)
    out = tmp_path / "o"
    assert run_cli("--out", str(out), *command) == 2
    assert capsys.readouterr().err.startswith(f"{size}: the result of this run does not fit")
    assert not out.exists()


def test_track_refuses_an_out_under_a_file_before_the_run(tmp_path, monkeypatch, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    monkeypatch.setattr(tr.sim, "run_tracking", lambda *args: pytest.fail("the run started"))
    assert run_cli("--out", str(taken / "o"), "track", "--preset", "gait1",
                   "--duration", "0.01") == 2
    assert f"--out {taken / 'o'}: cannot use it" in capsys.readouterr().err
    assert taken.read_text() == "keep\n"


@pytest.mark.parametrize("command", ["gaitgen", "curves", "track"])
@pytest.mark.parametrize("bias", ["0", "1.5", "nan"])
def test_bad_bias_refused_before_any_output(tmp_path, command, bias, capsys):
    out = tmp_path / "o"
    assert run_cli("--out", str(out), command, "--preset", "gait1", "--bias", bias) == 2
    assert "bias" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stem", ["sub/g", "absolute"])
def test_gaitgen_refuses_a_stem_with_a_directory(tmp_path, monkeypatch, capsys, stem):
    # a stem with a directory part wrote into a directory that did not
    # exist (a traceback, after making --out) or outside --out; it is
    # refused before anything is made, here or anywhere under tmp_path
    monkeypatch.chdir(tmp_path)
    stem = str(tmp_path / "x") if stem == "absolute" else stem
    assert run_cli("--out", str(tmp_path / "o"), "gaitgen", "--preset", "gait1",
                   "--output", stem) == 2
    assert f"--output {stem}: give a stem without a directory" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_gaitgen_rejects_one_zero_half_extent(tmp_path, capsys):
    assert run_cli("--out", str(tmp_path), "gaitgen", "--branch", "blue",
                   "--center", "0.1", "0.1", "--half", "0.0", "0.3") == 2
    assert "one is zero" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("preset, biased, timed, code", [
    ("gait2", [], [], 4),
    ("gait1", ["--bias", "0.8"], ["--duration", "2"], 0),
], ids=["gait2", "gait1-biased"])
def test_gait_file_reproduces_the_preset_run(tmp_path, preset, biased, timed, code):
    # a gaitgen file tracks exactly as the gait it was made from
    assert run_cli("--out", str(tmp_path), "gaitgen", "--preset", preset, *biased) == 0
    gait = str(tmp_path / f"gait_{preset}.csv")
    assert run_cli("--out", str(tmp_path / "file"), "track", "--gait", gait, *timed) == code
    assert run_cli("--out", str(tmp_path / "preset"), "track", "--preset", preset,
                   *biased, *timed) == code
    assert ((tmp_path / "file" / "track.csv").read_bytes()
            == (tmp_path / "preset" / "track.csv").read_bytes())


def test_track_csv_roundtrip_precision(tmp_path, gait_files):
    out = tmp_path / "rt"
    assert run_cli("--out", str(out), "track", "--gait",
                   str(gait_files / "gait_gait1.csv"), "--duration", "0.2") == 0
    log = tr.TrackLog.from_csv(out / "track.csv")
    rewritten = tmp_path / "again.csv"
    log.to_csv(rewritten)
    assert rewritten.read_bytes() == (out / "track.csv").read_bytes()


def test_custom_config(tmp_path, gait_files):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "m": 1.0, "gains": {"kp_xy": 0.5, "kd_xy": 1.5},
    }))
    out = tmp_path / "cc"
    assert run_cli("--config", str(cfg), "--out", str(out), "track", "--gait",
                   str(gait_files / "gait_gait1.csv"), "--duration", "1") == 0


@pytest.mark.parametrize("cfg", [
    [1],
    {"gains": 5},
    {"abort_on_singular": "false"},
    {"abort_on_singular": True},
    {"arm_lenght": 0.5},
    {"m": None},
], ids=["list", "gains-number", "abort-string", "abort-retired", "misspelt-key", "null-mass"])
def test_bad_config_values_exit_2_before_any_output(tmp_path, capsys, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli("--config", str(path), "--out", str(out), "track", "--preset", "gait1",
                   "--duration", "0.01") == 2
    assert "bad config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("meta", [
    [1],
    {"period_s": None},
    {"period_s": 10, "bias": [1]},
    {"period_s": 10, "colour": "red"},
    "{not json",
], ids=["list", "null-period", "list-bias", "misspelt-key", "not-json"])
def test_bad_gait_sidecar_exits_2_before_any_output(tmp_path, capsys, gait_files, meta):
    gait = tmp_path / "gait.csv"
    gait.write_bytes((gait_files / "gait_gait1.csv").read_bytes())
    (tmp_path / "gait.json").write_text(meta if isinstance(meta, str) else json.dumps(meta))
    out = tmp_path / "out"
    assert run_cli("--out", str(out), "track", "--gait", str(gait), "--duration", "0.01") == 2
    assert "bad gait file" in capsys.readouterr().err
    assert not out.exists()


def test_bad_config(tmp_path, gait_files):
    cfg = tmp_path / "config.json"
    cfg.write_text("{not json")
    assert run_cli("--config", str(cfg), "--out", str(tmp_path / "x"), "track",
                   "--gait", str(gait_files / "gait_gait1.csv")) == 2
