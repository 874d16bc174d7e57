import json

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
    assert len(rows) == 201


def test_gaitgen_bias_scales_columns(gait_files, tmp_path):
    out = tmp_path / "b"
    assert run_cli("--out", str(out), "gaitgen", "--preset", "gait1", "--bias", "0.8") == 0
    base = np.loadtxt(gait_files / "gait_gait1.csv", delimiter=",", skiprows=1)
    biased = np.loadtxt(out / "gait_gait1.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(biased[:, 0:3], base[:, 0:3])
    # scaling the waypoints then interpolating commutes with scaling the
    # samples only up to rounding
    np.testing.assert_allclose(biased[:, 3:5], 0.8 * base[:, 3:5], rtol=1e-14, atol=1e-17)


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


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_colormap_rejects_non_finite_range(tmp_path, value):
    assert run_cli("--out", str(tmp_path), "colormap", "--branch", "blue",
                   "--range", value) == 2
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


def test_curves_invalid_phases(tmp_path, gait_files):
    assert run_cli("--out", str(tmp_path), "curves", "--gait",
                   str(gait_files / "gait_gait1.csv"), "--phases", "0") == 2


@pytest.mark.parametrize("grid_args", [("--grid-limit", "inf"), ("--grid-limit", "nan"),
                                       ("--grid-limit", "0"), ("--grid-res", "1")])
def test_curves_invalid_grid(tmp_path, gait_files, grid_args):
    assert run_cli("--out", str(tmp_path), "curves", "--gait",
                   str(gait_files / "gait_gait1.csv"), *grid_args) == 2
    assert not (tmp_path / "curves.csv").exists()


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


def test_track_invalid_duration(tmp_path, gait_files):
    assert run_cli("--out", str(tmp_path), "track", "--gait",
                   str(gait_files / "gait_gait1.csv"), "--duration", "0") == 2


@pytest.mark.parametrize("timing", [
    ["--duration", "nan"], ["--duration", "inf"], ["--dt", "nan"],
    ["--duration", "0.001", "--dt", "0.002"],
])
def test_track_rejects_bad_timing(tmp_path, gait_files, timing, capsys):
    assert run_cli("--out", str(tmp_path), "track", "--gait",
                   str(gait_files / "gait_gait1.csv"), *timing) == 2
    assert "--duration/--dt" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["gaitgen", "curves", "track"])
@pytest.mark.parametrize("bias", ["0", "1.5", "nan"])
def test_bad_bias_refused_before_any_output(tmp_path, command, bias, capsys):
    out = tmp_path / "o"
    assert run_cli("--out", str(out), command, "--preset", "gait1", "--bias", bias) == 2
    assert "bias" in capsys.readouterr().err
    assert not out.exists()


def test_gaitgen_rejects_one_zero_half_extent(tmp_path, capsys):
    assert run_cli("--out", str(tmp_path), "gaitgen", "--branch", "blue",
                   "--center", "0.1", "0.1", "--half", "0.0", "0.3") == 2
    assert "one is zero" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("samples", ["1", "0", "-3"])
def test_gaitgen_refuses_fewer_than_two_samples(tmp_path, capsys, samples):
    out = tmp_path / "out"
    assert run_cli("--out", str(out), "gaitgen", "--preset", "gait1",
                   "--samples", samples) == 2
    assert "--samples" in capsys.readouterr().err
    assert not out.exists()


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
