"""The byte-identity script ``_identity.py``, run in-process at reduced sizes."""

import json

import numpy as np

import _identity

CLI_FILES = {
    "colormap_blue": ["colormap_blue.csv", "colormap_blue_planes.json"],
    "colormap_red": ["colormap_red.csv", "colormap_red_planes.json"],
    "gaitgen": ["gait_gait1.csv", "gait_gait1.json"],
    "gaitgen_gait2": ["gait_gait2.csv", "gait_gait2.json"],
    "gaitgen_gait3": ["gait_gait3.csv", "gait_gait3.json"],
    "gaitgen_biased": ["gait_gait1_biased.csv", "gait_gait1_biased.json"],
    "curves": ["curves.csv", "curves.svg", "robustness.json"],
    **{f"track_{name}": ["error.svg", "rotors.svg", "track.csv", "trajectory.svg"]
       for name in ("gait1", "gait2", "gait3")},
}
ITEMS = {
    *(f"track/{name}" for name in ("gait1", "gait2", "gait3")),
    *(f"maps/{name}" for name in ("decoupling_matrix", "drift_vector", "euler_rate_matrix",
                                  "state_derivative", "tilt_factors")),
    *(f"rectangles/{what}" for what in ("gaits", "sample_array", "reports", "curves",
                                        "singular_curves")),
    *(f"presets/{name}@{bias}" for name in ("gait1", "gait2", "gait3") for bias in (1.0, 0.8)),
    "color_map/blue", "color_map/red",
    *(f"cli/{run}/{name}" for run, names in CLI_FILES.items() for name in names),
}


def test_identity_script_digests_every_item_and_names_a_difference(tmp_path):
    items = _identity.collect(_identity.QUICK)
    assert set(items) == ITEMS
    # the abort item reaches its abort, and a tilt block's rows are its float rows
    assert items["track/gait2"]["end_reason"].item() == "determinant"
    factors = items["maps/tilt_factors"]
    assert factors["rows"].tobytes() == factors["block"].tobytes()
    parent, change = tmp_path / "parent.json", tmp_path / "change.json"
    digests = _identity.save(items, parent, arrays=True)
    assert json.loads(parent.read_text()) == digests and set(digests) == ITEMS
    assert _identity.compare(parent, parent) == []

    reports = items["rectangles/reports"]["fields"].copy()
    reports[0, 1] *= 1.0 + 2.0 ** -40
    items["rectangles/reports"] = {"fields": reports}
    _identity.save(items, change, arrays=True)
    lines = _identity.compare(parent, change)
    assert len(lines) == 1 and lines[0].startswith("rectangles/reports: differs")
    rel = float(lines[0].rsplit(" ", 1)[1])
    assert np.isclose(rel, 2.0 ** -40, rtol=1e-3)
    assert _identity.main(["--compare", str(parent), str(change)]) == 1
