"""Smoke test of the benchmark harness at minimal sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import math
import os

import pytest

import run as bench
from hostspeed import HostSpeed
from tracer import Tracer
from workloads import WORKLOADS, Sizes, measure

SMALL = Sizes(track_duration=0.3, cli_gait1_duration=0.2, design_grid=15, design_phases=2,
              cmap_res=5)

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.fixture(scope="module", autouse=True)
def checkout():
    return bench.use_checkout()


def _workload(name, tmp_path):
    wl = WORKLOADS[name](0, SMALL, str(tmp_path))
    wl.setup()
    return wl


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    wl = _workload(name, tmp_path)
    host = HostSpeed()
    records = measure(wl, 0.0, host=host)
    assert records and not any(r.wrong for r in records)
    assert host.chunks >= 1 and host.speed > 0
    e2e = bench.end_to_end(wl, records, [(0.1, 2.0), (0.3, 1.0), (0.5, 0.2)], host)
    assert e2e["setup_s"][0] == pytest.approx(0.2)     # median of the scaled times
    assert {k: unit for k, (_, unit) in e2e.items()} == _units("end_to_end")

    untraced = [r.seconds for r in records if r.kind == wl.primary]
    wl = _workload(name, tmp_path)
    with Tracer() as tracer:
        traced = measure(wl, 0.0, tracer)
    assert not tracer.absent and not any(r.wrong for r in traced)
    layers = bench.per_layer(wl, traced, tracer, untraced)
    assert {k: unit for k, (_, unit) in layers.items()} == _units("per_layer")
    for value, _ in [*e2e.values(), *layers.values()]:
        assert isinstance(value, (int, float)) and math.isfinite(value)
    assert e2e["ops_per_s"][0] > 0 and layers["trace.overhead_ratio"][0] > 0


def test_tracer_restores_the_package():
    import tiltrotor.sim as sim
    from tiltrotor.gaitlab import Gait

    before = (sim.run_tracking, sim.kernels.rk4_step, Gait.sampler)
    with Tracer():
        assert sim.run_tracking is not before[0]
    assert (sim.run_tracking, sim.kernels.rk4_step, Gait.sampler) == before


def test_wrong_tracking_output_counts_as_failed(tmp_path, monkeypatch):
    wl = _workload("track-gait1", tmp_path)
    real = wl.sim.run_tracking

    def short_run(config, *args):
        return real(dataclasses.replace(config, duration=config.duration / 2), *args)

    monkeypatch.setattr(wl.sim, "run_tracking", short_run)
    records = measure(wl, 0.0)
    assert records and all(r.wrong and not r.ok for r in records)
    assert bench.summary(records) == (False, len(records), len(records))


def test_wrong_design_output_counts_as_failed(tmp_path, monkeypatch):
    wl = _workload("gait-design", tmp_path)
    real = wl.gaitlab.bias_gait
    monkeypatch.setattr(wl.gaitlab, "bias_gait", lambda gait, factor: real(gait, 0.9 * factor))
    records = measure(wl, 0.0)
    designs = [r for r in records if r.kind == "design"]
    assert designs and all(r.wrong for r in designs)
    correct, attempted, failed = bench.summary(records)
    assert not correct and failed == len(designs) and attempted == len(records)


def _patch_lift(monkeypatch, wl, edit):
    """Make ``make_rectangle_gait`` return ``edit(gait)`` instead of the lifted gait."""
    real = wl.gaitlab.make_rectangle_gait
    monkeypatch.setattr(wl.gaitlab, "make_rectangle_gait",
                        lambda *args, **kwargs: edit(real(*args, **kwargs)))


def _designs(wl):
    records = measure(wl, 0.0)
    designs = [r for r in records if r.kind == "design"]
    assert designs
    return records, designs


def _rank_deficient_hop(gait, station=3):
    """The gait with one station moved onto the rank-deficient root family."""
    from tiltrotor.gaitlab import scan_roots

    alphas = gait.alphas.copy()
    roots = scan_roots(alphas[station, 0:2], bench.use_checkout().Params())
    alphas[station, 2:4] = next(r["alpha34"] for r in roots if not r["robust"])
    return dataclasses.replace(gait, alphas=alphas)


def test_lift_defect_is_counted_but_not_wrong(tmp_path, monkeypatch):
    wl = _workload("gait-design", tmp_path)
    _patch_lift(monkeypatch, wl, _rank_deficient_hop)
    records, designs = _designs(wl)
    assert all(r.known_defect and r.error == "OffBranch" for r in designs)
    assert bench.summary(records) == (True, len(records), 0)


def _shift_station(gait, station=3):
    alphas = gait.alphas.copy()
    alphas[station, 2] += 0.01        # off the plane, but not onto another root
    return dataclasses.replace(gait, alphas=alphas)


def _hop_twice(gait):
    return _rank_deficient_hop(_rank_deficient_hop(gait, 3), 4)


def test_hop_with_another_fault_counts_as_wrong(tmp_path, monkeypatch):
    wl = _workload("gait-design", tmp_path)
    _patch_lift(monkeypatch, wl, _rank_deficient_hop)
    real = wl.gaitlab.bias_gait
    monkeypatch.setattr(wl.gaitlab, "bias_gait", lambda gait, factor: real(gait, 0.9 * factor))
    records, designs = _designs(wl)
    assert all(r.wrong and not r.known_defect for r in designs)
    assert not bench.summary(records)[0]


@pytest.mark.parametrize("edit", [
    lambda gait: dataclasses.replace(gait, color="red" if gait.color == "blue" else "blue"),
    lambda gait: dataclasses.replace(gait, alphas=gait.alphas + [0.01, 0.0, 0.01, 0.0]),
    _shift_station,
    _hop_twice,
], ids=["wrong-colour", "off-rectangle", "off-plane", "adjacent-hops"])
def test_wrong_lift_counts_as_wrong(tmp_path, monkeypatch, edit):
    wl = _workload("gait-design", tmp_path)
    _patch_lift(monkeypatch, wl, edit)
    records, designs = _designs(wl)
    assert all(r.wrong and not r.known_defect for r in designs)
    assert not bench.summary(records)[0]


def test_other_backend_is_refused(monkeypatch):
    tr = bench.use_checkout()
    monkeypatch.setattr(tr, "backend_name", lambda: "cython")
    with pytest.raises(SystemExit) as exc:
        bench.use_checkout()
    assert exc.value.code == 2
