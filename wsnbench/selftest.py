"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest wsnbench/selftest.py``
(the name keeps them out of the simulator's default test collection: the
smoke run takes about ten seconds).
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

import run as bench

bench._load_program()

from specs import WORKLOADS  # noqa: E402  (needs the simulator on the path)
from tracing import Tracer  # noqa: E402

CONTRACT = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _names(section: str) -> list[str]:
    return [metric["name"] for metric in CONTRACT[section]]


@pytest.fixture(scope="module")
def smoke() -> dict[str, dict]:
    """Every workload, shortened: one untraced repeat and one traced."""
    return {
        name: bench.measure(workload, 3, 0.0, True, scale=bench.SMOKE_SCALE, min_repeats=1)
        for name, workload in WORKLOADS.items()
    }


def test_smoke_runs_every_workload_and_passes_its_checks(smoke):
    assert {w["name"] for w in CONTRACT["workloads"]} <= set(smoke)
    for name, summary in smoke.items():
        assert summary["failed"] == 0, (name, summary["problems"])
        assert summary["attempted"] == 2, name


def test_traced_run_reports_exactly_the_per_layer_metrics(smoke):
    for name, summary in smoke.items():
        assert list(summary["metrics"]) == _names("per_layer"), name


def test_untraced_run_reports_exactly_the_end_to_end_metrics():
    summary = bench.measure(
        WORKLOADS["agent-tracker"], 3, 0.0, False, scale=bench.SMOKE_SCALE, min_repeats=1
    )
    line = bench.result_line(summary)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == _names("end_to_end")
    for metric in CONTRACT["end_to_end"]:
        reported = line["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0


def test_metric_names_and_units_follow_the_contract(smoke):
    for section in ("end_to_end", "per_layer"):
        for metric in CONTRACT[section]:
            assert NAME.fullmatch(metric["name"]), metric
            assert metric["unit"] == bench.unit_of(metric["name"]), metric
    for summary in smoke.values():
        assert all(NAME.fullmatch(name) for name in summary["metrics"])


def test_layer_self_times_sum_to_the_traced_wall(smoke):
    for name, summary in smoke.items():
        metrics = summary["metrics"]
        self_s = sum(value for key, value in metrics.items() if key.endswith(".self_s"))
        assert math.isclose(self_s, metrics["trace.wall_s"], rel_tol=1e-9), name
        assert 0.0 <= metrics["trace.uncovered_s"] <= metrics["sim.self_s"], name


def test_span_self_times_sum_to_the_covered_time():
    tracer = Tracer()
    spec = WORKLOADS["mobile-flood"].make_spec(3, bench.SMOKE_SCALE)
    with tracer:
        repeat = bench.Repeat(WORKLOADS["mobile-flood"], spec, tracer)
    assert tracer.covered_s > 0
    assert math.isclose(sum(tracer.self_s.values()), tracer.covered_s, rel_tol=1e-9)
    assert tracer.covered_s <= repeat.run_s


def test_wrappers_are_removed_and_a_later_run_is_unwrapped():
    from repro.radio.channel import Channel
    from repro.scenarios import spec as scenario_spec
    from repro.sim.kernel import Simulator

    owners = (Simulator, Channel, scenario_spec)
    before = {owner: dict(vars(owner)) for owner in owners}
    workload = WORKLOADS["agent-tracker"]
    spec = workload.make_spec(3, bench.SMOKE_SCALE)
    tracer = Tracer()
    with tracer:
        traced = bench.Repeat(workload, spec, tracer)
        assert Simulator.schedule_at is not before[Simulator]["schedule_at"]
    assert not tracer.installed
    for owner in owners:
        assert dict(vars(owner)) == before[owner], owner
    collected = (dict(tracer.calls), dict(tracer.counts), tracer.covered_s)
    untraced = bench.Repeat(workload, spec)
    assert (dict(tracer.calls), dict(tracer.counts), tracer.covered_s) == collected
    assert untraced.counters == traced.counters


def test_calibration_scales_each_phase_and_restores_the_collector():
    import gc

    assert gc.isenabled()
    assert bench.calibrate() > 0
    assert gc.isenabled()
    workload = WORKLOADS["agent-tracker"]
    spec = workload.make_spec(3, bench.SMOKE_SCALE)
    assert bench.Repeat(workload, spec).calibration_s is None
    repeat = bench.Repeat(workload, spec, calibrated=True)
    scaled = repeat.scaled()
    nominal = bench.CALIBRATION_NOMINAL_S
    assert math.isclose(scaled["sim_x_ref"], repeat.sim_x_real * repeat.calibration_s / nominal)
    assert math.isclose(scaled["setup_s"], repeat.setup_s * nominal / repeat.setup_calibration_s)


def test_counter_differences_fail_a_repeat():
    assert bench._differences({"frames": 3}, {"frames": 3}) == []
    assert bench._differences({"frames": 4}, {"frames": 3})
    assert bench._differences({}, {"frames": 3})


def test_every_spec_seed_follows_the_benchmark_seed():
    for workload in WORKLOADS.values():
        spec = workload.make_spec(41)
        assert spec["seed"] == 41
        assert spec["topology"].get("seed", 41) == 41
        assert workload.make_spec(41) == spec
        assert workload.make_spec(42) != spec


def test_a_run_measures_distinct_inputs_made_from_its_seed():
    for workload in WORKLOADS.values():
        specs = bench.run_specs(workload, 41)
        assert len(specs) == bench.SPECS_PER_RUN
        assert bench.run_specs(workload, 41) == specs
        seeds = {spec["seed"] for spec in specs}
        assert len(seeds) == len(specs)
        assert seeds.isdisjoint(spec["seed"] for spec in bench.run_specs(workload, 42))


def test_a_bare_checkout_exits_without_a_result(tmp_path: Path):
    import shutil
    import subprocess
    import sys

    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    for path in CONTRACT["paths"]:
        shutil.copytree(
            bench.ROOT / path, tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    done = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", "dense-flood",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
