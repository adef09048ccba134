"""The benchmark's own tests: span arithmetic, clean unwrapping, the output check."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.context import ExperimentContext, ExperimentSettings
from repro.fleet import ExecOptions, FleetAggregate, FleetSlice, FleetSpec, VehicleSpec, run_fleet

from perfbench import report
from perfbench.check import CheckReport, aggregate_failures
from perfbench.spans import MARK, Tracer, covered_ns, run_hooks, setup_hooks, traced

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_subtracts_nested_children() -> None:
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.begin("a")
    clock.now = 10
    first = tracer.begin("b")
    clock.now = 30
    inner = tracer.begin("c")
    clock.now = 34
    assert tracer.end(inner) == (4, 4)
    clock.now = 40
    assert tracer.end(first) == (30, 26)
    clock.now = 50
    second = tracer.begin("c")
    clock.now = 55
    tracer.end(second)
    clock.now = 100
    assert tracer.end(outer) == (100, 65)
    assert {name: s.self_ns for name, s in tracer.layers.items()} == {"a": 65, "b": 26, "c": 9}
    assert tracer.layers["c"].calls == 2
    # Self times of a whole stack add up to the root's duration.
    assert sum(s.self_ns for s in tracer.layers.values()) == 100


def test_spans_must_close_innermost_first() -> None:
    tracer = Tracer(clock=FakeClock())
    outer = tracer.begin("a")
    tracer.begin("b")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_covered_ns_is_the_clipped_union() -> None:
    intervals = [(5, 20), (10, 30), (40, 50), (45, 48), (90, 120)]
    assert covered_ns(intervals, 0, 100) == 25 + 10 + 10
    assert covered_ns(intervals, 15, 45) == 15 + 5
    assert covered_ns([], 0, 10) == 0


def test_tail_percentile_keeps_ten_samples_beyond() -> None:
    assert report.tail_percentile(10_000) == 99.9
    assert report.tail_percentile(1_000) == 99.0
    assert report.tail_percentile(999) == 95.0
    assert report.tail_percentile(40) == 75.0
    assert report.tail_percentile(5) == 50.0


def _owners(hooks: list) -> dict:
    return {(hook.owner, hook.attr): hook.owner.__dict__.get(hook.attr) for hook in hooks}


def test_wrappers_are_removed_after_a_traced_run() -> None:
    context = ExperimentContext(ExperimentSettings(duration=3.0, epochs=2, seed=5))
    spec = FleetSpec(name="tiny", size=2, seed=3, scenarios=("baseline-dos",), duration=0.2)
    options = ExecOptions(backend="thread", max_workers=1)
    hooks = run_hooks() + setup_hooks()
    before = _owners(hooks)

    setup_tracer = Tracer()
    with traced(setup_tracer, setup_hooks()):
        context.ip("dos")
    assert setup_tracer.layers["experiments.context.train"].calls == 1

    tracer = Tracer()
    with traced(tracer, run_hooks()):
        assert all(getattr(h.owner, h.attr).__dict__.get(MARK) == h.layer for h in run_hooks())
        traced_result = run_fleet(context, spec, options)
    assert set(report.TIMED_LAYERS) <= set(tracer.layers)
    assert tracer.layers["fleet.spec"].calls == 2

    after = _owners(hooks)
    assert all(after[key] is before[key] for key in before)
    assert not any(hasattr(getattr(h.owner, h.attr), MARK) for h in hooks)
    totals = {name: (s.self_ns, s.calls) for name, s in tracer.layers.items()}
    plain_result = run_fleet(context, spec, options)
    assert {name: (s.self_ns, s.calls) for name, s in tracer.layers.items()} == totals
    assert plain_result.aggregate == traced_result.aggregate


def _vehicle_slice(offered: int, processed: int, dropped: int) -> FleetSlice:
    return FleetSlice(
        vehicles=1, channels=1, frames_offered=offered,
        frames_processed=processed, frames_dropped=dropped,
    )


def test_output_check_fails_a_doctored_aggregate() -> None:
    vehicles = [
        VehicleSpec(index=0, scenario="baseline-dos", vehicle_seed=1),
        VehicleSpec(index=1, scenario="baseline-fuzzy", vehicle_seed=2),
        VehicleSpec(index=2, scenario="baseline-dos", vehicle_seed=3, deployment="shared-ip"),
    ]
    spec = FleetSpec.explicit(vehicles)
    aggregate = FleetAggregate.empty()
    for vehicle in vehicles:
        aggregate = aggregate.merge(
            FleetAggregate.of_vehicle(vehicle.scenario, vehicle.deployment, _vehicle_slice(100, 90, 10))
        )

    clean = CheckReport(vehicles=3)
    aggregate_failures(spec, aggregate, clean)
    assert clean.ok

    broken_total = replace(aggregate, total=replace(aggregate.total, frames_dropped=11))
    whole = CheckReport(vehicles=3)
    aggregate_failures(spec, broken_total, whole)
    assert whole.failed == {0, 1, 2}

    scenarios = dict(aggregate.by_scenario)
    scenarios["baseline-dos"] = replace(scenarios["baseline-dos"], frames_processed=179)
    broken_slice = CheckReport(vehicles=3)
    aggregate_failures(spec, replace(aggregate, by_scenario=scenarios), broken_slice)
    assert broken_slice.failed == {0, 2}

    lost = CheckReport(vehicles=3)
    aggregate_failures(spec, replace(aggregate, total=replace(aggregate.total, vehicles=2)), lost)
    assert not lost.ok


def test_metric_names_match_benchmark_json() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(report.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(report.PER_LAYER)
