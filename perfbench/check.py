"""Output checks, run outside the timed window.

Every vehicle that fails a check counts against
``completed_vehicle_ratio``:

* frame conservation, ``processed + dropped + corrupted == offered``, on
  the fleet total and on every per-scenario and per-deployment slice (a
  broken slice fails the vehicles it covers);
* every vehicle completed: vehicles of a failed shard fail, and a run
  whose :class:`~repro.fleet.RunHealth` shows retries, timeouts or pool
  rebuilds fails every vehicle, since which ones were touched is unknown;
* determinism: every repetition's aggregate equals the first one's;
* the reference bus oracle: each of the first ``oracle_prefix`` vehicles,
  re-run on ``engine="event"``, yields an aggregate identical to its
  columnar run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.fleet import FleetAggregate, FleetResult, FleetSlice, FleetSpec, run_fleet

from perfbench.workloads import SHARD_SIZE, Workload

if TYPE_CHECKING:
    from repro.experiments.context import ExperimentContext

__all__ = ["CheckReport", "aggregate_failures", "check_run", "digest"]


@dataclass
class CheckReport:
    vehicles: int
    failed: set[int] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    digest: str = ""

    def fail(self, indices: "set[int] | range", problem: str) -> None:
        self.failed.update(indices)
        self.problems.append(problem)

    @property
    def ok(self) -> bool:
        return not self.problems


def digest(aggregate: FleetAggregate) -> str:
    """SHA-256 of the aggregate's canonical JSON form."""
    text = json.dumps(aggregate.as_json_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _conserved(piece: FleetSlice) -> bool:
    return (
        piece.frames_processed + piece.frames_dropped + piece.frames_corrupted
        == piece.frames_offered
    )


def aggregate_failures(spec: FleetSpec, aggregate: FleetAggregate, report: CheckReport) -> None:
    """Conservation and vehicle counts, per slice, against the spec."""
    everyone = range(len(spec))
    total = aggregate.total
    if total.vehicles != len(spec):
        report.fail(everyone, f"aggregate holds {total.vehicles} of {len(spec)} vehicles")
    if not _conserved(total):
        report.fail(everyone, f"frames not conserved in the fleet total: {total}")
    members = list(spec.iter_vehicles())
    for title, rollup, key_of in (
        ("scenario", aggregate.by_scenario, lambda v: v.scenario),
        ("deployment", aggregate.by_deployment, lambda v: v.deployment),
    ):
        expected: dict[str, set[int]] = {}
        for vehicle in members:
            expected.setdefault(key_of(vehicle), set()).add(vehicle.index)
        if set(rollup) != set(expected):
            report.fail(everyone, f"{title} keys {sorted(rollup)} != {sorted(expected)}")
            continue
        for key, piece in rollup.items():
            if piece.vehicles != len(expected[key]) or not _conserved(piece):
                report.fail(expected[key], f"{title} slice {key!r} broken: {piece}")


def _health_failures(result: FleetResult, report: CheckReport) -> None:
    size = len(result.spec)
    health = result.health
    for shard in health.failed_shards:
        start = shard * SHARD_SIZE
        report.fail(range(start, min(start + SHARD_SIZE, size)), f"shard {shard} failed")
    if health.retries or health.timeouts or health.pool_rebuilds:
        report.fail(range(size), f"run health not clean: {health.summary()}")


def check_run(
    context: "ExperimentContext", workload: Workload, results: list[FleetResult]
) -> CheckReport:
    """Check every repetition of a workload, then the event-engine oracle."""
    spec = workload.spec
    report = CheckReport(vehicles=len(spec))
    first = results[0].aggregate
    report.digest = digest(first)
    aggregate_failures(spec, first, report)
    for result in results:
        _health_failures(result, report)
    if any(result.aggregate != first for result in results):
        report.fail(range(len(spec)), "repetitions disagree: the run is not deterministic")
    columnar = replace(workload.options, engine="columnar")
    event = replace(workload.options, engine="event")
    for index in range(min(workload.oracle_prefix, len(spec))):
        one = FleetSpec.explicit([spec.vehicle(index)], name=spec.name)
        fast = run_fleet(context, one, columnar).aggregate
        reference = run_fleet(context, one, event).aggregate
        if fast != reference:
            report.fail({index}, f"vehicle {index}: columnar and event engines disagree")
    return report
