"""Micro-benchmark: fleet-scale campaign throughput (vehicles/sec).

Samples a heterogeneous fleet (mixed scenarios, topology profiles and
gateway deployments, staggered attack onsets) and runs it end to end
through ``repro.fleet.run_fleet``, timing only the fleet call itself —
detectors train and compile outside the window.  Archives the
trajectory to ``benchmarks/output/BENCH_fleet.json``.

Metric classes (see ``scripts/check_bench_regression.py``):
``vehicles_per_sec`` and the deterministic ``offered_fps`` (frames per
simulated vehicle-second, a property of the seeded population) gate the
regression check; ``wall_seconds`` is environment-bound and skipped.
Per-vehicle simulation cost is duration-proportional, so both lanes use
the same per-vehicle scenario length — the smoke lane only shrinks the
*population*, keeping vehicles/sec comparable across scales.

The file also records the host (``cpu_count``), the OpenBLAS threads
each process worker was pinned to, and the process lane's worker
scaling curve (1, 2, 4, ... up to ``cpu_count`` workers; one worker runs
in-process).  The curve's rates are wall-clock and informational.
"""

import json
import os
import time

from _bench_lane import OUTPUT_DIR, SMOKE

from repro.experiments.context import ExperimentContext, ExperimentSettings
from repro.fleet import ExecOptions, FleetSpec, fleet_detectors, run_fleet

#: Per-vehicle campaign length (seconds of simulated bus time) — the
#: same in both lanes so vehicles/sec stays scale-comparable.
DURATION = 0.4

#: Population size: the full lane simulates a 1000-vehicle fleet.
FLEET_SIZE = 12 if SMOKE else 1000

#: Vehicles per shard task (the memory bound: peak RSS is O(shard)).
SHARD_SIZE = 4 if SMOKE else 50

#: The committed PR 8 throughput on this trajectory's machine — the
#: last bare ``pool.map`` scheduler, before the fault-tolerance layer.
#: The happy path through the submit/wait scheduler (timeouts armed,
#: retries available, zero faults) must stay within a few percent of
#: it; the smoke lane's sub-second run gets a wide noise allowance.
PR8_BASELINE_VPS = 109.51 if SMOKE else 122.95
MAX_OVERHEAD_PCT = 25.0 if SMOKE else 5.0


def _scaling_points(cpus: int) -> list[int]:
    """Worker counts for the scaling curve: powers of two, then ``cpus``."""
    points = [1]
    while points[-1] * 2 < cpus:
        points.append(points[-1] * 2)
    if cpus > 1:
        points.append(cpus)
    return points


def test_bench_fleet():
    settings = (
        ExperimentSettings(duration=4.0, epochs=2, seed=2023)
        if SMOKE
        else ExperimentSettings(duration=6.0, epochs=8, seed=2023)
    )
    context = ExperimentContext(settings)
    spec = FleetSpec(
        name="bench-city",
        size=FLEET_SIZE,
        seed=2023,
        scenarios=(
            "baseline-dos",
            "baseline-fuzzy",
            "stealth-low-rate",
            "masquerade-rpm",
        ),
        profiles=("full", "mid", "lite"),
        deployments=("per-ip", "shared-ip"),
        duration=DURATION,
        onset_jitter=0.05,
    )
    # Train/compile every scenario-matched detector outside the timed
    # window: wall_seconds tracks the fleet itself, not model training.
    for detector in sorted(set(fleet_detectors(spec).values())):
        context.ip(detector)

    start = time.perf_counter()
    result = run_fleet(
        context, spec, ExecOptions(backend="auto"), shard_size=SHARD_SIZE
    )
    wall_s = time.perf_counter() - start

    total = result.aggregate.total
    # Structural invariants the fleet must keep as it scales.
    assert result.vehicles == FLEET_SIZE
    assert total.frames_processed + total.frames_dropped == total.frames_offered
    assert total.phases_injecting >= FLEET_SIZE  # every scenario injects
    assert 0.0 < total.detection_rate <= 1.0
    assert sum(s.vehicles for s in result.aggregate.by_scenario.values()) == FLEET_SIZE
    assert result.health.ok and result.health.retries == 0  # happy path

    vehicles_per_sec = FLEET_SIZE / wall_s
    # Fault-tolerance overhead: the scheduler's happy path vs the PR 8
    # bare-map baseline.  Negative means this run was faster.
    overhead_pct = 100.0 * (1.0 - vehicles_per_sec / PR8_BASELINE_VPS)
    assert overhead_pct < MAX_OVERHEAD_PCT, (
        f"fault-tolerant scheduler happy path costs {overhead_pct:.1f}% "
        f"vs the PR 8 baseline ({PR8_BASELINE_VPS} vehicles/s); "
        f"budget is {MAX_OVERHEAD_PCT}%"
    )

    # Process-lane scaling curve; the gated run above is its point at
    # result.workers when "auto" resolved to the process lane.
    cpus = os.cpu_count() or 1
    scaling = []
    for workers in _scaling_points(cpus):
        point, point_s = result, wall_s
        if result.backend != "process" or workers != result.workers:
            start = time.perf_counter()
            point = run_fleet(
                context,
                spec,
                ExecOptions(backend="process", max_workers=workers),
                shard_size=SHARD_SIZE,
            )
            point_s = time.perf_counter() - start
            assert point.aggregate == result.aggregate  # same seeds, same fleet
        scaling.append(
            {
                "workers": workers,
                "blas_threads_per_worker": point.blas_threads_per_worker,
                "wall_vehicles_per_sec": round(FLEET_SIZE / point_s, 2),
            }
        )

    simulated_s = FLEET_SIZE * DURATION
    payload = {
        "vehicles": FLEET_SIZE,
        "vehicle_duration_s": DURATION,
        "shards": result.shards,
        "workers": result.workers,
        # Resolved by ExecOptions at run time ("auto" picks process
        # fan-out on multi-core hosts): record what actually ran.
        "backend": result.backend,
        "engine": result.engine,
        "cpu_count": cpus,
        # OpenBLAS threads each process worker was pinned to (null when
        # the run stayed in-process).
        "blas_threads_per_worker": result.blas_threads_per_worker,
        "wall_seconds": round(wall_s, 3),
        "vehicles_per_sec": round(vehicles_per_sec, 2),
        # Happy-path cost of the fault-tolerance layer ("overhead" keys
        # are excluded from cross-run gating; the hard budget is the
        # assert above).
        "fault_tolerance_overhead_pct": round(overhead_pct, 1),
        # Resilience configuration the run executed under.
        "timeout_s": result.options.timeout_s,
        "max_retries": result.options.max_retries,
        "strict": result.options.strict,
        "checkpointed": result.checkpointed,
        "health": result.health.as_record(),
        "worker_scaling": scaling,
        # Deterministic traffic rate of the seeded population: frames
        # offered per simulated vehicle-second — this anchors the gate.
        "offered_fps": round(total.frames_offered / simulated_s, 1),
        "frames_offered": total.frames_offered,
        "detection_rate": round(total.detection_rate, 4),
        "drop_rate": round(total.drop_rate, 4),
        "latency_p50_upper_s": total.latency_quantile_s(0.5),
        "latency_p99_upper_s": total.latency_quantile_s(0.99),
        "by_scenario": {
            name: {
                "vehicles": piece.vehicles,
                "detection_rate": round(piece.detection_rate, 4),
                "drop_rate": round(piece.drop_rate, 4),
            }
            for name, piece in result.aggregate.by_scenario.items()
        },
        "by_deployment": {
            name: {
                "vehicles": piece.vehicles,
                "detection_rate": round(piece.detection_rate, 4),
                "drop_rate": round(piece.drop_rate, 4),
            }
            for name, piece in result.aggregate.by_deployment.items()
        },
    }
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUTPUT_DIR / "BENCH_fleet.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    print(
        f"\nfleet {FLEET_SIZE} vehicles x {DURATION}s: {wall_s:.1f}s wall "
        f"({payload['vehicles_per_sec']:.1f} vehicles/s, "
        f"{result.shards} shards, {result.workers} {result.backend} workers), "
        f"detection {100.0 * total.detection_rate:.1f}%, "
        f"drop {100.0 * total.drop_rate:.2f}%; process-lane scaling "
        + ", ".join(
            f"{point['workers']}w {point['wall_vehicles_per_sec']:.1f}/s"
            for point in scaling
        )
    )
