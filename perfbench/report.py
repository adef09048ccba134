"""Metric names, units and how each value is computed.

``END_TO_END`` and ``PER_LAYER`` must list exactly the metrics named in
``BENCHMARK.json`` (a test holds them together).  Timings are medians
over a run's repetitions; counts are those of one repetition, which every
repetition repeats exactly.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Sequence

import numpy as np

from perfbench.spans import FAULTED_LAYER, POOL_LAYER, SHARD_LAYER, LayerStats, Tracer

__all__ = ["END_TO_END", "PER_LAYER", "TIMED_LAYERS", "end_to_end", "per_layer", "tail_percentile"]

Metrics = dict[str, dict[str, Any]]

END_TO_END: tuple[tuple[str, str], ...] = (
    ("vehicles_per_s", "1/s"),
    ("frames_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("completed_vehicle_ratio", "ratio"),
    ("detection_rate", "ratio"),
    ("delivered_ratio", "ratio"),
)

#: Every layer with a span inside ``run_fleet``, bus to fleet; their self
#: times add up to the traced wall time per lane.
TIMED_LAYERS: tuple[str, ...] = (
    "fleet.spec",
    "can.campaign",
    "can.fastbus.schedule",
    "can.fastbus.wire",
    "can.fastbus.arbitration",
    "soc.ecu.fifo",
    "datasets.features",
    "finn.compiled",
    "soc.ecu.report",
    "soc.gateway",
    "fleet.aggregate",
    POOL_LAYER,
    SHARD_LAYER,
)

#: Work counts reported per layer, besides ``calls``.
_COUNTS: dict[str, tuple[str, ...]] = {
    "can.fastbus.schedule": ("rows",),
    "can.fastbus.wire": ("rows",),
    "can.fastbus.arbitration": ("rows_in", "rows_out"),
    "soc.ecu.fifo": ("offered", "dropped"),
    "datasets.features": ("rows",),
    "finn.compiled": ("rows",),
    POOL_LAYER: ("shards", "workers", "retries", "timeouts", "rebuilds"),
}
#: Layers whose self time is also given per input row.
_PER_ROW = {"can.fastbus.wire": "rows", "datasets.features": "rows", "finn.compiled": "rows"}
#: Layers whose per-call durations are given as percentiles, and in what unit.
_PER_CALL = {
    "can.fastbus.wire": ("call_us", 1e3, "us"),
    "finn.compiled": ("call_us", 1e3, "us"),
    "soc.gateway": ("vehicle_ms", 1e6, "ms"),
}
_NO_CALLS = {"soc.ecu.report", "soc.gateway", POOL_LAYER}


def _layer_names() -> list[tuple[str, str]]:
    names: list[tuple[str, str]] = []
    for layer in TIMED_LAYERS:
        names.append((f"{layer}.self_s", "s"))
        names.append((f"{layer}.share", "ratio"))
        if layer not in _NO_CALLS:
            names.append((f"{layer}.calls", "count"))
        names.extend((f"{layer}.{key}", "count") for key in _COUNTS.get(layer, ()))
        if layer in _PER_ROW:
            names.append((f"{layer}.ns_per_row", "ns"))
        if layer in _PER_CALL:
            stem, _, unit = _PER_CALL[layer]
            names.append((f"{layer}.{stem}_p50", unit))
            names.append((f"{layer}.{stem}_tail", unit))
            names.append((f"{layer}.{stem}_tail_pct", "%"))
    names.append(("can.fastbus.arbitration.faulted_self_s", "s"))
    names.append(("can.fastbus.arbitration.faulted_calls", "count"))
    names.extend(
        (f"can.faults.{key}", "count") for key in ("corrupted", "retransmissions", "bus_off")
    )
    names.append(("can.faults.clean_ratio", "ratio"))
    names.append(("soc.ecu.report.sim_latency_p50_ms", "ms"))
    names.append(("soc.ecu.report.sim_latency_p99_ms", "ms"))
    names.append(("soc.ecu.report.sim_energy_per_inference_mj", "mJ"))
    names.append(("experiments.context.train_s", "s"))
    names.append(("experiments.context.compile_s", "s"))
    names.append(("trace.coverage", "ratio"))
    names.append(("trace.overhead_pct", "%"))
    return names


PER_LAYER: tuple[tuple[str, str], ...] = tuple(_layer_names())

#: Candidate tail percentiles in per-mille, highest first (exact integers).
_TAILS_PER_MILLE = (999, 990, 950, 900, 750, 500)


def tail_percentile(samples: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    for per_mille in _TAILS_PER_MILLE:
        if samples * (1000 - per_mille) >= 10 * 1000:
            return per_mille / 10
    return 50.0


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


def end_to_end(values: dict[str, float]) -> Metrics:
    return {name: _metric(values[name], unit) for name, unit in END_TO_END}


def per_layer(
    reps: Sequence[Tracer],
    traced_walls: Sequence[float],
    plain_walls: Sequence[float],
    lanes: int,
    setup: Tracer,
) -> Metrics:
    """Per-layer metrics from the traced repetitions of one workload."""
    empty = LayerStats()
    first = reps[0].layers

    def self_s(layer: str) -> float:
        return statistics.median(rep.layers.get(layer, empty).self_ns for rep in reps) / 1e9

    def count(layer: str, key: str) -> int:
        return first.get(layer, empty).counts.get(key, 0)

    timed = {layer: self_s(layer) for layer in TIMED_LAYERS}
    busy = sum(timed.values())
    values: dict[str, float] = {}
    for layer in TIMED_LAYERS:
        stats = first.get(layer, empty)
        values[f"{layer}.self_s"] = timed[layer]
        values[f"{layer}.share"] = timed[layer] / busy if busy else 0.0
        values[f"{layer}.calls"] = stats.calls
        for key in _COUNTS.get(layer, ()):
            values[f"{layer}.{key}"] = count(layer, key)
        if layer in _PER_ROW:
            rows = count(layer, _PER_ROW[layer])
            values[f"{layer}.ns_per_row"] = 1e9 * timed[layer] / rows if rows else 0.0
        if layer in _PER_CALL:
            stem, scale, _ = _PER_CALL[layer]
            pooled = np.array(
                [ns for rep in reps for ns in rep.layers.get(layer, empty).samples_ns],
                dtype=np.float64,
            )
            tail = tail_percentile(len(pooled))
            if len(pooled):
                values[f"{layer}.{stem}_p50"] = float(np.percentile(pooled, 50)) / scale
                values[f"{layer}.{stem}_tail"] = float(np.percentile(pooled, tail)) / scale
            else:
                values[f"{layer}.{stem}_p50"] = values[f"{layer}.{stem}_tail"] = 0.0
            values[f"{layer}.{stem}_tail_pct"] = tail

    values["can.fastbus.arbitration.faulted_self_s"] = self_s(FAULTED_LAYER)
    values["can.fastbus.arbitration.faulted_calls"] = first.get(FAULTED_LAYER, empty).calls
    rows = count("can.faults", "rows")
    corrupted = count("can.faults", "corrupted")
    values["can.faults.corrupted"] = corrupted
    values["can.faults.retransmissions"] = count("can.faults", "retransmissions")
    values["can.faults.bus_off"] = count("can.faults", "bus_off")
    values["can.faults.clean_ratio"] = (rows - corrupted) / rows if rows else 1.0

    latencies = np.concatenate(reps[0].latencies) if reps[0].latencies else np.zeros(1)
    values["soc.ecu.report.sim_latency_p50_ms"] = 1e3 * float(np.percentile(latencies, 50))
    values["soc.ecu.report.sim_latency_p99_ms"] = 1e3 * float(np.percentile(latencies, 99))
    inferences = sum(n for _, n in reps[0].energy)
    # fsum is exactly rounded, so worker merge order cannot change a digit.
    energy = math.fsum(joules * n for joules, n in reps[0].energy)
    values["soc.ecu.report.sim_energy_per_inference_mj"] = (
        1e3 * energy / inferences if inferences else 0.0
    )

    values["experiments.context.train_s"] = (
        setup.layers.get("experiments.context.train", empty).self_ns / 1e9
    )
    values["experiments.context.compile_s"] = (
        setup.layers.get("experiments.context.compile", empty).self_ns / 1e9
    )
    values["trace.coverage"] = statistics.median(
        sum(rep.layers.get(layer, empty).self_ns for layer in TIMED_LAYERS) / 1e9 / (wall * lanes)
        for rep, wall in zip(reps, traced_walls)
    )
    values["trace.overhead_pct"] = 100.0 * (sum(traced_walls) / sum(plain_walls) - 1.0)
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER}
