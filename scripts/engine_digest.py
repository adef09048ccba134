#!/usr/bin/env python
"""One sha256 over both bus engines' outputs, for bit-identity checks.

Runs a fixed matrix through the event engine (``BusSimulator.run``) and
the columnar engine (``BusSimulator.capture``): four vehicle seeds, each
with a DoS flood and a fuzzing window, under no fault model, a zero-rate
model, BER 1e-4, BER 2e-3 and a targeted model whose window lies past
the horizon.  It then captures every channel of every registered
campaign scenario.  Every record field and every result column is
hashed, with dtypes and shapes, plus whether the fault columns are
``None``.

A refactor that claims unchanged outputs prints the same digest as its
parent.  Run it from each checkout's root:

    PYTHONPATH=src python scripts/engine_digest.py
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.can.attacks import DoSAttacker, FuzzyAttacker
from repro.can.campaign import SCENARIOS, compile_campaign
from repro.can.faults import TargetedFault, WireFaultModel
from repro.datasets.carhacking import build_vehicle_bus

SEEDS = (1, 2, 3, 4)
DURATION = 1.2
MODELS = (
    None,
    WireFaultModel(seed=3),
    WireFaultModel(seed=5, bit_error_rate=1e-4),
    WireFaultModel(seed=7, bit_error_rate=2e-3),
    WireFaultModel(seed=9, targeted=(TargetedFault(5.0, 6.0),)),
)
SCENARIO_VEHICLE_SEED = 11


def _topology(seed: int):
    bus = build_vehicle_bus(vehicle_seed=seed)
    bus.attach(DoSAttacker([(0.2, 0.7)], interval=0.0002, seed=seed))
    bus.attach(FuzzyAttacker([(0.6, 1.1)], seed=seed + 1))
    return bus


def _feed_array(digest, name: str, values: np.ndarray) -> None:
    values = np.ascontiguousarray(values)
    digest.update(f"{name}:{values.dtype}:{values.shape}".encode())
    digest.update(values.tobytes())


def _feed_records(digest, records) -> None:
    digest.update(f"records:{len(records)}".encode())
    for r in records:
        fields = (
            r.timestamp.hex(), r.frame.can_id, r.frame.data, r.label, r.source,
            r.queued_at.hex(), r.started_at.hex(), r.corrupted, r.retries, r.bus_off,
        )
        digest.update(repr(fields).encode())


def _feed_result(digest, result) -> None:
    for name in ("timestamps", "can_ids", "dlcs", "payloads", "labels"):
        _feed_array(digest, name, getattr(result.capture, name))
    for name in ("sources", "queued_at", "started_at", "wire_bits", "schedule_indices"):
        _feed_array(digest, name, getattr(result, name))
    absent = (result.corrupted is None, result.retries is None, result.bus_off is None)
    digest.update(repr(absent).encode())
    _feed_array(digest, "corrupted", result.corrupted_mask)
    _feed_array(digest, "retries", result.retry_counts)
    _feed_array(digest, "bus_off", result.bus_off_mask)


def main() -> None:
    digest = hashlib.sha256()
    outputs = 0
    for seed in SEEDS:
        for model in MODELS:
            _feed_records(digest, _topology(seed).run(DURATION, faults=model))
            _feed_result(digest, _topology(seed).capture(DURATION, faults=model))
            outputs += 2
    names = SCENARIOS.names()
    for name in names:
        campaign = SCENARIOS.build(name)
        buses = compile_campaign(campaign, vehicle_seed=SCENARIO_VEHICLE_SEED)
        for bus in buses.values():
            _feed_result(digest, bus.capture(campaign.duration))
            outputs += 1
    print(f"{len(names)} scenarios, {outputs} outputs: {digest.hexdigest()}")


if __name__ == "__main__":
    main()
