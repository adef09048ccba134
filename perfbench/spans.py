"""Per-layer spans recorded from outside the program.

The benchmark never edits ``src/``: it replaces each layer's public entry
point (a module function or a class method) with a wrapper that opens a
span around the original call, and puts the original back afterwards.
:func:`traced` does both; :func:`run_hooks` and :func:`setup_hooks` list
what is wrapped.

A span's *self time* is its duration minus the time its child spans
cover.  Spans nest per thread; a call that re-enters the layer already
open on top of the stack (the faulted arbitration kernel delegating to
the clean one, say) is folded into the outer span rather than counted
twice.

Process-pool workers inherit the wrappers when they fork, or install them
on their first shard when they start fresh.  Each worker writes its span
totals to ``<dump_dir>/worker-<pid>.pkl`` after every shard; the parent
merges those files when ``run_sharded`` returns, and credits the time the
workers' shards cover as child time of its own ``fleet.pool`` span, so
that span's self time is what the pool costs beyond the shards
(start-up, engine warm-up in each worker, pickling, the tail).
"""

from __future__ import annotations

import functools
import os
import pickle
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

__all__ = [
    "Hook",
    "LayerStats",
    "Tracer",
    "covered_ns",
    "run_hooks",
    "setup_hooks",
    "traced",
    "traced_shard_worker",
]

#: Keys the traced ``run_sharded`` adds to the state shipped to workers.
WORKER_KEY = "__perfbench_worker__"
TRACER_KEY = "__perfbench_tracer__"

#: Attribute set on every wrapper, so a test can prove none is left.
MARK = "__perfbench_layer__"

#: The residual layer: the fleet runner's shard loop around the wrapped
#: layers (scenario build, campaign shift, report folding).
SHARD_LAYER = "fleet.runner"
POOL_LAYER = "fleet.pool"
#: Arbitration calls under a wire-fault model, also counted in their layer.
FAULTED_LAYER = "can.fastbus.arbitration.faulted"

_MISSING = object()


@dataclass
class LayerStats:
    """What one layer did: self time, calls, work counts, call samples."""

    self_ns: int = 0
    calls: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    #: inclusive per-call durations, kept only for sampled layers
    samples_ns: list[int] = field(default_factory=list)

    def merge(self, other: "LayerStats") -> None:
        self.self_ns += other.self_ns
        self.calls += other.calls
        for key, value in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + value
        self.samples_ns.extend(other.samples_ns)


class _Frame:
    __slots__ = ("layer", "start", "child")

    def __init__(self, layer: str, start: int) -> None:
        self.layer = layer
        self.start = start
        self.child = 0


def covered_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


class Tracer:
    """Span stacks per thread, layer totals per process.

    ``clock`` returns integer nanoseconds (injectable for tests);
    ``dump_dir`` is where pool workers leave their totals.
    """

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        dump_dir: str | None = None,
    ) -> None:
        self.clock = clock
        self.dump_dir = dump_dir
        #: the process that created the tracer and collects worker dumps
        self.origin = os.getpid()
        self.installation: list[tuple[Any, str, Any]] | None = None
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.layers: dict[str, LayerStats] = {}
        #: shard-worker spans of this process, for the parent's pool span
        self.intervals: list[tuple[int, int]] = []
        #: simulated per-frame latency samples (s) of every ECU report
        self.latencies: list[np.ndarray] = []
        #: (energy per inference in J, inferences) of every ECU report
        self.energy: list[tuple[float, int]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # Pickled only when a pool starts its workers fresh (spawn or
    # forkserver): the worker rebuilds empty totals and its own wrappers.
    def __getstate__(self) -> dict[str, Any]:
        return {"clock": self.clock, "dump_dir": self.dump_dir, "origin": self.origin}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.clock = state["clock"]
        self.dump_dir = state["dump_dir"]
        self.origin = state["origin"]
        self.installation = None
        self._reset()

    def _stack(self) -> list[_Frame]:
        stack: list[_Frame] | None = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> str | None:
        """The layer open on top of this thread's stack."""
        stack = self._stack()
        return stack[-1].layer if stack else None

    def stats(self, layer: str) -> LayerStats:
        stats = self.layers.get(layer)
        if stats is None:
            stats = self.layers[layer] = LayerStats()
        return stats

    def begin(self, layer: str) -> _Frame:
        frame = _Frame(layer, self.clock())
        self._stack().append(frame)
        return frame

    def end(self, frame: _Frame, sample: bool = False) -> tuple[int, int]:
        """Close ``frame``; returns its (inclusive, self) nanoseconds."""
        elapsed = self.clock() - frame.start
        stack = self._stack()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame.layer!r} closed out of order")
        stack.pop()
        if stack:
            stack[-1].child += elapsed
        own = elapsed - frame.child
        with self._lock:
            stats = self.stats(frame.layer)
            stats.self_ns += own
            stats.calls += 1
            if sample:
                stats.samples_ns.append(elapsed)
        return elapsed, own

    def attribute(self, layer: str, self_ns: int) -> None:
        """Book one call's self time under a sub-layer as well (no span)."""
        with self._lock:
            stats = self.stats(layer)
            stats.self_ns += self_ns
            stats.calls += 1

    def count(self, layer: str, **counts: int) -> None:
        with self._lock:
            totals = self.stats(layer).counts
            for key, value in counts.items():
                totals[key] = totals.get(key, 0) + int(value)

    def record_report(self, latency_s: np.ndarray, energy_j: float) -> None:
        with self._lock:
            self.latencies.append(latency_s)
            self.energy.append((energy_j, len(latency_s)))

    # -- pool workers -------------------------------------------------------
    def adopt_process(self) -> bool:
        """True in a pool worker, which starts its own totals on first use.

        A forked worker inherits the parent's totals and open spans, and a
        fresh one has no wrappers yet: both are put right here.
        """
        pid = os.getpid()
        if pid == self.origin:
            return False
        if pid != self.pid:
            self._reset()
        if self.installation is None:
            self.installation = _install(self, run_hooks())
        return True

    def dump(self) -> None:
        """Write this worker's totals where the parent collects them."""
        if self.dump_dir is None:
            return
        path = Path(self.dump_dir) / f"worker-{os.getpid()}.pkl"
        partial = path.with_suffix(".tmp")
        with self._lock:
            payload = {
                "layers": self.layers,
                "intervals": self.intervals,
                "latencies": self.latencies,
                "energy": self.energy,
            }
            partial.write_bytes(pickle.dumps(payload))
        os.replace(partial, path)

    def collect_workers(self, frame: _Frame) -> None:
        """Merge worker dumps; their shard time becomes ``frame``'s child time."""
        if self.dump_dir is None:
            return
        intervals: list[tuple[int, int]] = []
        for path in sorted(Path(self.dump_dir).glob("worker-*.pkl")):
            # Only this benchmark's own workers write these files.
            payload = pickle.loads(path.read_bytes())
            path.unlink()
            with self._lock:
                for name, stats in payload["layers"].items():
                    self.stats(name).merge(stats)
                self.latencies.extend(payload["latencies"])
                self.energy.extend(payload["energy"])
            intervals.extend(payload["intervals"])
        frame.child += covered_ns(intervals, frame.start, self.clock())


# ---------------------------------------------------------------------------
# Hooks: which entry point each layer is timed around
# ---------------------------------------------------------------------------

Observer = Callable[[Tracer, tuple[Any, ...], dict[str, Any], Any, int], None]


@dataclass(frozen=True)
class Hook:
    """Time ``owner.attr`` (a module function or class method) as ``layer``.

    ``observe(tracer, args, kwargs, result, self_ns)`` runs after the span
    closes and records the call's work counts; ``sample`` keeps every
    call's inclusive duration for percentiles.
    """

    layer: str
    owner: Any
    attr: str
    observe: Observer | None = None
    sample: bool = False


def _arg(args: tuple[Any, ...], kwargs: dict[str, Any], index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs.get(name)


def _rows_of(index: int, name: str, layer: str) -> Observer:
    def observe(tracer: Tracer, args: tuple[Any, ...], kwargs: dict[str, Any], result: Any, own: int) -> None:
        tracer.count(layer, rows=len(_arg(args, kwargs, index, name)))

    return observe


def _observe_schedule(tracer: Tracer, args: tuple[Any, ...], kwargs: dict[str, Any], result: Any, own: int) -> None:
    tracer.count("can.fastbus.schedule", rows=len(result))


def _observe_arbitration(tracer: Tracer, args: tuple[Any, ...], kwargs: dict[str, Any], result: Any, own: int) -> None:
    if _arg(args, kwargs, 3, "faults") is not None:
        tracer.attribute(FAULTED_LAYER, own)
    tracer.count(
        "can.fastbus.arbitration",
        rows_in=len(_arg(args, kwargs, 0, "schedule")),
        rows_out=len(result),
    )
    corrupted = result.corrupted_mask
    tracer.count(
        "can.faults",
        rows=len(result),
        corrupted=int(corrupted.sum()),
        retransmissions=int(result.retry_counts[~corrupted].sum()),
        bus_off=int(result.bus_off_mask.sum()),
    )


def _observe_fifo(tracer: Tracer, args: tuple[Any, ...], kwargs: dict[str, Any], result: Any, own: int) -> None:
    tracer.count(
        "soc.ecu.fifo",
        offered=result.num_frames - result.corrupted_frames,
        dropped=result.fifo_dropped,
    )


def _observe_report(tracer: Tracer, args: tuple[Any, ...], kwargs: dict[str, Any], result: Any, own: int) -> None:
    tracer.record_report(result.latency_samples, result.energy_per_inference_j)


def run_hooks() -> list[Hook]:
    """The layers of one ``run_fleet`` call, bus to fleet.

    The fleet runner imports ``build_campaign_gateway`` and ``run_sharded``
    by name, so those two are wrapped where the runner looks them up.
    """
    import repro.can.fastbus as fastbus
    import repro.fleet.runner as runner
    from repro.datasets.features import BitFeatureEncoder
    from repro.finn.compiled import CompiledEngine
    from repro.fleet.aggregate import FleetAggregate
    from repro.fleet.spec import FleetSpec
    from repro.soc.ecu import ECUStreamSession, IDSEnabledECU
    from repro.soc.gateway import IDSGateway

    return [
        Hook("fleet.spec", FleetSpec, "vehicle"),
        Hook("can.campaign", runner, "build_campaign_gateway"),
        Hook("can.fastbus.schedule", fastbus, "build_schedule", _observe_schedule),
        Hook(
            "can.fastbus.wire", fastbus, "standard_wire_bits",
            _rows_of(0, "can_ids", "can.fastbus.wire"), sample=True,
        ),
        Hook("can.fastbus.arbitration", fastbus, "simulate_arbitration", _observe_arbitration),
        Hook("soc.ecu.fifo", IDSEnabledECU, "open_stream", _observe_fifo),
        Hook(
            "datasets.features", BitFeatureEncoder, "encode_batch",
            _rows_of(1, "capture", "datasets.features"),
        ),
        Hook(
            "finn.compiled", CompiledEngine, "predict",
            _rows_of(1, "features", "finn.compiled"), sample=True,
        ),
        Hook("soc.ecu.report", ECUStreamSession, "finish", _observe_report),
        Hook("soc.gateway", IDSGateway, "monitor", sample=True),
        Hook("fleet.aggregate", FleetAggregate, "merge"),
        Hook(POOL_LAYER, runner, "run_sharded"),
    ]


def setup_hooks() -> list[Hook]:
    """Detector training and compilation inside ``ExperimentContext``."""
    import repro.experiments.context as context

    return [
        Hook("experiments.context.train", context, "train_ids_model"),
        Hook("experiments.context.compile", context, "compile_model"),
    ]


def _wrap(tracer: Tracer, hook: Hook, original: Callable[..., Any]) -> Callable[..., Any]:
    layer = hook.layer

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if tracer.current() == layer:
            return original(*args, **kwargs)
        frame = tracer.begin(layer)
        try:
            result = original(*args, **kwargs)
        finally:
            _, own = tracer.end(frame, hook.sample)
        if hook.observe is not None:
            hook.observe(tracer, args, kwargs, result, own)
        return result

    setattr(wrapper, MARK, layer)
    return wrapper


def _wrap_pool(tracer: Tracer, original: Callable[..., Any]) -> Callable[..., Any]:
    """``run_sharded`` with the shard worker swapped for :func:`traced_shard_worker`."""

    @functools.wraps(original)
    def wrapper(
        tasks: Any, worker: Callable[[Any], Any], state: dict[str, Any],
        backend: str, max_workers: int, **kwargs: Any,
    ) -> Any:
        shipped = dict(state)
        shipped[WORKER_KEY] = worker
        shipped[TRACER_KEY] = tracer
        frame = tracer.begin(POOL_LAYER)
        try:
            outcome = original(
                tasks, traced_shard_worker, shipped, backend, max_workers, **kwargs
            )
        finally:
            tracer.collect_workers(frame)
            tracer.end(frame)
        health = outcome.health
        tracer.count(
            POOL_LAYER,
            shards=len(tasks),
            workers=max_workers,
            retries=health.retries,
            timeouts=health.timeouts,
            rebuilds=health.pool_rebuilds,
        )
        return outcome

    setattr(wrapper, MARK, POOL_LAYER)
    return wrapper


def traced_shard_worker(task: Any) -> Any:
    """The shard worker ``run_sharded`` runs while traced (module level: picklable)."""
    from repro.fleet.pool import worker_state

    state = worker_state()
    tracer: Tracer = state[TRACER_KEY]
    in_worker = tracer.adopt_process()
    frame = tracer.begin(SHARD_LAYER)
    try:
        return state[WORKER_KEY](task)
    finally:
        tracer.end(frame)
        if in_worker:
            tracer.intervals.append((frame.start, tracer.clock()))
            tracer.dump()


def _install(tracer: Tracer, hooks: list[Hook]) -> list[tuple[Any, str, Any]]:
    saved: list[tuple[Any, str, Any]] = []
    for hook in hooks:
        original = hook.owner.__dict__.get(hook.attr, _MISSING)
        current = getattr(hook.owner, hook.attr)
        wrapper = (
            _wrap_pool(tracer, current)
            if hook.layer == POOL_LAYER
            else _wrap(tracer, hook, current)
        )
        setattr(hook.owner, hook.attr, wrapper)
        saved.append((hook.owner, hook.attr, original))
    return saved


def _uninstall(saved: list[tuple[Any, str, Any]]) -> None:
    for owner, attr, original in reversed(saved):
        if original is _MISSING:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)


@contextmanager
def traced(tracer: Tracer, hooks: list[Hook]) -> Iterator[Tracer]:
    """Wrap every hook for the duration of the block, then restore them."""
    saved = _install(tracer, hooks)
    tracer.installation = saved
    try:
        yield tracer
    finally:
        tracer.installation = None
        _uninstall(saved)
