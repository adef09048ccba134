"""Run one benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload fleet-auto --seed 1 --seconds 45 --trace 0

``--trace 0`` reports the end-to-end metrics, measured with no wrapper
installed.  ``--trace 1`` reports the per-layer metrics: it alternates
untraced and traced repetitions for ``--seconds`` and reports the traced
ones, plus the tracing overhead between the two.  Both modes check the
outputs (``perfbench/check.py``) outside the timed window and write the
full result, with its run manifest, to ``.perfbench/results/``.  Run from
the repository root; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, NamedTuple

ROOT = Path(__file__).resolve().parent.parent

#: Share of the timed window given to fresh set-ups, spread through it.
SETUP_SHARE = 0.2
#: Timed repetitions per run even when ``--seconds`` is already spent.
MIN_REPEATS = 3


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_paths() -> None:
    """Put the checkout's ``src`` and root on the path; fail without them."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources under {ROOT / 'src'}")
    # The script's own directory goes: its module names must not shadow
    # the standard library for the program under test.
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]


def _set_up(workload: Any) -> tuple[Any, float]:
    """A fresh context with every detector trained, compiled and warmed."""
    from repro.experiments.context import ExperimentContext
    from repro.finn.compiled import engine_for
    from repro.fleet import fleet_detectors

    from perfbench.workloads import SETTINGS

    start = time.perf_counter()
    context = ExperimentContext(SETTINGS)
    for detector in sorted(set(fleet_detectors(workload.spec).values())):
        engine_for(context.ip(detector))
    return context, time.perf_counter() - start


def _timed(context: Any, workload: Any) -> tuple[Any, float]:
    from repro.fleet import run_fleet

    from perfbench.workloads import SHARD_SIZE

    start = time.perf_counter()
    result = run_fleet(context, workload.spec, workload.options, shard_size=SHARD_SIZE)
    return result, time.perf_counter() - start


def _reap_children() -> None:
    """Wait for every pool worker, so each has ended and its peak RSS counts."""
    for child in multiprocessing.active_children():
        child.join(timeout=60)


def _pooled_workers(result: Any) -> int:
    """Worker processes the run used (0 when it ran in this process)."""
    if result.backend == "process" and result.workers > 1 and result.shards > 1:
        return int(result.workers)
    return 0


def _peak_rss_mb(workers: int) -> float:
    """This process's peak RSS plus ``workers`` times the largest worker's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0  # ru_maxrss is in KiB on Linux


class Measured(NamedTuple):
    context: Any
    #: the warm-up repetition first, then every timed one
    results: list[Any]
    #: per-layer metrics, or the end-to-end values that need no check
    metrics: dict[str, Any]
    extra: dict[str, Any]
    counts_repeat: bool = True


def _end_to_end(workload: Any, seconds: float) -> Measured:
    context, first_setup = _set_up(workload)
    warm, _ = _timed(context, workload)  # untimed: first-call costs
    results, walls, setups = [warm], [], [first_setup]
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline or len(walls) < MIN_REPEATS:
        # Further set-ups are interleaved with the repetitions, so they see
        # the same host speed; their contexts are thrown away.
        if sum(setups) < SETUP_SHARE * (time.perf_counter() - start):
            setups.append(_set_up(workload)[1])
            continue
        result, wall = _timed(context, workload)
        results.append(result)
        walls.append(wall)
    _reap_children()
    total = warm.aggregate.total
    # Totals over the window, not medians: this host's speed switches
    # between two levels for seconds at a time, and a median jumps between
    # them where the totals move with the time spent in each.
    busy = sum(walls)
    values = {
        "vehicles_per_s": sum(r.vehicles for r in results[1:]) / busy,
        "frames_per_s": sum(r.aggregate.total.frames_offered for r in results[1:]) / busy,
        "setup_s": sum(setups) / len(setups),
        "peak_rss_mb": _peak_rss_mb(_pooled_workers(warm)),
        "detection_rate": total.detection_rate,
        "delivered_ratio": total.frames_processed / total.frames_offered,
    }
    extra = {"repetitions": len(walls), "walls_s": walls, "setups_s": setups}
    return Measured(context, results, values, extra)


def _per_layer(workload: Any, seconds: float, work_dir: Path) -> Measured:
    from perfbench import report
    from perfbench.spans import Tracer, run_hooks, setup_hooks, traced

    setup_tracer = Tracer()
    with traced(setup_tracer, setup_hooks()):
        context, _ = _set_up(workload)
    warm, _ = _timed(context, workload)
    results, plain, walls, reps = [warm], [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(reps) < MIN_REPEATS:
        result, wall = _timed(context, workload)
        results.append(result)
        plain.append(wall)
        with tempfile.TemporaryDirectory(dir=work_dir) as dump_dir:
            tracer = Tracer(dump_dir=dump_dir)
            with traced(tracer, run_hooks()):
                result, wall = _timed(context, workload)
        results.append(result)
        walls.append(wall)
        reps.append(tracer)
    _reap_children()
    lanes = max(1, _pooled_workers(warm))
    metrics = report.per_layer(reps, walls, plain, lanes, setup_tracer)
    counts = [{k: (v.calls, v.counts) for k, v in rep.layers.items()} for rep in reps]
    extra = {"repetitions": len(walls), "traced_walls_s": walls, "plain_walls_s": plain}
    return Measured(context, results, metrics, extra, all(c == counts[0] for c in counts))


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _import_paths()
    from perfbench import report, workloads
    from perfbench.check import check_run
    from perfbench.manifest import manifest

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    workload = workloads.build(args.workload, args.seed)
    work_dir = ROOT / ".perfbench"
    (work_dir / "results").mkdir(parents=True, exist_ok=True)

    if args.trace:
        measured = _per_layer(workload, args.seconds, work_dir)
    else:
        measured = _end_to_end(workload, args.seconds)
    check = check_run(measured.context, workload, measured.results)
    if not measured.counts_repeat:
        check.fail(range(check.vehicles), "per-layer counts differ between repetitions")
    metrics = measured.metrics
    if not args.trace:
        completed = (check.vehicles - len(check.failed)) / check.vehicles
        metrics = report.end_to_end({**metrics, "completed_vehicle_ratio": completed})

    warm = measured.results[0]
    record = {
        "manifest": manifest(
            ROOT, args.workload, args.seed, bool(args.trace), args.seconds,
            backend=warm.backend, workers=warm.workers,
        ),
        "correct": check.ok,
        "attempted": check.vehicles,
        "failed": len(check.failed),
        "problems": check.problems,
        "aggregate_sha256": check.digest,
        "fleet": warm.as_record(),
        "metrics": metrics,
        **measured.extra,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = work_dir / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"perfbench {args.workload} seed={args.seed}: {warm.backend} x{warm.workers}, "
          f"digest {check.digest[:16]}, result {path.relative_to(ROOT)}")
    for problem in check.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": check.ok,
        "attempted": check.vehicles,
        "failed": len(check.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
