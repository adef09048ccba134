"""Run health: what a fault-tolerant sharded run survived.

A fair-weather runner either returns results or raises; a fleet-scale
service needs a third outcome — *degraded* — where the shards that
could finish did, and the ones that could not are accounted for
instead of taking the whole campaign down.  :class:`RunHealth` is that
account: retry totals, per-shard timeout counts, process-pool rebuilds
and a :class:`ShardFailure` record for every shard that exhausted its
retry budget.  It rides on :class:`ShardedRun` (the
:func:`repro.fleet.pool.run_sharded` return type) and is re-exposed on
``FleetResult`` / ``CampaignSweepResult`` and their JSON artifacts, so
a degraded run *says so* wherever its numbers land.

Strict mode short-circuits the degradation: when a shard exhausts its
retries, :class:`ShardError` is raised (chained from the last worker
exception, when there was one) instead of recording the failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Sequence

from repro.errors import ReproError

__all__ = ["RunHealth", "ShardError", "ShardFailure", "ShardedRun"]


@dataclass(frozen=True)
class ShardFailure:
    """One shard that exhausted its retry budget.

    ``error`` is a one-line ``TypeName: message`` summary of the last
    attempt's failure (a worker exception, a timeout, or a pool crash)
    — a string, never the exception object, so failures serialise into
    JSON artifacts and cross process boundaries without re-pickling
    arbitrary tracebacks.
    """

    shard: int
    attempts: int
    error: str

    def as_record(self) -> dict[str, Any]:
        return {"shard": self.shard, "attempts": self.attempts, "error": self.error}


class ShardError(ReproError):
    """A shard exhausted its retries under ``strict=True``."""

    def __init__(self, failure: ShardFailure) -> None:
        super().__init__(
            f"shard {failure.shard} failed after {failure.attempts} attempt(s): "
            f"{failure.error}"
        )
        self.failure = failure


@dataclass(frozen=True)
class RunHealth:
    """Fault-tolerance accounting for one sharded run.

    ``retries`` counts every resubmission (including those that later
    succeeded); ``timeouts`` counts attempts abandoned at the per-shard
    deadline; ``pool_rebuilds`` counts :class:`BrokenProcessPool`
    recoveries; ``failures`` lists the shards that exhausted the retry
    budget (empty on a healthy run).  Shard ids are indices into the
    task list the run was given — :meth:`relabeled` maps them back to
    caller-level ids when only a subset was executed (checkpoint
    resume).
    """

    shards: int = 0
    completed: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    failures: tuple[ShardFailure, ...] = ()

    @classmethod
    def clean(cls, shards: int) -> "RunHealth":
        """The all-healthy record for a run of ``shards`` tasks."""
        return cls(shards=shards, completed=shards)

    @property
    def ok(self) -> bool:
        """True when every shard completed (retried or not)."""
        return not self.failures

    @property
    def failed_shards(self) -> tuple[int, ...]:
        return tuple(failure.shard for failure in self.failures)

    def relabeled(self, shard_ids: Sequence[int]) -> "RunHealth":
        """Map local shard indices onto caller-level ids.

        A resumed run executes only the shards missing from its
        checkpoint; ``shard_ids[i]`` names what local shard ``i`` was in
        the full run, so health records keep meaning across resumes.
        """
        return replace(
            self,
            failures=tuple(
                replace(failure, shard=shard_ids[failure.shard])
                for failure in self.failures
            ),
        )

    def as_record(self) -> dict[str, Any]:
        """Flat JSON-ready summary for artifacts and reports."""
        return {
            "shards": self.shards,
            "completed": self.completed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "failed_shards": list(self.failed_shards),
            "failures": [failure.as_record() for failure in self.failures],
        }

    def summary(self) -> str:
        if self.ok and not (self.retries or self.pool_rebuilds):
            return f"healthy: {self.completed}/{self.shards} shards first try"
        parts = [f"{self.completed}/{self.shards} shards completed"]
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.timeouts:
            parts.append(f"{self.timeouts} timeouts")
        if self.pool_rebuilds:
            parts.append(f"{self.pool_rebuilds} pool rebuild(s)")
        if self.failures:
            parts.append(f"FAILED shards {list(self.failed_shards)}")
        return ", ".join(parts)


@dataclass(frozen=True)
class ShardedRun:
    """What :func:`repro.fleet.pool.run_sharded` produced.

    ``results`` is index-aligned with the submitted task list; a shard
    that exhausted its retries (non-strict mode only) holds ``None`` at
    its slot and appears in ``health.failures``.  ``blas_threads`` is
    the OpenBLAS thread count process workers were pinned to: ``None``
    when the run stayed in-process or no set-threads symbol was found.
    """

    results: tuple[Any, ...] = ()
    health: RunHealth = field(default_factory=RunHealth)
    blas_threads: int | None = None

    def __iter__(self) -> Iterator[Any]:
        return iter(self.results)
