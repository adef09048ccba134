"""What produced a result: code, interpreter, BLAS, host and execution lane.

Every result file carries one manifest.  :func:`differences` names the
environment fields two manifests disagree on, so a comparison across
machines, BLAS thread settings or execution lanes is flagged instead of
silently made.  The code fields are expected to differ between the two
sides of an A/B comparison and are reported, not flagged.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import platform
import subprocess
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["BLAS_THREAD_VARIABLES", "CODE_FIELDS", "differences", "manifest"]

BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Fields that describe the run itself rather than what it ran on.
_PER_RUN = frozenset({"workload", "seed", "trace", "seconds"})
#: Fields that identify the code under test.
CODE_FIELDS = ("git_revision", "git_dirty", "source_sha256")


def _git(root: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _source_digest(root: Path) -> str:
    """SHA-256 over the library and benchmark sources, for trees without git."""
    sha = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((root / base).rglob("*.py")):
            sha.update(path.relative_to(root).as_posix().encode())
            sha.update(path.read_bytes())
    return sha.hexdigest()


def _blas() -> dict[str, Any]:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy without dict-mode show_config
        return {"name": None, "version": None}


def manifest(root: Path, workload: str, seed: int, trace: bool, seconds: float,
             backend: str, workers: int) -> dict[str, Any]:
    """The manifest of one benchmark run from the checkout at ``root``."""
    revision = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--", "src", "perfbench")
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "git_revision": revision,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": _source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "backend": backend,
        "workers": workers,
        "start_method": multiprocessing.get_context().get_start_method(),
    }


def differences(left: dict[str, Any], right: dict[str, Any]) -> list[str]:
    """Environment fields that differ: neither per-run nor code fields."""
    keys = sorted((set(left) | set(right)) - _PER_RUN - set(CODE_FIELDS))
    return [
        f"{key}: {left.get(key)!r} != {right.get(key)!r}"
        for key in keys
        if left.get(key) != right.get(key)
    ]
