"""Output-lane plumbing shared by every benchmark.

Benchmarks archive their figures under one of three directories:

* ``benchmarks/output/`` — the committed trajectory.  Only the full
  lane of ``scripts/bench.sh`` writes it: it exports
  ``REPRO_BENCH_RECORD=1``.
* ``benchmarks/output/smoke/`` (gitignored) — ``scripts/bench.sh
  --smoke`` (the CI lane) exports ``REPRO_BENCH_SMOKE=1``: benchmarks
  shrink to one iteration over tiny inputs.
* ``benchmarks/output/local/`` (gitignored) — everything else, e.g. a
  plain ``pytest`` run that collects ``benchmarks/``, so running the
  tests never rewrites a committed file.

Import ``SMOKE`` and ``OUTPUT_DIR`` from here instead of re-deriving
them per file.
"""

import os
from pathlib import Path

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
RECORD = os.environ.get("REPRO_BENCH_RECORD") == "1"

OUTPUT_DIR = Path(__file__).parent / "output"
if SMOKE:
    OUTPUT_DIR = OUTPUT_DIR / "smoke"
elif not RECORD:
    OUTPUT_DIR = OUTPUT_DIR / "local"
