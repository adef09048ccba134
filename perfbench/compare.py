"""Compare two benchmark result files, flagging any manifest mismatch.

    python3 perfbench/compare.py BASE.json NEW.json

Prints the code each side ran, then each metric both files report, with
NEW / BASE.  When the two manifests differ on the environment (host,
interpreter, BLAS and its thread settings, backend, workers, start
method), the differences are printed first and the exit status is 1, so
a comparison across machines or thread settings never passes silently.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path[:1] = [str(Path(__file__).resolve().parent.parent)]

from perfbench.manifest import CODE_FIELDS, differences  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 perfbench/compare.py BASE.json NEW.json", file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    for field in CODE_FIELDS:
        print(f"code {field}: {base['manifest'].get(field)} -> {new['manifest'].get(field)}")
    mismatched = differences(base["manifest"], new["manifest"])
    for line in mismatched:
        print(f"MANIFEST MISMATCH {line}")
    for name, metric in base["metrics"].items():
        if name not in new["metrics"]:
            continue
        old, now = metric["value"], new["metrics"][name]["value"]
        ratio = f"{now / old:.4f}" if old else "n/a"
        print(f"{name:50s} {old:>14.6g} {now:>14.6g} {ratio:>8s} {metric['unit']}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
