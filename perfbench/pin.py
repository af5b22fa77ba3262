"""Pin the exit code and stdout sha256 of every op of the default seed.

    python3 perfbench/pin.py

Writes perfbench/expected/<workload>.json.  Every later pass compares each op
whose command line appears there byte for byte.  Re-pin only for a change
that alters a report on purpose, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads
from run import HERE, ROOT, Runner


def main() -> int:
    work = ROOT / ".perfbench_work"
    try:
        for name in workloads.WORKLOADS:
            runner = Runner(name, workloads.DEFAULT_SEED, work)
            runner.pinned = None
            result = runner.child("time")
            if result["failed"]:
                print(f"{name}: not pinned, checks failed: {result['failures']}", file=sys.stderr)
                return 1
            path = HERE / "expected" / f"{name}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(result["digests"], indent=1, sort_keys=True) + "\n")
            print(f"{name}: pinned {len(result['digests'])} ops in {path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
