"""Re-pin the reference outputs the benchmark checks every pass against.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 perfbench/pin_refs.py [WORKLOAD ...]

For each workload (default: all) and each pinned seed (``Scale``'s default
and the held-out seed), regenerate every figure once, cold and serial,
and store the SHA-256 of each rendered report (timing lines stripped) in
``perfbench/refs/<workload>.json``.  Only a change that deliberately
alters results (a ``CACHE_VERSION`` bump) should need this.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

from measure import REFS_DIR, run_pass
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS

PINNED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)


def main(names) -> int:
    cache_dir = Path(".perfbench") / "pin-cache"
    REFS_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        # Cold even for the warm workload: a replay must match a fresh run.
        workload = dataclasses.replace(WORKLOADS[name], warm=False)
        pinned = {}
        for seed in PINNED_SEEDS:
            record = run_pass(workload, workload.scale(seed), 1, cache_dir)
            if record["errors"]:
                print(f"{name} seed {seed}: {record['errors']}", file=sys.stderr)
                return 1
            pinned[str(seed)] = record["digests"]
        path = REFS_DIR / f"{name}.json"
        path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"pinned {path} ({len(pinned)} seeds)")
    shutil.rmtree(cache_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
