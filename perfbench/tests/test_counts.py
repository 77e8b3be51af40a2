"""Self-test of the benchmark: work counts repeat exactly for a fixed seed.

Two traced runs of a workload at the same seed must report identical
values for every count in ``measure.EXACT_COUNTS`` (except, under
``--jobs 2``, the realization count: pool workers memoize realizations
per process).  A later change may cite these counts as a count-based
claim only because they repeat.

Run from the root of a checkout (takes a few minutes)::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from measure import exact_counts  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def traced_run(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_across_runs(name):
    first, second = traced_run(name), traced_run(name)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    for count in exact_counts(WORKLOADS[name]):
        assert first["metrics"][count] == second["metrics"][count], count


def test_bare_directory_refuses_to_run(tmp_path):
    """Without the program beside it the benchmark fails without a result."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "ideal-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
