"""One benchmark measurement, run as its own process by ``run.py``.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/measure.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR --out FILE [--fill]

``--fill`` regenerates the workload once with ``--jobs 2`` into
``DIR/cache`` and writes the output digests: the untimed preparation of a
warm workload.  Otherwise the process makes one untimed warm-up pass and
then timed passes until ``--seconds`` have elapsed (with ``--trace 1``,
untraced passes for the first half and traced passes for the second),
checks every figure, and writes its findings to ``--out`` as JSON.

A pass regenerates every figure of the workload, in order, and renders
it.  Cold workloads clear the in-process memo and evaluator caches and
start from an empty cache directory before each pass; the warm workload
clears the in-process layers only, so every point is read from disk.
A pass's ``wall_s`` and ``cpu_s`` are in reference seconds (see
``hostspeed.py``); ``raw_wall_s`` and ``raw_cpu_s`` are as measured.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import hostspeed
import tracing
from workloads import WORKLOADS, Workload

#: A pass is repeated at least this often per timed phase.
MIN_PASSES = 2

#: The CLI's per-figure timing suffix, stripped before comparing reports.
_TIMING_LINE = re.compile(r"^\s*\(\d+(\.\d+)?s at scale=[^)]*\)\s*$")

REFS_DIR = Path(__file__).resolve().parent / "refs"

#: Work counts that must repeat exactly for a fixed seed.
EXACT_COUNTS = (
    "runners.points_computed",
    "runners.points_reused",
    "ideal.broadcasts",
    "detailed.batched_seed_runs",
    "detailed.reference_runs",
    "scenarios.realize_calls",
    "runners.cache_puts",
)


def exact_counts(workload: Workload) -> Tuple[str, ...]:
    """The counts that repeat exactly on ``workload``.

    Pool workers each keep their own memoized scenario realizations, so
    under ``--jobs 2`` the number of ``realize`` calls depends on which
    worker ran which point.
    """
    if workload.jobs > 1:
        return tuple(c for c in EXACT_COUNTS if c != "scenarios.realize_calls")
    return EXACT_COUNTS


def normalized(text: str) -> str:
    """A figure report without the CLI's timing lines."""
    return "\n".join(
        line for line in text.splitlines() if not _TIMING_LINE.match(line)
    )


def digest(text: str) -> str:
    return hashlib.sha256(normalized(text).encode("utf-8")).hexdigest()


def load_refs(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """Pinned per-figure digests for ``seed``, if this seed is pinned."""
    path = REFS_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    pinned = json.loads(path.read_text(encoding="utf-8"))
    return pinned.get(str(seed))


def sane(result: Any) -> bool:
    """Structural check: something to show, and every value a finite number."""
    if not (result.series or result.table_rows):
        return False
    for series in result.series:
        if not series.points:
            return False
        for x, y in series.points:
            if not math.isfinite(x) or (y is not None and not math.isfinite(y)):
                return False
    return True


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_pass(
    workload: Workload, scale: Any, jobs: int, cache_dir: Path
) -> Dict[str, Any]:
    """Regenerate and render every figure once; time the whole pass."""
    from repro.experiments import get_experiment
    from repro.runners import clear_run_caches, execution, get_stats

    clear_run_caches()
    if not workload.warm:
        shutil.rmtree(cache_dir, ignore_errors=True)
    get_stats().reset()
    gc.collect()
    results: Dict[str, Any] = {}
    texts: Dict[str, str] = {}
    errors: Dict[str, str] = {}
    wall = cpu = wall_ref = cpu_ref = 0.0
    with execution(jobs=jobs, cache_dir=str(cache_dir)):
        # Each figure is timed between two calibrations, so its time is
        # rescaled by the host's speed around it (see hostspeed.py).
        speed = [hostspeed.calibrate()]
        for figure in workload.figure_ids():
            cpu0 = _cpu_seconds()
            start = time.perf_counter()
            try:
                result = get_experiment(figure).run(scale)
                texts[figure] = result.render()
                results[figure] = result
            except Exception as error:  # a failed operation, not a crash
                errors[figure] = f"{type(error).__name__}: {error}"
            elapsed = time.perf_counter() - start
            used = _cpu_seconds() - cpu0
            speed.append(hostspeed.calibrate())
            wall += elapsed
            cpu += used
            wall_ref += hostspeed.reference_seconds(elapsed, *speed[-2:])
            cpu_ref += hostspeed.reference_seconds(used, *speed[-2:])
    stats = get_stats()
    if not workload.warm:
        shutil.rmtree(cache_dir, ignore_errors=True)
    for figure, result in results.items():
        if not sane(result):
            errors.setdefault(figure, "non-finite or empty series")
    return {
        "wall_s": wall_ref,
        "cpu_s": cpu_ref,
        "raw_wall_s": wall,
        "raw_cpu_s": cpu,
        "calibration_s": statistics.median(speed),
        "digests": {figure: digest(text) for figure, text in texts.items()},
        "errors": errors,
        "computed": stats.computed,
        "reused": stats.reused,
    }


def layer_metrics(tracer_spans, worker_spans, wall: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    own = tracing.self_times(tracer_spans)
    both = tracing.self_times(tracer_spans + worker_spans)
    n = tracing.counts(tracer_spans + worker_spans)
    metrics = {f"{layer}_s": both.get(layer, 0.0) for layer in tracing.LAYER_NAMES}
    broadcasts = n.get("ideal.kernel.broadcasts", 0)
    batched = n.get("detailed.batched.seed_runs", 0)
    reference = n.get("detailed.reference.calls", 0)
    keys = n.get("runners.cache_get.keys", 0)
    metrics.update({
        "ideal.broadcasts": broadcasts,
        "ideal.ms_per_broadcast": (
            1000.0 * metrics["ideal.kernel_s"] / broadcasts if broadcasts else 0.0
        ),
        "detailed.batched_seed_runs": batched,
        "detailed.reference_runs": reference,
        "detailed.batched_share": (
            batched / (batched + reference) if batched + reference else 0.0
        ),
        "scenarios.realize_calls": n.get("scenarios.realize.calls", 0),
        "runners.cache_puts": n.get("runners.cache_put.calls", 0),
        "runners.cache_hit_ratio": (
            n.get("runners.cache_get.hits", 0) / keys if keys else 0.0
        ),
        "runners.points_computed": n.get("runners.campaign.computed", 0),
        "runners.points_reused": n.get("runners.campaign.reused", 0),
    })
    # Coverage is judged on the process that waits for the result: worker
    # time overlaps the parent's (attributed to runners.wait).
    covered = sum(own.values())
    metrics["unattributed_s"] = wall - covered
    metrics["layer_coverage"] = covered / wall
    return metrics


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, work: Path
) -> Dict[str, Any]:
    """Warm up, time passes, check every figure; the findings as a dict."""
    scale = workload.scale(seed)
    cache_dir = work / "cache"
    tracer = None
    warnings: List[str] = []
    if trace:
        tracer, missing = tracing.install(work / "spool")
        warnings.extend(f"entry point {target} not found" for target in missing)
    problems: List[str] = []

    # The untimed warm-up also yields the outputs later passes must repeat.
    # A --jobs 2 workload warms up serially, so its timed passes are
    # checked against the serial backend as well.
    warmup = run_pass(workload, scale, 1, cache_dir)
    baseline = warmup["digests"]
    if workload.warm:
        filled = json.loads((work / "fill.json").read_text(encoding="utf-8"))
        baseline = filled["digests"]
        problems.extend(f"fill {f}: {e}" for f, e in filled["errors"].items())
        if warmup["computed"]:
            problems.append(f"warm-up replay simulated {warmup['computed']} points")
    problems.extend(f"warm-up {f}: {e}" for f, e in warmup["errors"].items())
    expected = baseline
    refs = load_refs(workload.name, seed)
    if refs is not None:
        expected = refs
        problems.extend(
            f"{figure}: output differs from the pinned reference"
            for figure in workload.figure_ids()
            if baseline.get(figure) != refs.get(figure)
        )

    attempted = 0
    failed = 0
    passes: List[Dict[str, Any]] = []
    phases = [(seconds, False)] if not trace else [(seconds / 2, False),
                                                   (seconds / 2, True)]
    for phase_seconds, traced in phases:
        deadline = time.monotonic() + phase_seconds
        done = 0
        while done < MIN_PASSES or time.monotonic() < deadline:
            if traced:
                tracer.enabled = True
            record = run_pass(workload, scale, workload.jobs, cache_dir)
            record["traced"] = traced
            if traced:
                tracer.enabled = False
                own, workers = tracer.collect()
                record["layers"] = layer_metrics(own, workers, record["raw_wall_s"])
                with open(work / "spans.jsonl", "a", encoding="utf-8") as handle:
                    for span in own + workers:
                        handle.write(json.dumps([len(passes), *span]) + "\n")
            simulated = workload.warm and record["computed"] > 0
            if simulated:
                problems.append(f"replay simulated {record['computed']} points")
            for figure in workload.figure_ids():
                attempted += 1
                if (
                    simulated
                    or figure in record["errors"]
                    or record["digests"].get(figure) != expected.get(figure)
                ):
                    failed += 1
                    problems.append(
                        f"{figure}: "
                        + record["errors"].get(figure, "output differs")
                    )
            del record["digests"]
            passes.append(record)
            done += 1

    findings: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "refs_checked": refs is not None,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "warnings": warnings,
        "passes": passes,
        "peak_rss_self_mb": _max_rss_mb(resource.RUSAGE_SELF),
        "peak_rss_children_mb": _max_rss_mb(resource.RUSAGE_CHILDREN),
    }
    if trace:
        traced = [p for p in passes if p["traced"]]
        untraced = [p for p in passes if not p["traced"]]
        layers = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        layers["trace_overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in untraced)
            - 1.0
        )
        findings["layers"] = layers
        findings["counts_repeat"] = all(
            p["layers"][name] == traced[0]["layers"][name]
            for p in traced
            for name in exact_counts(workload)
        )
        if not findings["counts_repeat"]:
            problems.append("work counts differ between traced passes")
        if workload.jobs == 1 and layers["layer_coverage"] < 0.95:
            warnings.append(
                f"layer coverage {layers['layer_coverage']:.3f} < 0.95"
            )
    return findings


def _max_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--fill", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.fill:
        # Cold --jobs 2 into the cache the warm passes will read.
        record = run_pass(
            workload, workload.scale(args.seed), 2, args.work / "cache"
        )
        findings = {key: record[key] for key in ("digests", "errors", "computed")}
    else:
        findings = measure(
            workload, args.seed, args.seconds, bool(args.trace), args.work
        )
    args.out.write_text(json.dumps(findings, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
