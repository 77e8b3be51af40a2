"""End-of-run metrics aggregation over telemetry event logs.

Folds every process's event file into one summary — per-phase wall
time, cache hit rates, retry/timeout/failure counts, per-worker
throughput — and renders it as the aligned table the CLI prints after a
telemetry-enabled campaign.  Every count is read off span and event
records; records of any other type (older logs' ``counters`` and
``gauge`` snapshots) are skipped.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Union

from repro.obs.reader import iter_events

#: The events a failed attempt ends in; each carries the ``error`` type.
_ATTEMPT_EVENTS = ("task.retry", "task.degraded", "task.exhausted")


def aggregate_metrics(telemetry_dir: Union[str, Path]) -> Dict[str, Any]:
    """Aggregate every event file under ``telemetry_dir``.

    Returns a dict with:

    ``spans``
        ``{name: {"count", "total_s", "mean_s", "max_s"}}`` over all
        span records.
    ``events``
        Per-name occurrence counts of instantaneous events.
    ``cache_hits`` / ``cache_probes``
        Disk-cache hits (summed ``disk`` of ``campaign.end`` events) out
        of the keys probed (summed ``keys`` of ``phase.cache-get``
        spans).
    ``timeouts``
        Failed attempts whose ``error`` is ``TaskTimeoutError``.
    ``workers``
        ``{source: {"role", "tasks", "busy_s", "tasks_per_s"}}`` from
        "task" spans — the per-worker throughput view.
    ``n_records`` / ``n_sources``
        Volume of telemetry parsed.
    """
    spans: Dict[str, Dict[str, float]] = {}
    events: Dict[str, int] = {}
    cache_hits = cache_probes = timeouts = 0
    workers: Dict[str, Dict[str, Any]] = {}
    sources = set()
    n_records = 0

    for record in iter_events(telemetry_dir):
        n_records += 1
        source = str(record.get("source", "unknown"))
        sources.add(source)
        kind = record.get("type")
        name = str(record.get("name", ""))
        if kind == "span":
            duration = float(record.get("dur", 0.0))
            stats = spans.setdefault(
                name, {"count": 0, "total_s": 0.0, "max_s": 0.0}
            )
            stats["count"] += 1
            stats["total_s"] += duration
            stats["max_s"] = max(stats["max_s"], duration)
            if name == "phase.cache-get":
                cache_probes += int(record.get("keys", 0))
            elif name == "task":
                worker = workers.setdefault(
                    source,
                    {"role": str(record.get("role", "")), "tasks": 0,
                     "busy_s": 0.0},
                )
                worker["tasks"] += 1
                worker["busy_s"] += duration
        elif kind == "event":
            events[name] = events.get(name, 0) + 1
            if name == "campaign.end":
                cache_hits += int(record.get("disk", 0))
            elif (
                name in _ATTEMPT_EVENTS
                and record.get("error") == "TaskTimeoutError"
            ):
                timeouts += 1

    for stats in spans.values():
        stats["mean_s"] = (
            stats["total_s"] / stats["count"] if stats["count"] else 0.0
        )
    for worker in workers.values():
        worker["tasks_per_s"] = (
            worker["tasks"] / worker["busy_s"] if worker["busy_s"] > 0
            else 0.0
        )

    return {
        "spans": spans,
        "events": events,
        "cache_hits": cache_hits,
        "cache_probes": cache_probes,
        "timeouts": timeouts,
        "workers": workers,
        "n_records": n_records,
        "n_sources": len(sources),
    }


def render_metrics_table(summary: Dict[str, Any]) -> List[str]:
    """Render the aggregate as aligned report lines."""
    lines: List[str] = []
    lines.append(
        f"telemetry summary: {summary['n_records']} records from "
        f"{summary['n_sources']} process(es)"
    )

    spans = summary["spans"]
    if spans:
        lines.append("  phase wall time:")
        name_width = max(len(name) for name in spans)
        for name in sorted(spans, key=lambda n: -spans[n]["total_s"]):
            stats = spans[name]
            lines.append(
                f"    {name:<{name_width}}  {stats['total_s']:>9.3f}s total"
                f"  x{int(stats['count']):<6d} mean {stats['mean_s']*1e3:8.2f}ms"
                f"  max {stats['max_s']*1e3:8.2f}ms"
            )

    probes = summary["cache_probes"]
    if probes:
        hits = summary["cache_hits"]
        lines.append("  cache:")
        lines.append(f"    hits {100.0 * hits / probes:.1f}% of {probes}")

    events = summary["events"]
    if events:
        lines.append("  events:")
        for name in sorted(events):
            lines.append(f"    {name} x{events[name]}")
    retries = events.get("task.retry", 0)
    if retries:
        lines.append(f"  retries observed: {retries}")
    if summary["timeouts"]:
        lines.append(f"  timeouts observed: {summary['timeouts']}")

    workers = summary["workers"]
    if workers:
        lines.append("  per-worker throughput (task spans):")
        for source in sorted(workers):
            worker = workers[source]
            role = f" [{worker['role']}]" if worker["role"] else ""
            lines.append(
                f"    {source}{role}: {worker['tasks']} tasks in "
                f"{worker['busy_s']:.3f}s busy "
                f"({worker['tasks_per_s']:.1f} tasks/s)"
            )
    return lines
