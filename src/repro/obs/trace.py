"""Chrome trace-event export for telemetry event logs.

``pbbf-experiments trace export --telemetry DIR --out trace.json``
converts the per-process JSONL event files into the Chrome trace-event
JSON format, loadable in ``chrome://tracing`` or Perfetto
(https://ui.perfetto.dev).  Each telemetry source (process) becomes a
trace "process" with a named lane; spans become complete ("X") events,
instantaneous events become "i" marks, and counter snapshots become
counter ("C") tracks.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

from repro.obs.reader import iter_events


def _trace_pid(source: str, pids: Dict[str, int]) -> int:
    if source not in pids:
        pids[source] = len(pids) + 1
    return pids[source]


def chrome_trace_events(
    records: Iterable[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Convert parsed telemetry records to Chrome trace events."""
    pids: Dict[str, int] = {}
    roles: Dict[str, str] = {}
    events: List[Dict[str, Any]] = []
    for record in records:
        source = str(record.get("source", "unknown"))
        pid = _trace_pid(source, pids)
        roles.setdefault(source, str(record.get("role", "")))
        ts_us = float(record.get("ts", 0.0)) * 1e6
        kind = record.get("type")
        name = record.get("name", "")
        args = {
            key: value
            for key, value in record.items()
            if key not in ("v", "type", "name", "ts", "dur", "source",
                           "role", "pid")
        }
        if kind == "span":
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": 1,
                "ts": ts_us, "dur": float(record.get("dur", 0.0)) * 1e6,
                "cat": "span", "args": args,
            })
        elif kind == "event":
            events.append({
                "name": name, "ph": "i", "pid": pid, "tid": 1,
                "ts": ts_us, "s": "p", "cat": "event", "args": args,
            })
        elif kind == "counters":
            counters = record.get("counters", {})
            if isinstance(counters, dict):
                for cname, cvalue in sorted(counters.items()):
                    events.append({
                        "name": cname, "ph": "C", "pid": pid, "ts": ts_us,
                        "args": {cname: cvalue},
                    })
    # Perfetto shows these as the process lane names.
    for source, pid in pids.items():
        label = source if not roles[source] else f"{roles[source]} {source}"
        events.append({
            "name": "process_name", "ph": "M", "pid": pid,
            "args": {"name": label},
        })
    return events


def export_chrome_trace(
    telemetry_dir: Union[str, Path],
    out_path: Union[str, Path],
) -> int:
    """Write a Chrome trace JSON for ``telemetry_dir``; returns the
    number of trace events exported (metadata records excluded)."""
    events = chrome_trace_events(iter_events(telemetry_dir))
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    out = Path(out_path)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    return sum(1 for event in events if event["ph"] != "M")
