"""Torn-tolerant reader for telemetry event logs.

Event files are append-only JSONL written line-at-a-time; a crash (or
the deterministic ``torn_write_rate`` fault injection) can leave partial
lines and concatenated stumps anywhere in a file.  The reader's
contract: parse what parses, skip the rest, never raise on garbage.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterator, Union

from repro.obs.recorder import EVENT_VERSION


def event_files(telemetry_dir: Union[str, Path]) -> list:
    """The per-process event files under a telemetry directory."""
    directory = Path(telemetry_dir)
    if not directory.is_dir():
        return []
    return sorted(directory.glob("events-*.jsonl"))


def iter_events(telemetry_dir: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    """Yield every parseable event record, skipping torn/foreign lines."""
    for path in event_files(telemetry_dir):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # torn write: skip, never raise
                    if not isinstance(record, dict):
                        continue
                    if record.get("v") != EVENT_VERSION:
                        continue
                    yield record
        except OSError:
            continue
