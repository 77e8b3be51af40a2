"""Structured telemetry for campaign execution.

* :mod:`repro.obs.recorder` — the span/event/counter recorder: a
  zero-overhead no-op by default, an append-only JSONL sink per
  process when enabled (``--telemetry`` / ``$REPRO_TELEMETRY``).
* :mod:`repro.obs.reader` — torn-tolerant event-log reader.
* :mod:`repro.obs.trace` — Chrome trace-event export (Perfetto).
* :mod:`repro.obs.metrics` — end-of-run aggregation and the metrics
  table (per-phase wall time, cache hit rates, retries, throughput).
* :mod:`repro.obs.status` — the ``--progress`` duration format and the
  frontier-watch view.

Layering: this package imports only the stdlib and ``repro.util`` (the
status renderers lazily touch ``repro.analysis`` for knee selection);
the runners, kernels and result cache import *it*.  Telemetry never
perturbs results — wall-clock time exists only inside event records,
and every sink failure degrades to no-op.
"""

from repro.obs.metrics import aggregate_metrics, render_metrics_table
from repro.obs.reader import event_files, iter_events
from repro.obs.recorder import (
    EVENT_VERSION,
    NULL_RECORDER,
    NullRecorder,
    TELEMETRY_ENV,
    TelemetryRecorder,
    ensure_recorder,
    get_recorder,
    install_recorder,
    reset_recorder,
    set_recorder,
)
from repro.obs.status import FrontierWatcher, format_duration
from repro.obs.trace import chrome_trace_events, export_chrome_trace

__all__ = [
    "EVENT_VERSION",
    "NULL_RECORDER",
    "NullRecorder",
    "TELEMETRY_ENV",
    "TelemetryRecorder",
    "FrontierWatcher",
    "aggregate_metrics",
    "chrome_trace_events",
    "ensure_recorder",
    "event_files",
    "export_chrome_trace",
    "format_duration",
    "get_recorder",
    "install_recorder",
    "iter_events",
    "render_metrics_table",
    "reset_recorder",
    "set_recorder",
]
