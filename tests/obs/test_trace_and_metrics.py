"""The sinks over recorded logs: Chrome trace export and metrics tables."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs import (
    TelemetryRecorder,
    aggregate_metrics,
    chrome_trace_events,
    export_chrome_trace,
    render_metrics_table,
)


def record_sample(directory):
    """Two processes' worth of plausible campaign telemetry."""
    parent = TelemetryRecorder(directory, role="parent", source="host-1")
    with parent.span("phase.realize", kind="grid"):
        pass
    with parent.span("task", key="abc", kind="percolation"):
        pass
    parent.event("campaign.begin", n_runs=4)
    with parent.span("phase.cache-get", keys=4):
        pass
    parent.event("campaign.end", computed=1, reused=3, memo=0, disk=3)
    parent.close()

    worker = TelemetryRecorder(directory, role="pool-worker", source="host-2")
    with worker.span("task", key="def", kind="percolation"):
        pass
    worker.event("task.retry", key="def", attempt=1, error="WorkerCrashError")
    worker.close()


def test_chrome_trace_shapes(tmp_path):
    record_sample(tmp_path)
    events = chrome_trace_events(obs.iter_events(tmp_path))
    phases = {event["ph"] for event in events}
    assert phases == {"X", "i", "M"}
    spans = [event for event in events if event["ph"] == "X"]
    assert all(
        event["dur"] >= 0 and isinstance(event["ts"], float)
        for event in spans
    )
    # Each source maps to its own synthetic pid with a name row.
    names = {
        event["args"]["name"]
        for event in events
        if event["ph"] == "M" and event["name"] == "process_name"
    }
    assert names == {"parent host-1", "pool-worker host-2"}
    pids = {event["pid"] for event in spans}
    assert len(pids) == 2


#: Record types older logs carry that nothing writes any more.
OLDER_RECORDS = {
    "gauge": {
        "v": 1, "type": "gauge", "name": "queue.depth", "ts": 1.0,
        "value": 7, "source": "host-1", "role": "parent",
    },
    "counters": {
        "v": 1, "type": "counters", "ts": 1.0, "source": "host-1",
        "role": "parent", "pid": 1,
        "counters": {"cache.file.hit": 3, "task.retry": 2},
    },
}


@pytest.mark.parametrize("kind", sorted(OLDER_RECORDS))
def test_trace_export_skips_records_from_older_logs(kind):
    events = chrome_trace_events([OLDER_RECORDS[kind]])
    assert [event["ph"] for event in events] == ["M"]


@pytest.mark.parametrize("kind", sorted(OLDER_RECORDS))
def test_aggregate_metrics_skips_records_from_older_logs(tmp_path, kind):
    record_sample(tmp_path)
    before = render_metrics_table(aggregate_metrics(tmp_path))
    with open(tmp_path / "events-host-1.jsonl", "a") as handle:
        handle.write(json.dumps(OLDER_RECORDS[kind]) + "\n")
    summary = aggregate_metrics(tmp_path)
    after = render_metrics_table(summary)
    assert after[0] == before[0].replace("7 records", "8 records")
    assert after[1:] == before[1:]
    assert summary["cache_hits"] == 3 and summary["events"]["task.retry"] == 1


def test_export_chrome_trace_writes_loadable_json(tmp_path):
    record_sample(tmp_path)
    out = tmp_path / "trace.json"
    count = export_chrome_trace(tmp_path, out)
    assert count > 0
    trace = json.loads(out.read_text())
    assert trace["displayTimeUnit"] == "ms"
    assert len(trace["traceEvents"]) >= count


def test_aggregate_metrics_sums_across_sources(tmp_path):
    record_sample(tmp_path)
    summary = aggregate_metrics(tmp_path)
    assert summary["n_sources"] == 2
    assert summary["spans"]["task"]["count"] == 2
    assert summary["spans"]["phase.realize"]["count"] == 1
    assert summary["cache_hits"] == 3 and summary["cache_probes"] == 4
    assert summary["events"]["task.retry"] == 1
    assert summary["events"]["campaign.begin"] == 1
    workers = summary["workers"]
    assert workers["host-1"]["tasks"] == 1
    assert workers["host-2"]["role"] == "pool-worker"


def test_metrics_table_renders_the_story(tmp_path):
    record_sample(tmp_path)
    text = "\n".join(render_metrics_table(aggregate_metrics(tmp_path)))
    assert "phase wall time" in text
    assert "task" in text
    assert "75.0% of 4" in text  # 3 hits of 4 cache probes
    assert "task.retry" in text
    assert "retries observed: 1" in text
    assert "timeouts observed" not in text
    assert "host-2" in text


def test_metrics_table_on_empty_directory(tmp_path):
    summary = aggregate_metrics(tmp_path)
    assert summary["n_records"] == 0
    lines = render_metrics_table(summary)
    assert lines  # renders a header, never crashes
