"""The recorder itself: no-op default, JSONL sink, degrade, torn writes."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs import (
    EVENT_VERSION,
    NULL_RECORDER,
    TelemetryRecorder,
    ensure_recorder,
    event_files,
    get_recorder,
    install_recorder,
    iter_events,
    reset_recorder,
)


def test_default_recorder_is_the_noop_singleton():
    assert get_recorder() is NULL_RECORDER
    assert not get_recorder().enabled


def test_noop_recorder_records_nothing_and_never_fails():
    recorder = NULL_RECORDER
    with recorder.span("phase.simulate", kind="x"):
        pass
    recorder.event("anything", detail=1)
    recorder.close()  # all of the above must be silent no-ops


def test_recorders_record_no_gauges():
    assert not hasattr(NULL_RECORDER, "gauge")
    assert not hasattr(TelemetryRecorder, "gauge")


@pytest.mark.parametrize("name", ["counter", "counters_snapshot", "flush"])
def test_recorders_keep_no_counters(name):
    assert not hasattr(NULL_RECORDER, name)
    assert not hasattr(TelemetryRecorder, name)


def test_noop_span_is_a_shared_reusable_object():
    first = NULL_RECORDER.span("a")
    second = NULL_RECORDER.span("b", key="value")
    assert first is second  # no per-call allocation on the disabled path


def test_env_variable_enables_an_ambient_recorder(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TELEMETRY", str(tmp_path))
    reset_recorder()
    try:
        recorder = get_recorder()
        assert recorder.enabled
        assert recorder.role == "ambient"
        assert recorder.directory == tmp_path
    finally:
        reset_recorder()


def test_records_carry_schema_and_provenance(tmp_path):
    recorder = TelemetryRecorder(tmp_path, role="parent", source="t-1")
    with recorder.span("phase.realize", kind="grid", seed=7):
        pass
    recorder.event("campaign.begin", n_runs=3)
    recorder.close()

    records = list(iter_events(tmp_path))
    assert [r["type"] for r in records] == ["span", "event"]
    span, event = records
    assert span["name"] == "phase.realize"
    assert span["kind"] == "grid" and span["seed"] == 7
    assert span["dur"] >= 0.0
    for record in records:
        assert record["v"] == EVENT_VERSION
        assert record["source"] == "t-1"
        assert record["role"] == "parent"
        assert isinstance(record["ts"], float)
    assert event["n_runs"] == 3


def test_span_records_the_error_that_escaped_it(tmp_path):
    recorder = TelemetryRecorder(tmp_path, source="t-err")
    with pytest.raises(ValueError):
        with recorder.span("phase.simulate"):
            raise ValueError("boom")
    recorder.close()
    (span,) = [r for r in iter_events(tmp_path) if r["type"] == "span"]
    assert span["error"] == "ValueError"


def test_one_event_file_per_source(tmp_path):
    TelemetryRecorder(tmp_path, source="alpha").event("x")
    TelemetryRecorder(tmp_path, source="beta").event("x")
    names = [path.name for path in event_files(tmp_path)]
    assert names == ["events-alpha.jsonl", "events-beta.jsonl"]


def test_torn_writes_are_skipped_by_the_reader(tmp_path):
    recorder = TelemetryRecorder(
        tmp_path, source="torn", torn_write_rate=0.5
    )
    for index in range(40):
        recorder.event("tick", index=index)
    recorder.close()
    survivors = list(iter_events(tmp_path))
    assert 0 < len(survivors) < 41  # some torn away, none crash the reader
    for record in survivors:
        assert record["name"] == "tick"


def test_torn_write_pattern_is_deterministic(tmp_path):
    def surviving_indices(directory):
        recorder = TelemetryRecorder(
            directory, source="same-source", torn_write_rate=0.4
        )
        for index in range(60):
            recorder.event("tick", index=index)
        recorder.close()
        return [
            record["index"]
            for record in iter_events(directory)
            if record["type"] == "event"
        ]

    first = surviving_indices(tmp_path / "a")
    second = surviving_indices(tmp_path / "b")
    assert first == second


def test_unwritable_directory_degrades_with_one_warning(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where the directory should be")
    recorder = TelemetryRecorder(blocker / "sub", source="t-deg")
    with pytest.warns(RuntimeWarning, match="telemetry sink"):
        recorder.event("first")
    # Already degraded: further records are silently dropped, no rewarn.
    recorder.event("second")
    recorder.close()


def test_reader_skips_garbage_lines(tmp_path):
    path = tmp_path / "events-manual.jsonl"
    good = json.dumps({"v": EVENT_VERSION, "type": "event", "name": "ok"})
    other_era = json.dumps({"v": 999, "type": "event", "name": "future"})
    path.write_text(
        "\n".join(["{not json", good, '"a string"', other_era, ""])
    )
    records = list(iter_events(tmp_path))
    assert [record["name"] for record in records] == ["ok"]


def test_install_and_ensure_recorder_lifecycle(tmp_path):
    try:
        installed = install_recorder(tmp_path, role="parent")
        assert get_recorder() is installed
        # ensure_recorder never double-installs over a live recorder.
        assert ensure_recorder(tmp_path / "other") is installed
        reset_recorder()
        assert get_recorder() is NULL_RECORDER
        # ...but installs from the ambient config when nothing is live.
        ensured = ensure_recorder(str(tmp_path / "other"), role="pool-worker")
        assert ensured.enabled and ensured.role == "pool-worker"
        # and a missing directory keeps the no-op default.
        reset_recorder()
        assert ensure_recorder(None) is NULL_RECORDER
    finally:
        reset_recorder()
