"""Forked pool workers record under their own identity, not the parent's.

A worker forked from a process with telemetry on inherits the parent's
recorder object.  Unless it is dropped after the fork, every worker
appends ``role=parent source=<parent>`` records through the parent's
file handle, and the metrics table and trace collapse onto one process.
"""

from __future__ import annotations

from repro import obs
from repro.cli import main
from repro.runners import clear_run_caches


def test_jobs2_campaign_attributes_records_to_each_worker(tmp_path, capsys):
    clear_run_caches()  # the pool must compute, not replay memoized points
    telemetry = tmp_path / "telemetry"
    try:
        assert main([
            "run", "fig04", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--telemetry", str(telemetry),
        ]) == 0
    finally:
        obs.reset_recorder()
    capsys.readouterr()

    records = list(obs.iter_events(telemetry))
    sources = {record["source"] for record in records}
    assert len(sources) >= 2
    workers = [record for record in records if record["role"] == "pool-worker"]
    assert workers, "no record came from a pool worker"
    # One source is one process: no worker writes under another's name.
    for source in sources:
        pids = {record["pid"] for record in records if record["source"] == source}
        assert len(pids) == 1, (source, pids)
    roles = {record["role"] for record in records}
    assert roles == {"parent", "pool-worker"}
