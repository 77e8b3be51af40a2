"""Every count the metrics table prints is read off spans and events.

The cache line divides the summed ``disk`` of ``campaign.end`` events by
the summed ``keys`` of ``phase.cache-get`` spans; "retries observed"
counts ``task.retry`` events; "timeouts observed" counts the failed
attempts whose ``error`` is ``TaskTimeoutError``.  Nothing writes a
``counters`` record, and every cache write is a ``phase.cache-put``
span.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main
from repro.runners import (
    CampaignSpec,
    FailurePolicy,
    FaultPlan,
    ProcessPoolBackend,
    ResultCache,
    SerialBackend,
    clear_run_caches,
    execution,
    get_stats,
    reset_stats,
    run_campaign,
)

BACKENDS = {"serial": SerialBackend, "pool": lambda: ProcessPoolBackend(2)}


@pytest.fixture(autouse=True)
def _fresh_state():
    clear_run_caches()
    reset_stats()
    obs.reset_recorder()
    yield
    obs.reset_recorder()
    clear_run_caches()


def small_spec() -> CampaignSpec:
    """Two points x two seeds: four percolation runs, four leases."""
    return CampaignSpec.build(
        kind="percolation",
        axes={"reliability": (0.85, 0.95)},
        fixed={"grid_side": 10, "runs": 8, "process": "bond"},
        seed_params=("grid_side", "reliability"),
        n_seeds=2,
    )


def recorded(telemetry_dir, **kwargs):
    """One ``run_campaign(small_spec())`` recorded under ``telemetry_dir``."""
    obs.set_recorder(obs.TelemetryRecorder(telemetry_dir, role="parent"))
    try:
        return run_campaign(small_spec(), **kwargs)
    finally:
        obs.reset_recorder()


def table(telemetry_dir) -> str:
    summary = obs.aggregate_metrics(telemetry_dir)
    return "\n".join(obs.render_metrics_table(summary))


def records(telemetry_dir, kind, name):
    return [
        record
        for record in obs.iter_events(telemetry_dir)
        if record["type"] == kind and record["name"] == name
    ]


class TestCacheLine:
    def test_cold_then_warm_serial_campaign(self, tmp_path):
        telemetry = tmp_path / "telemetry"
        cold = recorded(telemetry, cache=str(tmp_path / "cache"))
        clear_run_caches()
        warm = recorded(telemetry, cache=str(tmp_path / "cache"))
        assert (cold.computed, warm.reused) == (4, 4)
        hits = sum(e["disk"] for e in records(telemetry, "event", "campaign.end"))
        probes = sum(
            s["keys"] for s in records(telemetry, "span", "phase.cache-get")
        )
        assert (hits, probes) == (4, 8)
        assert "  cache:\n    hits 50.0% of 8\n" in table(telemetry)

    def test_cache_off_prints_no_cache_line(self, tmp_path):
        telemetry = tmp_path / "telemetry"
        recorded(telemetry, use_cache=False)
        assert not records(telemetry, "span", "phase.cache-get")
        text = table(telemetry)
        assert "campaign.end" in text
        assert "cache:" not in text and "hits" not in text

    def test_cli_cold_then_warm_into_one_directory(self, tmp_path, capsys):
        argv = [
            "run", "fig07", "--cache-dir", str(tmp_path / "cache"),
            "--telemetry", str(tmp_path / "telemetry"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().err
        clear_run_caches()  # the warm pass must read the disk cache
        assert main(argv) == 0
        warm = capsys.readouterr().err
        assert "hits 0.0% of 4" in cold
        assert "hits 50.0% of 8" in warm


@pytest.mark.parametrize("memo_first", [False, True], ids=["cold", "backfill"])
def test_every_cache_entry_is_written_under_one_span(tmp_path, memo_first):
    if memo_first:
        # Memo only: the writes below backfill a fresh cache directory.
        run_campaign(small_spec(), use_cache=False)
    telemetry = tmp_path / "telemetry"
    result = recorded(telemetry, cache=str(tmp_path / "cache"))
    assert result.computed == (0 if memo_first else 4)
    entries = ResultCache(tmp_path / "cache").stats().n_entries
    assert len(records(telemetry, "span", "phase.cache-put")) == entries == 4


class TestRetryLine:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize(
        "plan",
        [FaultPlan(crash_rate=1.0), FaultPlan(corrupt_result_rate=1.0)],
        ids=["crash", "corrupt"],
    )
    def test_retries_observed_counts_each_retry_once(
        self, tmp_path, backend, plan
    ):
        telemetry = tmp_path / "telemetry"
        with execution(fault_plan=plan):
            result = recorded(
                telemetry,
                use_cache=False,
                backend=BACKENDS[backend](),
                failure_policy=FailurePolicy(max_retries=2),
            )
        assert not result.failures
        retried = get_stats().retried
        assert retried >= 4  # every lease faults on its first attempt
        assert len(records(telemetry, "event", "task.retry")) == retried
        assert f"retries observed: {retried}\n" in table(telemetry) + "\n"


class TestTimeoutLine:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_hang_past_the_deadline_is_observed(self, tmp_path, backend):
        telemetry = tmp_path / "telemetry"
        plan = FaultPlan(hang_rate=1.0, hang_s=1.0 if backend == "serial" else 30.0)
        with execution(fault_plan=plan):
            result = recorded(
                telemetry,
                use_cache=False,
                backend=BACKENDS[backend](),
                failure_policy=FailurePolicy(timeout_s=0.3),
            )
        assert not result.failures
        retries = records(telemetry, "event", "task.retry")
        assert len(retries) == 4  # each lease times out on attempt 0 only
        assert {event["error"] for event in retries} == {"TaskTimeoutError"}
        assert "timeouts observed: 4" in table(telemetry)

    def test_no_timeout_prints_no_timeout_line(self, tmp_path):
        telemetry = tmp_path / "telemetry"
        with execution(fault_plan=FaultPlan(crash_rate=1.0)):
            recorded(telemetry, use_cache=False)
        text = table(telemetry)
        assert "retries observed: 4" in text
        assert "timeouts observed" not in text


class TestDegradedEvent:
    @pytest.mark.parametrize(
        "plan, policy, error",
        [
            (FaultPlan(crash_rate=1.0, max_attempt=99),
             FailurePolicy(max_retries=0, on_exhausted="degrade"),
             "WorkerCrashError"),
            (FaultPlan(hang_rate=1.0, hang_s=1.0, max_attempt=99),
             FailurePolicy(max_retries=0, timeout_s=0.3,
                           on_exhausted="degrade"),
             "TaskTimeoutError"),
        ],
        ids=["crash", "hang"],
    )
    def test_degraded_event_names_the_error(self, tmp_path, plan, policy, error):
        telemetry = tmp_path / "telemetry"
        with execution(fault_plan=plan):
            result = recorded(telemetry, use_cache=False, failure_policy=policy)
        assert not result.failures  # the reference kernels recovered them
        degraded = records(telemetry, "event", "task.degraded")
        assert [event["error"] for event in degraded] == [error] * 4
        timeouts = 4 if error == "TaskTimeoutError" else 0
        assert obs.aggregate_metrics(telemetry)["timeouts"] == timeouts


class TestOnlySpansAndEvents:
    def test_live_pool_run_writes_no_counters_and_exports_no_tracks(
        self, tmp_path, capsys
    ):
        telemetry = tmp_path / "telemetry"
        assert main([
            "run", "fig07", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--telemetry", str(telemetry),
        ]) == 0
        capsys.readouterr()
        lines = [
            json.loads(line)
            for path in obs.event_files(telemetry)
            for line in path.read_text().splitlines()
        ]
        assert {record["role"] for record in lines} == {"parent", "pool-worker"}
        assert {record["type"] for record in lines} == {"span", "event"}
        phases = {
            event["ph"] for event in obs.chrome_trace_events(iter(lines))
        }
        assert phases == {"X", "i", "M"}
