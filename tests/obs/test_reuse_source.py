"""``campaign.end`` names the store that served each reused point.

A reused point came either from the in-process memo or from the result
cache on disk; the event's ``memo`` and ``disk`` counts split
``reused`` between the two.  Recording them must not change a single
metric.
"""

from __future__ import annotations

from repro import obs
from repro.runners import (
    CampaignSpec,
    FailurePolicy,
    FaultPlan,
    clear_run_caches,
    execution,
    run_campaign,
)


def small_spec() -> CampaignSpec:
    return CampaignSpec.build(
        kind="percolation",
        axes={"reliability": (0.85, 0.95)},
        fixed={"grid_side": 10, "runs": 8, "process": "bond"},
        seed_params=("grid_side", "reliability"),
        n_seeds=2,
    )


def fingerprint(result):
    return [
        result.metrics(seed_index=index, **point)
        for point in result.spec.points()
        for index in range(result.spec.n_seeds)
    ]


def run(spec, cache_dir, telemetry_dir=None):
    """One campaign against ``cache_dir``, recorded when a dir is given."""
    obs.reset_recorder()
    if telemetry_dir is not None:
        obs.set_recorder(obs.TelemetryRecorder(telemetry_dir, role="parent"))
    try:
        return run_campaign(spec, cache=str(cache_dir))
    finally:
        obs.reset_recorder()


def campaign_end(telemetry_dir):
    """The single ``campaign.end`` event recorded under ``telemetry_dir``."""
    [event] = [
        record
        for record in obs.iter_events(telemetry_dir)
        if record["type"] == "event" and record["name"] == "campaign.end"
    ]
    return event


def test_cold_run_reuses_nothing(tmp_path):
    spec = small_spec()
    clear_run_caches()
    run(spec, tmp_path / "cache", tmp_path / "cold")
    event = campaign_end(tmp_path / "cold")
    assert event["computed"] == len(spec.runs())
    assert event["reused"] == event["memo"] == event["disk"] == 0


def test_warm_rerun_is_served_from_disk(tmp_path):
    spec = small_spec()
    clear_run_caches()
    run(spec, tmp_path / "cache")
    clear_run_caches()
    run(spec, tmp_path / "cache", tmp_path / "warm")
    event = campaign_end(tmp_path / "warm")
    assert event["reused"] == len(spec.runs())
    assert event["disk"] == event["reused"]
    assert event["memo"] == 0 and event["computed"] == 0


def test_in_process_repeat_is_served_from_the_memo(tmp_path):
    spec = small_spec()
    clear_run_caches()
    run(spec, tmp_path / "cache")
    run(spec, tmp_path / "cache", tmp_path / "repeat")
    event = campaign_end(tmp_path / "repeat")
    assert event["reused"] == len(spec.runs())
    assert event["memo"] == event["reused"]
    assert event["disk"] == 0 and event["computed"] == 0


def test_results_identical_with_telemetry_off_and_on(tmp_path):
    spec = small_spec()
    results = {}
    for mode in ("off", "on"):
        cache_dir = tmp_path / mode / "cache"
        telemetry = (tmp_path / mode / "telemetry") if mode == "on" else None
        clear_run_caches()
        cold = run(spec, cache_dir, telemetry)
        memo = run(spec, cache_dir, telemetry)
        clear_run_caches()
        disk = run(spec, cache_dir, telemetry)
        results[mode] = [fingerprint(r) for r in (cold, memo, disk)]
    assert results["off"] == results["on"]
    assert results["on"][0] == results["on"][1] == results["on"][2]
    clear_run_caches()


def test_mixed_sources_split_the_reused_count(tmp_path):
    spec = small_spec()
    half = CampaignSpec.build(
        kind="percolation",
        axes={"reliability": (0.85,)},
        fixed={"grid_side": 10, "runs": 8, "process": "bond"},
        seed_params=("grid_side", "reliability"),
        n_seeds=2,
    )
    clear_run_caches()
    run(spec, tmp_path / "cache")
    clear_run_caches()
    run(half, tmp_path / "cache")  # warms the memo with half the points
    run(spec, tmp_path / "cache", tmp_path / "mixed")
    event = campaign_end(tmp_path / "mixed")
    assert event["memo"] == len(half.runs())
    assert event["disk"] == len(spec.runs()) - len(half.runs())
    assert event["memo"] + event["disk"] == event["reused"] == len(spec.runs())
    assert event["computed"] == 0


def test_cache_off_repeat_is_served_from_the_memo_alone(tmp_path):
    spec = small_spec()
    clear_run_caches()
    obs.reset_recorder()
    obs.set_recorder(obs.TelemetryRecorder(tmp_path / "repeat", role="parent"))
    try:
        run_campaign(spec, use_cache=False)
        obs.reset_recorder()
        obs.set_recorder(obs.TelemetryRecorder(tmp_path / "second", role="parent"))
        run_campaign(spec, use_cache=False)
    finally:
        obs.reset_recorder()
    event = campaign_end(tmp_path / "second")
    assert event["memo"] == event["reused"] == len(spec.runs())
    assert event["disk"] == 0
    clear_run_caches()


def test_failed_runs_are_neither_computed_nor_reused(tmp_path):
    spec = small_spec()
    clear_run_caches()
    plan = FaultPlan(crash_rate=1.0, max_attempt=99)
    policy = FailurePolicy(max_retries=0, on_exhausted="skip")
    obs.reset_recorder()
    obs.set_recorder(obs.TelemetryRecorder(tmp_path / "failed", role="parent"))
    try:
        with execution(fault_plan=plan):
            result = run_campaign(
                spec, cache=str(tmp_path / "cache"), failure_policy=policy
            )
    finally:
        obs.reset_recorder()
    event = campaign_end(tmp_path / "failed")
    assert event["failures"] == len(result.failures) == len(spec.runs())
    assert event["computed"] == event["reused"] == 0
    assert event["memo"] == event["disk"] == 0
    clear_run_caches()
