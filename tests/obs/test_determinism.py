"""The fabric's hard invariant: telemetry never perturbs results.

Campaign outputs — every metric of every run, the run keys, the
reused/computed split — must be bit-identical whether telemetry is off,
on, or crashing mid-write, on every execution backend.  Spans time with
``perf_counter`` and stamp ``time.time``, so these tests double as the
guard that nothing wall-clock-derived leaks into evaluators, seeds or
content hashes.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.runners import (
    CampaignSpec,
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


def campaign_fingerprint(result):
    """Everything the campaign produced, in deterministic order."""
    return [
        result.metrics(seed_index=index, **point)
        for point in result.spec.points()
        for index in range(result.spec.n_seeds)
    ]


def run_fingerprint(spec, telemetry_dir=None, torn_rate=0.0, **config):
    clear_run_caches()
    obs.reset_recorder()
    if telemetry_dir is not None:
        obs.set_recorder(
            obs.TelemetryRecorder(
                telemetry_dir, role="parent", torn_write_rate=torn_rate
            )
        )
    try:
        with execution(
            use_cache=False,
            telemetry_dir=str(telemetry_dir) if telemetry_dir else None,
            **config,
        ):
            result = run_campaign(spec)
    finally:
        obs.reset_recorder()
    keys = [run.key for run in spec.runs()]
    return keys, campaign_fingerprint(result), len(result.failures)


@pytest.mark.parametrize(
    "config", [{"jobs": 1}, {"jobs": 2}], ids=["serial", "pool"]
)
def test_results_identical_with_telemetry_off_on_and_torn(tmp_path, config):
    spec = small_spec()
    off = run_fingerprint(spec, **config)
    on = run_fingerprint(spec, telemetry_dir=tmp_path / "on", **config)
    torn = run_fingerprint(
        spec, telemetry_dir=tmp_path / "torn", torn_rate=0.5, **config
    )
    assert off == on == torn
    # And the enabled run actually recorded something.
    assert list(obs.iter_events(tmp_path / "on"))


def test_run_keys_do_not_depend_on_telemetry(tmp_path):
    spec = small_spec()
    keys_off = [run.key for run in spec.runs()]
    obs.set_recorder(obs.TelemetryRecorder(tmp_path, role="parent"))
    try:
        keys_on = [run.key for run in spec.runs()]
    finally:
        obs.reset_recorder()
    assert keys_off == keys_on


def test_telemetry_dir_in_execution_config_changes_no_cache_keys(tmp_path):
    """The config knob rides outside every content hash (no version bump)."""
    spec = small_spec()
    with execution(telemetry_dir=None):
        plain = spec.content_hash()
    with execution(telemetry_dir=str(tmp_path)):
        with_telemetry = spec.content_hash()
    assert plain == with_telemetry


def test_disabled_run_writes_no_files(tmp_path):
    spec = small_spec()
    would_be = tmp_path / "never-created-telemetry"
    clear_run_caches()
    with execution(use_cache=False):
        run_campaign(spec)
    assert not would_be.exists()
    assert not obs.event_files(would_be)


def test_enabled_run_covers_every_phase(tmp_path):
    spec = small_spec()
    clear_run_caches()
    obs.set_recorder(obs.TelemetryRecorder(tmp_path, role="parent"))
    try:
        with execution(telemetry_dir=str(tmp_path)):
            run_campaign(spec, cache=str(tmp_path / "cache"))
    finally:
        obs.reset_recorder()
    span_names = {
        record["name"]
        for record in obs.iter_events(tmp_path)
        if record["type"] == "span"
    }
    for phase in (
        "phase.realize",
        "phase.simulate",
        "phase.analyze",
        "phase.cache-get",
        "phase.cache-put",
    ):
        assert phase in span_names, f"missing {phase} span"
    event_names = {
        record["name"]
        for record in obs.iter_events(tmp_path)
        if record["type"] == "event"
    }
    assert {"campaign.begin", "campaign.end"} <= event_names
