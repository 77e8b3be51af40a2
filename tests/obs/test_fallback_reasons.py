"""Each heap-loop run records why the batched detailed kernel did not run.

``kernel.detailed.reference`` spans carry a ``reason`` attribute from
:func:`repro.detailed.batched.fallback_reason`, so the fallbacks in a
trace can be explained from telemetry alone.  Recording it must not
change a single metric.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.adaptive import AdaptivePolicy
from repro.ideal.simulator import SchedulingMode
from repro.runners import (
    CampaignSpec,
    FailurePolicy,
    FaultPlan,
    clear_run_caches,
    execution,
    run_campaign,
)

PSM_PBBF = SchedulingMode.PSM_PBBF.value

#: Every result comes back corrupt and no retry is allowed, so each run
#: is recomputed by a degraded attempt on the reference kernels.
DEGRADE = {
    "fault_plan": FaultPlan(corrupt_result_rate=1.0, max_attempt=99),
    "failure_policy": FailurePolicy(max_retries=0, on_exhausted="degrade"),
}


def detailed_spec(**extra) -> CampaignSpec:
    return CampaignSpec.build(
        kind="detailed",
        axes={"p": (0.5,)},
        fixed={
            "q": 0.25,
            "density": 9.0,
            "mode": PSM_PBBF,
            "duration": 60.0,
            **extra,
        },
        seed_params=("p", "q", "density", "mode"),
        n_seeds=2,
    )


def run_with_reasons(spec, telemetry_dir=None, **config):
    """(per-run metrics, reference-span reasons) of one cold campaign."""
    clear_run_caches()
    obs.reset_recorder()
    if telemetry_dir is not None:
        obs.set_recorder(obs.TelemetryRecorder(telemetry_dir, role="parent"))
    try:
        with execution(use_cache=False, **config):
            result = run_campaign(spec)
    finally:
        obs.reset_recorder()
    metrics = [
        result.metrics(seed_index=index, **point)
        for point in spec.points()
        for index in range(spec.n_seeds)
    ]
    if telemetry_dir is None:
        return metrics, None
    reasons = [
        record.get("reason")
        for record in obs.iter_events(telemetry_dir)
        if record["type"] == "span"
        and record["name"] == "kernel.detailed.reference"
    ]
    return metrics, reasons


@pytest.mark.parametrize(
    "extra,config,reason",
    [
        ({"scheduler": "smac"}, {}, "scheduler"),
        ({}, DEGRADE, "forced"),
    ],
    ids=["smac", "forced"],
)
def test_reference_span_records_its_reason(tmp_path, extra, config, reason):
    spec = detailed_spec(**extra)
    off, _ = run_with_reasons(spec, **config)
    on, reasons = run_with_reasons(spec, telemetry_dir=tmp_path, **config)
    assert on == off
    assert reasons == [reason] * spec.n_seeds


def test_in_scope_points_record_no_reference_span(tmp_path):
    in_scope = {
        PSM_PBBF: {"mode": PSM_PBBF},
        "always_on": {"mode": SchedulingMode.ALWAYS_ON.value},
        "adaptive": {"adaptive": AdaptivePolicy().token},
    }
    for name, extra in in_scope.items():
        telemetry = tmp_path / name
        _, reasons = run_with_reasons(
            detailed_spec(**extra), telemetry_dir=telemetry
        )
        assert reasons == []
        batched = [
            record
            for record in obs.iter_events(telemetry)
            if record["type"] == "span"
            and record["name"] == "kernel.detailed.batched"
        ]
        assert [record["seeds"] for record in batched] == [2]
