"""Ideal runs that share a world run as one lease, batched in the kernel.

The runner groups a campaign's ideal runs by world (``_group_runs``),
and the ideal evaluator hands each lease to as few lockstep kernel calls
as its cell budget allows.  Grouping and batching must be invisible in
the results: every run's metrics, their alignment and their delivery
match the per-run loop, on both backends and under injected faults.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.ideal import simulator as ideal_simulator
from repro.runners import (
    CampaignSpec,
    FailurePolicy,
    FaultPlan,
    ProcessPoolBackend,
    SerialBackend,
    clear_run_caches,
    execution,
    run_campaign,
)
from repro.runners import points
from repro.runners.backends import _build_leases, _group_runs
from repro.runners.points import evaluate_run, evaluate_runs, metrics_to_dict
from repro.scenarios import ScenarioSpec

GRID = ScenarioSpec.build("grid", {"side": 7}).token
TORUS = ScenarioSpec.build("torus", {"side": 6}, source="corner").token
RANDOM = ScenarioSpec.build(
    "random",
    {"n_nodes": 25, "radio_range": 10.0, "density": 12.0},
    source="random",
).token


def multi_world_spec():
    """Four leases: the grid (NO PSM included), the torus, and a random
    deployment drawn once per seed, whose two leases interleave."""
    return CampaignSpec.build(
        kind="ideal",
        axes={"scenario": (GRID, TORUS, RANDOM), "q": (0.0, 0.6, 1.0)},
        fixed={
            "p": 0.5,
            "n_broadcasts": 3,
            "mode": "psm_pbbf",
            "hop_near": 2,
            "hop_far": 3,
        },
        extra_points=(
            {"scenario": GRID, "p": 1.0, "q": 1.0, "mode": "always_on"},
        ),
        seed_params=("scenario",),
        n_seeds=2,
    )


def per_run_loop(runs):
    """Each run alone, one kernel call per run."""
    clear_run_caches()
    return [
        metrics_to_dict(evaluate_run(run.kind, run.params_dict(), run.seed))
        for run in runs
    ]


def all_metrics(result):
    """Every run's typed metrics, in spec order."""
    return [
        result.metrics(seed_index=index, **point)
        for point in result.spec.points()
        for index in range(result.spec.n_seeds)
    ]


def execute_with_ticks(backend, runs, **kwargs):
    ticks = []
    results = backend.execute(
        runs, on_result=lambda index, flat: ticks.append((index, flat)), **kwargs
    )
    return results, ticks


@pytest.fixture(autouse=True)
def _fresh_runner_state():
    clear_run_caches()
    yield
    clear_run_caches()


class TestGroupedLeases:
    def test_the_spec_spans_several_leases(self):
        runs = multi_world_spec().runs()
        groups = _group_runs(runs)
        assert sorted(len(group) for group in groups) == [3, 3, 6, 8]
        # The random world's leases take alternate runs.
        random_leases = [
            group for group in groups
            if runs[group[0]].params_dict()["scenario"] == RANDOM
        ]
        assert [group[1] - group[0] for group in random_leases] == [2, 2]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_backends_match_the_per_run_loop(self, jobs):
        runs = multi_world_spec().runs()
        loop = per_run_loop(runs)
        clear_run_caches()
        backend = SerialBackend() if jobs == 1 else ProcessPoolBackend(jobs)
        results, ticks = execute_with_ticks(backend, runs)
        assert results == loop
        # One tick per run, each carrying the run's own metrics.
        assert sorted(index for index, _ in ticks) == list(range(len(runs)))
        assert all(flat == loop[index] for index, flat in ticks)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(crash_rate=1.0),
            FaultPlan(corrupt_result_rate=1.0),
            FaultPlan(crash_rate=0.4, corrupt_result_rate=0.4, seed=7),
        ],
        ids=["crash", "corrupt", "mixed"],
    )
    def test_chaos_matches_fault_free(self, jobs, plan):
        spec = multi_world_spec()
        expected = all_metrics(run_campaign(spec, use_cache=False))
        clear_run_caches()
        backend = SerialBackend() if jobs == 1 else ProcessPoolBackend(jobs)
        with execution(fault_plan=plan):
            result = run_campaign(spec, use_cache=False, backend=backend)
        assert not result.failures
        assert all_metrics(result) == expected

    def test_degraded_lease_runs_each_run_on_the_scalar_loop(self, tmp_path):
        """Every result comes back corrupt with no retry: each grouped
        lease degrades, and each of its runs leaves one scalar span."""
        spec = multi_world_spec()
        clean = per_run_loop(spec.runs())
        clear_run_caches()
        obs.reset_recorder()
        obs.set_recorder(obs.TelemetryRecorder(tmp_path, role="parent"))
        try:
            with execution(
                use_cache=False,
                fault_plan=FaultPlan(corrupt_result_rate=1.0, max_attempt=99),
                failure_policy=FailurePolicy(max_retries=0, on_exhausted="degrade"),
            ):
                degraded = SerialBackend().execute(spec.runs())
        finally:
            obs.reset_recorder()
        assert degraded == clean
        spans = [
            record for record in obs.iter_events(tmp_path)
            if record["type"] == "span" and record["name"] == "kernel.ideal"
        ]
        scalar = [span for span in spans if span["fast_path"] is False]
        assert len(scalar) == len(spec.runs())
        assert all(span["points"] == 1 for span in scalar)
        # The first, corrupted attempts ran batched: one call per lease.
        batched = [span for span in spans if span["fast_path"] is True]
        assert sorted(span["points"] for span in batched) == [3, 3, 6, 8]


def one_world_spec():
    """Eight runs on the legacy grid: one world, one task."""
    return CampaignSpec.build(
        kind="ideal",
        axes={"p": (0.25, 0.75), "q": (0.3, 0.6, 0.9, 1.0)},
        fixed={
            "grid_side": 6,
            "n_broadcasts": 2,
            "mode": "psm_pbbf",
            "hop_near": 1,
            "hop_far": 3,
        },
        seed_params=("p", "q"),
    )


class TestPoolSpread:
    """A pool with more workers than tasks halves the largest ideal task."""

    def test_one_world_is_one_lease_serially(self):
        runs = one_world_spec().runs()
        assert [lease.indices for lease in _build_leases(runs)] == [
            tuple(range(8))
        ]

    @pytest.mark.parametrize(
        "workers,sizes", [(2, [4, 4]), (3, [2, 2, 4]), (8, [1] * 8), (20, [1] * 8)]
    )
    def test_workers_each_get_a_lease(self, workers, sizes):
        runs = one_world_spec().runs()
        leases = _build_leases(runs, workers)
        assert sorted(lease.n_runs for lease in leases) == sizes
        assert sorted(i for lease in leases for i in lease.indices) == list(
            range(len(runs))
        )
        for lease in leases:
            assert lease.key == runs[lease.indices[0]].key
            assert lease.task[1] == tuple(
                (runs[i].params_dict(), runs[i].seed) for i in lease.indices
            )

    def test_enough_tasks_are_left_alone(self):
        runs = multi_world_spec().runs()
        assert [lease.indices for lease in _build_leases(runs, 4)] == _group_runs(runs)

    def test_detailed_seeds_stay_one_lease(self):
        spec = CampaignSpec.build(
            kind="detailed",
            axes={"p": (0.5,)},
            fixed={
                "q": 0.25,
                "density": 9.0,
                "mode": "psm_pbbf",
                "duration": 60.0,
                "scheduler": "psm",
            },
            seed_params=("p", "q", "density", "mode"),
            n_seeds=3,
        )
        assert [lease.n_runs for lease in _build_leases(spec.runs(), 2)] == [3]

    def test_pool_matches_the_per_run_loop(self):
        runs = one_world_spec().runs()
        loop = per_run_loop(runs)
        clear_run_caches()
        results, ticks = execute_with_ticks(ProcessPoolBackend(2), runs)
        assert results == loop
        assert sorted(index for index, _ in ticks) == list(range(len(runs)))


class TestCellBudget:
    def test_paper_scale_campaign_runs_alone(self):
        """A 75x75 grid with 50 broadcasts holds 281k cells, over the
        budget: each such campaign is its own call."""
        cells = 75 * 75 * 50
        assert cells > points.IDEAL_CALL_CELLS
        calls = points._ideal_calls(list(range(6)), cells)
        assert calls == [[0], [1], [2], [3], [4], [5]]

    def test_calls_are_few_and_even(self):
        # fig04 at fast scale: 26 campaigns of 25x25 nodes x 12 broadcasts.
        cells = 25 * 25 * 12
        calls = points._ideal_calls(list(range(26)), cells)
        assert len(calls) == -(-26 // (points.IDEAL_CALL_CELLS // cells))
        assert sum(calls, []) == list(range(26))
        assert max(map(len, calls)) - min(map(len, calls)) <= 1
        assert all(len(call) * cells <= points.IDEAL_CALL_CELLS for call in calls)

    def test_evaluator_batches_under_the_budget(self, monkeypatch):
        runs = [(run.params_dict(), run.seed) for run in multi_world_spec().runs()]
        loop = [metrics_to_dict(evaluate_run("ideal", p, s)) for p, s in runs]
        clear_run_caches()
        sizes = []
        real = ideal_simulator.run_campaigns

        def spy(sims, n_broadcasts):
            sizes.append(len(sims))
            return real(sims, n_broadcasts)

        monkeypatch.setattr(points, "run_campaigns", spy)
        # 49 nodes x 3 broadcasts: 147 cells a campaign.
        monkeypatch.setattr(points, "IDEAL_CALL_CELLS", 147 * 4)
        batched = [metrics_to_dict(m) for m in evaluate_runs("ideal", runs)]
        assert batched == loop
        # Grid: 8 campaigns in two calls; torus: 6 in two; random: one
        # world per seed, 3 campaigns each.
        assert sorted(sizes) == [3, 3, 3, 3, 4, 4]
