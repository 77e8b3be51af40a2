"""Serial and process-pool backends must be interchangeable."""

import pytest

from repro.detailed.simulator import DetailedSimulator
from repro.ideal.simulator import IdealSimulator
from repro.runners import (
    CampaignSpec,
    FailurePolicy,
    FaultPlan,
    ProcessPoolBackend,
    SerialBackend,
    clear_run_caches,
    execution,
)
from repro.runners.backends import _group_runs
from repro.runners.points import evaluate_run, metrics_to_dict
from repro.scenarios import ScenarioSpec


def small_ideal_spec():
    """A campaign small enough to fan out in a unit test."""
    return CampaignSpec.build(
        kind="ideal",
        axes={"p": (0.3, 0.7), "q": (0.0, 0.6, 1.0)},
        fixed={
            "grid_side": 7,
            "n_broadcasts": 2,
            "mode": "psm_pbbf",
            "hop_near": 2,
            "hop_far": 4,
        },
        extra_points=({"p": 1.0, "q": 1.0, "mode": "always_on"},),
        seed_params=("grid_side", "p", "q", "mode"),
    )


def two_world_ideal_spec():
    """``small_ideal_spec``'s points on a grid and on a torus.

    Ideal runs that share a world form one lease, so this campaign is
    two leases and fans out over a pool, where ``small_ideal_spec``,
    one world, runs as one.
    """
    grid = ScenarioSpec.build("grid", {"side": 7}).token
    torus = ScenarioSpec.build("torus", {"side": 7}).token
    return CampaignSpec.build(
        kind="ideal",
        axes={"scenario": (grid, torus), "p": (0.3, 0.7), "q": (0.0, 0.6, 1.0)},
        fixed={
            "n_broadcasts": 2,
            "mode": "psm_pbbf",
            "hop_near": 2,
            "hop_far": 4,
        },
        extra_points=(
            {"scenario": grid, "p": 1.0, "q": 1.0, "mode": "always_on"},
        ),
        seed_params=("scenario", "p", "q", "mode"),
    )


class TestBitIdentity:
    def test_serial_and_pool_agree_exactly(self):
        runs = two_world_ideal_spec().runs()
        assert len(_group_runs(runs)) == 2
        serial = SerialBackend().execute(runs)
        clear_run_caches()
        pooled = ProcessPoolBackend(jobs=2).execute(runs)
        clear_run_caches()
        loop = [
            metrics_to_dict(evaluate_run(run.kind, run.params_dict(), run.seed))
            for run in runs
        ]
        assert serial == pooled == loop  # flat dicts: exact float equality

    def test_pool_results_align_with_run_order(self):
        # Each pooled result must belong to the run at its index, not just
        # be the right multiset: spot-check one distinctive run.
        runs = two_world_ideal_spec().runs()
        pooled = ProcessPoolBackend(jobs=3).execute(runs)
        for index, run in enumerate(runs):
            if dict(run.params)["mode"] == "always_on":
                assert pooled[index] == SerialBackend().execute([run])[0]


class TestPoolSizing:
    def test_more_jobs_than_runs_is_fine(self):
        runs = small_ideal_spec().runs()[:2]
        assert ProcessPoolBackend(jobs=8).execute(runs) == SerialBackend().execute(runs)

    def test_single_run_short_circuits_serially(self):
        runs = small_ideal_spec().runs()[:1]
        assert ProcessPoolBackend(jobs=4).execute(runs) == SerialBackend().execute(runs)

    def test_nonpositive_jobs_falls_back_to_cpu_count(self):
        assert ProcessPoolBackend(jobs=0).jobs >= 1
        assert ProcessPoolBackend(jobs=-3).jobs >= 1


def small_detailed_spec(n_seeds):
    return CampaignSpec.build(
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
        n_seeds=n_seeds,
    )


class TestDegradeRunsTheReferenceKernels:
    @pytest.mark.parametrize(
        "spec",
        [small_ideal_spec(), small_detailed_spec(1), small_detailed_spec(2)],
        ids=["ideal", "detailed-1-seed", "detailed-2-seeds"],
    )
    def test_every_degraded_run_reaches_a_reference_kernel(
        self, monkeypatch, spec
    ):
        """Each run's fast-path result is corrupted, so each is computed
        again by ``on_exhausted="degrade"`` — on the reference kernels,
        although the same process just evaluated the point on the fast
        ones."""
        runs = spec.runs()
        clear_run_caches()
        clean = SerialBackend().execute(runs)
        reference_runs = []
        ideal_reference = IdealSimulator.run_campaign_reference
        detailed_reference = DetailedSimulator.run_reference

        def spy_ideal(sim, n_broadcasts):
            reference_runs.append("ideal")
            return ideal_reference(sim, n_broadcasts)

        def spy_detailed(sim, duration=None):
            reference_runs.append("detailed")
            return detailed_reference(sim, duration)

        monkeypatch.setattr(IdealSimulator, "run_campaign_reference", spy_ideal)
        monkeypatch.setattr(DetailedSimulator, "run_reference", spy_detailed)
        clear_run_caches()
        plan = FaultPlan(corrupt_result_rate=1.0, max_attempt=99)
        policy = FailurePolicy(max_retries=0, on_exhausted="degrade")
        with execution(fault_plan=plan):
            degraded = SerialBackend().execute(runs, failure_policy=policy)
        assert degraded == clean
        assert reference_runs == [spec.kind] * len(runs)
