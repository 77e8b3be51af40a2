"""Seed batching in the runner layer must be invisible in the results.

``evaluate_run_batch`` and the backend-level grouping exist purely to
amortise the batched kernel's machinery across a point's seed list; this
suite pins the contract that they change *nothing* observable — per-run
metrics, ordering and progress ticks all match the per-seed loop.
"""

import pytest

from repro.ideal.simulator import SchedulingMode
from repro.runners import CampaignSpec, SerialBackend, clear_run_caches
from repro.runners.backends import _group_runs
from repro.runners.points import (
    evaluate_run,
    evaluate_run_batch,
    metrics_to_dict,
)
from repro.scenarios import ScenarioSpec

PSM_PBBF = SchedulingMode.PSM_PBBF.value

DETAILED_POINT = {
    "p": 0.5,
    "q": 0.25,
    "density": 9.0,
    "mode": PSM_PBBF,
    "duration": 120.0,
    "scheduler": "psm",
}


IDEAL_POINT = {
    "p": 0.5,
    "q": 0.5,
    "mode": PSM_PBBF,
    "n_broadcasts": 2,
    "hop_near": 2,
    "hop_far": 4,
}

#: Kinds evaluated seed by seed, on the legacy grid layout and on a
#: scenario world (one that realizes differently at each seed).
UNBATCHED_POINTS = {
    "ideal-grid": ("ideal", dict(IDEAL_POINT, grid_side=7)),
    "ideal-scenario": (
        "ideal",
        dict(
            IDEAL_POINT,
            scenario=ScenarioSpec.build(
                "random",
                {"n_nodes": 36, "radio_range": 10.0, "density": 12.0},
                source="random",
                failure_fraction=0.1,
            ).token,
        ),
    ),
    "percolation-grid": (
        "percolation",
        {"grid_side": 6, "reliability": 0.9, "runs": 3, "process": "bond"},
    ),
    "percolation-scenario": (
        "percolation",
        {
            "scenario": ScenarioSpec.build(
                "grid_holes", {"side": 8}, source="random"
            ).token,
            "reliability": 0.9,
            "runs": 3,
            "process": "site",
        },
    ),
}


#: One point per kernel pair: ideal on the legacy grid and on a scenario
#: world, detailed on PSM, on NO PSM and on S-MAC (outside the batched
#: kernel's scope, so both paths take the heap loop), and percolation,
#: which has one kernel.
REFERENCE_POINTS = {
    "ideal-grid": UNBATCHED_POINTS["ideal-grid"],
    "ideal-scenario": UNBATCHED_POINTS["ideal-scenario"],
    "detailed-psm": ("detailed", DETAILED_POINT),
    "detailed-no-psm": (
        "detailed",
        dict(DETAILED_POINT, p=1.0, q=1.0, mode=SchedulingMode.ALWAYS_ON.value),
    ),
    "detailed-smac": (
        "detailed",
        dict(DETAILED_POINT, scheduler="smac", duration=60.0),
    ),
    "percolation": UNBATCHED_POINTS["percolation-grid"],
}


def small_detailed_spec(n_seeds=3):
    return CampaignSpec.build(
        kind="detailed",
        axes={"p": (0.25, 0.75)},
        fixed={
            "q": 0.25,
            "density": 9.0,
            "mode": PSM_PBBF,
            "duration": 120.0,
            "scheduler": "psm",
        },
        seed_params=("p", "q", "density", "mode"),
        n_seeds=n_seeds,
        seed_with_run_index=True,
    )


class TestEvaluateRunBatch:
    def test_matches_per_seed_evaluation(self):
        clear_run_caches()
        seeds = (11, 12, 13, 14)
        batched = evaluate_run_batch("detailed", DETAILED_POINT, seeds)
        clear_run_caches()
        loop = [evaluate_run("detailed", DETAILED_POINT, s) for s in seeds]
        assert [metrics_to_dict(m) for m in batched] == [
            metrics_to_dict(m) for m in loop
        ]

    def test_matches_with_loss_probability(self):
        clear_run_caches()
        point = dict(DETAILED_POINT, loss_probability=0.3)
        seeds = (5, 6)
        batched = evaluate_run_batch("detailed", point, seeds)
        clear_run_caches()
        loop = [evaluate_run("detailed", point, s) for s in seeds]
        assert [metrics_to_dict(m) for m in batched] == [
            metrics_to_dict(m) for m in loop
        ]

    def test_single_seed_takes_per_run_path(self):
        clear_run_caches()
        (only,) = evaluate_run_batch("detailed", DETAILED_POINT, (7,))
        assert metrics_to_dict(only) == metrics_to_dict(
            evaluate_run("detailed", DETAILED_POINT, 7)
        )

    def test_always_on_point_is_one_kernel_call(self, monkeypatch):
        import repro.detailed.batched as batched

        calls = []
        real_run_batch = batched.run_batch

        def counting_run_batch(sims, duration=None):
            calls.append(len(sims))
            return real_run_batch(sims, duration)

        monkeypatch.setattr(batched, "run_batch", counting_run_batch)
        point = dict(
            DETAILED_POINT, p=1.0, q=1.0, mode=SchedulingMode.ALWAYS_ON.value
        )
        seeds = (11, 12, 13, 14)
        clear_run_caches()
        grouped = evaluate_run_batch("detailed", point, seeds)
        assert calls == [len(seeds)]
        clear_run_caches()
        loop = [evaluate_run("detailed", point, s) for s in seeds]
        clear_run_caches()
        reference = evaluate_run_batch("detailed", point, seeds, reference=True)
        assert (
            [metrics_to_dict(m) for m in grouped]
            == [metrics_to_dict(m) for m in loop]
            == [metrics_to_dict(m) for m in reference]
        )

    def test_extension_scheduler_falls_back(self, monkeypatch):
        from repro.detailed.simulator import DetailedSimulator

        built = []
        real_init = DetailedSimulator.__init__

        def counting_init(sim, *args, **kwargs):
            built.append(kwargs.get("seed"))
            real_init(sim, *args, **kwargs)

        point = dict(DETAILED_POINT, scheduler="smac", duration=60.0)
        clear_run_caches()
        with monkeypatch.context() as patch:
            patch.setattr(DetailedSimulator, "__init__", counting_init)
            batched = evaluate_run_batch("detailed", point, (1, 2))
        # Out of scope is decided from the params: one simulator per seed.
        assert built == [1, 2]
        clear_run_caches()
        loop = [evaluate_run("detailed", point, s) for s in (1, 2)]
        assert [metrics_to_dict(m) for m in batched] == [
            metrics_to_dict(m) for m in loop
        ]

    @pytest.mark.parametrize("case", sorted(UNBATCHED_POINTS))
    def test_unbatched_kinds_match_per_seed_loop(self, case):
        kind, point = UNBATCHED_POINTS[case]
        clear_run_caches()
        batched = evaluate_run_batch(kind, point, (1, 2))
        clear_run_caches()
        loop = [evaluate_run(kind, point, s) for s in (1, 2)]
        assert [metrics_to_dict(m) for m in batched] == [
            metrics_to_dict(m) for m in loop
        ]


class TestReferenceFlag:
    """``reference=True`` runs the reference loops, bit for bit."""

    @pytest.mark.parametrize("case", sorted(REFERENCE_POINTS))
    def test_reference_flag_matches_the_default_path(self, monkeypatch, case):
        import repro.detailed.batched as batched
        from repro.detailed.simulator import DetailedSimulator
        from repro.ideal.simulator import IdealSimulator

        kind, point = REFERENCE_POINTS[case]
        seeds = (1, 2)
        clear_run_caches()
        default = evaluate_run_batch(kind, point, seeds)

        ran = []
        ideal_reference = IdealSimulator.run_campaign_reference
        detailed_reference = DetailedSimulator.run_reference

        def spy_ideal(sim, n_broadcasts):
            ran.append("ideal")
            return ideal_reference(sim, n_broadcasts)

        def spy_detailed(sim, duration=None):
            ran.append("detailed")
            return detailed_reference(sim, duration)

        def refuse(*args, **kwargs):
            raise AssertionError("a fast kernel ran")

        monkeypatch.setattr(IdealSimulator, "run_campaign_reference", spy_ideal)
        monkeypatch.setattr(DetailedSimulator, "run_reference", spy_detailed)
        monkeypatch.setattr(IdealSimulator, "run_campaign", refuse)
        monkeypatch.setattr(batched, "run_batch", refuse)
        clear_run_caches()
        reference = evaluate_run_batch(kind, point, seeds, reference=True)
        assert [metrics_to_dict(m) for m in reference] == [
            metrics_to_dict(m) for m in default
        ]
        assert ran == ([] if kind == "percolation" else [kind] * len(seeds))


def small_ideal_spec(fixed=None, **kwargs):
    base = {
        "grid_side": 5,
        "mode": PSM_PBBF,
        "n_broadcasts": 1,
        "hop_near": 1,
        "hop_far": 2,
    }
    return CampaignSpec.build(
        kind="ideal",
        axes={"p": (0.25, 0.5), "q": (0.5, 1.0)},
        fixed=dict(base, **(fixed or {})),
        **kwargs,
    )


RANDOM_WORLD = ScenarioSpec.build(
    "random",
    {"n_nodes": 16, "radio_range": 10.0, "density": 12.0},
    source="random",
).token


class TestGroupRuns:
    def test_consecutive_detailed_seeds_group(self):
        runs = small_detailed_spec(n_seeds=3).runs()
        groups = _group_runs(runs)
        # Two points x three seeds collapse to two tasks.
        assert groups == [(0, 1, 2), (3, 4, 5)]
        assert len({runs[i].params for i in groups[0]}) == 1

    def test_seed_free_ideal_runs_share_one_lease(self):
        """Every run on the legacy grid shares its world, whatever its
        seed, p, q or mode: one lease."""
        spec = small_ideal_spec(
            extra_points=({"p": 1.0, "q": 1.0, "mode": "always_on"},),
            seed_params=("p", "q", "mode"),
            n_seeds=4,
        )
        runs = spec.runs()
        assert len({run.seed for run in runs}) == len(runs) == 20
        assert _group_runs(runs) == [tuple(range(len(runs)))]

    def test_rng_drawn_worlds_group_by_seed(self):
        """A random deployment is one world per seed; seeds that fold only
        the scenario alternate, so each lease's runs are non-contiguous."""
        spec = small_ideal_spec(
            fixed={"scenario": RANDOM_WORLD},
            seed_params=("scenario",),
            n_seeds=2,
        )
        runs = spec.runs()
        assert _group_runs(runs) == [(0, 2, 4, 6), (1, 3, 5, 7)]
        for group in _group_runs(runs):
            assert len({runs[i].seed for i in group}) == 1

    def test_rng_drawn_worlds_with_own_seeds_stay_apart(self):
        spec = small_ideal_spec(
            fixed={"scenario": RANDOM_WORLD}, seed_params=("scenario", "p", "q")
        )
        assert _group_runs(spec.runs()) == [(0,), (1,), (2,), (3,)]

    def test_world_parameters_split_leases(self):
        """Parameters other than p, q and mode keep their runs apart."""
        spec = small_ideal_spec(seed_params=("p", "q"))
        runs = spec.runs() + small_ideal_spec(
            fixed={"n_broadcasts": 2}, seed_params=("p", "q")
        ).runs()
        assert _group_runs(runs) == [(0, 1, 2, 3), (4, 5, 6, 7)]

    def test_percolation_runs_stay_singleton(self):
        spec = CampaignSpec.build(
            kind="percolation",
            axes={"reliability": (0.5, 0.9)},
            fixed={"grid_side": 5, "runs": 2, "process": "bond"},
            seed_params=("reliability",),
            n_seeds=2,
        )
        assert _group_runs(spec.runs()) == [(0,), (1,), (2,), (3,)]

    def test_point_boundary_breaks_the_group(self):
        runs = small_detailed_spec(n_seeds=2).runs()
        # Interleave the two points so no two consecutive runs share params.
        interleaved = [runs[0], runs[2], runs[1], runs[3]]
        assert _group_runs(interleaved) == [(0,), (1,), (2,), (3,)]

    def test_empty_input(self):
        assert _group_runs([]) == []

    def test_fast_figure_leases(self):
        """Leases per ideal figure campaign at fast scale."""
        from repro.experiments import Scale
        from repro.experiments.ideal_figures import ideal_campaign
        from repro.experiments.pareto_figures import static_frontier_campaign
        from repro.experiments.scenario_figures import (
            failure_campaign,
            portability_campaign,
        )

        scale = Scale.fast()
        sizes = {
            name: sorted(
                (len(group) for group in _group_runs(build(scale).runs())),
                reverse=True,
            )
            for name, build in (
                ("fig04", ideal_campaign),
                ("pareto01", static_frontier_campaign),
                ("scen02", portability_campaign),
                ("scen01", failure_campaign),
            )
        }
        assert sizes == {
            "fig04": [26],
            "pareto01": [30, 30],
            "scen02": [12, 12] + [6] * 6,
            # Each failure draw realizes its own world.
            "scen01": [4] + [1] * 12,
        }


class TestSerialBackendBatching:
    def test_grouped_execution_matches_ungrouped(self):
        runs = small_detailed_spec(n_seeds=3).runs()
        clear_run_caches()
        grouped = SerialBackend().execute(runs)
        clear_run_caches()
        # One run at a time, on the heap loop.
        ungrouped = [
            metrics_to_dict(metrics)
            for run in runs
            for metrics in evaluate_run_batch(
                run.kind, run.params_dict(), (run.seed,), reference=True
            )
        ]
        assert grouped == ungrouped

    def test_one_tick_per_run_not_per_group(self):
        runs = small_detailed_spec(n_seeds=3).runs()
        ticks = []
        clear_run_caches()
        SerialBackend().execute(
            runs, on_result=lambda index, flat: ticks.append(index)
        )
        # One hook call per run (not per grouped task), in run order.
        assert ticks == list(range(len(runs)))
