"""Tests for run_campaign: caching layers, stats, progress, result access."""

import json

import pytest

from repro.core.params import PBBFParams
from repro.experiments.ideal_figures import ideal_campaign
from repro.experiments.scale import Scale
from repro.ideal.config import AnalysisParameters
from repro.ideal.simulator import IdealSimulator, SchedulingMode
from repro.runners import (
    CampaignSpec,
    ResultCache,
    clear_run_caches,
    execution,
    get_stats,
    reset_stats,
    run_campaign,
)
from repro.runners.points import _summarize_ideal_campaign
from repro.scenarios import ScenarioSpec


@pytest.fixture(autouse=True)
def _fresh_runner_state():
    clear_run_caches()
    reset_stats()
    yield
    clear_run_caches()


def tiny_percolation_spec(**overrides):
    kwargs = dict(
        kind="percolation",
        axes={"grid_side": (6, 8)},
        fixed={"reliability": 0.9, "runs": 3, "process": "bond"},
        seed_params=("grid_side", "reliability"),
    )
    kwargs.update(overrides)
    return CampaignSpec.build(**kwargs)


class TestCacheHitMiss:
    def test_first_run_computes_second_hits_disk(self, tmp_path):
        spec = tiny_percolation_spec()
        first = run_campaign(spec, cache=str(tmp_path))
        assert first.computed == 2 and first.reused == 0
        clear_run_caches()  # simulate a fresh process
        second = run_campaign(spec, cache=str(tmp_path))
        assert second.computed == 0 and second.reused == 2
        for side in (6, 8):
            assert (
                first.metrics(grid_side=side).critical_fraction
                == second.metrics(grid_side=side).critical_fraction
            )

    def test_memo_hit_without_touching_disk(self, tmp_path):
        spec = tiny_percolation_spec()
        run_campaign(spec, cache=str(tmp_path))
        stats = get_stats()
        run_campaign(spec, cache=str(tmp_path))
        assert stats.reused_memory == 2
        assert stats.computed == 2

    def test_changed_point_is_a_miss(self, tmp_path):
        run_campaign(tiny_percolation_spec(), cache=str(tmp_path))
        clear_run_caches()
        grown = tiny_percolation_spec(axes={"grid_side": (6, 8, 10)})
        result = run_campaign(grown, cache=str(tmp_path))
        assert result.computed == 1  # only the new 10x10 point
        assert result.reused == 2

    def test_no_cache_writes_nothing(self, tmp_path):
        result = run_campaign(tiny_percolation_spec(), cache=str(tmp_path), use_cache=False)
        assert result.computed == 2
        assert not list(tmp_path.rglob("*.json"))

    def test_corrupted_entry_recomputed(self, tmp_path):
        spec = tiny_percolation_spec()
        first = run_campaign(spec, cache=str(tmp_path))
        for path in tmp_path.rglob("*.json"):
            path.write_text("{ not json")
        clear_run_caches()
        second = run_campaign(spec, cache=str(tmp_path))
        assert second.computed == 2
        for side in (6, 8):
            assert (
                first.metrics(grid_side=side) == second.metrics(grid_side=side)
            )

    def test_stale_metrics_schema_recomputed(self, tmp_path):
        # A version-matched entry whose metrics keys no longer fit the
        # dataclass (schema drift without a CACHE_VERSION bump) must read
        # as a miss, not crash the campaign.
        spec = tiny_percolation_spec()
        first = run_campaign(spec, cache=str(tmp_path))
        for path in tmp_path.rglob("*.json"):
            payload = json.loads(path.read_text())
            payload["metrics"] = {"bogus_field": 1.0}
            path.write_text(json.dumps(payload))
        clear_run_caches()
        second = run_campaign(spec, cache=str(tmp_path))
        assert second.computed == 2
        for side in (6, 8):
            assert first.metrics(grid_side=side) == second.metrics(grid_side=side)

    def test_cache_payload_is_inspectable_json(self, tmp_path):
        run_campaign(tiny_percolation_spec(), cache=str(tmp_path))
        payloads = [
            json.loads(path.read_text()) for path in tmp_path.rglob("*.json")
        ]
        assert len(payloads) == 2
        for payload in payloads:
            assert payload["kind"] == "percolation"
            assert "critical_fraction" in payload["metrics"]
            assert payload["params"]["reliability"] == 0.9


class TestExecutionContext:
    def test_ambient_config_controls_cache(self, tmp_path):
        with execution(cache_dir=str(tmp_path), use_cache=True):
            run_campaign(tiny_percolation_spec())
        assert list(tmp_path.rglob("*.json"))

    def test_explicit_arguments_override_ambient(self, tmp_path):
        with execution(use_cache=False):
            run_campaign(tiny_percolation_spec(), cache=str(tmp_path), use_cache=True)
        assert list(tmp_path.rglob("*.json"))


class TestCacheArgument:
    """``cache=`` takes a directory (str or path) or a ``ResultCache``."""

    def test_a_path_object_names_the_directory(self, tmp_path):
        spec = tiny_percolation_spec()
        run_campaign(spec, cache=tmp_path)
        clear_run_caches()
        second = run_campaign(spec, cache=tmp_path)
        assert (second.computed, second.reused) == (0, 2)
        assert len(list(ResultCache(tmp_path).entry_paths())) == 2

    def test_a_result_cache_instance_is_used_as_given(self, tmp_path):
        spec = tiny_percolation_spec()
        store = ResultCache(tmp_path)
        first = run_campaign(spec, cache=store)
        store._path(spec.runs()[0].key).write_text("{ torn")
        clear_run_caches()
        second = run_campaign(spec, cache=store)
        # The campaign's own reads quarantined the torn entry.
        assert store.quarantined == 1
        assert (second.computed, second.reused) == (1, 1)
        for side in (6, 8):
            assert first.metrics(grid_side=side) == second.metrics(grid_side=side)

    def test_memo_results_backfill_a_newly_named_cache(self, tmp_path):
        spec = tiny_percolation_spec()
        run_campaign(spec, cache=str(tmp_path / "first"))
        second = run_campaign(spec, cache=str(tmp_path / "second"))
        assert (second.computed, second.reused) == (0, 2)
        backfilled = ResultCache(tmp_path / "second")
        for run in spec.runs():
            assert backfilled.get(run.key) is not None
        clear_run_caches()
        third = run_campaign(spec, cache=str(tmp_path / "second"))
        assert (third.computed, third.reused) == (0, 2)


class TestResultAccess:
    def test_metrics_unknown_point_raises(self, tmp_path):
        result = run_campaign(tiny_percolation_spec(), cache=str(tmp_path))
        with pytest.raises(KeyError, match="no run"):
            result.metrics(grid_side=99)

    def test_mean_metric_averages_over_seeds(self, tmp_path):
        spec = tiny_percolation_spec(n_seeds=2, seed_with_run_index=True)
        result = run_campaign(spec, cache=str(tmp_path))
        bundles = result.metrics_over_seeds(grid_side=6)
        assert len(bundles) == 2
        expected = (
            bundles[0].critical_fraction + bundles[1].critical_fraction
        ) / 2
        assert result.mean_metric(
            lambda m: m.critical_fraction, grid_side=6
        ) == pytest.approx(expected)

    def test_metrics_over_seeds_unknown_point_raises_like_metrics(self, tmp_path):
        result = run_campaign(tiny_percolation_spec(), cache=str(tmp_path))
        with pytest.raises(KeyError) as over_seeds:
            result.metrics_over_seeds(grid_side=99)
        with pytest.raises(KeyError) as single:
            result.metrics(grid_side=99)
        assert str(over_seeds.value) == str(single.value)
        assert "no run" in str(single.value)

    def test_metrics_over_seeds_derives_each_run_key_once(
        self, tmp_path, monkeypatch
    ):
        import repro.runners.campaign as campaign_module

        spec = tiny_percolation_spec(n_seeds=3, seed_with_run_index=True)
        result = run_campaign(spec, cache=str(tmp_path))
        original = campaign_module.run_key
        keys = []

        def counting_run_key(*args):
            keys.append(original(*args))
            return keys[-1]

        monkeypatch.setattr(campaign_module, "run_key", counting_run_key)
        bundles = result.metrics_over_seeds(grid_side=6)
        assert len(bundles) == 3
        assert len(keys) == len(set(keys)) == 3
        assert bundles == [
            result.metrics(seed_index=index, grid_side=6) for index in range(3)
        ]

    def test_mean_metric_none_when_every_seed_undefined(self, tmp_path):
        spec = tiny_percolation_spec()
        result = run_campaign(spec, cache=str(tmp_path))
        assert result.mean_metric(lambda m: None, grid_side=6) is None


class TestProgressReporting:
    def test_progress_streams_per_computed_point(self, tmp_path):
        events = []
        run_campaign(
            tiny_percolation_spec(),
            cache=str(tmp_path),
            progress=lambda *args: events.append(args),
        )
        # One call after the cache scan, one per computed point.
        assert events == [(0, 2, 0, 0), (1, 2, 0, 1), (2, 2, 0, 2)]

    def test_progress_reports_cached_points_up_front(self, tmp_path):
        spec = tiny_percolation_spec()
        run_campaign(spec, cache=str(tmp_path))
        clear_run_caches()
        events = []
        run_campaign(
            spec, cache=str(tmp_path), progress=lambda *args: events.append(args)
        )
        assert events == [(2, 2, 2, 0)]

    def test_ambient_progress_config_is_honoured(self, tmp_path):
        events = []
        with execution(progress=lambda *args: events.append(args)):
            run_campaign(tiny_percolation_spec(), cache=str(tmp_path))
        assert events[-1] == (2, 2, 0, 2)


class TestScenarioAxes:
    def tiny_scenario_spec(self):
        scenarios = (
            ScenarioSpec.build("grid", {"side": 7}),
            ScenarioSpec.build("torus", {"side": 7}, source="corner"),
            ScenarioSpec.build("grid", {"side": 7}, failure_fraction=0.2),
        )
        return CampaignSpec.build(
            kind="ideal",
            axes={"scenario": scenarios},
            fixed={
                "p": 0.5,
                "q": 0.6,
                "n_broadcasts": 2,
                "mode": "psm_pbbf",
                "hop_near": 2,
                "hop_far": 4,
            },
            seed_params=("scenario", "p", "q"),
        )

    def test_scenario_axis_sweeps_and_caches(self, tmp_path):
        spec = self.tiny_scenario_spec()
        first = run_campaign(spec, cache=str(tmp_path))
        assert first.computed == 3
        clear_run_caches()
        second = run_campaign(spec, cache=str(tmp_path))
        assert second.computed == 0 and second.reused == 3
        grid = ScenarioSpec.build("grid", {"side": 7})
        assert first.metrics(scenario=grid) == second.metrics(scenario=grid)

    def test_scenario_objects_resolve_in_metrics_lookup(self, tmp_path):
        spec = self.tiny_scenario_spec()
        result = run_campaign(spec, cache=str(tmp_path))
        failed = ScenarioSpec.build("grid", {"side": 7}, failure_fraction=0.2)
        by_object = result.metrics(scenario=failed)
        by_token = result.metrics(scenario=failed.token)
        assert by_object == by_token
        assert by_object.mean_coverage < result.metrics(
            scenario=ScenarioSpec.build("grid", {"side": 7})
        ).mean_coverage

    def test_source_policy_axis_is_sweepable(self, tmp_path):
        scenarios = tuple(
            ScenarioSpec.build("grid", {"side": 7}, source=policy)
            for policy in ("center", "corner", "random")
        )
        spec = CampaignSpec.build(
            kind="ideal",
            axes={"scenario": scenarios},
            fixed={
                "p": 0.25,
                "q": 0.5,
                "n_broadcasts": 2,
                "mode": "psm_pbbf",
                "hop_near": 2,
                "hop_far": 4,
            },
            seed_params=("scenario",),
        )
        result = run_campaign(spec, cache=str(tmp_path))
        assert result.computed == 3
        assert {run.key for run in result.runs} == {
            run.key for run in spec.runs()
        }


@pytest.fixture
def realize_calls(monkeypatch):
    """Every ``ScenarioSpec.realize`` call, as ``(family, seed)``."""
    calls = []
    realize = ScenarioSpec.realize

    def counting(self, seed):
        calls.append((self.family, seed))
        return realize(self, seed)

    monkeypatch.setattr(ScenarioSpec, "realize", counting)
    return calls


class TestRealizeOncePerWorld:
    """A cold serial run realizes each seed-free world once, not per point."""

    GRID = ScenarioSpec.build("grid", {"side": 7})
    TORUS = ScenarioSpec.build("torus", {"side": 7}, source="corner")
    RANDOM = ScenarioSpec.build("random", {"n_nodes": 20, "density": 12.0})

    def mixed_spec(self):
        return CampaignSpec.build(
            kind="ideal",
            axes={
                "scenario": (self.GRID, self.TORUS, self.RANDOM),
                "p": (0.25, 0.75),
            },
            fixed={
                "q": 0.5,
                "n_broadcasts": 2,
                "mode": "psm_pbbf",
                "hop_near": 2,
                "hop_far": 4,
            },
            seed_params=("scenario", "p"),
            n_seeds=2,
        )

    def test_paper_campaign_realizes_its_grid_once_per_cold_run(
        self, realize_calls
    ):
        spec = ideal_campaign(Scale.fast())
        with execution(use_cache=False, jobs=1):
            first = run_campaign(spec)
            assert first.computed == 26
            assert [family for family, _ in realize_calls] == ["grid"]
            clear_run_caches()
            run_campaign(spec)
        assert len(realize_calls) == 2

    def test_seeded_worlds_realize_once_per_distinct_seed(self, realize_calls):
        spec = self.mixed_spec()
        with execution(use_cache=False, jobs=1):
            run_campaign(spec)
        random_seeds = {
            run.seed
            for run in spec.runs()
            if run.params_dict()["scenario"] == self.RANDOM.token
        }
        assert len(random_seeds) == 4
        families = [family for family, _ in realize_calls]
        assert sorted(families) == ["grid", "random", "random", "random",
                                    "random", "torus"]
        assert {seed for family, seed in realize_calls
                if family == "random"} == random_seeds

    def test_metrics_equal_a_fresh_world_per_run(self):
        spec = self.mixed_spec()
        with execution(use_cache=False, jobs=1):
            result = run_campaign(spec)
        for run in spec.runs():
            params = run.params_dict()
            realized = ScenarioSpec.from_token(params["scenario"]).realize(
                run.seed
            )
            simulator = IdealSimulator(
                realized.topology,
                PBBFParams(p=params["p"], q=params["q"]),
                AnalysisParameters(),
                seed=run.seed,
                source=realized.source,
                mode=SchedulingMode(params["mode"]),
                failed_nodes=realized.failed_nodes,
            )
            expected = _summarize_ideal_campaign(
                simulator,
                params["n_broadcasts"],
                params["hop_near"],
                params["hop_far"],
            )
            assert result.metrics(
                seed_index=run.seed_index,
                scenario=params["scenario"],
                p=params["p"],
            ) == expected


class TestCacheObject:
    def test_result_cache_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"kind": "ideal", "metrics": {"x": 1.5}})
        payload = cache.get("ab" * 32)
        assert payload["metrics"] == {"x": 1.5}
        assert ("ab" * 32) in cache
        assert cache.get("cd" * 32) is None

    def test_version_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"kind": "ideal", "metrics": {}})
        path = next(tmp_path.rglob("*.json"))
        payload = json.loads(path.read_text())
        payload["version"] = -1
        path.write_text(json.dumps(payload))
        assert cache.get("ab" * 32) is None


class TestCacheLifecycle:
    def test_stats_counts_entries_by_kind(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"kind": "ideal", "metrics": {"x": 1.0}})
        cache.put("cd" * 32, {"kind": "ideal", "metrics": {"x": 2.0}})
        cache.put("ef" * 32, {"kind": "percolation", "metrics": {"y": 3.0}})
        stats = cache.stats()
        assert stats.n_entries == 3
        assert stats.total_bytes > 0
        assert stats.n_stale == 0
        assert stats.by_kind == (("ideal", 2), ("percolation", 1))

    def test_stats_counts_stale_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"kind": "ideal", "metrics": {}})
        path = next(tmp_path.rglob("*.json"))
        path.write_text("{ not json")
        stats = cache.stats()
        assert stats.n_entries == 1
        assert stats.n_stale == 1
        assert stats.by_kind == ()

    def test_stats_on_missing_directory(self, tmp_path):
        stats = ResultCache(tmp_path / "never-written").stats()
        assert stats.n_entries == 0
        assert stats.total_bytes == 0

    def test_purge_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"kind": "ideal", "metrics": {}})
        cache.put("ef" * 32, {"kind": "percolation", "metrics": {}})
        assert cache.purge() == 2
        assert cache.stats().n_entries == 0
        assert cache.get("ab" * 32) is None
        # Purging an already-empty cache is a no-op, not an error.
        assert cache.purge() == 0

    def test_purged_cache_is_reusable(self, tmp_path):
        spec = tiny_percolation_spec()
        run_campaign(spec, cache=str(tmp_path))
        ResultCache(tmp_path).purge()
        clear_run_caches()
        again = run_campaign(spec, cache=str(tmp_path))
        assert again.computed == 2
        assert ResultCache(tmp_path).stats().n_entries == 2


class TestRemovedObservers:
    """The result and telemetry are the only ways to observe a campaign."""

    @pytest.mark.parametrize(
        "kwargs",
        [{"on_point": lambda run, metrics: None},
         {"post_process": {"n": lambda result: len(result.runs)}}],
        ids=["on_point", "post_process"],
    )
    def test_run_campaign_rejects_the_removed_channels(self, tmp_path, kwargs):
        with pytest.raises(TypeError):
            run_campaign(tiny_percolation_spec(), cache=str(tmp_path), **kwargs)

    def test_result_carries_no_artifacts(self, tmp_path):
        result = run_campaign(tiny_percolation_spec(), cache=str(tmp_path))
        assert not hasattr(result, "artifacts")


class TestSeedValueAccess:
    def test_seed_metric_values_returns_per_seed_samples(self, tmp_path):
        spec = tiny_percolation_spec(n_seeds=3)
        result = run_campaign(spec, cache=str(tmp_path))
        values = result.seed_metric_values(
            lambda m: m.critical_fraction, grid_side=6
        )
        assert len(values) == 3
        assert sum(values) / len(values) == result.mean_metric(
            lambda m: m.critical_fraction, grid_side=6
        )

    def test_none_metrics_are_skipped(self, tmp_path):
        result = run_campaign(tiny_percolation_spec(), cache=str(tmp_path))
        assert result.seed_metric_values(lambda m: None, grid_side=6) == []
