"""Config precedence for the ambient execution context.

The contract under test: an explicit call argument always beats the
ambient :class:`ExecutionConfig`, which in turn beats the built-in
default — for the jobs count and the cache settings — and the CLI
installs its flags as the ambient layer.
"""

import pytest

from repro.runners import (
    CampaignSpec,
    ExecutionConfig,
    execution,
    get_execution,
    run_campaign,
    set_execution,
)
from repro.runners.campaign import clear_memo

SPEC = CampaignSpec.build(
    kind="percolation",
    axes={"reliability": (0.8,)},
    fixed={"grid_side": 6, "runs": 2, "process": "bond"},
    seed_params=("grid_side", "reliability"),
)


class TestAmbientLayer:
    def test_builtin_defaults(self):
        config = ExecutionConfig()
        assert config.jobs == 1
        assert config.use_cache is True
        assert config.cache_dir is None
        assert config.telemetry_dir is None

    def test_execution_scopes_and_restores(self):
        before = get_execution()
        with execution(jobs=7, use_cache=False, cache_dir="elsewhere"):
            inside = get_execution()
            assert inside.jobs == 7
            assert inside.use_cache is False
            assert inside.cache_dir == "elsewhere"
        assert get_execution() == before

    def test_nested_scopes_inner_wins_then_unwinds(self):
        with execution(jobs=4):
            with execution(jobs=2):
                assert get_execution().jobs == 2
            assert get_execution().jobs == 4

    def test_set_execution_replaces_only_named_fields(self):
        before = get_execution()
        try:
            config = set_execution(jobs=3)
            assert config.jobs == 3
            assert config.use_cache == before.use_cache
            assert config.cache_dir == before.cache_dir
        finally:
            set_execution(**{
                "jobs": before.jobs,
                "use_cache": before.use_cache,
                "cache_dir": before.cache_dir,
            })


class _RecordingPool:
    """Stands in for ProcessPoolBackend; records construction, runs serial."""

    constructed = []

    def __init__(self, jobs):
        type(self).constructed.append(jobs)
        from repro.runners.backends import SerialBackend

        self._serial = SerialBackend()

    def execute(self, runs, on_result=None, failure_policy=None,
                on_failure=None):
        return self._serial.execute(
            runs,
            on_result=on_result,
            failure_policy=failure_policy,
            on_failure=on_failure,
        )


class TestJobsPrecedence:
    @pytest.fixture(autouse=True)
    def _patch_pool(self, monkeypatch):
        _RecordingPool.constructed = []
        monkeypatch.setattr(
            "repro.runners.campaign.ProcessPoolBackend", _RecordingPool
        )

    def test_ambient_jobs_selects_the_pool(self):
        clear_memo()
        with execution(jobs=3, use_cache=False):
            run_campaign(SPEC)
        assert _RecordingPool.constructed == [3]

    def test_explicit_jobs_beats_ambient(self):
        clear_memo()
        with execution(jobs=3, use_cache=False):
            run_campaign(SPEC, jobs=1)  # explicit serial wins
        assert _RecordingPool.constructed == []

    def test_explicit_backend_beats_both(self):
        from repro.runners.backends import SerialBackend

        clear_memo()
        with execution(jobs=3, use_cache=False):
            run_campaign(SPEC, backend=SerialBackend())
        assert _RecordingPool.constructed == []


class TestBackendChoice:
    """``jobs`` alone picks the backend; an explicit ``backend=`` wins."""

    @pytest.fixture
    def used(self, monkeypatch):
        from repro.runners.backends import ProcessPoolBackend, SerialBackend

        used = []
        for cls in (SerialBackend, ProcessPoolBackend):
            def execute(self, runs, _real=cls.execute, **kwargs):
                used.append(self)
                return _real(self, runs, **kwargs)

            monkeypatch.setattr(cls, "execute", execute)
        clear_memo()
        return used

    def test_jobs_1_runs_serially(self, used):
        from repro.runners.backends import SerialBackend

        run_campaign(SPEC, jobs=1, use_cache=False)
        [backend] = used
        assert type(backend) is SerialBackend

    def test_jobs_2_runs_a_pool_of_two(self, used):
        from repro.runners.backends import ProcessPoolBackend

        run_campaign(SPEC, jobs=2, use_cache=False)
        [backend] = used
        assert type(backend) is ProcessPoolBackend
        assert backend.jobs == 2

    def test_ambient_jobs_1_runs_serially(self, used):
        from repro.runners.backends import SerialBackend

        with execution(jobs=1, use_cache=False):
            run_campaign(SPEC)
        assert [type(backend) for backend in used] == [SerialBackend]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_explicit_backend_wins_over_jobs(self, used, jobs):
        from repro.runners.backends import ProcessPoolBackend

        explicit = ProcessPoolBackend(3)
        with execution(jobs=jobs, use_cache=False):
            run_campaign(SPEC, backend=explicit)
        assert used == [explicit]

    def test_memoized_campaign_runs_no_backend(self, used):
        run_campaign(SPEC, jobs=2, use_cache=False)
        run_campaign(SPEC, jobs=2, use_cache=False)
        assert len(used) == 1


class TestRemovedExecutionKnobs:
    def test_config_holds_exactly_the_seven_execution_fields(self):
        from dataclasses import fields

        assert [field.name for field in fields(ExecutionConfig)] == [
            "jobs",
            "cache_dir",
            "use_cache",
            "progress",
            "failure_policy",
            "fault_plan",
            "telemetry_dir",
        ]

    def test_backend_is_not_an_execution_field(self):
        with pytest.raises(TypeError):
            with execution(backend="pool"):
                pass

    @pytest.mark.parametrize(
        "field,value",
        [
            ("cache_max_size_mb", 64.0),
            ("fast_path", False),
            ("detailed_fast_path", False),
        ],
    )
    def test_kernel_and_budget_fields_are_gone(self, field, value):
        with pytest.raises(TypeError):
            with execution(**{field: value}):
                pass


class TestCachePrecedence:
    def test_ambient_cache_dir_receives_the_points(self, tmp_path):
        from repro.runners import ResultCache

        clear_memo()
        with execution(cache_dir=str(tmp_path), use_cache=True):
            run_campaign(SPEC)
        assert list(ResultCache(tmp_path).entry_paths())

    def test_explicit_use_cache_false_beats_ambient_dir(self, tmp_path):
        from repro.runners import ResultCache

        clear_memo()
        with execution(cache_dir=str(tmp_path), use_cache=True):
            run_campaign(SPEC, use_cache=False)
        assert not list(ResultCache(tmp_path).entry_paths())

    def test_explicit_cache_path_beats_ambient_dir(self, tmp_path):
        from repro.runners import ResultCache

        ambient = tmp_path / "ambient"
        explicit = tmp_path / "explicit"
        clear_memo()
        with execution(cache_dir=str(ambient), use_cache=True):
            run_campaign(SPEC, cache=str(explicit))
        assert list(ResultCache(explicit).entry_paths())
        assert not list(ResultCache(ambient).entry_paths())


class TestCliInstallsTheAmbientLayer:
    def test_run_flags_reach_the_experiment(self, monkeypatch, tmp_path):
        """CLI flags become the ambient config the figure runner sees."""
        from repro.experiments.spec import ExperimentResult, ExperimentSpec

        captured = {}

        def runner(scale):
            captured.update(vars(get_execution()))
            captured["config"] = get_execution()
            return ExperimentResult(
                experiment_id="stub",
                title="stub",
                x_label="x",
                y_label="y",
                series=(),
                expectation="none",
            )

        stub = ExperimentSpec(
            experiment_id="stub",
            title="stub",
            section="ext",
            expectation="none",
            runner=runner,
        )
        monkeypatch.setattr("repro.cli.get_experiment", lambda eid: stub)
        from repro.cli import main

        assert main([
            "run", "stub",
            "--jobs", "2",
            "--cache-dir", str(tmp_path),
            "--no-cache",
        ]) == 0
        config = captured["config"]
        assert config.jobs == 2
        assert config.cache_dir == str(tmp_path)
        assert config.use_cache is False
