"""Fault tolerance: every recovery path, provably, on both backends.

The acceptance bar is *chaos parity*: a campaign executed under an
injected :class:`FaultPlan` — worker crashes, hangs past the deadline,
corrupt results, torn cache writes — must complete through retries and
produce metrics bit-identical to a fault-free campaign, on the serial
and the process-pool backend alike.  Faults are deterministic (named
RNG streams keyed by run key + attempt), so these tests replay exactly.
"""

import json
import warnings

import pytest

from repro.runners import (
    CampaignExecutionError,
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
from repro.runners import faults
from repro.runners.failures import TaskTimeoutError

KEY_A = "ab" * 32
KEY_B = "cd" * 32


@pytest.fixture(autouse=True)
def _fresh_runner_state():
    clear_run_caches()
    reset_stats()
    yield
    clear_run_caches()


def tiny_spec(**overrides):
    kwargs = dict(
        kind="percolation",
        axes={"grid_side": (6, 8)},
        fixed={"reliability": 0.9, "runs": 3, "process": "bond"},
        seed_params=("grid_side", "reliability"),
    )
    kwargs.update(overrides)
    return CampaignSpec.build(**kwargs)


def all_metrics(result):
    """Every point's typed metrics in spec order (the parity probe)."""
    return [
        result.metrics(seed_index=index, **point)
        for point in result.spec.points()
        for index in range(result.spec.n_seeds)
    ]


def fault_free_reference(spec):
    clear_run_caches()
    reference = all_metrics(run_campaign(spec, use_cache=False))
    clear_run_caches()
    return reference


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        plan = FaultPlan(crash_rate=0.5, corrupt_result_rate=0.5, seed=3)
        first = [plan.decide(KEY_A, a) for a in range(4)]
        second = [plan.decide(KEY_A, a) for a in range(4)]
        assert first == second

    def test_max_attempt_gates_every_fault(self):
        plan = FaultPlan(crash_rate=1.0, max_attempt=1)
        assert plan.decide(KEY_A, 0) == "crash"
        assert plan.decide(KEY_A, 1) is None

    def test_crash_takes_precedence(self):
        plan = FaultPlan(crash_rate=1.0, hang_rate=1.0, corrupt_result_rate=1.0)
        assert plan.decide(KEY_A, 0) == "crash"

    def test_token_roundtrip(self):
        plan = FaultPlan(crash_rate=0.2, hang_s=1.5, max_attempt=2, seed=9)
        assert FaultPlan.from_token(plan.token) == plan

    def test_partial_token_keeps_defaults(self):
        plan = FaultPlan.from_token('{"crash_rate": 0.2}')
        assert plan.crash_rate == 0.2 and plan.max_attempt == 1

    def test_unknown_token_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown fields"):
            FaultPlan.from_token('{"crash_rate": 0.2, "explode_rate": 1.0}')

    def test_rates_validated(self):
        with pytest.raises(ValueError, match="crash_rate"):
            FaultPlan(crash_rate=1.5)
        with pytest.raises(ValueError, match="max_attempt"):
            FaultPlan(max_attempt=0)

    def test_env_var_installs_a_plan(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_PLAN_ENV, '{"hang_rate": 0.25}')
        plan = faults.active_fault_plan()
        assert plan is not None and plan.hang_rate == 0.25

    def test_context_plan_beats_env(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_PLAN_ENV, '{"hang_rate": 0.25}')
        with execution(fault_plan=FaultPlan(crash_rate=0.5)):
            assert faults.active_fault_plan().crash_rate == 0.5

    def test_suppress_faults_scope(self):
        with execution(fault_plan=FaultPlan(crash_rate=1.0)):
            with faults.suppress_faults():
                assert faults.active_fault_plan() is None
            assert faults.active_fault_plan() is not None

    def test_bad_env_token_degrades_with_warning(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_PLAN_ENV, "{ not json")
        monkeypatch.setattr(faults, "_warned_bad_env", False)
        with pytest.warns(RuntimeWarning, match="REPRO_FAULT_PLAN"):
            assert faults.active_fault_plan() is None


class TestBackoff:
    def test_zero_base_means_immediate_retry(self):
        assert FailurePolicy().backoff_s(KEY_A, 1) == 0.0

    def test_deterministic_and_slot_bounded(self):
        policy = FailurePolicy(backoff_base_s=0.1, backoff_factor=2.0)
        for attempt in (1, 2, 3):
            slot = 0.1 * 2.0 ** (attempt - 1)
            delay = policy.backoff_s(KEY_A, attempt)
            assert delay == policy.backoff_s(KEY_A, attempt)
            assert slot / 2 <= delay <= slot

    def test_keys_decorrelate(self):
        policy = FailurePolicy(backoff_base_s=0.1)
        assert policy.backoff_s(KEY_A, 1) != policy.backoff_s(KEY_B, 1)

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            FailurePolicy(max_retries=-1)
        with pytest.raises(ValueError, match="timeout_s"):
            FailurePolicy(timeout_s=0.0)
        with pytest.raises(ValueError, match="on_exhausted"):
            FailurePolicy(on_exhausted="explode")


class TestSerialRecovery:
    def test_crash_then_retry_is_bit_identical(self):
        spec = tiny_spec()
        reference = fault_free_reference(spec)
        with execution(fault_plan=FaultPlan(crash_rate=1.0)):
            result = run_campaign(spec, use_cache=False)
        assert not result.failures
        assert all_metrics(result) == reference

    def test_corrupt_result_then_retry_is_bit_identical(self):
        spec = tiny_spec()
        reference = fault_free_reference(spec)
        with execution(fault_plan=FaultPlan(corrupt_result_rate=1.0)):
            result = run_campaign(spec, use_cache=False)
        assert not result.failures
        assert all_metrics(result) == reference

    def test_hang_past_timeout_then_retry_is_bit_identical(self):
        spec = tiny_spec()
        reference = fault_free_reference(spec)
        plan = FaultPlan(hang_rate=1.0, hang_s=1.0)
        policy = FailurePolicy(timeout_s=0.2)
        with execution(fault_plan=plan):
            result = run_campaign(spec, use_cache=False, failure_policy=policy)
        assert not result.failures
        assert all_metrics(result) == reference

    def test_exhausted_retries_skip_records_failures(self):
        spec = tiny_spec()
        plan = FaultPlan(crash_rate=1.0, max_attempt=99)
        policy = FailurePolicy(max_retries=1, on_exhausted="skip")
        with execution(fault_plan=plan):
            result = run_campaign(spec, use_cache=False, failure_policy=policy)
        assert len(result.failures) == 2
        failure = result.failures[0]
        assert failure.error_type == "WorkerCrashError"
        assert failure.attempts == 2  # the original try + one retry
        with pytest.raises(KeyError, match="failed"):
            result.metrics(grid_side=6)
        assert result.metrics_over_seeds(grid_side=6) == []
        assert result.mean_metric(
            lambda m: m.critical_fraction, grid_side=6
        ) is None

    def test_exhausted_timeout_names_the_deadline(self):
        spec = tiny_spec(axes={"grid_side": (6,)})
        plan = FaultPlan(hang_rate=1.0, hang_s=1.0, max_attempt=99)
        policy = FailurePolicy(
            max_retries=0, timeout_s=0.1, on_exhausted="skip"
        )
        with execution(fault_plan=plan):
            result = run_campaign(spec, use_cache=False, failure_policy=policy)
        assert [f.error_type for f in result.failures] == ["TaskTimeoutError"]

    def test_degrade_completes_when_retries_cannot(self):
        spec = tiny_spec()
        reference = fault_free_reference(spec)
        plan = FaultPlan(crash_rate=1.0, max_attempt=99)
        policy = FailurePolicy(max_retries=0, on_exhausted="degrade")
        with execution(fault_plan=plan):
            result = run_campaign(spec, use_cache=False, failure_policy=policy)
        assert not result.failures
        assert all_metrics(result) == reference

    def test_raise_happens_after_the_rest_completed(self, tmp_path):
        spec = tiny_spec()
        keys = [run.key for run in spec.runs()]
        plan = next(
            p
            for p in (
                FaultPlan(crash_rate=0.5, max_attempt=99, seed=s)
                for s in range(200)
            )
            if p.decide(keys[0], 0) == "crash" and p.decide(keys[1], 0) is None
        )
        policy = FailurePolicy(max_retries=0, on_exhausted="raise")
        with execution(fault_plan=plan):
            with pytest.raises(CampaignExecutionError) as excinfo:
                run_campaign(spec, cache=str(tmp_path), failure_policy=policy)
        assert len(excinfo.value.failures) == 1
        # The healthy point completed and was persisted before the raise.
        assert get_stats().computed == 1
        assert ResultCache(tmp_path).get(keys[1]) is not None

    def test_backend_returns_none_for_failed_runs(self):
        spec = tiny_spec()
        plan = FaultPlan(crash_rate=1.0, max_attempt=99)
        failures = []
        with execution(
            fault_plan=plan,
            failure_policy=FailurePolicy(max_retries=0, on_exhausted="skip"),
        ):
            results = SerialBackend().execute(
                spec.runs(), on_failure=failures.append
            )
        assert results == [None, None]
        assert len(failures) == 2


class TestFailureRecords:
    def _failed(self):
        spec = tiny_spec()
        plan = FaultPlan(crash_rate=1.0, max_attempt=99)
        policy = FailurePolicy(max_retries=1, on_exhausted="skip")
        with execution(fault_plan=plan):
            result = run_campaign(spec, use_cache=False, failure_policy=policy)
        return spec, result.failures

    def test_record_carries_the_runs_identity(self):
        spec, failures = self._failed()
        runs = {run.key: run for run in spec.runs()}
        assert sorted(failure.key for failure in failures) == sorted(runs)
        for failure in failures:
            run = runs[failure.key]
            assert failure.kind == run.kind == "percolation"
            assert failure.params_dict() == run.params_dict()
            assert failure.seed == run.seed

    def test_raised_error_lists_every_description(self):
        _spec, failures = self._failed()
        error = CampaignExecutionError(failures)
        assert error.failures == tuple(failures)
        message = str(error)
        assert message.startswith("2 campaign run(s) failed after retries:")
        for failure in failures:
            line = failure.describe()
            assert line in message
            assert line.startswith("percolation[")
            assert "WorkerCrashError after 2 attempt(s)" in line


class TestPoolRecovery:
    def test_worker_crash_rebuild_is_bit_identical(self):
        spec = tiny_spec()
        reference = fault_free_reference(spec)
        with execution(fault_plan=FaultPlan(crash_rate=1.0)):
            result = run_campaign(
                spec, use_cache=False, backend=ProcessPoolBackend(2)
            )
        assert not result.failures
        assert all_metrics(result) == reference

    def test_hung_worker_reclaimed_is_bit_identical(self):
        spec = tiny_spec()
        reference = fault_free_reference(spec)
        plan = FaultPlan(hang_rate=1.0, hang_s=30.0)
        policy = FailurePolicy(timeout_s=0.5)
        with execution(fault_plan=plan):
            result = run_campaign(
                spec,
                use_cache=False,
                backend=ProcessPoolBackend(2),
                failure_policy=policy,
            )
        assert not result.failures
        assert all_metrics(result) == reference

    def test_exhausted_pool_rebuilds_fail_over_to_serial(self):
        spec = tiny_spec()
        reference = fault_free_reference(spec)
        # Crash every pool attempt; zero rebuild budget forces the
        # in-parent fallback, where injected crashes raise (and here,
        # max_attempt=1 means the serial retry succeeds).
        plan = FaultPlan(crash_rate=1.0)
        policy = FailurePolicy(max_retries=3, max_pool_rebuilds=0)
        with execution(fault_plan=plan):
            result = run_campaign(
                spec,
                use_cache=False,
                backend=ProcessPoolBackend(2),
                failure_policy=policy,
            )
        assert not result.failures
        assert all_metrics(result) == reference


class TestChaosParity:
    def test_mixed_faults_match_fault_free_on_both_backends(self):
        spec = tiny_spec()
        reference = fault_free_reference(spec)
        plan = FaultPlan(crash_rate=0.4, corrupt_result_rate=0.4, seed=7)
        with execution(fault_plan=plan):
            serial = run_campaign(spec, use_cache=False)
        clear_run_caches()
        with execution(fault_plan=plan):
            pooled = run_campaign(
                spec, use_cache=False, backend=ProcessPoolBackend(2)
            )
        assert not serial.failures and not pooled.failures
        assert all_metrics(serial) == reference
        assert all_metrics(pooled) == reference

    def test_run_keys_unchanged_by_fault_plan(self):
        spec = tiny_spec()
        with execution(fault_plan=FaultPlan(crash_rate=0.4, seed=7)):
            faulted = [run.key for run in spec.runs()]
        assert faulted == [run.key for run in spec.runs()]


class TestCorruptCacheWrites:
    def test_torn_write_quarantined_and_recomputed(self, tmp_path):
        spec = tiny_spec()
        with execution(fault_plan=FaultPlan(corrupt_cache_rate=1.0)):
            first = run_campaign(spec, cache=str(tmp_path))
        assert not first.failures
        cache = ResultCache(tmp_path)
        keys = [run.key for run in spec.runs()]
        # Every entry was torn mid-JSON: reads miss and quarantine.
        assert all(cache.get(key) is None for key in keys)
        assert cache.quarantined == 2
        assert cache.stats().n_quarantined == 2
        clear_run_caches()
        second = run_campaign(spec, cache=str(tmp_path))
        assert second.computed == 2
        assert all_metrics(second) == all_metrics(first)
        # The clean rerun healed the cache in place.
        healed = ResultCache(tmp_path)
        assert all(healed.get(key) is not None for key in keys)
        report = healed.purge()
        assert report.corrupt_swept == 2


class _DieAfter:
    """Backend wrapper killing the invocation after ``n`` delivered runs."""

    def __init__(self, n, inner=None):
        self.n = n
        self.inner = inner or SerialBackend()

    def execute(self, runs, on_result=None, failure_policy=None,
                on_failure=None):
        delivered = 0

        def hook(index, flat):
            nonlocal delivered
            if on_result is not None:
                on_result(index, flat)
            delivered += 1
            if delivered >= self.n:
                raise KeyboardInterrupt

        return self.inner.execute(
            runs,
            on_result=hook,
            failure_policy=failure_policy,
            on_failure=on_failure,
        )


class TestResume:
    """Resuming is rerunning: the cache serves every finished point."""

    def _interrupt_then_rerun(self, tmp_path, inner_backend=None):
        spec = tiny_spec()
        reference = fault_free_reference(spec)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                spec, cache=str(tmp_path), backend=_DieAfter(1, inner_backend)
            )
        clear_run_caches()
        reset_stats()
        result = run_campaign(spec, cache=str(tmp_path))
        assert result.computed == 1 and result.reused == 1
        assert get_stats().reused_disk == 1
        assert all_metrics(result) == reference

    def test_rerun_after_kill_serial(self, tmp_path):
        self._interrupt_then_rerun(tmp_path)

    def test_rerun_after_kill_pool(self, tmp_path):
        self._interrupt_then_rerun(tmp_path, ProcessPoolBackend(2))

    def test_object_marker_entry_is_recomputed_inline(self, tmp_path):
        spec = tiny_spec()
        reference = fault_free_reference(spec)
        run_campaign(spec, cache=str(tmp_path))
        key = spec.runs()[0].key
        cache = ResultCache(tmp_path)
        entry = cache._path(key)
        payload = json.loads(entry.read_text())
        inline = payload["metrics"]
        # The form an object-store reference took inside a cache entry.
        payload["metrics"] = {"__object__": "ef" * 32}
        entry.write_text(json.dumps(payload))
        clear_run_caches()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_campaign(spec, cache=str(tmp_path))
        assert result.computed == 1 and result.reused == 1
        assert all_metrics(result) == reference
        assert cache.get(key)["metrics"] == inline

    def test_cached_campaign_leaves_only_points(self, tmp_path):
        run_campaign(tiny_spec(), cache=str(tmp_path))
        assert sorted(path.name for path in tmp_path.iterdir()) == ["points"]

    def test_rerun_on_another_backend_is_bit_identical(self, tmp_path):
        spec = tiny_spec()
        reference = fault_free_reference(spec)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(spec, cache=str(tmp_path), backend=_DieAfter(1))
        clear_run_caches()
        result = run_campaign(
            spec, cache=str(tmp_path), backend=ProcessPoolBackend(2)
        )
        assert result.computed == 1 and result.reused == 1
        assert all_metrics(result) == reference

    def test_further_reruns_compute_nothing(self, tmp_path):
        spec = tiny_spec()
        with pytest.raises(KeyboardInterrupt):
            run_campaign(spec, cache=str(tmp_path), backend=_DieAfter(1))
        clear_run_caches()
        second = run_campaign(spec, cache=str(tmp_path))
        clear_run_caches()
        third = run_campaign(spec, cache=str(tmp_path))
        assert (third.computed, third.reused) == (0, 2)
        assert all_metrics(third) == all_metrics(second)

    def test_skipped_failures_are_not_cached_and_rerun_computes_them(
        self, tmp_path
    ):
        spec = tiny_spec()
        reference = fault_free_reference(spec)
        keys = [run.key for run in spec.runs()]
        plan = next(
            p
            for p in (
                FaultPlan(crash_rate=0.5, max_attempt=99, seed=s)
                for s in range(200)
            )
            if p.decide(keys[0], 0) == "crash" and p.decide(keys[1], 0) is None
        )
        policy = FailurePolicy(max_retries=0, on_exhausted="skip")
        with execution(fault_plan=plan):
            first = run_campaign(
                spec, cache=str(tmp_path), failure_policy=policy
            )
        assert [failure.key for failure in first.failures] == [keys[0]]
        cache = ResultCache(tmp_path)
        assert cache.get(keys[0]) is None and cache.get(keys[1]) is not None
        clear_run_caches()
        reset_stats()
        second = run_campaign(spec, cache=str(tmp_path))
        assert (second.computed, second.reused) == (1, 1)
        assert get_stats().reused_disk == 1
        assert not second.failures
        assert all_metrics(second) == reference

    def test_no_cache_kill_leaves_nothing_to_rerun_from(self, tmp_path):
        spec = tiny_spec()
        cache_dir = tmp_path / "cache"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                spec, cache=str(cache_dir), use_cache=False,
                backend=_DieAfter(1),
            )
        assert not cache_dir.exists()
        clear_run_caches()
        result = run_campaign(spec, cache=str(cache_dir))
        assert (result.computed, result.reused) == (2, 0)

    def test_interrupted_entries_are_whole(self, tmp_path):
        spec = tiny_spec()
        with pytest.raises(KeyboardInterrupt):
            run_campaign(spec, cache=str(tmp_path), backend=_DieAfter(1))
        cache = ResultCache(tmp_path)
        [entry] = list(cache.entry_paths())
        payload = json.loads(entry.read_text())
        assert payload["version"] == 1
        assert payload["kind"] == "percolation"
        assert entry.stem in {run.key for run in spec.runs()}
        assert list((tmp_path / "points").glob("*/*.tmp")) == []
