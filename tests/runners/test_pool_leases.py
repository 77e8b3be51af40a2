"""The process pool's lease envelope: chunking, isolation, exhaustion.

``ProcessPoolBackend`` sends a small campaign as one
``_evaluate_lease_chunk`` submission per worker, and a larger one — or
any campaign under a task deadline — as one lease per submission.
Either way every lease keeps its own attempt count: a lease that fails
inside a chunk charges only itself, a worker death charges every lease
in flight, and the collapse that spends the rebuild budget charges
nobody and finishes the rest in-parent, where attribution is exact.
Every test holds the pool to the fault-free serial run, bit for bit.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

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
from repro.runners import backends
from repro.runners.backends import (
    _chunk_error,
    _chunk_size,
    _evaluate_lease_chunk,
    _evaluate_leased_task,
)
from repro.runners.failures import (
    CorruptResultError,
    TaskTimeoutError,
    WorkerCrashError,
)


@pytest.fixture(autouse=True)
def _fresh_runner_state():
    clear_run_caches()
    reset_stats()
    yield
    clear_run_caches()


def tiny_spec(axes):
    """A tiny percolation sweep: one lease per point, a few ms each."""
    fixed = {"grid_side": 6, "reliability": 0.9, "runs": 3, "process": "bond"}
    for name in axes:
        fixed.pop(name)
    return CampaignSpec.build(
        kind="percolation",
        axes=axes,
        fixed=fixed,
        seed_params=("grid_side", "reliability"),
    )


#: Lease shapes on two workers: 2 leases go out one per submission,
#: 6 leases as two chunks of 3.
SHAPES = {
    "singleton": {"grid_side": (6, 8)},
    "chunked": {"grid_side": (6, 7, 8), "reliability": (0.85, 0.95)},
}
FIRST_ROUND = {"singleton": [1, 1], "chunked": [3, 3]}


def shape_spec(shape):
    return tiny_spec(SHAPES[shape])


def all_metrics(result):
    """Every run's typed metrics in spec order (the parity probe)."""
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


def run_keys(spec):
    return [run.key for run in spec.runs()]


_RATE_FIELDS = {
    "crash": "crash_rate",
    "hang": "hang_rate",
    "corrupt_result": "corrupt_result_rate",
}


def singling_plan(fault, keys, index, attempts, **extra):
    """A plan firing ``fault`` on ``keys[index]`` at each of its first
    ``attempts`` attempts, and no fault on any other key meanwhile."""
    rate = 1.0 / len(keys)
    for seed in range(200_000):
        plan = FaultPlan(
            seed=seed,
            max_attempt=attempts,
            **{_RATE_FIELDS[fault]: rate},
            **extra,
        )
        if all(
            plan.decide(key, attempt) == (fault if i == index else None)
            for attempt in range(attempts)
            for i, key in enumerate(keys)
        ):
            return plan
    raise AssertionError(f"no plan singles out {fault} on key {index}")


class SpyPool(ProcessPoolBackend):
    """The real pool, recording the ``(key, attempt)`` of every lease
    each submission carried."""

    def __init__(self, jobs=2):
        super().__init__(jobs)
        self.submissions = []

    def _new_executor(self, workers):
        executor = super()._new_executor(workers)
        submit = executor.submit

        def spy(fn, payload):
            leases = payload if fn is _evaluate_lease_chunk else [payload]
            self.submissions.append(
                [(key, attempt) for _task, key, attempt in leases]
            )
            return submit(fn, payload)

        executor.submit = spy
        return executor

    def sizes(self):
        return [len(submission) for submission in self.submissions]

    def attempts(self):
        """Every attempt each key was submitted at, in order."""
        seen = {}
        for submission in self.submissions:
            for key, attempt in submission:
                seen.setdefault(key, []).append(attempt)
        return seen


class TestChunkSize:
    @pytest.mark.parametrize(
        "n_leases, workers, timeout_s, expected",
        [
            (2, 2, None, 1),
            (6, 2, None, 3),
            (7, 2, None, 4),
            (16, 2, None, 8),
            (17, 2, None, 1),
            (6, 2, 0.5, 1),
            (24, 3, None, 8),
            (25, 3, None, 1),
        ],
    )
    def test_rule(self, n_leases, workers, timeout_s, expected):
        assert _chunk_size(n_leases, workers, timeout_s) == expected


class TestChunkError:
    @pytest.mark.parametrize(
        "cls", [CorruptResultError, TaskTimeoutError, WorkerCrashError]
    )
    def test_known_failures_come_back_as_their_own_class(self, cls):
        error = _chunk_error(cls.__name__, "lost it")
        assert type(error) is cls
        assert str(error) == "lost it"

    def test_unknown_name_keeps_its_name_on_a_runtime_error(self):
        error = _chunk_error("ValueError", "bad process")
        assert isinstance(error, RuntimeError)
        assert not isinstance(error, ValueError)
        assert type(error).__name__ == "ValueError"
        assert str(error) == "bad process"


class TestLeaseChunkInProcess:
    def _payloads(self, spec):
        return [
            ((run.kind, run.params_dict(), (run.seed,)), run.key, 0)
            for run in spec.runs()
        ]

    def test_an_error_is_captured_in_place_and_its_neighbours_run(self):
        spec = tiny_spec({"process": ("bond", "bogus", "site")})
        payloads = self._payloads(spec)
        outcomes = _evaluate_lease_chunk(payloads)
        assert [outcome[0] for outcome in outcomes] == ["ok", "error", "ok"]
        assert outcomes[1][1] == "ValueError"
        assert "bogus" in outcomes[1][2]
        assert outcomes[0][1] == _evaluate_leased_task(payloads[0])
        assert outcomes[2][1] == _evaluate_leased_task(payloads[2])

    def test_a_corrupt_fault_is_returned_not_raised(self):
        spec = tiny_spec({"grid_side": (6, 8)})
        with execution(fault_plan=FaultPlan(corrupt_result_rate=1.0)):
            outcomes = _evaluate_lease_chunk(self._payloads(spec))
        assert [outcome[0] for outcome in outcomes] == ["ok", "ok"]
        assert all(
            outcome[1] == [{"__fault__": "corrupt-result"}]
            for outcome in outcomes
        )


class TestChunkedPathUnderFaults:
    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(crash_rate=1.0),
            FaultPlan(corrupt_result_rate=1.0),
            FaultPlan(crash_rate=0.4, corrupt_result_rate=0.4, seed=7),
        ],
        ids=["crash", "corrupt", "mixed"],
    )
    def test_recovers_bit_identical_to_fault_free_serial(self, plan):
        spec = shape_spec("chunked")
        reference = fault_free_reference(spec)
        backend = SpyPool(2)
        with execution(fault_plan=plan):
            result = run_campaign(spec, use_cache=False, backend=backend)
        assert backend.sizes()[:2] == [3, 3]
        assert not result.failures
        assert all_metrics(result) == reference


class TestDeadlineTurnsChunkingOff:
    def test_hung_lease_retried_alone_on_singleton_submissions(self):
        spec = shape_spec("chunked")
        keys = run_keys(spec)
        reference = fault_free_reference(spec)
        plan = singling_plan("hang", keys, index=2, attempts=1, hang_s=30.0)
        backend = SpyPool(2)
        with execution(fault_plan=plan):
            result = run_campaign(
                spec,
                use_cache=False,
                backend=backend,
                failure_policy=FailurePolicy(timeout_s=0.5),
            )
        assert set(backend.sizes()) == {1}
        assert not result.failures
        assert all_metrics(result) == reference
        attempts = backend.attempts()
        assert attempts[keys[2]] == [0, 1]
        # Innocent leases run (or are requeued) at attempt 0 only.
        assert all(
            set(attempts[key]) == {0} for key in keys if key != keys[2]
        )
        assert get_stats().retried == 1

    def test_innocent_in_flight_lease_is_requeued_uncharged(
        self, monkeypatch
    ):
        # Threads stand in for worker processes so the test can hold a
        # lease in flight across another lease's deadline.
        spec = tiny_spec({"grid_side": (6, 7, 8)})
        hung, slow, innocent = run_keys(spec)
        reference = fault_free_reference(spec)
        real_task = backends._evaluate_leased_task
        real_kill = backends._kill_executor
        released = threading.Event()
        calls = []

        def task(payload):
            _task, key, attempt = payload
            calls.append((key, attempt))
            if key == hung and attempt == 0:
                time.sleep(2.0)  # past its deadline: abandoned
            elif key == slow:
                time.sleep(0.5)  # delays the innocent's submission
            elif key == innocent and not released.is_set():
                released.wait(5.0)  # in flight when ``hung`` expires
            return real_task(payload)

        def kill(executor):
            released.set()
            real_kill(executor)

        monkeypatch.setattr(backends, "_evaluate_leased_task", task)
        monkeypatch.setattr(backends, "_kill_executor", kill)
        monkeypatch.setattr(
            ProcessPoolBackend,
            "_new_executor",
            lambda self, workers: ThreadPoolExecutor(max_workers=workers),
        )
        result = run_campaign(
            spec,
            use_cache=False,
            backend=ProcessPoolBackend(2),
            failure_policy=FailurePolicy(timeout_s=0.8),
        )
        assert not result.failures
        assert all_metrics(result) == reference
        assert calls.count((innocent, 0)) == 2
        assert (innocent, 1) not in calls
        assert (hung, 1) in calls
        assert get_stats().retried == 1


@pytest.mark.parametrize("shape", ["singleton", "chunked"])
class TestPoolExhaustion:
    def test_skip_records_each_corrupt_run(self, shape):
        spec = shape_spec(shape)
        backend = SpyPool(2)
        plan = FaultPlan(corrupt_result_rate=1.0, max_attempt=99)
        policy = FailurePolicy(max_retries=1, on_exhausted="skip")
        with execution(fault_plan=plan):
            result = run_campaign(
                spec, use_cache=False, backend=backend, failure_policy=policy
            )
        assert backend.sizes()[:2] == FIRST_ROUND[shape]
        assert sorted(f.key for f in result.failures) == sorted(run_keys(spec))
        assert {(f.error_type, f.attempts) for f in result.failures} == {
            ("CorruptResultError", 2)
        }
        assert result.computed == 0
        assert get_stats().failed == len(spec.runs())

    def test_skip_records_each_crashed_run(self, shape):
        spec = shape_spec(shape)
        plan = FaultPlan(crash_rate=1.0, max_attempt=99)
        policy = FailurePolicy(max_retries=1, on_exhausted="skip")
        with execution(fault_plan=plan):
            result = run_campaign(
                spec,
                use_cache=False,
                backend=ProcessPoolBackend(2),
                failure_policy=policy,
            )
        assert sorted(f.key for f in result.failures) == sorted(run_keys(spec))
        assert {(f.error_type, f.attempts) for f in result.failures} == {
            ("WorkerCrashError", 2)
        }
        for failure in result.failures:
            with pytest.raises(KeyError, match="failed"):
                result.metrics(**failure.params_dict())

    @pytest.mark.parametrize("fault", ["crash_rate", "corrupt_result_rate"])
    def test_degrade_completes_bit_identical(self, shape, fault):
        spec = shape_spec(shape)
        reference = fault_free_reference(spec)
        plan = FaultPlan(max_attempt=99, **{fault: 1.0})
        policy = FailurePolicy(max_retries=1, on_exhausted="degrade")
        with execution(fault_plan=plan):
            result = run_campaign(
                spec,
                use_cache=False,
                backend=ProcessPoolBackend(2),
                failure_policy=policy,
            )
        assert not result.failures
        assert all_metrics(result) == reference

    @pytest.mark.parametrize("fault", ["crash", "corrupt_result"])
    def test_raise_comes_after_the_healthy_runs_persisted(
        self, shape, fault, tmp_path
    ):
        spec = shape_spec(shape)
        keys = run_keys(spec)
        plan = singling_plan(fault, keys, index=0, attempts=1)
        policy = FailurePolicy(max_retries=0, on_exhausted="raise")
        with execution(fault_plan=plan):
            with pytest.raises(CampaignExecutionError) as excinfo:
                run_campaign(
                    spec,
                    cache=str(tmp_path),
                    backend=ProcessPoolBackend(2),
                    failure_policy=policy,
                )
        assert [f.key for f in excinfo.value.failures] == [keys[0]]
        assert get_stats().computed == len(keys) - 1
        cache = ResultCache(tmp_path)
        assert cache.get(keys[0]) is None
        assert all(cache.get(key) is not None for key in keys[1:])


class TestChunkIsolation:
    def test_a_corrupt_lease_charges_only_itself(self):
        spec = shape_spec("chunked")
        keys = run_keys(spec)
        reference = fault_free_reference(spec)
        plan = singling_plan("corrupt_result", keys, index=1, attempts=1)
        backend = SpyPool(2)
        with execution(fault_plan=plan):
            result = run_campaign(spec, use_cache=False, backend=backend)
        assert backend.sizes()[:2] == [3, 3]
        assert not result.failures
        assert all_metrics(result) == reference
        attempts = backend.attempts()
        assert attempts[keys[1]] == [0, 1]
        assert all(attempts[key] == [0] for key in keys if key != keys[1])
        assert get_stats().retried == 1

    @pytest.mark.parametrize(
        "axes",
        [
            {"process": ("bond", "bogus")},
            {"grid_side": (6, 8), "process": ("bond", "bogus", "site")},
        ],
        ids=["singleton", "chunked"],
    )
    def test_a_raising_lease_fails_alone_as_it_does_serially(self, axes):
        spec = tiny_spec(axes)
        policy = FailurePolicy(max_retries=1, on_exhausted="skip")
        serial = run_campaign(
            spec, use_cache=False, backend=SerialBackend(),
            failure_policy=policy,
        )
        clear_run_caches()
        reset_stats()
        backend = SpyPool(2)
        pooled = run_campaign(
            spec, use_cache=False, backend=backend, failure_policy=policy
        )

        def described(result):
            return sorted(
                (f.key, f.error_type, f.attempts, f.error)
                for f in result.failures
            )

        assert described(pooled) == described(serial)
        assert {f.error_type for f in pooled.failures} == {"ValueError"}
        poisoned = {f.key for f in pooled.failures}
        assert get_stats().retried == len(poisoned)
        attempts = backend.attempts()
        assert all(
            attempts[key] == [0] for key in run_keys(spec)
            if key not in poisoned
        )
        for run in spec.runs():
            if run.key not in poisoned:
                assert pooled.metrics(**run.params_dict()) == serial.metrics(
                    **run.params_dict()
                )


class TestRebuildCap:
    @pytest.mark.parametrize("max_retries", [0, 1, 2])
    @pytest.mark.parametrize("shape", ["singleton", "chunked"])
    def test_collateral_deaths_never_exhaust_a_healthy_lease(
        self, shape, max_retries
    ):
        spec = shape_spec(shape)
        keys = run_keys(spec)
        reference = fault_free_reference(spec)
        # keys[0] kills its worker on every attempt it gets; every other
        # lease would succeed wherever it ran.
        plan = singling_plan("crash", keys, index=0, attempts=max_retries + 1)
        policy = FailurePolicy(max_retries=max_retries, on_exhausted="skip")
        with execution(fault_plan=plan):
            result = run_campaign(
                spec,
                use_cache=False,
                backend=ProcessPoolBackend(2),
                failure_policy=policy,
            )
        [failure] = result.failures
        assert failure.key == keys[0]
        assert failure.error_type == "WorkerCrashError"
        assert failure.attempts == max_retries + 1
        for run, expected in list(zip(spec.runs(), reference))[1:]:
            assert result.metrics(**run.params_dict()) == expected
