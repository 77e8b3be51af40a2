"""The process pool's lease envelope: dispatch, isolation, exhaustion.

``ProcessPoolBackend`` sends every lease as its own submission.  Without
a task deadline it keeps two leases submitted per worker, one running
and one queued behind it; under a deadline it keeps one per worker.
Every lease keeps its own attempt count: a lease that raises or returns
garbage charges only itself, a worker death charges every submitted
lease (queued ones included), and the collapse that spends the rebuild
budget charges nobody and finishes the rest in-parent, where
attribution is exact.  Every test holds the pool to the fault-free
serial run, bit for bit.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.ideal.simulator import SchedulingMode
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
from repro.runners.backends import _evaluate_leased_task


@pytest.fixture(autouse=True)
def _fresh_runner_state():
    clear_run_caches()
    reset_stats()
    yield
    clear_run_caches()


@pytest.fixture
def waits(monkeypatch):
    """How many submitted leases each wait of the pool loop covered.

    The loop tops up its submissions before every wait, so the first
    entry is the first round and the largest is the deepest it went.
    """
    sizes = []
    real_wait = backends.wait

    def spy(futures, **kwargs):
        sizes.append(len(futures))
        return real_wait(futures, **kwargs)

    monkeypatch.setattr(backends, "wait", spy)
    return sizes


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


#: Lease shapes on two workers: 2 leases all start at once; 8 leases
#: keep a lease queued behind each running one (4 submitted at a time).
SHAPES = {
    "singleton": {"grid_side": (6, 8)},
    "queued": {"grid_side": (6, 7, 8, 9), "reliability": (0.85, 0.95)},
}
FIRST_ROUND = {"singleton": 2, "queued": 4}

#: Per shape, the lease a singled-out crash hits, and the first plan
#: seed that singles it out for four attempts.  The search from seed 0
#: takes seconds on the 8-lease shape, so it starts here; if the run
#: keys ever change, ``singling_plan`` still searches onwards.
SINGLED_CRASH = {"singleton": (0, 0), "queued": (6, 15_729)}


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


def singling_plan(fault, keys, index, attempts, first_seed=0, **extra):
    """A plan firing ``fault`` on ``keys[index]`` at each of its first
    ``attempts`` attempts, and no fault on any other key meanwhile."""
    rate = 1.0 / len(keys)
    for seed in range(first_seed, first_seed + 200_000):
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
    """The real pool, recording the ``(key, attempt)`` of the lease each
    submission carried, and the callables it submitted."""

    def __init__(self, jobs=2):
        super().__init__(jobs)
        self.submissions = []
        self.callables = set()

    def _new_executor(self, workers):
        executor = super()._new_executor(workers)
        submit = executor.submit

        def spy(fn, payload):
            _task, key, attempt = payload
            future = submit(fn, payload)
            self.callables.add(fn)
            self.submissions.append((key, attempt))
            return future

        executor.submit = spy
        return executor

    def attempts(self):
        """Every attempt each key was submitted at, in order."""
        seen = {}
        for key, attempt in self.submissions:
            seen.setdefault(key, []).append(attempt)
        return seen


def sixteen_lease_detailed_spec():
    """16 detailed points of two seeds each: 16 leases of two runs."""
    return CampaignSpec.build(
        kind="detailed",
        axes={"p": (0.25, 0.5, 0.75, 1.0), "q": (0.0, 0.25, 0.5, 1.0)},
        fixed={
            "density": 9.0,
            "mode": SchedulingMode.PSM_PBBF.value,
            "duration": 60.0,
            "scheduler": "psm",
        },
        seed_params=("p", "q", "density", "mode"),
        n_seeds=2,
        seed_with_run_index=True,
    )


class TestDispatch:
    @pytest.mark.parametrize("shape", ["singleton", "queued"])
    def test_every_submission_carries_one_lease(self, shape):
        spec = shape_spec(shape)
        backend = SpyPool(2)
        result = run_campaign(spec, use_cache=False, backend=backend)
        assert backend.callables == {_evaluate_leased_task}
        assert sorted(backend.submissions) == sorted(
            (key, 0) for key in run_keys(spec)
        )
        assert all_metrics(result) == fault_free_reference(spec)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_a_lease_is_queued_behind_each_running_one(self, jobs, waits):
        spec = shape_spec("queued")
        result = run_campaign(
            spec, use_cache=False, backend=ProcessPoolBackend(jobs)
        )
        assert waits[0] == 2 * jobs
        assert max(waits) == 2 * jobs
        assert all_metrics(result) == fault_free_reference(spec)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_a_deadline_keeps_one_lease_per_worker(self, jobs, waits):
        spec = shape_spec("queued")
        result = run_campaign(
            spec,
            use_cache=False,
            backend=ProcessPoolBackend(jobs),
            failure_policy=FailurePolicy(timeout_s=60.0),
        )
        assert waits[0] == jobs
        assert max(waits) == jobs
        assert all_metrics(result) == fault_free_reference(spec)

    def test_a_campaign_below_the_depth_goes_out_in_one_round(self, waits):
        spec = tiny_spec({"grid_side": (6, 7, 8)})
        backend = SpyPool(2)
        run_campaign(spec, use_cache=False, backend=backend)
        assert waits[0] == 3
        assert len(backend.submissions) == 3

    def test_sixteen_leases_match_serial_results_and_ticks(self):
        runs = sixteen_lease_detailed_spec().runs()
        assert len(runs) == 32
        serial_ticks = []
        serial = SerialBackend().execute(
            runs, on_result=lambda i, flat: serial_ticks.append((i, flat))
        )
        clear_run_caches()
        pooled_ticks = []
        pooled = ProcessPoolBackend(2).execute(
            runs, on_result=lambda i, flat: pooled_ticks.append((i, flat))
        )
        assert pooled == serial
        assert [i for i, _ in serial_ticks] == list(range(32))
        assert sorted(pooled_ticks, key=lambda tick: tick[0]) == serial_ticks
        # A lease delivers its two seeds together, in seed order.
        order = [i for i, _ in pooled_ticks]
        for first in range(0, 32, 2):
            assert order.index(first + 1) == order.index(first) + 1

    def test_a_collapse_charges_every_submitted_lease(self):
        # Every lease crashes on its first attempt, so each round of
        # four dies whole: the two leases queued behind the running
        # pair are charged without having started.
        spec = shape_spec("queued")
        keys = run_keys(spec)
        reference = fault_free_reference(spec)
        backend = SpyPool(2)
        with execution(fault_plan=FaultPlan(crash_rate=1.0)):
            result = run_campaign(spec, use_cache=False, backend=backend)
        assert not result.failures
        assert all_metrics(result) == reference
        assert backend.submissions[:8] == [(key, 0) for key in keys]
        assert backend.attempts() == {key: [0, 1] for key in keys}
        assert get_stats().retried == len(keys)


class TestQueuedPathUnderFaults:
    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(crash_rate=1.0),
            FaultPlan(corrupt_result_rate=1.0),
            FaultPlan(crash_rate=0.4, corrupt_result_rate=0.4, seed=7),
        ],
        ids=["crash", "corrupt", "mixed"],
    )
    def test_recovers_bit_identical_to_fault_free_serial(self, plan, waits):
        spec = shape_spec("queued")
        reference = fault_free_reference(spec)
        with execution(fault_plan=plan):
            result = run_campaign(
                spec, use_cache=False, backend=ProcessPoolBackend(2)
            )
        assert waits[0] == FIRST_ROUND["queued"]
        assert not result.failures
        assert all_metrics(result) == reference


class TestDeadlinePath:
    def test_hung_lease_retried_alone(self, waits):
        spec = shape_spec("queued")
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
        assert max(waits) == 2
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


@pytest.mark.parametrize("shape", ["singleton", "queued"])
class TestPoolExhaustion:
    def test_skip_records_each_corrupt_run(self, shape, waits):
        spec = shape_spec(shape)
        plan = FaultPlan(corrupt_result_rate=1.0, max_attempt=99)
        policy = FailurePolicy(max_retries=1, on_exhausted="skip")
        with execution(fault_plan=plan):
            result = run_campaign(
                spec,
                use_cache=False,
                backend=ProcessPoolBackend(2),
                failure_policy=policy,
            )
        assert waits[0] == FIRST_ROUND[shape]
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


class TestLeaseIsolation:
    def test_a_corrupt_lease_charges_only_itself(self):
        spec = shape_spec("queued")
        keys = run_keys(spec)
        reference = fault_free_reference(spec)
        plan = singling_plan("corrupt_result", keys, index=1, attempts=1)
        backend = SpyPool(2)
        with execution(fault_plan=plan):
            result = run_campaign(spec, use_cache=False, backend=backend)
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
        ids=["singleton", "queued"],
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
    @pytest.mark.parametrize("max_retries", [0, 1, 2, 3])
    @pytest.mark.parametrize("shape", ["singleton", "queued"])
    def test_collateral_deaths_never_exhaust_a_healthy_lease(
        self, shape, max_retries
    ):
        spec = shape_spec(shape)
        keys = run_keys(spec)
        reference = fault_free_reference(spec)
        # One lease kills its worker on every attempt it gets; every
        # other lease would succeed wherever it ran.  On the queued
        # shape each collapse also charges the leases queued behind.
        index, first_seed = SINGLED_CRASH[shape]
        plan = singling_plan(
            "crash", keys, index, max_retries + 1, first_seed=first_seed
        )
        policy = FailurePolicy(max_retries=max_retries, on_exhausted="skip")
        with execution(fault_plan=plan):
            result = run_campaign(
                spec,
                use_cache=False,
                backend=ProcessPoolBackend(2),
                failure_policy=policy,
            )
        [failure] = result.failures
        assert failure.key == keys[index]
        assert failure.error_type == "WorkerCrashError"
        assert failure.attempts == max_retries + 1
        for i, (run, expected) in enumerate(zip(spec.runs(), reference)):
            if i != index:
                assert result.metrics(**run.params_dict()) == expected

    @pytest.mark.parametrize("max_retries", [1, 2, 3])
    def test_a_transient_crash_among_queued_leases_recovers(
        self, max_retries
    ):
        spec = shape_spec("queued")
        keys = run_keys(spec)
        reference = fault_free_reference(spec)
        index, first_seed = SINGLED_CRASH["queued"]
        plan = singling_plan("crash", keys, index, 1, first_seed=first_seed)
        backend = SpyPool(2)
        policy = FailurePolicy(max_retries=max_retries, on_exhausted="skip")
        with execution(fault_plan=plan):
            result = run_campaign(
                spec, use_cache=False, backend=backend, failure_policy=policy
            )
        assert not result.failures
        assert all_metrics(result) == reference
        attempts = backend.attempts()
        assert attempts[keys[index]] == [0, 1]
        # One collapse charges a lease at most once.
        assert all(set(attempts[key]) <= {0, 1} for key in keys)
