"""Sharded execution: the work queue, its workers, and chaos parity.

The acceptance bar mirrors the pool backend's: a campaign pushed
through the on-disk :class:`WorkQueue` — with workers claiming under
leases, dying mid-task, or joining late from "other machines" — must
produce metrics bit-identical to :class:`SerialBackend`, because point
evaluation is a pure function of ``(kind, params, seed)`` and the queue
only ever decides scheduling.
"""

import json
import sqlite3

import pytest

from repro.runners import (
    CampaignSpec,
    FailurePolicy,
    FaultPlan,
    ShardedBackend,
    WorkQueue,
    clear_run_caches,
    execution,
    reset_stats,
    run_campaign,
    worker_loop,
)
from repro.runners import context, faults
from repro.runners.backends import _build_leases
from repro.runners.failures import WorkerCrashError


@pytest.fixture(autouse=True)
def _fresh_runner_state():
    previous = context.get_execution()
    clear_run_caches()
    reset_stats()
    yield
    clear_run_caches()
    # An inline worker_loop installs the queue's published execution
    # flags and marks this process as a pool worker; undo both so later
    # tests' crash faults raise instead of os._exit-ing pytest.
    context._config = previous
    faults._in_pool_worker = False


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


def serial_reference(spec):
    clear_run_caches()
    with execution(backend="serial"):
        reference = all_metrics(run_campaign(spec, use_cache=False))
    clear_run_caches()
    return reference


class TestWorkQueue:
    def test_claim_complete_lifecycle(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        leases = _build_leases(tiny_spec().runs())
        queue.enqueue(leases)
        assert queue.counts() == {"pending": len(leases)}
        claimed = queue.claim("w1", lease_s=60.0, now=100.0)
        key, task, attempt = claimed
        assert key == leases[0].key
        assert task == leases[0].task
        assert attempt == 0
        queue.complete(key, [{"fake": 1.0}], "w1", now=101.0)
        rows = queue.fetch_results()
        assert [(row[1], row[2]) for row in rows] == [(key, [{"fake": 1.0}])]
        counts = queue.counts()
        assert counts["done"] == 1 and counts["pending"] == len(leases) - 1

    def test_claim_returns_none_when_nothing_due(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        assert queue.claim("w1", lease_s=60.0) is None
        assert not queue.drained()  # an empty queue is not a finished one

    def test_fail_requeues_then_exhausts(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        policy = FailurePolicy(max_retries=1)
        leases = _build_leases(tiny_spec(axes={"grid_side": (6,)}).runs())
        queue.enqueue(leases)
        key, _task, attempt = queue.claim("w1", lease_s=60.0, now=100.0)
        assert attempt == 0
        queue.fail(key, "ValueError", "boom", policy, now=100.0)
        key2, _task, attempt = queue.claim("w1", lease_s=60.0, now=100.0)
        assert key2 == key and attempt == 1  # zero backoff: due immediately
        queue.fail(key, "ValueError", "boom again", policy, now=100.0)
        assert queue.claim("w1", lease_s=60.0, now=100.0) is None
        assert queue.fetch_exhausted() == [(key, 1, "ValueError", "boom again")]
        assert queue.drained()

    def test_expired_lease_is_charged_a_crash_attempt(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        policy = FailurePolicy()
        leases = _build_leases(tiny_spec(axes={"grid_side": (6,)}).runs())
        queue.enqueue(leases)
        key, _task, _attempt = queue.claim("w1", lease_s=10.0, now=100.0)
        assert queue.requeue_expired(policy, now=105.0) == 0  # still leased
        assert queue.requeue_expired(policy, now=111.0) == 1
        reclaimed = queue.claim("w2", lease_s=10.0, now=111.0)
        assert reclaimed[0] == key and reclaimed[2] == 1
        con = sqlite3.connect(str(tmp_path / "q" / "queue.sqlite"))
        error_type = con.execute(
            "SELECT error_type FROM tasks WHERE key = ?", (key,)
        ).fetchone()[0]
        con.close()
        assert error_type == WorkerCrashError.__name__

    def test_release_worker_charges_only_its_leases(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        policy = FailurePolicy()
        leases = _build_leases(tiny_spec().runs())
        queue.enqueue(leases)
        queue.claim("dead", lease_s=60.0, now=100.0)
        survivor_key = queue.claim("alive", lease_s=60.0, now=100.0)[0]
        assert queue.release_worker("dead", policy, now=101.0) == 1
        counts = queue.counts()
        assert counts["pending"] == len(leases) - 1  # the charged one is back
        assert counts["leased"] == 1
        attempts = queue.attempts_for([lease.key for lease in leases])
        assert attempts[survivor_key] == 0

    def test_enqueue_rearms_exhausted_rows(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        policy = FailurePolicy(max_retries=0)
        leases = _build_leases(tiny_spec(axes={"grid_side": (6,)}).runs())
        queue.enqueue(leases)
        key, _task, _attempt = queue.claim("w1", lease_s=60.0, now=100.0)
        queue.fail(key, "ValueError", "boom", policy, now=100.0)
        assert queue.fetch_exhausted()
        queue.enqueue(leases)  # a new campaign deserves fresh attempts
        assert queue.fetch_exhausted() == []
        assert queue.claim("w2", lease_s=60.0, now=100.0)[2] == 0

    def test_complete_is_idempotent(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        leases = _build_leases(tiny_spec(axes={"grid_side": (6,)}).runs())
        queue.enqueue(leases)
        key = leases[0].key
        queue.complete(key, [{"v": 1.0}], "w1", now=100.0)
        queue.complete(key, [{"v": 1.0}], "w2", now=200.0)  # late duplicate
        rows = queue.fetch_results()
        assert len(rows) == 1
        assert rows[0][2] == [{"v": 1.0}]

    def test_result_rows_hold_the_flats_inline(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        leases = _build_leases(tiny_spec().runs())
        queue.enqueue(leases)
        flats = [{"v": 0.5, "w": [1, 2]}]
        queue.complete(leases[0].key, flats, "w1", now=100.0)
        with sqlite3.connect(str(queue.db_path)) as db:
            [(text,)] = db.execute("SELECT flats FROM results").fetchall()
        assert json.loads(text) == flats
        [(_rowid, key, fetched)] = queue.fetch_results()
        assert (key, fetched) == (leases[0].key, flats)

    def test_config_roundtrip(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        policy = FailurePolicy(max_retries=2, timeout_s=7.5, on_exhausted="skip")
        plan = FaultPlan(crash_rate=0.25, seed=3)
        with execution(fast_path=False):
            queue.configure(policy, lease_s=42.0, fault_plan_token=plan.token)
        config = queue.read_config()
        assert config["policy"] == policy
        assert config["lease_s"] == 42.0
        assert config["fast_path"] is False
        assert FaultPlan.from_token(config["fault_plan"]) == plan

    def test_unconfigured_queue_serves_defaults(self, tmp_path):
        config = WorkQueue(tmp_path / "q").read_config()
        assert config["policy"] == FailurePolicy()
        assert config["fault_plan"] is None


class TestWorkerLoop:
    def test_inline_worker_drains_the_queue(self, tmp_path):
        spec = tiny_spec()
        queue = WorkQueue(tmp_path / "q")
        queue.configure(FailurePolicy())
        leases = _build_leases(spec.runs())
        queue.enqueue(leases)
        completed = worker_loop(tmp_path / "q", worker_id="inline")
        assert completed == len(leases)
        assert queue.drained()
        results = {key: flats for _rowid, key, flats in queue.fetch_results()}
        assert set(results) == {lease.key for lease in leases}

    def test_worker_rejects_garbage_metrics(self, tmp_path, monkeypatch):
        spec = tiny_spec(axes={"grid_side": (6,)})
        queue = WorkQueue(tmp_path / "q")
        policy = FailurePolicy(max_retries=0)
        queue.configure(policy)
        queue.enqueue(_build_leases(spec.runs()))
        from repro.runners import queue as queue_module

        monkeypatch.setattr(
            queue_module, "_timed_attempt", lambda payload, timeout: [{"junk": 1}]
        )
        completed = worker_loop(tmp_path / "q", worker_id="inline")
        assert completed == 0
        exhausted = queue.fetch_exhausted()
        assert [row[2] for row in exhausted] == ["CorruptResultError"]

    def test_max_tasks_stops_early(self, tmp_path):
        spec = tiny_spec()
        queue = WorkQueue(tmp_path / "q")
        queue.configure(FailurePolicy())
        queue.enqueue(_build_leases(spec.runs()))
        assert worker_loop(tmp_path / "q", worker_id="inline", max_tasks=1) == 1
        assert not queue.drained()


class TestShardedParity:
    def test_bit_identical_to_serial(self, tmp_path):
        spec = tiny_spec(n_seeds=2)
        reference = serial_reference(spec)
        with execution(backend="sharded", jobs=2):
            result = run_campaign(spec, use_cache=False)
        assert not result.failures
        assert all_metrics(result) == reference

    def test_cached_run_reruns_from_the_cache_alone(self, tmp_path):
        spec = tiny_spec(n_seeds=2)
        reference = serial_reference(spec)
        cache_dir = str(tmp_path / "cache")
        with execution(backend="sharded", jobs=2):
            first = run_campaign(spec, cache=cache_dir)
        assert all_metrics(first) == reference
        clear_run_caches()
        with execution(backend="sharded", jobs=2):
            second = run_campaign(spec, cache=cache_dir)
        assert (second.computed, second.reused) == (0, len(spec.runs()))
        assert all_metrics(second) == reference

    def test_explicit_queue_dir_is_shared_state(self, tmp_path):
        spec = tiny_spec()
        reference = serial_reference(spec)
        queue_dir = tmp_path / "shared-queue"
        with execution(backend="sharded", jobs=2, queue_dir=str(queue_dir)):
            result = run_campaign(spec, use_cache=False)
        assert all_metrics(result) == reference
        # The queue survives for forensics / late workers on other hosts.
        queue = WorkQueue(queue_dir)
        assert queue.drained()
        assert len(queue.fetch_results()) == len(_build_leases(spec.runs()))

    def test_workers_crashing_midrun_still_bit_identical(self):
        spec = tiny_spec(n_seeds=2)
        reference = serial_reference(spec)
        # Half the first attempts os._exit(73) inside the spawned
        # workers; lease/corpse accounting re-queues, retries recover.
        with execution(
            backend="sharded", jobs=3, fault_plan=FaultPlan(crash_rate=0.5)
        ):
            result = run_campaign(spec, use_cache=False)
        assert not result.failures
        assert all_metrics(result) == reference

    def test_exhausted_retries_skip_records_failures(self):
        spec = tiny_spec()
        plan = FaultPlan(crash_rate=1.0, max_attempt=99)
        policy = FailurePolicy(max_retries=1, on_exhausted="skip")
        with execution(backend="sharded", jobs=2, fault_plan=plan):
            result = run_campaign(spec, use_cache=False, failure_policy=policy)
        assert len(result.failures) == 2
        assert all(
            failure.error_type == "WorkerCrashError"
            for failure in result.failures
        )
        with pytest.raises(KeyError, match="failed"):
            result.metrics(grid_side=6)

    def test_degrade_completes_when_workers_cannot(self):
        spec = tiny_spec()
        reference = serial_reference(spec)
        plan = FaultPlan(crash_rate=1.0, max_attempt=99)
        policy = FailurePolicy(max_retries=0, on_exhausted="degrade")
        with execution(backend="sharded", jobs=2, fault_plan=plan):
            result = run_campaign(spec, use_cache=False, failure_policy=policy)
        assert not result.failures
        assert all_metrics(result) == reference

    def test_backend_direct_execute_alignment(self):
        spec = tiny_spec(n_seeds=2)
        runs = spec.runs()
        backend = ShardedBackend(jobs=2)
        delivered = []
        flats = backend.execute(
            runs, on_result=lambda index, flat: delivered.append(index)
        )
        assert len(flats) == len(runs)
        assert all(flat is not None for flat in flats)
        assert sorted(delivered) == list(range(len(runs)))
