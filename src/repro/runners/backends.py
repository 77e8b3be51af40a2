"""Execution backends: how a batch of campaign runs gets computed.

Both backends take the *pending* runs of a campaign (after memo and disk
cache have been consulted) and return one flat metrics dict per run, in
order.  Because point evaluation is a pure function of ``(kind, params,
seed)`` (see :mod:`repro.runners.points`), the two are bit-identical for
a fixed spec — ``ProcessPoolBackend`` is purely a wall-clock optimisation.

Seed batching: consecutive ``detailed`` runs differing only in their seed
(how :meth:`CampaignSpec.runs` orders them) are grouped into one task and
evaluated through :func:`repro.runners.points.evaluate_run_batch`, which
hands the whole seed list to the seed-batched kernel in a single call
when the point is inside its scope.  Grouping only changes *who* computes
each run's metrics — per-run results, their order and completion ticks
are identical to the ungrouped loop.

Fault tolerance: each grouped task is a *lease* executed under a
:class:`~repro.runners.failures.FailurePolicy`.  A task that raises,
returns schema-invalid metrics, hangs past the policy's ``timeout_s`` or
takes its worker process down with it is retried immediately (bounded
attempts) and, once exhausted, handled per ``on_exhausted`` —
recorded as a :class:`~repro.runners.failures.RunFailure` (``skip``),
given one last in-parent attempt on the reference kernels (``degrade``),
or surfaced in a :class:`CampaignExecutionError` *after* the rest of the
batch completes (``raise``, the default).  The pool backend rebuilds its
executor when workers die and falls back to in-parent serial execution
when rebuilds exceed the policy's bound, so serial and pool behave
identically under the same injected faults.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.obs import ensure_recorder, get_recorder
from repro.runners import faults
from repro.runners.context import (
    execution,
    get_execution,
    get_stats,
    set_execution,
)
from repro.runners.failures import (
    CampaignExecutionError,
    CorruptResultError,
    FailurePolicy,
    RunFailure,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.runners.points import (
    evaluate_run_batch,
    metrics_to_dict,
    validate_flat_metrics,
)
from repro.runners.spec import CampaignRun

#: One grouped unit of work: a point and the (consecutive) seeds to run.
_BatchTask = Tuple[str, Dict[str, Any], Tuple[int, ...]]

#: Per-run completion hook, invoked in the parent process as each run's
#: metrics materialise: ``on_result(index, flat)`` with ``index`` into
#: the ``runs`` sequence (the campaign layer persists and reports
#: progress from these, so completed work survives a later crash).
OnResult = Optional[Callable[[int, Dict[str, Any]], None]]

#: Per-run failure hook: one :class:`RunFailure` per covered run once a
#: lease exhausts its retries.
OnFailure = Optional[Callable[[RunFailure], None]]

#: How often the pool loop wakes to check deadlines and top up leases.
_POLL_INTERVAL_S = 0.05

#: Campaigns with at most this many leases per worker count as "small":
#: the pool groups their leases into one submission per worker, so IPC
#: and future bookkeeping stop dominating short tasks.
_SMALL_CAMPAIGN_PER_WORKER = 8


def _evaluate_batch_task(task: _BatchTask) -> List[Dict[str, Any]]:
    """Evaluate one point's grouped seeds, one flat dict per seed."""
    kind, params, seeds = task
    return [
        metrics_to_dict(metrics)
        for metrics in evaluate_run_batch(kind, params, seeds)
    ]


def _evaluate_leased_task(
    payload: Tuple[_BatchTask, str, int]
) -> List[Dict[str, Any]]:
    """Task body for both backends: faults applied around the evaluation.

    Module-level so it pickles under every multiprocessing start method.
    Fault injection wraps — never enters — the evaluators: a
    corrupt-result fault substitutes the *returned* dicts after a real
    evaluation, so a retry or a degraded attempt evaluates afresh.
    """
    task, lease_key, attempt = payload
    with get_recorder().span(
        "task",
        key=lease_key[:12],
        attempt=attempt,
        kind=task[0],
        seeds=len(task[2]),
    ):
        marker = faults.apply_task_fault(lease_key, attempt)
        flats = _evaluate_batch_task(task)
    if marker == "corrupt_result":
        return [dict(faults.CORRUPT_RESULT_MARKER) for _ in flats]
    return flats


def _evaluate_lease_chunk(
    payloads: Sequence[Tuple[_BatchTask, str, int]]
) -> List[Tuple[Any, ...]]:
    """Evaluate several leases in one pool submission, outcomes aligned.

    Used for small campaigns where per-lease submission overhead would
    dominate.  Failures are captured per lease as ``("error", type
    name, message)`` tuples instead of raising, so one bad lease never
    charges its chunk-mates an attempt — only a worker *death* (which
    no handler survives) keeps the whole-chunk collateral accounting.
    """
    outcomes: List[Tuple[Any, ...]] = []
    for payload in payloads:
        try:
            outcomes.append(("ok", _evaluate_leased_task(payload)))
        except KeyboardInterrupt:  # pragma: no cover - parent-driven
            raise
        except BaseException as error:
            outcomes.append(("error", type(error).__name__, str(error)))
    return outcomes


_CHUNK_ERROR_TYPES = {
    cls.__name__: cls
    for cls in (CorruptResultError, TaskTimeoutError, WorkerCrashError)
}


def _chunk_error(name: str, message: str) -> BaseException:
    """Rebuild a chunk lease's worker-side failure from its wire form.

    Unknown types become a synthetic RuntimeError subclass carrying the
    original name, so ``RunFailure.error_type`` reads the same whether
    the lease ran chunked or singleton.
    """
    cls = _CHUNK_ERROR_TYPES.get(name)
    if cls is None:
        cls = type(name, (RuntimeError,), {})
    return cls(message)


def _group_runs(runs: Sequence[CampaignRun]) -> List[_BatchTask]:
    """Group consecutive same-point ``detailed`` runs into batch tasks.

    Only the ``detailed`` kind batches (its kernel amortises machinery
    across seeds); other kinds stay singleton tasks so pool scheduling
    granularity is unchanged for them.  ``run.params`` is the hashable
    point identity, so equality is exact.
    """
    groups: List[_BatchTask] = []
    last_params: Optional[Tuple] = None
    for run in runs:
        if (
            groups
            and run.kind == "detailed"
            and groups[-1][0] == "detailed"
            and run.params == last_params
        ):
            kind, params, seeds = groups[-1]
            groups[-1] = (kind, params, seeds + (run.seed,))
        else:
            groups.append((run.kind, run.params_dict(), (run.seed,)))
            last_params = run.params
    return groups


def _init_worker(
    fast_path: bool,
    detailed_fast_path: bool,
    fault_plan_token: Optional[str] = None,
    telemetry_dir: Optional[str] = None,
) -> None:
    """Install the parent's evaluation-affecting execution flags.

    The ambient :class:`ExecutionConfig` is a module global, so spawned
    (or forkserver) workers re-import it with defaults; without this the
    parent's ``--no-fast-path`` / ``--no-detailed-fast-path`` — and any
    context-installed fault plan — would silently not reach the pool.
    ``telemetry_dir`` rides along so pool workers append their own event
    files beside the parent's (observation only; it affects no result).
    """
    plan = (
        faults.FaultPlan.from_token(fault_plan_token)
        if fault_plan_token
        else None
    )
    set_execution(
        fast_path=fast_path,
        detailed_fast_path=detailed_fast_path,
        fault_plan=plan,
        telemetry_dir=telemetry_dir,
    )
    ensure_recorder(telemetry_dir, role="pool-worker")
    faults.mark_pool_worker()


@dataclass
class _Lease:
    """One task's claim on a slice of the result list, across retries."""

    task: _BatchTask
    #: Index of the lease's first run in the ``execute`` input sequence.
    start: int
    #: Run key of the first covered run — the lease's identity in the
    #: fault stream.
    key: str
    #: Attempt about to run (0 = the original try).
    attempt: int = 0

    @property
    def n_runs(self) -> int:
        return len(self.task[2])


def _build_leases(runs: Sequence[CampaignRun]) -> List[_Lease]:
    leases: List[_Lease] = []
    start = 0
    for task in _group_runs(runs):
        leases.append(_Lease(task=task, start=start, key=runs[start].key))
        start += len(task[2])
    return leases


def _resolve_policy(policy: Optional[FailurePolicy]) -> FailurePolicy:
    """Explicit argument, else ambient context, else the defaults."""
    if policy is not None:
        return policy
    ambient = get_execution().failure_policy
    return ambient if ambient is not None else FailurePolicy()


class _ExecutionState:
    """Bookkeeping one ``execute`` call shares across leases and retries."""

    def __init__(
        self,
        runs: Sequence[CampaignRun],
        policy: FailurePolicy,
        on_result: OnResult,
        on_failure: OnFailure,
    ) -> None:
        self.runs = list(runs)
        self.policy = policy
        self.on_result = on_result
        self.on_failure = on_failure
        self.results: List[Optional[Dict[str, Any]]] = [None] * len(self.runs)
        self.failures: List[RunFailure] = []

    def deliver(self, lease: _Lease, flats: List[Dict[str, Any]]) -> None:
        """Land one completed lease's per-run metrics, firing the hook."""
        for offset, flat in enumerate(flats):
            index = lease.start + offset
            self.results[index] = flat
            if self.on_result is not None:
                self.on_result(index, flat)

    def record_exhausted(self, lease: _Lease, error: BaseException) -> None:
        """Turn one spent lease into per-run failure records."""
        for offset in range(lease.n_runs):
            run = self.runs[lease.start + offset]
            failure = RunFailure(
                key=run.key,
                kind=run.kind,
                params=run.params,
                seed=run.seed,
                attempts=lease.attempt + 1,
                error_type=type(error).__name__,
                error=str(error),
            )
            self.failures.append(failure)
            if self.on_failure is not None:
                self.on_failure(failure)
        get_stats().failed += lease.n_runs
        get_recorder().event(
            "task.exhausted",
            key=lease.key[:12],
            attempts=lease.attempt + 1,
            runs=lease.n_runs,
            error=type(error).__name__,
        )

    def finish(self) -> List[Optional[Dict[str, Any]]]:
        """The aligned results; raises last if the policy says so.

        Raising *after* the loop means one poisoned point costs only
        itself — every other run completed and (through ``on_result``)
        was already persisted by the campaign layer.
        """
        if self.failures and self.policy.on_exhausted == "raise":
            raise CampaignExecutionError(self.failures)
        return self.results


def _validated(lease: _Lease, flats: Any) -> List[Dict[str, Any]]:
    """A lease's raw task output, or :class:`CorruptResultError`."""
    kind = lease.task[0]
    if (
        not isinstance(flats, list)
        or len(flats) != lease.n_runs
        or not all(validate_flat_metrics(kind, flat) for flat in flats)
    ):
        raise CorruptResultError(
            f"task returned metrics that do not rebuild as kind {kind!r}"
        )
    return flats


def _degraded_attempt(
    lease: _Lease,
) -> Tuple[Optional[List[Dict[str, Any]]], Optional[BaseException]]:
    """Last-resort in-parent attempt on the reference kernels.

    Mirrors ``on_exhausted="degrade"``'s promise: no pool, no fast-path
    kernels, no fault injection — if the reference implementation can
    produce the point, the campaign gets it.
    """
    try:
        with execution(fast_path=False, detailed_fast_path=False):
            with faults.suppress_faults():
                flats = _evaluate_batch_task(lease.task)
        return _validated(lease, flats), None
    except KeyboardInterrupt:
        raise
    except BaseException as exc:  # even the reference kernels failed
        return None, exc


def _handle_failed_attempt(
    state: _ExecutionState,
    lease: _Lease,
    error: BaseException,
    requeue: Callable[[_Lease], None],
) -> None:
    """One failed attempt: schedule a retry, degrade, or record failure."""
    policy = state.policy
    recorder = get_recorder()
    if lease.attempt < policy.max_retries:
        lease.attempt += 1
        get_stats().retried += 1
        recorder.event(
            "task.retry",
            key=lease.key[:12],
            attempt=lease.attempt,
            error=type(error).__name__,
        )
        requeue(lease)
        return
    if policy.on_exhausted == "degrade":
        recorder.event(
            "task.degraded", key=lease.key[:12], error=type(error).__name__
        )
        flats, degrade_error = _degraded_attempt(lease)
        if flats is not None:
            state.deliver(lease, flats)
            return
        error = degrade_error if degrade_error is not None else error
    state.record_exhausted(lease, error)


def _timed_attempt(
    payload: Tuple[_BatchTask, str, int], timeout_s: Optional[float]
) -> List[Dict[str, Any]]:
    """Evaluate in-process, bounding wall-clock when a deadline is set.

    The evaluation runs in a daemon thread joined for ``timeout_s``; a
    hung attempt cannot be killed in-process, so it is *abandoned* and
    reported as :class:`TaskTimeoutError`.  The evaluators are pure, so
    an abandoned thread that eventually finishes changes nothing — the
    retry still returns the same bits.
    """
    if not timeout_s:
        return _evaluate_leased_task(payload)
    box: Dict[str, Any] = {}

    def _target() -> None:
        try:
            box["flats"] = _evaluate_leased_task(payload)
        except BaseException as exc:  # rethrown in the joining thread
            box["error"] = exc

    thread = threading.Thread(target=_target, daemon=True, name="repro-task")
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise TaskTimeoutError(f"task exceeded timeout_s={timeout_s:g}")
    if "error" in box:
        raise box["error"]
    return box["flats"]


def _drain_serial(state: _ExecutionState, leases: Sequence[_Lease]) -> None:
    """Run leases to completion in-process under the retry envelope."""
    queue: Deque[_Lease] = deque(leases)
    while queue:
        lease = queue.popleft()
        payload = (lease.task, lease.key, lease.attempt)
        try:
            flats = _validated(
                lease, _timed_attempt(payload, state.policy.timeout_s)
            )
        except KeyboardInterrupt:
            raise
        except Exception as error:
            _handle_failed_attempt(state, lease, error, queue.appendleft)
            continue
        state.deliver(lease, flats)


class SerialBackend:
    """Evaluate runs one after another in the current process.

    Same retry/timeout/exhaustion envelope as the pool backend, so a
    campaign behaves identically under injected faults whichever backend
    runs it — only crashes differ mechanically (an in-process "crash"
    raises :class:`WorkerCrashError` instead of killing a worker).
    """

    def execute(
        self,
        runs: Sequence[CampaignRun],
        on_result: OnResult = None,
        failure_policy: Optional[FailurePolicy] = None,
        on_failure: OnFailure = None,
    ) -> List[Optional[Dict[str, Any]]]:
        """Metrics dicts for ``runs`` in order; ``None`` for failed runs."""
        state = _ExecutionState(
            runs, _resolve_policy(failure_policy), on_result, on_failure
        )
        _drain_serial(state, _build_leases(runs))
        return state.finish()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialBackend()"


def _chunk_size(
    n_leases: int, workers: int, timeout_s: Optional[float]
) -> int:
    """Leases per pool submission for one ``_drain_pool`` call.

    Small campaigns (more leases than workers, at most
    ``_SMALL_CAMPAIGN_PER_WORKER`` per worker) go out as one submission
    per worker instead of one per lease, so IPC and future bookkeeping
    stop dominating short tasks.  Never chunked under a task deadline —
    the submission-time deadline only approximates a start-time one at
    one task per submission.
    """
    if timeout_s is not None or n_leases <= workers:
        return 1
    per_worker = -(-n_leases // workers)  # ceil
    if n_leases > workers * _SMALL_CAMPAIGN_PER_WORKER:
        return 1
    return per_worker


def _kill_executor(executor: ProcessPoolExecutor) -> None:
    """Tear a pool down even when its workers are hung or dead.

    ``shutdown()`` alone would join a hung worker forever; terminating
    the worker processes first (CPython tracks them in ``_processes``)
    reclaims them, and the non-blocking shutdown then just retires the
    executor machinery.
    """
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except (OSError, ValueError):
            pass
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive
        pass
    for process in list(processes.values()):
        try:
            process.join(1.0)
        except Exception:  # pragma: no cover - defensive
            pass


class ProcessPoolBackend:
    """Leased fan-out over a process pool, resilient to worker loss.

    Each grouped task is leased to one worker via async submission (at
    most one in-flight task per worker, so a submission-time deadline
    approximates a start-time one).  A worker that raises or returns
    garbage charges its lease one attempt; a worker that *dies* breaks
    the whole pool, so every in-flight lease is charged one attempt
    (the guilty one is unknowable) and the pool is rebuilt — bounded by
    ``FailurePolicy.max_pool_rebuilds`` (and ``max_retries``).  The
    collapse past that bound charges nobody: the remaining leases
    degrade to in-parent serial execution, where crash faults raise
    instead of exiting and attribution is exact.  A lease past its
    deadline times out alone; its hung worker is reclaimed by a pool
    rebuild that requeues the innocent in-flight leases at their
    *current* attempt (no charge).

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` or 0 means ``os.cpu_count()``.
    """

    def __init__(self, jobs: int = 0) -> None:
        if jobs is None or jobs <= 0:
            jobs = os.cpu_count() or 1
        self.jobs = jobs

    def execute(
        self,
        runs: Sequence[CampaignRun],
        on_result: OnResult = None,
        failure_policy: Optional[FailurePolicy] = None,
        on_failure: OnFailure = None,
    ) -> List[Optional[Dict[str, Any]]]:
        """Metrics dicts for ``runs`` in order; ``None`` for failed runs.

        Workers may interleave, but delivery (and ``on_result``) order
        within a lease — and the returned alignment — match the serial
        backend exactly.
        """
        state = _ExecutionState(
            runs, _resolve_policy(failure_policy), on_result, on_failure
        )
        leases = _build_leases(runs)
        if len(leases) <= 1 or self.jobs == 1:
            _drain_serial(state, leases)
        else:
            self._drain_pool(state, leases)
        return state.finish()

    def _new_executor(self, workers: int) -> ProcessPoolExecutor:
        config = get_execution()
        plan = faults.active_fault_plan()
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(
                config.fast_path,
                config.detailed_fast_path,
                plan.token if plan is not None else None,
                config.telemetry_dir,
            ),
        )

    def _drain_pool(self, state: _ExecutionState, leases: List[_Lease]) -> None:
        policy = state.policy
        workers = min(self.jobs, len(leases))
        # An innocent lease loses one attempt per charged pool collapse,
        # so the rebuild budget must never exceed the retry budget —
        # otherwise a single poisoned task could exhaust its neighbours.
        rebuild_cap = min(policy.max_pool_rebuilds, policy.max_retries)
        rebuilds = 0
        queue: Deque[_Lease] = deque(leases)
        requeue = queue.append
        in_flight: Dict[Any, Tuple[List[_Lease], Optional[float]]] = {}
        chunk_size = _chunk_size(len(leases), workers, policy.timeout_s)

        def fail_over_to_serial() -> None:
            remaining = [
                lease for chunk, _ in in_flight.values() for lease in chunk
            ]
            in_flight.clear()
            remaining.extend(queue)
            queue.clear()
            remaining.sort(key=lambda lease: lease.start)
            _drain_serial(state, remaining)

        executor = self._new_executor(workers)
        try:
            while queue or in_flight:
                broken = False
                # Leases whose future died with the pool this round.
                collapsed: List[_Lease] = []
                while queue and len(in_flight) < workers:
                    chunk = [queue.popleft()]
                    while len(chunk) < chunk_size and queue:
                        chunk.append(queue.popleft())
                    payloads = [
                        (lease.task, lease.key, lease.attempt)
                        for lease in chunk
                    ]
                    try:
                        if len(chunk) == 1:
                            future = executor.submit(
                                _evaluate_leased_task, payloads[0]
                            )
                        else:
                            future = executor.submit(
                                _evaluate_lease_chunk, payloads
                            )
                    except BrokenExecutor:
                        for lease in reversed(chunk):
                            queue.appendleft(lease)
                        broken = True
                        break
                    deadline = (
                        time.monotonic() + policy.timeout_s
                        if policy.timeout_s
                        else None
                    )
                    in_flight[future] = (chunk, deadline)
                if in_flight and not broken:
                    done, _ = wait(
                        list(in_flight),
                        timeout=_POLL_INTERVAL_S,
                        return_when=FIRST_COMPLETED,
                    )
                    for future in done:
                        chunk, _deadline = in_flight.pop(future)
                        try:
                            raw = future.result()
                        except BrokenExecutor:
                            broken = True
                            collapsed.extend(chunk)
                            continue
                        except KeyboardInterrupt:
                            raise
                        except Exception as error:
                            for lease in chunk:
                                _handle_failed_attempt(
                                    state, lease, error, requeue
                                )
                            continue
                        outcomes = (
                            [("ok", raw)] if len(chunk) == 1 else raw
                        )
                        for lease, outcome in zip(chunk, outcomes):
                            if outcome[0] != "ok":
                                _handle_failed_attempt(
                                    state,
                                    lease,
                                    _chunk_error(outcome[1], outcome[2]),
                                    requeue,
                                )
                                continue
                            try:
                                flats = _validated(lease, outcome[1])
                            except CorruptResultError as error:
                                _handle_failed_attempt(
                                    state, lease, error, requeue
                                )
                            else:
                                state.deliver(lease, flats)
                expired: List[Any] = []
                if not broken and policy.timeout_s:
                    now = time.monotonic()
                    expired = [
                        future
                        for future, (_chunk, deadline) in in_flight.items()
                        if deadline is not None and now >= deadline
                    ]
                    for future in expired:
                        chunk, _deadline = in_flight.pop(future)
                        for lease in chunk:
                            _handle_failed_attempt(
                                state,
                                lease,
                                TaskTimeoutError(
                                    f"task exceeded "
                                    f"timeout_s={policy.timeout_s:g}"
                                ),
                                requeue,
                            )
                if broken or expired:
                    # The pool is unusable: workers died (pool poisoned)
                    # or are hung holding expired leases.  Re-lease the
                    # in-flight tasks and start a fresh pool — a worker
                    # death charges them one attempt (guilty unknown), a
                    # timeout elsewhere does not (they are innocent and
                    # merely rescheduled).  The collapse that spends the
                    # rebuild budget charges nobody: serial fail-over
                    # attributes the next crash exactly, so collateral
                    # deaths alone can never exhaust an innocent lease.
                    for chunk, _deadline in in_flight.values():
                        collapsed.extend(chunk)
                    in_flight.clear()
                    _kill_executor(executor)
                    rebuilds += 1
                    charge = broken and rebuilds <= rebuild_cap
                    for lease in collapsed:
                        if charge:
                            _handle_failed_attempt(
                                state,
                                lease,
                                WorkerCrashError(
                                    "worker pool collapsed mid-task"
                                ),
                                requeue,
                            )
                        else:
                            requeue(lease)
                    recorder = get_recorder()
                    recorder.event(
                        "pool.rebuild",
                        rebuilds=rebuilds,
                        cause="broken" if broken else "timeout",
                    )
                    if rebuilds > rebuild_cap:
                        # The pool keeps dying: finish in-parent, where
                        # attribution is exact and nothing can take the
                        # process down but the task itself.
                        recorder.event(
                            "pool.serial_failover", rebuilds=rebuilds
                        )
                        fail_over_to_serial()
                        return
                    executor = self._new_executor(workers)
        finally:
            _kill_executor(executor)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessPoolBackend(jobs={self.jobs})"
