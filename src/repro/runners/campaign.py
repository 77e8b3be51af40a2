"""``run_campaign``: execute a spec through memo, cache and backend.

The pipeline for every run of a spec:

1. **in-process memo** — results already materialised this process;
2. **campaign journal** — with ``resume=True``, results a killed
   invocation already journaled (see :mod:`repro.runners.journal`);
3. **disk cache** — JSON entries keyed by the run's content hash;
4. **backend** — whatever is left is simulated, serially or fanned out
   over a process pool, under the ambient
   :class:`~repro.runners.failures.FailurePolicy`.

Results stream back: each computed run is written to the cache *and*
the journal as it completes, so an interrupted campaign keeps every
finished point.  Runs that exhaust their retries become
:class:`~repro.runners.failures.RunFailure` records on the result (or a
:class:`~repro.runners.failures.CampaignExecutionError` under the
default ``on_exhausted="raise"``) — the campaign, like the paper's
broadcasts, completes around its dead members.

Results are returned as a :class:`CampaignResult`, which resolves points
by parameter values (not enumeration position), so callers read metrics
the same way regardless of which layer produced them.
"""

from __future__ import annotations

import inspect
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.obs import ensure_recorder
from repro.runners.backends import ProcessPoolBackend, SerialBackend
from repro.runners.cache import ResultCache
from repro.runners.context import ProgressCallback, get_execution, get_stats
from repro.runners.failures import FailurePolicy, RunFailure
from repro.runners.journal import CampaignJournal
from repro.runners.points import metrics_from_dict, metrics_to_dict
from repro.runners.queue import ShardedBackend
from repro.runners.spec import CampaignRun, CampaignSpec, run_key

#: Per-point streaming hook: ``on_point(run, metrics)`` fires in the
#: parent for every unique run of the campaign — reused points during
#: the scan, computed points as each completes (before it is visible in
#: the returned result) — so frontiers and figure panels can render
#: incrementally.  Failed runs never fire it.
OnPoint = Callable[[CampaignRun, Any], None]

#: Results materialised in this process, keyed by run content hash.  This
#: is what lets several figures share one campaign's points without
#: re-simulating, whatever backend produced them.
_MEMO: Dict[str, Any] = {}


def clear_memo() -> None:
    """Drop every in-process campaign result (benchmarks, tests)."""
    _MEMO.clear()


def _execute_with_progress(
    backend: Any,
    pending: List[CampaignRun],
    reused: int,
    total: int,
    progress: Optional[ProgressCallback],
    policy: FailurePolicy,
    persist_run: Callable[[int, Dict[str, Any]], None],
    note_failure: Callable[[RunFailure], None],
) -> List[Optional[Dict[str, Any]]]:
    """Run the backend, streaming persistence and progress when possible.

    Both built-in backends accept the ``on_result`` / ``on_failure`` /
    ``failure_policy`` hooks; third-party backends that predate them
    (anything exposing only ``execute(runs)``) still work — results are
    persisted after the batch and the caller sees one final progress
    call instead of a stream.
    """
    done = 0

    def on_result(index: int, flat: Dict[str, Any]) -> None:
        nonlocal done
        # Persist before reporting: a kill right after the progress line
        # must never lose the point the line just claimed.
        persist_run(index, flat)
        done += 1
        if progress is not None:
            progress(reused + done, total, reused, done)

    try:
        parameters = inspect.signature(backend.execute).parameters
    except (TypeError, ValueError):  # builtins / odd callables
        parameters = {}
    if "on_result" in parameters:
        kwargs: Dict[str, Any] = {"on_result": on_result}
        if "failure_policy" in parameters:
            kwargs["failure_policy"] = policy
        if "on_failure" in parameters:
            kwargs["on_failure"] = note_failure
        return backend.execute(pending, **kwargs)
    flat_results = backend.execute(pending)
    if len(flat_results) != len(pending):
        raise RuntimeError(
            f"backend returned {len(flat_results)} results "
            f"for {len(pending)} runs"
        )
    for index, flat in enumerate(flat_results):
        if flat is not None:
            persist_run(index, flat)
    if progress is not None:
        progress(reused + len(pending), total, reused, len(pending))
    return flat_results


def _payload_for(run: CampaignRun, metrics: Any) -> Dict[str, Any]:
    """The JSON cache payload for one materialised run."""
    return {
        "kind": run.kind,
        "params": run.params_dict(),
        "seed": run.seed,
        "metrics": metrics_to_dict(metrics),
    }


def _missing_run(params: Mapping[str, Any], seed_index: int) -> KeyError:
    """The error for a point and seed index the campaign never ran."""
    return KeyError(f"campaign has no run for params={params} seed_index={seed_index}")


class CampaignResult:
    """Executed campaign: typed metrics for every run of the spec."""

    def __init__(
        self,
        spec: CampaignSpec,
        runs: List[CampaignRun],
        by_key: Dict[str, Any],
        computed: int,
        reused: int,
        failures: Sequence[RunFailure] = (),
    ) -> None:
        self.spec = spec
        self.runs = runs
        self._by_key = by_key
        #: Points simulated by this call (vs served from memo/cache).
        self.computed = computed
        #: Points served without simulating in this call.
        self.reused = reused
        #: Runs that exhausted their retry policy (``on_exhausted`` of
        #: ``skip`` — or ``degrade`` whose last-resort attempt also
        #: failed); empty for a fully-successful campaign.
        self.failures: tuple = tuple(failures)
        self._failed_keys = {failure.key for failure in self.failures}
        #: Post-processing outputs by hook name (see ``run_campaign``'s
        #: ``post_process``): derived artifacts — Pareto frontiers, knee
        #: selections, summaries — computed once per execution and carried
        #: with the results they were derived from.
        self.artifacts: Dict[str, Any] = {}

    def __len__(self) -> int:
        return len(self.runs)

    def metrics(self, seed_index: int = 0, **overrides: Any):
        """The metrics bundle for one point (``overrides`` over fixed)."""
        params = self.spec.merge(overrides)
        key = self._run_key(params, seed_index)
        try:
            return self._by_key[key]
        except KeyError:
            if key in self._failed_keys:
                failure = next(f for f in self.failures if f.key == key)
                raise KeyError(
                    f"campaign run failed for params={params} "
                    f"seed_index={seed_index}: {failure.error_type} after "
                    f"{failure.attempts} attempt(s): {failure.error}"
                ) from None
            raise _missing_run(params, seed_index) from None

    def metrics_over_seeds(self, **overrides: Any) -> List[Any]:
        """The point's metrics bundles for every seed index, in order.

        Seeds whose run *failed* (see :attr:`failures`) are skipped —
        the same convention :meth:`mean_metric` applies to undefined
        metrics, mirroring the paper's averaging over surviving runs.
        """
        params = self.spec.merge(overrides)
        bundles: List[Any] = []
        for index in range(self.spec.n_seeds):
            key = self._run_key(params, index)
            if key in self._failed_keys:
                continue
            try:
                bundles.append(self._by_key[key])
            except KeyError:
                raise _missing_run(params, index) from None
        return bundles

    def _run_key(self, params: Mapping[str, Any], seed_index: int) -> str:
        """The run key of one merged point at one seed index."""
        seed = self.spec.point_seed(params, seed_index)
        return run_key(self.spec.kind, params, seed)

    def points(self) -> List[Dict[str, Any]]:
        """Every distinct parameter point of the campaign, in spec order."""
        return self.spec.points()

    def seed_metric_values(
        self, metric: Callable[[Any], Optional[float]], **overrides: Any
    ) -> List[float]:
        """The point's per-seed ``metric`` values, ``None`` runs skipped.

        The raw samples behind :meth:`mean_metric` — what the analysis
        layer's bootstrap resampling draws from.
        """
        return [
            value
            for value in (
                metric(bundle) for bundle in self.metrics_over_seeds(**overrides)
            )
            if value is not None
        ]

    def mean_metric(
        self, metric: Callable[[Any], Optional[float]], **overrides: Any
    ) -> Optional[float]:
        """Mean of ``metric`` over the point's seeds, skipping ``None``.

        Mirrors the paper's averaging: runs where a metric is undefined
        (e.g. no 5-hop nodes in that deployment) are skipped, and the
        result is ``None`` when every run skips.
        """
        values = [
            value
            for value in (
                metric(bundle) for bundle in self.metrics_over_seeds(**overrides)
            )
            if value is not None
        ]
        if not values:
            return None
        return sum(values) / len(values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CampaignResult({self.spec!r}, runs={len(self.runs)}, "
            f"computed={self.computed}, reused={self.reused}, "
            f"failures={len(self.failures)})"
        )


def run_campaign(
    spec: CampaignSpec,
    jobs: Optional[int] = None,
    cache: Optional[Union[ResultCache, str, Path, Any]] = None,
    use_cache: Optional[bool] = None,
    backend: Optional[Any] = None,
    progress: Optional[ProgressCallback] = None,
    post_process: Optional[Mapping[str, Callable[["CampaignResult"], Any]]] = None,
    failure_policy: Optional[FailurePolicy] = None,
    resume: Optional[bool] = None,
    journal: Optional[Union[CampaignJournal, str, Path, bool]] = None,
    on_point: Optional[OnPoint] = None,
) -> CampaignResult:
    """Execute every run of ``spec`` and return its results.

    Parameters left ``None`` fall back to the ambient
    :class:`~repro.runners.context.ExecutionConfig` (which the CLI sets
    from its flags).  ``cache`` accepts a ready :class:`ResultCache` (or
    any object with its ``get``/``put`` protocol, e.g. a
    :class:`~repro.runners.sqlite_tier.SQLiteCacheTier`) or a directory
    path; ``backend`` overrides the config-based choice entirely (any
    object with ``execute(runs) -> list[dict]``; the ambient
    ``config.backend`` otherwise picks serial, pool or sharded).
    ``progress`` is called as ``progress(completed, total, cached,
    computed)`` once after the cache scan and then after every computed
    point (all built-in backends stream per-run completions; a custom
    backend without the ``on_result`` hook degrades to one final call).

    ``on_point`` streams typed results: it fires in the parent as
    ``on_point(run, metrics)`` for every unique run of the campaign —
    reused points during the scan, computed points as each completes,
    whatever backend runs them — and every fired point is visible
    before the final :class:`CampaignResult` returns, so frontiers and
    figure panels can render incrementally (see
    :class:`repro.analysis.StreamingFrontier`).  Failed runs fire the
    journal/failure paths instead, never ``on_point``.

    ``failure_policy`` is the retry/timeout/exhaustion envelope (see
    :class:`~repro.runners.failures.FailurePolicy`; the CLI sets it from
    ``--max-retries`` / ``--task-timeout-s`` / ``--on-exhausted``).
    Under the default ``on_exhausted="raise"`` a run that stays failed
    raises :class:`~repro.runners.failures.CampaignExecutionError` *after*
    the rest of the campaign completed and persisted; with ``skip`` or
    ``degrade`` the campaign returns with ``result.failures`` populated.

    While the campaign executes, completed runs are appended to a
    crash-safe ``journal`` (default: ``<cache root>/journal/<spec
    hash>.jsonl``; pass ``False`` to disable).  ``resume=True`` (or the
    CLI's ``--resume``) replays that journal first, so a re-invoked
    campaign simulates only what its killed predecessor never finished.
    A campaign that completes with zero failures discards its journal —
    the cache owns the results from then on.

    ``post_process`` maps artifact names to hooks run *after* every point
    has materialised; each hook receives the finished
    :class:`CampaignResult` and its return value lands in
    ``result.artifacts[name]``.  Hooks run in sorted-name order (so
    artifact production is deterministic) and may read earlier hooks'
    outputs from ``result.artifacts`` — the analysis layer chains
    frontier extraction and knee selection this way.
    """
    config = get_execution()
    stats = get_stats()
    # Telemetry observes the pipeline; nothing it records (wall-clock
    # timestamps included) flows back into keys, seeds or results.
    recorder = ensure_recorder(config.telemetry_dir)
    if jobs is None:
        jobs = config.jobs
    if use_cache is None:
        use_cache = config.use_cache
    if progress is None:
        progress = config.progress
    if resume is None:
        resume = config.resume
    policy = failure_policy
    if policy is None:
        policy = config.failure_policy
    if policy is None:
        policy = FailurePolicy()
    store: Optional[Any] = None
    if use_cache:
        if cache is not None and not isinstance(cache, (str, Path)):
            # A ready store: ResultCache, SQLiteCacheTier, or anything
            # speaking the get/put protocol.
            store = cache
        else:
            cache_dir = cache if cache is not None else config.cache_dir
            if config.cache_tier == "sqlite":
                from repro.runners.sqlite_tier import SQLiteCacheTier

                store = SQLiteCacheTier(
                    cache_dir,
                    max_size_mb=config.cache_max_size_mb,
                    object_store=config.object_store,
                )
            else:
                store = ResultCache(
                    cache_dir,
                    max_size_mb=config.cache_max_size_mb,
                    object_store=config.object_store,
                )

    journal_store: Optional[CampaignJournal] = None
    if isinstance(journal, CampaignJournal):
        journal_store = journal
    elif isinstance(journal, (str, Path)):
        journal_store = CampaignJournal(journal)
    elif journal is None and store is not None:
        # Share the cache's object store so journal lines reference the
        # same stored payloads (markers still resolve when disabled).
        journal_store = CampaignJournal.for_campaign(
            store.root,
            spec.content_hash(),
            object_store=(
                getattr(store, "objects", None) if config.object_store else None
            ),
        )
    # journal=False (or no cache to sit beside) disables journaling.

    runs = spec.runs()
    recorder.event(
        "campaign.begin",
        spec=spec.content_hash()[:12],
        kind=spec.kind,
        n_runs=len(runs),
    )

    journal_hits: Dict[str, Dict[str, Any]] = {}
    if resume and journal_store is not None and journal_store.exists:
        journal_hits = journal_store.load().results

    by_key: Dict[str, Any] = {}
    pending: List[CampaignRun] = []
    probe: List[CampaignRun] = []
    probe_keys = set()
    reused = 0

    def reuse(run: CampaignRun, metrics: Any) -> None:
        nonlocal reused
        by_key[run.key] = metrics
        reused += 1
        if on_point is not None:
            on_point(run, metrics)

    for run in runs:
        if run.key in by_key or run.key in probe_keys:
            continue  # duplicate point within the spec
        if run.key in _MEMO:
            metrics = _MEMO[run.key]
            stats.reused_memory += 1
            reuse(run, metrics)
            if store is not None and not store.has(run.key):
                # Backfill: a result computed before this cache directory
                # was configured must still survive the process.
                store.put(run.key, _payload_for(run, metrics))
            continue
        if run.key in journal_hits:
            try:
                metrics = metrics_from_dict(spec.kind, journal_hits[run.key])
            except TypeError:
                metrics = None  # journal from a different metrics schema
            if metrics is not None:
                _MEMO[run.key] = metrics
                stats.reused_journal += 1
                reuse(run, metrics)
                if store is not None and not store.has(run.key):
                    # The predecessor died between journal append and
                    # cache write (or the cache was purged since).
                    store.put(run.key, _payload_for(run, metrics))
                continue
        probe.append(run)
        probe_keys.add(run.key)

    # Disk probes batch: the SQLite tier answers a warm million-point
    # campaign in a handful of queries (the file layer's get_many is the
    # same per-key loop it always ran).
    payloads: Dict[str, Dict[str, Any]] = {}
    if store is not None and probe:
        keys = [run.key for run in probe]
        with recorder.span("phase.cache-get", keys=len(keys)):
            if hasattr(store, "get_many"):
                payloads = store.get_many(keys)
            else:  # a minimal third-party store
                payloads = {
                    key: payload
                    for key in keys
                    if (payload := store.get(key)) is not None
                }
    for run in probe:
        payload = payloads.get(run.key)
        if payload is not None:
            try:
                metrics = metrics_from_dict(spec.kind, payload["metrics"])
            except TypeError:
                # Metrics schema drifted without a CACHE_VERSION bump:
                # honour the cache contract and treat it as a miss.
                metrics = None
            if metrics is not None:
                _MEMO[run.key] = metrics
                stats.reused_disk += 1
                reuse(run, metrics)
                continue
        pending.append(run)

    total = reused + len(pending)
    if progress is not None:
        progress(reused, total, reused, 0)

    failures: List[RunFailure] = []
    if pending:
        if backend is None:
            choice = config.backend
            if choice == "sharded":
                backend = ShardedBackend(
                    jobs or 0,
                    queue_dir=config.queue_dir,
                    lease_block=config.lease_block,
                )
            elif choice == "serial":
                backend = SerialBackend()
            elif choice == "pool":
                backend = ProcessPoolBackend(jobs)
            else:  # "auto": the historical jobs-based choice
                backend = (
                    ProcessPoolBackend(jobs)
                    if jobs and jobs > 1
                    else SerialBackend()
                )

        def persist_run(index: int, flat: Dict[str, Any]) -> None:
            run = pending[index]
            metrics = metrics_from_dict(spec.kind, flat)
            _MEMO[run.key] = metrics
            by_key[run.key] = metrics
            stats.computed += 1
            if store is not None:
                with recorder.span("phase.cache-put"):
                    store.put(run.key, _payload_for(run, metrics))
            if journal_store is not None:
                journal_store.append_result(run.key, run.kind, run.seed, flat)
            if on_point is not None:
                on_point(run, metrics)

        def note_failure(failure: RunFailure) -> None:
            failures.append(failure)
            if journal_store is not None:
                journal_store.append_failure(failure)

        try:
            flat_results = _execute_with_progress(
                backend, pending, reused, total, progress, policy,
                persist_run, note_failure,
            )
        except BaseException:
            # Interrupted (or raising on exhausted retries): everything
            # completed so far is already in cache + journal; flush the
            # journal so ``--resume`` replays it.
            if journal_store is not None:
                journal_store.close()
            raise
        delivered = sum(1 for flat in flat_results if flat is not None)
        if delivered + len(failures) < len(pending):
            raise RuntimeError(
                f"backend returned {delivered} results and "
                f"{len(failures)} failures for {len(pending)} runs"
            )

    if journal_store is not None:
        if failures:
            # Keep the journal: a later --resume (or a rerun after the
            # flaky cause is fixed) picks up the completed majority.
            journal_store.close()
        else:
            journal_store.discard()

    recorder.event(
        "campaign.end",
        spec=spec.content_hash()[:12],
        computed=len(pending) - len(failures),
        reused=reused,
        failures=len(failures),
    )
    recorder.flush()
    result = CampaignResult(
        spec=spec,
        runs=runs,
        by_key=by_key,
        computed=len(pending) - len(failures),
        reused=reused,
        failures=failures,
    )
    if post_process:
        for name in sorted(post_process):
            result.artifacts[name] = post_process[name](result)
    return result
