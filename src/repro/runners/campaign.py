"""``run_campaign``: execute a spec through memo, cache and backend.

The pipeline for every run of a spec:

1. **in-process memo** — results already materialised this process;
2. **disk cache** — JSON entries keyed by the run's content hash;
3. **backend** — whatever is left is simulated, serially or fanned out
   over a process pool (``jobs`` > 1), under the ambient
   :class:`~repro.runners.failures.FailurePolicy`.

Each computed run is written to the cache as it completes, so an
interrupted campaign keeps every finished point and resumes by running
again against the same cache.  Runs that exhaust their retries become
:class:`~repro.runners.failures.RunFailure` records on the result (or a
:class:`~repro.runners.failures.CampaignExecutionError` under the
default ``on_exhausted="raise"``) — the campaign, like the paper's
broadcasts, completes around its dead members.

Results are returned as a :class:`CampaignResult`, which resolves points
by parameter values (not enumeration position), so callers read metrics
the same way regardless of which layer produced them.  The result and
the telemetry spans and events (:mod:`repro.obs`) are the only two ways
to observe a campaign.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Union

from repro.obs import ensure_recorder
from repro.runners.backends import ProcessPoolBackend, SerialBackend
from repro.runners.cache import ResultCache
from repro.runners.context import ProgressCallback, get_execution, get_stats
from repro.runners.failures import FailurePolicy, RunFailure
from repro.runners.points import metrics_from_dict, metrics_to_dict
from repro.runners.spec import CampaignRun, CampaignSpec
from repro.util.canonical import canonical_json

#: Results materialised in this process, keyed by run content hash.  This
#: is what lets several figures share one campaign's points without
#: re-simulating, whatever backend produced them.
_MEMO: Dict[str, Any] = {}

#: Per cache root, the run keys this process read from it or wrote to it:
#: a memo hit on one of them needs no backfill probe.
_ON_DISK: Dict[Path, Set[str]] = {}


def clear_memo() -> None:
    """Drop every in-process campaign result (benchmarks, tests)."""
    _MEMO.clear()
    _ON_DISK.clear()


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
        self._keys_by_point: Optional[Dict[str, Dict[int, str]]] = None

    def __len__(self) -> int:
        return len(self.runs)

    def metrics(self, seed_index: int = 0, **overrides: Any):
        """The metrics bundle for one point (``overrides`` over fixed)."""
        params = self.spec.merge(overrides)
        keys = self._point_keys(params)
        # Without the index in its label, every seed index has one seed.
        key = keys.get(seed_index if self.spec.seed_with_run_index else 0)
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
        keys = self._point_keys(params)
        bundles: List[Any] = []
        for index in range(self.spec.n_seeds):
            key = keys.get(index)
            if key in self._failed_keys:
                continue
            try:
                bundles.append(self._by_key[key])
            except KeyError:
                raise _missing_run(params, index) from None
        return bundles

    def _point_keys(self, params: Mapping[str, Any]) -> Dict[int, str]:
        """The run keys of one merged point, by seed index (``{}`` if unknown).

        The index is keyed by each point's canonical JSON, which is what
        the run key hashes, so a lookup hits exactly where re-deriving
        the key would: ``q=1`` misses a spec that holds ``1.0``.
        """
        if self._keys_by_point is None:
            index: Dict[str, Dict[int, str]] = {}
            last = None
            for run in self.runs:
                # runs() shares one params tuple among a point's runs.
                if run.params is not last:
                    last = run.params
                    keys = index.setdefault(canonical_json(dict(last)), {})
                keys[run.seed_index] = run.key
            self._keys_by_point = index
        keys = self._keys_by_point.get(canonical_json(params))
        if keys is None:
            # Deriving the key raised for a point without one of the seed
            # parameters; such a lookup still raises that error.
            self.spec.point_seed(params)
            return {}
        return keys

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
    cache: Optional[Union[ResultCache, str, Path]] = None,
    use_cache: Optional[bool] = None,
    backend: Optional[Any] = None,
    progress: Optional[ProgressCallback] = None,
    failure_policy: Optional[FailurePolicy] = None,
) -> CampaignResult:
    """Execute every run of ``spec`` and return its results.

    Parameters left ``None`` fall back to the ambient
    :class:`~repro.runners.context.ExecutionConfig` (which the CLI sets
    from its flags).  ``cache`` accepts a ready :class:`ResultCache` or
    a directory path.  ``jobs`` picks the backend:
    :class:`~repro.runners.backends.ProcessPoolBackend` when above 1,
    :class:`~repro.runners.backends.SerialBackend` otherwise; an
    explicit ``backend`` (any object with the built-in backends'
    ``execute(runs, on_result=, failure_policy=, on_failure=)``) wins
    over both.
    ``progress`` is called as ``progress(completed, total, cached,
    computed)`` once after the cache scan and then after every computed
    point.

    ``failure_policy`` is the retry/timeout/exhaustion envelope (see
    :class:`~repro.runners.failures.FailurePolicy`; the CLI sets it from
    ``--max-retries`` / ``--task-timeout-s`` / ``--on-exhausted``).
    Under the default ``on_exhausted="raise"`` a run that stays failed
    raises :class:`~repro.runners.failures.CampaignExecutionError` *after*
    the rest of the campaign completed and persisted; with ``skip`` or
    ``degrade`` the campaign returns with ``result.failures`` populated.

    Each computed run is written to the cache before it is reported, so
    a campaign killed mid-way resumes by running again against the same
    cache: every point that finished is served from disk.  Every cache
    write is recorded as a ``phase.cache-put`` span.
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
    policy = failure_policy
    if policy is None:
        policy = config.failure_policy
    if policy is None:
        policy = FailurePolicy()
    store: Optional[ResultCache] = None
    if use_cache:
        if isinstance(cache, ResultCache):
            store = cache
        else:
            store = ResultCache(
                cache if cache is not None else config.cache_dir
            )

    runs = spec.runs()
    recorder.event(
        "campaign.begin",
        spec=spec.content_hash()[:12],
        kind=spec.kind,
        n_runs=len(runs),
    )

    on_disk = _ON_DISK.setdefault(store.root, set()) if store is not None else set()
    by_key: Dict[str, Any] = {}
    pending: List[CampaignRun] = []
    probe: List[CampaignRun] = []
    probe_keys = set()
    # Where the reused points came from (the campaign.end event reports both).
    from_memo = 0
    from_disk = 0

    for run in runs:
        if run.key in by_key or run.key in probe_keys:
            continue  # duplicate point within the spec
        if run.key in _MEMO:
            metrics = _MEMO[run.key]
            stats.reused_memory += 1
            from_memo += 1
            by_key[run.key] = metrics
            if store is not None and run.key not in on_disk and not store.has(run.key):
                # Backfill: a result computed before this cache directory
                # was configured must still survive the process.
                with recorder.span("phase.cache-put"):
                    if store.put(run.key, _payload_for(run, metrics)):
                        on_disk.add(run.key)
            continue
        probe.append(run)
        probe_keys.add(run.key)

    payloads: Dict[str, Dict[str, Any]] = {}
    if store is not None and probe:
        keys = [run.key for run in probe]
        with recorder.span("phase.cache-get", keys=len(keys)):
            payloads = store.get_many(keys)
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
                on_disk.add(run.key)
                stats.reused_disk += 1
                from_disk += 1
                by_key[run.key] = metrics
                continue
        pending.append(run)

    reused = from_memo + from_disk
    total = reused + len(pending)
    if progress is not None:
        progress(reused, total, reused, 0)

    failures: List[RunFailure] = []
    if pending:
        if backend is None:
            backend = (
                ProcessPoolBackend(jobs)
                if jobs and jobs > 1
                else SerialBackend()
            )

        done = 0

        def persist_run(index: int, flat: Dict[str, Any]) -> None:
            nonlocal done
            run = pending[index]
            metrics = metrics_from_dict(spec.kind, flat)
            _MEMO[run.key] = metrics
            by_key[run.key] = metrics
            stats.computed += 1
            # Persist before reporting: a kill right after the progress
            # line must never lose the point the line just claimed.
            if store is not None:
                with recorder.span("phase.cache-put"):
                    if store.put(run.key, _payload_for(run, metrics)):
                        on_disk.add(run.key)
            done += 1
            if progress is not None:
                progress(reused + done, total, reused, done)

        flat_results = backend.execute(
            pending,
            on_result=persist_run,
            failure_policy=policy,
            on_failure=failures.append,
        )
        delivered = sum(1 for flat in flat_results if flat is not None)
        if delivered + len(failures) < len(pending):
            raise RuntimeError(
                f"backend returned {delivered} results and "
                f"{len(failures)} failures for {len(pending)} runs"
            )

    recorder.event(
        "campaign.end",
        spec=spec.content_hash()[:12],
        computed=len(pending) - len(failures),
        reused=reused,
        memo=from_memo,
        disk=from_disk,
        failures=len(failures),
    )
    return CampaignResult(
        spec=spec,
        runs=runs,
        by_key=by_key,
        computed=len(pending) - len(failures),
        reused=reused,
        failures=failures,
    )
