"""The campaign runner: declarative sweeps, pluggable execution, caching.

The paper's figures are parameter sweeps — (p, q) grids x seeds x
densities — over three simulator families.  This subsystem industrialises
that pattern in three parts:

1. :class:`~repro.runners.spec.CampaignSpec` — a *declarative* sweep:
   simulator kind (``ideal`` / ``detailed`` / ``percolation``), swept
   axes, fixed parameters, explicit baseline points and a seed count,
   with per-point seeds derived from point *content* so results are
   reproducible regardless of execution order;
2. two execution backends behind one
   :func:`~repro.runners.campaign.run_campaign` API —
   :class:`~repro.runners.backends.SerialBackend` and the leased
   :class:`~repro.runners.backends.ProcessPoolBackend` — chosen by
   ``jobs`` alone (``--jobs N`` > 1 means the pool) and bit-identical
   for a fixed spec;
3. an on-disk JSON result cache keyed by each point's content hash
   (:mod:`repro.runners.cache`; ``~/.cache/repro`` or ``--cache-dir``),
   so re-running ``run-all`` only computes changed points.

Usage::

    from repro.runners import CampaignSpec, run_campaign

    spec = CampaignSpec.build(
        kind="ideal",
        axes={"p": (0.25, 0.5), "q": (0.0, 0.5, 1.0)},
        fixed={
            "grid_side": 25, "n_broadcasts": 12,
            "mode": "psm_pbbf", "hop_near": 8, "hop_far": 16,
        },
        extra_points=({"p": 1.0, "q": 1.0, "mode": "always_on"},),
        seed_params=("grid_side", "p", "q", "mode"),
    )
    result = run_campaign(spec, jobs=4)        # fan out over 4 processes
    point = result.metrics(p=0.5, q=0.5)       # typed IdealPointMetrics
    print(point.reliability_90, point.joules_per_update_per_node)

Scenario axes: any parameter value may be a
:class:`~repro.scenarios.ScenarioSpec` (topology family + source policy +
failure injection); specs are normalised to their canonical token string
at build time, so deployment shape sweeps exactly like a scalar axis —
including seeds, caching and process-pool fan-out.

Execution defaults (jobs, cache directory, cache bypass) come from the
ambient :func:`~repro.runners.context.execution` context, which the CLI
sets from ``--jobs`` / ``--cache-dir`` / ``--no-cache``; ``--progress``
installs a campaign-progress printer
(``progress(completed, total, cached, computed)`` callbacks honoured by
both backends).

Fault tolerance: execution runs under a
:class:`~repro.runners.failures.FailurePolicy` (retries with
deterministic backoff, per-task timeouts, ``raise``/``skip``/``degrade``
exhaustion handling), each computed run is written to the result cache
as it completes — so rerunning an interrupted campaign against the same
cache simulates only what is missing — and
:class:`~repro.runners.faults.FaultPlan` injects deterministic worker
crashes, hangs and corrupt results/cache writes so every recovery path
is provable in tests and CI.
"""

from repro.runners.backends import ProcessPoolBackend, SerialBackend
from repro.runners.cache import (
    CACHE_VERSION,
    CacheStats,
    PurgeReport,
    ResultCache,
    default_cache_dir,
)
from repro.runners.campaign import CampaignResult, clear_memo, run_campaign
from repro.runners.context import (
    ExecutionConfig,
    ExecutionStats,
    execution,
    get_execution,
    get_stats,
    reset_stats,
    set_execution,
)
from repro.runners.failures import (
    CampaignExecutionError,
    FailurePolicy,
    RunFailure,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.runners.faults import FaultPlan
from repro.runners.points import (
    DetailedPointMetrics,
    IdealPointMetrics,
    PercolationPointMetrics,
    clear_point_caches,
    evaluate_run,
)
from repro.runners.spec import (
    DEFAULT_BASE_SEED,
    KINDS,
    CampaignRun,
    CampaignSpec,
    run_key,
)


def clear_run_caches() -> None:
    """Drop every in-process cache layer (run-key memo + scenario memo)."""
    clear_memo()
    clear_point_caches()


__all__ = [
    "CACHE_VERSION",
    "DEFAULT_BASE_SEED",
    "KINDS",
    "CacheStats",
    "CampaignExecutionError",
    "CampaignResult",
    "CampaignRun",
    "CampaignSpec",
    "DetailedPointMetrics",
    "ExecutionConfig",
    "ExecutionStats",
    "FailurePolicy",
    "FaultPlan",
    "IdealPointMetrics",
    "PercolationPointMetrics",
    "ProcessPoolBackend",
    "PurgeReport",
    "ResultCache",
    "RunFailure",
    "SerialBackend",
    "TaskTimeoutError",
    "WorkerCrashError",
    "clear_memo",
    "clear_point_caches",
    "clear_run_caches",
    "default_cache_dir",
    "evaluate_run",
    "execution",
    "get_execution",
    "get_stats",
    "reset_stats",
    "run_campaign",
    "run_key",
    "set_execution",
]
