"""Ambient execution configuration and statistics for campaign runs.

Figure generators keep their ``runner(scale) -> ExperimentResult``
signature, so execution choices — the worker count (``jobs``, the only
parallelism choice), cache location, cache bypass, progress, the failure
policy, fault injection and telemetry — flow through an ambient
:class:`ExecutionConfig` instead of being threaded through every call
site.  The CLI installs one from its execution flags; tests and
benchmarks scope overrides with the :func:`execution` context manager.
No field selects a simulator kernel (see :mod:`repro.runners.points`).

:class:`ExecutionStats` counts, per process, how many points were
actually simulated versus satisfied from the in-process memo or the disk
cache — the number the CLI prints so "a second invocation re-ran
nothing" is observable rather than assumed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.runners.failures import FailurePolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> context)
    from repro.runners.faults import FaultPlan

#: Campaign progress callback: ``(completed, total, cached, computed)``
#: where ``completed = cached + computed`` counts delivered points.
ProgressCallback = Callable[[int, int, int, int], None]


@dataclass(frozen=True)
class ExecutionConfig:
    """How ``run_campaign`` should execute when not told explicitly."""

    #: Worker processes, and the only execution choice: 1 means
    #: in-process serial execution, more means a process pool of that
    #: size (bit-identical results either way).
    jobs: int = 1
    #: Cache root; ``None`` selects the default (env var or ~/.cache/repro).
    cache_dir: Optional[str] = None
    #: Master switch for the on-disk cache.
    use_cache: bool = True
    #: Campaign-level progress reporting: called in the *parent* process
    #: after the cache scan and then after every computed point, whatever
    #: backend runs it (the CLI's ``--progress`` installs a printer).
    progress: Optional[ProgressCallback] = None
    #: Retry/timeout/exhaustion envelope for campaign tasks; ``None``
    #: means the built-in :class:`~repro.runners.failures.FailurePolicy`
    #: defaults (3 retries, no timeout, raise on exhaustion).
    failure_policy: Optional[FailurePolicy] = None
    #: Deterministic fault injection for tests/CI; ``None`` falls back to
    #: ``$REPRO_FAULT_PLAN`` (see :mod:`repro.runners.faults`).
    fault_plan: Optional["FaultPlan"] = None
    #: Structured-telemetry directory (the CLI's ``--telemetry``); ``None``
    #: leaves the process-wide recorder alone (no-op unless
    #: ``$REPRO_TELEMETRY`` is set).  Pool workers inherit it through
    #: their initializer args, and each process appends its own event
    #: file there.
    #: Telemetry never feeds back into execution: run keys and campaign
    #: outputs are bit-identical with it on, off, or failing mid-write.
    telemetry_dir: Optional[str] = None


@dataclass
class ExecutionStats:
    """Per-process counters of where campaign results came from."""

    computed: int = 0
    reused_memory: int = 0
    reused_disk: int = 0
    #: Runs whose task exhausted its retry budget (counted parent-side).
    failed: int = 0
    #: Task retries scheduled (parent-side requeues).
    retried: int = 0
    #: Runs recomputed by a degraded attempt on the reference kernels
    #: after exhausting their retries (counted parent-side; also in
    #: ``computed``).
    degraded: int = 0

    @property
    def reused(self) -> int:
        """Results served without running a simulator."""
        return self.reused_memory + self.reused_disk

    @property
    def total(self) -> int:
        """All results delivered."""
        return self.computed + self.reused

    def reset(self) -> None:
        """Zero every counter."""
        self.computed = 0
        self.reused_memory = 0
        self.reused_disk = 0
        self.failed = 0
        self.retried = 0
        self.degraded = 0


_config = ExecutionConfig()
_stats = ExecutionStats()


def get_execution() -> ExecutionConfig:
    """The currently-installed execution configuration."""
    return _config


def set_execution(**overrides) -> ExecutionConfig:
    """Replace fields of the ambient configuration; returns the new one."""
    global _config
    _config = replace(_config, **overrides)
    return _config


@contextmanager
def execution(**overrides) -> Iterator[ExecutionConfig]:
    """Scoped execution override, restoring the previous config on exit."""
    global _config
    previous = _config
    _config = replace(_config, **overrides)
    try:
        yield _config
    finally:
        _config = previous


def get_stats() -> ExecutionStats:
    """The process-wide result-provenance counters."""
    return _stats


def reset_stats() -> None:
    """Zero the process-wide counters (start of a CLI invocation)."""
    _stats.reset()
