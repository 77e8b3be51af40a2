"""Failure semantics for campaign execution.

The paper's broadcasts complete with dead nodes; this module lets a
campaign complete with dead *runs*.  A :class:`FailurePolicy` says how a
backend reacts when a task raises, crashes its worker, returns garbage or
hangs past its deadline — how many retries, and what to do when retries
are exhausted.  Every run that stays failed after the policy is spent
becomes a :class:`RunFailure` record on the campaign result (or, with
``on_exhausted="raise"``, inside a :class:`CampaignExecutionError`)
instead of aborting the sweep.

A failed attempt is retried immediately.  The faults are crashes, hangs
and corrupt results of a pure function of ``(kind, params, seed)``, so
waiting before a retry would change nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

#: What a backend does with a run whose retries are exhausted.
ON_EXHAUSTED = ("raise", "skip", "degrade")


class TaskTimeoutError(RuntimeError):
    """A task exceeded the policy's per-task ``timeout_s``."""


class WorkerCrashError(RuntimeError):
    """A worker process died (segfault, OOM kill, injected crash)."""


class CorruptResultError(RuntimeError):
    """A task returned metrics that do not rebuild into the kind's schema."""


@dataclass(frozen=True)
class FailurePolicy:
    """How campaign execution reacts to a failing task.

    The policy is the retry envelope both backends share: the same runs
    fail, retry and exhaust identically whether they execute serially or
    over a process pool.
    """

    #: Re-attempts after the first failure (0 disables retries).
    max_retries: int = 3
    #: Wall-clock budget per task attempt in seconds; ``None`` disables
    #: the deadline.  A batch task (one point, several grouped seeds) is
    #: one attempt.
    timeout_s: Optional[float] = None
    #: After ``max_retries`` failed re-attempts: ``raise`` a
    #: :class:`CampaignExecutionError` once the rest of the campaign has
    #: completed, ``skip`` the run (recorded in ``result.failures``), or
    #: ``degrade`` — one last in-parent attempt on the reference kernels
    #: with fault injection suppressed, skipping only if that also fails.
    on_exhausted: str = "raise"
    #: Pool rebuilds tolerated before the remaining tasks fall back to
    #: in-parent serial execution.  Kept at or below ``max_retries`` (a
    #: broken pool charges every in-flight task one attempt without
    #: knowing the guilty one, so this bound guarantees an innocent task
    #: can never exhaust purely through collateral pool deaths).
    max_pool_rebuilds: int = 3

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.on_exhausted not in ON_EXHAUSTED:
            raise ValueError(
                f"on_exhausted must be one of {ON_EXHAUSTED}, "
                f"got {self.on_exhausted!r}"
            )
        if self.max_pool_rebuilds < 0:
            raise ValueError(
                f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds}"
            )


@dataclass(frozen=True)
class RunFailure:
    """One run that stayed failed after its retry policy was spent."""

    #: The run's content-hash key (the same identity the cache uses).
    key: str
    kind: str
    params: Tuple[Tuple[str, Any], ...]
    seed: int
    #: Attempts consumed, the original try included.
    attempts: int
    #: Exception class name of the final attempt's failure.
    error_type: str
    #: Final attempt's error message.
    error: str

    def params_dict(self) -> Dict[str, Any]:
        """The failed point's parameters as a plain dict."""
        return dict(self.params)

    def describe(self) -> str:
        """One human-readable line for summaries and error messages."""
        point = ", ".join(f"{name}={value}" for name, value in self.params)
        return (
            f"{self.kind}[{point}] seed={self.seed}: "
            f"{self.error_type} after {self.attempts} attempt(s): {self.error}"
        )


class CampaignExecutionError(RuntimeError):
    """Raised (``on_exhausted="raise"``) once a campaign finishes with
    runs still failed — after every other run has completed and been
    persisted, so the failures cost only themselves."""

    def __init__(self, failures: Sequence[RunFailure]) -> None:
        self.failures: Tuple[RunFailure, ...] = tuple(failures)
        lines = "\n  ".join(failure.describe() for failure in self.failures)
        super().__init__(
            f"{len(self.failures)} campaign run(s) failed after retries:\n"
            f"  {lines}"
        )
