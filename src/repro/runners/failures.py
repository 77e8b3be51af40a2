"""Failure semantics for campaign execution.

The paper's broadcasts complete with dead nodes; this module lets a
campaign complete with dead *runs*.  A :class:`FailurePolicy` says how a
backend reacts when a task raises, crashes its worker, returns garbage or
hangs past its deadline — how many retries, how long to back off between
them, and what to do when retries are exhausted.  Every run that stays
failed after the policy is spent becomes a :class:`RunFailure` record on
the campaign result (or, with ``on_exhausted="raise"``, inside a
:class:`CampaignExecutionError`) instead of aborting the sweep.

Backoff delays are deterministic: each retry's jitter is drawn from a
named :func:`~repro.util.rng.fold_seed` stream keyed by the run's content
hash and the attempt number — the same common-random-numbers discipline
the simulators use, applied to the harness, so a replayed campaign
sleeps (and therefore schedules) identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.util.rng import fold_seed, hash_to_unit_interval

#: What a backend does with a run whose retries are exhausted.
ON_EXHAUSTED = ("raise", "skip", "degrade")

#: Root of the deterministic backoff-jitter stream.  A fixed constant —
#: not the campaign's base seed — so harness scheduling never perturbs,
#: and is never perturbed by, simulation seeding.
_BACKOFF_STREAM_SEED = 0x5EED_BACC


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
    fail, retry, back off and exhaust identically whether they execute
    serially or over a process pool.
    """

    #: Re-attempts after the first failure (0 disables retries).
    max_retries: int = 3
    #: Wall-clock budget per task attempt in seconds; ``None`` disables
    #: the deadline.  A batch task (one point, several grouped seeds) is
    #: one attempt.
    timeout_s: Optional[float] = None
    #: First-retry backoff in seconds; 0 retries immediately.
    backoff_base_s: float = 0.0
    #: Multiplier applied per additional retry (exponential backoff).
    backoff_factor: float = 2.0
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
        if self.backoff_base_s < 0:
            raise ValueError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.on_exhausted not in ON_EXHAUSTED:
            raise ValueError(
                f"on_exhausted must be one of {ON_EXHAUSTED}, "
                f"got {self.on_exhausted!r}"
            )
        if self.max_pool_rebuilds < 0:
            raise ValueError(
                f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds}"
            )

    def backoff_s(self, key: str, attempt: int) -> float:
        """Deterministic delay before retry ``attempt`` (1-based) of ``key``.

        Exponential slots with half-slot jitter: the delay lands in
        ``[slot/2, slot]`` where ``slot = base * factor**(attempt-1)``,
        jittered by the run's own named stream so concurrent retries
        decorrelate without a shared clock or RNG.
        """
        if self.backoff_base_s <= 0:
            return 0.0
        slot = self.backoff_base_s * self.backoff_factor ** max(0, attempt - 1)
        jitter = hash_to_unit_interval(
            fold_seed(_BACKOFF_STREAM_SEED, "retry-backoff", key), attempt
        )
        delay = slot * (0.5 + 0.5 * jitter)
        # Observation only: the delay above is already fixed by (key,
        # attempt), so recording it cannot perturb scheduling.
        from repro.obs import get_recorder

        recorder = get_recorder()
        recorder.counter("retry.backoff_total_s", delay)
        recorder.event(
            "retry.backoff",
            key=key[:12],
            attempt=attempt,
            delay_s=round(delay, 4),
        )
        return delay


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
