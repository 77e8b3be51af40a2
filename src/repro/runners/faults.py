"""Deterministic fault injection for the campaign harness.

Tests and CI need to *prove* every recovery path — worker crashes, hangs
past the task deadline, garbage results, torn cache writes — and proofs
need reproducible faults.  A :class:`FaultPlan` decides each fault from a
named RNG stream keyed by the task's run-key hash and its attempt
number, the same common-random-numbers discipline the scenario layer
uses for node deaths: whether task X crashes on attempt N is a pure
function of the plan, never of scheduling, pool size or wall clock.

Faults wrap task execution at the backend layer and never reach the
point evaluators, so an injected-fault campaign that recovers produces
metrics bit-identical to a fault-free one (the chaos-parity acceptance
bar).  By default a plan only fires on attempt 0 (``max_attempt=1``), so
every faulted task succeeds on its first retry; raise ``max_attempt`` to
exercise retry exhaustion.

Install a plan through the ambient execution context
(``execution(fault_plan=...)``) or, for subprocesses and CI, the
``$REPRO_FAULT_PLAN`` environment variable holding the plan's JSON
token::

    REPRO_FAULT_PLAN='{"crash_rate": 0.2}' pbbf-experiments run scen03
"""

from __future__ import annotations

import json
import os
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from typing import Iterator, Optional

from repro.runners.context import get_execution
from repro.runners.failures import WorkerCrashError
from repro.util.rng import fold_seed, hash_to_unit_interval

#: Flat-dict value a corrupt-result fault substitutes for real metrics;
#: it fails schema validation in the parent, triggering a retry.
CORRUPT_RESULT_MARKER = {"__fault__": "corrupt-result"}

#: Exit code an injected crash kills its worker process with (distinct
#: from real signals so pool logs stay diagnosable).
CRASH_EXIT_CODE = 73

#: Environment variable consulted when no plan is installed in-context.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault rates for campaign task execution.

    Each rate is the per-attempt probability (drawn from the task's own
    stream) of that fault firing; ``decide`` checks them in declaration
    order and at most one task-level fault fires per attempt.
    """

    #: P(worker dies mid-task): ``os._exit`` in a pool worker, a raised
    #: :class:`WorkerCrashError` when the task runs in-process.
    crash_rate: float = 0.0
    #: P(task sleeps ``hang_s`` before evaluating) — with a policy
    #: ``timeout_s`` below ``hang_s`` this exercises the deadline path.
    hang_rate: float = 0.0
    #: P(task returns schema-invalid metrics dicts).
    corrupt_result_rate: float = 0.0
    #: P(a cache write for a key is torn): the entry file is truncated
    #: mid-JSON, exercising quarantine-on-read.
    corrupt_cache_rate: float = 0.0
    #: How long a hang fault sleeps.
    hang_s: float = 60.0
    #: Faults only fire while ``attempt < max_attempt``; the default 1
    #: means first attempts only, so retries always recover.
    max_attempt: int = 1
    #: Root of the plan's fault streams (vary to resample which tasks
    #: fault at the same rates).
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("crash_rate", "hang_rate", "corrupt_result_rate",
                     "corrupt_cache_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.hang_s <= 0:
            raise ValueError(f"hang_s must be > 0, got {self.hang_s}")
        if self.max_attempt < 1:
            raise ValueError(f"max_attempt must be >= 1, got {self.max_attempt}")

    def _draw(self, fault: str, key: str, attempt: int) -> float:
        return hash_to_unit_interval(
            fold_seed(self.seed, "fault", fault, key), attempt
        )

    def decide(self, key: str, attempt: int) -> Optional[str]:
        """The task-level fault (if any) for attempt ``attempt`` of ``key``."""
        if attempt >= self.max_attempt:
            return None
        for fault, rate in (
            ("crash", self.crash_rate),
            ("hang", self.hang_rate),
            ("corrupt_result", self.corrupt_result_rate),
        ):
            if rate > 0.0 and self._draw(fault, key, attempt) < rate:
                return fault
        return None

    def corrupts_cache_write(self, key: str) -> bool:
        """Whether the cache write for ``key`` should be torn.

        Independent of attempts: cache writes happen in the parent after
        a task succeeds, so the decision keys on the entry alone.
        """
        return (
            self.corrupt_cache_rate > 0.0
            and self._draw("corrupt_cache", key, 0) < self.corrupt_cache_rate
        )

    @property
    def token(self) -> str:
        """Canonical JSON form (for ``$REPRO_FAULT_PLAN`` and workers)."""
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_token(cls, token: str) -> "FaultPlan":
        """Rebuild a plan from its token; partial tokens keep defaults."""
        payload = json.loads(token)
        if not isinstance(payload, dict):
            raise ValueError(f"fault-plan token must be a JSON object: {token!r}")
        known = {field.name for field in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"fault-plan token has unknown fields {sorted(unknown)}"
            )
        return cls(**payload)


_suppressed = 0
_in_pool_worker = False
_warned_bad_env = False


@contextmanager
def suppress_faults() -> Iterator[None]:
    """Scope with fault injection off (degraded last-resort attempts)."""
    global _suppressed
    _suppressed += 1
    try:
        yield
    finally:
        _suppressed -= 1


def mark_pool_worker() -> None:
    """Flag this process as a pool worker (crash faults ``os._exit``)."""
    global _in_pool_worker
    _in_pool_worker = True


@lru_cache(maxsize=8)
def _plan_from_token(token: str) -> FaultPlan:
    return FaultPlan.from_token(token)


def active_fault_plan() -> Optional[FaultPlan]:
    """The plan in effect: context first, then ``$REPRO_FAULT_PLAN``.

    An unparsable environment token degrades to no injection with one
    warning — fault injection is a test harness and must never break a
    real campaign.
    """
    global _warned_bad_env
    if _suppressed:
        return None
    plan = get_execution().fault_plan
    if plan is not None:
        return plan
    token = os.environ.get(FAULT_PLAN_ENV)
    if not token:
        return None
    try:
        return _plan_from_token(token)
    except (ValueError, TypeError) as exc:
        if not _warned_bad_env:
            _warned_bad_env = True
            warnings.warn(
                f"ignoring {FAULT_PLAN_ENV}={token!r} ({exc})",
                RuntimeWarning,
                stacklevel=2,
            )
        return None


def apply_task_fault(key: str, attempt: int) -> Optional[str]:
    """Apply the active plan's fault for one task attempt, if any.

    Crash and hang faults act immediately (process exit / sleep); a
    ``corrupt_result`` decision is *returned* so the caller can replace
    the evaluated metrics — corruption never touches the evaluators
    themselves.
    """
    plan = active_fault_plan()
    if plan is None:
        return None
    fault = plan.decide(key, attempt)
    if fault == "crash":
        if _in_pool_worker:
            os._exit(CRASH_EXIT_CODE)
        raise WorkerCrashError(
            f"injected crash (task {key[:12]}, attempt {attempt})"
        )
    if fault == "hang":
        time.sleep(plan.hang_s)
        return None
    return fault


def cache_write_corrupted(key: str) -> bool:
    """Whether the active plan tears the cache write for ``key``."""
    plan = active_fault_plan()
    return plan is not None and plan.corrupts_cache_write(key)
