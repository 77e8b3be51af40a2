"""Sharded campaign execution over a crash-safe on-disk work queue.

The pool backend fans a campaign across the processes of *one* machine;
this module fans it across *any number of workers that can see the same
directory*.  A :class:`WorkQueue` is a SQLite database (WAL mode) of
point-hash tasks; workers — spawned by :class:`ShardedBackend` or
started by hand via ``pbbf-experiments worker --queue DIR`` on other
machines sharing the cache/queue directory — claim the oldest due task
under a lease, evaluate it with the exact same task body the serial and
pool backends use, and write the flat metrics back as a result row.

The retry envelope is PR 7's, relocated into the queue rows:

* a worker that *fails* a task (raise, garbage metrics, in-worker
  timeout) charges the row one attempt and re-queues it with the
  policy's deterministic backoff — or marks it ``exhausted``;
* a worker that *dies* leaves its row leased until the lease expires
  (or, for spawned workers, until the parent reaps the corpse), after
  which the row is charged one :class:`WorkerCrashError` attempt and
  re-queued — exactly the pool backend's collateral-death accounting;
* ``exhausted`` rows are handled by the campaign parent per the
  policy's ``on_exhausted`` (skip / degrade / raise), like any backend.

Because point evaluation is a pure function of ``(kind, params, seed)``
(see :mod:`repro.runners.points`), results are bit-identical to
:class:`~repro.runners.backends.SerialBackend` regardless of which
worker runs what, how many die mid-task, or how leases interleave — the
queue decides *scheduling*, never *values*.

At campaign scale the queue must also be *cheap* per point.  Workers
claim **blocks** of tasks in one ``BEGIN IMMEDIATE`` transaction
(:meth:`WorkQueue.claim_block`), land a whole block with one
``executemany`` batch (:meth:`WorkQueue.complete_many`), and in steady
state fuse "complete the previous block, refresh the heartbeat, claim
the next" into a single transaction
(:meth:`WorkQueue.complete_and_claim`) — so queue round-trips per point
fall as ``1/block`` while the per-lease attempt accounting is
unchanged: a worker that dies mid-block re-queues only the leases it
had not yet completed, each charged one :class:`WorkerCrashError`
attempt.  The parent harvests result rows in pages rather than
unbounded scans.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import socket
import sqlite3
import tempfile
import time
import uuid
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs import ensure_recorder, get_recorder
from repro.runners import faults
from repro.runners.backends import (
    OnFailure,
    OnResult,
    _BatchTask,
    _build_leases,
    _degraded_attempt,
    _drain_serial,
    _ExecutionState,
    _Lease,
    _resolve_policy,
    _serve_from_memo,
    _timed_attempt,
    _validated,
)
from repro.runners.context import get_execution, get_stats, set_execution
from repro.runners.failures import (
    CorruptResultError,
    FailurePolicy,
    RunFailure,
    WorkerCrashError,
)
from repro.runners.points import validate_flat_metrics
from repro.runners.spec import CampaignRun

#: Database file name inside a queue directory.
QUEUE_FILENAME = "queue.sqlite"

#: Lease duration when the policy has no ``timeout_s`` to derive one
#: from: long enough that no healthy task expires, short enough that a
#: machine lost with its leases re-queues within minutes.
DEFAULT_LEASE_S = 300.0

#: How long a writer waits on the database lock (seconds).
BUSY_TIMEOUT_S = 30.0

#: Idle sleep between claim attempts in a worker.
DEFAULT_POLL_S = 0.05

#: Result rows the parent harvests per page.  Pages bound the memory and
#: statement cost of each poll on million-point queues while the
#: ``on_point`` stream rides the same ordered reads unchanged.
RESULT_PAGE_ROWS = 512

#: Heartbeat rows older than this are swept by ``compact`` — a worker
#: silent for an hour is a corpse, not a participant.
HEARTBEAT_MAX_AGE_S = 3600.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta(
    name   TEXT PRIMARY KEY,
    value  TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS tasks(
    key            TEXT PRIMARY KEY,
    payload        TEXT NOT NULL,
    status         TEXT NOT NULL DEFAULT 'pending',
    attempt        INTEGER NOT NULL DEFAULT 0,
    not_before     REAL NOT NULL DEFAULT 0,
    worker         TEXT,
    lease_expires  REAL,
    error_type     TEXT,
    error          TEXT
);
CREATE INDEX IF NOT EXISTS idx_tasks_claim ON tasks(status, not_before);
CREATE TABLE IF NOT EXISTS results(
    key        TEXT PRIMARY KEY,
    flats      TEXT NOT NULL,
    worker     TEXT,
    completed  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS heartbeats(
    worker      TEXT PRIMARY KEY,
    started     REAL NOT NULL,
    last_seen   REAL NOT NULL,
    tasks_done  INTEGER NOT NULL DEFAULT 0
);
"""

#: Seconds between a worker's heartbeat rows (kept coarse: the heartbeat
#: is liveness telemetry for ``queue status``, not a scheduling input).
HEARTBEAT_INTERVAL_S = 1.0

#: Task row statuses.  ``done`` and ``exhausted`` are terminal; the
#: queue is *drained* when no row is ``pending`` or ``leased``.
STATUSES = ("pending", "leased", "done", "exhausted")


def _task_to_json(task: _BatchTask) -> str:
    kind, params, seeds = task
    return json.dumps(
        {"kind": kind, "params": params, "seeds": list(seeds)},
        sort_keys=True,
    )


def _task_from_json(text: str) -> _BatchTask:
    payload = json.loads(text)
    return (
        str(payload["kind"]),
        dict(payload["params"]),
        tuple(int(seed) for seed in payload["seeds"]),
    )


def new_worker_id() -> str:
    """A worker identity unique across the machines sharing a queue."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:8]}"


class WorkQueue:
    """One campaign work queue: a SQLite database in a shared directory.

    Every method is one transaction (``BEGIN IMMEDIATE`` for writes, with
    SQLite's busy-timeout arbitrating concurrent claimers), so the queue
    is safe for any number of worker processes on any number of machines
    that share the directory.  Unlike the result cache, which degrades
    to cache-off when its directory is unwritable, a broken queue
    *raises* — the campaign's work is in it.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.dir = Path(path)
        self.db_path = self.dir / QUEUE_FILENAME
        self._con: Optional[sqlite3.Connection] = None
        self._pid: Optional[int] = None
        #: Write transactions this instance has issued — the "round
        #: trips" the block protocol amortizes; the scale drill asserts
        #: this stays ~``ceil(points / block)``.
        self.round_trips = 0

    def _connect(self) -> sqlite3.Connection:
        if self._con is not None and self._pid == os.getpid():
            return self._con
        self.dir.mkdir(parents=True, exist_ok=True)
        # One long-lived connection per (instance, pid).  The statement
        # cache is sized for the full protocol vocabulary so the hot
        # claim/complete SQL is compiled once per worker, not per call.
        con = sqlite3.connect(
            str(self.db_path),
            timeout=BUSY_TIMEOUT_S,
            check_same_thread=False,
            cached_statements=256,
        )
        con.execute("PRAGMA journal_mode=WAL")
        con.execute("PRAGMA synchronous=NORMAL")
        con.execute("PRAGMA temp_store=MEMORY")
        con.executescript(_SCHEMA)
        con.commit()
        self._con = con
        self._pid = os.getpid()
        return con

    def close(self) -> None:
        """Release the connection (reopened lazily on next use)."""
        if self._con is not None and self._pid == os.getpid():
            try:
                self._con.close()
            except sqlite3.Error:  # pragma: no cover - defensive
                pass
        self._con = None
        self._pid = None

    def _write(self, operate) -> Any:
        con = self._connect()
        con.execute("BEGIN IMMEDIATE")
        try:
            outcome = operate(con)
        except BaseException:
            con.rollback()
            raise
        con.commit()
        self.round_trips += 1
        return outcome

    # -- campaign setup ----------------------------------------------------

    def configure(
        self,
        policy: FailurePolicy,
        lease_s: float = DEFAULT_LEASE_S,
        fault_plan_token: Optional[str] = None,
        lease_block: Optional[int] = None,
    ) -> None:
        """Publish the campaign's execution contract to the workers.

        Workers on other machines read the failure policy, the lease
        duration, the parent's kernel-selection flags, the block size
        and any fault plan from the ``meta`` table — the same hand-off
        ``_init_worker`` performs for the pool backend, durable on
        disk.  ``lease_block`` defaults to the ambient
        :class:`~repro.runners.context.ExecutionConfig`'s.
        """
        config = get_execution()
        if lease_block is None:
            lease_block = config.lease_block
        rows = {
            "policy": json.dumps(asdict(policy), sort_keys=True),
            "lease_s": json.dumps(lease_s),
            "fast_path": json.dumps(config.fast_path),
            "detailed_fast_path": json.dumps(config.detailed_fast_path),
            "fault_plan": json.dumps(fault_plan_token),
            "telemetry": json.dumps(config.telemetry_dir),
            "lease_block": json.dumps(max(1, int(lease_block))),
        }
        self._write(
            lambda con: con.executemany(
                "INSERT OR REPLACE INTO meta(name, value) VALUES (?, ?)",
                list(rows.items()),
            )
        )

    def read_config(self) -> Dict[str, Any]:
        """The published execution contract (defaults when unconfigured)."""
        rows = dict(
            self._connect().execute("SELECT name, value FROM meta").fetchall()
        )
        policy = (
            FailurePolicy(**json.loads(rows["policy"]))
            if "policy" in rows
            else FailurePolicy()
        )
        return {
            "policy": policy,
            "lease_s": json.loads(rows.get("lease_s", "null")) or DEFAULT_LEASE_S,
            "fast_path": json.loads(rows.get("fast_path", "true")),
            "detailed_fast_path": json.loads(
                rows.get("detailed_fast_path", "true")
            ),
            "fault_plan": json.loads(rows.get("fault_plan", "null")),
            "telemetry": json.loads(rows.get("telemetry", "null")),
            "lease_block": max(
                1, int(json.loads(rows.get("lease_block", "1")))
            ),
        }

    def enqueue(self, leases: Sequence[_Lease]) -> None:
        """Add leases as pending tasks (idempotent by run key).

        A key already in the queue keeps its row: ``done`` rows serve
        their stored result immediately, in-progress rows are simply
        awaited, and ``exhausted`` rows are re-armed with a fresh retry
        budget (a new campaign deserves its own attempts).
        """
        rows = [(lease.key, _task_to_json(lease.task)) for lease in leases]

        def operate(con: sqlite3.Connection) -> None:
            con.executemany(
                "INSERT OR IGNORE INTO tasks(key, payload) VALUES (?, ?)",
                rows,
            )
            con.executemany(
                "UPDATE tasks SET status='pending', attempt=0, not_before=0, "
                "worker=NULL, lease_expires=NULL, error_type=NULL, error=NULL "
                "WHERE key = ? AND status = 'exhausted'",
                [(key,) for key, _ in rows],
            )

        self._write(operate)

    # -- the worker protocol -----------------------------------------------

    def _claim_rows(
        self,
        con: sqlite3.Connection,
        worker_id: str,
        lease_s: float,
        n: int,
        reference: float,
    ) -> List[Tuple[str, _BatchTask, int]]:
        """Lease up to ``n`` due tasks inside a held write transaction."""
        rows = con.execute(
            "SELECT key, payload, attempt FROM tasks "
            "WHERE status = 'pending' AND not_before <= ? "
            "ORDER BY rowid LIMIT ?",
            (reference, n),
        ).fetchall()
        if rows:
            con.executemany(
                "UPDATE tasks SET status='leased', worker=?, lease_expires=? "
                "WHERE key = ?",
                [(worker_id, reference + lease_s, key) for key, _, _ in rows],
            )
        return [
            (key, _task_from_json(payload), int(attempt))
            for key, payload, attempt in rows
        ]

    def _complete_rows(
        self,
        con: sqlite3.Connection,
        result_rows: Sequence[Tuple[str, str, str, float]],
    ) -> None:
        """Land a batch of completions inside a held write transaction."""
        con.executemany(
            "UPDATE tasks SET status='done', worker=?, lease_expires=NULL, "
            "error_type=NULL, error=NULL WHERE key = ?",
            [(worker, key) for key, _flats, worker, _ in result_rows],
        )
        con.executemany(
            "INSERT OR REPLACE INTO results(key, flats, worker, completed) "
            "VALUES (?, ?, ?, ?)",
            list(result_rows),
        )

    def claim_block(
        self,
        worker_id: str,
        lease_s: float,
        n: int = 1,
        now: Optional[float] = None,
    ) -> List[Tuple[str, _BatchTask, int]]:
        """Lease the ``n`` oldest due pending tasks in one transaction.

        Returns up to ``n`` ``(key, task, attempt)`` tuples in rowid
        order — the attempt index the worker must evaluate each task
        under (it keys the fault and backoff streams, so a re-queued
        task faults exactly as it would have on any backend).  An empty
        list means nothing is due.
        """
        reference = now if now is not None else time.time()
        return self._write(
            lambda con: self._claim_rows(
                con, worker_id, lease_s, max(1, int(n)), reference
            )
        )

    def claim(
        self, worker_id: str, lease_s: float, now: Optional[float] = None
    ) -> Optional[Tuple[str, _BatchTask, int]]:
        """Lease the oldest due pending task; ``None`` when nothing is due.

        The single-task protocol — :meth:`claim_block` with ``n=1``.
        """
        claimed = self.claim_block(worker_id, lease_s, 1, now=now)
        return claimed[0] if claimed else None

    def complete_many(
        self,
        completions: Sequence[Tuple[str, List[Dict[str, Any]]]],
        worker_id: str,
        now: Optional[float] = None,
    ) -> None:
        """Land a block of ``(key, flats)`` results in one transaction.

        Idempotent per key, exactly like :meth:`complete`: a late
        double-completion rewrites rows with the same bits, because
        evaluation is pure.
        """
        if not completions:
            return
        reference = now if now is not None else time.time()
        result_rows = [
            (key, json.dumps(flats), worker_id, reference)
            for key, flats in completions
        ]
        self._write(lambda con: self._complete_rows(con, result_rows))

    def complete(
        self,
        key: str,
        flats: List[Dict[str, Any]],
        worker_id: str,
        now: Optional[float] = None,
    ) -> None:
        """Land one task's per-seed metrics; idempotent.

        A late double-completion (a hung worker finishing after its lease
        expired and the task re-ran elsewhere) rewrites the row with the
        same bits — evaluation is pure, so there is nothing to race over.
        """
        self.complete_many([(key, flats)], worker_id, now=now)

    def complete_and_claim(
        self,
        completions: Sequence[Tuple[str, List[Dict[str, Any]]]],
        worker_id: str,
        lease_s: float,
        n: int = 1,
        tasks_done: Optional[int] = None,
        now: Optional[float] = None,
    ) -> List[Tuple[str, _BatchTask, int]]:
        """The steady-state block protocol: one transaction per block.

        Completes the previous block's ``(key, flats)`` results,
        refreshes this worker's heartbeat row when ``tasks_done`` is
        given, and claims the next block of up to ``n`` due tasks — all
        inside a single ``BEGIN IMMEDIATE``, so a long campaign costs
        one queue round-trip per block rather than two per point.

        Crash accounting is unchanged by the fusion: results not yet
        flushed by this call belong to rows still ``leased`` by the
        worker, so a death between calls re-queues exactly the
        unfinished leases (one :class:`WorkerCrashError` charge each)
        and never the ones a previous call already landed.
        """
        reference = now if now is not None else time.time()
        result_rows = [
            (key, json.dumps(flats), worker_id, reference)
            for key, flats in completions
        ]

        def operate(con: sqlite3.Connection):
            if result_rows:
                self._complete_rows(con, result_rows)
            if tasks_done is not None:
                con.execute(
                    "INSERT INTO heartbeats"
                    "(worker, started, last_seen, tasks_done) "
                    "VALUES (?, ?, ?, ?) "
                    "ON CONFLICT(worker) DO UPDATE SET "
                    "last_seen=excluded.last_seen, "
                    "tasks_done=excluded.tasks_done",
                    (worker_id, reference, reference, tasks_done),
                )
            return self._claim_rows(
                con, worker_id, lease_s, max(1, int(n)), reference
            )

        return self._write(operate)

    def fail(
        self,
        key: str,
        error_type: str,
        error: str,
        policy: FailurePolicy,
        now: Optional[float] = None,
    ) -> None:
        """Charge one failed attempt: re-queue with backoff, or exhaust."""
        reference = now if now is not None else time.time()
        self._write(
            lambda con: self._charge(
                con, [key], error_type, error, policy, reference
            )
        )

    def _charge(
        self,
        con: sqlite3.Connection,
        keys: Sequence[str],
        error_type: str,
        error: str,
        policy: FailurePolicy,
        reference: float,
    ) -> None:
        """Apply one failed attempt to each key inside a held transaction."""
        for key in keys:
            row = con.execute(
                "SELECT attempt FROM tasks WHERE key = ?", (key,)
            ).fetchone()
            if row is None:
                continue
            attempt = int(row[0])
            if attempt < policy.max_retries:
                delay = policy.backoff_s(key, attempt + 1)
                con.execute(
                    "UPDATE tasks SET status='pending', attempt=?, "
                    "not_before=?, worker=NULL, lease_expires=NULL, "
                    "error_type=?, error=? WHERE key = ?",
                    (attempt + 1, reference + delay, error_type, error, key),
                )
            else:
                con.execute(
                    "UPDATE tasks SET status='exhausted', worker=NULL, "
                    "lease_expires=NULL, error_type=?, error=? WHERE key = ?",
                    (error_type, error, key),
                )

    def requeue_expired(
        self, policy: FailurePolicy, now: Optional[float] = None
    ) -> int:
        """Charge every expired lease one attempt; returns how many.

        An expired lease means its worker died or hung past the lease —
        either way the pool backend's accounting applies: one
        :class:`WorkerCrashError`-flavoured attempt, then re-queue.
        """
        reference = now if now is not None else time.time()

        def operate(con: sqlite3.Connection) -> int:
            keys = [
                key
                for (key,) in con.execute(
                    "SELECT key FROM tasks "
                    "WHERE status = 'leased' AND lease_expires < ?",
                    (reference,),
                )
            ]
            self._charge(
                con,
                keys,
                WorkerCrashError.__name__,
                "lease expired (worker lost or hung)",
                policy,
                reference,
            )
            return len(keys)

        return self._write(operate)

    def release_worker(
        self,
        worker_id: str,
        policy: FailurePolicy,
        now: Optional[float] = None,
    ) -> int:
        """Charge a known-dead worker's leases one attempt; returns count."""
        reference = now if now is not None else time.time()

        def operate(con: sqlite3.Connection) -> int:
            keys = [
                key
                for (key,) in con.execute(
                    "SELECT key FROM tasks "
                    "WHERE status = 'leased' AND worker = ?",
                    (worker_id,),
                )
            ]
            self._charge(
                con,
                keys,
                WorkerCrashError.__name__,
                f"worker {worker_id} died mid-task",
                policy,
                reference,
            )
            return len(keys)

        return self._write(operate)

    # -- the parent protocol -----------------------------------------------

    def fetch_results(
        self, after_rowid: int = 0, limit: Optional[int] = None
    ) -> List[Tuple[int, str, List[Dict[str, Any]]]]:
        """Result rows newer than ``after_rowid``: ``(rowid, key, flats)``.

        ``limit`` bounds the page (``None`` keeps the full scan for
        small queues and tests).
        """
        if limit is None:
            rows = self._connect().execute(
                "SELECT rowid, key, flats FROM results WHERE rowid > ? "
                "ORDER BY rowid",
                (after_rowid,),
            ).fetchall()
        else:
            rows = self._connect().execute(
                "SELECT rowid, key, flats FROM results WHERE rowid > ? "
                "ORDER BY rowid LIMIT ?",
                (after_rowid, int(limit)),
            ).fetchall()
        return [
            (int(rid), key, json.loads(flats))
            for rid, key, flats in rows
        ]

    def fetch_exhausted(self) -> List[Tuple[str, int, str, str]]:
        """Exhausted rows: ``(key, attempt, error_type, error)``."""
        rows = self._connect().execute(
            "SELECT key, attempt, error_type, error FROM tasks "
            "WHERE status = 'exhausted'"
        ).fetchall()
        return [
            (key, int(attempt), str(error_type or "Exception"), str(error or ""))
            for key, attempt, error_type, error in rows
        ]

    def attempts_for(self, keys: Sequence[str]) -> Dict[str, int]:
        """Current attempt index per key (serial-failover bookkeeping)."""
        attempts: Dict[str, int] = {}
        con = self._connect()
        keys = list(keys)
        for start in range(0, len(keys), 500):
            chunk = keys[start:start + 500]
            marks = ",".join("?" for _ in chunk)
            for key, attempt in con.execute(
                f"SELECT key, attempt FROM tasks WHERE key IN ({marks})",
                tuple(chunk),
            ):
                attempts[key] = int(attempt)
        return attempts

    def counts(self) -> Dict[str, int]:
        """Task counts by status."""
        rows = self._connect().execute(
            "SELECT status, COUNT(*) FROM tasks GROUP BY status"
        ).fetchall()
        return {str(status): int(count) for status, count in rows}

    def drained(self) -> bool:
        """Whether every enqueued task reached a terminal status."""
        counts = self.counts()
        total = sum(counts.values())
        return total > 0 and not (
            counts.get("pending", 0) or counts.get("leased", 0)
        )

    # -- maintenance ---------------------------------------------------------

    def _disk_bytes(self) -> int:
        # The -shm file is transient shared memory (fixed 32 KiB while any
        # connection is open, gone after); counting it would make a drained
        # queue look like it grew across compact.
        total = 0
        for suffix in ("", "-wal"):
            try:
                total += os.path.getsize(str(self.db_path) + suffix)
            except OSError:
                continue
        return total

    def compact(
        self,
        heartbeat_max_age_s: float = HEARTBEAT_MAX_AGE_S,
        now: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Drop completed rows and reclaim their disk space.

        Deletes ``done`` task rows and every result row without a task,
        age-sweeps heartbeat rows of long-dead workers, then truncates
        the WAL and ``VACUUM``\\ s the database.  Returns what was
        removed and the bytes reclaimed.  A compacted campaign
        re-enqueued later simply recomputes (or serves from the result
        cache) — the queue holds work in flight, not the archive.
        """
        reference = now if now is not None else time.time()

        def operate(con: sqlite3.Connection) -> Tuple[int, int, int]:
            tasks_dropped = con.execute(
                "DELETE FROM tasks WHERE status = 'done'"
            ).rowcount
            results_dropped = con.execute(
                "DELETE FROM results "
                "WHERE key NOT IN (SELECT key FROM tasks)"
            ).rowcount
            heartbeats_swept = con.execute(
                "DELETE FROM heartbeats WHERE last_seen < ?",
                (reference - heartbeat_max_age_s,),
            ).rowcount
            return tasks_dropped, results_dropped, heartbeats_swept

        bytes_before = self._disk_bytes()
        tasks_dropped, results_dropped, heartbeats_swept = self._write(operate)
        con = self._connect()
        con.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        con.execute("VACUUM")
        # In WAL mode VACUUM writes the rebuilt image through the WAL;
        # checkpoint again so the -wal file does not dwarf the database.
        con.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        bytes_after = self._disk_bytes()
        return {
            "tasks_dropped": int(tasks_dropped),
            "results_dropped": int(results_dropped),
            "heartbeats_swept": int(heartbeats_swept),
            "bytes_before": bytes_before,
            "bytes_after": bytes_after,
            "reclaimed_bytes": max(0, bytes_before - bytes_after),
        }

    # -- liveness and status -------------------------------------------------

    def heartbeat(
        self, worker_id: str, tasks_done: int = 0, now: Optional[float] = None
    ) -> None:
        """Record (or refresh) one worker's liveness row.

        Observation only: nothing schedules off a heartbeat — it feeds
        the ``queue status`` view and the telemetry stream.
        """
        reference = now if now is not None else time.time()
        self._write(
            lambda con: con.execute(
                "INSERT INTO heartbeats(worker, started, last_seen, tasks_done) "
                "VALUES (?, ?, ?, ?) "
                "ON CONFLICT(worker) DO UPDATE SET "
                "last_seen=excluded.last_seen, tasks_done=excluded.tasks_done",
                (worker_id, reference, reference, tasks_done),
            )
        )

    def worker_heartbeats(
        self, now: Optional[float] = None
    ) -> List[Dict[str, Any]]:
        """Every worker ever seen on this queue, with heartbeat ages."""
        reference = now if now is not None else time.time()
        rows = self._connect().execute(
            "SELECT worker, started, last_seen, tasks_done FROM heartbeats "
            "ORDER BY worker"
        ).fetchall()
        return [
            {
                "worker": str(worker),
                "started": float(started),
                "last_seen": float(last_seen),
                "age_s": max(0.0, reference - float(last_seen)),
                "tasks_done": int(tasks_done),
            }
            for worker, started, last_seen, tasks_done in rows
        ]

    def completion_rate(
        self, window_s: float = 60.0, now: Optional[float] = None
    ) -> Tuple[int, float]:
        """``(completions, per-second rate)`` over the trailing window."""
        reference = now if now is not None else time.time()
        (count,) = self._connect().execute(
            "SELECT COUNT(*) FROM results WHERE completed > ?",
            (reference - window_s,),
        ).fetchone()
        rate = int(count) / window_s if window_s > 0 else 0.0
        return int(count), rate

    def status_snapshot(
        self, window_s: float = 60.0, now: Optional[float] = None
    ) -> Dict[str, Any]:
        """Everything ``pbbf-experiments queue status`` renders.

        Counts by status, the published execution contract, worker
        heartbeat ages and the trailing completion rate (from result-row
        timestamps) that the ETA is computed from.
        """
        reference = now if now is not None else time.time()
        counts = self.counts()
        meta = dict(
            self._connect().execute("SELECT name, value FROM meta").fetchall()
        )
        config: Dict[str, Any] = {}
        if "lease_s" in meta:
            config["lease_s"] = json.loads(meta["lease_s"])
        if "policy" in meta:
            policy = json.loads(meta["policy"])
            config["policy"] = (
                f"max_retries={policy.get('max_retries')}, "
                f"on_exhausted={policy.get('on_exhausted')}"
            )
        telemetry = json.loads(meta.get("telemetry", "null"))
        if telemetry:
            config["telemetry"] = telemetry
        lease_block = json.loads(meta.get("lease_block", "1"))
        if lease_block and int(lease_block) > 1:
            config["lease_block"] = int(lease_block)
        completed_in_window, rate = self.completion_rate(
            window_s, now=reference
        )
        return {
            "queue_dir": str(self.dir),
            "counts": counts,
            "total": sum(counts.values()),
            "config": config,
            "window_s": window_s,
            "completed_in_window": completed_in_window,
            "rate_per_s": rate,
            "workers": self.worker_heartbeats(now=reference),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkQueue({str(self.dir)!r})"


# -- workers ---------------------------------------------------------------


def worker_loop(
    queue_dir: Union[str, Path],
    worker_id: Optional[str] = None,
    poll_s: float = DEFAULT_POLL_S,
    linger_s: float = 0.0,
    max_tasks: Optional[int] = None,
    block: Optional[int] = None,
) -> int:
    """Claim-and-evaluate until the queue drains; returns tasks completed.

    This is the body of both the spawned :class:`ShardedBackend` workers
    and the stand-alone ``pbbf-experiments worker`` process on another
    machine.  The queue's published config installs the parent's kernel
    flags, failure policy and fault plan, so evaluation — and fault
    decisions, keyed by ``(run key, attempt)`` — matches the serial and
    pool backends bit for bit.

    The loop runs the block protocol: each
    :meth:`WorkQueue.complete_and_claim` round-trip lands the previous
    block's results, refreshes the heartbeat when due, and claims the
    next block of ``block`` tasks (``None`` reads the published
    ``lease_block``; 1 reproduces the original row-at-a-time cadence).
    Completed-but-unflushed results belong to rows still leased by this
    worker, so a crash between round-trips re-queues exactly those
    leases and nothing that already landed.

    ``linger_s`` keeps an idle worker polling that long after the queue
    drains (a shared long-lived queue may receive more campaigns); 0
    exits as soon as the queue is drained.  A worker started before any
    task exists waits for work rather than exiting.
    """
    queue = WorkQueue(queue_dir)
    if worker_id is None:
        worker_id = new_worker_id()
    config = queue.read_config()
    policy: FailurePolicy = config["policy"]
    lease_s: float = config["lease_s"]
    if block is None:
        block = config["lease_block"]
    block = max(1, int(block))
    plan = (
        faults.FaultPlan.from_token(config["fault_plan"])
        if config["fault_plan"]
        else None
    )
    set_execution(
        fast_path=config["fast_path"],
        detailed_fast_path=config["detailed_fast_path"],
        fault_plan=plan,
        telemetry_dir=config["telemetry"],
    )
    recorder = ensure_recorder(
        config["telemetry"], role="queue-worker"
    )
    faults.mark_pool_worker()
    completed = 0
    idle_since: Optional[float] = None
    last_beat = 0.0
    pending: List[Tuple[str, List[Dict[str, Any]]]] = []

    def beat_due(force: bool = False) -> Optional[int]:
        """``tasks_done`` when a heartbeat is due this round-trip.

        The heartbeat rides the block transaction instead of costing
        its own, rate-limited to the usual cadence; ``None`` skips it.
        """
        nonlocal last_beat
        mono = time.monotonic()
        if not force and mono - last_beat < HEARTBEAT_INTERVAL_S:
            return None
        last_beat = mono
        recorder.event(
            "worker.heartbeat", worker=worker_id, tasks_done=completed
        )
        return completed

    try:
        claimed = queue.complete_and_claim(
            [], worker_id, lease_s, block, tasks_done=beat_due(force=True)
        )
        while True:
            if not claimed:
                now = time.time()
                if queue.drained():
                    if idle_since is None:
                        idle_since = now
                    if now - idle_since >= linger_s:
                        break
                time.sleep(poll_s)
                claimed = queue.complete_and_claim(
                    [], worker_id, lease_s, block, tasks_done=beat_due()
                )
                continue
            idle_since = None
            recorder.counter("queue.blocks_claimed")
            recorder.counter("queue.block_rows", len(claimed))
            stop = False
            for key, task, attempt in claimed:
                attempt_start = time.perf_counter()
                recorder.event(
                    "queue.claimed", key=key[:12], attempt=attempt
                )
                try:
                    flats = _timed_attempt(
                        (task, key, attempt), policy.timeout_s
                    )
                    kind, _params, seeds = task
                    if (
                        not isinstance(flats, list)
                        or len(flats) != len(seeds)
                        or not all(
                            validate_flat_metrics(kind, flat)
                            for flat in flats
                        )
                    ):
                        raise CorruptResultError(
                            f"task returned metrics that do not rebuild as "
                            f"kind {kind!r}"
                        )
                except KeyboardInterrupt:
                    raise
                except BaseException as error:
                    recorder.counter("queue.task_failed")
                    queue.fail(key, type(error).__name__, str(error), policy)
                else:
                    pending.append((key, flats))
                    completed += 1
                    recorder.event(
                        "queue.completed",
                        key=key[:12],
                        attempt=attempt,
                        task_s=round(
                            time.perf_counter() - attempt_start, 6
                        ),
                    )
                    if max_tasks is not None and completed >= max_tasks:
                        stop = True
                        break
            if stop:
                break
            claimed = queue.complete_and_claim(
                pending, worker_id, lease_s, block, tasks_done=beat_due()
            )
            pending = []
    finally:
        # Flush whatever the block in progress finished; on a crash the
        # interpreter never gets here and those rows re-queue instead.
        try:
            queue.complete_many(pending, worker_id)
        except sqlite3.Error:  # pragma: no cover - queue gone mid-shutdown
            pass
        queue.heartbeat(worker_id, tasks_done=completed)
        recorder.event(
            "worker.heartbeat", worker=worker_id, tasks_done=completed
        )
        recorder.flush()
    return completed


def _worker_entry(queue_dir: str, worker_id: str, poll_s: float) -> None:
    """Process target for spawned workers (module-level: picklable)."""
    try:
        worker_loop(queue_dir, worker_id=worker_id, poll_s=poll_s)
    except KeyboardInterrupt:  # pragma: no cover - parent-driven shutdown
        pass


# -- the backend -----------------------------------------------------------


class ShardedBackend:
    """Campaign execution through a shared on-disk work queue.

    Drop-in for the serial and pool backends (same
    ``execute(runs, on_result, failure_policy, on_failure)`` contract,
    same delivery alignment and ordering within a lease).  The parent
    enqueues one task per lease, spawns ``jobs`` local workers, and
    polls the queue: harvesting result rows (whoever computed them —
    the spawned workers or stand-alone ``pbbf-experiments worker``
    processes on other machines), re-queueing expired leases, replacing
    dead workers, and applying ``on_exhausted`` to spent tasks.

    If spawned workers keep dying past the policy's rebuild budget
    (``max_pool_rebuilds`` respawns per slot) the remaining leases fall
    back to in-parent serial execution — the same last-resort path the
    pool backend takes, with attempts synced from the queue rows so the
    retry budget is honoured end to end.

    Parameters
    ----------
    jobs:
        Local worker processes to spawn; ``None`` or 0 means
        ``os.cpu_count()``.
    queue_dir:
        Queue directory; ``None`` uses a private temporary directory
        removed when ``execute`` returns.  Point it somewhere shared
        (beside the cache) to let other machines' workers join.
    lease_s:
        Lease duration; ``None`` derives it from the policy's
        ``timeout_s`` (plus slack) or :data:`DEFAULT_LEASE_S`.
    lease_block:
        Tasks each worker claims (and completes) per queue transaction;
        ``None`` reads the ambient ``ExecutionConfig.lease_block``.
    """

    def __init__(
        self,
        jobs: int = 0,
        queue_dir: Optional[Union[str, Path]] = None,
        lease_s: Optional[float] = None,
        poll_s: float = DEFAULT_POLL_S,
        lease_block: Optional[int] = None,
    ) -> None:
        if jobs is None or jobs <= 0:
            jobs = os.cpu_count() or 1
        self.jobs = jobs
        self.queue_dir = Path(queue_dir) if queue_dir is not None else None
        self.lease_s = lease_s
        self.poll_s = poll_s
        self.lease_block = lease_block

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
        leases = _serve_from_memo(state, _build_leases(runs))
        if leases:
            self._drain_queue(state, leases)
        return state.finish()

    def _lease_duration(self, policy: FailurePolicy) -> float:
        if self.lease_s is not None:
            return self.lease_s
        if policy.timeout_s:
            # The worker's own deadline fires first; the lease is the
            # backstop for a worker that died holding the task.
            return policy.timeout_s + 30.0
        return DEFAULT_LEASE_S

    def _spawn(
        self, queue_dir: Path, workers: Dict[str, Any]
    ) -> None:
        worker_id = new_worker_id()
        process = multiprocessing.get_context().Process(
            target=_worker_entry,
            args=(str(queue_dir), worker_id, self.poll_s),
            daemon=True,
            name=worker_id,
        )
        process.start()
        workers[worker_id] = process
        get_recorder().event("queue.worker_spawned", worker=worker_id)

    def _drain_queue(
        self, state: _ExecutionState, leases: List[_Lease]
    ) -> None:
        policy = state.policy
        temp_dir: Optional[str] = None
        if self.queue_dir is not None:
            queue_dir = self.queue_dir
        else:
            temp_dir = tempfile.mkdtemp(prefix="repro-queue-")
            queue_dir = Path(temp_dir)
        queue = WorkQueue(queue_dir)
        plan = faults.active_fault_plan()
        queue.configure(
            policy,
            lease_s=self._lease_duration(policy),
            fault_plan_token=plan.token if plan is not None else None,
            lease_block=self.lease_block,
        )
        queue.enqueue(leases)
        outstanding: Dict[str, _Lease] = {lease.key: lease for lease in leases}
        workers: Dict[str, Any] = {}
        jobs = min(self.jobs, len(leases))
        # One original crew plus max_pool_rebuilds replacements per slot
        # — the pool backend's rebuild budget, per worker.
        spawn_cap = jobs * (min(policy.max_pool_rebuilds, policy.max_retries) + 1)
        spawns = 0
        cursor = 0
        try:
            while spawns < jobs:
                self._spawn(queue_dir, workers)
                spawns += 1
            while outstanding:
                # Drain completions page by page: each poll reads at
                # most RESULT_PAGE_ROWS rows per query, so a burst of
                # block completions never turns into one giant scan.
                while True:
                    rows = queue.fetch_results(cursor, limit=RESULT_PAGE_ROWS)
                    if rows:
                        recorder = get_recorder()
                        recorder.counter("queue.result_pages")
                        recorder.counter("queue.result_rows", len(rows))
                    for rowid, key, flats in rows:
                        cursor = max(cursor, rowid)
                        lease = outstanding.get(key)
                        if lease is None:
                            continue
                        try:
                            validated = _validated(lease, flats)
                        except CorruptResultError as error:
                            # A torn row (or schema drift): charge the
                            # attempt and let the queue retry it.
                            queue.fail(
                                key, type(error).__name__, str(error), policy
                            )
                            continue
                        del outstanding[key]
                        state.deliver(lease, validated)
                    if len(rows) < RESULT_PAGE_ROWS:
                        break
                for key, attempt, error_type, error in queue.fetch_exhausted():
                    lease = outstanding.pop(key, None)
                    if lease is None:
                        continue
                    lease.attempt = attempt
                    self._handle_exhausted(
                        state, queue, lease, attempt + 1, error_type, error
                    )
                if not outstanding:
                    break
                expired = queue.requeue_expired(policy)
                if expired:
                    get_stats().retried += expired
                    recorder = get_recorder()
                    recorder.counter("queue.lease_expired", expired)
                    recorder.event("queue.lease_expired", count=expired)
                dead = [
                    (worker_id, process)
                    for worker_id, process in workers.items()
                    if not process.is_alive()
                ]
                for worker_id, process in dead:
                    del workers[worker_id]
                    if process.exitcode != 0:
                        queue.release_worker(worker_id, policy)
                if not workers and jobs > 0:
                    counts = queue.counts()
                    live_work = counts.get("pending", 0) + counts.get("leased", 0)
                    if live_work:
                        if spawns < spawn_cap:
                            while spawns < spawn_cap and len(workers) < jobs:
                                self._spawn(queue_dir, workers)
                                spawns += 1
                        else:
                            # Workers keep dying: finish in-parent, where
                            # attribution is exact (the pool backend's
                            # same last resort), attempts synced from the
                            # queue so the retry budget carries over.
                            self._fail_over_serial(state, queue, outstanding)
                            break
                time.sleep(self.poll_s)
        finally:
            for process in workers.values():
                try:
                    process.terminate()
                except (OSError, ValueError):  # pragma: no cover
                    pass
            for process in workers.values():
                process.join(5.0)
            queue.close()
            if temp_dir is not None:
                shutil.rmtree(temp_dir, ignore_errors=True)

    def _handle_exhausted(
        self,
        state: _ExecutionState,
        queue: WorkQueue,
        lease: _Lease,
        attempts: int,
        error_type: str,
        error: str,
    ) -> None:
        """Apply ``on_exhausted`` to one spent task, parent-side."""
        if state.policy.on_exhausted == "degrade":
            get_recorder().event("task.degraded", key=lease.key[:12])
            flats, degrade_error = _degraded_attempt(lease)
            if flats is not None:
                state.deliver(lease, flats)
                queue.complete(lease.key, flats, "parent-degraded")
                return
            if degrade_error is not None:
                error_type = type(degrade_error).__name__
                error = str(degrade_error)
        for offset in range(lease.n_runs):
            run = state.runs[lease.start + offset]
            failure = RunFailure(
                key=run.key,
                kind=run.kind,
                params=run.params,
                seed=run.seed,
                attempts=attempts,
                error_type=error_type,
                error=error,
            )
            state.failures.append(failure)
            if state.on_failure is not None:
                state.on_failure(failure)
        get_stats().failed += lease.n_runs
        recorder = get_recorder()
        recorder.counter("task.exhausted")
        recorder.event(
            "task.exhausted",
            key=lease.key[:12],
            attempts=attempts,
            runs=lease.n_runs,
            error=error_type,
        )

    def _fail_over_serial(
        self,
        state: _ExecutionState,
        queue: WorkQueue,
        outstanding: Dict[str, _Lease],
    ) -> None:
        remaining = sorted(outstanding.values(), key=lambda lease: lease.start)
        get_recorder().event(
            "queue.serial_failover", remaining=len(remaining)
        )
        attempts = queue.attempts_for(list(outstanding))
        for lease in remaining:
            lease.attempt = attempts.get(lease.key, lease.attempt)
            lease.not_before = 0.0
        outstanding.clear()
        _drain_serial(state, remaining)
        for lease in remaining:
            flats = state.results[lease.start:lease.start + lease.n_runs]
            if all(flat is not None for flat in flats):
                queue.complete(lease.key, list(flats), "parent-serial")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self.queue_dir) if self.queue_dir else "<temp>"
        return f"ShardedBackend(jobs={self.jobs}, queue_dir={where!r})"
