"""Structured telemetry: spans and events for campaign execution.

The execution stack (evaluators, backends, result cache) calls
:func:`get_recorder` and records what it is doing — phase spans around
realize/simulate/analyze/cache work, and events for the campaign and
lease lifecycle.  Every count a summary needs is read off those records
(see :mod:`repro.obs.metrics`).  By default the recorder is the
:data:`NULL_RECORDER`: every method is a no-op returning a shared null
context manager, so the disabled path costs one attribute lookup and an
empty call — nothing is timed, formatted or written (the
campaign-throughput benchmark pins this).

Enabled (``--telemetry DIR`` / ``$REPRO_TELEMETRY``), a
:class:`TelemetryRecorder` appends one JSON line per span/event to
``DIR/events-<source>.jsonl`` — one file per process, so pool workers
never contend for a handle — flushed line by line, so a SIGKILL
tears at most the final line and every reader (trace export, metrics
aggregation) skips torn lines.

The hard invariant, shared with the fault-injection layer: telemetry
must never perturb results.  The recorder draws nothing from the
simulation seed streams, its wall-clock timestamps go only into its own
records, and every write is best-effort — an unwritable directory (or a
mid-write crash, exercised by ``torn_write_rate``) degrades to no-op
with one warning rather than failing, or changing, the campaign.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import warnings
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.util.rng import fold_seed, hash_to_unit_interval

#: Bumped if the event-record layout changes; readers skip other-era
#: records rather than misreading them.
EVENT_VERSION = 1

#: Environment variable naming the telemetry directory (the CLI flag's
#: fallback, and how spawned tooling can enable telemetry ambiently).
TELEMETRY_ENV = "REPRO_TELEMETRY"

#: Root of the deterministic torn-write stream (fault injection for the
#: "telemetry crashed mid-write" tests).  A fixed constant, disjoint
#: from every simulation stream.
_TORN_STREAM_SEED = 0x0B5E_EED5


class _NullSpan:
    """A reusable, stateless no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *_exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The zero-overhead default: every operation is an empty call."""

    __slots__ = ()
    enabled = False
    directory: Optional[Path] = None

    def span(self, name: str, **fields: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **fields: Any) -> None:
        return None

    def close(self) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullRecorder()"


NULL_RECORDER = NullRecorder()


class _Span:
    """One live span: measures a perf-counter duration, then records."""

    __slots__ = ("_recorder", "name", "fields", "_start", "_ts")

    def __init__(self, recorder: "TelemetryRecorder", name: str,
                 fields: Dict[str, Any]) -> None:
        self._recorder = recorder
        self.name = name
        self.fields = fields

    def __enter__(self) -> "_Span":
        self._ts = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, *_exc: Any) -> bool:
        duration = time.perf_counter() - self._start
        record = {
            "type": "span",
            "name": self.name,
            "ts": self._ts,
            "dur": duration,
        }
        if exc_type is not None:
            record["error"] = getattr(exc_type, "__name__", str(exc_type))
        if self.fields:
            record.update(self.fields)
        self._recorder._emit(record)
        return False


class TelemetryRecorder:
    """Append-only JSONL telemetry sink for one process.

    Parameters
    ----------
    directory:
        Where event files live; created on first write.  One campaign's
        processes (the parent and its pool workers) share a directory
        and each writes its own ``events-<source>`` file.
    role:
        A short label ("parent", "pool-worker") stamped into every
        record, so aggregation can attribute work.
    source:
        The per-process identity (default ``<hostname>-<pid>``) naming
        this process's event file.
    torn_write_rate:
        Deterministic fault injection: this fraction of writes is torn
        mid-line (no trailing newline), simulating a crash between write
        and flush.  Drawn from a named hash stream keyed by the record
        sequence number — never from any simulation RNG — so the fault
        pattern replays exactly and results stay bit-identical.
    """

    enabled = True

    def __init__(
        self,
        directory: Union[str, Path],
        role: str = "parent",
        source: Optional[str] = None,
        torn_write_rate: float = 0.0,
    ) -> None:
        self.directory = Path(directory)
        self.role = role
        if source is None:
            source = f"{socket.gethostname()}-{os.getpid()}"
        self.source = source
        #: The process that created the recorder; a forked child drops it.
        self.pid = os.getpid()
        self.torn_write_rate = torn_write_rate
        self.path = self.directory / f"events-{source}.jsonl"
        self._torn_seed = fold_seed(
            _TORN_STREAM_SEED, "torn-telemetry", source
        )
        self._handle = None
        self._write_failed = False
        self._seq = 0
        self._lock = threading.Lock()

    # -- the recording API --------------------------------------------------

    def span(self, name: str, **fields: Any) -> _Span:
        """A context manager timing one operation into a span record."""
        return _Span(self, name, fields)

    def event(self, name: str, **fields: Any) -> None:
        """Record one instantaneous event."""
        record = {"type": "event", "name": name, "ts": time.time()}
        if fields:
            record.update(fields)
        self._emit(record)

    # -- the sink -----------------------------------------------------------

    def _emit(self, record: Dict[str, Any]) -> None:
        if self._write_failed:
            return
        record["v"] = EVENT_VERSION
        record["source"] = self.source
        record["role"] = self.role
        record["pid"] = os.getpid()
        with self._lock:
            self._write_line(record)

    def _write_line(self, record: Dict[str, Any]) -> None:
        """Append one record (caller holds the lock); best-effort."""
        if self._write_failed:
            return
        try:
            line = json.dumps(record, sort_keys=True, default=str)
        except (TypeError, ValueError):  # unserializable field: drop it
            return
        seq = self._seq
        self._seq += 1
        if self.torn_write_rate > 0 and (
            hash_to_unit_interval(self._torn_seed, seq)
            < self.torn_write_rate
        ):
            # Injected mid-write crash: half the bytes, no newline — the
            # next record concatenates onto the stump, and readers must
            # skip the resulting garbage line.
            line = line[: max(1, len(line) // 2)]
            terminator = ""
        else:
            terminator = "\n"
        try:
            if self._handle is None:
                self.directory.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line + terminator)
            self._handle.flush()
        except OSError as exc:
            self._write_failed = True
            warnings.warn(
                f"telemetry sink at {self.directory} is not writable "
                f"({exc}); continuing without telemetry",
                RuntimeWarning,
                stacklevel=3,
            )

    def close(self) -> None:
        """Release the handle (every record is already flushed)."""
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:  # pragma: no cover - defensive
                    pass
                self._handle = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TelemetryRecorder({str(self.directory)!r}, "
            f"role={self.role!r}, source={self.source!r})"
        )


# -- the ambient recorder ---------------------------------------------------

_recorder: Optional[Any] = None
_env_resolved = False


def get_recorder() -> Any:
    """The process-wide recorder; the no-op singleton unless installed.

    When nothing has been installed explicitly, ``$REPRO_TELEMETRY``
    (checked once per process) enables a recorder at that directory —
    the ambient path for tooling that never touches the CLI flags.
    """
    global _recorder, _env_resolved
    if _recorder is not None:
        return _recorder
    if not _env_resolved:
        _env_resolved = True
        directory = os.environ.get(TELEMETRY_ENV)
        if directory:
            _recorder = TelemetryRecorder(directory, role="ambient")
            return _recorder
    return NULL_RECORDER


def install_recorder(
    directory: Union[str, Path],
    role: str = "parent",
    source: Optional[str] = None,
    torn_write_rate: float = 0.0,
) -> TelemetryRecorder:
    """Install (and return) a live recorder for this process."""
    global _recorder
    if _recorder is not None and _recorder is not NULL_RECORDER:
        _recorder.close()
    _recorder = TelemetryRecorder(
        directory, role=role, source=source, torn_write_rate=torn_write_rate
    )
    return _recorder


def set_recorder(recorder: Any) -> None:
    """Install an arbitrary recorder object (tests, custom sinks)."""
    global _recorder
    _recorder = recorder


def ensure_recorder(directory: Optional[Union[str, Path]],
                    role: str = "parent") -> Any:
    """Install from ``directory`` unless a live recorder already exists.

    The campaign layer's entry point: the ambient
    ``ExecutionConfig.telemetry_dir`` enables telemetry for library
    callers that never went through the CLI, without double-installing
    over a recorder the CLI (or a test) already set up.
    """
    if _recorder is None and directory:
        # Nothing installed: the explicit directory and role win over an
        # ambient ``$REPRO_TELEMETRY`` recorder.
        return install_recorder(directory, role=role)
    current = get_recorder()
    if current.enabled or not directory:
        return current
    return install_recorder(directory, role=role)


def reset_recorder() -> None:
    """Close and drop the installed recorder (tests, CLI teardown)."""
    global _recorder, _env_resolved
    if _recorder is not None and _recorder is not NULL_RECORDER:
        try:
            _recorder.close()
        except Exception:  # pragma: no cover - defensive
            pass
    _recorder = None
    _env_resolved = False


def _forget_inherited_recorder() -> None:
    """After a fork, drop the recorder the parent process created.

    Kept, it would write the child's records through the parent's file
    handle, stamped with the parent's source and role.  Dropped, the
    child arms its own: the pool initializer through
    :func:`ensure_recorder`, otherwise ``$REPRO_TELEMETRY``.
    """
    global _recorder, _env_resolved
    if getattr(_recorder, "pid", os.getpid()) != os.getpid():
        _recorder = None
        _env_resolved = False


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_inherited_recorder)
