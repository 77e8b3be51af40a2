"""On-disk result cache for campaign points.

Every simulated point is stored as one small JSON file keyed by the
content hash of its point spec (simulator kind + full parameters + seed),
so re-running a campaign only computes points whose spec actually changed.
Files live under ``~/.cache/repro`` by default; override with the
``REPRO_CACHE_DIR`` environment variable or the CLI's ``--cache-dir``.

This is the campaign runner's one result store: ``run_campaign`` writes
each computed point here the moment it completes, so an interrupted
campaign resumes by simply running again against the same directory —
every finished point reads back as a hit.

The cache is strictly a performance layer: a version-mismatched entry
reads as a miss and the point is recomputed.  A *corrupt* entry (torn
JSON, wrong shape) also reads as a miss, but is additionally quarantined
— renamed to ``<key>.corrupt`` — so the damage is visible in ``cache
stats`` and the bad file can never be re-read as a miss forever.
Writes are atomic (temp file + ``os.replace``) so a crashed run never
leaves a half-written entry behind; tmp files orphaned by a killed
writer are swept by ``purge`` once they are stale.

Writes never evict: ``purge`` (the CLI's ``cache purge
--max-age-days/--max-size-mb``) is the one way to shrink the cache.  A
full-scale run of every figure stores about 3,200 entries of about
430 bytes each.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.obs import get_recorder
from repro.runners.faults import cache_write_corrupted

#: Bumped whenever the serialized payload layout or the semantics of a
#: cached metric change; old entries then read as misses.
CACHE_VERSION = 1


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


@dataclass(frozen=True)
class CacheStats:
    """What ``ResultCache.stats`` reports about a cache directory."""

    root: str
    #: Readable entry files found (stale ones included).
    n_entries: int
    total_bytes: int
    #: Entries that would read as misses (corrupt or version-mismatched).
    n_stale: int
    #: Valid entries per simulator kind, name-sorted.
    by_kind: Tuple[Tuple[str, int], ...]
    #: ``<key>.corrupt`` files quarantined by earlier corrupt reads.
    n_quarantined: int = 0


class PurgeReport(int):
    """``ResultCache.purge``'s return value: the removed-entry count,
    plus what the stale-tmp/quarantine sweeps reclaimed.

    An ``int`` subclass so existing ``purge(...) == n`` call sites keep
    working unchanged; the sweep details ride along as attributes.
    """

    tmp_swept: int
    tmp_bytes: int
    corrupt_swept: int

    def __new__(
        cls,
        removed: int,
        tmp_swept: int = 0,
        tmp_bytes: int = 0,
        corrupt_swept: int = 0,
    ) -> "PurgeReport":
        self = super().__new__(cls, removed)
        self.tmp_swept = tmp_swept
        self.tmp_bytes = tmp_bytes
        self.corrupt_swept = corrupt_swept
        return self

    def __str__(self) -> str:
        # Formats like the plain count it replaces ("purged {n} entries").
        return str(int(self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PurgeReport(removed={int(self)}, tmp_swept={self.tmp_swept}, "
            f"tmp_bytes={self.tmp_bytes}, corrupt_swept={self.corrupt_swept})"
        )


class ResultCache:
    """JSON-file cache of point results, sharded by key prefix."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        #: Corrupt entries this instance moved aside (see ``_quarantine``).
        self.quarantined = 0
        self._write_failed = False

    def _path(self, key: str) -> Path:
        return self.root / "points" / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or ``None`` on any miss.

        A missing or version-mismatched entry is a plain miss; an entry
        that is *corrupt* — unparsable JSON, or parsable but not shaped
        like a result — is quarantined to ``<key>.corrupt`` so it stops
        masquerading as an eternal miss and shows up in :meth:`stats`.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError:
            return None
        except ValueError:
            self._quarantine(path)
            return None
        if not isinstance(payload, dict):
            self._quarantine(path)
            return None
        if payload.get("version") != CACHE_VERSION:
            return None  # a different-era entry, not a damaged one
        if "metrics" not in payload:
            self._quarantine(path)
            return None
        return payload

    def get_many(self, keys: Sequence[str]) -> Dict[str, Dict[str, Any]]:
        """Payloads for every hit among ``keys`` (misses simply absent).

        One ``open`` per key; the campaign scan reads through this entry
        point, so the whole disk probe of a campaign is one call.
        """
        found: Dict[str, Dict[str, Any]] = {}
        for key in keys:
            payload = self.get(key)
            if payload is not None:
                found[key] = payload
        return found

    def _quarantine(self, path: Path) -> None:
        """Move one corrupt entry aside (best-effort, crash-race safe)."""
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            return
        self.quarantined += 1
        get_recorder().event(
            "cache.quarantine", tier="file", entry=path.stem[:12]
        )

    def put(self, key: str, payload: Dict[str, Any]) -> bool:
        """Atomically store ``payload`` (stamped with the cache version).

        Best-effort: the cache is strictly a performance layer, so an
        unwritable directory degrades to cache-off (with one warning)
        rather than failing the campaign that computed the result.
        Returns whether the entry was written.
        """
        if self._write_failed:
            return False
        record = dict(payload)
        record["version"] = CACHE_VERSION
        path = self._path(key)
        text = json.dumps(record, sort_keys=True)
        if cache_write_corrupted(key):
            # Injected torn write (see repro.runners.faults): what a
            # kill between write and rename would leave if writes were
            # not atomic — exercised so quarantine-on-read stays proven.
            text = text[: max(1, len(text) // 2)]
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except OSError as exc:
            self._write_failed = True
            get_recorder().event(
                "cache.degraded", tier="file", error=type(exc).__name__
            )
            warnings.warn(
                f"result cache at {self.root} is not writable ({exc}); "
                "continuing without caching",
                RuntimeWarning,
                stacklevel=2,
            )
            return False
        return True

    def has(self, key: str) -> bool:
        """Cheap existence probe (no parse/validation; ``get`` still may miss)."""
        return self._path(key).exists()

    # -- lifecycle ---------------------------------------------------------

    def entry_paths(self) -> Iterator[Path]:
        """Every stored entry file, in no particular order."""
        points = self.root / "points"
        if not points.is_dir():
            return
        yield from points.glob("*/*.json")

    def stats(self) -> "CacheStats":
        """Aggregate stats of the stored entries (the CLI's ``cache stats``).

        Entries that fail to parse, or were written under a different
        :data:`CACHE_VERSION` (both read as misses), are counted as
        *stale* rather than attributed to a simulator kind.
        """
        n_entries = 0
        total_bytes = 0
        stale = 0
        by_kind: Dict[str, int] = {}
        for path in self.entry_paths():
            try:
                size = path.stat().st_size
            except OSError:
                continue  # raced with a concurrent purge
            n_entries += 1
            total_bytes += size
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, ValueError):
                stale += 1
                continue
            if (
                not isinstance(payload, dict)
                or payload.get("version") != CACHE_VERSION
            ):
                stale += 1
                continue
            kind = str(payload.get("kind", "?"))
            by_kind[kind] = by_kind.get(kind, 0) + 1
        points = self.root / "points"
        n_quarantined = (
            sum(1 for _ in points.glob("*/*.corrupt")) if points.is_dir() else 0
        )
        return CacheStats(
            root=str(self.root),
            n_entries=n_entries,
            total_bytes=total_bytes,
            n_stale=stale,
            by_kind=tuple(sorted(by_kind.items())),
            n_quarantined=n_quarantined,
        )

    #: Orphaned ``.tmp`` files younger than this many seconds are left
    #: alone by the sweep — they may belong to a write in flight right
    #: now.  Atomic writes live milliseconds, so an hour is generous.
    TMP_SWEEP_AGE_S = 3600.0

    def purge(
        self,
        max_age_days: Optional[float] = None,
        max_size_mb: Optional[float] = None,
        now: Optional[float] = None,
        tmp_age_s: Optional[float] = None,
    ) -> "PurgeReport":
        """Delete stored entries; returns how many were removed.

        With no criteria every entry goes (the original ``cache purge``),
        and quarantined ``.corrupt`` files go with them.  ``max_age_days``
        evicts entries whose file modification time is older than that
        many days.  ``max_size_mb`` then shrinks whatever remains to the
        byte budget by evicting *oldest-first* (mtime, path-tie-broken),
        so full-scale result sets age out before the points a recent
        campaign just warmed.  Both criteria may be combined; ``now``
        pins the age reference for tests.

        Every purge also sweeps ``.tmp`` files orphaned by killed
        writers once they are older than ``tmp_age_s`` (default
        :data:`TMP_SWEEP_AGE_S`).  The return value is an
        ``int``-compatible :class:`PurgeReport` carrying what each sweep
        reclaimed.

        Empty shard directories are cleaned up too; the root itself is
        left in place (it may be a shared cache directory).
        """
        if max_age_days is not None and max_age_days < 0:
            raise ValueError(f"max_age_days must be >= 0, got {max_age_days}")
        if max_size_mb is not None and max_size_mb < 0:
            raise ValueError(f"max_size_mb must be >= 0, got {max_size_mb}")
        if tmp_age_s is None:
            tmp_age_s = self.TMP_SWEEP_AGE_S
        removed = 0
        entries: List[Tuple[float, int, Path]] = []
        for path in list(self.entry_paths()):
            if max_age_days is None and max_size_mb is None:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue  # raced with a concurrent purge
                continue
            try:
                stat = path.stat()
            except OSError:
                continue  # raced with a concurrent purge
            entries.append((stat.st_mtime, stat.st_size, path))
        if entries:
            reference = now if now is not None else time.time()
            survivors: List[Tuple[float, int, Path]] = []
            for mtime, size, path in entries:
                if (
                    max_age_days is not None
                    and reference - mtime > max_age_days * 86_400.0
                ):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        continue
                else:
                    survivors.append((mtime, size, path))
            if max_size_mb is not None:
                budget = max_size_mb * 1024.0 * 1024.0
                total = sum(size for _, size, _ in survivors)
                for mtime, size, path in sorted(
                    survivors, key=lambda entry: (entry[0], str(entry[2]))
                ):
                    if total <= budget:
                        break
                    try:
                        path.unlink()
                    except OSError:
                        continue
                    removed += 1
                    total -= size
        points = self.root / "points"
        reference = now if now is not None else time.time()
        tmp_swept = 0
        tmp_bytes = 0
        corrupt_swept = 0
        if points.is_dir():
            # Stale-tmp sweep: a writer killed between write and rename
            # leaves its `<key>.<pid>.tmp` behind forever (the atomic
            # protocol never reads them back).  Age-gate the sweep so a
            # concurrent writer's fresh tmp file survives.
            for tmp in points.glob("*/*.tmp"):
                try:
                    stat = tmp.stat()
                except OSError:
                    continue  # raced with a concurrent sweep
                if reference - stat.st_mtime <= tmp_age_s:
                    continue
                try:
                    tmp.unlink()
                except OSError:
                    continue
                tmp_swept += 1
                tmp_bytes += stat.st_size
            if max_age_days is None and max_size_mb is None:
                # A full purge clears the quarantine too — the damaged
                # entries it preserved as evidence go with the data.
                for corrupt in points.glob("*/*.corrupt"):
                    try:
                        corrupt.unlink()
                        corrupt_swept += 1
                    except OSError:
                        continue
            for shard in points.iterdir():
                try:
                    shard.rmdir()
                except OSError:
                    continue  # non-empty or gone
        return PurgeReport(
            removed,
            tmp_swept=tmp_swept,
            tmp_bytes=tmp_bytes,
            corrupt_swept=corrupt_swept,
        )

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache(root={str(self.root)!r})"
