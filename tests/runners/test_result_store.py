"""The result cache as the campaign runner's one result store.

Every computed point is persisted as one JSON file under
``<root>/points/<key[:2]>/<key>.json`` and nowhere else.  Resuming an
interrupted campaign, ``cache stats`` and ``cache purge`` all lean on
the read/write contract pinned here: atomic whole-entry writes, reads
that miss (never raise) on anything damaged or foreign, and lifecycle
operations that touch only ``points/``.
"""

import hashlib
import json
import multiprocessing
import os
import time
import warnings

import pytest

from repro import obs
from repro.runners.cache import CACHE_VERSION, ResultCache
from repro.runners.points import metrics_from_dict


def key(i):
    """A run-key-shaped hex digest; distinct ``i`` spread over shards."""
    return hashlib.sha256(f"point-{i}".encode()).hexdigest()


def payload(i, kind="percolation"):
    return {
        "kind": kind,
        "params": {"grid_side": i},
        "seed": i,
        "metrics": {"value": float(i)},
    }


def write_leftovers(root):
    """Files an older checkout's extra stores left beside ``points/``."""
    (root / "objects" / "ab").mkdir(parents=True)
    (root / "objects" / "ab" / ("ab" * 32)).write_text("[1, 2, 3]")
    (root / "journal").mkdir()
    (root / "journal" / "campaign.jsonl").write_text(
        json.dumps({"key": key(0), "metrics": {"value": 0.0}}) + "\n"
    )
    (root / "cache.sqlite").write_bytes(b"SQLite format 3\x00" + b"\x00" * 64)


class TestRoundTrip:
    def test_put_then_get_returns_the_payload_stamped_with_the_version(
        self, tmp_path
    ):
        cache = ResultCache(tmp_path)
        cache.put(key(1), payload(1))
        stored = cache.get(key(1))
        assert stored == {**payload(1), "version": CACHE_VERSION}

    def test_put_leaves_the_callers_payload_untouched(self, tmp_path):
        original = payload(1)
        ResultCache(tmp_path).put(key(1), original)
        assert original == payload(1)
        assert "version" not in original

    def test_overwrite_replaces_the_entry_in_place(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(key(1), payload(1))
        cache.put(key(1), payload(2))
        assert cache.get(key(1))["metrics"] == {"value": 2.0}
        assert list(cache.entry_paths()) == [cache._path(key(1))]

    def test_entry_lives_in_its_key_prefix_shard(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(key(1), payload(1))
        expected = tmp_path / "points" / key(1)[:2] / f"{key(1)}.json"
        assert expected.is_file()
        assert json.loads(expected.read_text())["seed"] == 1

    def test_entry_bytes_do_not_depend_on_dict_order(self, tmp_path):
        forward = ResultCache(tmp_path / "a")
        backward = ResultCache(tmp_path / "b")
        forward.put(key(1), payload(1))
        backward.put(key(1), dict(reversed(list(payload(1).items()))))
        assert (
            forward._path(key(1)).read_bytes()
            == backward._path(key(1)).read_bytes()
        )

    def test_missing_key_is_a_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(key(1), payload(1))
        assert cache.get(key(2)) is None
        assert key(2) not in cache
        assert cache.quarantined == 0
        assert cache.stats().n_quarantined == 0

    def test_has_probes_existence_while_membership_validates(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(key(1), payload(1))
        cache._path(key(1)).write_text("{ torn")
        assert cache.has(key(1))
        assert key(1) not in cache  # the read quarantines the entry
        assert not cache.has(key(1))
        assert cache.quarantined == 1

    def test_reads_leave_a_missing_root_uncreated(self, tmp_path):
        root = tmp_path / "never-written"
        cache = ResultCache(root)
        assert cache.get(key(1)) is None
        assert cache.get_many([key(1), key(2)]) == {}
        assert not cache.has(key(1))
        assert cache.stats().n_entries == 0
        assert not root.exists()


class TestGetMany:
    def test_returns_only_the_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in (1, 3):
            cache.put(key(i), payload(i))
        found = cache.get_many([key(i) for i in range(5)])
        assert sorted(found) == sorted([key(1), key(3)])
        assert found[key(3)]["metrics"] == {"value": 3.0}

    def test_agrees_with_one_get_per_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(0, 40, 2):
            cache.put(key(i), payload(i))
        stale = cache._path(key(4))
        stale.write_text(json.dumps({**payload(4), "version": CACHE_VERSION + 1}))
        keys = [key(i) for i in range(40)]
        expected = {
            k: cache.get(k) for k in keys if cache.get(k) is not None
        }
        assert cache.get_many(keys) == expected
        assert len(expected) == 19  # 20 written, one from another era

    def test_empty_key_list_reads_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(key(1), payload(1))
        assert cache.get_many([]) == {}

    def test_duplicate_keys_collapse_to_one_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(key(1), payload(1))
        assert list(cache.get_many([key(1), key(1), key(1)])) == [key(1)]

    def test_corrupt_entries_are_quarantined_during_the_scan(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(4):
            cache.put(key(i), payload(i))
        cache._path(key(1)).write_text("{ torn")
        cache._path(key(2)).write_text(json.dumps([1, 2]))
        found = cache.get_many([key(i) for i in range(4)])
        assert sorted(found) == sorted([key(0), key(3)])
        assert cache.quarantined == 2
        assert cache._path(key(1)).with_suffix(".corrupt").is_file()
        assert cache._path(key(2)).with_suffix(".corrupt").is_file()

    def test_version_mismatched_entries_are_misses_left_in_place(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(key(1), payload(1))
        path = cache._path(key(1))
        path.write_text(json.dumps({**payload(1), "version": CACHE_VERSION + 1}))
        assert cache.get_many([key(1)]) == {}
        assert path.is_file()
        assert cache.quarantined == 0


class TestLeftoversFromOlderCheckouts:
    """``objects/``, ``journal/`` and ``cache.sqlite`` are never read."""

    def test_stats_ignore_them(self, tmp_path):
        clean = ResultCache(tmp_path / "clean")
        cluttered = ResultCache(tmp_path / "cluttered")
        for cache in (clean, cluttered):
            for i in range(3):
                cache.put(key(i), payload(i))
        write_leftovers(cluttered.root)
        before, after = clean.stats(), cluttered.stats()
        assert (after.n_entries, after.total_bytes, after.n_stale) == (
            before.n_entries, before.total_bytes, before.n_stale
        )
        assert after.by_kind == before.by_kind == (("percolation", 3),)

    def test_full_purge_leaves_them_and_the_root(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(key(0), payload(0))
        write_leftovers(tmp_path)
        assert cache.purge() == 1
        assert (tmp_path / "cache.sqlite").is_file()
        assert (tmp_path / "journal" / "campaign.jsonl").is_file()
        assert (tmp_path / "objects" / "ab" / ("ab" * 32)).is_file()

    def test_reads_never_consult_them(self, tmp_path):
        write_leftovers(tmp_path)
        cache = ResultCache(tmp_path)
        # The leftover journal line names key(0); only points/ can serve it.
        assert cache.get(key(0)) is None
        assert cache.get_many([key(0)]) == {}

    def test_object_reference_metrics_fail_to_decode(self):
        # What ``run_campaign`` relies on to recompute such an entry.
        with pytest.raises(TypeError):
            metrics_from_dict("percolation", {"__object__": "ef" * 32})


class TestStats:
    def test_total_bytes_is_the_sum_of_entry_file_sizes(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(5):
            cache.put(key(i), payload(i))
        sizes = sum(path.stat().st_size for path in cache.entry_paths())
        stats = cache.stats()
        assert stats.n_entries == 5
        assert stats.total_bytes == sizes

    def test_kinds_are_counted_and_name_sorted(self, tmp_path):
        cache = ResultCache(tmp_path)
        kinds = ["percolation", "detailed", "ideal", "ideal", "detailed", "ideal"]
        for i, kind in enumerate(kinds):
            cache.put(key(i), payload(i, kind=kind))
        assert cache.stats().by_kind == (
            ("detailed", 2), ("ideal", 3), ("percolation", 1),
        )

    def test_entry_without_a_kind_counts_under_a_question_mark(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(key(1), {"metrics": {}})
        assert cache.stats().by_kind == (("?", 1),)

    def test_tmp_files_are_not_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(key(1), payload(1))
        orphan = cache._path(key(2)).with_suffix(".4242.tmp")
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_text("{ half")
        stats = cache.stats()
        assert stats.n_entries == 1 and stats.n_stale == 0

    def test_quarantined_files_are_counted_apart_from_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(key(i), payload(i))
        cache._path(key(0)).write_text("{ torn")
        cache.get(key(0))
        stats = cache.stats()
        assert stats.n_entries == 2
        assert stats.n_quarantined == 1
        assert stats.n_stale == 0


class TestPurge:
    def test_purge_removes_emptied_shard_directories(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(4):
            cache.put(key(i), payload(i))
        cache.purge()
        assert list((tmp_path / "points").iterdir()) == []

    def test_purge_of_a_missing_root_removes_nothing(self, tmp_path):
        root = tmp_path / "absent"
        report = ResultCache(root).purge(max_size_mb=0.0)
        assert report == 0
        assert (report.tmp_swept, report.corrupt_swept) == (0, 0)
        assert not root.exists()

    def test_size_purge_breaks_mtime_ties_by_path(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = [key(i) for i in range(6)]
        for i, k in enumerate(keys):
            cache.put(k, payload(i))
        stamp = time.time() - 60.0
        for path in cache.entry_paths():
            os.utime(path, (stamp, stamp))
        by_path = sorted(keys, key=lambda k: str(cache._path(k)))
        budget_mb = sum(
            cache._path(k).stat().st_size for k in by_path[3:]
        ) / (1024.0 * 1024.0)
        assert cache.purge(max_size_mb=budget_mb) == 3
        assert [cache.has(k) for k in by_path] == [False] * 3 + [True] * 3


class TestDegraded:
    def test_put_reports_whether_it_wrote(self, tmp_path):
        assert ResultCache(tmp_path).put(key(1), payload(1)) is True
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        cache = ResultCache(blocker)
        with pytest.warns(RuntimeWarning, match="not writable"):
            assert cache.put(key(1), payload(1)) is False
        assert cache.put(key(2), payload(2)) is False

    def test_unwritable_root_degrades_with_one_warning(self, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        cache = ResultCache(blocker)
        with pytest.warns(RuntimeWarning, match="not writable"):
            cache.put(key(1), payload(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache.put(key(2), payload(2))  # already degraded: silent
        assert cache.get(key(1)) is None
        assert blocker.read_text() == ""

    def test_degradation_is_announced_once_in_telemetry(self, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        recorder = obs.TelemetryRecorder(tmp_path / "telemetry", role="parent")
        obs.set_recorder(recorder)
        try:
            cache = ResultCache(blocker)
            with pytest.warns(RuntimeWarning):
                for i in range(3):
                    cache.put(key(i), payload(i))
        finally:
            obs.reset_recorder()
        records = list(obs.iter_events(tmp_path / "telemetry"))
        assert [(r["type"], r["name"], r["tier"]) for r in records] == [
            ("event", "cache.degraded", "file")
        ]


class TestTelemetry:
    def test_quarantine_is_counted_and_announced(self, tmp_path):
        recorder = obs.TelemetryRecorder(tmp_path / "telemetry", role="parent")
        obs.set_recorder(recorder)
        try:
            cache = ResultCache(tmp_path / "cache")
            cache.put(key(1), payload(1))
            cache._path(key(1)).write_text("{ torn")
            assert cache.get(key(1)) is None
            assert cache.get(key(1)) is None  # moved aside: a plain miss
        finally:
            obs.reset_recorder()
        records = list(obs.iter_events(tmp_path / "telemetry"))
        assert [(r["type"], r["name"]) for r in records] == [
            ("event", "cache.quarantine")
        ]
        assert records[0]["entry"] == key(1)[:12]
        assert cache.quarantined == 1


N_KEYS = 12
N_ROUNDS = 15
N_WRITERS = 3


def _writer(root, writer_id):
    """Rewrite every shared key ``N_ROUNDS`` times with this writer's tag."""
    cache = ResultCache(root)
    for round_ in range(N_ROUNDS):
        for i in range(N_KEYS):
            cache.put(
                key(i),
                {**payload(i), "writer": writer_id, "round": round_},
            )


def _run_writers(root, during=None):
    """Run the writer processes; ``during()`` is polled while they live."""
    context = multiprocessing.get_context()
    procs = [
        context.Process(target=_writer, args=(str(root), writer_id))
        for writer_id in range(N_WRITERS)
    ]
    for proc in procs:
        proc.start()
    try:
        while any(proc.is_alive() for proc in procs):
            if during is not None:
                during()
            else:
                time.sleep(0.01)
    finally:
        for proc in procs:
            proc.join(timeout=60)
    assert [proc.exitcode for proc in procs] == [0] * N_WRITERS


class TestConcurrentWriters:
    """Several processes sharing one cache directory (atomic replace)."""

    def test_readers_never_see_a_torn_entry(self, tmp_path):
        reader = ResultCache(tmp_path)
        seen = []

        def read_all():
            for i in range(N_KEYS):
                entry = reader.get(key(i))
                if entry is not None:
                    seen.append(entry)

        _run_writers(tmp_path, during=read_all)
        read_all()
        assert reader.quarantined == 0
        assert reader.stats().n_quarantined == 0
        assert len(seen) >= N_KEYS
        assert all(entry["version"] == CACHE_VERSION for entry in seen)

    def test_last_writer_wins_whole_and_no_tmp_files_remain(self, tmp_path):
        _run_writers(tmp_path)
        cache = ResultCache(tmp_path)
        for i in range(N_KEYS):
            entry = cache.get(key(i))
            assert entry["metrics"] == {"value": float(i)}
            assert entry["writer"] in range(N_WRITERS)
            assert entry["round"] == N_ROUNDS - 1
        assert list((tmp_path / "points").glob("*/*.tmp")) == []
        stats = cache.stats()
        assert (stats.n_entries, stats.n_stale) == (N_KEYS, 0)
