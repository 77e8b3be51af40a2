"""Age/size-based cache eviction (`cache purge --max-age-days/--max-size-mb`)."""

import json
import os
import time

import pytest

from repro.runners.cache import CACHE_VERSION, ResultCache


def seed_entries(cache, n, size_bytes=200, age_step_days=1.0, now=None):
    """Write ``n`` valid entries with strictly increasing mtimes.

    Entry ``k`` is ``(n - 1 - k) * age_step_days`` days old, so entry 0
    is the oldest; each file is padded to roughly ``size_bytes``.
    """
    now = now if now is not None else time.time()
    keys = []
    for k in range(n):
        key = f"{k:02d}" + "ab" * 31
        payload = {
            "kind": "ideal",
            "metrics": {},
            "pad": "x" * max(0, size_bytes - 60),
        }
        cache.put(key, payload)
        age_days = (n - 1 - k) * age_step_days
        mtime = now - age_days * 86_400.0
        os.utime(cache._path(key), (mtime, mtime))
        keys.append(key)
    return keys


class TestAgeEviction:
    def test_old_entries_go_young_stay(self, tmp_path):
        cache = ResultCache(tmp_path)
        now = time.time()
        keys = seed_entries(cache, 5, age_step_days=1.0, now=now)
        removed = cache.purge(max_age_days=2.5, now=now)
        assert removed == 2  # ages 4 and 3 days exceed 2.5
        assert not cache.has(keys[0]) and not cache.has(keys[1])
        assert all(cache.has(k) for k in keys[2:])

    def test_zero_days_evicts_everything_aged(self, tmp_path):
        cache = ResultCache(tmp_path)
        now = time.time()
        seed_entries(cache, 3, age_step_days=1.0, now=now)
        removed = cache.purge(max_age_days=0.0, now=now)
        assert removed == 2  # the newest entry is exactly age 0: kept

    def test_negative_age_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_age_days"):
            ResultCache(tmp_path).purge(max_age_days=-1)


class TestSizeEviction:
    def test_oldest_evicted_first_until_budget(self, tmp_path):
        cache = ResultCache(tmp_path)
        now = time.time()
        keys = seed_entries(cache, 4, size_bytes=300, now=now)
        sizes = [cache._path(k).stat().st_size for k in keys]
        budget_mb = (sizes[2] + sizes[3]) / (1024.0 * 1024.0)
        removed = cache.purge(max_size_mb=budget_mb, now=now)
        assert removed == 2
        assert not cache.has(keys[0]) and not cache.has(keys[1])
        assert cache.has(keys[2]) and cache.has(keys[3])

    def test_under_budget_removes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        seed_entries(cache, 3)
        assert cache.purge(max_size_mb=10.0) == 0
        assert cache.stats().n_entries == 3

    def test_zero_budget_clears_all(self, tmp_path):
        cache = ResultCache(tmp_path)
        seed_entries(cache, 3)
        assert cache.purge(max_size_mb=0.0) == 3
        assert cache.stats().n_entries == 0

    def test_negative_size_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_size_mb"):
            ResultCache(tmp_path).purge(max_size_mb=-0.5)


class TestCombinedAndCompat:
    def test_age_then_size_compose(self, tmp_path):
        cache = ResultCache(tmp_path)
        now = time.time()
        keys = seed_entries(cache, 6, size_bytes=250, age_step_days=1.0, now=now)
        survivor_size = cache._path(keys[5]).stat().st_size
        removed = cache.purge(
            max_age_days=3.5,  # drops ages 5 and 4 (entries 0, 1)
            max_size_mb=2 * survivor_size / (1024.0 * 1024.0),
            now=now,
        )
        assert removed == 4
        assert [k for k in keys if cache.has(k)] == keys[4:]

    def test_no_criteria_purges_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        seed_entries(cache, 4)
        assert cache.purge() == 4
        assert cache.stats().n_entries == 0

    def test_purged_entries_read_as_misses_not_errors(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = seed_entries(cache, 2)
        cache.purge(max_size_mb=0.0)
        assert cache.get(keys[0]) is None

    def test_valid_entries_survive_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        now = time.time()
        keys = seed_entries(cache, 2, age_step_days=10.0, now=now)
        cache.purge(max_age_days=15.0, now=now)
        payload = cache.get(keys[1])
        assert payload is not None and payload["version"] == CACHE_VERSION


class TestQuarantine:
    def test_corrupt_entry_moved_aside_not_reread(self, tmp_path):
        cache = ResultCache(tmp_path)
        (key,) = seed_entries(cache, 1)
        cache._path(key).write_text("{ torn mid-json")
        assert cache.get(key) is None
        assert not cache._path(key).exists()  # no eternal corrupt miss
        assert cache._path(key).with_suffix(".corrupt").exists()
        assert cache.quarantined == 1

    def test_wrong_shape_quarantined_version_mismatch_not(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = seed_entries(cache, 2)
        cache._path(keys[0]).write_text(json.dumps(["not", "a", "dict"]))
        old = json.loads(cache._path(keys[1]).read_text())
        old["version"] = CACHE_VERSION + 1
        cache._path(keys[1]).write_text(json.dumps(old))
        assert cache.get(keys[0]) is None and cache.get(keys[1]) is None
        # Damage is quarantined; a different-era entry is a plain miss.
        assert cache.quarantined == 1
        assert cache._path(keys[1]).exists()

    def test_stats_count_quarantined_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        (key,) = seed_entries(cache, 1)
        cache._path(key).write_text("garbage")
        cache.get(key)
        assert cache.stats().n_quarantined == 1
        assert cache.stats().n_entries == 0

    def test_full_purge_clears_the_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        (key,) = seed_entries(cache, 1)
        cache._path(key).write_text("garbage")
        cache.get(key)
        report = cache.purge()
        assert report.corrupt_swept == 1
        assert cache.stats().n_quarantined == 0

    def test_criteria_purge_keeps_the_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = seed_entries(cache, 2)
        cache._path(keys[0]).write_text("garbage")
        cache.get(keys[0])
        report = cache.purge(max_size_mb=10.0)
        assert report.corrupt_swept == 0
        assert cache.stats().n_quarantined == 1


class TestTmpSweep:
    def _orphan_tmp(self, cache, key, age_s, now, size=100):
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".12345.tmp")
        tmp.write_text("x" * size)
        os.utime(tmp, (now - age_s, now - age_s))
        return tmp

    def test_stale_tmp_swept_fresh_kept(self, tmp_path):
        cache = ResultCache(tmp_path)
        now = time.time()
        stale = self._orphan_tmp(cache, "aa" * 32, 7200.0, now, size=150)
        fresh = self._orphan_tmp(cache, "bb" * 32, 10.0, now)
        report = cache.purge(max_size_mb=10.0, now=now)
        assert report.tmp_swept == 1
        assert report.tmp_bytes == 150
        assert not stale.exists() and fresh.exists()

    def test_tmp_age_threshold_is_overridable(self, tmp_path):
        cache = ResultCache(tmp_path)
        now = time.time()
        tmp = self._orphan_tmp(cache, "aa" * 32, 30.0, now)
        assert cache.purge(max_size_mb=10.0, now=now, tmp_age_s=5.0).tmp_swept == 1
        assert not tmp.exists()

    def test_purge_report_is_int_compatible(self, tmp_path):
        cache = ResultCache(tmp_path)
        seed_entries(cache, 2)
        report = cache.purge()
        assert report == 2 and report + 1 == 3
        assert f"{report}" == "2"  # formats as the count it replaces


class TestCliFlags:
    def test_purge_flags_reach_the_cache(self, tmp_path, capsys):
        from repro.cli import main

        cache = ResultCache(tmp_path)
        now = time.time()
        seed_entries(cache, 3, age_step_days=10.0, now=now)
        code = main([
            "cache", "purge", "--cache-dir", str(tmp_path),
            "--max-age-days", "15",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "purged 1 cache entries" in out  # only the 20-day entry
        assert "older than 15 days" in out
        assert cache.stats().n_entries == 2

    def test_size_flag_output_mentions_budget(self, tmp_path, capsys):
        from repro.cli import main

        cache = ResultCache(tmp_path)
        seed_entries(cache, 2)
        code = main([
            "cache", "purge", "--cache-dir", str(tmp_path),
            "--max-size-mb", "0",
        ])
        assert code == 0
        assert "shrunk to 0 MiB" in capsys.readouterr().out
        assert cache.stats().n_entries == 0

    def test_negative_flag_rejected(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "cache", "purge", "--cache-dir", str(tmp_path),
            "--max-age-days", "-2",
        ])
        assert code == 2


class TestNoWriteBudget:
    """Writes never evict: ``purge`` is the one way to shrink the cache."""

    def test_max_size_mb_is_not_a_constructor_argument(self, tmp_path):
        with pytest.raises(TypeError):
            ResultCache(tmp_path, max_size_mb=64.0)
