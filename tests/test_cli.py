"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_every_artifact(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "fig04" in out and "fig18" in out


class TestRun:
    def test_run_table(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Code distribution" in out
        assert "64 bytes" in out

    def test_run_quick_figure(self, capsys):
        assert main(["run", "fig07"]) == 0
        out = capsys.readouterr().out
        assert "fig07" in out
        assert "scale=fast" in out

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["run", "fig99"])

    def test_unknown_scale_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "fig07", "--scale", "huge"])


class TestRunAll:
    def test_run_all_writes_report(self, tmp_path, monkeypatch):
        # Shrink the fast scale to the smoke-test preset so run-all stays
        # unit-test sized.
        from repro.experiments.scale import Scale
        from tests.experiments.test_figures_smoke import TINY

        monkeypatch.setattr(Scale, "fast", classmethod(lambda cls: TINY))
        out = tmp_path / "report.txt"
        assert main(["run-all", "--out", str(out)]) == 0
        text = out.read_text()
        assert "table1" in text
        assert "fig18" in text


class _Interrupted:
    def run(self, scale):
        raise KeyboardInterrupt


def interrupted_run_all(monkeypatch, capsys, argv, experiment_ids):
    """Run ``run-all`` with fig04 interrupted; returns its stderr."""
    import repro.cli as cli

    real_get = cli.get_experiment

    def fake_get(experiment_id):
        if experiment_id == "fig04":
            return _Interrupted()
        return real_get(experiment_id)

    monkeypatch.setattr(cli, "all_experiment_ids", lambda: experiment_ids)
    monkeypatch.setattr(cli, "get_experiment", fake_get)
    assert main(["run-all", *argv]) == 130
    return capsys.readouterr().err


class TestRunAllInterrupt:
    def test_keyboard_interrupt_prints_the_rerun_command(
        self, tmp_path, monkeypatch, capsys
    ):
        err = interrupted_run_all(
            monkeypatch, capsys,
            ["--cache-dir", str(tmp_path), "--jobs", "2"],
            ["table1", "fig04"],
        )
        assert "interrupted." in err
        assert "experiments finished: 1/2" in err
        assert "remaining: fig04" in err
        assert "completed points are saved" in err
        # Resuming is rerunning: the plain command, nothing added.
        assert (
            f"\n    pbbf-experiments run-all --jobs 2 --cache-dir {tmp_path}\n"
            in err
        )

    def test_no_cache_interrupt_says_a_rerun_starts_over(
        self, monkeypatch, capsys
    ):
        err = interrupted_run_all(
            monkeypatch, capsys, ["--no-cache"], ["table1", "fig04"]
        )
        assert "interrupted." in err
        assert "nothing was saved (--no-cache); a rerun starts over" in err
        assert "completed points are saved" not in err
        assert "pbbf-experiments run-all" not in err

    def test_rerun_invocation_reflects_retry_flags(
        self, tmp_path, monkeypatch, capsys
    ):
        err = interrupted_run_all(
            monkeypatch, capsys,
            [
                "--cache-dir", str(tmp_path),
                "--max-retries", "5", "--on-exhausted", "skip",
            ],
            ["fig04"],
        )
        assert "--max-retries 5" in err
        assert "--on-exhausted skip" in err

    def test_printed_command_picks_up_from_the_cache(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.cli as cli
        from repro.runners import clear_run_caches

        clear_run_caches()
        err = interrupted_run_all(
            monkeypatch, capsys,
            ["--cache-dir", str(tmp_path / "cache")],
            ["fig07", "fig04"],
        )
        [command] = [
            line.strip()
            for line in err.splitlines()
            if line.strip().startswith("pbbf-experiments run-all")
        ]
        monkeypatch.setattr(cli, "all_experiment_ids", lambda: ["fig07"])
        clear_run_caches()  # the rerun is a fresh process
        assert main(command.split()[1:]) == 0
        out = capsys.readouterr().out
        assert "campaign points: 0 simulated" in out


class TestFaultToleranceFlags:
    def test_retry_flags_accepted(self, capsys):
        assert main(
            [
                "run", "fig07", "--no-cache", "--max-retries", "1",
                "--task-timeout-s", "300", "--on-exhausted", "skip",
            ]
        ) == 0
        assert "fig07" in capsys.readouterr().out

    def test_negative_retries_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig07", "--max-retries", "-1"])

    def test_zero_timeout_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig07", "--task-timeout-s", "0"])

    def test_unknown_exhaustion_action_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig07", "--on-exhausted", "explode"])


class TestChart:
    def test_chart_flag_renders(self, capsys):
        assert main(["run", "fig07", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "reliability" in out
        assert "|" in out  # chart frame

    def test_chart_flag_on_table_explains(self, capsys):
        assert main(["run", "table1", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "no chart" in out


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestRemovedSurface:
    """The sharded queue's flags, subcommands, ``--profile``, the pareto
    ``--watch-frontier`` stream view, the kernel switches and the
    evict-on-insert cache budget are gone."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "table1", "--backend", "serial"],
            ["run", "table1", "--queue", "q"],
            ["run", "table1", "--lease-block", "4"],
            ["run", "table1", "--profile"],
            ["run-all", "--profile"],
            ["run-all", "--backend", "pool"],
            ["pareto", "--backend", "sharded"],
            ["worker", "--queue", "q"],
            ["queue", "status", "--queue", "q"],
            ["queue", "compact", "--queue", "q"],
            ["pareto", "--watch-frontier"],
            ["run", "table1", "--no-fast-path"],
            ["run", "table1", "--no-detailed-fast-path"],
            ["run", "table1", "--cache-max-size-mb", "64"],
            ["run-all", "--no-fast-path"],
            ["run-all", "--no-detailed-fast-path"],
            ["run-all", "--cache-max-size-mb", "64"],
        ],
        ids=[
            "run-backend", "run-queue", "run-lease-block", "run-profile",
            "run-all-profile", "run-all-backend", "pareto-backend",
            "worker", "queue-status", "queue-compact",
            "pareto-watch-frontier",
            "run-no-fast-path", "run-no-detailed-fast-path",
            "run-cache-max-size-mb", "run-all-no-fast-path",
            "run-all-no-detailed-fast-path", "run-all-cache-max-size-mb",
        ],
    )
    def test_exits_2_from_argparse(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err or "invalid choice" in err

    def test_seven_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "{list,scenarios,cache,trace,pareto,run,run-all}" in out


class TestProgressEta:
    """``--progress`` extrapolates from simulated points only."""

    @pytest.fixture
    def clock(self, monkeypatch):
        import time

        from repro.runners import reset_stats

        reset_stats()
        now = [100.0]
        monkeypatch.setattr(time, "monotonic", lambda: now[0])
        return now

    def _line(self, capsys):
        return capsys.readouterr().err.strip().splitlines()[-1]

    def test_cached_points_do_not_count_as_throughput(self, clock, capsys):
        from repro.cli import _progress_printer

        progress = _progress_printer()
        progress(90, 100, 90, 0)  # the cache scan served 90 at once
        assert "ETA" not in self._line(capsys)
        clock[0] += 10.0
        progress(91, 100, 90, 1)  # the first simulated point, 10 s on
        line = self._line(capsys)
        assert "91/100 points (90 cached, 1 computed)" in line
        assert line.endswith("; ETA 1m30s")  # 9 left at 10 s each

    def test_cold_campaign_eta_is_unchanged(self, clock, capsys):
        from repro.cli import _progress_printer

        progress = _progress_printer()
        progress(0, 100, 0, 0)
        clock[0] += 10.0
        progress(10, 100, 0, 10)
        assert self._line(capsys).endswith("; ETA 1m30s")

    def test_each_campaign_restarts_the_clock(self, clock, capsys):
        from repro.cli import _progress_printer

        progress = _progress_printer()
        progress(0, 10, 0, 0)
        clock[0] += 100.0
        progress(10, 10, 0, 10)  # the first campaign took 100 s
        progress(0, 100, 0, 0)  # the next one starts now
        clock[0] += 10.0
        progress(10, 100, 0, 10)
        assert self._line(capsys).endswith("; ETA 1m30s")

    def test_finished_campaign_prints_without_eta(self, clock, capsys):
        from repro.cli import _progress_printer

        progress = _progress_printer()
        progress(5, 10, 5, 0)
        clock[0] += 0.1  # inside the throttle window: the last line prints
        progress(10, 10, 5, 5)
        line = self._line(capsys)
        assert "10/10 points (5 cached, 5 computed)" in line
        assert "ETA" not in line


class TestProgressCounts:
    """Each campaign's progress lines count only its own failures."""

    def test_retries_do_not_carry_into_the_next_campaign(self, capsys):
        from repro.cli import _progress_printer
        from repro.runners import (
            CampaignSpec,
            FailurePolicy,
            FaultPlan,
            clear_run_caches,
            execution,
            reset_stats,
            run_campaign,
        )

        def spec(grid_side):
            return CampaignSpec.build(
                kind="percolation",
                axes={"reliability": (0.8, 0.9)},
                fixed={"grid_side": grid_side, "runs": 2, "process": "bond"},
                seed_params=("grid_side", "reliability"),
            )

        reset_stats()
        clear_run_caches()
        progress = _progress_printer(min_interval=0.0)
        # Every first attempt crashes, so each of the two runs retries once.
        with execution(fault_plan=FaultPlan(crash_rate=1.0)):
            run_campaign(
                spec(6),
                use_cache=False,
                progress=progress,
                failure_policy=FailurePolicy(max_retries=2),
            )
        first = capsys.readouterr().err.strip().splitlines()
        assert first[-1].endswith("(0 cached, 2 computed, 2 retried)")
        run_campaign(spec(7), use_cache=False, progress=progress)
        second = capsys.readouterr().err.strip().splitlines()
        assert second[0].endswith("0/2 points (0 cached, 0 computed)")
        assert second[-1].endswith("2/2 points (0 cached, 2 computed)")

    def test_degraded_runs_are_counted(self, capsys):
        from repro.cli import _progress_printer
        from repro.runners import (
            CampaignSpec,
            FailurePolicy,
            FaultPlan,
            clear_run_caches,
            execution,
            get_stats,
            reset_stats,
            run_campaign,
        )

        def spec(grid_side):
            return CampaignSpec.build(
                kind="percolation",
                axes={"reliability": (0.8, 0.9)},
                fixed={"grid_side": grid_side, "runs": 2, "process": "bond"},
                seed_params=("grid_side", "reliability"),
            )

        reset_stats()
        clear_run_caches()
        progress = _progress_printer(min_interval=0.0)
        # Every result comes back corrupt and no retry is allowed, so each
        # run is recomputed by a degraded attempt on the reference kernels.
        with execution(
            fault_plan=FaultPlan(corrupt_result_rate=1.0, max_attempt=99)
        ):
            run_campaign(
                spec(6),
                use_cache=False,
                progress=progress,
                failure_policy=FailurePolicy(
                    max_retries=0, on_exhausted="degrade"
                ),
            )
        first = capsys.readouterr().err.strip().splitlines()
        assert first[-1].endswith("(0 cached, 2 computed, 2 degraded)")
        stats = get_stats()
        assert (stats.degraded, stats.computed, stats.failed) == (2, 2, 0)
        run_campaign(spec(7), use_cache=False, progress=progress)
        second = capsys.readouterr().err.strip().splitlines()
        assert second[-1].endswith("2/2 points (0 cached, 2 computed)")
        reset_stats()
        assert get_stats().degraded == 0


class TestScenarios:
    def test_lists_families_and_policies(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for family in ("grid", "torus", "grid_holes", "random", "clustered"):
            assert family in out
        assert "center" in out and "max_degree" in out
        assert "failure_fraction" in out

    def test_lists_time_varying_perturbations(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "failure_times" in out
        assert "clock_skew" in out


class TestCacheSubcommand:
    def test_stats_on_empty_cache(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries: 0" in out

    def test_stats_after_a_run(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cli-cache")
        assert main(["run", "fig07", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "percolation" in out
        assert "entries: 0" not in out

    def test_purge_then_stats_empty(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cli-cache")
        assert main(["run", "fig07", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "purge", "--cache-dir", cache_dir]) == 0
        assert "purged" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_unknown_action_rejected(self):
        with pytest.raises(SystemExit):
            main(["cache", "gc"])

    def test_stats_report_quarantined_entries(self, tmp_path, capsys):
        from repro.runners import ResultCache

        cache = ResultCache(tmp_path)
        key = "ab" * 32
        cache.put(key, {"kind": "ideal", "metrics": {}})
        cache._path(key).write_text("{ torn mid-json")
        cache.get(key)  # quarantines
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "quarantined: 1 corrupt entries" in out

    def test_stats_ignore_leftovers_from_older_checkouts(self, tmp_path, capsys):
        from repro.runners import ResultCache

        ResultCache(tmp_path).put("ab" * 32, {"kind": "ideal", "metrics": {}})
        (tmp_path / "journal").mkdir()
        (tmp_path / "journal" / "campaign.jsonl").write_text("{}\n")
        (tmp_path / "objects").mkdir()
        (tmp_path / "cache.sqlite").write_bytes(b"SQLite format 3\x00")
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries: 1 " in out
        assert "journal" not in out and "objects" not in out

    def test_purge_leaves_leftovers_from_older_checkouts(self, tmp_path, capsys):
        from repro.runners import ResultCache

        ResultCache(tmp_path).put("ab" * 32, {"kind": "ideal", "metrics": {}})
        (tmp_path / "journal").mkdir()
        (tmp_path / "journal" / "campaign.jsonl").write_text("{}\n")
        (tmp_path / "cache.sqlite").write_bytes(b"SQLite format 3\x00")
        assert main(["cache", "purge", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [f"purged 1 cache entries from {tmp_path}"]
        assert (tmp_path / "journal" / "campaign.jsonl").is_file()
        assert (tmp_path / "cache.sqlite").is_file()

    def test_purge_reports_swept_tmp_files(self, tmp_path, capsys):
        import os
        import time

        from repro.runners import ResultCache

        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"kind": "ideal", "metrics": {}})
        orphan = cache._path("cd" * 32).with_suffix(".999.tmp")
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_text("x" * 64)
        stale = time.time() - 7200.0
        os.utime(orphan, (stale, stale))
        assert main(["cache", "purge", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "purged 1 cache entries" in out
        assert "swept 1 stale tmp files" in out
        assert not orphan.exists()


class TestProgressFlag:
    def test_progress_lines_reach_stderr(self, capsys):
        from repro.runners import clear_run_caches

        clear_run_caches()
        assert main(["run", "fig07", "--no-cache", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "campaign progress:" in err
        assert "computed)" in err

    def test_without_flag_no_progress_lines(self, capsys):
        assert main(["run", "fig07", "--no-cache"]) == 0
        assert "campaign progress:" not in capsys.readouterr().err


class TestExecutionFlags:
    def test_jobs_flag_runs_parallel(self, capsys):
        assert main(["run", "fig07", "--jobs", "2"]) == 0
        assert "fig07" in capsys.readouterr().out

    def test_jobs_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(["run", "fig07", "--jobs", "0"])

    def test_no_cache_flag_accepted(self, capsys):
        assert main(["run", "fig07", "--no-cache"]) == 0
        assert "fig07" in capsys.readouterr().out

    def test_cache_dir_flag_populates_directory(self, tmp_path, capsys):
        cache_dir = tmp_path / "cli-cache"
        assert main(["run", "fig07", "--cache-dir", str(cache_dir)]) == 0
        assert list(cache_dir.rglob("*.json"))

    def test_second_cached_run_all_simulates_nothing(self, tmp_path, monkeypatch, capsys):
        from repro.experiments.scale import Scale
        from repro.runners import clear_run_caches
        from tests.experiments.test_figures_smoke import TINY

        monkeypatch.setattr(Scale, "fast", classmethod(lambda cls: TINY))
        cache_dir = str(tmp_path / "run-all-cache")
        assert main(["run-all", "--cache-dir", cache_dir]) == 0
        first = capsys.readouterr().out
        assert "campaign points:" in first
        clear_run_caches()  # simulate a fresh process
        assert main(["run-all", "--cache-dir", cache_dir]) == 0
        second = capsys.readouterr().out
        assert "campaign points: 0 simulated" in second


class TestParetoSubcommand:
    def test_prints_frontier_with_knee(self, capsys):
        assert main(["pareto", "--family", "grid"]) == 0
        out = capsys.readouterr().out
        assert "pareto frontier for family 'grid'" in out
        assert "knee:" in out
        assert "pruned" in out

    def test_latency_budget_selection(self, capsys):
        assert main([
            "pareto", "--family", "grid", "--latency-budget", "1000",
        ]) == 0
        out = capsys.readouterr().out
        assert "within latency <= 1000s:" in out

    def test_infeasible_budget_reported(self, capsys):
        assert main([
            "pareto", "--family", "grid", "--latency-budget", "0.0001",
        ]) == 0
        out = capsys.readouterr().out
        assert "no frontier point meets latency" in out

    def test_lifetime_flag_switches_denomination(self, capsys):
        assert main(["pareto", "--family", "grid", "--lifetime"]) == 0
        out = capsys.readouterr().out
        assert "battery-days" in out

    def test_family_outside_scale_panel_works(self, capsys):
        assert main(["pareto", "--family", "grid_holes"]) == 0
        out = capsys.readouterr().out
        assert "pareto frontier for family 'grid_holes'" in out

    def test_impossible_coverage_returns_nonzero(self, capsys):
        assert main([
            "pareto", "--family", "grid", "--coverage", "1.1",
        ]) == 1
        out = capsys.readouterr().out
        assert "no operating point met the coverage floor" in out


class TestParetoDetailed:
    @pytest.fixture(autouse=True)
    def _tiny_fast_scale(self, monkeypatch):
        # The detailed q-sweep at true fast scale is minutes of simulation;
        # the smoke preset keeps this a unit test.
        from repro.experiments.scale import Scale
        from tests.experiments.test_figures_smoke import TINY

        monkeypatch.setattr(Scale, "fast", classmethod(lambda cls: TINY))

    def test_prints_detailed_frontier(self, capsys):
        assert main(["pareto", "--simulator", "detailed"]) == 0
        out = capsys.readouterr().out
        assert "pareto frontier for the detailed q-sweep" in out
        assert "update latency" in out
        assert "delivery >=" in out
        assert "knee:" in out

    def test_detailed_lifetime_denomination(self, capsys):
        assert main([
            "pareto", "--simulator", "detailed", "--lifetime",
        ]) == 0
        out = capsys.readouterr().out
        assert "battery-days" in out

    def test_detailed_latency_budget(self, capsys):
        assert main([
            "pareto", "--simulator", "detailed", "--latency-budget", "1000",
        ]) == 0
        out = capsys.readouterr().out
        assert "within latency <= 1000s:" in out

    def test_detailed_impossible_floor_returns_nonzero(self, capsys):
        assert main([
            "pareto", "--simulator", "detailed", "--coverage", "1.1",
        ]) == 1
        out = capsys.readouterr().out
        assert "no operating point met the delivery floor" in out

    def test_unknown_simulator_rejected(self):
        with pytest.raises(SystemExit):
            main(["pareto", "--simulator", "quantum"])

    def test_explicit_family_rejected_for_detailed(self, capsys):
        assert main([
            "pareto", "--simulator", "detailed", "--family", "torus",
        ]) == 2
        err = capsys.readouterr().err
        assert "--family applies to the ideal simulator only" in err

