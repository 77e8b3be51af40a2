"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    pbbf-experiments list
    pbbf-experiments scenarios
    pbbf-experiments run fig08 [--scale fast|full] [--jobs N] [--progress]
    pbbf-experiments run-all [--scale fast|full] [--out results.txt]
                             [--jobs N] [--cache-dir DIR] [--no-cache]
    pbbf-experiments cache stats [--cache-dir DIR]
    pbbf-experiments cache purge [--cache-dir DIR]
                                 [--max-age-days N] [--max-size-mb M]
    pbbf-experiments trace export [--telemetry DIR] [--out trace.json]
    pbbf-experiments pareto [--scale fast|full] [--simulator ideal|detailed]
                            [--family grid] [--coverage 0.9] [--lifetime]
                            [--latency-budget S]

(Equivalently: ``python -m repro.cli ...``.)

Execution flags plug into the campaign runner (:mod:`repro.runners`):
``--jobs N`` is the only execution choice — N > 1 fans simulation
points out over a pool of N worker processes, bit-identical to the
in-process ``--jobs 1`` — and results are cached on disk by content
hash, so a repeated invocation recomputes nothing unless parameters
changed.  ``--no-cache`` forces fresh simulation; ``--cache-dir``
relocates the cache (default ``~/.cache/repro`` or
``$REPRO_CACHE_DIR``), and ``cache purge --max-age-days/--max-size-mb``
is the one way to shrink it.  An interrupted ``run-all`` resumes by
running the same command again: every point it finished is already in
the cache.  No flag selects a simulator kernel; ``--on-exhausted
degrade`` is the one route to the bit-identical reference loops.
``--telemetry [DIR]`` (or ``$REPRO_TELEMETRY``) records structured
spans and events as JSONL under DIR and prints a metrics summary at
exit; ``trace export`` turns the logs into a Perfetto-loadable Chrome
trace.  Telemetry never perturbs results: campaign outputs are
bit-identical with it on, off, or crashing mid-write.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.experiments import Scale, all_experiment_ids, get_experiment
from repro.runners import FailurePolicy, execution, get_stats, reset_stats


def _scale_from_name(name: str) -> Scale:
    if name == "full":
        return Scale.full()
    if name == "fast":
        return Scale.fast()
    raise argparse.ArgumentTypeError(f"unknown scale {name!r} (use fast or full)")


def _positive_jobs(value: str) -> int:
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--jobs must be an integer, got {value!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"--jobs must be >= 1, got {jobs}")
    return jobs


def _nonnegative_int(value: str) -> int:
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--max-retries must be an integer, got {value!r}"
        )
    if count < 0:
        raise argparse.ArgumentTypeError(f"--max-retries must be >= 0, got {count}")
    return count


def _positive_seconds(value: str) -> float:
    try:
        seconds = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--task-timeout-s must be a number, got {value!r}"
        )
    if seconds <= 0:
        raise argparse.ArgumentTypeError(
            f"--task-timeout-s must be > 0, got {seconds:g}"
        )
    return seconds


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_positive_jobs, default=1,
                        help="worker processes for simulation points "
                             "(default 1: serial; N > 1 runs a process "
                             "pool; results are identical)")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory "
                             "(default ~/.cache/repro or $REPRO_CACHE_DIR)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache entirely")
    parser.add_argument("--progress", action="store_true",
                        help="print periodic campaign progress lines "
                             "(completed/total with cached vs computed) "
                             "to stderr")
    parser.add_argument("--telemetry", nargs="?", const="telemetry",
                        default=None, metavar="DIR",
                        help="record structured telemetry (phase spans, "
                             "campaign and retry events) as JSONL "
                             "under DIR (default ./telemetry; or set "
                             "$REPRO_TELEMETRY) and print a metrics "
                             "summary at exit; results are bit-identical "
                             "with telemetry on or off")
    parser.add_argument("--max-retries", type=_nonnegative_int, default=None,
                        help="re-attempts per simulation task after a "
                             "failure (worker crash, hang past the "
                             "timeout, invalid result) before the "
                             "exhaustion action applies (default 3)")
    parser.add_argument("--task-timeout-s", type=_positive_seconds,
                        default=None,
                        help="wall-clock budget per simulation task; a "
                             "task past it counts as one failed attempt "
                             "and is retried (default: no timeout)")
    parser.add_argument("--on-exhausted",
                        choices=("raise", "skip", "degrade"), default=None,
                        help="what to do with a task that stays failed "
                             "after every retry: raise (abort after the "
                             "rest of the campaign completes; default), "
                             "skip (record the failure and keep going), "
                             "or degrade (one last in-process attempt on "
                             "the reference kernels)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbbf-experiments",
        description="Regenerate the tables and figures of the PBBF paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list every experiment id")

    sub.add_parser(
        "scenarios",
        help="list registered topology families and source policies",
    )

    cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk campaign result cache"
    )
    cache.add_argument("action", choices=("stats", "purge"),
                       help="stats: entry counts and sizes; "
                            "purge: delete stored entries (all of them, "
                            "or by age/size with the flags below)")
    cache.add_argument("--cache-dir", default=None,
                       help="cache directory to operate on "
                            "(default ~/.cache/repro or $REPRO_CACHE_DIR)")
    cache.add_argument("--max-age-days", type=float, default=None,
                       help="purge only: evict entries older than this "
                            "many days (by file modification time)")
    cache.add_argument("--max-size-mb", type=float, default=None,
                       help="purge only: evict oldest entries until the "
                            "cache fits this many megabytes")

    trace = sub.add_parser(
        "trace",
        help="export recorded telemetry as a Chrome trace-event file "
             "(load in Perfetto / chrome://tracing)",
    )
    trace.add_argument("action", choices=("export",),
                       help="export: convert a telemetry directory's "
                            "JSONL event logs into one trace file")
    trace.add_argument("--telemetry", default=None, metavar="DIR",
                       help="telemetry directory to export "
                            "(default $REPRO_TELEMETRY)")
    trace.add_argument("--out", default="trace.json", metavar="FILE",
                       help="output trace file (default trace.json)")

    pareto = sub.add_parser(
        "pareto",
        help="extract the energy-latency Pareto frontier from a campaign "
             "and select operating points",
    )
    pareto.add_argument("--scale", type=_scale_from_name, default=Scale.fast(),
                        help="fast (default) or full (paper scale)")
    pareto.add_argument("--simulator", choices=("ideal", "detailed"),
                        default="ideal",
                        help="which simulator's campaign to extract the "
                             "frontier from: ideal (per-hop latency vs "
                             "energy, coverage floor; default) or "
                             "detailed (end-to-end update latency vs "
                             "energy, delivery floor, the Figures 13-16 "
                             "q-sweep campaign)")
    pareto.add_argument("--family", default=None,
                        help="scenario family to analyse (default grid; "
                             "see `pbbf-experiments scenarios`; ideal "
                             "simulator only)")
    pareto.add_argument("--coverage", type=float, default=None,
                        help="reliability floor: mean coverage (ideal) or "
                             "updates-received fraction (detailed) "
                             "(default: the scale's pareto_coverage / "
                             "pareto_delivery)")
    pareto.add_argument("--lifetime", action="store_true",
                        help="denominate energy as projected battery-days "
                             "(AA pair) instead of joules per update")
    pareto.add_argument("--latency-budget", type=float, default=None,
                        help="also report the cheapest operating point "
                             "with latency at or below this bound "
                             "(seconds, per-hop for ideal / end-to-end "
                             "for detailed; epsilon-constraint selection)")
    _add_execution_flags(pareto)

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment_id", help="e.g. fig08, table1")
    run.add_argument("--scale", type=_scale_from_name, default=Scale.fast(),
                     help="fast (default) or full (paper scale)")
    run.add_argument("--chart", action="store_true",
                     help="also draw an ASCII chart of the series")
    _add_execution_flags(run)

    run_all = sub.add_parser("run-all", help="run every experiment")
    run_all.add_argument("--scale", type=_scale_from_name, default=Scale.fast(),
                         help="fast (default) or full (paper scale)")
    run_all.add_argument("--out", default=None,
                         help="also write the report to this file")
    _add_execution_flags(run_all)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id in all_experiment_ids():
            spec = get_experiment(experiment_id)
            print(f"{experiment_id:8s}  [section {spec.section}]  {spec.title}")
        return 0
    if args.command == "scenarios":
        return _run_scenarios()
    if args.command == "cache":
        return _run_cache(args)
    if args.command == "trace":
        return _run_trace(args)
    telemetry_dir = args.telemetry or os.environ.get("REPRO_TELEMETRY")
    if telemetry_dir:
        from repro.obs import install_recorder

        install_recorder(telemetry_dir, role="parent")
    try:
        with execution(
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            progress=_progress_printer() if args.progress else None,
            failure_policy=_failure_policy_from(args),
            telemetry_dir=telemetry_dir,
        ):
            if args.command == "run":
                return _run_one(args)
            if args.command == "pareto":
                return _run_pareto(args)
            return _run_all(args)
    finally:
        if telemetry_dir:
            _close_telemetry(telemetry_dir)


def _close_telemetry(telemetry_dir: str) -> None:
    """Flush the recorder and print the end-of-run metrics summary.

    Runs in a ``finally`` so an interrupted campaign still reports what
    its telemetry captured; stderr, so stdout stays the deterministic
    report.
    """
    from repro.obs import aggregate_metrics, render_metrics_table, reset_recorder

    reset_recorder()
    try:
        summary = aggregate_metrics(telemetry_dir)
    except OSError:  # pragma: no cover - unreadable directory
        return
    if not summary["n_records"]:
        return
    for line in render_metrics_table(summary):
        print(line, file=sys.stderr)


def _failure_policy_from(args: argparse.Namespace) -> Optional[FailurePolicy]:
    """A policy from the retry flags, or ``None`` (built-in defaults)."""
    if (
        args.max_retries is None
        and args.task_timeout_s is None
        and args.on_exhausted is None
    ):
        return None
    defaults = FailurePolicy()
    return FailurePolicy(
        max_retries=(
            args.max_retries
            if args.max_retries is not None
            else defaults.max_retries
        ),
        timeout_s=args.task_timeout_s,
        on_exhausted=(
            args.on_exhausted
            if args.on_exhausted is not None
            else defaults.on_exhausted
        ),
    )


def _progress_printer(min_interval: float = 1.0):
    """A progress callback printing throttled lines to stderr.

    Campaigns fire one callback per completed point; printing each would
    swamp small terminals, so lines are rate-limited to one per
    ``min_interval`` seconds — except the final one, which always prints.
    Each line breaks completions down (cached vs computed, plus failed,
    retried and degraded runs when the failure machinery fired) and
    carries an ETA extrapolated from the campaign's own simulation rate:
    points served from the cache arrive at once and cost no simulation
    time, so only computed points count towards the rate.  Every count is the
    campaign's own: the process-wide failed, retried and degraded
    totals are read relative to their values at the campaign's start.
    """
    from repro.obs import format_duration

    last = 0.0
    started = 0.0
    before = (0, 0, 0)  # (failed, retried, degraded) at campaign start

    def progress(completed: int, total: int, cached: int, computed: int) -> None:
        nonlocal last, started, before
        now = time.monotonic()
        stats = get_stats()
        counts = (stats.failed, stats.retried, stats.degraded)
        if computed == 0:
            # A campaign's post-scan call: its clock and counts start now.
            started = now
            before = counts
        if completed < total and now - last < min_interval:
            return
        last = now
        extra = "".join(
            f", {count - base} {label}"
            for count, base, label in zip(
                counts, before, ("failed", "retried", "degraded")
            )
            if count != base
        )
        eta = ""
        elapsed = now - started
        if computed and completed < total and elapsed > 0:
            rate = computed / elapsed
            eta = f"; ETA {format_duration((total - completed) / rate)}"
        print(
            f"  campaign progress: {completed}/{total} points "
            f"({cached} cached, {computed} computed{extra}){eta}",
            file=sys.stderr,
        )

    return progress


def _run_scenarios() -> int:
    """List the registered topology families and source policies."""
    from repro.scenarios import SOURCE_POLICIES, available_families

    print("topology families (ScenarioSpec.build(family, params, ...)):")
    for family in available_families():
        defaults = ", ".join(f"{k}={v!r}" for k, v in family.defaults)
        suffix = f"  [defaults: {defaults}]" if defaults else ""
        print(f"  {family.name:12s} {family.description}{suffix}")
    print(f"source policies: {', '.join(SOURCE_POLICIES)}")
    print(
        "perturbations: failure_fraction (pre-broadcast node failures), "
        "failure_times (mid-run death schedule: fraction @ [start, end] "
        "window), clock_skew (per-node sleep-schedule offsets, "
        "half-normal std)"
    )
    return 0


def _format_bytes(n: int) -> str:
    """Human-readable byte count (binary units)."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{int(n)} B"  # pragma: no cover - unreachable


def _run_cache(args: argparse.Namespace) -> int:
    """The ``cache stats`` / ``cache purge`` subcommand."""
    from repro.runners import ResultCache

    store = ResultCache(args.cache_dir)
    if args.action == "stats":
        stats = store.stats()
        print(f"cache directory: {stats.root}")
        print(
            f"entries: {stats.n_entries} "
            f"({_format_bytes(stats.total_bytes)}, {stats.n_stale} stale)"
        )
        if stats.n_quarantined:
            print(
                f"quarantined: {stats.n_quarantined} corrupt entries moved "
                "aside (removed by `cache purge`)"
            )
        for kind, count in stats.by_kind:
            print(f"  {kind:12s} {count}")
        return 0
    if args.max_age_days is not None and args.max_age_days < 0:
        print("--max-age-days must be >= 0", file=sys.stderr)
        return 2
    if args.max_size_mb is not None and args.max_size_mb < 0:
        print("--max-size-mb must be >= 0", file=sys.stderr)
        return 2
    removed = store.purge(
        max_age_days=args.max_age_days, max_size_mb=args.max_size_mb
    )
    criteria = []
    if args.max_age_days is not None:
        criteria.append(f"older than {args.max_age_days:g} days")
    if args.max_size_mb is not None:
        criteria.append(f"shrunk to {args.max_size_mb:g} MiB")
    suffix = f" ({', '.join(criteria)})" if criteria else ""
    print(f"purged {removed} cache entries from {store.root}{suffix}")
    if removed.tmp_swept:
        print(
            f"swept {removed.tmp_swept} stale tmp files from crashed "
            f"writers ({_format_bytes(removed.tmp_bytes)} reclaimed)"
        )
    if removed.corrupt_swept:
        print(f"removed {removed.corrupt_swept} quarantined corrupt entries")
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    """The ``trace export`` subcommand: telemetry JSONL -> Chrome trace."""
    from repro.obs import event_files, export_chrome_trace

    telemetry_dir = args.telemetry or os.environ.get("REPRO_TELEMETRY")
    if not telemetry_dir:
        print(
            "trace export needs a telemetry directory "
            "(--telemetry DIR or $REPRO_TELEMETRY)",
            file=sys.stderr,
        )
        return 2
    if not event_files(telemetry_dir):
        print(f"no telemetry event logs under {telemetry_dir}", file=sys.stderr)
        return 1
    count = export_chrome_trace(telemetry_dir, args.out)
    print(
        f"wrote {count} trace events to {args.out} "
        "(load in https://ui.perfetto.dev or chrome://tracing)"
    )
    return 0


def _run_pareto(args: argparse.Namespace) -> int:
    """The ``pareto`` subcommand: frontier + operating-point selection.

    Runs (or reuses from cache) a frontier campaign — the pareto01 family
    campaign on the ideal simulator, or the Figures 13-16 q-sweep on the
    detailed one (``--simulator detailed``) — prints its non-dominated
    operating points with bootstrap confidence intervals, marks the knee,
    and optionally re-denominates energy in battery-days or applies a
    latency budget.
    """
    from dataclasses import replace

    from repro.experiments.pareto_figures import (
        campaign_frontier,
        coverage_constraint,
        delivery_constraint,
        energy_objective,
        hop_latency_objective,
        lifetime_objective,
        pareto_family_panel,
        static_frontier_campaign,
        update_latency_objective,
    )
    from repro.runners import run_campaign

    scale = args.scale
    started = time.perf_counter()
    if args.simulator == "detailed":
        from repro.detailed.config import CodeDistributionParameters
        from repro.experiments.detailed_figures import q_sweep_campaign
        from repro.experiments.pareto_figures import static_pbbf_where

        if args.family is not None:
            # The detailed frontier runs the fixed q-sweep deployment;
            # accepting --family here would silently analyse the wrong
            # world for every family value.
            print(
                "--family applies to the ideal simulator only "
                "(the detailed frontier runs the Figures 13-16 q-sweep "
                "deployment)",
                file=sys.stderr,
            )
            return 2
        label = "detailed q-sweep"
        latency = update_latency_objective()
        update_interval = CodeDistributionParameters().update_interval
        constraint = delivery_constraint(scale)
        floor_name = "delivery"
        spec = q_sweep_campaign(scale)
        where = static_pbbf_where()
    else:
        from repro.ideal.config import AnalysisParameters

        family = args.family if args.family is not None else "grid"
        if family not in scale.pareto_families:
            scale = replace(scale, pareto_families=(family,))
        panel = dict(pareto_family_panel(scale))
        token = panel[family].token
        label = family
        latency = hop_latency_objective()
        update_interval = AnalysisParameters().update_interval
        constraint = coverage_constraint(scale)
        floor_name = "coverage"
        spec = static_frontier_campaign(scale)
        where = lambda params: params.get("scenario") == token  # noqa: E731

    if args.lifetime:
        second = lifetime_objective(energy_objective(), update_interval)
    else:
        second = energy_objective()
    objectives = (latency, second)
    if args.coverage is not None:
        constraint = replace(constraint, bound=args.coverage)

    frontier = campaign_frontier(
        run_campaign(spec),
        objectives,
        (constraint,),
        scale.bootstrap_resamples,
        where=where,
    )
    elapsed = time.perf_counter() - started
    subject = (
        f"the {label}" if args.simulator == "detailed" else f"family {label!r}"
    )
    print(
        f"pareto frontier for {subject} "
        f"({latency.label} vs {second.label}, "
        f"{floor_name} >= {constraint.bound:g}):"
    )
    return _report_frontier(
        args, scale, label, frontier, latency, second, floor_name, elapsed,
    )


def _report_frontier(
    args: argparse.Namespace,
    scale: Scale,
    label: str,
    frontier,
    latency,
    second,
    floor_name: str,
    elapsed: float,
) -> int:
    """Render one frontier: table, knee, optional budget selection."""
    from repro.analysis import epsilon_constraint_index
    from repro.experiments.pareto_figures import frontier_table

    if not frontier.points:
        print(f"  no operating point met the {floor_name} floor at this scale")
        print(f"  ({elapsed:.1f}s at scale={scale.name})")
        return 1
    from repro.experiments.report import aligned_table

    header, rows = frontier_table({label: frontier})
    for line in aligned_table(header, rows):
        print(line)
    # The knee is whatever frontier_table starred — one selection, one
    # source of truth for both the table marker and this summary line.
    knee_row = next(row for row in rows if row[0] == "*")
    print(
        f"  knee: {knee_row[2]} at {latency.label}={knee_row[3]}, "
        f"{second.label}={knee_row[5]}"
    )
    print(
        f"  pruned {frontier.n_dominated} dominated/duplicate of "
        f"{len(frontier) + frontier.n_dominated} feasible points"
    )
    if args.latency_budget is not None:
        index = epsilon_constraint_index(frontier, latency, args.latency_budget)
        if index is None:
            print(
                f"  no frontier point meets latency <= "
                f"{args.latency_budget:g}s"
            )
        else:
            chosen = frontier.points[index]
            print(
                f"  within latency <= {args.latency_budget:g}s: "
                f"{chosen.label} at {latency.label}={chosen.values[0]:.4g}, "
                f"{second.label}={chosen.values[1]:.4g}"
            )
    print(f"  ({elapsed:.1f}s at scale={scale.name})")
    return 0


def _run_one(args: argparse.Namespace) -> int:
    spec = get_experiment(args.experiment_id)
    started = time.perf_counter()
    result = spec.run(args.scale)
    elapsed = time.perf_counter() - started
    print(result.render())
    if args.chart:
        from repro.experiments.ascii_plot import render_ascii_chart

        try:
            print()
            print(render_ascii_chart(result))
        except ValueError as exc:
            print(f"  (no chart: {exc})")
    print(f"  ({elapsed:.1f}s at scale={args.scale.name})")
    return 0


def _rerun_invocation(args: argparse.Namespace) -> str:
    """The ``run-all`` command that picks this invocation back up.

    Resuming is rerunning: the same command against the same cache
    serves every point the interrupted run finished.
    """
    parts = ["pbbf-experiments", "run-all"]
    if args.scale.name != "fast":
        parts.append(f"--scale {args.scale.name}")
    if args.jobs != 1:
        parts.append(f"--jobs {args.jobs}")
    if args.cache_dir:
        parts.append(f"--cache-dir {args.cache_dir}")
    if args.out:
        parts.append(f"--out {args.out}")
    if args.max_retries is not None:
        parts.append(f"--max-retries {args.max_retries}")
    if args.task_timeout_s is not None:
        parts.append(f"--task-timeout-s {args.task_timeout_s:g}")
    if args.on_exhausted is not None:
        parts.append(f"--on-exhausted {args.on_exhausted}")
    return " ".join(parts)


def _run_all(args: argparse.Namespace) -> int:
    reset_stats()
    chunks: List[str] = []
    experiment_ids = all_experiment_ids()
    for finished, experiment_id in enumerate(experiment_ids):
        spec = get_experiment(experiment_id)
        started = time.perf_counter()
        try:
            result = spec.run(args.scale)
        except KeyboardInterrupt:
            # Completed points are already in the cache (unless
            # --no-cache); a clean summary beats the pool's traceback storm.
            stats = get_stats()
            remaining = experiment_ids[finished:]
            print(file=sys.stderr)
            print("interrupted.", file=sys.stderr)
            print(
                f"  experiments finished: {finished}/{len(experiment_ids)} "
                f"(remaining: {', '.join(remaining)})",
                file=sys.stderr,
            )
            print(
                f"  campaign points so far: {stats.computed} simulated, "
                f"{stats.reused} reused (cache/memory)",
                file=sys.stderr,
            )
            if args.no_cache:
                print(
                    "  nothing was saved (--no-cache); a rerun starts over",
                    file=sys.stderr,
                )
            else:
                print(
                    "  completed points are saved; pick up where this "
                    "left off with:",
                    file=sys.stderr,
                )
                print(f"    {_rerun_invocation(args)}", file=sys.stderr)
            return 130
        elapsed = time.perf_counter() - started
        text = result.render() + f"\n  ({elapsed:.1f}s at scale={args.scale.name})"
        print(text)
        print()
        chunks.append(text)
    stats = get_stats()
    print(
        f"campaign points: {stats.computed} simulated, "
        f"{stats.reused_disk} from disk cache, "
        f"{stats.reused_memory} from memory"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("\n\n".join(chunks) + "\n")
        print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
