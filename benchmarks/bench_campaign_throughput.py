"""Campaign throughput: the two execution backends and telemetry.

Two jobs share this module:

* pytest smokes — drive a small campaign through both backends (serial
  and process pool), asserting the runner's core invariant: identical
  metrics whichever backend computed them.  CI runs these with the
  other benchmark suites.

* ``python benchmarks/bench_campaign_throughput.py`` — measure (1)
  end-to-end campaign points/sec on each backend and (2) the telemetry
  layer's overhead — campaign points/sec with recording disabled (the
  no-op recorder) vs enabled, plus the disabled span's per-call cost in
  nanoseconds — writing the report to ``BENCH_campaign.json`` at the
  repo root.  Regenerate it on quiet hardware after touching the
  backends or the telemetry layer.

Timing methodology matches the kernel baseline: contenders are
interleaved rep by rep, gc is disabled inside timed regions, and the
headline is min-of-reps.  The telemetry numbers move with the host
between runs, so each carries the min, median and max of its reps (the
enabled/disabled ratio of every interleaved rep, the no-op span cost of
every batch) beside the headline: read a change against that spread.
Every timed campaign is also verified (same metrics), so a timing run
doubles as a parity check.
"""

import argparse
import gc
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - direct invocation from a checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.runners import (
    CampaignSpec,
    clear_run_caches,
    execution,
    run_campaign,
)


def bench_spec(n_points: int = 8, n_seeds: int = 3) -> CampaignSpec:
    """A percolation sweep sized so backend overheads are visible."""
    reliabilities = tuple(
        round(0.80 + 0.02 * index, 2) for index in range(n_points)
    )
    return CampaignSpec.build(
        kind="percolation",
        axes={"reliability": reliabilities},
        fixed={"grid_side": 12, "runs": 12, "process": "bond"},
        seed_params=("grid_side", "reliability"),
        n_seeds=n_seeds,
    )


# --------------------------------------------------------------------------
# pytest smokes (parity through every backend)
# --------------------------------------------------------------------------


def _campaign_fingerprint(result):
    return [
        result.metrics(seed_index=index, **point)
        for point in result.spec.points()
        for index in range(result.spec.n_seeds)
    ]


def test_every_backend_is_bit_identical():
    spec = bench_spec(n_points=2, n_seeds=2)
    fingerprints = []
    for jobs in (1, 2):  # serial, then the process pool
        clear_run_caches()
        with execution(jobs=jobs, use_cache=False):
            fingerprints.append(_campaign_fingerprint(run_campaign(spec)))
    assert fingerprints[0] == fingerprints[1]
    clear_run_caches()


def test_telemetry_overhead_stays_bounded(tmp_path):
    """Enabled telemetry must not halve campaign throughput (smoke).

    The real guard is the committed BENCH report's disabled-vs-enabled
    points/sec; this smoke run bounds the ratio loosely enough to stay
    robust on noisy CI hosts while still catching an accidental
    hot-loop write (which costs an order of magnitude, not a factor).
    """
    spec = bench_spec(n_points=2, n_seeds=2)
    row = measure_telemetry(spec, reps=2, telemetry_root=tmp_path)
    assert row["enabled_seconds"] < row["disabled_seconds"] * 3.0
    assert row["noop_span_ns"] < 50_000  # a disabled span is ~a µs at worst


# --------------------------------------------------------------------------
# The measurement harness (the __main__ entry point)
# --------------------------------------------------------------------------


def measure_backends(spec: CampaignSpec, jobs: int, reps: int) -> list:
    """End-to-end campaign points/sec per backend, cache off."""
    n_runs = len(spec.runs())
    timings = {"serial": [], "pool": []}
    backend_jobs = {"serial": 1, "pool": jobs}
    for _ in range(reps):
        for backend in timings:  # interleaved: drift hits both
            clear_run_caches()
            with execution(jobs=backend_jobs[backend], use_cache=False):
                gc.collect()
                start = time.perf_counter()
                result = run_campaign(spec)
                timings[backend].append(time.perf_counter() - start)
            assert not result.failures
    clear_run_caches()
    return [
        {
            "backend": backend,
            "jobs": backend_jobs[backend],
            "n_runs": n_runs,
            "seconds": min(times),
            "points_per_second": round(n_runs / min(times), 1),
            "seconds_reps": [round(t, 4) for t in times],
        }
        for backend, times in timings.items()
    ]


def _spread(values: list, digits: int) -> dict:
    """Min, median and max of a list of samples."""
    return {
        "min": round(min(values), digits),
        "median": round(statistics.median(values), digits),
        "max": round(max(values), digits),
    }


#: Batches of 200k no-op spans timed for the disabled-path cost.
SPAN_BATCHES = 7


def measure_telemetry(
    spec: CampaignSpec, reps: int, telemetry_root: Path = None
) -> dict:
    """Campaign points/sec with telemetry disabled vs enabled (serial).

    Also micro-measures the disabled path itself — one no-op span enter/
    exit, over ``SPAN_BATCHES`` batches — since that is the cost every
    instrumented call site pays when telemetry is off (the
    zero-overhead-by-default claim).
    """
    from repro import obs

    n_runs = len(spec.runs())
    root = telemetry_root or Path(tempfile.mkdtemp(prefix="bench-telemetry-"))
    owns_root = telemetry_root is None
    disabled_s, enabled_s = [], []
    fingerprints = []
    try:
        for rep in range(reps):
            clear_run_caches()
            obs.reset_recorder()
            with execution(use_cache=False):
                gc.collect()
                start = time.perf_counter()
                result = run_campaign(spec)
                disabled_s.append(time.perf_counter() - start)
            fingerprints.append(_campaign_fingerprint(result))

            clear_run_caches()
            obs.install_recorder(root / f"rep-{rep}", role="parent")
            with execution(
                use_cache=False, telemetry_dir=str(root / f"rep-{rep}")
            ):
                gc.collect()
                start = time.perf_counter()
                result = run_campaign(spec)
                enabled_s.append(time.perf_counter() - start)
            obs.reset_recorder()
            fingerprints.append(_campaign_fingerprint(result))
        # The fabric's hard invariant rides along with the timing run:
        # recorded and unrecorded campaigns are bit-identical.
        assert all(prints == fingerprints[0] for prints in fingerprints)

        recorder = obs.NULL_RECORDER
        n_calls = 200_000
        noop_span_ns = []
        for _ in range(SPAN_BATCHES):
            gc.collect()
            gc.disable()
            start = time.perf_counter()
            for _ in range(n_calls):
                with recorder.span("bench"):
                    pass
            noop_span_ns.append((time.perf_counter() - start) / n_calls * 1e9)
            gc.enable()
    finally:
        obs.reset_recorder()
        if owns_root:
            shutil.rmtree(root, ignore_errors=True)
    # Each rep ran its disabled and enabled campaigns back to back, so
    # the per-rep ratio cancels drift that min-of-reps does not.
    ratios = [on / off for off, on in zip(disabled_s, enabled_s)]
    return {
        "n_runs": n_runs,
        "disabled_seconds": min(disabled_s),
        "enabled_seconds": min(enabled_s),
        "disabled_points_per_second": round(n_runs / min(disabled_s), 1),
        "enabled_points_per_second": round(n_runs / min(enabled_s), 1),
        "overhead_percent": round(
            100.0 * (min(enabled_s) / min(disabled_s) - 1.0), 2
        ),
        "overhead_ratio_reps": [round(ratio, 4) for ratio in ratios],
        "overhead_ratio_spread": _spread(ratios, 4),
        "noop_span_ns": round(min(noop_span_ns), 1),
        "noop_span_ns_batches": [round(ns, 1) for ns in noop_span_ns],
        "noop_span_ns_spread": _spread(noop_span_ns, 1),
        "disabled_seconds_reps": [round(t, 4) for t in disabled_s],
        "enabled_seconds_reps": [round(t, 4) for t in enabled_s],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure campaign backend and telemetry throughput"
    )
    parser.add_argument(
        "--reps", type=int, default=5, help="interleaved A/B repetitions"
    )
    parser.add_argument(
        "--jobs", type=int, default=4, help="workers for the pool"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrunk campaign for CI",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_campaign.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--only",
        choices=("all", "backends", "telemetry"),
        default="all",
        help="run a single section; the report contains just that section",
    )
    args = parser.parse_args(argv)

    spec = bench_spec(n_points=4 if args.quick else 8, n_seeds=3)

    report = {
        "benchmark": "campaign-fabric-throughput",
        "description": (
            "Campaign points/sec on the serial and process-pool "
            "backends; campaign throughput with telemetry recording "
            "disabled vs enabled (plus the disabled span's per-call "
            "cost), each telemetry number with the min/median/max of "
            "its reps. Metrics parity verified inside every timed rep."
        ),
        "method": (
            f"interleaved A/B, min of {args.reps} reps, gc disabled "
            "inside timed regions"
        ),
        "command": "python benchmarks/bench_campaign_throughput.py",
        "quick": args.quick,
    }

    if args.only in ("all", "backends"):
        print(
            f"measuring backends over {len(spec.runs())} runs ...", flush=True
        )
        backends = measure_backends(spec, jobs=args.jobs, reps=args.reps)
        for row in backends:
            print(
                f"  {row['backend']:8s} {row['seconds']:.3f}s"
                f"  ({row['points_per_second']} points/s)",
                flush=True,
            )
        report["backends"] = backends

    if args.only in ("all", "telemetry"):
        print("measuring telemetry overhead ...", flush=True)
        telemetry = measure_telemetry(spec, reps=args.reps)
        print(
            f"  disabled {telemetry['disabled_seconds']:.3f}s"
            f"  enabled {telemetry['enabled_seconds']:.3f}s"
            f"  (+{telemetry['overhead_percent']:.1f}%;"
            f" no-op span {telemetry['noop_span_ns']:.0f}ns)",
            flush=True,
        )
        ratio = telemetry["overhead_ratio_spread"]
        span = telemetry["noop_span_ns_spread"]
        print(
            f"  per-rep enabled/disabled ratio min {ratio['min']:.3f}"
            f" median {ratio['median']:.3f} max {ratio['max']:.3f};"
            f" no-op span min {span['min']:.0f}"
            f" median {span['median']:.0f} max {span['max']:.0f}ns",
            flush=True,
        )
        report["telemetry"] = telemetry

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
