"""Campaign-fabric throughput: execution backends, telemetry, queue.

Two jobs share this module:

* pytest smokes — drive a small campaign through every backend (serial,
  process-pool, sharded work queue), asserting the fabric's core
  invariant: identical metrics whichever backend computed them.  CI
  runs these with the other benchmark suites.

* ``python benchmarks/bench_campaign_throughput.py`` — measure (1)
  end-to-end campaign points/sec on each backend, (2) the telemetry
  fabric's overhead — campaign points/sec with recording disabled (the
  no-op recorder) vs enabled, plus the disabled span's per-call cost in
  nanoseconds — and (3) the work queue's pure per-point overhead at
  each lease-block size, writing the report to ``BENCH_campaign.json``
  at the repo root.  The committed copy pins the near-zero
  disabled-telemetry cost and the block-leasing overhead cut;
  regenerate it on quiet hardware after touching the backends, the
  queue or the telemetry layer.

Timing methodology matches the kernel baseline: contenders are
interleaved rep by rep, gc is disabled inside timed regions, and the
headline is min-of-reps.  Every timed drain is also verified (same keys,
same payloads), so a timing run doubles as a parity check.
"""

import argparse
import gc
import json
import math
import shutil
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
    WorkQueue,
    clear_run_caches,
    execution,
    run_campaign,
)
from repro.runners.backends import _Lease


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


def synthetic_leases(n_leases: int) -> list:
    """Queue-shaped leases with run-key-shaped keys, no evaluation cost.

    The queue-overhead drill completes these with a canned payload, so a
    timed rep measures pure queue I/O — exactly the per-point overhead a
    million-point campaign pays on top of simulation.
    """
    return [
        _Lease(
            task=("percolation", {"index": index}, (0,)),
            start=index,
            key=f"{index:08x}" + "cd" * 28,
        )
        for index in range(n_leases)
    ]


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
    for backend in ("serial", "pool", "sharded"):
        clear_run_caches()
        with execution(backend=backend, jobs=2, use_cache=False):
            fingerprints.append(_campaign_fingerprint(run_campaign(spec)))
    assert fingerprints[0] == fingerprints[1] == fingerprints[2]
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


def test_block_drill_respects_round_trip_bound(tmp_path):
    """Block leasing must hold write txns <= ceil(n/block) + 1 (smoke).

    The same assertion runs inside every timed rep of the full drill;
    this small run keeps it under pytest so CI catches a protocol
    regression without the 20k-lease version's wall time.
    """
    leases = synthetic_leases(120)
    payload = [{"critical_fraction": 0.5, "ci95": 0.01, "n_runs": 12}]
    for block in (1, 16):
        row = _drain_drill(tmp_path / f"q-{block}", leases, block, payload)
        assert row["write_txns"] <= math.ceil(len(leases) / block) + 1


# --------------------------------------------------------------------------
# The measurement harness (the __main__ entry point)
# --------------------------------------------------------------------------


def measure_backends(spec: CampaignSpec, jobs: int, reps: int) -> list:
    """End-to-end campaign points/sec per backend, cache off."""
    n_runs = len(spec.runs())
    timings = {"serial": [], "pool": [], "sharded": []}
    for _ in range(reps):
        for backend in timings:  # interleaved: drift hits all three
            clear_run_caches()
            with execution(backend=backend, jobs=jobs, use_cache=False):
                gc.collect()
                start = time.perf_counter()
                result = run_campaign(spec)
                timings[backend].append(time.perf_counter() - start)
            assert not result.failures
    clear_run_caches()
    return [
        {
            "backend": backend,
            "jobs": 1 if backend == "serial" else jobs,
            "n_runs": n_runs,
            "seconds": min(times),
            "points_per_second": round(n_runs / min(times), 1),
            "seconds_reps": [round(t, 4) for t in times],
        }
        for backend, times in timings.items()
    ]


def measure_telemetry(
    spec: CampaignSpec, reps: int, telemetry_root: Path = None
) -> dict:
    """Campaign points/sec with telemetry disabled vs enabled (serial).

    Also micro-measures the disabled path itself — one no-op span enter/
    exit — since that is the cost every instrumented call site pays when
    telemetry is off (the fabric's zero-overhead-by-default claim).
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
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        for _ in range(n_calls):
            with recorder.span("bench"):
                pass
        noop_span_ns = (time.perf_counter() - start) / n_calls * 1e9
        gc.enable()
    finally:
        obs.reset_recorder()
        if owns_root:
            shutil.rmtree(root, ignore_errors=True)
    return {
        "n_runs": n_runs,
        "disabled_seconds": min(disabled_s),
        "enabled_seconds": min(enabled_s),
        "disabled_points_per_second": round(n_runs / min(disabled_s), 1),
        "enabled_points_per_second": round(n_runs / min(enabled_s), 1),
        "overhead_percent": round(
            100.0 * (min(enabled_s) / min(disabled_s) - 1.0), 2
        ),
        "noop_span_ns": round(noop_span_ns, 1),
        "disabled_seconds_reps": [round(t, 4) for t in disabled_s],
        "enabled_seconds_reps": [round(t, 4) for t in enabled_s],
    }


def _drain_drill(root: Path, leases: list, block: int, payload: list) -> dict:
    """Drain a fresh queue through the block protocol; verify, then time.

    Returns the elapsed seconds and the write transactions spent from
    enqueue to drained (the round-trip bound under test).  Every row is
    read back through the paged harvest and compared against the
    payload — the parity check rides inside the timed rep, exactly like
    the other sections.
    """
    queue = WorkQueue(root)
    queue.enqueue(leases)
    start_txns = queue.round_trips
    gc.collect()
    gc.disable()
    start = time.perf_counter()
    claimed = queue.complete_and_claim([], "drill", 3600.0, block)
    while claimed:
        done = [(key, payload) for key, _task, _attempt in claimed]
        claimed = queue.complete_and_claim(done, "drill", 3600.0, block)
    elapsed = time.perf_counter() - start
    gc.enable()
    txns = queue.round_trips - start_txns
    assert queue.drained()
    assert txns <= math.ceil(len(leases) / block) + 1, (
        f"block={block}: {txns} write txns for {len(leases)} leases"
    )
    after, fetched = 0, {}
    while True:
        rows = queue.fetch_results(after, limit=512)
        for rowid, key, flats in rows:
            fetched[key] = flats
            after = max(after, rowid)
        if len(rows) < 512:
            break
    assert len(fetched) == len(leases)
    assert all(flats == payload for flats in fetched.values())
    return {"seconds": elapsed, "write_txns": txns}


def measure_queue_overhead(
    n_leases: int, reps: int, blocks=(1, 16, 64)
) -> dict:
    """Pure queue overhead per point at each lease-block size.

    The drill is evaluation-free, so points/sec here is the ceiling the
    queue imposes on any campaign; the committed report pins the >= 5x
    per-point overhead reduction block leasing claims at block 64 vs the
    original row-at-a-time protocol.
    """
    leases = synthetic_leases(n_leases)
    payload = [{"critical_fraction": 0.5, "ci95": 0.01, "n_runs": 12}]
    block_s = {block: [] for block in blocks}
    block_txns = {}
    for _ in range(reps):
        for block in blocks:  # interleaved: drift hits every block size
            root = Path(tempfile.mkdtemp(prefix=f"bench-queue-{block}-"))
            try:
                row = _drain_drill(root, leases, block, payload)
            finally:
                shutil.rmtree(root, ignore_errors=True)
            block_s[block].append(row["seconds"])
            block_txns[block] = row["write_txns"]
    biggest, smallest = max(blocks), min(blocks)
    per_point = {
        block: min(times) / n_leases for block, times in block_s.items()
    }
    return {
        "n_leases": n_leases,
        "blocks": [
            {
                "block": block,
                "seconds": round(min(times), 4),
                "points_per_second": round(n_leases / min(times), 1),
                "write_txns": block_txns[block],
                "txns_per_point": round(block_txns[block] / n_leases, 4),
                "overhead_us_per_point": round(per_point[block] * 1e6, 2),
                "seconds_reps": [round(t, 4) for t in times],
            }
            for block, times in block_s.items()
        ],
        "overhead_reduction_block64_vs_block1": round(
            per_point[smallest] / per_point[biggest], 2
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure campaign backend, telemetry and queue throughput"
    )
    parser.add_argument(
        "--reps", type=int, default=5, help="interleaved A/B repetitions"
    )
    parser.add_argument(
        "--jobs", type=int, default=4, help="workers for pool/sharded"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrunk lease set and campaign for CI",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_campaign.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--only",
        choices=("all", "backends", "telemetry", "queue"),
        default="all",
        help="run a single section (the CI queue-scale job runs "
             "`--only queue`); the report contains just that section",
    )
    args = parser.parse_args(argv)

    n_leases = 2000 if args.quick else 20000
    spec = bench_spec(n_points=4 if args.quick else 8, n_seeds=3)

    report = {
        "benchmark": "campaign-fabric-throughput",
        "description": (
            "Campaign points/sec on the serial, process-pool and "
            "sharded-queue backends; campaign throughput with telemetry "
            "recording disabled vs enabled (plus the disabled span's "
            "per-call cost); pure queue overhead per point at "
            "lease-block sizes 1/16/64. "
            "Payload parity verified inside every timed rep."
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
        report["telemetry"] = telemetry

    if args.only in ("all", "queue"):
        print(
            f"measuring queue overhead over {n_leases} leases ...", flush=True
        )
        queue = measure_queue_overhead(n_leases, args.reps)
        for row in queue["blocks"]:
            print(
                f"  block {row['block']:3d} {row['seconds']:.3f}s"
                f"  ({row['points_per_second']} points/s,"
                f" {row['overhead_us_per_point']}us/point,"
                f" {row['write_txns']} txns)",
                flush=True,
            )
        print(
            f"  per-point overhead reduction block 64 vs 1: "
            f"{queue['overhead_reduction_block64_vs_block1']:.1f}x",
            flush=True,
        )
        report["queue"] = queue

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
