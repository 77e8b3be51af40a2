"""Detailed-simulator bench: scen03 regeneration and kernel speedup.

Two jobs share this module:

* pytest benchmarks — time one full regeneration of the mid-run-failure
  figure (scen03) on each kernel and assert the qualitative shape the
  figure exists for: delivery decays as the mid-run death fraction
  rises, on every sleep scheduler.  CI uploads the timings next to the
  kernel and analysis baselines.

* ``python benchmarks/bench_detailed_scenario.py`` — measure the
  event-heap reference loop against the seed-batched kernel on real
  campaign points (the Figures 17-18 density sweep, scen04's skewed
  world and pareto02's adaptive controller, each of the last two beside
  its twin) and write the result to ``BENCH_detailed.json`` at the repo
  root.  The committed copy of that file pins the speedup this repo
  claims; regenerate it on quiet hardware after touching the kernel.

Timing methodology for the A/B harness: the two kernels are interleaved
rep by rep (so machine-load drift hits both equally), gc is disabled
inside each timed region, and the headline is min-of-reps — the
standard estimator for "how fast does this code run", robust to the
multi-tenant noise that poisons means.  Every timed region sits between
two calls of perfbench's host calibration loop and is reported in its
reference seconds (``perfbench/hostspeed.py``), so regenerations taken
in a host's fast and slow phases compare.  Parity is asserted on every
rep, so a timing run doubles as an end-to-end bit-identity check.
"""

import argparse
import gc
import importlib.util
import json
import shlex
import sys
import time
from dataclasses import replace
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - direct invocation from a checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conftest import clear_harness_caches  # noqa: F401  (shared helpers)

from repro.core.params import PBBFParams
from repro.detailed.batched import run_batch
from repro.detailed.config import CodeDistributionParameters
from repro.detailed.simulator import DetailedSimulator
from repro.experiments import Scale
from repro.experiments.pareto_figures import adaptive_campaign
from repro.experiments.scenario_figures import (
    frontier_robustness_campaign,
    frontier_robustness_scenarios,
    midrun_failure_campaign,
)
from repro.ideal.simulator import SchedulingMode
from repro.runners.points import (
    _detailed_simulator,
    evaluate_run_batch,
    metrics_to_dict,
)


def _load_hostspeed():
    """perfbench's calibration module, loaded from its file.

    perfbench is a directory of scripts, not a package, and putting it on
    ``sys.path`` would expose its other modules under generic names.
    """
    path = Path(__file__).resolve().parent.parent / "perfbench" / "hostspeed.py"
    spec = importlib.util.spec_from_file_location("hostspeed", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


hostspeed = _load_hostspeed()


def bench_scale() -> Scale:
    """The fast preset shrunk to bench size (seconds, not minutes)."""
    return replace(
        Scale.fast(),
        name="bench-detailed-scenario",
        detailed_scenario_nodes=14,
        detailed_scenario_duration=150.0,
        midrun_failure_fractions=(0.0, 0.3),
        scenario_seeds=1,
    )


def _assert_scen03_shape(result):
    fractions = sorted(
        {x for series in result.series for x, _ in series.points}
    )
    assert fractions[0] == 0.0 and fractions[-1] > 0.0
    for scheduler in ("PSM", "SMAC", "TMAC"):
        delivery = dict(result.get_series(f"delivery {scheduler}").points)
        assert delivery[fractions[-1]] <= delivery[0.0]
        assert delivery[fractions[-1]] > 0.0  # degrades, never collapses


def test_detailed_scenario_scen03(run_experiment):
    result = run_experiment("scen03", bench_scale())
    _assert_scen03_shape(result)


def test_detailed_scenario_scen03_reference_kernel(benchmark):
    """scen03's runs on the event-heap loop, for the CI timing diff.

    Every run is evaluated the way a degraded campaign attempt does it
    (``reference=True``) and must equal the default path's metrics.
    """
    runs = midrun_failure_campaign(bench_scale()).runs()

    def evaluate(reference):
        clear_harness_caches()
        return [
            metrics_to_dict(metrics)
            for run in runs
            for metrics in evaluate_run_batch(
                run.kind, run.params_dict(), (run.seed,), reference=reference
            )
        ]

    reference = benchmark.pedantic(
        evaluate, args=(True,), rounds=1, iterations=1
    )
    benchmark.extra_info["runs"] = len(runs)
    assert reference == evaluate(False)


# --------------------------------------------------------------------------
# Heap-vs-batched A/B harness (the __main__ entry point)
# --------------------------------------------------------------------------

#: Campaign points measured by the committed baseline: all sit on the
#: Figures 17-18 density sweep at full scale (Table 2's N=50, T=500 s,
#: q=0.25, 10 seeds per point).  The dense end is the headline — that is
#: where the heap loop hurts most — and Table 2's default density is
#: recorded alongside for transparency.  The NO PSM baseline (always-on
#: flooding, every neighbour a receiver) rides the same sweep.
CAMPAIGN_POINTS = (
    {"label": "fig17-18 densest point", "p": 0.25, "q": 0.25, "density": 18.0},
    {"label": "fig17-18 default density", "p": 0.25, "q": 0.25, "density": 10.0},
    {
        "label": "fig17-18 NO PSM densest point",
        "p": 1.0,
        "q": 1.0,
        "density": 18.0,
        "mode": SchedulingMode.ALWAYS_ON.value,
    },
)


def measure_point(
    p: float,
    q: float,
    density: float,
    n_nodes: int = 50,
    duration: float = 500.0,
    n_seeds: int = 10,
    reps: int = 5,
    mode: str = SchedulingMode.PSM_PBBF.value,
) -> dict:
    """Interleaved min-of-``reps`` A/B of one point's whole seed list."""
    params = PBBFParams(p, q)
    config = CodeDistributionParameters(
        n_nodes=n_nodes, density=density, duration=duration
    )
    seeds = list(range(n_seeds))

    def sims():
        return [
            DetailedSimulator(
                params, config, seed=s, mode=SchedulingMode(mode)
            )
            for s in seeds
        ]

    point = {
        "mode": mode,
        "p": p,
        "q": q,
        "density": density,
        "n_nodes": n_nodes,
        "duration_s": duration,
        "n_seeds": n_seeds,
    }
    point.update(time_heap_vs_batched(sims, reps))
    return point


def extension_points(scale: Scale, p: float, scen04_q: float, pareto02_q0: float):
    """(label, runs) of the extension figures' points, each beside its twin.

    scen04's perturbed world (per-node clock skew plus mid-run deaths)
    and its nominal twin, and pareto02's adaptive controller and the
    static run it starts from.  ``runs`` are the campaign's own
    ``(params, seed)`` pairs for the point, so the simulators are built
    exactly as the runner builds them.
    """

    def runs_at(spec, **where):
        return [
            (params, run.seed)
            for run in spec.runs()
            for params in (run.params_dict(),)
            if all(params[name] == value for name, value in where.items())
        ]

    nominal, perturbed = (
        spec.token for _, spec in frontier_robustness_scenarios(scale)
    )
    scen04 = frontier_robustness_campaign(scale)
    adaptive = runs_at(adaptive_campaign(scale), p=p, q=pareto02_q0)
    static = [
        ({k: v for k, v in params.items() if k != "adaptive"}, seed)
        for params, seed in adaptive
    ]
    return (
        (
            f"scen04 perturbed p={p:g} q={scen04_q:g}",
            runs_at(scen04, scenario=perturbed, p=p, q=scen04_q),
        ),
        (
            f"scen04 nominal twin p={p:g} q={scen04_q:g}",
            runs_at(scen04, scenario=nominal, p=p, q=scen04_q),
        ),
        (f"pareto02 adaptive p={p:g} q0={pareto02_q0:g}", adaptive),
        (f"pareto02 static twin p={p:g} q={pareto02_q0:g}", static),
    )


def measure_runs(runs, reps: int) -> dict:
    """Interleaved min-of-``reps`` A/B of one campaign point's seed list."""

    def sims():
        return [_detailed_simulator(params, seed) for params, seed in runs]

    sample = sims()[0]
    point = {
        "mode": sample.mode.value,
        "p": sample.params.p,
        "q": sample.params.q,
        "n_nodes": sample.topology.n_nodes,
        "duration_s": sample.config.duration,
        "n_seeds": len(runs),
        "adaptive": sample.adaptive is not None,
        "clock_skew": bool(sample.scenario and sample.scenario.clock_offsets),
    }
    point.update(time_heap_vs_batched(sims, reps))
    return point


def _timed(run):
    """``(run(), its reference seconds)``: gc off, between two calibrations."""
    gc.collect()
    before = hostspeed.calibrate()
    gc.disable()
    start = time.perf_counter()
    result = run()
    elapsed = time.perf_counter() - start
    gc.enable()
    after = hostspeed.calibrate()
    return result, hostspeed.reference_seconds(elapsed, before, after)


def time_heap_vs_batched(sims, reps: int) -> dict:
    """Heap loop vs batched kernel on fresh ``sims()``, rep by rep."""
    heap_s, batched_s = [], []
    for _ in range(reps):
        heap_sims = sims()
        heap_results, seconds = _timed(
            lambda: [sim.run_reference() for sim in heap_sims]
        )
        heap_s.append(seconds)

        batch_sims = sims()
        batched_results, seconds = _timed(lambda: run_batch(batch_sims))
        batched_s.append(seconds)

        # A timing rep that is not bit-identical is a bug, not a datum.
        assert [r.node_joules for r in heap_results] == [
            r.node_joules for r in batched_results
        ]
        assert [vars(s) for r in heap_results for s in r.mac_stats] == [
            vars(s) for r in batched_results for s in r.mac_stats
        ]

    return {
        "heap_seconds": min(heap_s),
        "batched_seconds": min(batched_s),
        "speedup": round(min(heap_s) / min(batched_s), 2),
        "heap_seconds_reps": [round(t, 4) for t in heap_s],
        "batched_seconds_reps": [round(t, 4) for t in batched_s],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure the event-heap vs seed-batched detailed kernels"
    )
    parser.add_argument(
        "--reps", type=int, default=5, help="interleaved A/B repetitions"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrunk points for CI (smaller network, shorter runs)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_detailed.json",
        help="where to write the JSON report",
    )
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)

    size = (
        {"n_nodes": 24, "duration": 150.0, "n_seeds": 4}
        if args.quick
        else {"n_nodes": 50, "duration": 500.0, "n_seeds": 10}
    )
    # The fast preset has no p = 0.25 and no q0 = 0.1.
    extension = (
        extension_points(Scale.fast(), 0.1, 0.5, 0.5)
        if args.quick
        else extension_points(Scale.full(), 0.25, 0.5, 0.1)
    )
    points = []

    def record(label, measure, *measure_args, **measure_kwargs):
        label += " (quick)" if args.quick else ""
        print(f"measuring {label} ...", flush=True)
        point = {"label": label}
        point.update(measure(*measure_args, **measure_kwargs))
        print(
            f"  heap {point['heap_seconds']:.3f}s"
            f"  batched {point['batched_seconds']:.3f}s"
            f"  speedup {point['speedup']:.2f}x",
            flush=True,
        )
        points.append(point)

    for spec in CAMPAIGN_POINTS:
        spec = dict(spec)
        record(spec.pop("label"), measure_point, **spec, **size, reps=args.reps)
    for label, runs in extension:
        record(label, measure_runs, runs, args.reps)
    batched = [point["batched_seconds"] for point in points[-4:]]

    report = {
        "benchmark": "detailed-kernel-speedup",
        "description": (
            "Event-heap reference loop vs seed-batched SoA kernel on "
            "Figures 17-18 campaign points, scen04's skewed world and "
            "pareto02's adaptive controller, each beside its twin (one "
            "kernel call per point's seed list); parity asserted on every "
            "rep"
        ),
        "unit": (
            "reference seconds: each timed region rescaled by the "
            "perfbench/hostspeed.py calibration loops run just before and "
            "after it"
        ),
        "method": (
            f"interleaved A/B, min of {args.reps} reps, gc disabled "
            "inside timed regions"
        ),
        "command": shlex.join(
            ["python", "benchmarks/bench_detailed_scenario.py", *argv]
        ),
        "quick": args.quick,
        "points": points,
        # Batched cost of each extension point over its twin's.
        "scen04_skew_over_nominal": round(batched[0] / batched[1], 2),
        "pareto02_adaptive_over_static": round(batched[2] / batched[3], 2),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
