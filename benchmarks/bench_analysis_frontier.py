"""Micro-benchmarks of the trade-off analysis kernels.

The frontier pipeline runs on every trade-off campaign's result, so its
pruning, selection and bootstrap kernels must stay cheap relative to
simulation.  These benches time them on synthetic operating
points — sized like a full-scale multi-family campaign — with
deterministic inputs so runs are comparable across commits.
``BENCH_analysis.json`` at the repository root is committed without raw
timings; regenerate it with ``python -m pytest
benchmarks/bench_analysis_frontier.py --benchmark-save=analysis`` and
copy ``.benchmarks/<machine>/0001_analysis.json`` over it.
"""

import random

from repro.analysis.bootstrap import bootstrap_ci95
from repro.analysis.compare import compare_frontiers, hypervolume, shared_reference
from repro.analysis.objectives import Objective, OperatingPoint
from repro.analysis.pareto import pareto_frontier
from repro.analysis.selectors import knee_index

OBJECTIVES = (
    Objective(name="latency", label="latency", metric=lambda m: None, sense="min"),
    Objective(name="energy", label="energy", metric=lambda m: None, sense="min"),
)


def synthetic_points(n: int, seed: int = 7):
    """``n`` deterministic operating points on a noisy trade-off curve."""
    rng = random.Random(seed)
    points = []
    for index in range(n):
        latency = rng.uniform(1.0, 30.0)
        energy = 40.0 / latency + rng.uniform(0.0, 3.0)
        points.append(
            OperatingPoint(
                params=(("i", index),),
                label=f"pt{index}",
                values=(latency, energy),
                ci95=(0.0, 0.0),
                samples=((latency,), (energy,)),
            )
        )
    return points


def test_pareto_frontier_throughput(benchmark):
    """Dominated-point pruning over 5000 candidate points."""
    points = synthetic_points(5000)

    def run():
        return len(pareto_frontier(points, OBJECTIVES))

    size = benchmark(run)
    assert size >= 1
    benchmark.extra_info["n_points"] = len(points)
    benchmark.extra_info["frontier_size"] = size


def test_knee_and_hypervolume_throughput(benchmark):
    """Knee selection + hypervolume on a realistic frontier size."""
    frontier = pareto_frontier(synthetic_points(2000), OBJECTIVES)
    reference = shared_reference([frontier])

    def run():
        return knee_index(frontier), hypervolume(frontier, reference)

    knee, volume = benchmark(run)
    assert 0 <= knee < len(frontier)
    assert volume > 0.0
    benchmark.extra_info["frontier_size"] = len(frontier)


def test_bootstrap_ci_throughput(benchmark):
    """200-resample bootstrap over a ten-seed sample (one table cell)."""
    values = [1.0 + 0.1 * i for i in range(10)]

    def run():
        return bootstrap_ci95(values, 20050610, "bench", "energy")

    ci = benchmark(run)
    assert ci > 0.0


def test_bootstrap_ci_paper_scale(benchmark):
    """One frontier cell at paper scale: 1000 resamples over 5 seeds.

    The full-scale setting (``bootstrap_resamples=1000``,
    ``pareto_seeds=5``), which the ``warm-replay`` workload of
    ``perfbench/`` also uses.
    """
    values = [0.75, 1.25, 0.5, 2.0, 1.0]

    def run():
        return bootstrap_ci95(values, 20050610, "bench", "energy", n_resamples=1000)

    ci = benchmark(run)
    assert ci > 0.0
    benchmark.extra_info["n_resamples"] = 1000
    benchmark.extra_info["n_seeds"] = len(values)


def test_frontier_comparison_throughput(benchmark):
    """Full cross-family comparison (hypervolume + pairwise coverage)."""
    frontiers = {
        f"family{k}": pareto_frontier(synthetic_points(800, seed=k), OBJECTIVES)
        for k in range(4)
    }

    def run():
        return compare_frontiers(frontiers)

    comparison = benchmark(run)
    assert len(comparison.summaries) == 4
