"""Micro-benchmarks of the simulation substrates.

Unlike the figure benches (one timed regeneration each), these measure the
steady-state throughput of the kernels every experiment leans on, and
guard against performance regressions in the hot paths.

pytest-benchmark's own statistics are raw ``perf_counter`` seconds, which
swing with the host's speed.  Each benchmark therefore also runs between
two calls of perfbench's host calibration loop (``perfbench/hostspeed.py``)
and records its median and minimum in reference milliseconds in
``extra_info`` (``ref_ms_median``, ``ref_ms_min``; the ideal campaigns
also per broadcast), so regenerations taken in a host's fast and slow
phases compare.
"""

import importlib.util
import random
from pathlib import Path

import numpy as np
import pytest

from repro.core.params import PBBFParams
from repro.ideal.config import AnalysisParameters
from repro.ideal.simulator import IdealSimulator
from repro.net.topology import GridTopology, RandomTopology
from repro.percolation.bond import bond_sweep
from repro.sim.engine import Engine
from repro.util.rng import hash_to_unit_interval, hash_to_unit_interval_array
from repro.util.union_find import UnionFind


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

#: Broadcasts per ideal campaign: one Section 4 figure point at paper scale.
CAMPAIGN_BROADCASTS = 50


@pytest.fixture(autouse=True)
def _reference_ms(benchmark):
    """Calibrate before and after the test; record its times in reference ms.

    The per-broadcast values divide by ``extra_info["broadcasts"]``, the
    unit of the end-to-end benchmark's ``ideal.ms_per_broadcast``.
    """
    before = hostspeed.calibrate()
    yield
    after = hostspeed.calibrate()
    stats = getattr(benchmark.stats, "stats", None)
    if stats is None:  # --benchmark-disable
        return
    broadcasts = benchmark.extra_info.get("broadcasts")
    for name in ("min", "median"):
        ms = 1000.0 * hostspeed.reference_seconds(getattr(stats, name), before, after)
        benchmark.extra_info[f"ref_ms_{name}"] = ms
        if broadcasts:
            benchmark.extra_info[f"ref_ms_per_broadcast_{name}"] = ms / broadcasts


def test_engine_event_throughput(benchmark):
    """Schedule-and-fire cost of the event loop (10k events per round)."""

    def run():
        engine = Engine()
        for i in range(10_000):
            engine.schedule(float(i % 97) * 0.01, lambda: None)
        engine.run()
        return engine.events_fired

    fired = benchmark(run)
    assert fired == 10_000


def test_union_find_throughput(benchmark):
    """Union/find mix on 10k elements."""
    rng = random.Random(1)
    pairs = [(rng.randrange(10_000), rng.randrange(10_000)) for _ in range(20_000)]

    def run():
        uf = UnionFind(10_000)
        for a, b in pairs:
            uf.union(a, b)
        return uf.n_components

    components = benchmark(run)
    assert components >= 1


def test_bond_sweep_throughput(benchmark):
    """One full Newman-Ziff sweep of a 40x40 grid (the paper's largest)."""
    grid = GridTopology(40)

    def run():
        return bond_sweep(grid, random.Random(7)).n_edges

    edges = benchmark(run)
    assert edges == grid.n_edges


def _ideal_campaign(topology, reference: bool = False, **kwargs):
    sim = IdealSimulator(
        topology, PBBFParams(0.5, 0.6), AnalysisParameters(), seed=3, **kwargs
    )
    run = sim.run_campaign_reference if reference else sim.run_campaign
    return lambda: run(CAMPAIGN_BROADCASTS).mean_coverage()


def test_ideal_campaign_throughput(benchmark):
    """A 50-broadcast campaign on the paper's full 75x75 analysis grid.

    The vectorized kernel runs all 50 broadcasts in lockstep; compare
    against ``test_ideal_campaign_scalar_reference`` for the speedup the
    parity suite certifies as bit-identical.
    """
    coverage = benchmark(_ideal_campaign(GridTopology(75)))
    benchmark.extra_info["broadcasts"] = CAMPAIGN_BROADCASTS
    assert coverage > 0.5


def test_ideal_campaign_scalar_reference(benchmark):
    """The same campaign through the scalar reference loop."""
    run = _ideal_campaign(GridTopology(75), reference=True)
    coverage = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["broadcasts"] = CAMPAIGN_BROADCASTS
    assert coverage > 0.5


def test_random_topology_campaign_throughput(benchmark):
    """A 50-broadcast campaign on a 600-node connected unit-disk deployment.

    The grid benches exercise the kernel's best case (uniform degree 4,
    dense padded rows); this tracks the irregular-degree regime the
    scenario layer's random/clustered families run in, where the padded
    neighbour matrix is ragged and the gather masks carry real weight.
    """
    topo = RandomTopology.connected(600, 10.0, 12.0, random.Random(42))
    coverage = benchmark(_ideal_campaign(topo, source=0))
    benchmark.extra_info["broadcasts"] = CAMPAIGN_BROADCASTS
    assert coverage > 0.5


def test_batched_coin_hash_throughput(benchmark):
    """Hash throughput of one 5625-key batched coin draw.

    A raw rate for the vectorized splitmix kernel, not the ideal
    kernel's unit of work: that kernel draws p-coins once per
    (broadcast, node) and q-coins only for the neighbours an immediate
    forward reaches outside an ATIM window.
    """
    nodes = np.arange(75 * 75)

    def run():
        return hash_to_unit_interval_array(7, nodes, 12345)

    coins = benchmark(run)
    assert coins.shape == nodes.shape
    assert float(coins[0]) == hash_to_unit_interval(7, 0, 12345)


def test_hop_distance_bfs_throughput(benchmark):
    """Vectorized CSR BFS over the 75x75 grid.

    A fresh topology per round (built in untimed setup) keeps the
    per-source memo cold without reaching into private cache state.
    """

    def fresh_grid():
        return (GridTopology(75),), {}

    def run(grid):
        return grid.hop_distance_array(grid.center_node())

    distances = benchmark.pedantic(run, setup=fresh_grid, rounds=30)
    assert int(distances.max()) == 74
