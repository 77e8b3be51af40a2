"""The list-based sweep loops against the method-call sweeps they replaced.

The oracles below are the sweeps as they ran on :class:`UnionFind`
method calls: one ``union`` and up to four more ``find`` or
``component_size`` calls per bond, each re-checking its argument.  The
loops in :mod:`repro.percolation` keep their forests in plain lists, and
a threshold estimate stops its loop at the highest coverage it needs.
Thresholds, full curves and the random draws left behind must all equal
the oracles', on grids and on every shape of scenario world.
"""

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.net.topology import GridTopology, Topology
from repro.percolation.bond import (
    _bond_steps,
    _default_source,
    bond_sweep,
    coverage_bond_fraction,
)
from repro.percolation.site import coverage_site_fraction, site_sweep
from repro.percolation.threshold import (
    _sweep_thresholds,
    estimate_critical_bond_fraction,
)
from repro.scenarios import ScenarioSpec
from repro.util.stats import summarize
from repro.util.union_find import UnionFind


def oracle_bond_curves(topology, rng, source=None):
    """The method-call bond sweep: (source sizes, largest sizes)."""
    if source is None:
        source = _default_source(topology)
    csr = topology.csr
    order = list(range(csr.n_edges))
    rng.shuffle(order)
    us = csr.edge_u[order].tolist()
    vs = csr.edge_v[order].tolist()
    uf = UnionFind(topology.n_nodes)
    source_sizes = [1]
    largest_sizes = [1 if topology.n_nodes else 0]
    source_root = uf.find(source)
    source_size = 1
    for u, v in zip(us, vs):
        if uf.union(u, v):
            root = uf.find(u)
            if uf.find(source_root) == root:
                source_root = root
                source_size = uf.component_size(root)
        source_sizes.append(source_size)
        largest_sizes.append(uf.largest_component_size)
    return source_sizes, largest_sizes


def oracle_site_curve(topology, rng):
    """The method-call site sweep: largest active cluster sizes."""
    order = list(topology.nodes())
    rng.shuffle(order)
    uf = UnionFind(topology.n_nodes)
    active = [False] * topology.n_nodes
    sizes = [0]
    for site in order:
        active[site] = True
        for nbr in topology.neighbors(site):
            if active[nbr]:
                uf.union(site, nbr)
        sizes.append(uf.largest_component_size)
    return sizes


def oracle_first_count(sizes, coverage, n_nodes):
    needed = max(1, math.ceil(coverage * n_nodes))
    for m, size in enumerate(sizes):
        if size >= needed:
            return m
    return None


def oracle_sweep_thresholds(topology, levels, rng):
    sizes, _ = oracle_bond_curves(topology, rng)
    fractions = []
    for level in levels:
        count = oracle_first_count(sizes, level, topology.n_nodes)
        if count is None:
            raise RuntimeError(
                f"sweep never reached coverage {level}; "
                "is the topology connected?"
            )
        fractions.append(count / topology.n_edges)
    return fractions


def oracle_site_fractions(topology, coverage, rng, runs):
    fractions = []
    for _ in range(runs):
        count = oracle_first_count(
            oracle_site_curve(topology, rng), coverage, topology.n_nodes
        )
        if count is None:
            raise RuntimeError(
                f"sweep never reached coverage {coverage}; "
                "is the graph connected?"
            )
        fractions.append(count / topology.n_nodes)
    return fractions


def outcome(fn, *args, **kwargs):
    """A call's value, or its exception's type and message."""
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as error:
        return ("raised", type(error), str(error))


def twin_runs(new, oracle, seed, runs=3):
    """Each side's ``runs`` successive calls from one seeded stream,
    followed by the next draw that stream makes."""
    sides = []
    for fn in (new, oracle):
        rng = random.Random(seed)
        results = [outcome(fn, rng) for _ in range(runs)]
        sides.append((results, rng.random()))
    return sides


#: Level sets fig06, fig07 and perc02 ask for, plus unordered and
#: trivial ones.
LEVEL_SETS = [
    (0.8,),
    (0.9,),
    (0.99,),
    (1.0,),
    (0.8, 0.9, 0.99, 1.0),
    (1.0, 0.5),
    (0.0,),
]

GRID_SIDES = [10, 20, 30, 40]

#: perc02's panel shapes at fast scale (side 10, 100 nodes), plus a
#: larger torus.
WORLDS = {
    "torus": ScenarioSpec.build("torus", {"side": 16}),
    "grid_holes": ScenarioSpec.build(
        "grid_holes", {"side": 10, "n_holes": 3, "hole_side": 2}
    ),
    "random": ScenarioSpec.build(
        "random", {"n_nodes": 100, "radio_range": 10.0, "density": 12.0}
    ),
    "clustered": ScenarioSpec.build(
        "clustered",
        {
            "n_clusters": 4,
            "cluster_size": 25,
            "radio_range": 10.0,
            "spread": 5.0,
            "extent": 40.0,
        },
    ),
}

#: Realization seeds per world.  Seed 43 carves a grid_holes world in
#: two, and seed 168 leaves a clustered world disconnected.
WORLD_SEEDS = [1, 43, 168, 20050610]


def world(name, seed):
    return WORLDS[name].realize(seed).topology


class TestBondThresholdsMatchTheOracle:
    @pytest.mark.parametrize("levels", LEVEL_SETS, ids=str)
    @pytest.mark.parametrize("side", GRID_SIDES)
    def test_on_grids(self, side, levels):
        grid = GridTopology(side)
        new, oracle = twin_runs(
            lambda rng: _sweep_thresholds(grid, levels, rng),
            lambda rng: oracle_sweep_thresholds(grid, levels, rng),
            seed=side,
        )
        assert new == oracle
        assert new[0][0][0] == "ok"

    @pytest.mark.parametrize("levels", LEVEL_SETS, ids=str)
    @pytest.mark.parametrize("name", sorted(WORLDS))
    def test_on_scenario_worlds(self, name, levels):
        for seed in WORLD_SEEDS:
            topology = world(name, seed)
            new, oracle = twin_runs(
                lambda rng: _sweep_thresholds(topology, levels, rng),
                lambda rng: oracle_sweep_thresholds(topology, levels, rng),
                seed=seed,
            )
            assert new == oracle

    @pytest.mark.parametrize(
        "name, seed", [("grid_holes", 43), ("clustered", 168)]
    )
    def test_a_disconnected_world_raises_on_both_sides(self, name, seed):
        topology = world(name, seed)
        assert not topology.is_connected()
        new, oracle = twin_runs(
            lambda rng: _sweep_thresholds(topology, (0.8, 1.0), rng),
            lambda rng: oracle_sweep_thresholds(topology, (0.8, 1.0), rng),
            seed=seed,
        )
        assert new == oracle
        assert new[0][0][:2] == ("raised", RuntimeError)

    @pytest.mark.parametrize("side", [10, 25])
    def test_the_estimate_equals_one_from_oracle_sweeps(self, side):
        grid = GridTopology(side)
        levels = (0.8, 0.9, 0.99, 1.0)
        estimate = estimate_critical_bond_fraction(
            grid, levels, random.Random(7), runs=5
        )
        rng = random.Random(7)
        per_run = [
            oracle_sweep_thresholds(grid, levels, rng) for _ in range(5)
        ]
        for i, level in enumerate(levels):
            assert estimate.threshold_for(level) == summarize(
                [run[i] for run in per_run]
            )

    @pytest.mark.parametrize("coverage", [0.5, 0.9, 1.0])
    def test_coverage_bond_fraction_with_an_explicit_source(self, coverage):
        grid = GridTopology(12)
        new, oracle = twin_runs(
            lambda rng: coverage_bond_fraction(
                grid, coverage, rng, runs=2, source=5
            ),
            lambda rng: [
                oracle_first_count(
                    oracle_bond_curves(grid, rng, source=5)[0],
                    coverage,
                    grid.n_nodes,
                )
                / grid.n_edges
                for _ in range(2)
            ],
            seed=3,
        )
        assert new == oracle


class TestSiteFractionsMatchTheOracle:
    @pytest.mark.parametrize("coverage", [0.5, 0.8, 0.99, 1.0])
    @pytest.mark.parametrize("side", GRID_SIDES)
    def test_on_grids(self, side, coverage):
        grid = GridTopology(side)
        new, oracle = twin_runs(
            lambda rng: coverage_site_fraction(grid, coverage, rng, runs=2),
            lambda rng: oracle_site_fractions(grid, coverage, rng, runs=2),
            seed=side,
            runs=2,
        )
        assert new == oracle

    @pytest.mark.parametrize("coverage", [0.8, 0.99, 1.0])
    @pytest.mark.parametrize("name", sorted(WORLDS))
    def test_on_scenario_worlds(self, name, coverage):
        for seed in WORLD_SEEDS:
            topology = world(name, seed)
            new, oracle = twin_runs(
                lambda rng: coverage_site_fraction(
                    topology, coverage, rng, runs=2
                ),
                lambda rng: oracle_site_fractions(
                    topology, coverage, rng, runs=2
                ),
                seed=seed,
            )
            assert new == oracle


class TestFullCurvesMatchTheOracle:
    @pytest.mark.parametrize("side", GRID_SIDES)
    def test_bond_curves_on_grids(self, side):
        grid = GridTopology(side)
        sweep = bond_sweep(grid, random.Random(side))
        sizes, largest = oracle_bond_curves(grid, random.Random(side))
        assert list(sweep.source_cluster_sizes) == sizes
        assert list(sweep.largest_cluster_sizes) == largest

    @pytest.mark.parametrize("name", sorted(WORLDS))
    def test_bond_curves_on_scenario_worlds(self, name):
        for seed in WORLD_SEEDS:
            topology = world(name, seed)
            sweep = bond_sweep(topology, random.Random(seed), source=3)
            sizes, largest = oracle_bond_curves(
                topology, random.Random(seed), source=3
            )
            assert list(sweep.source_cluster_sizes) == sizes
            assert list(sweep.largest_cluster_sizes) == largest

    @pytest.mark.parametrize("side", GRID_SIDES)
    def test_site_curves_on_grids(self, side):
        grid = GridTopology(side)
        sweep = site_sweep(grid, random.Random(side))
        assert list(sweep.largest_cluster_sizes) == oracle_site_curve(
            grid, random.Random(side)
        )

    @pytest.mark.parametrize("name", sorted(WORLDS))
    def test_site_curves_on_scenario_worlds(self, name):
        for seed in WORLD_SEEDS:
            topology = world(name, seed)
            sweep = site_sweep(topology, random.Random(seed))
            assert list(sweep.largest_cluster_sizes) == oracle_site_curve(
                topology, random.Random(seed)
            )


def two_islands():
    """Two 3-node paths with no edge between them."""
    positions = [(float(i), 0.0) for i in range(6)]
    adjacency = [[1], [0, 2], [1], [4], [3, 5], [4]]
    return Topology(positions, adjacency)


class TestDisconnectedWorldsRaise:
    def test_bond_thresholds(self):
        with pytest.raises(RuntimeError, match="never reached coverage 1.0"):
            _sweep_thresholds(two_islands(), (0.5, 1.0), random.Random(1))

    def test_bond_coverage_fraction(self):
        with pytest.raises(RuntimeError, match="never reached coverage 1.0"):
            coverage_bond_fraction(two_islands(), 1.0, random.Random(1))

    def test_site_coverage_fraction(self):
        with pytest.raises(RuntimeError, match="never reached coverage 1.0"):
            coverage_site_fraction(two_islands(), 1.0, random.Random(1))

    def test_half_coverage_is_still_reached(self):
        assert _sweep_thresholds(
            two_islands(), (0.5,), random.Random(1)
        ) == oracle_sweep_thresholds(two_islands(), (0.5,), random.Random(1))


class TestOneRangeCheckPerSweep:
    @pytest.mark.parametrize("source", [-1, 16])
    def test_a_source_off_the_graph(self, source):
        with pytest.raises(IndexError):
            bond_sweep(GridTopology(4), random.Random(1), source=source)

    def test_a_source_that_is_no_integer(self):
        with pytest.raises(TypeError):
            bond_sweep(GridTopology(4), random.Random(1), source=1.5)

    def test_an_edge_endpoint_off_the_graph(self):
        csr = SimpleNamespace(
            n_edges=2, edge_u=np.array([0, 1]), edge_v=np.array([1, 3])
        )
        stub = SimpleNamespace(n_nodes=3, csr=csr)
        with pytest.raises(IndexError):
            bond_sweep(stub, random.Random(1), source=0)

    def test_a_neighbour_off_the_graph(self):
        stub = SimpleNamespace(
            n_nodes=2,
            csr=SimpleNamespace(indices=np.array([1, 2])),
            nodes=lambda: range(2),
            neighbors=lambda node: (1,) if node == 0 else (2,),
        )
        with pytest.raises(IndexError):
            site_sweep(stub, random.Random(1))


class TestTheLoopStopsAtItsCoverage:
    @pytest.mark.parametrize("stop", [2, 50, 400])
    def test_the_last_step_is_the_first_to_reach_the_stop(self, stop):
        grid = GridTopology(20)
        steps, _ = _bond_steps(grid, random.Random(2), None, stop=stop)
        assert steps[-1][1] >= stop
        assert all(size < stop for _, size in steps[:-1])

    def test_stopping_early_leaves_the_same_rng_state(self):
        grid = GridTopology(20)
        early, full = random.Random(5), random.Random(5)
        _bond_steps(grid, early, None, stop=10)
        bond_sweep(grid, full)
        assert early.random() == full.random()
