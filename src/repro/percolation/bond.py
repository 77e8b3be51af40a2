"""Bond percolation sweeps (Newman-Ziff algorithm).

One *sweep* activates every edge of a graph exactly once, in a uniformly
random order, merging endpoints in a union-find structure.  Because cluster
growth is monotone, the first activation count at which a predicate becomes
true (e.g. "the source's cluster covers 90% of nodes") is that run's
critical bond count; dividing by the number of edges gives the critical
*fraction* plotted in Figure 6.

The sweep loop keeps its disjoint-set forest in plain lists and records
only the steps at which a cluster grew.  :func:`bond_sweep` expands those
steps into full occupation curves; a threshold estimate stops the same
loop once the source's cluster reaches the highest coverage it needs.
The edge order is shuffled in full first, so stopping early draws the
same random numbers as a full sweep.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.net.topology import Topology
from repro.util.validation import check_probability

#: ``(m, size)`` pairs in order: a cluster's size from the ``m``-th
#: occupation on, one pair per occupation that grew it.
Steps = List[Tuple[int, int]]


@dataclass(frozen=True)
class BondSweepResult:
    """Outcome of one bond-percolation sweep.

    Attributes
    ----------
    n_nodes / n_edges:
        Size of the swept graph.
    source_cluster_sizes:
        ``source_cluster_sizes[m]`` is the size of the cluster containing
        the tracked source after the first ``m`` bonds are occupied
        (index 0 = no bonds = 1, the source alone).
    largest_cluster_sizes:
        Same, for the largest cluster in the graph.
    """

    n_nodes: int
    n_edges: int
    source_cluster_sizes: Tuple[int, ...]
    largest_cluster_sizes: Tuple[int, ...]

    def first_bond_count_reaching(self, coverage: float) -> Optional[int]:
        """Smallest occupied-bond count where source coverage >= ``coverage``.

        Returns ``None`` when even the fully-occupied graph never reaches it
        (e.g. a disconnected graph).
        """
        check_probability("coverage", coverage)
        needed = max(1, math.ceil(coverage * self.n_nodes))
        for m, size in enumerate(self.source_cluster_sizes):
            if size >= needed:
                return m
        return None

    def coverage_fraction_at(self, bond_fraction: float) -> float:
        """Source-cluster coverage when ``bond_fraction`` of bonds are open."""
        check_probability("bond_fraction", bond_fraction)
        m = min(self.n_edges, int(round(bond_fraction * self.n_edges)))
        return self.source_cluster_sizes[m] / self.n_nodes


def bond_sweep(
    topology: Topology,
    rng: random.Random,
    source: Optional[int] = None,
) -> BondSweepResult:
    """Run one Newman-Ziff bond sweep over ``topology``.

    Parameters
    ----------
    topology:
        The graph whose edges are activated (typically a
        :class:`~repro.net.topology.GridTopology`).
    rng:
        Randomness for the edge permutation.
    source:
        Node whose cluster is tracked; defaults to the grid centre for
        grids and node 0 otherwise, matching the paper's "source as near
        to the center of the grid as possible".
    """
    n_edges = topology.csr.n_edges
    source_steps, largest_steps = _bond_steps(
        topology, rng, source, stop=topology.n_nodes
    )
    return BondSweepResult(
        n_nodes=topology.n_nodes,
        n_edges=n_edges,
        source_cluster_sizes=_expand_steps(source_steps, n_edges),
        largest_cluster_sizes=_expand_steps(largest_steps, n_edges),
    )


def _first_bond_counts(
    topology: Topology,
    coverages: Sequence[float],
    rng: random.Random,
    source: Optional[int] = None,
) -> List[Optional[int]]:
    """One sweep's smallest occupied-bond count reaching each coverage.

    The sweep stops once the source's cluster reaches the highest
    coverage; ``None`` marks a coverage it never reached (e.g. on a
    disconnected graph).  Equal to ``first_bond_count_reaching`` on the
    :func:`bond_sweep` of the same ``rng`` state.
    """
    needed = [
        max(1, math.ceil(check_probability("coverage", c) * topology.n_nodes))
        for c in coverages
    ]
    steps, _ = _bond_steps(topology, rng, source, stop=max(needed))
    return [_first_step_reaching(steps, size) for size in needed]


def _bond_steps(
    topology: Topology,
    rng: random.Random,
    source: Optional[int],
    stop: int,
) -> Tuple[Steps, Steps]:
    """The sweep loop: the source's and the largest cluster's steps.

    Stops at the bond that grows the source's cluster to ``stop`` nodes.
    Union by size with path halving; any disjoint-set forest yields the
    same clusters, so the sizes do not depend on that choice.
    """
    source = operator.index(
        _default_source(topology) if source is None else source
    )
    csr = topology.csr
    n = topology.n_nodes
    # Shuffling index positions draws exactly the same permutation as
    # shuffling the edge list itself (Fisher-Yates only looks at length),
    # so the edge reorder is one vectorized gather from the topology's
    # cached CSR edge arrays.
    order = list(range(csr.n_edges))
    rng.shuffle(order)
    _check_node_ids(n, [source], csr.edge_u, csr.edge_v)
    us = csr.edge_u[order].tolist()
    vs = csr.edge_v[order].tolist()
    parent = list(range(n))
    size = [1] * n
    # ``source_root`` is always a root: when the source's cluster merges,
    # the merged root is the winner of that union.
    source_root = source
    largest = 1
    source_steps: Steps = [(0, 1)]
    largest_steps: Steps = [(0, 1)]
    for m, u, v in zip(range(1, len(us) + 1), us, vs):
        # Path halving: each node on the walk skips to its grandparent.
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            continue
        if size[u] < size[v]:
            u, v = v, u
        parent[v] = u
        grown = size[u] + size[v]
        size[u] = grown
        if grown > largest:
            largest = grown
            largest_steps.append((m, grown))
        if v == source_root or u == source_root:
            source_root = u
            source_steps.append((m, grown))
            if grown >= stop:
                break
    return source_steps, largest_steps


def _check_node_ids(n_nodes: int, *ids: Sequence[int]) -> None:
    """Once per sweep: every id in ``ids`` names one of ``n_nodes`` nodes."""
    for array in ids:
        if np.size(array) and not (
            0 <= np.min(array) and np.max(array) < n_nodes
        ):
            raise IndexError(f"node id out of range [0, {n_nodes})")


def _expand_steps(steps: Steps, last: int) -> Tuple[int, ...]:
    """The size after each of ``0 .. last`` occupations."""
    sizes: List[int] = []
    bounds = [m for m, _ in steps[1:]] + [last + 1]
    for (m, size), until in zip(steps, bounds):
        sizes.extend([size] * (until - m))
    return tuple(sizes)


def _first_step_reaching(steps: Steps, size: int) -> Optional[int]:
    """The first occupation count at which the size is at least ``size``."""
    for m, grown in steps:
        if grown >= size:
            return m
    return None


def coverage_bond_fraction(
    topology: Topology,
    coverage: float,
    rng: random.Random,
    runs: int = 20,
    source: Optional[int] = None,
) -> List[float]:
    """Per-run critical bond fractions for reaching ``coverage``.

    Runs ``runs`` independent sweeps and returns each run's
    ``critical_bond_count / n_edges``.  Aggregate with
    :func:`repro.util.stats.summarize`.  Runs that never reach the coverage
    (impossible on a connected graph) raise :class:`RuntimeError` so silent
    bias is impossible.
    """
    if runs <= 0:
        raise ValueError(f"runs must be > 0, got {runs}")
    fractions: List[float] = []
    for _ in range(runs):
        [count] = _first_bond_counts(topology, (coverage,), rng, source)
        if count is None:
            raise RuntimeError(
                f"sweep never reached coverage {coverage}; is the graph connected?"
            )
        fractions.append(count / topology.n_edges)
    return fractions


def _default_source(topology: Topology) -> int:
    center = getattr(topology, "center_node", None)
    if callable(center):
        return center()
    return 0
