"""Site percolation sweeps.

The gossip-based routing protocol the paper contrasts PBBF against [5]
corresponds to *site* percolation: each node independently decides to relay
(to all neighbours) or to stay silent.  We include the site sweep both as a
baseline for examples and to demonstrate the structural difference Remark 1
relies on (bond thresholds sit below site thresholds on the same lattice).

The Newman-Ziff formulation activates sites one at a time in random order;
an activated site merges with every already-active neighbour.  As for
bonds, one list-based loop records the steps at which the largest active
cluster grew: :func:`site_sweep` expands them into the full curve, and
:func:`coverage_site_fraction` stops the loop at the coverage it needs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.net.topology import Topology
from repro.percolation.bond import (
    Steps,
    _check_node_ids,
    _expand_steps,
    _first_step_reaching,
)
from repro.util.validation import check_probability


@dataclass(frozen=True)
class SiteSweepResult:
    """Outcome of one site-percolation sweep.

    ``largest_cluster_sizes[m]`` is the largest active-cluster size once the
    first ``m`` sites are occupied.
    """

    n_nodes: int
    largest_cluster_sizes: Tuple[int, ...]

    def first_site_count_reaching(self, coverage: float) -> Optional[int]:
        """Smallest active-site count whose largest cluster covers ``coverage``."""
        check_probability("coverage", coverage)
        needed = max(1, math.ceil(coverage * self.n_nodes))
        for m, size in enumerate(self.largest_cluster_sizes):
            if size >= needed:
                return m
        return None


def site_sweep(topology: Topology, rng: random.Random) -> SiteSweepResult:
    """Run one Newman-Ziff site sweep over ``topology``."""
    n = topology.n_nodes
    return SiteSweepResult(
        n_nodes=n,
        largest_cluster_sizes=_expand_steps(_site_steps(topology, rng, n), n),
    )


def _site_steps(topology: Topology, rng: random.Random, stop: int) -> Steps:
    """The sweep loop: the largest active cluster's steps.

    Stops at the site that grows the largest active cluster to ``stop``
    nodes.  Inactive sites stay untouched singletons, so the activated
    site is its own root until it merges.
    """
    n = topology.n_nodes
    order = list(topology.nodes())
    rng.shuffle(order)
    _check_node_ids(n, topology.csr.indices)
    neighbors = topology.neighbors
    active = [False] * n
    parent = list(range(n))
    size = [1] * n
    largest = 0
    steps: Steps = [(0, 0)]
    for m, site in zip(range(1, n + 1), order):
        active[site] = True
        root = site
        for nbr in neighbors(site):
            if active[nbr]:
                # Path halving: each node on the walk skips to its
                # grandparent.
                while parent[nbr] != nbr:
                    parent[nbr] = nbr = parent[parent[nbr]]
                if nbr != root:
                    if size[root] < size[nbr]:
                        root, nbr = nbr, root
                    parent[nbr] = root
                    size[root] += size[nbr]
        if size[root] > largest:
            largest = size[root]
            steps.append((m, largest))
            if largest >= stop:
                break
    return steps


def coverage_site_fraction(
    topology: Topology,
    coverage: float,
    rng: random.Random,
    runs: int = 20,
) -> List[float]:
    """Per-run critical site fractions for the largest cluster to reach ``coverage``.

    Each sweep stops once the largest active cluster covers ``coverage``.
    """
    if runs <= 0:
        raise ValueError(f"runs must be > 0, got {runs}")
    check_probability("coverage", coverage)
    n = topology.n_nodes
    needed = max(1, math.ceil(coverage * n))
    fractions: List[float] = []
    for _ in range(runs):
        steps = _site_steps(topology, rng, needed)
        count = _first_step_reaching(steps, needed)
        if count is None:
            raise RuntimeError(
                f"sweep never reached coverage {coverage}; is the graph connected?"
            )
        fractions.append(count / n)
    return fractions
