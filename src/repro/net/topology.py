"""Node placement and connectivity.

Two topology families reproduce the paper's settings:

* :class:`GridTopology` -- a square lattice with 4-neighbour connectivity
  and no wrap-around, used throughout the Section 4 analysis (75x75 for the
  simulated analysis, 10x10 .. 40x40 for the percolation study).
* :class:`RandomTopology` -- N nodes placed uniformly at random in a square
  deployment area, connected by radio range R.  Density follows Eq. 13:
  ``delta = pi * R^2 * N / A``; like the paper we fix N and R and derive the
  area A from the requested density.

Both expose the same interface (:class:`Topology`): neighbour lists,
positions, BFS hop distances, and connectivity queries, so the simulators
and percolation machinery are topology-agnostic.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.util.validation import check_positive, check_positive_int

Position = Tuple[float, float]


@dataclass(frozen=True)
class CSRAdjacency:
    """Flat compressed-sparse-row view of an undirected adjacency.

    ``indices[indptr[v]:indptr[v + 1]]`` are node ``v``'s neighbours in
    ascending order.  The vectorized kernels (frontier gathers in the ideal
    simulator, BFS sweeps, percolation edge shuffles) all index into these
    two arrays instead of walking per-node Python tuples.
    """

    #: Row offsets, shape ``(n_nodes + 1,)``.
    indptr: np.ndarray
    #: Concatenated neighbour lists, shape ``(2 * n_edges,)``.
    indices: np.ndarray
    #: Per-node degree, ``indptr[1:] - indptr[:-1]``.
    degrees: np.ndarray
    #: Undirected edge endpoints with ``edge_u < edge_v``, in the same
    #: node-major order :meth:`Topology.edges` reports.
    edge_u: np.ndarray
    edge_v: np.ndarray

    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return len(self.indptr) - 1

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return len(self.edge_u)

    @cached_property
    def padded(self) -> np.ndarray:
        """Dense neighbour matrix of shape ``(n, max_degree)``, self-padded.

        Row ``v`` holds ``v``'s neighbours in ascending order, then ``v``
        itself in every slot past its degree.  One fancy-index into it
        gathers a whole frontier's neighbourhoods — cheaper than the CSR
        repeat/cumsum dance when degrees are small and uniform (grids,
        unit-disk graphs), which is the ideal kernel's per-step case.  A
        sender has always been reached, so the kernel's "not yet reached"
        test drops its padding slots with no separate validity mask.

        Staleness guard: the matrix is built exactly once per adjacency,
        validated against the CSR arrays it was derived from (no node
        lists itself, so exactly the CSR entries differ from their row
        id), and returned *read-only* — a kernel scribbling into the
        shared cache would otherwise corrupt every later broadcast on the
        same topology without any error.  Realizing the same scenario
        again (any process, any seed) rebuilds an equal matrix from its
        own CSR, so cached and fresh views can never diverge.
        """
        n = self.n_nodes
        width = int(self.degrees.max()) if n else 0
        own = np.arange(n, dtype=self.indices.dtype)[:, None]
        neighbors = np.repeat(own, width, axis=1)
        neighbors[np.arange(width) < self.degrees[:, None]] = self.indices
        listed = int(np.count_nonzero(neighbors != own))
        if listed != len(self.indices):
            raise AssertionError(
                "padded neighbour matrix is stale: "
                f"{listed} neighbour slots for {len(self.indices)} "
                "CSR entries — the adjacency arrays changed after caching"
            )
        neighbors.setflags(write=False)
        return neighbors

    def neighbors_of_many(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Gather the neighbour lists of ``nodes`` as one flat array.

        Returns ``(flat_neighbors, owners)`` where ``owners[i]`` is the
        position *within ``nodes``* whose adjacency produced
        ``flat_neighbors[i]``.  Entries appear in node-major order (all of
        ``nodes[0]``'s neighbours first, each row ascending), which is
        exactly the order the scalar simulator visits them in — the
        fast path's first-claim tie-breaking depends on that.
        """
        counts = self.degrees[nodes]
        total = int(counts.sum())
        owners = np.repeat(np.arange(len(nodes)), counts)
        if total == 0:
            return np.empty(0, dtype=self.indices.dtype), owners
        starts = self.indptr[nodes]
        # offsets within each row: 0..counts[k]-1, concatenated.
        boundaries = np.cumsum(counts) - counts
        offsets = np.arange(total) - np.repeat(boundaries, counts)
        return self.indices[np.repeat(starts, counts) + offsets], owners


def bucket_by_distance(
    shortest_hops: Sequence[Optional[int]],
) -> Dict[int, List[int]]:
    """Group node ids by their hop distance (``None`` entries are skipped).

    The shared backing for per-hop-bucket metric queries
    (:meth:`repro.ideal.simulator.CampaignResult.nodes_at_distance`,
    :class:`repro.apps.metrics.BroadcastMetrics`), built once per result
    instead of re-scanning the distance list for every bucket.
    """
    buckets: Dict[int, List[int]] = {}
    for node, dist in enumerate(shortest_hops):
        if dist is not None:
            buckets.setdefault(dist, []).append(node)
    return buckets


def area_for_density(delta: float, n_nodes: int, radio_range: float) -> float:
    """Deployment area A satisfying Eq. 13 for the requested density.

    ``delta = pi * R^2 * N / A``  =>  ``A = pi * R^2 * N / delta``.
    """
    check_positive("delta", delta)
    check_positive_int("n_nodes", n_nodes)
    check_positive("radio_range", radio_range)
    return math.pi * radio_range**2 * n_nodes / delta


def density_for_area(area: float, n_nodes: int, radio_range: float) -> float:
    """Density ``delta`` of ``n_nodes`` with range ``radio_range`` in ``area``."""
    check_positive("area", area)
    check_positive_int("n_nodes", n_nodes)
    check_positive("radio_range", radio_range)
    return math.pi * radio_range**2 * n_nodes / area


class Topology:
    """An immutable undirected connectivity graph with node positions.

    Node ids are the integers ``0 .. n-1``.  Subclasses populate the
    adjacency structure; all queries (BFS distances, components, degree
    statistics) live here.
    """

    def __init__(self, positions: Sequence[Position], adjacency: Sequence[Iterable[int]]) -> None:
        if len(positions) != len(adjacency):
            raise ValueError(
                f"positions ({len(positions)}) and adjacency ({len(adjacency)}) "
                "must have the same length"
            )
        self._positions: List[Position] = [tuple(p) for p in positions]  # type: ignore[misc]
        n = len(self._positions)
        raw_rows = [list(nbrs) for nbrs in adjacency]
        counts = np.fromiter((len(r) for r in raw_rows), dtype=np.int64, count=n)
        flat = np.fromiter(
            (nbr for row in raw_rows for nbr in row),
            dtype=np.int64,
            count=int(counts.sum()),
        )
        owners = np.repeat(np.arange(n, dtype=np.int64), counts)
        if flat.size and (flat.min() < 0 or flat.max() >= n or (flat == owners).any()):
            self._raise_invalid_adjacency(raw_rows)
        # Sort + dedup every row at once: the combined key orders entries
        # node-major with neighbours ascending, uniqueness collapses repeats.
        combined = np.unique(owners * np.int64(n) + flat) if n else flat
        owners = combined // n if n else owners
        nbrs = combined % n if n else flat
        reverse = np.sort(nbrs * np.int64(n) + owners) if n else combined
        if not np.array_equal(combined, reverse):
            self._raise_invalid_adjacency(raw_rows)
        degrees = np.bincount(owners, minlength=n).astype(np.int64)
        indptr = np.concatenate(([0], np.cumsum(degrees)))
        forward = owners < nbrs
        edge_u, edge_v = owners[forward], nbrs[forward]
        # One realized topology may serve every point in a process, so a
        # write into any of its arrays must raise rather than leak.
        for array in (indptr, nbrs, degrees, edge_u, edge_v):
            array.setflags(write=False)
        self._csr = CSRAdjacency(
            indptr=indptr,
            indices=nbrs,
            degrees=degrees,
            edge_u=edge_u,
            edge_v=edge_v,
        )
        flat_list = nbrs.tolist()
        bounds = indptr.tolist()
        self._neighbors: List[Tuple[int, ...]] = [
            tuple(flat_list[bounds[v] : bounds[v + 1]]) for v in range(n)
        ]
        #: Per-source BFS results; topologies are immutable so entries
        #: never invalidate.  Arrays are marked read-only before caching.
        self._hop_cache: Dict[int, np.ndarray] = {}

    def _raise_invalid_adjacency(self, raw_rows: Sequence[Sequence[int]]) -> None:
        """Re-scan a rejected adjacency slowly to name the offending node."""
        normalized = [tuple(sorted(set(nbrs))) for nbrs in raw_rows]
        for node, nbrs in enumerate(normalized):
            for nbr in nbrs:
                if not 0 <= nbr < len(normalized):
                    raise ValueError(f"node {node} lists out-of-range neighbor {nbr}")
                if nbr == node:
                    raise ValueError(f"node {node} lists itself as a neighbor")
                if node not in normalized[nbr]:
                    raise ValueError(
                        f"adjacency is not symmetric: {node} -> {nbr} but not back"
                    )
        raise AssertionError("vectorized validation rejected a valid adjacency")

    @property
    def csr(self) -> CSRAdjacency:
        """The flat array view of the adjacency (built at construction)."""
        return self._csr

    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return len(self._positions)

    def nodes(self) -> range:
        """Iterable of all node ids."""
        return range(self.n_nodes)

    def position(self, node: int) -> Position:
        """(x, y) coordinates of ``node``."""
        return self._positions[node]

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """Sorted tuple of ``node``'s one-hop neighbours."""
        return self._neighbors[node]

    def degree(self, node: int) -> int:
        """Number of one-hop neighbours of ``node``."""
        return len(self._neighbors[node])

    def edges(self) -> List[Tuple[int, int]]:
        """All undirected edges as ``(u, v)`` pairs with ``u < v``."""
        return list(zip(self._csr.edge_u.tolist(), self._csr.edge_v.tolist()))

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return self._csr.n_edges

    def average_degree(self) -> float:
        """Mean node degree (the paper's expected one-hop neighbour count)."""
        if self.n_nodes == 0:
            return 0.0
        return float(self._csr.degrees.mean())

    def hop_distance_array(self, source: int) -> np.ndarray:
        """BFS hop counts from ``source`` as a read-only int64 array.

        Unreachable nodes get ``-1``.  Computed once per source with a
        frontier-at-a-time gather over the CSR view and memoized for the
        topology's lifetime (topologies are immutable), so the figure
        code's repeated per-hop-bucket queries never re-run BFS.
        """
        self._check_node(source)
        cached = self._hop_cache.get(source)
        if cached is not None:
            return cached
        distances = np.full(self.n_nodes, -1, dtype=np.int64)
        distances[source] = 0
        frontier = np.array([source], dtype=np.int64)
        hop = 0
        while frontier.size:
            flat, _ = self._csr.neighbors_of_many(frontier)
            candidates = np.unique(flat)
            frontier = candidates[distances[candidates] < 0]
            hop += 1
            distances[frontier] = hop
        distances.flags.writeable = False
        self._hop_cache[source] = distances
        return distances

    def hop_distances_from(self, source: int) -> List[Optional[int]]:
        """BFS hop count from ``source`` to every node.

        Unreachable nodes get ``None``.  This is the paper's "d", the
        shortest distance used to bucket nodes for the latency figures
        (2-hop, 5-hop, 20-hop, 60-hop).
        """
        return [
            None if d < 0 else d for d in self.hop_distance_array(source).tolist()
        ]

    def nodes_at_hop_distance(self, source: int, d: int) -> List[int]:
        """Node ids exactly ``d`` hops from ``source``."""
        return np.nonzero(self.hop_distance_array(source) == d)[0].tolist()

    def is_connected(self) -> bool:
        """True when every node is reachable from node 0."""
        if self.n_nodes == 0:
            return True
        return bool((self.hop_distance_array(0) >= 0).all())

    def largest_component(self) -> List[int]:
        """Node ids of the largest connected component."""
        seen = [False] * self.n_nodes
        best: List[int] = []
        for start in range(self.n_nodes):
            if seen[start]:
                continue
            component = [start]
            seen[start] = True
            frontier = deque([start])
            while frontier:
                node = frontier.popleft()
                for nbr in self._neighbors[node]:
                    if not seen[nbr]:
                        seen[nbr] = True
                        component.append(nbr)
                        frontier.append(nbr)
            if len(component) > len(best):
                best = component
        return best

    def euclidean_distance(self, a: int, b: int) -> float:
        """Straight-line distance between nodes ``a`` and ``b``."""
        (xa, ya), (xb, yb) = self._positions[a], self._positions[b]
        return math.hypot(xa - xb, ya - yb)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise IndexError(f"node {node} out of range [0, {self.n_nodes})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n_nodes={self.n_nodes}, n_edges={self.n_edges})"


class GridTopology(Topology):
    """Square lattice with 4-neighbour connectivity and no wrap-around.

    Node ``(row, col)`` has id ``row * cols + col`` and unit spacing, so
    Euclidean and Manhattan geometry line up with hop counts.
    """

    #: Whether lattice neighbours wrap around the edges (torus subclass).
    _wrap = False

    def __init__(self, rows: int, cols: Optional[int] = None) -> None:
        check_positive_int("rows", rows)
        if cols is None:
            cols = rows
        check_positive_int("cols", cols)
        self.rows = rows
        self.cols = cols
        positions: List[Position] = []
        adjacency: List[List[int]] = []
        for row in range(rows):
            for col in range(cols):
                positions.append((float(col), float(row)))
                adjacency.append(self._lattice_neighbors(row, col))
        super().__init__(positions, adjacency)

    def _lattice_neighbors(self, row: int, col: int) -> List[int]:
        """Ids of the 4-neighbourhood of ``(row, col)`` (wrap-aware)."""
        rows, cols = self.rows, self.cols
        coords = set()
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            r, c = row + dr, col + dc
            if self._wrap:
                r, c = r % rows, c % cols
            elif not (0 <= r < rows and 0 <= c < cols):
                continue
            if (r, c) != (row, col):  # degenerate wrap on a 1-wide axis
                coords.add((r, c))
        return [r * cols + c for r, c in coords]

    def node_id(self, row: int, col: int) -> int:
        """Node id of grid coordinate ``(row, col)``."""
        if not 0 <= row < self.rows or not 0 <= col < self.cols:
            raise IndexError(f"({row}, {col}) outside {self.rows}x{self.cols} grid")
        return row * self.cols + col

    def coordinates(self, node: int) -> Tuple[int, int]:
        """Grid coordinate ``(row, col)`` of ``node``."""
        self._check_node(node)
        return divmod(node, self.cols)

    def center_node(self) -> int:
        """The node nearest the grid centre (the paper's broadcast source)."""
        return self.node_id(self.rows // 2, self.cols // 2)


class TorusGridTopology(GridTopology):
    """Square lattice whose rows and columns wrap around (a torus).

    Every node has degree 4 (no boundary), which removes the edge effects
    of the open grid: broadcast reachability and percolation thresholds on
    the torus isolate the bulk behaviour the paper's analysis reasons
    about.  Positions keep the flat ``(col, row)`` embedding, so Euclidean
    geometry reflects the unwrapped lattice while hop distances wrap.
    """

    _wrap = True


class GridWithHolesTopology(GridTopology):
    """A grid with rectangular failed regions carved out.

    Models a deployment where contiguous areas of sensors are destroyed
    (fire, flooding, adversarial removal): the surviving nodes keep their
    lattice coordinates but the holes force broadcasts to route around
    them.  Node ids are re-compacted over the survivors.

    Parameters
    ----------
    rows, cols:
        Lattice shape before removal (``cols`` defaults to ``rows``).
    holes:
        Rectangles ``(top_row, left_col, height, width)``; nodes inside
        any rectangle are removed.  Rectangles may overlap each other and
        the boundary (out-of-range cells are ignored).
    """

    def __init__(
        self,
        rows: int,
        cols: Optional[int] = None,
        holes: Sequence[Tuple[int, int, int, int]] = (),
    ) -> None:
        check_positive_int("rows", rows)
        if cols is None:
            cols = rows
        check_positive_int("cols", cols)
        removed = np.zeros((rows, cols), dtype=bool)
        for top, left, height, width in holes:
            if height <= 0 or width <= 0:
                raise ValueError(
                    f"hole ({top}, {left}, {height}, {width}) has empty extent"
                )
            # Clamp both ends: a negative stop would wrap around and
            # silently remove cells on the far side of the grid.
            removed[
                max(0, top) : max(0, top + height),
                max(0, left) : max(0, left + width),
            ] = True
        if removed.all():
            raise ValueError("holes remove every node of the grid")
        self.rows = rows
        self.cols = cols
        self.holes = tuple(tuple(hole) for hole in holes)
        # Compacted ids in row-major order over the survivors.
        survivor_ids = np.full(rows * cols, -1, dtype=np.int64)
        keep = ~removed.reshape(-1)
        survivor_ids[keep] = np.arange(int(keep.sum()))
        self._survivor_ids = survivor_ids
        positions: List[Position] = []
        adjacency: List[List[int]] = []
        coordinates: List[Tuple[int, int]] = []
        for row in range(rows):
            for col in range(cols):
                if removed[row, col]:
                    continue
                positions.append((float(col), float(row)))
                coordinates.append((row, col))
                nbrs = []
                for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    r, c = row + dr, col + dc
                    if 0 <= r < rows and 0 <= c < cols and not removed[r, c]:
                        nbrs.append(int(survivor_ids[r * cols + c]))
                adjacency.append(nbrs)
        self._coordinates = coordinates
        Topology.__init__(self, positions, adjacency)

    def node_id(self, row: int, col: int) -> int:
        """Compacted id of surviving coordinate ``(row, col)``."""
        if not 0 <= row < self.rows or not 0 <= col < self.cols:
            raise IndexError(f"({row}, {col}) outside {self.rows}x{self.cols} grid")
        node = int(self._survivor_ids[row * self.cols + col])
        if node < 0:
            raise IndexError(f"({row}, {col}) was removed by a hole")
        return node

    def coordinates(self, node: int) -> Tuple[int, int]:
        """Lattice coordinate ``(row, col)`` of surviving ``node``."""
        self._check_node(node)
        return self._coordinates[node]

    def center_node(self) -> int:
        """The surviving node nearest the geometric grid centre."""
        cx = (self.cols - 1) / 2.0
        cy = (self.rows - 1) / 2.0
        return min(
            range(self.n_nodes),
            key=lambda v: (
                (self._positions[v][0] - cx) ** 2 + (self._positions[v][1] - cy) ** 2,
                v,
            ),
        )


class ClusteredRandomTopology(Topology):
    """Gaussian clusters of nodes bridged by unit-disk connectivity.

    Deployments in practice are rarely uniform: sensors are dropped in
    batches, so nodes form dense clusters with sparse bridges between
    them — the regime where broadcast reliability is most sensitive to
    p/q (intra-cluster redundancy is high, inter-cluster links are few).

    Cluster centres sit evenly on a ring around the deployment centre
    (adjacent centres within bridging range for sane defaults), and each
    cluster's nodes are drawn from an isotropic Gaussian around its
    centre, clipped to the deployment square.

    Parameters
    ----------
    n_clusters / cluster_size:
        Number of clusters and nodes per cluster (``n = product``).
    radio_range:
        Unit-disk connectivity radius.
    spread:
        Standard deviation of the per-cluster Gaussian.
    extent:
        Side of the deployment square; the ring of centres has radius
        ``0.3 * extent``.
    rng:
        Source of placement randomness (pass a seeded ``random.Random``).
    """

    def __init__(
        self,
        n_clusters: int,
        cluster_size: int,
        radio_range: float,
        spread: float,
        extent: float,
        rng: Optional[random.Random] = None,
    ) -> None:
        check_positive_int("n_clusters", n_clusters)
        check_positive_int("cluster_size", cluster_size)
        check_positive("radio_range", radio_range)
        check_positive("spread", spread)
        check_positive("extent", extent)
        rng = rng if rng is not None else random.Random()
        self.n_clusters = n_clusters
        self.cluster_size = cluster_size
        self.radio_range = radio_range
        self.spread = spread
        self.extent = extent
        half = extent / 2.0
        ring = 0.3 * extent
        centers = [
            (
                half + ring * math.cos(2.0 * math.pi * k / n_clusters),
                half + ring * math.sin(2.0 * math.pi * k / n_clusters),
            )
            for k in range(n_clusters)
        ]
        self.centers: Tuple[Position, ...] = tuple(centers)
        positions: List[Position] = []
        cluster_of: List[int] = []
        for k, (cx, cy) in enumerate(centers):
            for _ in range(cluster_size):
                x = min(max(cx + rng.gauss(0.0, spread), 0.0), extent)
                y = min(max(cy + rng.gauss(0.0, spread), 0.0), extent)
                positions.append((x, y))
                cluster_of.append(k)
        self.cluster_of: Tuple[int, ...] = tuple(cluster_of)
        adjacency = _disk_adjacency(positions, radio_range)
        super().__init__(positions, adjacency)


class RandomTopology(Topology):
    """Uniform-random deployment in a square, unit-disk connectivity.

    Parameters
    ----------
    n_nodes:
        Number of nodes (the paper fixes N = 50).
    radio_range:
        Transmission range R; any pair within R is connected.
    density:
        Target density ``delta`` from Eq. 13.  The deployment area is
        derived as ``A = pi R^2 N / delta`` (the paper's procedure: "we
        fixed N and changed A to get the desired delta").
    rng:
        Source of placement randomness (pass a seeded ``random.Random``).
    """

    def __init__(
        self,
        n_nodes: int,
        radio_range: float,
        density: float,
        rng: Optional[random.Random] = None,
    ) -> None:
        check_positive_int("n_nodes", n_nodes)
        check_positive("radio_range", radio_range)
        check_positive("density", density)
        rng = rng if rng is not None else random.Random()
        self.radio_range = radio_range
        self.density = density
        self.area = area_for_density(density, n_nodes, radio_range)
        self.side = math.sqrt(self.area)
        positions = [
            (rng.uniform(0.0, self.side), rng.uniform(0.0, self.side))
            for _ in range(n_nodes)
        ]
        adjacency = _disk_adjacency(positions, radio_range)
        super().__init__(positions, adjacency)

    @classmethod
    def connected(
        cls,
        n_nodes: int,
        radio_range: float,
        density: float,
        rng: random.Random,
        max_attempts: int = 200,
    ) -> "RandomTopology":
        """Sample deployments until one is fully connected.

        Low densities occasionally yield partitioned deployments; the paper
        implicitly studies connected scenarios (latency and reliability are
        measured to reachable nodes).  Raises :class:`RuntimeError` after
        ``max_attempts`` failures so infeasible parameters fail loudly
        (with how close the attempts came) instead of retrying forever.
        """
        if max_attempts <= 0:
            raise ValueError(f"max_attempts must be > 0, got {max_attempts}")
        best_component = 0
        for _ in range(max_attempts):
            topology = cls(n_nodes, radio_range, density, rng)
            if topology.is_connected():
                return topology
            best_component = max(best_component, len(topology.largest_component()))
        raise RuntimeError(
            f"no connected deployment found in {max_attempts} attempts "
            f"(n={n_nodes}, range={radio_range}, density={density}); "
            f"best attempt connected {best_component}/{n_nodes} nodes — "
            "raise the density or max_attempts, or drop the connectivity "
            "requirement"
        )


#: Up to this size one dense pairwise-distance matrix is cheapest; above
#: it the spatial hash keeps every distance block to a cell's 3x3
#: neighbourhood.  Measured on a 2-vCPU Xeon (radio range 10; median ms
#: and peak traced MiB, dense / hashed): 512 random nodes at density 12
#: 2.8 / 3.8 ms, 8.0 / 0.5 MiB; the full-scale worlds, 900 random nodes
#: at density 12 16.2 / 10.5 ms, 24.7 / 1.0 MiB, and 4 x 225 clustered
#: 25.1 / 17.3 ms, 24.7 / 13.6 MiB; 3,000 random nodes 161 / 35 ms,
#: 275 / 3.8 MiB — the dense temporaries grow as n^2.
_DENSE_DISK_LIMIT = 512

#: Spatial-hash cells are this much wider than the radio range, so float
#: rounding in the bucketing can never put two in-range nodes more than one
#: cell apart.
_CELL_MARGIN = 1.0 + 1e-9


def _disk_adjacency(
    positions: Sequence[Position], radio_range: float
) -> List[List[int]]:
    """Adjacency lists for the unit-disk graph over ``positions``.

    Small deployments (the paper's N=50 random scenarios) use one
    vectorized pairwise-distance comparison; large ones a spatial hash,
    so the distance blocks stay small for sparse graphs.  Both give the
    same lists: each row ascending, every pair decided by the same float
    expression.
    """
    if len(positions) <= _DENSE_DISK_LIMIT:
        return _disk_adjacency_dense(positions, radio_range)
    return _disk_adjacency_hashed(positions, radio_range)


def _within_range(
    xy: np.ndarray, nodes: np.ndarray, others: np.ndarray, radio_range: float
) -> np.ndarray:
    """``(len(nodes), len(others))`` mask of pairs no farther apart than
    ``radio_range`` (a node is within range of itself)."""
    dx = xy[nodes, 0][:, None] - xy[others, 0]
    dy = xy[nodes, 1][:, None] - xy[others, 1]
    return dx * dx + dy * dy <= radio_range * radio_range


def _adjacency_lists(n: int, rows: np.ndarray, cols: np.ndarray) -> List[List[int]]:
    """Per-node neighbour lists from ``(row, col)`` pairs in row-major order."""
    bounds = np.searchsorted(rows, np.arange(n + 1)).tolist()
    flat = cols.tolist()
    return [flat[bounds[v] : bounds[v + 1]] for v in range(n)]


def _disk_adjacency_dense(
    positions: Sequence[Position], radio_range: float
) -> List[List[int]]:
    """Unit-disk adjacency from one ``n x n`` distance comparison."""
    n = len(positions)
    if n == 0:
        return []
    xy = np.asarray(positions, dtype=np.float64)
    nodes = np.arange(n)
    within = _within_range(xy, nodes, nodes, radio_range)
    np.fill_diagonal(within, False)
    rows, cols = np.nonzero(within)
    return _adjacency_lists(n, rows, cols)


def _disk_adjacency_hashed(
    positions: Sequence[Position], radio_range: float
) -> List[List[int]]:
    """Spatial-hash unit-disk adjacency for large deployments.

    Nodes are bucketed into square cells a hair wider than the range, so
    every in-range pair sits in one cell or two adjacent ones.  Each cell
    compares its members with the members of its 3x3 block of cells, one
    distance block per cell, and keeps each pair once.
    """
    n = len(positions)
    xy = np.asarray(positions, dtype=np.float64)
    cells = np.floor(xy / (radio_range * _CELL_MARGIN)).astype(np.int64)
    buckets: Dict[Tuple[int, int], List[int]] = {}
    for node, (cx, cy) in enumerate(cells.tolist()):
        buckets.setdefault((cx, cy), []).append(node)
    members = {cell: np.array(nodes) for cell, nodes in buckets.items()}
    pairs_u: List[np.ndarray] = []
    pairs_v: List[np.ndarray] = []
    for (cx, cy), nodes in members.items():
        block = np.concatenate([
            members[key]
            for key in ((cx + dx, cy + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))
            if key in members
        ])
        within = _within_range(xy, nodes, block, radio_range)
        within &= nodes[:, None] < block  # each pair once
        u, v = np.nonzero(within)
        pairs_u.append(nodes[u])
        pairs_v.append(block[v])
    u = np.concatenate(pairs_u)
    v = np.concatenate(pairs_v)
    keys = np.sort(np.concatenate((u * n + v, v * n + u)))
    return _adjacency_lists(n, keys // n, keys % n)
