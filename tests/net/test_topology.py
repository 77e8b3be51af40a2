"""Tests for repro.net.topology."""

import math
import random

import numpy as np
import pytest

from repro.net.topology import (
    ClusteredRandomTopology,
    GridTopology,
    GridWithHolesTopology,
    RandomTopology,
    Topology,
    TorusGridTopology,
    _disk_adjacency,
    _disk_adjacency_dense,
    _disk_adjacency_hashed,
    area_for_density,
    density_for_area,
)


class TestGridTopology:
    def test_node_count(self):
        assert GridTopology(5).n_nodes == 25
        assert GridTopology(3, 7).n_nodes == 21

    def test_interior_node_has_four_neighbors(self):
        grid = GridTopology(5)
        assert grid.degree(grid.node_id(2, 2)) == 4

    def test_corner_has_two_neighbors(self):
        grid = GridTopology(5)
        assert grid.degree(grid.node_id(0, 0)) == 2

    def test_edge_node_has_three_neighbors(self):
        grid = GridTopology(5)
        assert grid.degree(grid.node_id(0, 2)) == 3

    def test_edge_count_matches_lattice_formula(self):
        # An n x m lattice has n(m-1) + m(n-1) edges.
        grid = GridTopology(4, 6)
        assert grid.n_edges == 4 * 5 + 6 * 3

    def test_neighbors_are_manhattan_adjacent(self):
        grid = GridTopology(4)
        node = grid.node_id(1, 2)
        for nbr in grid.neighbors(node):
            r, c = grid.coordinates(nbr)
            assert abs(r - 1) + abs(c - 2) == 1

    def test_no_wraparound(self):
        grid = GridTopology(3)
        left = grid.node_id(1, 0)
        right = grid.node_id(1, 2)
        assert right not in grid.neighbors(left)

    def test_center_node_of_odd_grid(self):
        grid = GridTopology(5)
        assert grid.coordinates(grid.center_node()) == (2, 2)

    def test_hop_distance_is_manhattan(self):
        grid = GridTopology(7)
        distances = grid.hop_distances_from(grid.node_id(0, 0))
        assert distances[grid.node_id(3, 4)] == 7

    def test_nodes_at_hop_distance(self):
        grid = GridTopology(5)
        ring = grid.nodes_at_hop_distance(grid.center_node(), 1)
        assert len(ring) == 4

    def test_connected(self):
        assert GridTopology(6).is_connected()

    def test_coordinates_roundtrip(self):
        grid = GridTopology(4, 9)
        for node in grid.nodes():
            r, c = grid.coordinates(node)
            assert grid.node_id(r, c) == node

    def test_node_id_bounds_checked(self):
        grid = GridTopology(3)
        with pytest.raises(IndexError):
            grid.node_id(3, 0)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            GridTopology(0)


class TestDensityFormula:
    def test_eq13_roundtrip(self):
        area = area_for_density(10.0, 50, 40.0)
        assert density_for_area(area, 50, 40.0) == pytest.approx(10.0)

    def test_area_value(self):
        # delta = pi R^2 N / A  =>  A = pi * 1600 * 50 / 10.
        assert area_for_density(10.0, 50, 40.0) == pytest.approx(
            math.pi * 1600 * 50 / 10.0
        )

    def test_rejects_zero_density(self):
        with pytest.raises(ValueError):
            area_for_density(0.0, 50, 40.0)


class TestRandomTopology:
    def test_node_count_and_area(self):
        topo = RandomTopology(50, 40.0, 10.0, random.Random(1))
        assert topo.n_nodes == 50
        assert topo.side == pytest.approx(math.sqrt(topo.area))

    def test_positions_inside_deployment_square(self):
        topo = RandomTopology(50, 40.0, 10.0, random.Random(2))
        for node in topo.nodes():
            x, y = topo.position(node)
            assert 0.0 <= x <= topo.side
            assert 0.0 <= y <= topo.side

    def test_adjacency_matches_disk_rule(self):
        topo = RandomTopology(40, 40.0, 10.0, random.Random(3))
        for node in topo.nodes():
            for other in topo.nodes():
                if node == other:
                    continue
                in_range = topo.euclidean_distance(node, other) <= 40.0
                assert (other in topo.neighbors(node)) == in_range

    def test_average_degree_tracks_density(self):
        # delta approximates the expected neighbour count; boundary effects
        # pull the realised mean down somewhat, so allow generous slack.
        rng = random.Random(4)
        degrees = [
            RandomTopology(50, 40.0, 10.0, rng).average_degree()
            for _ in range(10)
        ]
        mean_degree = sum(degrees) / len(degrees)
        assert 5.0 < mean_degree < 11.0

    def test_seeded_reproducibility(self):
        a = RandomTopology(30, 40.0, 10.0, random.Random(7))
        b = RandomTopology(30, 40.0, 10.0, random.Random(7))
        assert [a.position(i) for i in a.nodes()] == [
            b.position(i) for i in b.nodes()
        ]

    def test_connected_factory_returns_connected(self):
        topo = RandomTopology.connected(30, 40.0, 10.0, random.Random(5))
        assert topo.is_connected()

    def test_connected_factory_gives_up(self):
        # Density so low that 30 nodes essentially never connect.
        with pytest.raises(RuntimeError, match="no connected deployment"):
            RandomTopology.connected(
                30, 40.0, 0.05, random.Random(6), max_attempts=3
            )

    def test_connected_factory_error_names_the_bottleneck(self):
        # The error must say how close the attempts came and how to fix
        # the parameters, not just that a bounded retry loop gave up.
        with pytest.raises(RuntimeError, match=r"best attempt connected \d+/30"):
            RandomTopology.connected(
                30, 40.0, 0.05, random.Random(6), max_attempts=3
            )
        with pytest.raises(RuntimeError, match="raise the density"):
            RandomTopology.connected(
                30, 40.0, 0.05, random.Random(6), max_attempts=2
            )

    def test_connected_factory_rejects_nonpositive_attempt_budget(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RandomTopology.connected(
                30, 40.0, 10.0, random.Random(6), max_attempts=0
            )


class TestTorusGridTopology:
    def test_every_node_has_degree_four(self):
        torus = TorusGridTopology(5)
        assert all(torus.degree(v) == 4 for v in torus.nodes())
        assert torus.n_edges == 2 * torus.n_nodes

    def test_wraparound_neighbors(self):
        torus = TorusGridTopology(5)
        assert set(torus.neighbors(0)) == {1, 4, 5, 20}

    def test_hop_distances_wrap(self):
        open_grid = GridTopology(7)
        torus = TorusGridTopology(7)
        # Corner to opposite corner: 12 hops on the open grid; on the
        # torus both axes wrap (6 ≡ -1), so it is 2 hops away.
        far = open_grid.node_id(6, 6)
        assert open_grid.hop_distances_from(0)[far] == 12
        assert torus.hop_distances_from(0)[far] == 2
        mid = open_grid.node_id(3, 3)
        assert torus.hop_distances_from(0)[mid] == 6

    def test_degenerate_one_wide_axis_has_no_self_loops(self):
        torus = TorusGridTopology(1, 5)
        assert all(torus.degree(v) == 2 for v in torus.nodes())

    def test_grid_helpers_inherited(self):
        torus = TorusGridTopology(5)
        assert torus.node_id(2, 3) == 13
        assert torus.coordinates(13) == (2, 3)
        assert torus.center_node() == torus.node_id(2, 2)


class TestGridWithHolesTopology:
    def test_hole_nodes_removed_and_ids_compacted(self):
        holed = GridWithHolesTopology(6, holes=((1, 1, 2, 2),))
        assert holed.n_nodes == 32
        assert holed.is_connected()
        with pytest.raises(IndexError, match="removed"):
            holed.node_id(1, 1)
        # Survivors keep lattice coordinates and positions.
        node = holed.node_id(0, 5)
        assert holed.coordinates(node) == (0, 5)
        assert holed.position(node) == (5.0, 0.0)

    def test_adjacency_respects_holes(self):
        holed = GridWithHolesTopology(5, holes=((2, 2, 1, 1),))
        # (1, 2) lost its southern neighbour to the hole.
        assert holed.degree(holed.node_id(1, 2)) == 3

    def test_overlapping_and_boundary_holes_tolerated(self):
        holed = GridWithHolesTopology(
            6, holes=((0, 0, 2, 2), (1, 1, 2, 2), (4, 4, 5, 5))
        )
        assert 0 < holed.n_nodes < 36

    def test_hole_entirely_outside_the_grid_removes_nothing(self):
        # A negative stop must not wrap around to the far side.
        holed = GridWithHolesTopology(5, holes=((-3, 0, 2, 2), (0, -4, 2, 2)))
        assert holed.n_nodes == 25

    def test_all_nodes_removed_rejected(self):
        with pytest.raises(ValueError, match="every node"):
            GridWithHolesTopology(3, holes=((0, 0, 3, 3),))

    def test_empty_hole_rejected(self):
        with pytest.raises(ValueError, match="empty extent"):
            GridWithHolesTopology(4, holes=((0, 0, 0, 2),))

    def test_center_node_is_nearest_survivor(self):
        # The exact centre (2, 2) is removed; a lattice neighbour wins.
        holed = GridWithHolesTopology(5, holes=((2, 2, 1, 1),))
        row, col = holed.coordinates(holed.center_node())
        assert abs(row - 2) + abs(col - 2) == 1


class TestClusteredRandomTopology:
    def test_node_count_and_cluster_labels(self):
        topo = ClusteredRandomTopology(4, 10, 10.0, 5.0, 40.0, random.Random(3))
        assert topo.n_nodes == 40
        assert len(topo.cluster_of) == 40
        assert set(topo.cluster_of) == {0, 1, 2, 3}
        assert topo.cluster_of[0] == 0 and topo.cluster_of[39] == 3

    def test_positions_clipped_to_extent(self):
        topo = ClusteredRandomTopology(3, 20, 5.0, 30.0, 40.0, random.Random(9))
        for v in topo.nodes():
            x, y = topo.position(v)
            assert 0.0 <= x <= 40.0 and 0.0 <= y <= 40.0

    def test_seeded_reproducibility(self):
        a = ClusteredRandomTopology(4, 8, 10.0, 5.0, 40.0, random.Random(7))
        b = ClusteredRandomTopology(4, 8, 10.0, 5.0, 40.0, random.Random(7))
        assert [a.position(v) for v in a.nodes()] == [
            b.position(v) for v in b.nodes()
        ]

    def test_clusters_are_internally_dense(self):
        topo = ClusteredRandomTopology(4, 10, 10.0, 3.0, 40.0, random.Random(1))
        # A node should mostly neighbour its own cluster.
        same = 0
        total = 0
        for v in topo.nodes():
            for w in topo.neighbors(v):
                total += 1
                same += topo.cluster_of[v] == topo.cluster_of[w]
        assert total > 0
        assert same / total > 0.5


class TestDiskAdjacencyPaths:
    """Above 512 nodes the spatial hash must equal the dense comparison."""

    @staticmethod
    def assert_same_csr(topo, radio_range):
        positions = [topo.position(v) for v in topo.nodes()]
        dense = _disk_adjacency_dense(positions, radio_range)
        assert _disk_adjacency_hashed(positions, radio_range) == dense
        reference = Topology(positions, dense).csr
        for name in ("indptr", "indices", "degrees", "edge_u", "edge_v"):
            assert np.array_equal(getattr(topo.csr, name), getattr(reference, name))

    @pytest.mark.parametrize("n_nodes, density, seed", [
        (513, 12.0, 1), (1024, 8.0, 2), (1500, 20.0, 3),
    ])
    def test_random_deployments(self, n_nodes, density, seed):
        topo = RandomTopology(n_nodes, 10.0, density, random.Random(seed))
        self.assert_same_csr(topo, 10.0)

    @pytest.mark.parametrize("n_clusters, cluster_size, seed", [
        (3, 171, 4), (4, 225, 5), (5, 300, 6),
    ])
    def test_clustered_deployments(self, n_clusters, cluster_size, seed):
        topo = ClusteredRandomTopology(
            n_clusters, cluster_size, 10.0, 5.0, 40.0, random.Random(seed)
        )
        self.assert_same_csr(topo, 10.0)

    def test_pairs_exactly_one_range_apart(self):
        # Lattice neighbours sit exactly on the range and on cell edges.
        side = 25
        positions = [(10.0 * i, 10.0 * j) for i in range(side) for j in range(side)]
        dense = _disk_adjacency_dense(positions, 10.0)
        assert _disk_adjacency_hashed(positions, 10.0) == dense
        assert sum(map(len, dense)) == 4 * side * (side - 1)

    def test_small_deployments_take_the_dense_path(self):
        positions = [(float(i), 0.0) for i in range(512)]
        assert _disk_adjacency(positions, 1.0) == _disk_adjacency_dense(positions, 1.0)
        assert _disk_adjacency([], 1.0) == []


class TestTopologyBase:
    def test_symmetry_validated(self):
        with pytest.raises(ValueError, match="not symmetric"):
            Topology([(0, 0), (1, 0)], [[1], []])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            Topology([(0, 0)], [[0]])

    def test_out_of_range_neighbor_rejected(self):
        with pytest.raises(ValueError, match="out-of-range"):
            Topology([(0, 0)], [[5]])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            Topology([(0, 0)], [[], []])

    def test_unreachable_nodes_get_none_distance(self):
        topo = Topology([(0, 0), (1, 0), (5, 5)], [[1], [0], []])
        distances = topo.hop_distances_from(0)
        assert distances == [0, 1, None]
        assert not topo.is_connected()

    def test_largest_component(self):
        topo = Topology(
            [(0, 0), (1, 0), (5, 5), (6, 5), (7, 5)],
            [[1], [0], [3], [2, 4], [3]],
        )
        assert sorted(topo.largest_component()) == [2, 3, 4]

    def test_edges_listed_once(self):
        grid = GridTopology(3)
        edges = grid.edges()
        assert len(edges) == grid.n_edges
        assert all(u < v for u, v in edges)


class TestCSRAdjacency:
    def test_rows_match_neighbor_tuples(self):
        grid = GridTopology(6)
        csr = grid.csr
        for node in grid.nodes():
            start, stop = int(csr.indptr[node]), int(csr.indptr[node + 1])
            assert tuple(csr.indices[start:stop].tolist()) == grid.neighbors(node)
            assert int(csr.degrees[node]) == grid.degree(node)

    def test_edge_arrays_match_edges(self):
        grid = GridTopology(4, 5)
        csr = grid.csr
        assert list(zip(csr.edge_u.tolist(), csr.edge_v.tolist())) == grid.edges()
        assert csr.n_edges == grid.n_edges
        assert csr.n_nodes == grid.n_nodes

    def test_neighbors_of_many_row_major_order(self):
        grid = GridTopology(5)
        nodes = np.array([7, 3, 12])
        flat, owners = grid.csr.neighbors_of_many(nodes)
        expected = []
        expected_owner = []
        for pos, node in enumerate(nodes.tolist()):
            expected.extend(grid.neighbors(node))
            expected_owner.extend([pos] * grid.degree(node))
        assert flat.tolist() == expected
        assert owners.tolist() == expected_owner

    def test_padded_matrices(self):
        grid = GridTopology(4)
        neighbors = grid.csr.padded
        assert neighbors.shape == (grid.n_nodes, 4)
        for node in grid.nodes():
            degree = grid.degree(node)
            assert tuple(neighbors[node, :degree].tolist()) == grid.neighbors(node)
            # A corner or edge node pads its row with itself.
            assert neighbors[node, degree:].tolist() == [node] * (4 - degree)

    def test_duplicate_neighbors_collapse(self):
        topo = Topology([(0, 0), (1, 0)], [[1, 1], [0, 0, 0]])
        assert topo.neighbors(0) == (1,)
        assert topo.n_edges == 1

    def test_random_topology_feeds_csr(self):
        topo = RandomTopology(40, 40.0, 10.0, random.Random(12))
        total_degree = int(topo.csr.degrees.sum())
        assert total_degree == 2 * topo.n_edges


class TestHopDistanceCache:
    def test_array_is_memoized_and_readonly(self):
        grid = GridTopology(6)
        first = grid.hop_distance_array(0)
        assert grid.hop_distance_array(0) is first
        assert not first.flags.writeable

    def test_array_matches_list_view(self):
        grid = GridTopology(7)
        source = grid.center_node()
        as_list = grid.hop_distances_from(source)
        as_array = grid.hop_distance_array(source)
        assert [None if d < 0 else d for d in as_array.tolist()] == as_list

    def test_unreachable_marked_negative(self):
        topo = Topology([(0, 0), (1, 0), (5, 5)], [[1], [0], []])
        assert topo.hop_distance_array(0).tolist() == [0, 1, -1]

    def test_distinct_sources_cached_independently(self):
        grid = GridTopology(5)
        a = grid.hop_distance_array(0)
        b = grid.hop_distance_array(24)
        assert a[24] == b[0] == 8
        assert grid.hop_distance_array(0) is a
        assert grid.hop_distance_array(24) is b
