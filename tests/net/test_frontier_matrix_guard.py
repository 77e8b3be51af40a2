"""Regression: the cached padded neighbour matrix can never go stale.

The fast-path broadcast kernel gathers whole frontiers through
``topology.csr.padded``; the matrix is cached on the (immutable) CSR
view, so two hazards exist: a kernel mutating the shared cache in place,
and a re-realized scenario (same seed, any process) somehow seeing a
different matrix.  Both are pinned here.  A seed-free world is shared by
every point in a process, so every CSR array is read-only as well.
"""

import multiprocessing

import numpy as np
import pytest

from repro.net.topology import GridTopology, RandomTopology
from repro.runners.points import _realized_scenario, clear_point_caches
from repro.scenarios import ScenarioSpec

RANDOM_SPEC = ScenarioSpec.build(
    "random", {"n_nodes": 36, "radio_range": 10.0, "density": 12.0},
    source="random",
)


def _padded_checksum(token_and_seed):
    """Worker: realize a scenario and fingerprint its padded matrix."""
    token, seed = token_and_seed
    realized = ScenarioSpec.from_token(token).realize(seed)
    neighbors = realized.topology.csr.padded
    return (
        neighbors.shape,
        int(neighbors.sum()),
        int(np.count_nonzero(neighbors != np.arange(len(neighbors))[:, None])),
        bool(neighbors.flags.writeable),
    )


class TestReadOnlyGuard:
    def test_padded_matrices_are_read_only(self):
        neighbors = GridTopology(5).csr.padded
        assert not neighbors.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            neighbors[0, 0] = 99

    @pytest.mark.parametrize(
        "name", ["indptr", "indices", "degrees", "edge_u", "edge_v"]
    )
    def test_csr_arrays_are_read_only(self, name):
        array = getattr(GridTopology(5).csr, name)
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 99

    def test_padded_is_built_once_and_consistent(self):
        topo = GridTopology(6)
        neighbors = topo.csr.padded
        assert topo.csr.padded is neighbors  # cached, not rebuilt
        own = np.arange(topo.n_nodes)[:, None]
        assert int(np.count_nonzero(neighbors != own)) == len(topo.csr.indices)
        for node in topo.nodes():
            degree = topo.degree(node)
            assert tuple(neighbors[node, :degree].tolist()) == topo.neighbors(node)
            # Padding slots name the row's own node.
            assert (neighbors[node, degree:] == node).all()


class TestRepeatedRealization:
    def test_repeated_realize_rebuilds_equal_matrices(self):
        seed = 1234
        first = RANDOM_SPEC.realize(seed).topology
        second = RANDOM_SPEC.realize(seed).topology
        assert first is not second
        assert np.array_equal(first.csr.padded, second.csr.padded)

    def test_memoized_realization_shares_the_cached_matrix(self):
        clear_point_caches()
        token = RANDOM_SPEC.token
        first = _realized_scenario(token, 77).topology
        second = _realized_scenario(token, 77).topology
        assert first is second
        assert first.csr.padded is second.csr.padded

    def test_realize_across_processes_is_bit_identical(self):
        seed = 4242
        parent = _padded_checksum((RANDOM_SPEC.token, seed))
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(2) as pool:
            children = pool.map(
                _padded_checksum, [(RANDOM_SPEC.token, seed)] * 2
            )
        assert children == [parent, parent]
        assert parent[3] is False  # read-only in every process

    def test_different_seeds_differ(self):
        a = RANDOM_SPEC.realize(1).topology.csr
        b = RANDOM_SPEC.realize(2).topology.csr
        assert not (
            a.padded.shape == b.padded.shape and np.array_equal(a.padded, b.padded)
        )
