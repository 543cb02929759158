"""Unit tests for repro.network.routing."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TopologyError
from repro.network import (
    Topology,
    complete,
    hypercube,
    kary_ncube,
    mesh,
    random_connected,
    ring,
    star,
    torus,
    tree,
)
from repro.network import routing
from repro.network.routing import (
    bfs_chunks,
    bfs_distances,
    eccentricity_extremes,
    hop_distances,
    path_hops,
)
from repro.workloads.distributions import _far_apart_centers


class TestHopDistances:
    def test_mesh_manhattan(self):
        t = mesh(4, 4)
        hd = hop_distances(t)
        # Mesh hop distance is the Manhattan distance between grid coords.
        for u in range(16):
            for v in range(16):
                ur, uc = divmod(u, 4)
                vr, vc = divmod(v, 4)
                assert hd[u, v] == abs(ur - vr) + abs(uc - vc)

    def test_ring_wraps(self):
        hd = hop_distances(ring(6))
        assert hd[0, 3] == 3
        assert hd[0, 5] == 1

    def test_hypercube_hamming(self):
        t = hypercube(4)
        hd = hop_distances(t)
        for u in range(16):
            for v in range(16):
                assert hd[u, v] == bin(u ^ v).count("1")

    def test_symmetric_zero_diagonal(self, mesh4):
        hd = hop_distances(mesh4)
        assert (hd == hd.T).all()
        assert (np.diag(hd) == 0).all()


class TestPathHops:
    def test_valid_route(self, mesh4):
        assert path_hops(mesh4, [0, 1, 2, 6]) == 3

    def test_rejects_non_edges(self, mesh4):
        with pytest.raises(TopologyError):
            path_hops(mesh4, [0, 5])

    def test_empty_route(self, mesh4):
        assert path_hops(mesh4, [3]) == 0


# --------------------------------------------------------------------- #
# BFS rows and eccentricity extremes == the all-pairs answers
# --------------------------------------------------------------------- #

_SMALL_GRAPHS = st.one_of(
    st.builds(mesh, st.integers(1, 7), st.integers(1, 7)),
    st.builds(torus, st.integers(3, 6), st.integers(3, 6)),
    st.builds(hypercube, st.integers(1, 5)),
    st.builds(ring, st.integers(3, 12)),
    st.builds(star, st.integers(2, 12)),
    st.builds(complete, st.integers(2, 8)),
    st.builds(tree, st.integers(1, 3), st.integers(0, 3)),
    st.builds(kary_ncube, st.integers(2, 4), st.integers(1, 3)),
    st.builds(random_connected, st.integers(2, 40), st.floats(1.5, 5.0),
              st.integers(0, 10_000)),
)

_VERTEX_TRANSITIVE = [
    torus(3, 5), torus(4, 4), hypercube(1), hypercube(4), ring(3),
    ring(8), complete(2), complete(6), kary_ncube(3, 3), kary_ncube(4, 2),
    kary_ncube(2, 3),
]


def _unflagged(topo):
    """The same graph without the builder's vertex-transitive shortcut."""
    return Topology(topo.graph, name=topo.name, coords=topo.coords)


def _reference_extremes(hd):
    ecc = hd.max(axis=1)
    return (int(np.argmin(ecc)), int(np.argmax(ecc)), int(ecc.max()))


def _reference_k_centers(hd, k):
    """Greedy k-center straight off the all-pairs matrix."""
    chosen = [int(np.argmax(hd.max(axis=1)))]
    while len(chosen) < min(k, hd.shape[0]):
        chosen.append(int(np.argmax(hd[:, chosen].min(axis=1))))
    return chosen


class TestBfsEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(topo=_SMALL_GRAPHS, budget=st.sampled_from([0, 1, 3, routing._BOUNDING_BFS]))
    def test_extremes_match_all_pairs(self, topo, budget):
        hd = hop_distances(topo)
        expected = _reference_extremes(hd)
        # The flagged shortcut, then the bounding search on the same
        # graph with every BFS budget: 0 resolves all nodes exactly.
        assert tuple(eccentricity_extremes(topo)) == expected
        with patch.object(routing, "_BOUNDING_BFS", budget):
            assert tuple(eccentricity_extremes(_unflagged(topo))) == expected
        assert topo.diameter == expected[2]

    @settings(max_examples=40, deadline=None)
    @given(topo=_SMALL_GRAPHS)
    def test_greedy_k_centers_match_all_pairs(self, topo):
        hd = hop_distances(topo)
        for k in range(1, 5):
            centers, rows = _far_apart_centers(topo, k)
            assert centers == _reference_k_centers(hd, k)
            np.testing.assert_array_equal(rows, hd[centers])

    @settings(max_examples=40, deadline=None)
    @given(topo=_SMALL_GRAPHS, data=st.data())
    def test_bfs_rows_match_all_pairs(self, topo, data):
        hd = hop_distances(topo)
        sources = data.draw(st.lists(st.integers(0, topo.n_nodes - 1), max_size=6))
        rows = bfs_distances(topo, sources)
        assert rows.dtype == np.int32
        assert rows.shape == (len(sources), topo.n_nodes)
        np.testing.assert_array_equal(rows, hd[sources])

    def test_chunks_cover_sources_in_order(self, monkeypatch):
        topo = mesh(6, 5)
        monkeypatch.setattr(routing, "_CHUNK_BYTES", 8 * topo.n_nodes * 4)
        sources = [29, 3, 3, 17, 0, 11]
        chunks = list(bfs_chunks(topo, sources))
        assert [c.tolist() for c, _ in chunks] == [[29, 3, 3, 17], [0, 11]]
        np.testing.assert_array_equal(
            np.concatenate([r for _, r in chunks]), hop_distances(topo)[sources]
        )

    @pytest.mark.parametrize("topo", _VERTEX_TRANSITIVE, ids=lambda t: t.name)
    def test_flagged_builders_have_constant_eccentricity(self, topo):
        ecc = hop_distances(topo).max(axis=1)
        assert (ecc == ecc[0]).all()

    def test_flags(self):
        assert all(t._vertex_transitive for t in _VERTEX_TRANSITIVE)
        for t in (mesh(3, 3), star(5), tree(2, 2), random_connected(10, seed=1)):
            assert not t._vertex_transitive


class TestHopMatrixBound:
    def test_refuses_above_bound(self, monkeypatch):
        topo = mesh(8, 8)
        monkeypatch.setattr(routing, "HOP_MATRIX_MAX_BYTES", 4 * 63 * 63)
        with pytest.raises(TopologyError, match=r"64 nodes.*bfs_distances"):
            topo.hop_distances
        assert "hop_distances" not in topo.__dict__
        # Everything set-up needs still works without the matrix.
        assert topo.diameter == 14
        assert bfs_distances(topo, [0])[0, 63] == 14

    def test_at_bound_builds(self, monkeypatch):
        topo = mesh(8, 8)
        monkeypatch.setattr(routing, "HOP_MATRIX_MAX_BYTES", 4 * 64 * 64)
        assert topo.hop_distances.shape == (64, 64)
