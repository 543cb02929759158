"""Unit tests for repro.network.topology."""

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import TopologyError
from repro.network import Topology, mesh


class TestConstruction:
    def test_basic(self):
        g = nx.path_graph(3)
        t = Topology(g, name="path")
        assert t.n_nodes == 3
        assert t.n_edges == 2
        assert t.name == "path"

    def test_rejects_empty(self):
        with pytest.raises(TopologyError, match="at least one node"):
            Topology(nx.Graph())

    def test_rejects_non_contiguous_labels(self):
        g = nx.Graph()
        g.add_edge(0, 2)
        with pytest.raises(TopologyError, match=r"exactly 0\.\.n-1; relabel"):
            Topology(g)

    def test_rejects_disconnected(self):
        g = nx.Graph()
        g.add_nodes_from(range(4))
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        with pytest.raises(TopologyError, match="must be connected"):
            Topology(g)

    def test_rejects_self_loop(self):
        g = nx.path_graph(3)
        g.add_edge(1, 1)
        with pytest.raises(TopologyError, match="self-loops are not allowed"):
            Topology(g)


class TestEdgeArrayInput:
    """The array door: the same checks, plus the ones a graph cannot fail."""

    def test_matches_graph_input(self):
        g = nx.cycle_graph(5)
        a = Topology(np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]), n_nodes=5)
        assert a == Topology(g)
        assert a.edges.tolist() == [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]

    def test_needs_n_nodes(self):
        with pytest.raises(TopologyError, match="n_nodes"):
            Topology(np.array([[0, 1]]))

    def test_rejects_zero_nodes(self):
        with pytest.raises(TopologyError, match="at least one node"):
            Topology(np.empty((0, 2), dtype=np.int64), n_nodes=0)

    def test_rejects_out_of_range(self):
        with pytest.raises(TopologyError, match="endpoints"):
            Topology(np.array([[0, 1], [1, 3]]), n_nodes=3)
        with pytest.raises(TopologyError, match="endpoints"):
            Topology(np.array([[-1, 1]]), n_nodes=3)

    def test_rejects_self_loop(self):
        with pytest.raises(TopologyError, match="self-loops are not allowed"):
            Topology(np.array([[0, 1], [1, 1]]), n_nodes=2)

    def test_rejects_duplicates_in_either_orientation(self):
        with pytest.raises(TopologyError, match="duplicate"):
            Topology(np.array([[0, 1], [1, 2], [1, 0]]), n_nodes=3)

    def test_rejects_disconnected(self):
        with pytest.raises(TopologyError, match="must be connected"):
            Topology(np.array([[0, 1], [2, 3]]), n_nodes=4)

    def test_rejects_bad_shape_and_dtype(self):
        with pytest.raises(TopologyError, match="shape"):
            Topology(np.array([0, 1, 2]), n_nodes=3)
        with pytest.raises(TopologyError, match="integer"):
            Topology(np.array([[0.0, 1.0]]), n_nodes=2)

    def test_single_node_ok(self):
        g = nx.Graph()
        g.add_node(0)
        t = Topology(g)
        assert t.n_nodes == 1
        assert t.n_edges == 0

    def test_coords_array_shape_checked(self):
        g = nx.path_graph(3)
        with pytest.raises(TopologyError):
            Topology(g, coords=np.zeros((2, 2)))

    def test_coords_mapping(self):
        g = nx.path_graph(2)
        t = Topology(g, coords={0: (0.0, 0.0), 1: (1.0, 2.0)})
        np.testing.assert_allclose(t.coords[1], [1.0, 2.0])


class TestQueries:
    def test_neighbors_sorted(self, mesh4):
        # Node 5 of a 4x4 mesh: neighbors 1, 4, 6, 9.
        np.testing.assert_array_equal(mesh4.neighbors(5), [1, 4, 6, 9])

    def test_neighbors_bounds(self, mesh4):
        with pytest.raises(TopologyError):
            mesh4.neighbors(16)
        with pytest.raises(TopologyError):
            mesh4.neighbors(-1)

    def test_degree(self, mesh4):
        # Corners 2, edges 3, interior 4.
        assert mesh4.degree[0] == 2
        assert mesh4.degree[1] == 3
        assert mesh4.degree[5] == 4
        assert mesh4.max_degree == 4

    def test_has_edge_and_edge_id(self, mesh4):
        assert mesh4.has_edge(0, 1)
        assert mesh4.has_edge(1, 0)
        assert not mesh4.has_edge(0, 5)
        eid = mesh4.edge_id(1, 0)
        assert (mesh4.edges[eid] == [0, 1]).all()
        with pytest.raises(TopologyError):
            mesh4.edge_id(0, 5)

    def test_adjacency_symmetric(self, mesh4):
        a = mesh4.adjacency
        assert (a == a.T).all()
        assert a.sum() == 2 * mesh4.n_edges
        assert not a.diagonal().any()

    def test_laplacian_rows_sum_zero(self, mesh4):
        lap = mesh4.laplacian
        np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)

    def test_hop_distances_and_diameter(self, mesh4):
        hd = mesh4.hop_distances
        assert hd[0, 0] == 0
        assert hd[0, 15] == 6  # corner to corner on 4x4 mesh
        assert mesh4.diameter == 6
        assert (hd == hd.T).all()

    def test_equality_and_hash(self):
        a, b = mesh(3, 3), mesh(3, 3)
        assert a == b
        assert hash(a) == hash(b)
        assert a != mesh(3, 4)

    def test_graph_is_frozen(self, mesh4):
        with pytest.raises(nx.NetworkXError):
            mesh4.graph.add_edge(0, 15)

    def test_graph_is_built_on_demand(self):
        topo = mesh(3, 3)
        assert "graph" not in topo.__dict__
        g = topo.graph
        assert sorted(sorted(e) for e in g.edges) == topo.edges.tolist()
        assert topo.graph is g

    def test_neighbors_are_read_only_views(self, mesh4):
        before = mesh4.csr.indices.copy()
        nbrs = mesh4.neighbors(0)
        with pytest.raises(ValueError):
            nbrs[0] = 7
        with pytest.raises(ValueError):
            nbrs += 1
        np.testing.assert_array_equal(mesh4.csr.indices, before)
        np.testing.assert_array_equal(mesh4.neighbors(0), [1, 4])

    def test_structure_arrays_are_read_only(self, mesh4):
        for arr in (mesh4.edges, mesh4.degree):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_edge_lookup_rejects_out_of_range_pairs(self, mesh4):
        # Key u*n + v must not alias a real link for ids outside 0..n-1.
        assert mesh4.has_edge(1, 2)
        assert not mesh4.has_edge(0, 18)  # 0*16 + 18 == key of (1, 2)
        assert not mesh4.has_edge(-1, 0)
        assert not mesh4.has_edge(3, 3)
        with pytest.raises(TopologyError):
            mesh4.edge_id(0, 18)

def test_lattice_scenarios_build_and_run_without_networkx():
    # networkx is an on-demand dependency: importing the scenario layer
    # and running mesh / torus / hypercube specs must never load it.
    import os
    import subprocess
    import sys

    code = (
        "import sys\n"
        "import repro.workloads.scenarios\n"
        "assert 'networkx' not in sys.modules\n"
        "from repro.runner import RunSpec, execute_spec\n"
        "for sc in ('mesh:8x8+hotspot', 'torus:6x6+uniform', 'hypercube:5+hotspot'):\n"
        "    for engine in ('rounds', 'rounds-fast'):\n"
        "        execute_spec(RunSpec(scenario=sc, algorithm='pplb', seed=1,\n"
        "                             max_rounds=3, engine=engine))\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
