"""Array-built topologies against an independent networkx reference.

Each builder emits its edge array with NumPy. Here every builder, at
small and edge-case sizes, is checked against a :class:`Topology`
wrapped around the matching networkx generator (relabelled to the
builder's node ids): same edges, the same CSR arrays, degrees, edge
lookups and diameter. Coordinates are checked against the per-node
formulas written out as plain Python loops.

The lazily built ``Topology.graph`` must also have the adjacency order
of the graph the builder describes — links inserted in its listing
order, then copied — because networkx-derived schedules (the greedy
edge colouring of dimension exchange) depend on it.
"""

from itertools import product

import networkx as nx
import numpy as np
import pytest

from repro.baselines.dimension_exchange import edge_coloring
from repro.network import Topology, builders


def _relabel(g, label):
    return nx.relabel_nodes(g, {v: label(v) for v in g.nodes})


def _grid_ref(rows, cols, periodic=False):
    g = nx.grid_2d_graph(rows, cols, periodic=periodic)
    return _relabel(g, lambda rc: rc[0] * cols + rc[1])


def _digits(v):
    """Coordinate tuple of a grid_graph node (a bare int in one dimension)."""
    return v if isinstance(v, tuple) else (v,)


def _kary_ref(k, n):
    g = nx.grid_graph(dim=[k] * n, periodic=True)
    return _relabel(g, lambda t: sum(int(c) * k**i for i, c in enumerate(_digits(t))))


def _hypercube_ref(dim):
    g = nx.hypercube_graph(dim)
    return _relabel(g, lambda t: sum(int(b) << i for i, b in enumerate(_digits(t))))


def _grid_coords_ref(rows, cols):
    out = np.zeros((rows * cols, 2))
    for r in range(rows):
        for c in range(cols):
            out[r * cols + c] = (c / max(cols - 1, 1), r / max(rows - 1, 1))
    return out


def _gray_rank(x):
    r = 0
    while x:
        r ^= x
        x >>= 1
    return r


def _hypercube_coords_ref(dim):
    lo_bits = dim // 2
    lo_n, hi_n = 1 << lo_bits, 1 << (dim - lo_bits)
    out = np.zeros((1 << dim, 2))
    for u in range(1 << dim):
        out[u] = (_gray_rank(u & (lo_n - 1)) / max(lo_n - 1, 1),
                  _gray_rank(u >> lo_bits) / max(hi_n - 1, 1))
    return out


def _kary_coords_ref(k, n):
    xs, ys = list(range(0, n, 2)), list(range(1, n, 2))
    out = np.zeros((k**n, 2))
    for u in range(k**n):
        cu = [(u // k**d) % k for d in range(n)]
        x = sum(cu[d] * k**i for i, d in enumerate(xs))
        y = sum(cu[d] * k**i for i, d in enumerate(ys))
        out[u] = (x / max(k ** len(xs) - 1, 1), y / max(k ** len(ys) - 1, 1))
    return out


def _tree_coords_ref(branching, depth):
    levels, start, width = [], 0, 1
    for _ in range(depth + 1):
        levels.append(list(range(start, start + width)))
        start += width
        width *= branching
    out = np.zeros((start, 2))
    for lvl, nodes in enumerate(levels):
        for k, u in enumerate(nodes):
            out[u] = ((k + 0.5) / len(nodes), 1.0 - lvl / max(depth, 1))
    return out


# (id, builder call, networkx reference graph, reference coords or None)
CASES = [
    ("mesh-1x1", lambda: builders.mesh(1, 1), lambda: _grid_ref(1, 1),
     lambda: _grid_coords_ref(1, 1)),
    ("mesh-1x7", lambda: builders.mesh(1, 7), lambda: _grid_ref(1, 7),
     lambda: _grid_coords_ref(1, 7)),
    ("mesh-6x1", lambda: builders.mesh(6, 1), lambda: _grid_ref(6, 1),
     lambda: _grid_coords_ref(6, 1)),
    ("mesh-5x7", lambda: builders.mesh(5, 7), lambda: _grid_ref(5, 7),
     lambda: _grid_coords_ref(5, 7)),
    ("torus-3x3", lambda: builders.torus(3, 3), lambda: _grid_ref(3, 3, True),
     lambda: _grid_coords_ref(3, 3)),
    ("torus-4x6", lambda: builders.torus(4, 6), lambda: _grid_ref(4, 6, True),
     lambda: _grid_coords_ref(4, 6)),
    ("hypercube-1", lambda: builders.hypercube(1), lambda: _hypercube_ref(1),
     lambda: _hypercube_coords_ref(1)),
    ("hypercube-6", lambda: builders.hypercube(6), lambda: _hypercube_ref(6),
     lambda: _hypercube_coords_ref(6)),
    ("kary-3-3", lambda: builders.kary_ncube(3, 3), lambda: _kary_ref(3, 3),
     lambda: _kary_coords_ref(3, 3)),
    ("kary-4-2", lambda: builders.kary_ncube(4, 2), lambda: _kary_ref(4, 2),
     lambda: _kary_coords_ref(4, 2)),
    ("kary-5-1", lambda: builders.kary_ncube(5, 1), lambda: _kary_ref(5, 1),
     lambda: _kary_coords_ref(5, 1)),
    ("ring-3", lambda: builders.ring(3), lambda: nx.cycle_graph(3), None),
    ("ring-9", lambda: builders.ring(9), lambda: nx.cycle_graph(9), None),
    ("star-2", lambda: builders.star(2), lambda: nx.star_graph(1), None),
    ("star-7", lambda: builders.star(7), lambda: nx.star_graph(6), None),
    ("complete-5", lambda: builders.complete(5), lambda: nx.complete_graph(5), None),
    ("tree-2-3", lambda: builders.tree(2, 3), lambda: nx.balanced_tree(2, 3),
     lambda: _tree_coords_ref(2, 3)),
    ("tree-3-2", lambda: builders.tree(3, 2), lambda: nx.balanced_tree(3, 2),
     lambda: _tree_coords_ref(3, 2)),
    ("tree-1-4", lambda: builders.tree(1, 4), lambda: nx.balanced_tree(1, 4),
     lambda: _tree_coords_ref(1, 4)),
    ("tree-2-0", lambda: builders.tree(2, 0), lambda: nx.balanced_tree(2, 0),
     lambda: _tree_coords_ref(2, 0)),
]


@pytest.mark.parametrize("build, reference, coords_ref",
                         [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_builder_matches_networkx_reference(build, reference, coords_ref):
    topo = build()
    ref_graph = reference()
    ref = Topology(ref_graph)
    n = topo.n_nodes
    assert n == ref.n_nodes
    np.testing.assert_array_equal(topo.edges, ref.edges)
    for a, b in zip((topo.csr.indptr, topo.csr.indices, topo.csr.edge_ids, topo.csr.rows),
                    (ref.csr.indptr, ref.csr.indices, ref.csr.edge_ids, ref.csr.rows)):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(topo.degree, [d for _, d in sorted(ref_graph.degree)])
    for u, v in product(range(n), repeat=2):
        assert topo.has_edge(u, v) == ref_graph.has_edge(u, v)
        if ref_graph.has_edge(u, v):
            assert topo.edge_id(u, v) == ref.edge_id(u, v)
    expected_diameter = nx.diameter(ref_graph) if n > 1 else 0
    assert topo.diameter == expected_diameter
    if coords_ref is not None:
        assert topo.coords.tobytes() == coords_ref().tobytes()


def _listed_graph(n, links):
    """A graph assembled link by link, then copied — the reference
    adjacency order of ``Topology.graph``."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for u, v in links:
        g.add_edge(u, v)
    return g.copy()


def _torus_links(rows, cols):
    for r, c in product(range(rows), range(cols)):
        u = r * cols + c
        yield u, r * cols + (c + 1) % cols
        yield u, ((r + 1) % rows) * cols + c


def _kary_links(k, n):
    for u in range(k**n):
        for d in range(n):
            digit = (u // k**d) % k
            yield u, u + ((digit + 1) % k - digit) * k**d


@pytest.mark.parametrize("topo, reference", [
    (builders.torus(3, 4), lambda: _listed_graph(12, _torus_links(3, 4))),
    (builders.torus(5, 5), lambda: _listed_graph(25, _torus_links(5, 5))),
    (builders.ring(6), lambda: nx.cycle_graph(6).copy()),
    (builders.kary_ncube(3, 3), lambda: _listed_graph(27, _kary_links(3, 3))),
    (builders.mesh(4, 5), lambda: _grid_ref(4, 5)),
], ids=lambda x: getattr(x, "name", ""))
def test_lazy_graph_keeps_listing_adjacency_order(topo, reference):
    ref = reference()
    g = topo.graph
    if topo.name.startswith("mesh"):
        # Sorted listing: every adjacency list comes out sorted.
        assert all(list(g.adj[u]) == sorted(ref.adj[u]) for u in g)
    else:
        assert list(g.nodes) == list(ref.nodes)
        assert all(list(g.adj[u]) == list(ref.adj[u]) for u in g)
        line = nx.line_graph(ref)
        coloring = nx.coloring.greedy_color(line, strategy="largest_first")
        expected = np.empty(topo.n_edges, dtype=np.int64)
        for (u, v), c in coloring.items():
            expected[topo.edge_id(u, v)] = c
        np.testing.assert_array_equal(edge_coloring(topo)[0], expected)


def test_graph_input_keeps_callers_graph():
    g = nx.Graph()
    g.add_nodes_from([2, 0, 1])
    g.add_edges_from([(2, 1), (0, 2)])
    topo = Topology(g)
    assert list(topo.graph.nodes) == [2, 0, 1]
    assert topo.edges.tolist() == [[0, 2], [1, 2]]
