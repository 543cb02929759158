"""Topology: the interconnection graph ``G(V, E)`` (paper §4.2).

Nodes are the integers ``0 .. n-1``. The class keeps three synchronised
views of the same graph:

* a :class:`networkx.Graph` for algorithms that want one (colorings,
  layouts, connectivity),
* array form — an ``(m, 2)`` edge array, per-node neighbor arrays and
  a flat :class:`CSRAdjacency` export — for the vectorised hot paths of
  the balancers,
* a 2-D embedding (the paper's ``M2: V(G) → R²``) used for the load
  surface, for locality metrics and for ASCII rendering.

Hop distances come in two forms. Placements and tuning read BFS rows
and the exact :attr:`Topology.eccentricity_extremes` (centre,
periphery, diameter), O(k·(N+E)) each. The all-pairs
:attr:`Topology.hop_distances` matrix is analysis-only, built on first
access and refused above a memory bound.

Instances are immutable after construction; fault state lives in
:class:`repro.network.faults.FaultModel`, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix

from repro.exceptions import TopologyError

if TYPE_CHECKING:
    from repro.network.routing import EccentricityExtremes


@dataclass(frozen=True)
class CSRAdjacency:
    """Compressed-sparse-row view of an undirected topology.

    The flat form of the per-node neighbor lists: slot ``s`` in
    ``indptr[u] <= s < indptr[u + 1]`` holds neighbor ``indices[s]`` of
    node ``u``, reached over edge ``edge_ids[s]`` (an index into
    :attr:`Topology.edges` and every per-edge attribute array: link
    costs, fault masks, usage reservations). ``rows[s]`` is ``u`` itself
    — the ``np.repeat`` companion that lets whole-graph expressions like
    ``h[rows] - h[indices]`` evaluate every directed (node, neighbor)
    pair in one array operation. Neighbors are sorted within each row,
    matching :meth:`Topology.neighbors`.

    This is the export the vectorised balancer fast path and any future
    array-at-scale consumer build on; it is immutable and shared.
    """

    indptr: np.ndarray
    indices: np.ndarray
    edge_ids: np.ndarray
    rows: np.ndarray

    @property
    def n_nodes(self) -> int:
        """Number of nodes (rows)."""
        return self.indptr.shape[0] - 1

    @property
    def n_slots(self) -> int:
        """Number of directed (node, neighbor) slots: ``2·m``."""
        return self.indices.shape[0]

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbor ids of *node* (view into :attr:`indices`)."""
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    def incident_edges(self, node: int) -> np.ndarray:
        """Edge ids of *node*'s links, parallel to :meth:`neighbors`."""
        return self.edge_ids[self.indptr[node]:self.indptr[node + 1]]

    def degrees(self) -> np.ndarray:
        """Per-node degree vector derived from :attr:`indptr`."""
        return np.diff(self.indptr)


class Topology:
    """An immutable interconnection network over nodes ``0..n-1``.

    Parameters
    ----------
    graph:
        Connected undirected graph whose nodes are exactly
        ``range(n)``. Self-loops are rejected.
    name:
        Human-readable identifier (used in benchmark tables).
    coords:
        Optional mapping/array of 2-D coordinates per node (the ``M2``
        embedding). When omitted a spring layout is computed lazily.

    Distances: placements use BFS rows and
    :attr:`eccentricity_extremes`; the all-pairs :attr:`hop_distances`
    matrix is for analysis only and is never built during set-up.
    """

    def __init__(
        self,
        graph: nx.Graph,
        name: str = "custom",
        coords: Mapping[int, Iterable[float]] | np.ndarray | None = None,
        *,
        _vertex_transitive: bool = False,
    ):
        n = graph.number_of_nodes()
        if n == 0:
            raise TopologyError("topology must have at least one node")
        if set(graph.nodes) != set(range(n)):
            raise TopologyError("graph nodes must be exactly 0..n-1; relabel before wrapping")
        if any(u == v for u, v in graph.edges):
            raise TopologyError("self-loops are not allowed")
        if n > 1 and not nx.is_connected(graph):
            raise TopologyError("topology must be connected")

        self._graph = nx.freeze(graph.copy())
        self.name = name
        self.n_nodes = n
        # Set only by builders of vertex-transitive graphs (torus, ring,
        # hypercube, complete, k-ary n-cube): every eccentricity is equal,
        # so the eccentricity extremes need no search.
        self._vertex_transitive = _vertex_transitive

        edges = np.asarray(
            sorted((min(u, v), max(u, v)) for u, v in graph.edges), dtype=np.int64
        ).reshape(-1, 2)
        self.edges = edges
        self.n_edges = edges.shape[0]

        # Per-node neighbor arrays (sorted), and degree vector.
        nbr: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            nbr[u].append(int(v))
            nbr[v].append(int(u))
        self._neighbors = [np.asarray(sorted(ns), dtype=np.int64) for ns in nbr]
        self.degree = np.asarray([len(ns) for ns in nbr], dtype=np.int64)

        # Edge lookup: (min, max) -> edge index, for per-edge attribute arrays.
        self._edge_index: dict[tuple[int, int], int] = {
            (int(u), int(v)): k for k, (u, v) in enumerate(edges)
        }

        if coords is not None:
            arr = np.zeros((n, 2), dtype=np.float64)
            if isinstance(coords, np.ndarray):
                if coords.shape != (n, 2):
                    raise TopologyError(
                        f"coords array must have shape ({n}, 2), got {coords.shape}"
                    )
                arr[:] = coords
            else:
                for node, xy in coords.items():
                    arr[int(node)] = np.asarray(tuple(xy), dtype=np.float64)
            self._coords: np.ndarray | None = arr
        else:
            self._coords = None

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> nx.Graph:
        """The (frozen) networkx view of the topology."""
        return self._graph

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbor ids of *node* (read-only array)."""
        if not 0 <= node < self.n_nodes:
            raise TopologyError(f"node {node} out of range [0, {self.n_nodes})")
        return self._neighbors[node]

    @property
    def coords(self) -> np.ndarray:
        """2-D embedding ``M2`` of the nodes, shape ``(n, 2)``.

        Computed with a deterministic spring layout when the builder did
        not supply natural coordinates.
        """
        if self._coords is None:
            pos = nx.spring_layout(self._graph, seed=0)
            self._coords = np.asarray([pos[i] for i in range(self.n_nodes)], dtype=np.float64)
        return self._coords

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is a link of the network."""
        return (min(u, v), max(u, v)) in self._edge_index

    def edge_id(self, u: int, v: int) -> int:
        """Index of edge ``{u, v}`` into :attr:`edges` / per-edge arrays."""
        key = (min(int(u), int(v)), max(int(u), int(v)))
        try:
            return self._edge_index[key]
        except KeyError:
            raise TopologyError(f"no edge between {u} and {v} in topology '{self.name}'")

    # ------------------------------------------------------------------ #
    # Derived structure (cached)
    # ------------------------------------------------------------------ #

    @cached_property
    def csr(self) -> CSRAdjacency:
        """CSR/array export of the adjacency (see :class:`CSRAdjacency`).

        Built fully vectorised (no per-node Python loop), so it is cheap
        even for the large-N topologies; the arrays are marked read-only
        because every consumer shares them.
        """
        n = self.n_nodes
        m = self.n_edges
        if m == 0:
            indptr = np.zeros(n + 1, dtype=np.int64)
            empty = np.empty(0, dtype=np.int64)
            return CSRAdjacency(indptr, empty, empty.copy(), empty.copy())
        rows = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        cols = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
        eids = np.concatenate([np.arange(m, dtype=np.int64)] * 2)
        order = np.lexsort((cols, rows))
        rows, cols, eids = rows[order], cols[order], eids[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        for arr in (indptr, cols, eids, rows):
            arr.flags.writeable = False
        return CSRAdjacency(indptr, cols, eids, rows)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Dense boolean adjacency matrix, shape ``(n, n)``."""
        a = np.zeros((self.n_nodes, self.n_nodes), dtype=bool)
        a[self.edges[:, 0], self.edges[:, 1]] = True
        a[self.edges[:, 1], self.edges[:, 0]] = True
        return a

    @cached_property
    def laplacian(self) -> np.ndarray:
        """Dense graph Laplacian ``L = D − A`` as float64."""
        a = self.adjacency.astype(np.float64)
        return np.diag(a.sum(axis=1)) - a

    @cached_property
    def csgraph(self) -> csr_matrix:
        """SciPy sparse adjacency (unit weights) built from :attr:`csr`,
        the input of every BFS in :mod:`repro.network.routing`."""
        csr = self.csr
        n = self.n_nodes
        return csr_matrix(
            (np.ones(csr.n_slots), csr.indices.astype(np.int32), csr.indptr.astype(np.int32)),
            shape=(n, n),
        )

    @cached_property
    def eccentricity_extremes(self) -> EccentricityExtremes:
        """Most central node, most peripheral node and diameter (exact,
        lowest-id ties; see
        :func:`~repro.network.routing.eccentricity_extremes`)."""
        from repro.network.routing import eccentricity_extremes

        return eccentricity_extremes(self)

    @cached_property
    def hop_distances(self) -> np.ndarray:
        """All-pairs unweighted hop distances, shape ``(n, n)``, int32.

        Analysis only, built on first access: placements and tuning use
        BFS rows (:func:`~repro.network.routing.bfs_distances`) instead.
        Raises :class:`TopologyError` above
        :data:`~repro.network.routing.HOP_MATRIX_MAX_BYTES`.
        """
        from repro.network.routing import hop_distances

        return hop_distances(self)

    @cached_property
    def diameter(self) -> int:
        """Graph diameter in hops (no all-pairs matrix)."""
        return self.eccentricity_extremes.diameter

    @cached_property
    def max_degree(self) -> int:
        """Maximum node degree."""
        return int(self.degree.max())

    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Topology('{self.name}', n={self.n_nodes}, m={self.n_edges})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return (
            self.n_nodes == other.n_nodes
            and self.edges.shape == other.edges.shape
            and bool((self.edges == other.edges).all())
        )

    def __hash__(self) -> int:
        return hash((self.n_nodes, self.edges.tobytes()))
