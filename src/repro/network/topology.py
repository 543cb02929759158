"""Topology: the interconnection graph ``G(V, E)`` (paper §4.2).

Nodes are the integers ``0 .. n-1``. The class is array-first: it is
built from an ``(m, 2)`` edge array, validated and sorted into edge-id
order once, and keeps

* a flat :class:`CSRAdjacency` — the per-node neighbor lists and edge
  ids of the vectorised hot paths — with the degree vector and
  :meth:`Topology.neighbors` as read-only views of it,
* a sorted edge-key array behind :meth:`Topology.edge_id` /
  :meth:`Topology.has_edge` (binary search, no per-edge dict),
* a 2-D embedding (the paper's ``M2: V(G) → R²``) used for the load
  surface, for locality metrics and for ASCII rendering.

A frozen :class:`networkx.Graph` is built only when something asks for
:attr:`Topology.graph` (edge colourings, spring layouts, user code);
``networkx`` is imported on that path alone, so building and running a
lattice scenario never loads it.

Hop distances come in two forms. Placements and tuning read BFS rows
and the exact :attr:`Topology.eccentricity_extremes` (centre,
periphery, diameter), O(k·(N+E)) each. The all-pairs
:attr:`Topology.hop_distances` matrix is analysis-only, built on first
access and refused above a memory bound.

Instances are immutable after construction; fault state lives in
:class:`repro.network.faults.FaultModel`, not here.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.exceptions import TopologyError

if TYPE_CHECKING:
    import networkx as nx

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
    source:
        Either an ``(m, 2)`` integer edge array (then *n_nodes* is
        required) or a :class:`networkx.Graph` whose nodes are exactly
        ``range(n)``. A graph is converted to its edge array at the door,
        so both kinds of input pass the same validation: endpoints in
        range, no self-loops, no duplicate links, connected.
    name:
        Human-readable identifier (used in benchmark tables).
    coords:
        Optional mapping/array of 2-D coordinates per node (the ``M2``
        embedding). When omitted a spring layout is computed lazily.
    n_nodes:
        Node count of an edge-array *source* (isolated nodes cannot be
        inferred from edges).

    Edge ids are positions in the lexicographically sorted edge array
    :attr:`edges`, whatever order *source* lists the links in; that
    listing order is kept only to rebuild :attr:`graph` exactly as the
    builder would have assembled it.

    Distances: placements use BFS rows and
    :attr:`eccentricity_extremes`; the all-pairs :attr:`hop_distances`
    matrix is for analysis only and is never built during set-up.
    """

    def __init__(
        self,
        source: np.ndarray | nx.Graph,
        name: str = "custom",
        coords: Mapping[int, Iterable[float]] | np.ndarray | None = None,
        *,
        n_nodes: int | None = None,
        _vertex_transitive: bool = False,
    ):
        graph = None
        if isinstance(source, np.ndarray):
            if n_nodes is None:
                raise TopologyError("an edge-array topology needs n_nodes")
            n, listed = int(n_nodes), source
        else:
            graph = source
            n = graph.number_of_nodes()
            if set(graph.nodes) != set(range(n)):
                raise TopologyError(
                    "graph nodes must be exactly 0..n-1; relabel before wrapping"
                )
            listed = np.array(list(graph.edges), dtype=np.int64)
        if n < 1:
            raise TopologyError("topology must have at least one node")

        self.name = name
        self.n_nodes = n
        # Set only by builders of vertex-transitive graphs (torus, ring,
        # hypercube, complete, k-ary n-cube): every eccentricity is equal,
        # so the eccentricity extremes need no search.
        self._vertex_transitive = _vertex_transitive

        self.edges, self._edge_keys, self._listing = _sorted_edges(listed, n)
        self.n_edges = self.edges.shape[0]
        self.csr = _build_csr(self.edges, n)
        self.degree = self.csr.degrees()
        self.degree.flags.writeable = False
        if n > 1 and connected_components(self.csgraph, directed=False)[0] > 1:
            raise TopologyError("topology must be connected")
        if graph is not None:
            # The caller's own graph (adjacency order included) stands in
            # for the lazily rebuilt one.
            import networkx as nx

            self.__dict__["graph"] = nx.freeze(graph.copy())

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

    @cached_property
    def graph(self) -> nx.Graph:
        """The frozen networkx view of the topology, built on first access.

        Links are inserted in the order the builder listed them and the
        graph is then copied, exactly as a builder-made graph was copied
        on the way in. The adjacency order, and with it anything
        networkx derives from it (such as a greedy colouring), is
        therefore the same as if the graph had been stored all along.
        """
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n_nodes))
        listed = self.edges if self._listing is None else self.edges[self._listing]
        g.add_edges_from(listed.tolist())
        return nx.freeze(g.copy())

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbor ids of *node* (read-only view into :attr:`csr`)."""
        if not 0 <= node < self.n_nodes:
            raise TopologyError(f"node {node} out of range [0, {self.n_nodes})")
        return self.csr.neighbors(node)

    @property
    def coords(self) -> np.ndarray:
        """2-D embedding ``M2`` of the nodes, shape ``(n, 2)``.

        Computed with a deterministic spring layout when the builder did
        not supply natural coordinates.
        """
        if self._coords is None:
            import networkx as nx

            pos = nx.spring_layout(self.graph, seed=0)
            self._coords = np.asarray([pos[i] for i in range(self.n_nodes)], dtype=np.float64)
        return self._coords

    def _find_edge(self, u: int, v: int) -> int:
        """Edge id of ``{u, v}``, or ``-1`` when it is not a link."""
        u, v = int(u), int(v)
        if u > v:
            u, v = v, u
        if u < 0 or v >= self.n_nodes:
            return -1
        key = u * self.n_nodes + v
        # Bisecting a memoryview compares plain Python ints: about twice
        # as fast as a scalar ndarray.searchsorted on this per-transfer path.
        keys = memoryview(self._edge_keys)
        k = bisect_left(keys, key)
        return k if k < self.n_edges and keys[k] == key else -1

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is a link of the network."""
        return self._find_edge(u, v) >= 0

    def edge_id(self, u: int, v: int) -> int:
        """Index of edge ``{u, v}`` into :attr:`edges` / per-edge arrays."""
        eid = self._find_edge(u, v)
        if eid < 0:
            raise TopologyError(f"no edge between {u} and {v} in topology '{self.name}'")
        return eid

    # ------------------------------------------------------------------ #
    # Derived structure (cached)
    # ------------------------------------------------------------------ #

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


def _sorted_edges(listed: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Validate *listed* links over nodes ``0..n-1`` and sort them.

    Returns ``(edges, keys, listing)``: the ``(m, 2)`` edge array with
    ``u < v`` per row in lexicographic order (read-only), its sorted
    int64 keys ``u·n + v`` (the :meth:`Topology.edge_id` lookup table),
    and the edge ids in the order *listed* gave them — ``None`` when
    that already was the sorted order, as it is for the lattice
    builders.
    """
    arr = np.asarray(listed)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise TopologyError(f"edge array must have shape (m, 2), got {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise TopologyError(f"edge array must hold integer node ids, got {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise TopologyError(f"edge endpoints must be nodes 0..{n - 1}")
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    if (lo == hi).any():
        raise TopologyError("self-loops are not allowed")
    keys = lo * n + hi
    listing = None
    if not (keys[1:] > keys[:-1]).all():
        order = np.argsort(keys, kind="stable")
        keys, lo, hi = keys[order], lo[order], hi[order]
        if (keys[1:] == keys[:-1]).any():
            raise TopologyError("duplicate edges are not allowed")
        listing = np.empty_like(order)
        listing[order] = np.arange(order.size)
    edges = np.column_stack([lo, hi])
    for a in (edges, keys):
        a.flags.writeable = False
    return edges, keys, listing


def _build_csr(edges: np.ndarray, n: int) -> CSRAdjacency:
    """CSR export of sorted *edges* (see :class:`CSRAdjacency`).

    One stable sort by row over the reversed links followed by the
    forward ones: within a row the lower neighbors (in edge order, so
    ascending) precede the higher ones (ascending too), which is the
    sorted-neighbor order without a second sort key.
    """
    m = edges.shape[0]
    rows = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    cols = np.concatenate([edges[:, 0], edges[:, 1]])[order]
    eids = np.concatenate([np.arange(m, dtype=np.int64)] * 2)[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    for arr in (indptr, cols, eids, rows):
        arr.flags.writeable = False
    return CSRAdjacency(indptr, cols, eids, rows)
