"""Topology builders: the networks the paper (and its citations) evaluate on.

Every builder returns a :class:`~repro.network.topology.Topology` with
integer nodes ``0..n-1`` and a natural 2-D embedding (the paper's ``M2``
mapping, §4.1). Mesh/torus/hypercube are the topologies the paper's
related work derives optimal diffusion parameters for [19] and proves
dimension-exchange results on [6]; ring/star/tree/complete/random round
out the test matrix.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import TopologyError
from repro.network.topology import Topology
from repro.rng import RngLike, ensure_rng


def _listed_links(nbrs: np.ndarray, valid: np.ndarray | None = None) -> np.ndarray:
    """Links ``(u, nbrs[u, j])`` for every *valid* slot, listed node by
    node and slot by slot — the order a ``for u: for j:`` loop adds them."""
    src = np.broadcast_to(np.arange(nbrs.shape[0])[:, None], nbrs.shape)
    if valid is not None:
        src, nbrs = src[valid], nbrs[valid]
    return np.column_stack([src.ravel(), nbrs.ravel()])


def _grid_coords(rows: int, cols: int) -> np.ndarray:
    """Unit-square coordinates for a rows×cols grid, row-major node ids."""
    coords = np.empty((rows, cols, 2), dtype=np.float64)
    coords[:, :, 0] = np.arange(cols) / max(cols - 1, 1)
    coords[:, :, 1] = (np.arange(rows) / max(rows - 1, 1))[:, None]
    return coords.reshape(rows * cols, 2)


def mesh(rows: int, cols: int | None = None) -> Topology:
    """2-D mesh (grid) of *rows* × *cols* nodes, row-major ids.

    The paper's primary visual analogy: the load surface literally is a
    height map over this grid.
    """
    if cols is None:
        cols = rows
    if rows < 1 or cols < 1:
        raise TopologyError(f"mesh dimensions must be >= 1, got {rows}x{cols}")
    u = np.arange(rows * cols)
    r, c = np.divmod(u, cols)
    nbrs = np.column_stack([u + 1, u + cols])
    valid = np.column_stack([c + 1 < cols, r + 1 < rows])
    return Topology(_listed_links(nbrs, valid), name=f"mesh-{rows}x{cols}",
                    coords=_grid_coords(rows, cols), n_nodes=rows * cols)


def torus(rows: int, cols: int | None = None) -> Topology:
    """2-D torus: mesh with wraparound links in both dimensions.

    Requires at least 3 nodes per wrapped dimension so wrap links are not
    duplicates of mesh links.
    """
    if cols is None:
        cols = rows
    if rows < 3 or cols < 3:
        raise TopologyError(f"torus dimensions must be >= 3, got {rows}x{cols}")
    r, c = np.divmod(np.arange(rows * cols), cols)
    nbrs = np.column_stack([r * cols + (c + 1) % cols, ((r + 1) % rows) * cols + c])
    return Topology(_listed_links(nbrs), name=f"torus-{rows}x{cols}",
                    coords=_grid_coords(rows, cols), n_nodes=rows * cols,
                    _vertex_transitive=True)


def _gray_rank(x: np.ndarray) -> np.ndarray:
    """Position of each Gray code in *x* along the Gray sequence."""
    rank = np.zeros_like(x)
    x = x.copy()
    while x.any():
        rank ^= x
        x >>= 1
    return rank


def hypercube(dim: int) -> Topology:
    """*dim*-dimensional binary hypercube, ``2**dim`` nodes.

    Node ids are the binary labels; two nodes are adjacent iff their
    labels differ in exactly one bit. Embedded in 2-D by splitting the
    label bits between the axes (Gray-coded so single-bit neighbors stay
    geometrically close — a planar-ish drawing of the cube).
    """
    if dim < 1:
        raise TopologyError(f"hypercube dimension must be >= 1, got {dim}")
    n = 1 << dim
    u = np.arange(n)
    nbrs = u[:, None] ^ (1 << np.arange(dim))
    links = _listed_links(nbrs, nbrs > u[:, None])

    lo_bits = dim // 2
    lo_n, hi_n = 1 << lo_bits, 1 << (dim - lo_bits)
    coords = np.column_stack([
        _gray_rank(u & (lo_n - 1)) / max(lo_n - 1, 1),
        _gray_rank(u >> lo_bits) / max(hi_n - 1, 1),
    ])
    return Topology(links, name=f"hypercube-{dim}", coords=coords, n_nodes=n,
                    _vertex_transitive=True)


def _circle_coords(n: int) -> np.ndarray:
    theta = 2 * np.pi * np.arange(n) / n
    return 0.5 + 0.5 * np.column_stack([np.cos(theta), np.sin(theta)])


def ring(n: int) -> Topology:
    """Cycle of *n* >= 3 nodes, embedded on the unit circle."""
    if n < 3:
        raise TopologyError(f"ring needs at least 3 nodes, got {n}")
    u = np.arange(n)
    return Topology(np.column_stack([u, (u + 1) % n]), name=f"ring-{n}",
                    coords=_circle_coords(n), n_nodes=n, _vertex_transitive=True)


def star(n: int) -> Topology:
    """Star: node 0 is the hub connected to ``n-1`` leaves."""
    if n < 2:
        raise TopologyError(f"star needs at least 2 nodes, got {n}")
    leaves = np.arange(1, n)
    coords = np.zeros((n, 2), dtype=np.float64)
    coords[0] = (0.5, 0.5)
    theta = 2 * np.pi * np.arange(n - 1) / max(n - 1, 1)
    coords[1:] = 0.5 + 0.45 * np.column_stack([np.cos(theta), np.sin(theta)])
    return Topology(np.column_stack([np.zeros_like(leaves), leaves]),
                    name=f"star-{n}", coords=coords, n_nodes=n)


def complete(n: int) -> Topology:
    """Complete graph: the LAN-style 'all nodes adjacent' setting of §1."""
    if n < 2:
        raise TopologyError(f"complete graph needs at least 2 nodes, got {n}")
    return Topology(np.column_stack(np.triu_indices(n, k=1)), name=f"complete-{n}",
                    coords=_circle_coords(n), n_nodes=n, _vertex_transitive=True)


def tree(branching: int, depth: int) -> Topology:
    """Complete *branching*-ary tree of the given *depth* (root = node 0).

    Nodes are numbered level by level, so node ``v``'s parent is
    ``(v - 1) // branching``; each level is laid out left to right.
    """
    if branching < 1 or depth < 0:
        raise TopologyError(f"invalid tree parameters: branching={branching}, depth={depth}")
    widths = [branching**lvl for lvl in range(depth + 1)]
    n = sum(widths)
    child = np.arange(1, n)
    coords = np.zeros((n, 2), dtype=np.float64)
    start = 0
    for lvl, width in enumerate(widths):
        level = coords[start:start + width]
        level[:, 0] = (np.arange(width) + 0.5) / width
        level[:, 1] = 1.0 - lvl / max(depth, 1)
        start += width
    return Topology(np.column_stack([(child - 1) // branching, child]),
                    name=f"tree-{branching}ary-d{depth}", coords=coords, n_nodes=n)


def kary_ncube(k: int, n: int) -> Topology:
    """k-ary n-cube: n dimensions of k nodes each, wrapped (k >= 3).

    The family that unifies the paper's evaluation topologies: a ring is
    ``kary_ncube(k, 1)``, a k×k torus is ``kary_ncube(k, 2)``, and the
    binary hypercube is the (unwrapped) ``k = 2`` limit — for ``k = 2``
    this builder returns :func:`hypercube` (wrap links would duplicate
    mesh links).

    Node id = mixed-radix encoding of its coordinate vector. Embedded in
    2-D by splitting the dimensions across the two axes.
    """
    if n < 1:
        raise TopologyError(f"need n >= 1 dimensions, got {n}")
    if k == 2:
        return hypercube(n)
    if k < 3:
        raise TopologyError(f"need k >= 3 (or exactly 2 for the hypercube), got {k}")
    total = k**n
    u = np.arange(total)
    place = k ** np.arange(n)
    digits = (u[:, None] // place) % k  # (total, n): coordinate d of node u
    nbrs = u[:, None] + ((digits + 1) % k - digits) * place

    # 2-D embedding: even dimensions -> x, odd dimensions -> y.
    x_dims, y_dims = digits[:, 0::2], digits[:, 1::2]
    x = x_dims @ (k ** np.arange(x_dims.shape[1]))
    y = y_dims @ (k ** np.arange(y_dims.shape[1]))
    coords = np.column_stack([x / max(k ** x_dims.shape[1] - 1, 1),
                              y / max(k ** y_dims.shape[1] - 1, 1)])
    return Topology(_listed_links(nbrs), name=f"kary-{k}-{n}cube", coords=coords,
                    n_nodes=total, _vertex_transitive=True)


def random_connected(n: int, avg_degree: float = 4.0, seed: RngLike = None) -> Topology:
    """Connected Erdős–Rényi-style random topology.

    Draws ``G(n, p)`` with ``p = avg_degree/(n-1)`` and, if disconnected,
    joins components with random bridge edges (so degree stays close to
    the target instead of resampling until lucky). Deterministic given
    *seed*.
    """
    if n < 2:
        raise TopologyError(f"random topology needs at least 2 nodes, got {n}")
    import networkx as nx

    rng = ensure_rng(seed)
    p = min(max(avg_degree / max(n - 1, 1), 0.0), 1.0)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    iu, ju = np.triu_indices(n, k=1)
    take = rng.random(iu.shape[0]) < p
    g.add_edges_from(zip(iu[take].tolist(), ju[take].tolist()))
    comps = [list(c) for c in nx.connected_components(g)]
    while len(comps) > 1:
        a = comps.pop()
        b = comps[-1]
        u = int(rng.choice(a))
        v = int(rng.choice(b))
        g.add_edge(u, v)
        comps[-1] = b + a
    pos = nx.spring_layout(g, seed=int(rng.integers(0, 2**31 - 1)))
    coords = np.asarray([pos[i] for i in range(n)], dtype=np.float64)
    coords -= coords.min(axis=0)
    span = coords.max(axis=0)
    span[span == 0] = 1.0
    coords /= span
    return Topology(g, name=f"random-{n}", coords=coords)
