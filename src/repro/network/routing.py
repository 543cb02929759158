"""Hop distances over topologies: BFS rows for placements, an all-pairs
matrix for analysis only.

The balancers act locally (one hop per decision — the paper's whole
point), so nothing on the simulation path needs hop distances. Set-up
does: a hotspot sits on the most central node, far-apart hotspots grow
from a peripheral one, blobs fall off with distance from a centre, and
tuning reads the diameter. Those placements use BFS *rows* —
:func:`bfs_distances` from a handful of sources and
:func:`eccentricity_extremes`, an exact bounding search — at
O(k·(N+E)) cost and O(chunk·N) memory, never an N×N matrix.

:func:`hop_distances`, the all-pairs matrix, is for the analysis layer
at modest N (dependency communication costs, locality metrics). It is
filled chunk by chunk and refuses above :data:`HOP_MATRIX_MAX_BYTES`.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np
from scipy.sparse.csgraph import shortest_path

from repro.exceptions import TopologyError
from repro.network.topology import Topology

HOP_MATRIX_MAX_BYTES = 256 * 2**20
"""Largest all-pairs matrix :func:`hop_distances` builds: 256 MiB of
int32 entries, i.e. up to N = 8192 nodes. Larger machines use
:func:`bfs_distances` rows instead."""

_CHUNK_BYTES = 32 * 2**20
"""Float64 working set of one batched BFS call (rows × N × 8 bytes)."""

_BOUNDING_BFS = 16
"""BFS passes :func:`eccentricity_extremes` spends tightening bounds
before it resolves the nodes still open with exact BFS rows."""


class EccentricityExtremes(NamedTuple):
    """Exact eccentricity extremes of a topology (ties → lowest id)."""

    center: int
    """Lowest-id node of minimum eccentricity (the most central node)."""
    periphery: int
    """Lowest-id node of maximum eccentricity (a most peripheral node)."""
    diameter: int


def bfs_distances(topology: Topology, sources) -> np.ndarray:
    """Hop distances from each of *sources* to every node.

    Returns shape ``(k, n)`` int32, row ``i`` for ``sources[i]``: one
    unweighted shortest-path search per source over the topology's
    cached sparse adjacency, O(k·(N+E)) time. Equal to the matching rows
    of :func:`hop_distances` without building the matrix.
    """
    src = np.asarray(sources, dtype=np.int64).reshape(-1)
    if src.size == 0:
        return np.empty((0, topology.n_nodes), dtype=np.int32)
    d = shortest_path(topology.csgraph, method="D", directed=True,
                      unweighted=True, indices=src)
    return d.astype(np.int32)


def bfs_chunks(topology: Topology, sources) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(source_chunk, rows)`` pairs covering *sources* in order.

    Each chunk's float64 working set stays under a fixed byte budget, so
    walking any number of sources costs O(chunk·N) memory.
    """
    src = np.asarray(sources, dtype=np.int64).reshape(-1)
    step = max(1, _CHUNK_BYTES // (8 * topology.n_nodes))
    for start in range(0, src.size, step):
        chunk = src[start:start + step]
        yield chunk, bfs_distances(topology, chunk)


def hop_distances(topology: Topology) -> np.ndarray:
    """All-pairs unweighted hop distances, shape ``(n, n)``, dtype int32.

    Analysis only: placements and tuning never need it (see the module
    doc). Filled chunk by chunk from :func:`bfs_chunks`, so the only
    N×N allocation is the int32 result. :class:`Topology` guarantees
    connectivity, so every entry is finite.

    Raises :class:`TopologyError` when the matrix would exceed
    :data:`HOP_MATRIX_MAX_BYTES`.
    """
    n = topology.n_nodes
    nbytes = 4 * n * n
    if nbytes > HOP_MATRIX_MAX_BYTES:
        raise TopologyError(
            f"all-pairs hop matrix of '{topology.name}' ({n} nodes) would take "
            f"{nbytes / 2**20:.0f} MiB, above the {HOP_MATRIX_MAX_BYTES / 2**20:.0f} MiB "
            "bound; use repro.network.routing.bfs_distances(topology, sources) "
            "for the rows you need"
        )
    out = np.empty((n, n), dtype=np.int32)
    start = 0
    for chunk, rows in bfs_chunks(topology, np.arange(n)):
        out[start:start + chunk.size] = rows
        start += chunk.size
    return out


def _open_nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Nodes that could still be the lowest-id centre or periphery but
    whose eccentricity is not yet pinned (``lo < hi``)."""
    exact = lo == hi
    ids = np.arange(lo.size)
    radius_up = hi.min()
    hits = np.flatnonzero(exact & (hi == radius_up))
    best_c = hits[0] if hits.size else lo.size
    center_run = (lo < radius_up) | ((lo == radius_up) & (ids < best_c))
    diam_low = lo.max()
    hits = np.flatnonzero(exact & (lo == diam_low))
    best_p = hits[0] if hits.size else lo.size
    periphery_run = (hi > diam_low) | ((hi == diam_low) & (ids < best_p))
    return np.flatnonzero((center_run | periphery_run) & ~exact)


def eccentricity_extremes(topology: Topology) -> EccentricityExtremes:
    """Centre, periphery and diameter without all-pairs distances.

    Exact, with the same lowest-id tie-break as ``argmin``/``argmax``
    over the rows of :func:`hop_distances`. Vertex-transitive topologies
    (flagged by their builders) have one eccentricity everywhere, so the
    answer is node 0 and ``ecc(0)`` after a single BFS.

    Otherwise this is the bounding search of Takes & Kosters (2011):
    every node ``v`` carries bounds ``lo[v] <= ecc(v) <= hi[v]``, and a
    BFS from ``w`` tightens them to ``max(lo, d, ecc(w) - d)`` and
    ``min(hi, ecc(w) + d)`` with ``d = dist(w, v)``. A node leaves the
    running once its bounds rule it out as the lowest-id centre and
    periphery; the search stops when every node still running has
    ``lo == hi``. Sources alternate between the smallest lower bound
    (centre side) and the largest upper bound (periphery side) among the
    open nodes. After :data:`_BOUNDING_BFS` passes the nodes still open
    are resolved with exact BFS rows, chunked, so the worst case is the
    all-pairs cost in O(chunk·N) memory.
    """
    n = topology.n_nodes
    if topology._vertex_transitive:
        ecc0 = int(bfs_distances(topology, [0]).max())
        return EccentricityExtremes(0, 0, ecc0)
    lo = np.zeros(n, dtype=np.int32)
    hi = np.full(n, n, dtype=np.int32)
    for step in range(_BOUNDING_BFS):
        open_ = _open_nodes(lo, hi)
        if open_.size == 0:
            break
        pick = np.argmin(lo[open_]) if step % 2 == 0 else np.argmax(hi[open_])
        d = bfs_distances(topology, [open_[pick]])[0]
        ecc = d.max()
        np.maximum(lo, np.maximum(d, ecc - d), out=lo)
        np.minimum(hi, ecc + d, out=hi)
    else:
        for chunk, rows in bfs_chunks(topology, _open_nodes(lo, hi)):
            lo[chunk] = hi[chunk] = rows.max(axis=1)
    exact = lo == hi
    diameter = int(lo.max())
    return EccentricityExtremes(
        center=int(np.flatnonzero(exact & (hi == hi.min()))[0]),
        periphery=int(np.flatnonzero(exact & (lo == diameter))[0]),
        diameter=diameter,
    )


def path_hops(topology: Topology, route: list[int]) -> int:
    """Number of hops along an explicit node *route* (validates edges)."""
    hops = 0
    for u, v in zip(route[:-1], route[1:]):
        topology.edge_id(u, v)  # raises TopologyError on non-edges
        hops += 1
    return hops
