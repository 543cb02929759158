"""Initial load distributions: the starting shape of the load surface.

Each function populates a :class:`~repro.tasks.task.TaskSystem` with
tasks and returns the created ids. The names describe the initial *hill*
shape in the paper's surface picture:

* :func:`single_hotspot` — one towering hill (the canonical gradient-
  model benchmark; a burst of work arrives at one processor).
* :func:`multi_hotspot` — several hills, possibly of different heights
  (tests escape from local minima between them).
* :func:`uniform_random` — rough random terrain.
* :func:`linear_ramp` — a tilted plane (constant gradient everywhere).
* :func:`gaussian_blob` — a smooth hill spread over hop-distance from a
  centre.
* :func:`clustered` — several smooth hills around far-apart centres
  (the blob/multi-hotspot hybrid: lumpy but not spiky terrain).
* :func:`balanced` — flat surface (control: nothing should move).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import TaskError
from repro.network.routing import bfs_distances
from repro.network.topology import Topology
from repro.rng import RngLike, ensure_rng
from repro.tasks.generators import load_sizes
from repro.tasks.task import TaskSystem


def _create(system: TaskSystem, nodes: np.ndarray, sizes: np.ndarray) -> list[int]:
    return system.add_tasks(sizes, nodes).tolist()


def _far_apart_centers(topology: Topology, k: int) -> tuple[list[int], np.ndarray]:
    """*k* pairwise-far nodes and their BFS rows, shape ``(k, n)``.

    Greedy k-center on hop distances, seeded at the peripheral node:
    each next centre is the lowest-id node farthest from those chosen,
    tracked as a running minimum over one BFS row per centre. Shared by
    :func:`multi_hotspot` and :func:`clustered`, so the two "far-apart
    centres" placements can never diverge.
    """
    chosen = [topology.eccentricity_extremes.periphery]
    rows = [bfs_distances(topology, chosen)[0]]
    nearest = rows[0].copy()
    while len(chosen) < min(k, topology.n_nodes):
        chosen.append(int(np.argmax(nearest)))
        rows.append(bfs_distances(topology, chosen[-1:])[0])
        np.minimum(nearest, rows[-1], out=nearest)
    return chosen, np.stack(rows)


def single_hotspot(
    system: TaskSystem,
    n_tasks: int,
    rng: RngLike = None,
    node: int | None = None,
    **size_kwargs,
) -> list[int]:
    """All tasks on one node (defaults to the most central node).

    Centrality = minimum eccentricity under hop distance, so the hotspot
    sits mid-mesh rather than in a corner unless requested.
    """
    rng = ensure_rng(rng)
    topo = system.topology
    if node is None:
        node = topo.eccentricity_extremes.center
    sizes = load_sizes(n_tasks, rng, **size_kwargs)
    return _create(system, np.full(n_tasks, node), sizes)


def multi_hotspot(
    system: TaskSystem,
    n_tasks: int,
    rng: RngLike = None,
    nodes: list[int] | None = None,
    n_spots: int = 2,
    weights: list[float] | None = None,
    **size_kwargs,
) -> list[int]:
    """Tasks split across several hotspot nodes.

    When *nodes* is omitted, *n_spots* nodes are chosen to be pairwise
    far apart (greedy k-center on hop distances), which produces the
    multi-valley surface used by the arbiter experiment E8. *weights*
    sets the fraction of tasks per spot (defaults to equal).
    """
    rng = ensure_rng(rng)
    topo = system.topology
    if nodes is None:
        if n_spots < 1:
            raise TaskError(f"n_spots must be >= 1, got {n_spots}")
        nodes, _ = _far_apart_centers(topo, n_spots)
    if not nodes:
        raise TaskError("hotspot node list must be non-empty")
    k = len(nodes)
    if weights is None:
        weights = [1.0 / k] * k
    w = np.asarray(weights, dtype=np.float64)
    if w.shape[0] != k or (w < 0).any() or w.sum() <= 0:
        raise TaskError(f"invalid hotspot weights: {weights}")
    w = w / w.sum()
    assignment = rng.choice(k, size=n_tasks, p=w)
    node_arr = np.asarray(nodes, dtype=np.int64)[assignment]
    sizes = load_sizes(n_tasks, rng, **size_kwargs)
    return _create(system, node_arr, sizes)


def uniform_random(
    system: TaskSystem, n_tasks: int, rng: RngLike = None, **size_kwargs
) -> list[int]:
    """Each task lands on a uniformly random node."""
    rng = ensure_rng(rng)
    nodes = rng.integers(0, system.topology.n_nodes, n_tasks)
    sizes = load_sizes(n_tasks, rng, **size_kwargs)
    return _create(system, nodes, sizes)


def linear_ramp(
    system: TaskSystem, n_tasks: int, rng: RngLike = None, axis: int = 0, **size_kwargs
) -> list[int]:
    """Load density increases linearly along one embedding axis.

    Produces a constant-gradient surface: every balancer should transport
    load 'downhill' along the axis.
    """
    rng = ensure_rng(rng)
    topo = system.topology
    x = topo.coords[:, axis]
    span = x.max() - x.min()
    density = 0.05 + (x - x.min()) / span if span > 0 else np.ones_like(x)
    p = density / density.sum()
    nodes = rng.choice(topo.n_nodes, size=n_tasks, p=p)
    sizes = load_sizes(n_tasks, rng, **size_kwargs)
    return _create(system, nodes, sizes)


def gaussian_blob(
    system: TaskSystem,
    n_tasks: int,
    rng: RngLike = None,
    center: int | None = None,
    sigma_hops: float = 2.0,
    **size_kwargs,
) -> list[int]:
    """Load concentrated around *center* with Gaussian falloff in hops."""
    if sigma_hops <= 0:
        raise TaskError(f"sigma_hops must be positive, got {sigma_hops}")
    rng = ensure_rng(rng)
    topo = system.topology
    if center is None:
        center = topo.eccentricity_extremes.center
    d = bfs_distances(topo, [center])[0].astype(np.float64)
    p = np.exp(-0.5 * (d / sigma_hops) ** 2)
    p /= p.sum()
    nodes = rng.choice(topo.n_nodes, size=n_tasks, p=p)
    sizes = load_sizes(n_tasks, rng, **size_kwargs)
    return _create(system, nodes, sizes)


def clustered(
    system: TaskSystem,
    n_tasks: int,
    rng: RngLike = None,
    n_clusters: int = 4,
    sigma_hops: float = 1.5,
    **size_kwargs,
) -> list[int]:
    """Load in *n_clusters* smooth lumps around pairwise-far centres.

    Centres are chosen greedily far apart (k-center on hop distances,
    like :func:`multi_hotspot`); each node's density is the sum of
    Gaussian fall-offs from every centre, so the surface has several
    soft hills rather than single-node spikes.
    """
    if n_clusters < 1:
        raise TaskError(f"n_clusters must be >= 1, got {n_clusters}")
    if sigma_hops <= 0:
        raise TaskError(f"sigma_hops must be positive, got {sigma_hops}")
    rng = ensure_rng(rng)
    topo = system.topology
    _, rows = _far_apart_centers(topo, n_clusters)
    d = rows.astype(np.float64)  # (k, n) hops
    p = np.exp(-0.5 * (d / sigma_hops) ** 2).sum(axis=0)
    p /= p.sum()
    nodes = rng.choice(topo.n_nodes, size=n_tasks, p=p)
    sizes = load_sizes(n_tasks, rng, **size_kwargs)
    return _create(system, nodes, sizes)


def balanced(
    system: TaskSystem, tasks_per_node: int, rng: RngLike = None, **size_kwargs
) -> list[int]:
    """Identical task count per node with constant sizes by default.

    The flat-surface control: with equal sizes nothing exceeds the static
    friction threshold and no balancer should move anything.
    """
    rng = ensure_rng(rng)
    n = system.topology.n_nodes
    size_kwargs.setdefault("distribution", "constant")
    sizes = load_sizes(tasks_per_node * n, rng, **size_kwargs)
    nodes = np.repeat(np.arange(n), tasks_per_node)
    return _create(system, nodes, sizes)
