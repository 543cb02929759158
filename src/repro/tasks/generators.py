"""Synthetic task-system generators.

The paper's motivating workloads are parallel programs whose tasks
communicate (§1: "a parallel program with m communicating tasks"). These
generators build the archetypal structures used by experiment E7 and the
examples:

* :func:`independent_tasks` — no dependencies (the classical load
  balancing setting of the diffusion literature).
* :func:`fork_join_tasks` — layered fork/join program: every task of
  layer *k* communicates with its children in layer *k+1*.
* :func:`pipeline_tasks` — linear chains of communicating stages.
* :func:`random_dag_tasks` — sparse random dependency structure.

All of them return ``(task_ids, TaskGraph)`` after placing the tasks on
nodes through a caller-supplied placement function, so the same program
structure can be dropped onto any initial load distribution.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.exceptions import TaskError
from repro.rng import RngLike, ensure_rng
from repro.tasks.task import TaskSystem
from repro.tasks.task_graph import TaskGraph

PlacementFn = Callable[[int], int]
"""Maps a task index (0-based creation order) to the node hosting it."""


def load_sizes(
    n: int,
    rng: RngLike = None,
    distribution: str = "uniform",
    mean: float = 1.0,
    spread: float = 0.5,
    alpha: float = 2.5,
) -> np.ndarray:
    """Draw *n* positive task sizes.

    Parameters
    ----------
    distribution:
        ``"uniform"`` — uniform on ``[mean·(1−spread), mean·(1+spread)]``;
        ``"exponential"`` — exponential with the given *mean* (heavy-ish
        tail: a few big particles among many light ones);
        ``"constant"`` — all equal to *mean*;
        ``"bimodal"`` — half light (``mean·(1−spread)``), half heavy
        (``mean·(1+spread)``), shuffled;
        ``"pareto"`` — classical Pareto with tail index *alpha*, scaled
        so the distribution mean equals *mean* (a few giant particles
        dominate the total load — the paper's "considerable amount of
        data" concern at its sharpest).
    mean:
        Target mean size (must be positive).
    spread:
        Relative spread in ``[0, 1)`` for the uniform/bimodal families.
    alpha:
        Tail index for the Pareto family; must exceed 1 for the mean to
        exist (smaller = heavier tail).
    """
    if n < 0:
        raise TaskError(f"n must be >= 0, got {n}")
    if mean <= 0:
        raise TaskError(f"mean task size must be positive, got {mean}")
    if not 0 <= spread < 1:
        raise TaskError(f"spread must be in [0, 1), got {spread}")
    rng = ensure_rng(rng)
    if distribution == "uniform":
        sizes = rng.uniform(mean * (1 - spread), mean * (1 + spread), n)
    elif distribution == "exponential":
        sizes = rng.exponential(mean, n)
        sizes = np.maximum(sizes, mean * 1e-3)  # keep strictly positive
    elif distribution == "pareto":
        if alpha <= 1:
            raise TaskError(f"pareto tail index alpha must be > 1, got {alpha}")
        scale = mean * (alpha - 1) / alpha  # x_m making E[X] = mean
        sizes = scale * (1.0 + rng.pareto(alpha, n))
    elif distribution == "constant":
        sizes = np.full(n, float(mean))
    elif distribution == "bimodal":
        sizes = np.where(
            np.arange(n) % 2 == 0, mean * (1 - spread), mean * (1 + spread)
        ).astype(np.float64)
        rng.shuffle(sizes)
    else:
        raise TaskError(f"unknown load size distribution: {distribution!r}")
    return sizes


def _place(system: TaskSystem, sizes: np.ndarray, placement: PlacementFn) -> list[int]:
    """Create one task per size, task *k* on ``placement(k)``; its ids.

    *placement* is a pure function of the index, so the whole node list
    is known before the first task exists and the system grows in one
    bulk :meth:`~repro.tasks.task.TaskSystem.add_tasks` call.
    """
    nodes = [placement(k) for k in range(sizes.shape[0])]
    return system.add_tasks(sizes, nodes).tolist()


def independent_tasks(
    system: TaskSystem,
    n: int,
    placement: PlacementFn,
    rng: RngLike = None,
    **size_kwargs,
) -> tuple[list[int], TaskGraph]:
    """Create *n* dependency-free tasks; returns (ids, empty TaskGraph)."""
    sizes = load_sizes(n, rng, **size_kwargs)
    ids = _place(system, sizes, placement)
    return ids, TaskGraph()


def pipeline_tasks(
    system: TaskSystem,
    n_chains: int,
    chain_length: int,
    placement: PlacementFn,
    rng: RngLike = None,
    comm_weight: float = 1.0,
    **size_kwargs,
) -> tuple[list[int], TaskGraph]:
    """*n_chains* linear pipelines of *chain_length* communicating stages.

    Stage *k* of each chain depends on stage *k+1* with weight
    *comm_weight*. The k-th created task overall has index
    ``chain · chain_length + stage`` for placement purposes.
    """
    if chain_length < 1 or n_chains < 1:
        raise TaskError(
            f"need n_chains >= 1 and chain_length >= 1, got {n_chains}, {chain_length}"
        )
    n = n_chains * chain_length
    sizes = load_sizes(n, rng, **size_kwargs)
    ids = _place(system, sizes, placement)
    graph = TaskGraph()
    for c in range(n_chains):
        base = c * chain_length
        for s in range(chain_length - 1):
            graph.set_dependency(ids[base + s], ids[base + s + 1], comm_weight)
    return ids, graph


def fork_join_tasks(
    system: TaskSystem,
    width: int,
    depth: int,
    placement: PlacementFn,
    rng: RngLike = None,
    comm_weight: float = 1.0,
    **size_kwargs,
) -> tuple[list[int], TaskGraph]:
    """Layered fork/join program: *depth* layers of *width* tasks.

    Each task in layer *k* communicates with every task of layer *k+1*
    (dense layer coupling — the worst case for oblivious balancers that
    scatter a layer across the machine).
    """
    if width < 1 or depth < 1:
        raise TaskError(f"need width >= 1 and depth >= 1, got {width}, {depth}")
    n = width * depth
    sizes = load_sizes(n, rng, **size_kwargs)
    ids = _place(system, sizes, placement)
    graph = TaskGraph()
    for layer in range(depth - 1):
        for a in range(width):
            for b in range(width):
                graph.set_dependency(
                    ids[layer * width + a], ids[(layer + 1) * width + b], comm_weight
                )
    return ids, graph


def random_dag_tasks(
    system: TaskSystem,
    n: int,
    placement: PlacementFn,
    rng: RngLike = None,
    edge_prob: float = 0.05,
    comm_weight_range: tuple[float, float] = (0.5, 1.5),
    **size_kwargs,
) -> tuple[list[int], TaskGraph]:
    """Random sparse dependency structure over *n* tasks.

    Each (unordered) pair is dependent with probability *edge_prob*;
    weights are uniform in *comm_weight_range*.
    """
    if not 0 <= edge_prob <= 1:
        raise TaskError(f"edge_prob must be in [0, 1], got {edge_prob}")
    rng = ensure_rng(rng)
    sizes = load_sizes(n, rng, **size_kwargs)
    ids = _place(system, sizes, placement)
    graph = TaskGraph()
    if n >= 2:
        iu, ju = np.triu_indices(n, k=1)
        take = rng.random(iu.shape[0]) < edge_prob
        lo, hi = comm_weight_range
        for a, b in zip(iu[take], ju[take]):
            w = float(rng.uniform(lo, hi)) if hi > lo else float(lo)
            graph.set_dependency(ids[int(a)], ids[int(b)], w)
    return ids, graph


def place_round_robin(nodes: Sequence[int]) -> PlacementFn:
    """Placement helper: cycle through *nodes* in order."""
    nodes = list(nodes)
    if not nodes:
        raise TaskError("placement node list must be non-empty")

    def fn(k: int) -> int:
        return nodes[k % len(nodes)]

    return fn


def place_all_on(node: int) -> PlacementFn:
    """Placement helper: everything on one node (the hotspot scenario)."""

    def fn(_k: int) -> int:
        return node

    return fn
