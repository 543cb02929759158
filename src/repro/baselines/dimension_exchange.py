"""Dimension exchange [Cybenko '89] (paper §2).

"Each processor balances its loads with its neighbor's one at a time. It
has been proven that on a hypercube, the entire system is balanced when
every processor has exchanged workload with all its neighbors once."

The schedule is a proper edge coloring: at round *r*, exactly the edges
of color ``r mod n_colors`` are active, so every node talks to at most
one neighbor at a time. On a *d*-dimensional hypercube the natural
coloring is by dimension (bit index) and one sweep of all *d* colors
balances everything exactly — the classical result validated in the
tests. General graphs get a greedy proper edge coloring (≤ 2Δ−1 colors).

:class:`FluidDimensionExchange` averages the pair's loads exactly;
:class:`DimensionExchange` approximates the averaging by moving the best
single task across the active edge per round.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import free_and_up, pick_task_for_quota
from repro.exceptions import ConfigurationError
from repro.interfaces import BalanceContext, Balancer, FluidBalancer, Migration
from repro.network.topology import Topology


def edge_coloring(topology: Topology) -> tuple[np.ndarray, int]:
    """Proper edge coloring; returns (color per edge id, n_colors).

    Hypercube topologies are detected by name and colored by dimension
    (the optimal d-coloring); everything else uses a greedy coloring of
    the line graph (at most ``2Δ − 1`` colors).
    """
    if topology.name.startswith("hypercube-"):
        colors = np.empty(topology.n_edges, dtype=np.int64)
        for k, (u, v) in enumerate(topology.edges):
            colors[k] = int(u ^ v).bit_length() - 1
        return colors, int(colors.max()) + 1

    import networkx as nx

    line = nx.line_graph(topology.graph)
    coloring = nx.coloring.greedy_color(line, strategy="largest_first")
    colors = np.empty(topology.n_edges, dtype=np.int64)
    for (u, v), c in coloring.items():
        colors[topology.edge_id(int(u), int(v))] = c
    return colors, int(colors.max()) + 1


class FluidDimensionExchange(FluidBalancer):
    """Exact pairwise averaging along the color schedule."""

    name = "dimension-exchange"

    def __init__(self) -> None:
        self._colors: np.ndarray | None = None
        self._n_colors = 0
        self._topology: Topology | None = None

    def reset(self, ctx: BalanceContext) -> None:
        self._topology = ctx.topology
        self._colors, self._n_colors = edge_coloring(ctx.topology)

    def fluid_step(self, h: np.ndarray, ctx: BalanceContext) -> np.ndarray:
        if self._colors is None or self._topology is not ctx.topology:
            self.reset(ctx)
        active = self._colors == (ctx.round_index % self._n_colors)
        e = ctx.topology.edges
        flow = np.zeros(ctx.topology.n_edges)
        # averaging: move half the difference toward the lighter side
        flow[active] = 0.5 * (h[e[active, 0]] - h[e[active, 1]])
        return flow


class DimensionExchange(Balancer):
    """Task-granular dimension exchange.

    On the active color class, the heavier endpoint of each edge sends
    its best-fitting task toward the pairwise average (half the load
    difference). *min_quota* suppresses exchanges once a pair is within
    one typical task of balance.
    """

    def __init__(self, min_quota: float = 0.25):
        if min_quota < 0:
            raise ConfigurationError(f"min_quota must be >= 0, got {min_quota}")
        self.min_quota = min_quota
        self.name = "task-dimension-exchange"
        self._colors: np.ndarray | None = None
        self._n_colors = 0
        self._topology: Topology | None = None

    def reset(self, ctx: BalanceContext) -> None:
        self._topology = ctx.topology
        self._colors, self._n_colors = edge_coloring(ctx.topology)

    def step(self, ctx: BalanceContext) -> list[Migration]:
        if self._colors is None or self._topology is not ctx.topology:
            self.reset(ctx)
        h = np.array(ctx.system.node_loads)
        e = ctx.topology.edges
        active_ids = np.nonzero(self._colors == (ctx.round_index % self._n_colors))[0]
        used = np.zeros(ctx.topology.n_edges, dtype=bool)
        planned: set[int] = set()
        migrations: list[Migration] = []
        for eid in active_ids:
            eid = int(eid)
            if not free_and_up(ctx, used, eid):
                continue
            u, v = int(e[eid, 0]), int(e[eid, 1])
            quota = 0.5 * (h[u] - h[v])
            if abs(quota) < self.min_quota:
                continue
            src, dst = (u, v) if quota > 0 else (v, u)
            tid = pick_task_for_quota(ctx, src, abs(quota), exclude=planned)
            if tid is None:
                continue
            migrations.append(Migration(tid, src, dst))
            used[eid] = True
            planned.add(tid)
            load = ctx.system.load_of(tid)
            h[src] -= load
            h[dst] += load
        return migrations
