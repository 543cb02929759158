"""The Gradient Model (GM) [Lin & Keller '87] (paper §2).

"In the gradient model (GM) method, a pressure surface that represents
the propagated pressure of the workload is defined. Tasks are moved
toward the processors with the steepest gradient."

Classic GM: nodes classify themselves *light* / *moderate* / *heavy*
against watermarks; the *proximity* of a node is its hop distance to the
nearest light node (the propagated pressure surface); heavy nodes push
one unit of work to the neighbor with the smallest proximity. When no
node is light, the surface is flat and nothing moves.

Watermarks here are relative to the current mean load (``(1±δ)·mean``),
which keeps the algorithm meaningful across workload scales; classical
fixed watermarks are available via ``absolute_low`` / ``absolute_high``.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.baselines.base import free_and_up
from repro.exceptions import ConfigurationError
from repro.interfaces import BalanceContext, Balancer, Migration


def proximity_map(topology, light_mask: np.ndarray) -> np.ndarray:
    """Hop distance to the nearest light node (∞ when none is light).

    Multi-source BFS over the topology — the 'propagated pressure
    surface' of GM. O(V + E) per round.
    """
    n = topology.n_nodes
    prox = np.full(n, np.inf)
    q: deque[int] = deque()
    for v in np.nonzero(light_mask)[0]:
        prox[v] = 0.0
        q.append(int(v))
    while q:
        u = q.popleft()
        for w in topology.neighbors(u):
            w = int(w)
            if prox[w] == np.inf:
                prox[w] = prox[u] + 1.0
                q.append(w)
    return prox


class GradientModel(Balancer):
    """Lin & Keller's gradient model with relative watermarks.

    Parameters
    ----------
    delta:
        Relative watermark width: light if ``h < (1−δ)·mean``, heavy if
        ``h > (1+δ)·mean``.
    absolute_low, absolute_high:
        Override the relative watermarks with fixed values (classical
        GM) when both are given.
    """

    name = "gradient-model"

    def __init__(
        self,
        delta: float = 0.25,
        absolute_low: float | None = None,
        absolute_high: float | None = None,
    ):
        if delta <= 0:
            raise ConfigurationError(f"delta must be positive, got {delta}")
        if (absolute_low is None) != (absolute_high is None):
            raise ConfigurationError("set both absolute watermarks or neither")
        if absolute_low is not None and absolute_low >= absolute_high:
            raise ConfigurationError(
                f"absolute_low ({absolute_low}) must be < absolute_high ({absolute_high})"
            )
        self.delta = delta
        self.absolute_low = absolute_low
        self.absolute_high = absolute_high

    def _watermarks(self, h: np.ndarray) -> tuple[float, float]:
        if self.absolute_low is not None:
            return self.absolute_low, self.absolute_high  # type: ignore[return-value]
        mean = float(h.mean())
        return (1.0 - self.delta) * mean, (1.0 + self.delta) * mean

    def step(self, ctx: BalanceContext) -> list[Migration]:
        h = np.array(ctx.system.node_loads)
        low, high = self._watermarks(h)
        light = h < low
        if not light.any():
            return []
        prox = proximity_map(ctx.topology, light)
        heavy_nodes = np.nonzero(h > high)[0]
        if heavy_nodes.shape[0] == 0:
            return []

        used = np.zeros(ctx.topology.n_edges, dtype=bool)
        csr = ctx.topology.csr
        planned: set[int] = set()
        migrations: list[Migration] = []
        # Heaviest nodes first (deterministic; ties by id via stable sort).
        for i in heavy_nodes[np.argsort(-h[heavy_nodes], kind="stable")]:
            i = int(i)
            best_j = best_eid = -1
            best_key = (np.inf, np.inf)
            for j, eid in zip(csr.neighbors(i).tolist(), csr.incident_edges(i).tolist()):
                if not free_and_up(ctx, used, eid):
                    continue
                key = (float(prox[j]), float(h[j]))
                if key < best_key:
                    best_key = key
                    best_j, best_eid = j, eid
            if best_j < 0 or not np.isfinite(best_key[0]):
                continue
            # GM moves one unit of work down the pressure gradient: take
            # the node's largest task that does not overshoot the target.
            tid = None
            for cand in ctx.system.largest_tasks_at(i, 4):
                cand = int(cand)
                if cand in planned:
                    continue
                if h[i] - ctx.system.load_of(cand) >= low:
                    tid = cand
                    break
            if tid is None:
                continue
            migrations.append(Migration(tid, i, best_j))
            used[best_eid] = True
            planned.add(tid)
            load = ctx.system.load_of(tid)
            h[i] -= load
            h[best_j] += load
        return migrations
