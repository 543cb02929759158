"""Contracting Within a Neighborhood (CWN) [Shu & Kale '89] (paper §2).

"In the contracting within a neighborhood (CWN) method ... the workload
index is used directly and the tasks are sent to the processor with the
smallest index."

Implementation: every node whose load exceeds its least-loaded usable
neighbor by more than *threshold* sends one task to that neighbor.
Tasks hop at most *max_hops* times in total (the contracting radius):
a task that has exhausted its radius is pinned — the defining CWN
behaviour that keeps placement local but can strand load when the
neighborhood is uniformly busy.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import free_and_up
from repro.exceptions import ConfigurationError
from repro.interfaces import BalanceContext, Balancer, Migration


class ContractingWithinNeighborhood(Balancer):
    """CWN: send surplus to the least-loaded neighbor, bounded radius.

    Parameters
    ----------
    threshold:
        Minimum load difference to the least-loaded neighbor before a
        transfer happens (absorbs communication cost, like the paper's
        µs).
    max_hops:
        Contracting radius: lifetime hop budget per task.
    """

    name = "cwn"

    def __init__(self, threshold: float = 1.0, max_hops: int = 4):
        if threshold < 0:
            raise ConfigurationError(f"threshold must be >= 0, got {threshold}")
        if max_hops < 1:
            raise ConfigurationError(f"max_hops must be >= 1, got {max_hops}")
        self.threshold = threshold
        self.max_hops = max_hops
        self._hops: dict[int, int] = {}

    def reset(self, ctx: BalanceContext) -> None:
        self._hops.clear()

    def step(self, ctx: BalanceContext) -> list[Migration]:
        h = np.array(ctx.system.node_loads)
        used = np.zeros(ctx.topology.n_edges, dtype=bool)
        csr = ctx.topology.csr
        planned: set[int] = set()
        migrations: list[Migration] = []
        order = np.argsort(-h, kind="stable")
        for i in order:
            i = int(i)
            if h[i] <= 0:
                break
            best_j = best_eid = -1
            best_h = np.inf
            for j, eid in zip(csr.neighbors(i).tolist(), csr.incident_edges(i).tolist()):
                if not free_and_up(ctx, used, eid):
                    continue
                if h[j] < best_h:
                    best_h = float(h[j])
                    best_j, best_eid = j, eid
            if best_j < 0 or h[i] - best_h <= self.threshold:
                continue
            # Send the largest task still within its contracting radius
            # that does not overshoot (keep i above j after the move).
            tid = None
            for cand in ctx.system.largest_tasks_at(i, 6):
                cand = int(cand)
                if cand in planned or self._hops.get(cand, 0) >= self.max_hops:
                    continue
                load = ctx.system.load_of(cand)
                if load < (h[i] - best_h):
                    tid = cand
                    break
            if tid is None:
                continue
            migrations.append(Migration(tid, i, best_j))
            used[best_eid] = True
            planned.add(tid)
            self._hops[tid] = self._hops.get(tid, 0) + 1
            load = ctx.system.load_of(tid)
            h[i] -= load
            h[best_j] += load
        return migrations
