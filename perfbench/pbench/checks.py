"""Correctness checks run inside every workload, counted into ``failed_ratio``.

Each *unit* of work — one cold spec, one warm-replay pass, one traced
spec, one sampled batch lane — is attempted once and fails if any of
its checks fails. The checks:

* load conservation: the final task count and total load equal the
  placement's;
* determinism: the same seed gives the same digest of records + final
  loads on every repeat;
* replicate batching: a sampled ``rounds-batch`` lane equals a solo
  ``execute_spec`` of that seed;
* cache replay: warm-replay metrics and records equal the cold pass's;
* tracing: the traced run's digests equal the untraced run's.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys

import numpy as np


def result_digest(result, final_loads: np.ndarray | None = None) -> str:
    """sha256 of a result's per-round records, convergence round, final
    imbalance summary and (when given) final per-node loads."""
    h = hashlib.sha256()
    h.update(json.dumps(result.log.to_columns(), sort_keys=True).encode())
    h.update(json.dumps([result.converged_round, result.final_summary],
                        sort_keys=True).encode())
    if final_loads is not None:
        h.update(np.ascontiguousarray(final_loads, dtype=np.float64).tobytes())
    return h.hexdigest()


def system_conserved(system, n_tasks0: int, task_loads0: np.ndarray) -> bool:
    """Final task count, per-task loads and node-load total match the
    placement (no churn, no load left on the wire)."""
    if system.n_tasks != n_tasks0 or system.n_in_transit != 0:
        return False
    if not np.array_equal(system.loads_array(), task_loads0):
        return False
    total0 = float(task_loads0.sum())
    return math.isclose(float(system.node_loads.sum()), total0, rel_tol=1e-9)


def summary_conserved(result, n_tasks0: int) -> bool:
    """Conservation from a result alone (results that come back from a
    worker): the task count column never leaves the placement's count
    and the mean load is unchanged."""
    counts = result.log.column("n_tasks")
    if counts.shape[0] == 0 or not bool((counts == n_tasks0).all()):
        return False
    return math.isclose(result.final_summary["mean"],
                        result.initial_summary["mean"], rel_tol=1e-9)


class Tally:
    """Attempted/failed units; the first failures are kept for the log."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def unit(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)
                print(f"check failed: {what}", file=sys.stderr)
        return ok

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
