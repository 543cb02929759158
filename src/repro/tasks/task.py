"""Tasks, their placement, and the per-node load totals (paper §4.1-4.2).

A *task* is the paper's load/particle: an entity with a positive load
quantity ``l`` (its mass ``m``) residing on exactly one node. The paper
uses *task* when dependency/affinity matters and *load* when only the
size matters; :class:`TaskSystem` is both views at once.

Performance notes (per the HPC guides): per-node load totals
``h(v_i) = Σ_k l_{i,k}`` are the single hottest quantity in every
balancer, so they are maintained **incrementally** on each move/add/
remove — reading them is O(1) and allocation-free (a read-only view).
Task ids are stable integers; storage grows amortised O(1).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import TaskError
from repro.network.topology import Topology

_INITIAL_CAPACITY = 64


class TaskSystem:
    """All tasks in the system, their loads and placements.

    Parameters
    ----------
    topology:
        The network whose nodes tasks live on. Only used for bounds
        checking and node count — the TaskSystem itself is
        topology-agnostic.

    Notes
    -----
    Removed tasks keep their ids (never reused) but drop out of every
    aggregate. Loads are strictly positive; zero-load "tasks" are
    rejected because a zero-mass particle breaks the paper's energy
    equations (division by ``m·g``).
    """

    #: location sentinel for a task on the wire (see :meth:`send_to_transit`)
    TRANSIT = -2

    def __init__(self, topology: Topology):
        self.topology = topology
        self._n_nodes = topology.n_nodes
        cap = _INITIAL_CAPACITY
        self._loads = np.zeros(cap, dtype=np.float64)
        self._location = np.full(cap, -1, dtype=np.int64)
        self._alive = np.zeros(cap, dtype=bool)
        self._count = 0
        self._n_alive = 0
        self._node_loads = np.zeros(self._n_nodes, dtype=np.float64)
        self._node_tasks: list[set[int]] = [set() for _ in range(self._n_nodes)]
        self._moves = 0
        self._wire_load = 0.0
        self._in_transit: set[int] = set()
        # candidate_floor cache: maintained incrementally once requested
        # (a node's floor only changes when its task multiset does).
        self._floor: np.ndarray | None = None
        self._floor_k = 0
        self._floor_dirty: set[int] = set()

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def _reserve(self, total: int) -> None:
        """Grow per-task storage (by doubling) until it holds *total* tasks."""
        cap = self._loads.shape[0]
        new_cap = cap
        while new_cap < total:
            new_cap *= 2
        if new_cap == cap:
            return
        for name in ("_loads", "_location", "_alive"):
            old = getattr(self, name)
            new = np.zeros(new_cap, dtype=old.dtype)
            if name == "_location":
                new[:] = -1
            new[:cap] = old
            setattr(self, name, new)

    def _check_new(self, load: float, node: int) -> None:
        """Raise unless a task of size *load* may be created on *node*."""
        if load <= 0:
            raise TaskError(f"task load must be positive, got {load}")
        if not 0 <= node < self._n_nodes:
            raise TaskError(f"node {node} out of range [0, {self._n_nodes})")

    def add_task(self, load: float, node: int) -> int:
        """Create a task of size *load* on *node*; returns its id."""
        self._check_new(load, node)
        if self._count >= self._loads.shape[0]:
            self._reserve(self._count + 1)
        tid = self._count
        self._count += 1
        self._loads[tid] = float(load)
        self._location[tid] = node
        self._alive[tid] = True
        self._n_alive += 1
        self._node_loads[node] += float(load)
        self._node_tasks[node].add(tid)
        if self._floor is not None:
            self._floor_dirty.add(node)
        return tid

    def add_tasks(self, loads, nodes) -> np.ndarray:
        """Create ``len(loads)`` tasks at once; returns their ids.

        Equal to ``[add_task(l, v) for l, v in zip(loads, nodes)]`` —
        same ids, bit-equal node loads (:func:`numpy.add.at` adds in
        task order), same per-node sets — but validated before anything
        changes: a bad load or node raises the :class:`TaskError`
        ``add_task`` would raise for the first offending task and leaves
        the system untouched.
        """
        loads = np.asarray(loads, dtype=np.float64).reshape(-1)
        nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
        if loads.shape != nodes.shape:
            raise TaskError(
                f"got {loads.shape[0]} loads for {nodes.shape[0]} nodes"
            )
        bad = np.flatnonzero((loads <= 0) | (nodes < 0) | (nodes >= self._n_nodes))
        if bad.size:
            self._check_new(float(loads[bad[0]]), int(nodes[bad[0]]))
        k = loads.shape[0]
        first = self._count
        ids = np.arange(first, first + k, dtype=np.int64)
        if k == 0:
            return ids
        self._reserve(first + k)
        self._loads[first:first + k] = loads
        self._location[first:first + k] = nodes
        self._alive[first:first + k] = True
        self._count += k
        self._n_alive += k
        np.add.at(self._node_loads, nodes, loads)
        # One stable sort groups the ids by node, ascending within each
        # node: the insertion order of the sequential path.
        order = np.argsort(nodes, kind="stable")
        by_node = nodes[order]
        starts = np.flatnonzero(np.diff(by_node, prepend=-1))
        ends = np.append(starts[1:], k).tolist()
        grouped = ids[order].tolist()
        hosts = by_node[starts].tolist()
        for node, s, e in zip(hosts, starts.tolist(), ends):
            self._node_tasks[node].update(grouped[s:e])
        if self._floor is not None:
            self._floor_dirty.update(hosts)
        return ids

    def remove_task(self, tid: int) -> None:
        """Remove (complete) task *tid* (also legal while in transit)."""
        self._check(tid)
        if tid in self._in_transit:
            self._wire_load -= self._loads[tid]
            self._in_transit.discard(tid)
        else:
            node = int(self._location[tid])
            self._node_loads[node] -= self._loads[tid]
            self._node_tasks[node].discard(tid)
            if self._floor is not None:
                self._floor_dirty.add(node)
        self._alive[tid] = False
        self._n_alive -= 1
        self._location[tid] = -1

    def move(self, tid: int, dest: int) -> None:
        """Relocate task *tid* to node *dest*, updating load totals."""
        self._check(tid)
        if tid in self._in_transit:
            raise TaskError(f"task {tid} is in transit; deliver it instead")
        if not 0 <= dest < self._n_nodes:
            raise TaskError(f"node {dest} out of range [0, {self._n_nodes})")
        src = int(self._location[tid])
        if src == dest:
            return
        load = self._loads[tid]
        self._node_loads[src] -= load
        self._node_loads[dest] += load
        self._node_tasks[src].discard(tid)
        self._node_tasks[dest].add(tid)
        self._location[tid] = dest
        self._moves += 1
        if self._floor is not None:
            self._floor_dirty.add(src)
            self._floor_dirty.add(dest)

    # ---------------------- wire (transfer latency) -------------------- #

    def send_to_transit(self, tid: int) -> None:
        """Put task *tid* on the wire: it leaves its node immediately.

        While in transit the task is alive but located nowhere — its
        load is neither on the source (the hill already shrank) nor on
        the destination (the valley has not yet filled). Matches the
        paper's dynamic-surface rule applied at the moment of departure.
        """
        self._check(tid)
        if tid in self._in_transit:
            raise TaskError(f"task {tid} is already in transit")
        node = int(self._location[tid])
        load = self._loads[tid]
        self._node_loads[node] -= load
        self._node_tasks[node].discard(tid)
        self._location[tid] = self.TRANSIT
        self._wire_load += load
        self._in_transit.add(tid)
        if self._floor is not None:
            self._floor_dirty.add(node)

    def deliver(self, tid: int, dest: int) -> None:
        """Land an in-transit task on node *dest*."""
        self._check(tid)
        if tid not in self._in_transit:
            raise TaskError(f"task {tid} is not in transit")
        if not 0 <= dest < self._n_nodes:
            raise TaskError(f"node {dest} out of range [0, {self._n_nodes})")
        load = self._loads[tid]
        self._wire_load -= load
        self._in_transit.discard(tid)
        self._node_loads[dest] += load
        self._node_tasks[dest].add(tid)
        self._location[tid] = dest
        self._moves += 1
        if self._floor is not None:
            self._floor_dirty.add(dest)

    def in_transit(self, tid: int) -> bool:
        """Whether task *tid* is currently on the wire."""
        return tid in self._in_transit

    @property
    def wire_load(self) -> float:
        """Total load currently in transit (on no node)."""
        return self._wire_load

    @property
    def n_in_transit(self) -> int:
        """Number of tasks currently on the wire."""
        return len(self._in_transit)

    def _check(self, tid: int) -> None:
        if not (0 <= tid < self._count) or not self._alive[tid]:
            raise TaskError(f"task {tid} does not exist or was removed")

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def n_tasks(self) -> int:
        """Number of *alive* tasks (O(1), maintained on create/remove)."""
        return self._n_alive

    @property
    def n_created(self) -> int:
        """Total tasks ever created (alive + removed)."""
        return self._count

    @property
    def total_moves(self) -> int:
        """Cumulative count of task relocations."""
        return self._moves

    def is_alive(self, tid: int) -> bool:
        """Whether task *tid* exists and is not removed."""
        return 0 <= tid < self._count and bool(self._alive[tid])

    def load_of(self, tid: int) -> float:
        """Load quantity (mass) of task *tid*."""
        self._check(tid)
        return float(self._loads[tid])

    def location_of(self, tid: int) -> int:
        """Node currently hosting task *tid* (:data:`TRANSIT` on the wire)."""
        self._check(tid)
        return int(self._location[tid])

    def tasks_at(self, node: int) -> np.ndarray:
        """Sorted ids of the tasks on *node*."""
        if not 0 <= node < self._n_nodes:
            raise TaskError(f"node {node} out of range [0, {self._n_nodes})")
        return np.fromiter(sorted(self._node_tasks[node]), dtype=np.int64,
                           count=len(self._node_tasks[node]))

    @property
    def node_loads(self) -> np.ndarray:
        """Read-only view of ``h`` — total load per node (paper's height)."""
        v = self._node_loads.view()
        v.flags.writeable = False
        return v

    @property
    def total_load(self) -> float:
        """Total alive load, including in-transit (conserved invariant)."""
        return float(self._node_loads.sum()) + self._wire_load

    def alive_ids(self) -> np.ndarray:
        """Ids of all alive tasks."""
        return np.nonzero(self._alive[: self._count])[0].astype(np.int64)

    def loads_array(self) -> np.ndarray:
        """Copy of per-task loads for alive tasks (indexed by alive_ids)."""
        ids = self.alive_ids()
        return self._loads[ids].copy()

    def locations_array(self) -> np.ndarray:
        """Copy of per-task locations for alive tasks (parallel to alive_ids)."""
        ids = self.alive_ids()
        return self._location[ids].copy()

    def largest_tasks_at(self, node: int, k: int) -> np.ndarray:
        """Ids of the *k* largest tasks on *node* (descending by load).

        The balancer's migration candidates: moving big particles first
        is both physically natural (they carry the gradient) and keeps
        per-round work bounded.
        """
        ids = self.tasks_at(node)
        if ids.shape[0] <= k:
            order = np.argsort(-self._loads[ids], kind="stable")
            return ids[order]
        part = np.argpartition(-self._loads[ids], k - 1)[:k]
        sel = ids[part]
        order = np.argsort(-self._loads[sel], kind="stable")
        return sel[order]

    def candidate_floor(self, k: int) -> np.ndarray:
        """Smallest load among each node's ``k`` largest resident tasks.

        Shape ``(n_nodes,)``, read-only; nodes hosting no task get
        ``+inf``. This is the *most migratable* candidate load per node
        — the §5.1 slope is decreasing in the moved load, so a node none
        of whose links clear the slope threshold at its floor load
        cannot initiate anything. The vectorised fast path screens whole
        rounds with it. In-transit tasks (located on no node) are
        excluded.

        The first call builds the vector in one ``O(T log T)`` pass;
        afterwards it is maintained incrementally — every mutation marks
        only the touched nodes dirty, so the steady-state cost is
        proportional to the tasks that actually moved, not to ``T``.
        """
        if k < 1:
            raise TaskError(f"candidate_floor needs k >= 1, got {k}")
        if self._floor is None or self._floor_k != k:
            self._floor = self._floor_full(k)
            self._floor_k = k
            self._floor_dirty.clear()
        elif self._floor_dirty:
            for node in self._floor_dirty:
                self._floor[node] = self._floor_one(node, k)
            self._floor_dirty.clear()
        view = self._floor.view()
        view.flags.writeable = False
        return view

    def _floor_full(self, k: int) -> np.ndarray:
        """Candidate floors of every node in one vectorised pass."""
        out = np.full(self._n_nodes, np.inf)
        alive = self._alive[: self._count]
        location = self._location[: self._count]
        resident = np.nonzero(alive & (location >= 0))[0]
        if resident.shape[0] == 0:
            return out
        locs = location[resident]
        loads = self._loads[: self._count][resident]
        order = np.lexsort((loads, locs))  # by node, then ascending load
        loads_sorted = loads[order]
        counts = np.bincount(locs[order], minlength=self._n_nodes)
        ends = np.cumsum(counts)
        hosts = np.nonzero(counts)[0]
        # Top-k occupy the last min(k, count) slots of each ascending
        # segment; the floor is the first of them.
        out[hosts] = loads_sorted[ends[hosts] - np.minimum(counts[hosts], k)]
        return out

    def _floor_one(self, node: int, k: int) -> float:
        """Candidate floor of a single (dirty) node."""
        tasks = self._node_tasks[node]
        c = len(tasks)
        if c == 0:
            return np.inf
        loads = self._loads[np.fromiter(tasks, np.int64, count=c)]
        if c <= k:
            return float(loads.min())
        return float(np.partition(loads, c - k)[c - k])

    def snapshot_placement(self) -> dict[int, int]:
        """Dict of task id -> node for all alive tasks (for analysis)."""
        ids = self.alive_ids()
        return {int(t): int(self._location[t]) for t in ids}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TaskSystem(n_tasks={self.n_tasks}, total_load={self.total_load:.3g}, "
            f"nodes={self._n_nodes})"
        )
