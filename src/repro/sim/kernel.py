"""The shared simulation kernel: one run loop for every engine.

Historically each engine (synchronous, fast, fluid, event) carried its
own copy of the per-round lifecycle — fault sampling, churn, balancer
step, apply/deliver, metric observation, convergence detection — so
every new capability had to be written four times.
:class:`SimulationLoop` owns that lifecycle once; each engine is a thin
*driver* (:class:`RoundDriver`) that supplies the engine-specific
pieces: how to reset, how to advance the system through one round (or
epoch of continuous time), and what load surface to observe.

Per round, the kernel runs::

    driver.play_round(r)     fault/churn sampling, balancer step(s),
                             apply/deliver — engine-specific
    observe                  imbalance summary of driver.observed_loads()
    recorder.observe(...)    pluggable recording policy (full / thin /
                             summary — see repro.sim.recording)
    convergence check        quiet-window (task mode) or spread
                             tolerance (fluid mode), shared verbatim

so every engine gets identical convergence semantics, identical record
fields, and any :class:`~repro.sim.recording.Recorder` for free. The
kernel allocates no per-round Python objects: metrics flow to the
recorder as scalars, and a columnar
:class:`~repro.sim.results.RoundLog` (or O(1) running aggregates)
receives them.
"""

from __future__ import annotations

import abc
import time
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError
from repro.interfaces import BalanceContext
from repro.network.links import LinkAttributes, link_costs
from repro.rng import RngLike, ensure_rng
from repro.sim.metrics import imbalance_summary
from repro.sim.recording import RecorderSpec, make_recorder
from repro.sim.results import SimulationResult
from repro.sim.telemetry import ProbeSpec, make_probe

if TYPE_CHECKING:
    from repro.interfaces import Balancer, Migration
    from repro.network.faults import FaultModel
    from repro.network.topology import Topology
    from repro.sim.engine import ConvergenceCriteria
    from repro.tasks.resources import ResourceMap
    from repro.tasks.task import TaskSystem
    from repro.tasks.task_graph import TaskGraph
    from repro.workloads.dynamic import DynamicWorkload

__all__ = [
    "RoundStats",
    "RoundDriver",
    "TaskStateMixin",
    "RunState",
    "SimulationLoop",
]


@dataclass
class RoundStats:
    """What one round of engine work reports back to the kernel.

    The imbalance metrics are *not* here — the kernel observes them
    itself from :meth:`RoundDriver.observed_loads` so every engine
    measures the same surface the same way.
    """

    applied: int = 0
    work: float = 0.0
    heat: float = 0.0
    blocked: int = 0
    asleep: int = 0
    n_tasks: int = 0


class RoundDriver(abc.ABC):
    """The engine-specific hooks :class:`SimulationLoop` drives.

    Required attributes (engines set these in ``__init__``):

    ``balancer``
        The algorithm under test (`.name` labels the result; task-mode
        drivers additionally rely on ``.idle()``).
    ``criteria``
        The :class:`~repro.sim.engine.ConvergenceCriteria` in force.
    ``dynamic``
        The churn process or None — convergence detection is skipped
        under churn (there is no quiescent state to converge to).
    ``fluid_mode``
        Class flag selecting the spread-tolerance convergence rule
        instead of the task-mode quiet-window rule.
    """

    #: fluid drivers flip this to get spread-tolerance convergence.
    fluid_mode = False

    @abc.abstractmethod
    def prepare(self, reset: bool) -> int:
        """Reset run state as requested; return the starting round index.

        A driver that supports continuation (``reset=False``) keeps the
        balancer's in-flight state and returns its running round
        counter; all others reset unconditionally and return 0.
        """

    @abc.abstractmethod
    def play_round(self, round_index: int) -> RoundStats:
        """Advance the system through one round (or epoch) of protocol.

        Everything between two observations lives here: fault
        realisation, in-transit deliveries, workload churn, the
        balancer step(s) and order application. The returned stats
        feed the recorder and the convergence check.
        """

    @abc.abstractmethod
    def observed_loads(self) -> np.ndarray:
        """The load surface metrics are computed on (effective loads)."""

    def in_transit_count(self) -> int:
        """Tasks currently on the wire (task engines override)."""
        return 0

    def in_flight_now(self) -> int:
        """Balancer-reported in-flight particles after this round."""
        balancer = self.balancer
        return 0 if balancer.idle() else getattr(balancer, "in_flight", 1)

    def finish(self, next_round: int) -> None:
        """Post-run bookkeeping (e.g. persisting the round counter)."""


class TaskStateMixin:
    """Shared task-engine set-up and state helpers (sync and event
    engines).

    :meth:`_init_task_state` validates and stores the constructor
    arguments both engine families share; everything else here reads
    the attributes it sets.
    """

    #: the ``*-fast`` engines flip this: every context they hand the
    #: balancer carries ``fast=True``.
    fast = False

    def _init_task_state(
        self,
        topology: Topology,
        system: TaskSystem,
        balancer: Balancer,
        links: Optional[LinkAttributes],
        fault_model: Optional[FaultModel],
        task_graph: Optional[TaskGraph],
        resources: Optional[ResourceMap],
        dynamic: Optional[DynamicWorkload],
        link_capacity: int,
        c1: float,
        e0: float,
        seed: RngLike,
        criteria: ConvergenceCriteria,
        node_speeds: Optional[np.ndarray],
        recorder: RecorderSpec,
        probe: ProbeSpec,
    ) -> None:
        if system.topology is not topology:
            raise ConfigurationError("task system was built for a different topology")
        n = topology.n_nodes
        if node_speeds is not None:
            node_speeds = np.asarray(node_speeds, dtype=np.float64)
            if node_speeds.shape != (n,):
                raise ConfigurationError(
                    f"node_speeds must have shape ({n},), got {node_speeds.shape}"
                )
            if (node_speeds <= 0).any():
                raise ConfigurationError("node speeds must be positive")
        if link_capacity < 1:
            raise ConfigurationError(f"link_capacity must be >= 1, got {link_capacity}")
        self.topology = topology
        self.system = system
        self.balancer = balancer
        self.links = links if links is not None else LinkAttributes.uniform(topology)
        if self.links.topology is not topology:
            raise ConfigurationError("link attributes were built for a different topology")
        self.fault_model = fault_model
        self.task_graph = task_graph
        self.resources = resources
        self.dynamic = dynamic
        self.link_capacity = link_capacity
        self.criteria = criteria
        self.node_speeds = node_speeds
        self.rng = ensure_rng(seed)
        self.link_costs = link_costs(self.links, c1=c1, e0=e0)
        self._all_up = np.ones(topology.n_edges, dtype=bool)
        self.probe = make_probe(probe)
        # The loop reaches its engine through a weak proxy: no sim <-> loop
        # cycle, so a finished run's arrays are freed by refcount, not
        # whenever the cyclic collector next runs.
        self._loop = SimulationLoop(weakref.proxy(self), recorder=recorder,
                                    probe=self.probe)

    def _context(
        self,
        round_index: int,
        up_mask: np.ndarray,
        awake: Optional[np.ndarray] = None,
    ) -> BalanceContext:
        return BalanceContext(
            topology=self.topology,
            system=self.system,
            links=self.links,
            link_costs=self.link_costs,
            up_mask=up_mask,
            round_index=round_index,
            rng=self.rng,
            task_graph=self.task_graph,
            resources=self.resources,
            node_speeds=self.node_speeds,
            awake=awake,
            fast=self.fast,
            probe=self.probe if self.probe.enabled else None,
        )

    def _order_edge(self, m: Migration) -> int:
        """Check one order's task and hop; return the link's edge id.

        An order for a dead task, from the wrong node or over a
        non-edge is a balancer bug and raises — the engine never
        silently repairs.
        """
        if not self.system.is_alive(m.task_id):
            raise SimulationError(f"balancer ordered a move of dead task {m.task_id}")
        loc = self.system.location_of(m.task_id)
        if loc != m.src:
            raise SimulationError(
                f"task {m.task_id} is at node {loc}, not at claimed source {m.src}"
            )
        return self.topology.edge_id(m.src, m.dst)  # raises on non-edges

    def _land(self, arrivals: Iterable[tuple[int, int]]) -> None:
        """Deliver in-transit ``(task_id, dest)`` pairs, in order."""
        system = self.system
        for tid, dest in arrivals:
            if system.is_alive(tid):  # may have completed on the wire
                system.deliver(tid, dest)

    def observed_loads(self) -> np.ndarray:
        """Loads normalised by speed (the metric surface)."""
        h = self.system.node_loads
        if self.node_speeds is None:
            return h
        return h / self.node_speeds

    def in_transit_count(self) -> int:
        return self.system.n_in_transit

    def _churn(self) -> None:
        """One churn step, with dependency/affinity cleanup."""
        created, removed = self.dynamic.step(self.system)
        if self.task_graph is not None:
            for tid in removed:
                self.task_graph.drop_task(tid)
        if self.resources is not None:
            for tid in removed:
                self.resources.drop_task(tid)


@dataclass
class RunState:
    """In-progress run bookkeeping between :meth:`SimulationLoop.begin`
    and :meth:`SimulationLoop.end`.

    ``r`` is the *next* round to play; after the loop it equals the
    number of rounds completed plus the starting base, which is exactly
    what :meth:`RoundDriver.finish` expects. ``done`` flips when the
    run converged or exhausted its round budget — callers interleaving
    several runs (the replicate-batched engine) drop a state from their
    active set the moment it is done.
    """

    result: SimulationResult
    r: int
    end_round: int
    start: float
    quiet: int = 0
    converged_at: int | None = None
    done: bool = False


class SimulationLoop:
    """The run loop shared by every engine.

    Parameters
    ----------
    driver:
        The engine supplying the per-round hooks.
    recorder:
        Recording policy — a spec string (``"full"``, ``"thin:<k>"``,
        ``"summary"``) or a :class:`~repro.sim.recording.Recorder`
        instance. The recorder is restarted at the top of every run,
        so one loop serves repeated/chained runs.
    probe:
        Telemetry policy — a spec string (``"null"``, ``"counters"``,
        ``"trace[:path]"``) or a :class:`~repro.sim.telemetry.Probe`
        instance. When enabled, the kernel wraps each lifecycle phase
        (``play_round`` / ``observe`` / ``record`` / ``converge``) in a
        wall-time span; under the default null probe every
        instrumentation site reduces to one boolean check, so the run
        — records, RNG stream, convergence — is provably unchanged.
    """

    def __init__(
        self,
        driver: RoundDriver,
        recorder: RecorderSpec = "full",
        probe: ProbeSpec = "null",
    ):
        self.driver = driver
        self.recorder = make_recorder(recorder)
        self.probe = make_probe(probe)

    def run(self, max_rounds: int = 1000, reset: bool = True) -> SimulationResult:
        """Simulate up to *max_rounds* rounds (early exit on convergence)."""
        driver = self.driver
        probe = self.probe
        traced = probe.enabled
        perf = time.perf_counter

        state = self.begin(max_rounds, reset)
        while not state.done:
            if traced:
                t0 = perf()
            stats = driver.play_round(state.r)
            if traced:
                probe.span("play_round", t0, perf())
            self.observe_round(state, stats)
        return self.end(state)

    def begin(self, max_rounds: int = 1000, reset: bool = True) -> RunState:
        """Start a run: validate, snapshot the initial surface, prepare.

        Together with :meth:`observe_round` and :meth:`end` this is the
        exploded form of :meth:`run`: ``begin`` covers everything up to
        the first ``play_round``, ``observe_round`` covers everything a
        round does *after* the driver has played it (observation,
        recording, convergence), and ``end`` the post-loop epilogue.
        The decomposition lets a caller drive several loops in
        lock-step (replicate batching) while each run stays bit-
        identical to a solo :meth:`run`.
        """
        if max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be >= 1, got {max_rounds}")
        driver = self.driver
        result = SimulationResult(balancer_name=driver.balancer.name)
        result.initial_summary = imbalance_summary(driver.observed_loads())
        start = time.perf_counter()
        self.recorder.start()
        self.probe.start()
        base = driver.prepare(reset)
        return RunState(result=result, r=base, end_round=base + max_rounds,
                        start=start)

    def observe_round(
        self,
        state: RunState,
        stats: RoundStats,
        summ: dict[str, float] | None = None,
    ) -> None:
        """Record round ``state.r``'s stats and run the convergence check.

        The caller has just played round ``state.r``; this advances
        ``state.r`` past it and flips ``state.done`` on convergence or
        round-budget exhaustion. *summ* lets a caller hand in this
        round's :func:`imbalance_summary` of ``driver.observed_loads()``
        when it already computed it (the replicate-batched engine stacks
        the reduction across replicates); the values must be bitwise
        equal to what the kernel would compute itself.
        """
        driver = self.driver
        crit = driver.criteria
        probe = self.probe
        traced = probe.enabled
        perf = time.perf_counter
        r = state.r
        t1 = t2 = t3 = 0.0

        if traced:
            t1 = perf()
        if summ is None:
            summ = imbalance_summary(driver.observed_loads())
        if traced:
            t2 = perf()
            probe.span("observe", t1, t2)
        self.recorder.observe(
            r,
            stats.applied,
            stats.work,
            stats.heat,
            summ["cov"],
            summ["spread"],
            summ["max"],
            summ["min"],
            driver.in_flight_now(),
            stats.blocked,
            stats.n_tasks,
            stats.asleep,
        )
        if traced:
            t3 = perf()
            probe.span("record", t2, t3)

        converged_now = False
        if driver.fluid_mode:
            if summ["spread"] <= crit.spread_tol and r + 1 >= crit.min_rounds:
                state.converged_at = r
                converged_now = True
        elif driver.dynamic is None:
            # Convergence detection (skipped under churn: there is
            # no quiescent state to converge to).
            idle = driver.balancer.idle()
            balanced_enough = (
                crit.spread_tol > 0 and summ["spread"] <= crit.spread_tol
            )
            if stats.applied == 0 and idle and driver.in_transit_count() == 0:
                state.quiet += 1
            else:
                state.quiet = 0
            if r + 1 >= crit.min_rounds and (
                state.quiet >= crit.quiet_rounds or (balanced_enough and idle)
            ):
                state.converged_at = (
                    r - state.quiet + 1 if state.quiet >= crit.quiet_rounds else r
                )
                converged_now = True
        if traced:
            probe.span("converge", t3, perf())
        state.r = r + 1
        state.done = converged_now or state.r >= state.end_round

    def end(self, state: RunState) -> SimulationResult:
        """Finish a run started by :meth:`begin`; return its result."""
        driver = self.driver
        driver.finish(state.r)
        result = state.result
        result.converged_round = state.converged_at
        result.final_summary = imbalance_summary(driver.observed_loads())
        self.recorder.finalize(result)
        result.wall_time_s = time.perf_counter() - state.start
        self.probe.finalize(result)
        return result
