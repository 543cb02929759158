"""The discrete-event asynchronous simulation engine.

:class:`EventSimulator` drops the synchronous-round assumption of
:class:`repro.sim.engine.Simulator`: time is continuous, driven by a
heap-based event queue, and every node has its *own* clock. A node
wakes on its own balancing cadence (heterogeneous speed factors,
per-wake jitter, optional straggler slowdowns), observes the system
through the same :class:`~repro.interfaces.BalanceContext` snapshot,
and issues the same one-hop :class:`~repro.interfaces.Migration`
orders — so every registered :class:`~repro.interfaces.Balancer` runs
unchanged on both engines.

Like the synchronous engines, the event engine is a driver for the
shared :class:`~repro.sim.kernel.SimulationLoop`: one *epoch* of
continuous time is one kernel round, played by draining the event heap
up to the epoch-end marker. Event types (ordered by a fixed priority at
equal timestamps, so the schedule is deterministic):

1. **epoch-begin** — link fault/repair transitions are realised
   (:class:`~repro.network.faults.FaultModel.advance`), once per epoch.
2. **task arrival** — an in-transit task lands on its destination
   (latency = load × e_ij / bandwidth, scaled by ``latency_scale``).
3. **churn** — workload arrivals/completions
   (:class:`~repro.workloads.dynamic.DynamicWorkload.step`).
4. **wake** — a *wave* of nodes whose clocks fire at this instant
   balances: one ``balancer.step`` call; orders between two sleeping
   nodes are refused by the engine (async-oblivious balancers simply
   lose those decisions, the way a real node's plan for someone else's
   processors would). An order touching an awake endpoint survives:
   src awake is a push, dst awake a pull (work stealing's steals are
   sourced at the sleeping victim). Link capacity is enforced per *time
   unit*, not per wave: a link whose epoch budget was spent by an
   earlier wave refuses further transfers as busy (counted in
   ``blocked``), preserving the paper's "a single load per link per
   time unit" under desynchronised clocks.
5. **epoch-end** — the kernel samples metrics through the run's
   recorder (full / thin / summary — see :mod:`repro.sim.recording`)
   and checks convergence.

Results are sampled at *epoch* boundaries (default epoch length 1.0, one
epoch ⇔ one synchronous round), so they land in the existing
:class:`~repro.sim.results.SimulationResult` shape and every downstream
consumer — ``to_dict``/``from_dict``, the runner cache, ``analysis``,
``viz`` — works without modification.

**The correctness anchor**: with homogeneous unit clocks, zero transfer
latency and the default uniform cadence (= the epoch length), every
wake wave contains *all* nodes at integer times — the event schedule
degenerates to the synchronous protocol and :meth:`EventSimulator.run`
reproduces :meth:`Simulator.run` exactly (same seed ⇒ identical
per-round records). ``tests/sim/test_event_equivalence.py`` holds this
as a property, not a hope.

:class:`EventFastSimulator` (the ``events-fast`` engine) is the PR 3
vectorisation playbook applied to this engine: the same continuous-time
protocol with the per-event Python object churn removed. Wake
scheduling and in-flight transfers live in columnar NumPy buffers
(:mod:`repro.sim.event_buffers`) instead of a tuple heap, and every
balancing wave runs with ``BalanceContext.fast`` set, so balancers with
a batched step (PPLB) screen no-effect work through whole-graph CSR
array expressions before entering their scalar decision bodies.
Skipped work is exactly no-effect, no-RNG work, so ``events-fast``
reproduces the scalar event engine bit for bit — records, RNG state,
final loads — across every clock model (jitter, stragglers, cadence,
latency); ``tests/sim/test_events_fast_equivalence.py`` holds the full
differential suite.
"""

from __future__ import annotations

import heapq
import time
import weakref
from typing import Mapping, Optional, Union

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError
from repro.interfaces import BalanceContext, Balancer, Migration
from repro.network.faults import FaultModel
from repro.network.links import LinkAttributes, link_costs
from repro.network.topology import Topology
from repro.rng import RngLike, derive, ensure_rng
from repro.sim.engine import ConvergenceCriteria
from repro.sim.event_buffers import ArrivalBuffer, WakeSchedule
from repro.sim.kernel import RoundDriver, RoundStats, SimulationLoop, TaskStateMixin
from repro.sim.recording import RecorderSpec
from repro.sim.results import SimulationResult
from repro.sim.telemetry import ProbeSpec, make_probe
from repro.tasks.resources import ResourceMap
from repro.tasks.task import TaskSystem
from repro.tasks.task_graph import TaskGraph
from repro.workloads.dynamic import DynamicWorkload

#: event priorities at equal timestamps — the deterministic tie-break
#: that makes the degenerate schedule identical to a synchronous round
#: (faults realised, then deliveries, then churn, then balancing, then
#: sampling).
_EPOCH_BEGIN, _ARRIVAL, _CHURN, _WAKE, _EPOCH_END = range(5)

#: spawn key for the clock-jitter stream (kept off the balancer's
#: context RNG so wake scheduling never perturbs balancing decisions).
_CLOCK_STREAM = 9001


class EventSimulator(TaskStateMixin, RoundDriver):
    """Asynchronous, continuous-time simulation of the same protocol.

    Parameters mirror :class:`repro.sim.engine.Simulator` where the
    concept carries over; the additions are the clock model.

    Parameters
    ----------
    topology, system, balancer, links, fault_model, task_graph,
    resources, dynamic, link_capacity, c1, e0, seed, criteria,
    node_speeds, recorder, probe:
        As in :class:`~repro.sim.engine.Simulator`. ``node_speeds`` are
        *processing* speeds: they define the effective metric surface
        ``h_i / s_i`` and, by default, also drive each node's wake rate
        (a slow processor balances less often).
    transfer_latency:
        ``0`` (default) = instantaneous; a positive ``float`` is a
        constant in-flight time per hop (in simulation-time units);
        ``"size"`` computes ``load · distance / bandwidth ·
        latency_scale`` per hop — the continuous-time version of the
        synchronous engine's size-proportional latency.
    latency_scale:
        Multiplier for ``"size"`` latencies (1.0 = one time unit per
        unit of load over a unit link).
    cadence:
        Base balancing period in simulation-time units. A node with
        clock speed ``c_i`` wakes every ``cadence / c_i`` time units.
        The default (1.0 = the epoch length) is the degenerate,
        synchronous-equivalent setting.
    clock_speeds:
        Optional per-node wake-rate factors. Defaults to
        ``node_speeds`` when given, else uniform 1.0.
    wake_jitter:
        Fractional jitter on every wake interval: each period is drawn
        as ``cadence / c_i · U(1−j, 1+j)``. Jitter draws come from a
        dedicated sub-stream of *seed*, so they never perturb the
        balancer's context RNG.
    stragglers:
        Optional mapping node → slowdown factor ≥ 1 applied on top of
        the node's clock speed (a factor of 4 makes the node balance
        4× less often). Keys may be ints or strings (JSON round-trip).
    epoch:
        Sampling period: metrics are recorded and faults/churn realised
        every *epoch* time units; one epoch is one "round" in the
        recorded result.

    Attributes
    ----------
    events_processed:
        Events popped during the last :meth:`run` (the events/sec
        numerator of ``benchmarks/bench_perf.py``).
    wakes_per_node:
        Per-node count of balancing wakes during the last :meth:`run`.
    """

    def __init__(
        self,
        topology: Topology,
        system: TaskSystem,
        balancer: Balancer,
        links: Optional[LinkAttributes] = None,
        fault_model: Optional[FaultModel] = None,
        task_graph: Optional[TaskGraph] = None,
        resources: Optional[ResourceMap] = None,
        dynamic: Optional[DynamicWorkload] = None,
        link_capacity: int = 1,
        transfer_latency: Union[float, str] = 0.0,
        latency_scale: float = 1.0,
        c1: float = 1.0,
        e0: float = 1.0,
        seed: RngLike = None,
        criteria: ConvergenceCriteria = ConvergenceCriteria(),
        node_speeds: Optional[np.ndarray] = None,
        cadence: float = 1.0,
        clock_speeds: Optional[np.ndarray] = None,
        wake_jitter: float = 0.0,
        stragglers: Optional[Mapping] = None,
        epoch: float = 1.0,
        recorder: RecorderSpec = "full",
        probe: ProbeSpec = "null",
    ):
        if system.topology is not topology:
            raise ConfigurationError("task system was built for a different topology")
        if link_capacity < 1:
            raise ConfigurationError(f"link_capacity must be >= 1, got {link_capacity}")
        if isinstance(transfer_latency, str):
            if transfer_latency != "size":
                raise ConfigurationError(
                    f"transfer_latency must be a float >= 0 or 'size', got "
                    f"{transfer_latency!r}"
                )
        elif transfer_latency < 0:
            raise ConfigurationError(
                f"transfer_latency must be >= 0, got {transfer_latency}"
            )
        if latency_scale < 0:
            raise ConfigurationError(f"latency_scale must be >= 0, got {latency_scale}")
        if cadence <= 0:
            raise ConfigurationError(f"cadence must be positive, got {cadence}")
        if epoch <= 0:
            raise ConfigurationError(f"epoch must be positive, got {epoch}")
        if not 0 <= wake_jitter < 1:
            raise ConfigurationError(
                f"wake_jitter must be in [0, 1), got {wake_jitter}"
            )
        n = topology.n_nodes
        if node_speeds is not None:
            node_speeds = np.asarray(node_speeds, dtype=np.float64)
            if node_speeds.shape != (n,):
                raise ConfigurationError(
                    f"node_speeds must have shape ({n},), got {node_speeds.shape}"
                )
            if (node_speeds <= 0).any():
                raise ConfigurationError("node speeds must be positive")
        if clock_speeds is None:
            clock_speeds = (
                node_speeds.copy() if node_speeds is not None else np.ones(n)
            )
        else:
            clock_speeds = np.asarray(clock_speeds, dtype=np.float64).copy()
            if clock_speeds.shape != (n,):
                raise ConfigurationError(
                    f"clock_speeds must have shape ({n},), got {clock_speeds.shape}"
                )
            if (clock_speeds <= 0).any():
                raise ConfigurationError("clock speeds must be positive")
        if stragglers:
            for node, factor in stragglers.items():
                node = int(node)  # JSON object keys arrive as strings
                if not 0 <= node < n:
                    raise ConfigurationError(
                        f"straggler node {node} out of range [0, {n})"
                    )
                factor = float(factor)
                if factor < 1:
                    raise ConfigurationError(
                        f"straggler slowdown must be >= 1, got {factor} "
                        f"for node {node}"
                    )
                clock_speeds[node] /= factor

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
        self.transfer_latency = transfer_latency
        self.latency_scale = float(latency_scale)
        self.criteria = criteria
        self.node_speeds = node_speeds
        self.cadence = float(cadence)
        self.clock_speeds = clock_speeds
        self.wake_jitter = float(wake_jitter)
        self.epoch = float(epoch)
        self.rng = ensure_rng(seed)
        # Jitter draws must not touch the balancer's context stream: a
        # Generator seed is *spawned* (advances only its spawn counter,
        # never the bit stream the balancer consumes); plain seeds get
        # an independent derived stream.
        if self.wake_jitter == 0:
            self._clock_rng = None
        elif isinstance(seed, np.random.Generator):
            self._clock_rng = seed.spawn(1)[0]
        else:
            self._clock_rng = derive(seed, _CLOCK_STREAM)
        self.link_costs = link_costs(self.links, c1=c1, e0=e0)
        self._all_up = np.ones(topology.n_edges, dtype=bool)
        self._periods = self.cadence / self.clock_speeds

        self.events_processed = 0
        self.wakes_per_node = np.zeros(n, dtype=np.int64)
        self.now = 0.0
        self.probe = make_probe(probe)
        self._loop = SimulationLoop(weakref.proxy(self), recorder=recorder,
                                    probe=self.probe)

    # ------------------------------------------------------------------ #

    def _context(
        self, epoch_index: int, up_mask: np.ndarray, awake: Optional[np.ndarray]
    ) -> BalanceContext:
        return BalanceContext(
            topology=self.topology,
            system=self.system,
            links=self.links,
            link_costs=self.link_costs,
            up_mask=up_mask,
            round_index=epoch_index,
            rng=self.rng,
            task_graph=self.task_graph,
            resources=self.resources,
            node_speeds=self.node_speeds,
            awake=awake,
            probe=self.probe if self.probe.enabled else None,
        )

    def _latency_of(self, load: float, eid: int) -> float:
        if self.transfer_latency == 0:
            return 0.0
        if self.transfer_latency == "size":
            bw = float(self.links.bandwidth[eid])
            d = float(self.links.distance[eid])
            return load * d / bw * self.latency_scale
        return float(self.transfer_latency)

    def _next_period(self, node: int) -> float:
        base = self._periods[node]
        if self._clock_rng is None:
            return base
        j = self.wake_jitter
        return base * float(self._clock_rng.uniform(1.0 - j, 1.0 + j))

    def _push(self, when: float, priority: int, payload) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (when, priority, self._seq, payload))

    # ------------------------------------------------------------------ #

    def _wave(self, t: float, nodes: list[int], up_mask: np.ndarray) -> None:
        """One balancing wave: every node whose clock fired at *t*."""
        probe = self.probe
        traced = probe.enabled
        if traced:
            t0 = time.perf_counter()
            applied0 = self._ep_applied
            blocked0 = self._ep_blocked
            asleep0 = self._ep_asleep
        self.wakes_per_node[nodes] += 1
        awake: Optional[np.ndarray]
        if len(nodes) == self.topology.n_nodes:
            awake = None  # full wave — the degenerate (synchronous) case
        else:
            awake = np.zeros(self.topology.n_nodes, dtype=bool)
            awake[nodes] = True
        ctx = self._context(self._epoch_index, up_mask, awake)
        migrations = self.balancer.step(ctx)
        self._apply(migrations, t, up_mask, awake)
        if traced:
            probe.span("wake_wave", t0, time.perf_counter())
            probe.incr("engine.waves")
            probe.incr("engine.wake_nodes", len(nodes))
            probe.incr("engine.transfers_applied", self._ep_applied - applied0)
            probe.incr("engine.transfers_blocked", self._ep_blocked - blocked0)
            probe.incr("engine.transfers_asleep", self._ep_asleep - asleep0)

    def _apply(
        self,
        migrations: list[Migration],
        t: float,
        up_mask: np.ndarray,
        awake: Optional[np.ndarray],
    ) -> None:
        """Validate and apply a wave's orders (same contract as the
        synchronous engine: an invalid order is a balancer bug and
        raises; a fault-refused or sleeping-endpoints order is counted
        and dropped)."""
        capacity = np.zeros(self.topology.n_edges, dtype=np.int64)
        for m in migrations:
            if awake is not None and not (awake[m.src] or awake[m.dst]):
                # An async-oblivious balancer planned a move between two
                # nodes whose clocks did not fire: the decision never
                # happened. Orders touching an awake endpoint survive —
                # src awake is a push (sender-initiated), dst awake a
                # pull (receiver-initiated, e.g. work stealing).
                self._ep_asleep += 1
                continue
            if not self.system.is_alive(m.task_id):
                raise SimulationError(f"balancer ordered a move of dead task {m.task_id}")
            loc = self.system.location_of(m.task_id)
            if loc != m.src:
                raise SimulationError(
                    f"task {m.task_id} is at node {loc}, not at claimed source {m.src}"
                )
            eid = self.topology.edge_id(m.src, m.dst)  # raises on non-edges
            if not up_mask[eid]:
                self._ep_blocked += 1
                continue
            if capacity[eid] + 1 > self.link_capacity:
                # More orders over one link than a single step may
                # schedule — a balancer bug, exactly as on the sync path.
                raise SimulationError(
                    f"link ({m.src}, {m.dst}) over capacity: "
                    f"{capacity[eid] + 1} > {self.link_capacity}"
                )
            if capacity[eid] + self._ep_link_used[eid] + 1 > self.link_capacity:
                # The link's per-time-unit budget was already spent by
                # an earlier wave this epoch (only possible once clocks
                # desynchronise): the link is busy and the transfer is
                # refused, like a faulted link — the paper's "a single
                # load per link per time unit" holds in continuous time.
                self._ep_blocked += 1
                continue
            capacity[eid] += 1
            load = self.system.load_of(m.task_id)
            latency = self._latency_of(load, eid)
            if latency <= 0:
                self.system.move(m.task_id, m.dst)
            else:
                self.system.send_to_transit(m.task_id)
                self._push(t + latency, _ARRIVAL, (m.task_id, m.dst))
            self._ep_applied += 1
            self._ep_work += load * float(self.link_costs[eid])
            self._ep_heat += m.heat
        self._ep_link_used += capacity

    # ------------------------- kernel driver hooks -------------------- #

    def prepare(self, reset: bool) -> int:
        """Full reset (the event engine does not support continuation)."""
        self.balancer.reset(self._context(0, self._all_up, None))
        self.events_processed = 0
        self.wakes_per_node[:] = 0
        # Land anything still on the wire from a previous run (arrival
        # events left in the old heap) so a fresh run starts with every
        # task on a node — the event-engine analogue of the synchronous
        # engine draining its wire dict on reset.
        for when, priority, _seq, payload in sorted(getattr(self, "_heap", [])):
            if priority == _ARRIVAL:
                tid, dest = payload
                if self.system.is_alive(tid):
                    self.system.deliver(tid, dest)
        self._heap: list[tuple] = []
        self._seq = 0
        self._epoch_index = 0
        self._ep_applied = 0
        self._ep_work = 0.0
        self._ep_heat = 0.0
        self._ep_blocked = 0
        self._ep_asleep = 0
        # Per-link transfers already scheduled this epoch (= time
        # unit): caps cross-wave traffic at link_capacity per epoch.
        self._ep_link_used = np.zeros(self.topology.n_edges, dtype=np.int64)
        self._up_mask = self._all_up
        return 0

    def play_round(self, round_index: int) -> RoundStats:
        """Drain the event heap through epoch *round_index*.

        One epoch spans ``epoch`` simulation-time units; its boundary
        events (begin/churn/end) are scheduled here, wakes and arrivals
        re-schedule themselves. Returns when the epoch-end marker pops,
        handing the epoch's accumulated counters to the kernel.
        """
        when = round_index * self.epoch
        self._push(when, _EPOCH_BEGIN, round_index)
        if self.dynamic is not None:
            self._push(when, _CHURN, round_index)
        self._push(when, _EPOCH_END, round_index)
        if round_index == 0:
            for node in range(self.topology.n_nodes):
                self._push(0.0, _WAKE, node)

        events0 = self.events_processed
        heap = self._heap
        while heap:
            t, priority, _seq, payload = heapq.heappop(heap)
            self.now = t
            self.events_processed += 1

            if priority == _WAKE:
                # Batch every clock that fires at this exact instant
                # into one wave (the degenerate config batches *all*
                # nodes, reproducing the synchronous round).
                nodes = [payload]
                while heap and heap[0][0] == t and heap[0][1] == _WAKE:
                    nodes.append(heapq.heappop(heap)[3])
                    self.events_processed += 1
                self._wave(t, nodes, self._up_mask)
                for node in nodes:
                    self._push(t + self._next_period(node), _WAKE, node)

            elif priority == _ARRIVAL:
                tid, dest = payload
                if self.system.is_alive(tid):  # may have completed on the wire
                    self.system.deliver(tid, dest)

            elif priority == _EPOCH_BEGIN:
                self._epoch_index = payload
                if self.fault_model is not None:
                    self.fault_model.advance(payload)
                    self._up_mask = self.fault_model.up_mask()

            elif priority == _CHURN:
                self._churn()

            else:  # _EPOCH_END — the kernel's observation point
                if self.probe.enabled:
                    self.probe.incr(
                        "engine.heap_pops", self.events_processed - events0
                    )
                stats = RoundStats(
                    applied=self._ep_applied,
                    work=self._ep_work,
                    heat=self._ep_heat,
                    blocked=self._ep_blocked,
                    asleep=self._ep_asleep,
                    n_tasks=self.system.n_tasks,
                )
                self._ep_applied = 0
                self._ep_work = 0.0
                self._ep_heat = 0.0
                self._ep_blocked = 0
                self._ep_asleep = 0
                self._ep_link_used[:] = 0
                return stats

        raise SimulationError(
            "event heap drained without reaching an epoch-end marker"
        )  # pragma: no cover - wakes always re-schedule themselves

    # ------------------------------------------------------------------ #

    def run(self, max_rounds: int = 1000) -> SimulationResult:
        """Simulate up to *max_rounds* epochs (early exit on convergence).

        One epoch spans ``epoch`` simulation-time units and produces one
        recorded round, so ``max_rounds`` plays the same budget role as
        in the synchronous engine.
        """
        return self._loop.run(max_rounds)


class EventFastSimulator(EventSimulator):
    """The ``events-fast`` engine: :class:`EventSimulator`, vectorised.

    Two changes, both pure evaluation-order optimisations:

    * Every :class:`~repro.interfaces.BalanceContext` carries
      ``fast=True``, so balancers with a batched step (PPLB) screen
      no-effect wakes — the ``candidate_floor`` × ``mu_s_base``
      monotone bound plus the batched Phase-A feasibilities — before
      entering their scalar decision bodies. The screen is sound (it
      only skips work the scalar sweep would have done with no effect
      and no RNG use), and a balancer whose configuration it cannot
      screen soundly (friction jitter draws RNG per *evaluated*
      candidate) detects that itself and falls back to the scalar
      decision path, keeping equivalence rather than speed.
    * The per-event tuple heap is replaced by the columnar stores of
      :mod:`repro.sim.event_buffers`: a :class:`WakeSchedule` (one
      next-wake slot per node; a same-instant wave is one vectorised
      compare-and-gather) and an :class:`ArrivalBuffer` (in-flight
      transfers as parallel columns). Both consume events in the
      heap's exact ``(time, priority, insertion)`` order, and jitter
      draws still happen one per rescheduled wake in wave order, so
      the clock RNG stream is untouched.

    The engine therefore reproduces :class:`EventSimulator` bit for bit
    on every configuration — records, RNG state, final loads, event
    counts (``tests/sim/test_events_fast_equivalence.py`` is the
    differential anchor) — while running the large-N async studies an
    order of magnitude faster (the ``events_fast`` block of
    ``benchmarks/results/BENCH_engine.json``).
    """

    def _context(
        self, epoch_index: int, up_mask: np.ndarray, awake: Optional[np.ndarray]
    ) -> BalanceContext:
        ctx = super()._context(epoch_index, up_mask, awake)
        ctx.fast = True
        return ctx

    def _push(self, when: float, priority: int, payload) -> None:
        """Route events into the columnar stores (no heap exists here).

        The only events pushed from shared code paths are the
        latency-delayed arrivals scheduled by :meth:`_apply`; wakes and
        epoch markers are handled inline by :meth:`play_round`.
        """
        if priority != _ARRIVAL:  # pragma: no cover - engine invariant
            raise SimulationError(
                f"events-fast scheduled a non-arrival event (priority {priority})"
            )
        tid, dest = payload
        self._arrivals.push(when, tid, dest)

    # ------------------------- kernel driver hooks -------------------- #

    def prepare(self, reset: bool) -> int:
        """Full reset, landing any leftover in-flight transfers first
        (the columnar analogue of the scalar engine's heap drain)."""
        self.balancer.reset(self._context(0, self._all_up, None))
        self.events_processed = 0
        self.wakes_per_node[:] = 0
        arrivals = getattr(self, "_arrivals", None)
        if arrivals is not None:
            for tid, dest in arrivals.drain_in_order():
                if self.system.is_alive(tid):
                    self.system.deliver(tid, dest)
        self._arrivals = ArrivalBuffer()
        self._wakes = WakeSchedule(self.topology.n_nodes)
        self._epoch_index = 0
        self._ep_applied = 0
        self._ep_work = 0.0
        self._ep_heat = 0.0
        self._ep_blocked = 0
        self._ep_asleep = 0
        self._ep_link_used = np.zeros(self.topology.n_edges, dtype=np.int64)
        self._up_mask = self._all_up
        return 0

    def play_round(self, round_index: int) -> RoundStats:
        """Drain the columnar event stores through epoch *round_index*.

        Identical schedule to the scalar :meth:`EventSimulator.play_round`:
        each iteration consumes the lexicographically smallest
        ``(time, priority)`` event among the pending wakes, arrivals and
        this epoch's begin/churn/end markers. Priorities are distinct
        per candidate class, so the minimum is unambiguous and equals
        the heap's pop order; insertion ranks inside the stores
        reproduce the heap's sequence-number tie-break.
        """
        when = round_index * self.epoch
        if round_index == 0:
            self._wakes.schedule_all(0.0)
        events0 = self.events_processed
        wakes = self._wakes
        arrivals = self._arrivals
        system = self.system
        begin_pending = True
        churn_pending = self.dynamic is not None

        while True:
            t, priority = when, _EPOCH_END
            if churn_pending:
                t, priority = when, _CHURN
            ta = arrivals.peek_time()
            if (ta, _ARRIVAL) < (t, priority):
                t, priority = ta, _ARRIVAL
            if begin_pending and (when, _EPOCH_BEGIN) < (t, priority):
                t, priority = when, _EPOCH_BEGIN
            tw = wakes.peek_time()
            if (tw, _WAKE) < (t, priority):
                t, priority = tw, _WAKE

            self.now = t

            if priority == _WAKE:
                wave = wakes.pop_wave(t)
                nodes = [int(node) for node in wave]
                self.events_processed += len(nodes)
                self._wave(t, nodes, self._up_mask)
                if self._clock_rng is None:
                    wakes.schedule(wave, t + self._periods[wave])
                else:
                    # One jitter draw per rescheduled wake, in wave
                    # order — the scalar re-push loop's RNG sequence.
                    jittered = np.empty(len(nodes), dtype=np.float64)
                    for k, node in enumerate(nodes):
                        jittered[k] = t + self._next_period(node)
                    wakes.schedule(wave, jittered)

            elif priority == _ARRIVAL:
                self.events_processed += 1
                tid, dest = arrivals.pop_earliest()
                if system.is_alive(tid):  # may have completed on the wire
                    system.deliver(tid, dest)

            elif priority == _EPOCH_BEGIN:
                self.events_processed += 1
                begin_pending = False
                self._epoch_index = round_index
                if self.fault_model is not None:
                    self.fault_model.advance(round_index)
                    self._up_mask = self.fault_model.up_mask()

            elif priority == _CHURN:
                self.events_processed += 1
                churn_pending = False
                self._churn()

            else:  # _EPOCH_END — the kernel's observation point
                self.events_processed += 1
                if self.probe.enabled:
                    self.probe.incr(
                        "engine.buffer_pops", self.events_processed - events0
                    )
                stats = RoundStats(
                    applied=self._ep_applied,
                    work=self._ep_work,
                    heat=self._ep_heat,
                    blocked=self._ep_blocked,
                    asleep=self._ep_asleep,
                    n_tasks=system.n_tasks,
                )
                self._ep_applied = 0
                self._ep_work = 0.0
                self._ep_heat = 0.0
                self._ep_blocked = 0
                self._ep_asleep = 0
                self._ep_link_used[:] = 0
                return stats
