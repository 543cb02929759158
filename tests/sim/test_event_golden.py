"""Fixed reference digests for the asynchronous engines' event queue.

The ``events`` ≡ ``events-fast`` suites compare two paths of today's
code; these tests pin both against literals instead. Each digest covers
two back-to-back :meth:`run` calls on one simulator (the second run's
reset lands whatever the first left on the wire) and hashes only
integer-valued state, so it does not depend on NumPy's floating-point
reduction order: per-round counts, the convergence round, the event
and wake counters, the final task placement and the terminal context
and clock RNG states. The digests were computed with the tuple-heap
event queue the columnar stores replaced, so a change in the schedule
(order of wakes, arrivals or epoch markers, or of jitter draws) shows
here even when both engines move together.

The second half drives :class:`WakeSchedule`/:class:`ArrivalBuffer`
and a small ``heapq`` model of the old queue through the same random
operation sequences (with tied times) and requires identical pop order.
"""

import hashlib
import heapq
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.faults import FaultModel
from repro.runner.registry import make_balancer
from repro.sim import EventFastSimulator, EventSimulator
from repro.sim.event_buffers import ArrivalBuffer, WakeSchedule
from repro.sim.events import _ARRIVAL, _WAKE
from repro.workloads import build_scenario

SIZE = {"side": 6, "n_tasks": 180}
ROUNDS = 30

#: name -> (scenario, algorithm, seed, engine kwargs, with a FaultModel)
CONFIGS = {
    "torus-hotspot-jitter": ("torus-hotspot", "pplb", 3, {"wake_jitter": 0.3}, False),
    "jitter-latency": (
        "mesh-hotspot", "pplb", 5,
        {"wake_jitter": 0.2, "transfer_latency": 0.4}, False,
    ),
    "size-latency": (
        "mesh-two-valleys", "pplb", 7,
        {"transfer_latency": "size", "latency_scale": 0.7}, False,
    ),
    "stragglers-cadence": (
        "straggler", "diffusion", 11,
        {"stragglers": {3: 2.5, 17: 4.0}, "cadence": 0.5}, False,
    ),
    "epoch-jitter": (
        "mesh-two-valleys", "gradient-model", 13,
        {"epoch": 2.0, "wake_jitter": 0.45}, False,
    ),
    "churn-jitter": ("bursty-arrivals", "pplb", 17, {"wake_jitter": 0.25}, False),
    # unit clocks + unit latency: arrivals land exactly on epoch starts,
    # tied with the fault and churn markers
    "churn-unit-latency": (
        "bursty-arrivals", "pplb", 29, {"transfer_latency": 1.0}, False,
    ),
    "faults-latency": ("fault-storm", "pplb", 19, {"transfer_latency": 0.6}, True),
    "stealing-jitter": ("mesh-hotspot", "work-stealing", 23, {"wake_jitter": 0.3}, False),
}

#: sha256 of :func:`_digest`'s output, computed with the tuple-heap queue.
GOLDEN = {
    "torus-hotspot-jitter":
        "3a6cfe575f120aadaf1300b9baa83d06f56976d02b7c385c61c388b694183a6d",
    "jitter-latency":
        "862bee9d2dd2818e311bca96e9c3119475a4cf4d288289ec33df3334b0b4a9c7",
    "size-latency":
        "16fe2496209590f2a1d8d3b9f7eb8488d9bfc7317f65582e52e107a28104ea4b",
    "stragglers-cadence":
        "5504dede2e617b811074e6ccc84e71979420a332f080a6e03134bc1a62aa8d08",
    "epoch-jitter":
        "e504be3da2f138dd7865228406f827df82a1808ae009dff8a2c9bdd3b569abe0",
    "churn-jitter":
        "92a3ecafb408f9b61c41da47361b38e56a7a5782539db1bc6a29f442945c3517",
    "churn-unit-latency":
        "87d4bee8b51742d788dc6e22dc26e645b60318e71539357cb1a8863557e0e5a0",
    "faults-latency":
        "1b124c6c9d4828dfe2fcfd9aa4923c5fffb3b331569e6ca96a5fd5b9471c5d53",
    "stealing-jitter":
        "2398112d6cbcaaf3d439af58529159c41b4b3d2479768b07f95aaa4ba00e2443",
}


def _rng_state(rng):
    return None if rng is None else rng.bit_generator.state


def _digest(engine_cls, name: str) -> str:
    scenario_name, algorithm, seed, kwargs, with_faults = CONFIGS[name]
    scenario = build_scenario(scenario_name, seed=seed, **SIZE)
    sim = engine_cls(
        scenario.topology,
        scenario.system,
        make_balancer(algorithm),
        links=scenario.links,
        dynamic=scenario.dynamic,
        node_speeds=scenario.node_speeds,
        seed=seed,
        **kwargs,
    )
    system = scenario.system
    runs = []
    for k in range(2):
        if with_faults:  # fault rounds only advance: a fresh model per run
            sim.fault_model = FaultModel(scenario.links, rng=seed + k)
        result = sim.run(max_rounds=ROUNDS)
        runs.append({
            "records": [
                [r.round_index, r.n_migrations, r.in_flight, r.blocked,
                 r.n_tasks, r.asleep]
                for r in result.records
            ],
            "converged_round": result.converged_round,
            "events_processed": sim.events_processed,
            "wakes_per_node": sim.wakes_per_node.tolist(),
            "alive_ids": system.alive_ids().tolist(),
            "locations": system.locations_array().tolist(),
            "rng": _rng_state(sim.rng),
            "clock_rng": _rng_state(sim._clock_rng),
        })
    blob = json.dumps(runs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("engine_cls", [EventSimulator, EventFastSimulator],
                         ids=["events", "events-fast"])
@pytest.mark.parametrize("name", list(CONFIGS))
def test_digest_matches_heap_reference(engine_cls, name):
    assert _digest(engine_cls, name) == GOLDEN[name]


# ---------------------------------------------------------------------- #
# The columnar stores against a heapq model of the tuple-heap queue
# ---------------------------------------------------------------------- #

N_NODES = 6
TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])


class HeapQueue:
    """The tuple-heap queue: ``(time, priority, seq, payload)`` entries,
    a wake wave being every wake popped at one instant."""

    def __init__(self):
        self.heap = []
        self.seq = 0

    def push(self, when, priority, payload):
        self.seq += 1
        heapq.heappush(self.heap, (when, priority, self.seq, payload))

    def pop(self):
        t, priority, _seq, payload = heapq.heappop(self.heap)
        batch = [payload]
        while priority == _WAKE and self.heap and self.heap[0][:2] == (t, _WAKE):
            batch.append(heapq.heappop(self.heap)[3])
        return t, priority, batch

    def drain_arrivals(self):
        out = [e[3] for e in sorted(self.heap) if e[1] == _ARRIVAL]
        self.heap = [e for e in self.heap if e[1] != _ARRIVAL]
        heapq.heapify(self.heap)
        return out


def _pop_stores(wakes, arrivals):
    """The engine's selection rule: smallest ``(time, priority)``."""
    ta, tw = arrivals.peek_time(), wakes.peek_time()
    if (ta, _ARRIVAL) < (tw, _WAKE):
        return ta, _ARRIVAL, [arrivals.pop_earliest()]
    return tw, _WAKE, wakes.pop_wave(tw).tolist()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), seed_all=st.booleans())
def test_stores_pop_in_heap_order(data, seed_all):
    model = HeapQueue()
    wakes = WakeSchedule(N_NODES)
    arrivals = ArrivalBuffer()
    pending: set[int] = set()
    if seed_all:
        wakes.schedule_all(0.0)
        for node in range(N_NODES):
            model.push(0.0, _WAKE, node)
        pending.update(range(N_NODES))
    for step in range(data.draw(st.integers(0, 40), label="steps")):
        op = data.draw(st.sampled_from(["wake", "arrive", "pop", "pop", "drain"]))
        if op == "wake":
            free = sorted(set(range(N_NODES)) - pending)
            if not free:
                continue
            nodes = data.draw(st.lists(st.sampled_from(free), min_size=1,
                                       unique=True))
            times = [data.draw(TIMES) for _ in nodes]
            wakes.schedule(np.array(nodes, dtype=np.int64), np.array(times))
            for node, t in zip(nodes, times):
                model.push(t, _WAKE, node)
            pending.update(nodes)
        elif op == "arrive":
            t = data.draw(TIMES)
            payload = (step, data.draw(st.integers(0, N_NODES - 1)))
            arrivals.push(t, *payload)
            model.push(t, _ARRIVAL, payload)
        elif op == "pop":
            if not model.heap:
                continue
            got = _pop_stores(wakes, arrivals)
            assert got == model.pop()
            if got[1] == _WAKE:
                pending.difference_update(got[2])
        else:
            assert arrivals.drain_in_order() == model.drain_arrivals()
            assert len(arrivals) == 0
    while model.heap:
        got = _pop_stores(wakes, arrivals)
        assert got == model.pop()
    assert wakes.peek_time() == np.inf and arrivals.peek_time() == np.inf
