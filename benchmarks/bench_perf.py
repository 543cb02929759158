"""BENCH — engine performance baseline and scaling curve.

Not a paper experiment: this is the repository's performance artifact,
the baseline CI's ``perf-gate`` job compares against. It records:

* **Scaling curve** — the synchronous engine vs its vectorised
  ``rounds-fast`` twin on a uniform-random mesh workload at
  N ∈ {64, 256, 1024, 4096} nodes, simulated for a fixed round budget
  with convergence exit disabled (a production balancer keeps serving
  rounds at equilibrium — the steady-state sweep is the common case,
  and exactly the regime the scalar per-node Python loop makes O(N)
  per round). Both engines are verified to produce identical records
  before their rates are reported, so the curve compares the same
  trajectory.
* **Event engine** — jittered clocks (so waves are genuinely per-node):
  the scalar ``events`` engine vs its batched ``events-fast`` twin,
  verified record-identical before rates are reported, in two regimes
  on the same 16×16 torus: the decision-bound *hotspot transient*
  (rates tracked) and the *steady-state serving* pair — uniform-random
  placement that quiesces after a short transient, after which every
  wake is a no-effect visit the fast path's screen rejects wholesale
  (the production regime, mirroring the curve's no-exit rationale).
  The steady pair carries the acceptance bar: events-fast must process
  ≥10× the scalar engine's events/sec, a machine-independent ratio
  since both engines run the identical event stream back to back.
* **Record throughput** — the long-run measurement pipeline: a
  1024-node ``rounds-fast`` run over 2000 rounds under the
  ``summary`` recorder (O(1) memory, no per-round history) next to
  the same run under ``full`` columnar recording. Both rates are
  tracked; the summary run must retain zero per-round records and
  never lag full recording by more than noise — the recorder is pure
  observation, not a tax on the loop.
* **Probe overhead** — the telemetry layer's cost ceiling: the same
  1024-node ``rounds-fast`` workload under the default ``null`` probe
  vs the ``counters`` probe (per-phase wall times + structured
  decision counters), best-of-3 interleaved pairs to shed scheduler
  noise, records verified identical before the rates are reported.
  The counters run may cost at most 5% wall time over null —
  machine-independent by construction (interleaved runs share the
  machine) — so telemetry stays cheap enough to leave on in
  experiments. The ceiling is asserted by this test and per-attempt
  by ``scripts/perf_gate.py`` (where noise earns a retry).

The artifact is machine-readable (``benchmarks/results/
BENCH_engine.json``) so successive baselines can be diffed and CI can
gate on regressions, plus the usual text table. Absolute numbers are
hardware-dependent; the asserts require progress, well-formed JSON and
two ratios that are machine-independent by construction (both sides
slow down together on a loaded runner): the vectorised rounds path
must be ≥5× the scalar path at N ≥ 1024 (ISSUE 3's acceptance bar)
and events-fast must be ≥10× scalar events/sec on the steady-state
torus pair (PR 6's acceptance bar).

* **Grid dispatch** — the runner's fully-cached replay rate: a
  200-spec grid, already cached, re-run twice per attempt — once
  through the per-spec JSON path (every payload parsed, every result
  rebuilt) and once at metric level (``keep_results=False``, answered
  from the cache's index sidecar). Interleaved best-of-3 pairs; the
  metric values are verified identical before the rates are reported.
  The indexed path must re-dispatch ≥5× faster than the per-spec JSON
  baseline — machine-independent by construction — and its absolute
  rate is tracked as ``grid_dispatch_rps`` by ``scripts/perf_gate.py``.

* **Batch throughput** — the replicate-batching engine (PR 10): a
  32-seed sweep over four uniform serving scenarios, run once as a
  per-seed ``rounds-fast`` loop and once through ``BatchSimulator``
  with the topology shared across replicates (exactly how
  ``run_grid(..., batch_replicates=…)`` groups a grid's seed axis).
  Every replicate is verified record-identical to its per-seed twin
  before the specs/sec rates are reported; the batched run must clear
  ≥3× the per-seed loop — machine-independent by construction, since
  both sides run the identical trajectories back to back.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_perf.py -s``
"""

from dataclasses import asdict

import json
import os
import tempfile
import time

from repro.analysis import format_table
from repro.runner import ResultCache, default_metrics, expand_grid, run_grid
from repro.runner.registry import make_balancer
from repro.sim import (
    BatchSimulator,
    EventFastSimulator,
    EventSimulator,
    FastSimulator,
    Simulator,
)
from repro.sim.engine import ConvergenceCriteria
from repro.workloads import build_scenario

from _harness import RESULTS_DIR, emit, merge_json, once

ALGORITHM = "pplb"
SEED = 0

#: scaling curve: uniform-random mesh workloads, side² nodes each.
CURVE_SCENARIO = "mesh-random"
CURVE_SIDES = (8, 16, 32, 64)
CURVE_ROUNDS = 40
#: the acceptance bar: vectorised ≥ 5× scalar at N ≥ 1024.
SPEEDUP_FLOOR = 5.0
SPEEDUP_FROM_N = 1024

#: record-throughput (long-run measurement pipeline) workload.
RECORD_SIDE = 32  # 1024 nodes
RECORD_ROUNDS = 2000
#: summary recording may never cost more than this fraction vs full —
#: machine-independent by construction (both runs share the machine);
#: the slack absorbs run-to-run noise on loaded runners.
RECORD_RPS_FLOOR = 0.85

#: probe-overhead workload: rounds-fast at N=1024 (the acceptance
#: size); the counters probe may cost at most this wall-time factor
#: over the null probe, best-of-2 runs each.
PROBE_SIDE = 32
PROBE_ROUNDS = 200
PROBE_OVERHEAD_CEILING = 1.05

EVENT_SCENARIO = "torus-hotspot"
EVENT_SIZE = {"side": 16, "n_tasks": 2048}
#: desynchronised clocks mean one balancer step per *node* wake — a 256
#: node torus runs ~256 waves per epoch, so a smaller epoch budget keeps
#: the baseline under a minute while the measured rates stay stable.
EVENT_ROUNDS = 40

#: steady-state serving pair: uniform-random placement on the same
#: 256-node torus balances within a couple of epochs, after which the
#: engines keep serving wake waves with nothing left to move — exactly
#: the no-effect regime the events-fast screen rejects without touching
#: scalar decision bodies (or the RNG).
EVENT_STEADY_SCENARIO = "torus:side=16+uniform:n_tasks=2048"
EVENT_STEADY_ROUNDS = 10
#: the async acceptance bar: events-fast ≥ 10x scalar events/sec on the
#: steady-state pair — machine-independent by construction (the engines
#: process the identical event stream back to back, so the events/sec
#: ratio is the wall-time ratio).
ASYNC_SPEEDUP_FLOOR = 10.0

#: grid-dispatch workload: 200 tiny specs (2 scenarios × 2 algorithms
#: × 50 seeds), cached once, then replayed — the dispatch benchmark
#: times the *runner*, so the simulations themselves stay minimal.
DISPATCH_SCENARIOS = ("mesh-hotspot", "mesh-random")
DISPATCH_ALGORITHMS = ("pplb", "diffusion")
DISPATCH_SEEDS = 50
DISPATCH_ROUNDS = 20
#: the dispatch acceptance bar: the indexed metric-level replay must
#: beat the per-spec JSON replay ≥ 5× — machine-independent by
#: construction (interleaved re-runs of the same cached grid).
DISPATCH_SPEEDUP_FLOOR = 5.0

#: replicate-batching workload: uniform serving scenarios (the steady
#: regime a seed sweep spends its time in), each run once per-seed and
#: once through ``BatchSimulator`` with the topology shared — exactly
#: how ``run_grid(..., batch_replicates=…)`` groups a grid's seed axis.
BATCH_SCENARIOS = (
    "mesh:8x8+uniform:n_tasks=256",
    "torus:8x8+uniform:n_tasks=256",
    "mesh:10x10+uniform:n_tasks=400",
    "torus:10x10+uniform:n_tasks=400",
)
BATCH_SEEDS = 32
BATCH_ROUNDS = 500
#: the replicate-batching acceptance bar: batched ≥ 3× the per-seed
#: loop in specs/sec — machine-independent by construction (both sides
#: run the identical 128 trajectories back to back, verified record-
#: identical before the rates are reported).
BATCH_SPEEDUP_FLOOR = 3.0

#: convergence exit disabled: every budgeted round is simulated, so the
#: curve measures the sustained service rate, not the length of one
#: transient.
_NO_EXIT = ConvergenceCriteria(quiet_rounds=10**9, min_rounds=0)


def _timed_run(engine_cls, side: int, rounds: int = CURVE_ROUNDS,
               recorder: str = "full", probe: str = "null"):
    scenario = build_scenario(CURVE_SCENARIO, seed=SEED, side=side)
    sim = engine_cls(
        scenario.topology, scenario.system, make_balancer(ALGORITHM),
        links=scenario.links, seed=SEED, criteria=_NO_EXIT,
        recorder=recorder, probe=probe,
    )
    return sim.run(max_rounds=rounds)


def _probe_overhead() -> dict:
    """Null vs counters probe on the N=1024 fast path, best-of-3 each.

    The pairs are *interleaved* (null, counters, null, counters, …) so
    a load drift on a busy machine hits both variants alike instead of
    biasing whichever ran second. The ceiling itself is enforced by the
    pytest wrapper and by ``scripts/perf_gate.py``'s per-attempt check
    (where a noisy attempt is retried), not here — a hard assert inside
    the measurement would turn runner noise into a crash.
    """
    null = counted = None
    for _ in range(3):
        null_run = _timed_run(FastSimulator, PROBE_SIDE,
                              rounds=PROBE_ROUNDS, probe="null")
        counted_run = _timed_run(FastSimulator, PROBE_SIDE,
                                 rounds=PROBE_ROUNDS, probe="counters")
        if null is None or null_run.wall_time_s < null.wall_time_s:
            null = null_run
        if counted is None or counted_run.wall_time_s < counted.wall_time_s:
            counted = counted_run
    # The comparison is meaningful only if the probe truly observed
    # without steering — identical trajectories, counters on the side.
    assert [asdict(r) for r in null.records] == [
        asdict(r) for r in counted.records
    ], "counters probe changed the simulation"
    assert null.telemetry is None
    assert counted.telemetry["counters"]["engine.transfers_applied"] == \
        counted.total_migrations
    return {
        "scenario": CURVE_SCENARIO,
        "n_nodes": PROBE_SIDE * PROBE_SIDE,
        "rounds": PROBE_ROUNDS,
        "null_rps": null.n_rounds / null.wall_time_s,
        "counters_rps": counted.n_rounds / counted.wall_time_s,
        "overhead": counted.wall_time_s / null.wall_time_s,
    }


def _grid_dispatch() -> dict:
    """Fully-cached 200-spec replay: per-spec JSON vs indexed metrics.

    Interleaved best-of-3 pairs (like the probe-overhead measurement)
    so machine-load drift hits both variants alike. The metric values
    must agree exactly — they were computed by the same function at
    store time and round-trip exactly through JSON — or the rates
    compare nothing.
    """
    specs = expand_grid(
        DISPATCH_SCENARIOS, DISPATCH_ALGORITHMS,
        list(range(DISPATCH_SEEDS)),
        max_rounds=DISPATCH_ROUNDS,
        scenario_kwargs={"side": 4, "n_tasks": 64},
        engine="rounds-fast",  # default full recorder: the payloads
        # carry per-round records, like any real experiment grid.
    )
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        run_grid(specs, cache=cache)  # populate (untimed)

        baseline_s = fast_s = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            full = run_grid(specs, cache=cache)
            baseline_s = min(baseline_s, time.perf_counter() - t0)
            t0 = time.perf_counter()
            slim = run_grid(specs, cache=cache, keep_results=False)
            fast_s = min(fast_s, time.perf_counter() - t0)
        assert all(o.cached for o in full) and all(o.cached for o in slim)
        assert [default_metrics(o.result) for o in full] == [
            o.metrics for o in slim
        ], "indexed metric replay diverged from the payload path"

    n = len(specs)
    dispatch = {
        "n_specs": n,
        "rounds": DISPATCH_ROUNDS,
        "baseline_rps": n / baseline_s,
        "fast_rps": n / fast_s,
        "speedup": baseline_s / fast_s,
    }
    # Enforced here (not only in the pytest wrapper) so every
    # scripts/perf_gate.py attempt gates it too.
    assert dispatch["speedup"] >= DISPATCH_SPEEDUP_FLOOR, (
        f"indexed grid dispatch only {dispatch['speedup']:.1f}x the "
        f"per-spec JSON replay (need >= {DISPATCH_SPEEDUP_FLOOR}x)"
    )
    return dispatch


def _batch_throughput() -> dict:
    """Per-seed loop vs one replicate-batched run, verified equal.

    Simulator construction stays outside both timers (it is identical
    work on both sides); the ``BatchSimulator`` wrapper itself is timed
    — its stacking cost is real batch-path overhead. Every replicate is
    verified record-identical to its per-seed twin before the rates are
    reported, so the specs/sec ratio compares the same 128 trajectories.
    The floor is asserted here (not only in the pytest wrapper) so every
    ``scripts/perf_gate.py`` attempt gates it too.
    """

    def build(name: str, seed: int, topology=None):
        scenario = build_scenario(name, seed=seed, topology=topology)
        sim = FastSimulator(
            scenario.topology, scenario.system, make_balancer(ALGORITHM),
            links=scenario.links, seed=seed, criteria=_NO_EXIT,
        )
        return scenario.topology, sim

    solo_s = batch_s = 0.0
    for name in BATCH_SCENARIOS:
        solo_sims = [build(name, seed)[1] for seed in range(BATCH_SEEDS)]
        batch_sims = []
        topology = None
        for seed in range(BATCH_SEEDS):
            topo, sim = build(name, seed, topology=topology)
            topology = topo
            batch_sims.append(sim)

        t0 = time.perf_counter()
        solo_results = [s.run(max_rounds=BATCH_ROUNDS) for s in solo_sims]
        solo_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        batch_results = BatchSimulator(batch_sims).run(
            max_rounds=BATCH_ROUNDS
        )
        batch_s += time.perf_counter() - t0

        # The rates compare the same trajectories or they compare
        # nothing — the batch engine's core contract, per replicate.
        for solo, batched in zip(solo_results, batch_results):
            assert [asdict(r) for r in solo.records] == [
                asdict(r) for r in batched.records
            ], f"batched replicate diverged from per-seed run on {name}"

    n = len(BATCH_SCENARIOS) * BATCH_SEEDS
    batch = {
        "scenarios": list(BATCH_SCENARIOS),
        "n_specs": n,
        "replicates": BATCH_SEEDS,
        "rounds": BATCH_ROUNDS,
        "solo_sps": n / solo_s,
        "batch_sps": n / batch_s,
        "speedup": solo_s / batch_s,
    }
    assert batch["speedup"] >= BATCH_SPEEDUP_FLOOR, (
        f"replicate batching only {batch['speedup']:.1f}x the per-seed "
        f"loop (need >= {BATCH_SPEEDUP_FLOOR}x)"
    )
    return batch


def _timed_event_pair(scenario_name: str, scenario_kwargs: dict,
                      rounds: int, criteria=None) -> dict:
    """Scalar vs batched event engine on one workload, verified equal."""

    def run(engine_cls):
        scenario = build_scenario(scenario_name, seed=SEED, **scenario_kwargs)
        extra = {} if criteria is None else {"criteria": criteria}
        sim = engine_cls(
            scenario.topology, scenario.system, make_balancer(ALGORITHM),
            links=scenario.links, seed=SEED, wake_jitter=0.2, **extra,
        )
        return sim, sim.run(max_rounds=rounds)

    scalar_sim, scalar = run(EventSimulator)
    fast_sim, fast = run(EventFastSimulator)
    # The rates compare the same trajectory or they compare nothing:
    # identical records and identical event streams, like the curve.
    assert [asdict(r) for r in scalar.records] == [
        asdict(r) for r in fast.records
    ], f"events-fast diverged from events on {scenario_name}"
    assert scalar_sim.events_processed == fast_sim.events_processed
    events = scalar_sim.events_processed
    return {
        "scenario": scenario_name,
        "scenario_kwargs": dict(scenario_kwargs),
        "rounds_budget": rounds,
        "rounds": scalar.n_rounds,
        "events": events,
        "scalar": {
            "wall_time_s": scalar.wall_time_s,
            "rounds_per_sec": scalar.n_rounds / scalar.wall_time_s,
            "events_per_sec": events / scalar.wall_time_s,
        },
        "fast": {
            "wall_time_s": fast.wall_time_s,
            "rounds_per_sec": fast.n_rounds / fast.wall_time_s,
            "events_per_sec": events / fast.wall_time_s,
        },
        "speedup": scalar.wall_time_s / fast.wall_time_s,
    }


def measure() -> dict:
    """One full measurement pass (also invoked by scripts/perf_gate.py)."""
    points = []
    for side in CURVE_SIDES:
        scalar = _timed_run(Simulator, side)
        fast = _timed_run(FastSimulator, side)
        # The comparison is only meaningful because both engines ran the
        # exact same trajectory (the fast path's core contract).
        assert [asdict(r) for r in scalar.records] == [
            asdict(r) for r in fast.records
        ], f"fast path diverged from scalar at side={side}"
        scalar_rps = scalar.n_rounds / scalar.wall_time_s
        fast_rps = fast.n_rounds / fast.wall_time_s
        points.append({
            "side": side,
            "n_nodes": side * side,
            "n_tasks": scalar.records[-1].n_tasks,
            "rounds": scalar.n_rounds,
            "scalar_rps": scalar_rps,
            "fast_rps": fast_rps,
            "speedup": fast_rps / scalar_rps,
        })

    # Record throughput: the sustained service rate of a long run when
    # nothing per-round is retained (summary aggregates) vs the full
    # columnar log. Totals must agree exactly — the recorder observes,
    # it never steers.
    full = _timed_run(FastSimulator, RECORD_SIDE, rounds=RECORD_ROUNDS,
                      recorder="full")
    summary = _timed_run(FastSimulator, RECORD_SIDE, rounds=RECORD_ROUNDS,
                         recorder="summary")
    assert len(summary.records) == 0, "summary recorder retained history"
    assert summary.n_rounds == full.n_rounds == RECORD_ROUNDS
    assert summary.total_migrations == full.total_migrations
    record_throughput = {
        "scenario": CURVE_SCENARIO,
        "n_nodes": RECORD_SIDE * RECORD_SIDE,
        "rounds": RECORD_ROUNDS,
        "full_rps": full.n_rounds / full.wall_time_s,
        "summary_rps": summary.n_rounds / summary.wall_time_s,
        "records_retained_full": len(full.records),
        "records_retained_summary": len(summary.records),
    }
    # Enforced here (not only in the pytest wrapper) so every
    # scripts/perf_gate.py attempt gates it too — the one
    # machine-independent record-throughput check.
    assert record_throughput["summary_rps"] >= (
        RECORD_RPS_FLOOR * record_throughput["full_rps"]
    ), (
        f"summary recording lagged full recording: "
        f"{record_throughput['summary_rps']:.1f} < {RECORD_RPS_FLOOR} * "
        f"{record_throughput['full_rps']:.1f}"
    )

    # The event engines are measured desynchronised (per-wake jitter),
    # so the event queue, wake waves and per-node clocks are all on the hot
    # path — the degenerate config would just re-time the sync loop.
    # Transient: the hotspot keeps ~10 particles in flight the whole
    # budget, so every wave pays mandatory Phase-A decisions (tracked
    # rates, no floor — the regime is decision-bound by construction).
    events = _timed_event_pair(EVENT_SCENARIO, EVENT_SIZE, EVENT_ROUNDS)
    # Steady state: quiesces after a short transient; from there the
    # screen rejects whole waves, which is where the batching pays.
    events_steady = _timed_event_pair(
        EVENT_STEADY_SCENARIO, {}, EVENT_STEADY_ROUNDS, criteria=_NO_EXIT
    )
    # Enforced here (not only in the pytest wrapper) so every
    # scripts/perf_gate.py attempt gates it too.
    assert events_steady["speedup"] >= ASYNC_SPEEDUP_FLOOR, (
        f"events-fast only {events_steady['speedup']:.1f}x scalar events "
        f"on the steady-state pair (need >= {ASYNC_SPEEDUP_FLOOR}x)"
    )

    return {
        "algorithm": ALGORITHM,
        "seed": SEED,
        # Machine-class fingerprint: absolute rates only compare across
        # the same class (scripts/perf_gate.py), since a dev-box
        # baseline says nothing about a CI runner's throughput.
        "environment": {"ci": bool(os.environ.get("CI"))},
        "curve": {
            "scenario": CURVE_SCENARIO,
            "rounds_budget": CURVE_ROUNDS,
            "points": points,
        },
        "record_throughput": record_throughput,
        "probe_overhead": _probe_overhead(),
        "grid_dispatch": _grid_dispatch(),
        "batch_throughput": _batch_throughput(),
        "events": events,
        "events_steady": events_steady,
    }


def test_perf_baseline(benchmark):
    payload = once(benchmark, measure)

    # Sections other benches own (e17b) survive the refresh.
    merge_json(RESULTS_DIR / "BENCH_engine.json", payload)

    rows = [
        {
            "N": pt["n_nodes"],
            "tasks": pt["n_tasks"],
            "rounds": pt["rounds"],
            "scalar r/s": round(pt["scalar_rps"], 1),
            "fast r/s": round(pt["fast_rps"], 1),
            "speedup": f"{pt['speedup']:.1f}x",
        }
        for pt in payload["curve"]["points"]
    ]
    rt = payload["record_throughput"]
    rows.append({
        "N": rt["n_nodes"],
        "tasks": "-",
        "rounds": rt["rounds"],
        "scalar r/s": f"full rec: {round(rt['full_rps'], 1)} r/s",
        "fast r/s": f"summary: {round(rt['summary_rps'], 1)} r/s",
        "speedup": f"{rt['summary_rps'] / rt['full_rps']:.2f}x",
    })
    po = payload["probe_overhead"]
    rows.append({
        "N": po["n_nodes"],
        "tasks": "probe",
        "rounds": po["rounds"],
        "scalar r/s": f"null: {round(po['null_rps'], 1)} r/s",
        "fast r/s": f"counters: {round(po['counters_rps'], 1)} r/s",
        "speedup": f"{po['overhead']:.3f}x cost",
    })
    gd = payload["grid_dispatch"]
    rows.append({
        "N": gd["n_specs"],
        "tasks": "dispatch",
        "rounds": gd["rounds"],
        "scalar r/s": f"json: {round(gd['baseline_rps'], 1)} spec/s",
        "fast r/s": f"indexed: {round(gd['fast_rps'], 1)} spec/s",
        "speedup": f"{gd['speedup']:.1f}x",
    })
    bt = payload["batch_throughput"]
    rows.append({
        "N": bt["n_specs"],
        "tasks": "batch",
        "rounds": bt["rounds"],
        "scalar r/s": f"per-seed: {round(bt['solo_sps'], 2)} spec/s",
        "fast r/s": f"batched: {round(bt['batch_sps'], 2)} spec/s",
        "speedup": f"{bt['speedup']:.1f}x",
    })
    for tag, ev in (("async transient", payload["events"]),
                    ("async steady", payload["events_steady"])):
        rows.append({
            "N": 256,
            "tasks": tag,
            "rounds": ev["rounds"],
            "scalar r/s": f"{round(ev['scalar']['events_per_sec'], 1)} ev/s",
            "fast r/s": f"{round(ev['fast']['events_per_sec'], 1)} ev/s",
            "speedup": f"{ev['speedup']:.1f}x",
        })
    emit(
        "BENCH_engine",
        format_table(rows, title="BENCH — engine perf: scalar vs rounds-fast "
                                 f"scaling curve ({CURVE_SCENARIO}, {ALGORITHM}) "
                                 "+ events vs events-fast async pairs"),
    )

    # Shape, not absolute speed — except the one machine-independent
    # ratio the acceptance criteria pin down.
    for pt in payload["curve"]["points"]:
        assert pt["rounds"] == CURVE_ROUNDS
        assert pt["scalar_rps"] > 0 and pt["fast_rps"] > 0
        if pt["n_nodes"] >= SPEEDUP_FROM_N:
            assert pt["speedup"] >= SPEEDUP_FLOOR, (
                f"vectorised path only {pt['speedup']:.1f}x at "
                f"N={pt['n_nodes']} (need >= {SPEEDUP_FLOOR}x)"
            )
    rt = payload["record_throughput"]
    assert rt["rounds"] == RECORD_ROUNDS
    assert rt["records_retained_summary"] == 0  # O(1) record memory
    assert rt["records_retained_full"] == RECORD_ROUNDS
    po = payload["probe_overhead"]
    assert po["rounds"] == PROBE_ROUNDS and po["n_nodes"] == 1024
    assert po["null_rps"] > 0 and po["counters_rps"] > 0
    # The telemetry acceptance bar (the CI gate re-checks it per
    # attempt, so a noisy runner earns a retry there).
    assert po["overhead"] <= PROBE_OVERHEAD_CEILING, (
        f"counters probe costs {po['overhead']:.3f}x the null probe "
        f"(ceiling {PROBE_OVERHEAD_CEILING}x)"
    )
    for ev in (payload["events"], payload["events_steady"]):
        assert ev["events"] > ev["rounds"]
        assert ev["scalar"]["events_per_sec"] > 0
        assert ev["fast"]["events_per_sec"] > 0
        assert ev["speedup"] > 0
    # The async acceptance bar (also enforced inside measure(), so the
    # CI gate hits it on every attempt).
    assert payload["events_steady"]["speedup"] >= ASYNC_SPEEDUP_FLOOR
    gd = payload["grid_dispatch"]
    assert gd["n_specs"] == (
        len(DISPATCH_SCENARIOS) * len(DISPATCH_ALGORITHMS) * DISPATCH_SEEDS
    )
    assert gd["baseline_rps"] > 0 and gd["fast_rps"] > 0
    # The dispatch acceptance bar (also enforced inside measure()).
    assert gd["speedup"] >= DISPATCH_SPEEDUP_FLOOR
    bt = payload["batch_throughput"]
    assert bt["n_specs"] == len(BATCH_SCENARIOS) * BATCH_SEEDS
    assert bt["replicates"] == BATCH_SEEDS and bt["rounds"] == BATCH_ROUNDS
    assert bt["solo_sps"] > 0 and bt["batch_sps"] > 0
    # The replicate-batching acceptance bar (also enforced inside
    # measure(), so the CI gate hits it on every attempt).
    assert bt["speedup"] >= BATCH_SPEEDUP_FLOOR
    reread = json.loads((RESULTS_DIR / "BENCH_engine.json").read_text())
    assert {key: reread[key] for key in payload} == payload
