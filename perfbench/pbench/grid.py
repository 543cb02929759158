"""The ``grid-sweep`` workload: ``run_grid`` through a two-worker pool.

One *pass* starts a fresh :class:`~repro.runner.backends.PoolBackend`
(its start-up until both workers have run a task is the pass's set-up;
an untimed-loop pass starts and closes a few more pools first, so each
pass gives several set-up samples), runs a mixed grid cold into a fresh
cache directory — ``rounds-batch``
seed groups, ``events-fast`` specs with jittered clocks and the
``diffusion`` baseline — shuts the pool down, then replays the grid
warm from that cache (materialised and metric-level, in pairs). Passes
repeat the same grid, so every pass after the first also checks that
the same specs give the same results.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
from dataclasses import dataclass

import numpy as np

from repro.runner import RunSpec, execute_spec, run_grid
from repro.runner.backends import PoolBackend
from repro.runner.runner import RunnerMetrics
from repro.runner.worker import execute_batch
from repro.workloads import build_scenario

from pbench import checks
from pbench.solo import (
    ALGORITHM,
    TRACE_REPLAYS,
    Outcome,
    fresh_cache,
    layer_values,
    replay,
    stage_engine,
    summarise,
)
from pbench.tracing import NullTracer, Tracer, perf


@dataclass(frozen=True)
class GridWorkload:
    """Sizes of the mixed grid, chosen so each family takes a comparable
    share of the cold pass's task time (each run measures and saves the
    shares, see :func:`family_shares`)."""

    name: str = "grid-sweep"
    batch_scenarios: tuple[str, ...] = ("mesh:32x32+uniform", "torus:32x32+uniform")
    batch_seeds: int = 6
    batch_rounds: int = 200
    events_scenario: str = "mesh:16x16+uniform"
    events_specs: int = 6
    events_rounds: int = 60
    wake_jitter: float = 0.25
    diffusion_scenario: str = "torus:16x16+hotspot"
    diffusion_specs: int = 5
    diffusion_rounds: int = 150
    replay_s: float = 1.5


GRID = GridWorkload()

#: pool width: the host has two cores.
WORKERS = 2

#: least passes in a time-boxed run (the second repeats the first).
MIN_PASSES = 2

#: pools started per time-boxed pass, each start-up one set-up sample.
POOL_STARTS = 8


def family(spec: RunSpec) -> str:
    """The grid family *spec* belongs to."""
    if spec.batch_requested:
        return "rounds-batch"
    if spec.engine == "events-fast":
        return "events-fast"
    return spec.algorithm


def family_shares(specs, task_s) -> dict[str, float]:
    """Each family's share of a cold pass's in-worker task time."""
    total = sum(task_s)
    shares: dict[str, float] = {}
    for spec, t in zip(specs, task_s):
        shares[family(spec)] = shares.get(family(spec), 0.0) + t / total
    return shares


def grid_specs(g: GridWorkload, seed: int) -> list[RunSpec]:
    """The grid, with its spec seeds drawn from the workload seed."""
    rng = np.random.default_rng(seed)

    def seeds(n: int) -> list[int]:
        return [int(s) for s in rng.integers(0, 2**31 - 1, n)]

    specs = [
        RunSpec(scenario=sc, algorithm=ALGORITHM, seed=s,
                max_rounds=g.batch_rounds, engine="rounds-batch")
        for sc in g.batch_scenarios for s in seeds(g.batch_seeds)
    ]
    specs += [
        RunSpec(scenario=g.events_scenario, algorithm=ALGORITHM, seed=s,
                max_rounds=g.events_rounds, engine="events-fast",
                sim_kwargs={"wake_jitter": g.wake_jitter})
        for s in seeds(g.events_specs)
    ]
    specs += [
        RunSpec(scenario=g.diffusion_scenario, algorithm="diffusion", seed=s,
                max_rounds=g.diffusion_rounds, engine="rounds-fast")
        for s in seeds(g.diffusion_specs)
    ]
    return specs


#: rendezvous the pool's workers inherit when they fork; set only while
#: a pool is being started (the pool forks every worker on first use).
_rendezvous = None


def _ready(_item) -> int:
    """Readiness probe: each worker waits until every worker holds one
    probe, so one map over ``workers`` probes proves all of them are up."""
    if _rendezvous is None:
        raise RuntimeError("pool workers were not forked from start_pool")
    _rendezvous.wait(timeout=60)
    return os.getpid()


def start_pool(workers: int, tracer) -> tuple[PoolBackend, float]:
    """A fresh pool and the seconds until all its workers ran a task."""
    global _rendezvous
    _rendezvous = multiprocessing.get_context("fork").Barrier(workers)
    try:
        t0 = perf()
        with tracer.span("runner.backends.pool_start"):
            backend = PoolBackend(workers=workers)
            try:
                backend.map_timed(_ready, range(workers))
            except BaseException:
                backend.close()
                raise
        return backend, perf() - t0
    finally:
        _rendezvous = None


@dataclass
class GridPass:
    setup_s: list[float]
    cold_s: float
    task_s: list[float]
    rounds: int
    digests: list[str]
    rates: list[float]
    replay_s: float
    runner_metrics: RunnerMetrics
    wall_s: float = 0.0


def run_pass(g, specs, n_tasks0, tracer, tally, index, scratch,
             reference=None, replay_s=None, pairs=None,
             pool_starts=1) -> GridPass:
    """Pool start(s), cold pass, pool shutdown, warm replays; checked.

    The first ``pool_starts - 1`` pools are closed as soon as they are
    ready; only their start-up times are kept."""
    cache = fresh_cache(tracer, scratch)
    setup_s = []
    for k in range(pool_starts):
        tracer.begin_run()
        with tracer.span("bench.pool_setup"):
            backend, t = start_pool(WORKERS, tracer)
        setup_s.append(t)
        if k < pool_starts - 1:
            backend.close()
    rm = RunnerMetrics()
    try:
        tracer.begin_run()
        t0 = perf()
        with tracer.span("bench.grid_cold"):
            with tracer.span("runner.run_grid"):
                outs = run_grid(specs, cache=cache, backend=backend, metrics=rm)
        cold_s = perf() - t0
    finally:
        backend.close()

    digests = [checks.result_digest(o.result) for o in outs]
    for i, (o, digest) in enumerate(zip(outs, digests)):
        ok = not o.cached and checks.summary_conserved(
            o.result, n_tasks0[o.spec.scenario])
        if reference is not None:
            ok = ok and reference[i] == digest
        tally.unit(ok, f"{g.name} pass {index} spec {i} ({o.spec.label()}): "
                       f"conserved/repeat check failed")
    # One batched lane per pass against a solo run of its seed.
    lanes = [i for i, s in enumerate(specs) if s.batch_requested]
    lane = lanes[index % len(lanes)]
    solo = checks.result_digest(execute_spec(specs[lane]))
    tally.unit(solo == digests[lane],
               f"{g.name} pass {index}: batch lane {lane} differs from solo")

    expected = [(o.metrics, d) for o, d in zip(outs, digests)]
    rates, _, timed = replay(specs, expected, cache, tracer, tally,
                             f"{g.name} pass {index}",
                             seconds=replay_s, pairs=pairs)
    return GridPass(
        setup_s=setup_s,
        cold_s=cold_s,
        task_s=[o.task_s for o in outs],
        rounds=sum(o.result.n_rounds for o in outs),
        digests=digests,
        rates=rates,
        replay_s=timed,
        runner_metrics=rm,
    )


def placement_counts(specs) -> dict[str, int]:
    """Task count each scenario's placement creates (seed-independent)."""
    return {
        sc: build_scenario(sc, seed=0).system.n_tasks
        for sc in {s.scenario for s in specs}
    }


def run_untraced(g: GridWorkload, seed: int, seconds: float,
                 scratch: str) -> Outcome:
    tally = checks.Tally()
    tracer = NullTracer()
    specs = grid_specs(g, seed)
    n_tasks0 = placement_counts(specs)
    passes: list[GridPass] = []
    start = perf()
    while True:
        if len(passes) >= MIN_PASSES:
            # Stop at the pass boundary nearest to *seconds*.
            typical = statistics.median(p.wall_s for p in passes)
            if perf() - start + typical / 2 > seconds:
                break
        reference = passes[0].digests if passes else None
        t0 = perf()
        p = run_pass(g, specs, n_tasks0, tracer, tally, len(passes), scratch,
                     reference, replay_s=g.replay_s, pool_starts=POOL_STARTS)
        p.wall_s = perf() - t0
        passes.append(p)
    samples = {
        "setup_s": [x for p in passes for x in p.setup_s],
        "spec_to_result_s": [sum(p.task_s) / len(specs) for p in passes],
        "rounds_per_s": [p.rounds / p.cold_s for p in passes],
        "grid_cold_specs_per_s": [len(specs) / p.cold_s for p in passes],
        "grid_warm_specs_per_s": [r for p in passes for r in p.rates],
    }
    shares = [family_shares(specs, p.task_s) for p in passes]
    details = {
        "family_task_share": {
            f: statistics.median(s[f] for s in shares) for f in shares[0]
        },
        "family_task_share_per_pass": shares,
    }
    return Outcome(summarise(samples), tally, samples, details=details)


def run_traced(g: GridWorkload, seed: int, scratch: str) -> Outcome:
    tally = checks.Tally()
    specs = grid_specs(g, seed)
    n_tasks0 = placement_counts(specs)

    base = run_pass(g, specs, n_tasks0, NullTracer(), tally, 0, scratch,
                    pairs=TRACE_REPLAYS)
    tracer = Tracer()
    traced = run_pass(g, specs, n_tasks0, tracer, tally, 1, scratch,
                      base.digests, pairs=TRACE_REPLAYS)

    # The events-fast specs again, in this process, to count events.
    events = wall = 0.0
    for i, spec in enumerate(specs):
        if spec.engine != "events-fast":
            continue
        tracer.begin_run()
        with tracer.span("bench.events"):
            _, sim = stage_engine(spec, tracer)
            t0 = perf()
            with tracer.span("sim.kernel.run"):
                result = sim.run(max_rounds=spec.max_rounds)
            wall += perf() - t0
        events += sim.events_processed
        tally.unit(checks.result_digest(result) == base.digests[i],
                   f"{g.name}: in-process events-fast spec {i} differs "
                   f"from the pool's")

    # One rounds-batch seed group, serially in this process.
    group = [i for i, s in enumerate(specs)
             if s.batch_requested and s.scenario == specs[0].scenario]
    tracer.begin_run()
    t0 = perf()
    with tracer.span("bench.batch"):
        with tracer.span("runner.worker.execute_batch"):
            lanes = execute_batch([specs[i] for i in group])
    batch_s = perf() - t0
    for i, result in zip(group, lanes):
        tally.unit(checks.result_digest(result) == base.digests[i],
                   f"{g.name}: serial batch lane {i} differs from the pool's")

    # Only the pass has an untraced twin; the serial events/batch
    # re-runs are left out of the overhead ratio.
    untraced_s = base.setup_s[0] + base.cold_s + base.replay_s
    traced_s = traced.setup_s[0] + traced.cold_s + traced.replay_s
    values = layer_values(tracer, len(specs), traced_s / untraced_s,
                          traced.runner_metrics)
    values["sim.events.events_per_s"] = events / wall if wall else 0.0
    values["sim.batch.specs_per_s"] = len(group) / batch_s
    details = {"family_task_share": family_shares(specs, traced.task_s)}
    return Outcome(values, tally, tracer=tracer, details=details)
