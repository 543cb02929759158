"""Single-process workloads: one cold spec after another (closed loop).

Each spec goes the whole path a user pays for — spec string → parse →
topology → scenario (links, tasks, placement) → balancer → engine →
rounds → result → serialise → cache put — built stage by stage through
the program's public API so the set-up can be timed on its own (the
same stages :func:`repro.runner.worker.execute_spec` runs; the
self-tests hold the two to the same digest). Each cold spec is followed
by a short burst of warm replays of it from the cache it was written
to, through ``run_grid``: materialised and metric-level in turn.

``--trace 0`` runs the loop for ``--seconds``. ``--trace 1`` runs a
fixed list of specs untraced, then the same list traced, and compares
the two.
"""

from __future__ import annotations

import resource
import statistics
import tempfile
from dataclasses import dataclass, field

import numpy as np

from repro.runner import RunSpec, make_balancer, run_grid
from repro.runner.backends import SerialBackend
from repro.runner.cache import ResultCache
from repro.runner.runner import RunnerMetrics
from repro.runner.sink import default_metrics
from repro.sim import EventFastSimulator, FastSimulator
from repro.sim.engine import ConvergenceCriteria
from repro.workloads.composition import resolve_scenario

from pbench import checks, tracing
from pbench.catalogue import COUNTERS, END_TO_END, PER_LAYER, SPAN_METRICS
from pbench.tracing import NullTracer, Tracer, perf

ALGORITHM = "pplb"

#: engines the benchmark builds itself (the grid's other specs run in
#: pool workers through ``execute_spec``).
ENGINES = {"rounds-fast": FastSimulator, "events-fast": EventFastSimulator}

#: ``TaskSystem`` methods the engines and balancers call during rounds,
#: by traced span: mutations (moves, the wire, churn) and the balancer's
#: candidate queries.
TASK_METHODS = {
    "tasks.mutate": ("move", "send_to_transit", "deliver", "add_task",
                     "remove_task"),
    "tasks.candidates": ("largest_tasks_at", "candidate_floor"),
}

#: steady-state serving: the convergence exit never fires.
NO_EXIT = ConvergenceCriteria(quiet_rounds=10**9, min_rounds=0)

#: safety cap on specs in one time-boxed loop.
MAX_SPECS = 400

#: least specs in a time-boxed loop (the third repeats the first seed).
MIN_SPECS = 3

#: least warm-replay pairs in a time-boxed replay.
MIN_REPLAY_PAIRS = 3

#: warm-replay pairs after each spec (or grid pass) of a traced run.
TRACE_REPLAYS = 2

#: share of a cold spec's time spent on the warm-replay burst after it.
REPLAY_SHARE = 0.1


@dataclass(frozen=True)
class SoloWorkload:
    """One closed-loop workload.

    ``rounds`` is the round budget of each spec. With ``warmup > 0`` the
    convergence exit is disabled, ``warmup`` untimed rounds run the
    transient out, and ``windows`` timed windows of ``rounds`` steady
    rounds each follow as continuations of the same run; the spec's
    result is the last window's.
    """

    name: str
    scenario: str
    rounds: int
    warmup: int = 0
    windows: int = 1
    trace_specs: int = 2


WORKLOADS = {
    w.name: w
    for w in (
        SoloWorkload("hotspot-4096", "mesh:64x64+hotspot", rounds=150),
        SoloWorkload("converge-4096", "mesh-4096", rounds=500, trace_specs=8),
        SoloWorkload("steady-16384", "mesh:128x128+uniform", rounds=300,
                     warmup=30, windows=5, trace_specs=1),
    )
}


def spec_seeds(seed: int, n: int = MAX_SPECS) -> list[int]:
    """The workload's spec seeds; the third repeats the first, so every
    run checks that one seed gives one trajectory."""
    seeds = [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, n)]
    if n > 2:
        seeds[2] = seeds[0]
    return seeds


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def stage_engine(spec: RunSpec, tracer, criteria=None):
    """Parse, build and wire *spec* stage by stage; return (scenario, sim).

    Mirrors :func:`repro.runner.worker.execute_spec` up to the engine
    being ready to play round 0.
    """
    with tracer.span("runner.spec.parse"):
        sspec = resolve_scenario(spec.scenario, spec.scenario_kwargs)
    with tracer.span("network.topology_build"):
        comp = sspec.topology.component
        topo = comp.build(**comp.resolved(sspec.topology.kwargs_dict()))
    with tracer.span("workloads.scenario_build"):
        scenario = sspec.build(spec.seed, topology=topo)
    with tracer.span("runner.registry.make_balancer"):
        balancer = make_balancer(spec.algorithm, **spec.algorithm_kwargs)
    kwargs: dict = {
        "links": scenario.links,
        "dynamic": scenario.dynamic,
        "node_speeds": scenario.node_speeds,
        "seed": spec.seed,
        "recorder": spec.recorder,
        "probe": tracer.probe(),
        **spec.sim_kwargs,
    }
    if criteria is not None:
        kwargs["criteria"] = criteria
    with tracer.span("sim.engine.init"):
        sim = ENGINES[spec.engine](scenario.topology, scenario.system, balancer,
                                   **kwargs)
    if tracer.enabled:
        for attr in ("round_begin", "round_apply"):
            if hasattr(sim, attr):
                tracer.wrap(sim, attr, "sim.engine." + attr)
        tracer.wrap(balancer, "step", "core.balancer.step")
        for span, methods in TASK_METHODS.items():
            for attr in methods:
                tracer.wrap(scenario.system, attr, span)
    return scenario, sim


def hop_matrix_mb(topology) -> float:
    """Size of the all-pairs hop matrix if set-up materialised it."""
    hops = topology.__dict__.get("hop_distances")
    return 0.0 if hops is None else hops.nbytes / 1e6


@dataclass
class SpecRun:
    """One cold spec: its timings, result identity and checks."""

    spec: RunSpec
    setup_s: float
    result_s: float
    total_s: float
    window_rates: list[float]
    digest: str
    replay_digest: str
    metrics: dict
    conserved: bool
    hop_mb: float
    replay_rates: list[float] = field(default_factory=list)
    replay_s: float = 0.0
    runner_metrics: RunnerMetrics | None = None


def run_spec(w: SoloWorkload, seed: int, cache: ResultCache, tracer) -> SpecRun:
    """Cold spec string → result → cache put, timed."""
    tracer.begin_run()
    with tracer.span("bench.spec"):
        t0 = perf()
        with tracer.span("runner.spec.parse"):
            spec = RunSpec(scenario=w.scenario, algorithm=ALGORITHM, seed=seed,
                           max_rounds=w.warmup + w.windows * w.rounds,
                           engine="rounds-fast")
        scenario, sim = stage_engine(spec, tracer,
                                     NO_EXIT if w.warmup else None)
        system = scenario.system
        n_tasks0, loads0 = system.n_tasks, system.loads_array()
        t_ready = perf()
        if w.warmup:
            tracer.keep_rounds = False
            with tracer.span("sim.kernel.run"):
                sim.run(max_rounds=w.warmup)
            tracer.keep_rounds = True
        rates = []
        for k in range(w.windows):
            t_window = perf()
            with tracer.span("sim.kernel.run"):
                result = sim.run(max_rounds=w.rounds,
                                 reset=k == 0 and not w.warmup)
            t_result = perf()
            rates.append(result.n_rounds / (t_result - t_window))
        with tracer.span("runner.spec.key"):
            key = spec.key()
        with tracer.span("sim.results.serialise"):
            payload = result.to_dict()
        with tracer.span("runner.sink.metrics"):
            metrics = default_metrics(result)
        cache.put(key, spec.to_dict(), payload, metrics=metrics)
        t_end = perf()
    return SpecRun(
        spec=spec,
        setup_s=t_ready - t0,
        result_s=t_result - t0,
        total_s=t_end - t0,
        window_rates=rates,
        digest=checks.result_digest(result, system.node_loads),
        replay_digest=checks.result_digest(result),
        metrics=metrics,
        conserved=checks.system_conserved(system, n_tasks0, loads0),
        hop_mb=hop_matrix_mb(scenario.topology),
    )


def slow_decile(samples, better: str) -> float:
    """The slow-side decile of *samples*: the 90th percentile of times
    (``better="lower"``), the 10th percentile of rates.

    On a shared host the CPU flips between a fast state and one up to
    ~1.7x slower every second or so, and the share of time in each
    drifts over minutes. The median of a run follows whichever state
    held for most of it, so it jumps the whole gap between runs; the
    slow-side decile stays in the slow state unless nearly all of the
    run was fast (spreads measured in the README).
    """
    samples = list(samples)
    if len(samples) == 1:
        return samples[0]
    cuts = statistics.quantiles(samples, n=10, method="inclusive")
    return cuts[-1] if better == "lower" else cuts[0]


def closed_loop(w, seeds, cache, tracer, tally, seconds=None, count=None):
    """Run specs back to back, each followed by a burst of warm replays
    of it: *count* specs, or for about *seconds* (at least
    ``MIN_SPECS``). Bursts take ``REPLAY_SHARE`` of the spec's time
    (``TRACE_REPLAYS`` pairs when *count* is given), so replay samples
    are spread over the whole run like the cold ones."""
    runs: list[SpecRun] = []
    first: dict[int, str] = {}
    start = perf()
    while True:
        i = len(runs)
        if count is not None:
            if i >= count:
                break
        elif i >= MIN_SPECS:
            # Stop at the spec boundary nearest to *seconds*.
            typical = statistics.median(r.total_s + r.replay_s for r in runs)
            if i >= len(seeds) or perf() - start + typical / 2 > seconds:
                break
        run = run_spec(w, seeds[i], cache, tracer)
        same = first.setdefault(run.spec.seed, run.digest) == run.digest
        tally.unit(run.conserved and same,
                   f"{w.name} spec {i} seed {run.spec.seed}: "
                   f"conserved={run.conserved} repeat_digest_equal={same}")
        run.replay_rates, run.runner_metrics, run.replay_s = replay(
            [run.spec], [(run.metrics, run.replay_digest)], cache, tracer,
            tally, f"{w.name} spec {i}",
            seconds=None if count is not None else REPLAY_SHARE * run.total_s,
            pairs=TRACE_REPLAYS if count is not None else None)
        runs.append(run)
    return runs


def replay(specs, expected, cache, tracer, tally, label,
           seconds=None, pairs=None):
    """Warm replays of *specs* from *cache*, materialised then
    metric-level, as pairs: *pairs* of them, or for *seconds* (at least
    ``MIN_REPLAY_PAIRS``). Returns (pair rates in specs/s, the last
    materialised pass's RunnerMetrics, timed seconds).

    *expected* holds each spec's (cold metrics, records digest). Each
    spec is one checked unit: it fails if any of its replays differs.
    """
    good = [True] * len(specs)
    rates: list[float] = []
    last = RunnerMetrics()
    backend = SerialBackend()
    timed = 0.0
    start = perf()
    while True:
        k = len(rates)
        if pairs is not None:
            if k >= pairs:
                break
        elif k >= MIN_REPLAY_PAIRS and perf() - start >= seconds:
            break
        pair_s = 0.0
        for keep in (True, False):
            rm = RunnerMetrics()
            tracer.begin_run()
            t0 = perf()
            with tracer.span("bench.replay"):
                with tracer.span("runner.run_grid"):
                    outs = run_grid(specs, cache=cache, backend=backend,
                                    metrics=rm, keep_results=keep)
            pair_s += perf() - t0
            for i, (o, (metrics, digest)) in enumerate(zip(outs, expected)):
                if keep:
                    ok = (default_metrics(o.result) == metrics
                          and checks.result_digest(o.result) == digest)
                else:
                    ok = o.metrics == metrics
                good[i] = good[i] and o.cached and ok
            if keep:
                last = rm
        rates.append(2 * len(specs) / pair_s)
        timed += pair_s
    for i, ok in enumerate(good):
        tally.unit(ok, f"{label} warm replay of spec {i} differs from cold")
    return rates, last, timed


def fresh_cache(tracer, scratch: str) -> ResultCache:
    """An empty result cache in *scratch*, its ``get``/``put`` traced
    when *tracer* is on."""
    cache = ResultCache(tempfile.mkdtemp(prefix="cache-", dir=scratch))
    tracer.wrap(cache, "get", "runner.cache.get")
    tracer.wrap(cache, "put", "runner.cache.put")
    return cache


@dataclass
class Outcome:
    """What a workload run hands back to the CLI: metric values, the
    per-sample values behind them, the check tally, the tracer of a
    traced run, and workload details saved beside the result."""

    values: dict[str, float]
    tally: checks.Tally
    samples: dict[str, list[float]] = field(default_factory=dict)
    tracer: Tracer | None = None
    details: dict = field(default_factory=dict)


def run_untraced(w: SoloWorkload, seed: int, seconds: float,
                 scratch: str) -> Outcome:
    tally = checks.Tally()
    tracer = NullTracer()
    cache = fresh_cache(tracer, scratch)
    runs = closed_loop(w, spec_seeds(seed), cache, tracer, tally,
                       seconds=seconds)
    samples = {
        "setup_s": [r.setup_s for r in runs],
        "spec_to_result_s": [r.result_s for r in runs],
        "rounds_per_s": [x for r in runs for x in r.window_rates],
        "grid_cold_specs_per_s": [1.0 / r.total_s for r in runs],
        "grid_warm_specs_per_s": [x for r in runs for x in r.replay_rates],
    }
    return Outcome(summarise(samples), tally, samples)


def summarise(samples: dict[str, list[float]]) -> dict[str, float]:
    """End-to-end values from per-sample lists: the slow-side decile of
    every timing, and the peak RSS."""
    better = {m.name: m.better for m in END_TO_END}
    values = {name: slow_decile(xs, better[name])
              for name, xs in samples.items()}
    values["peak_rss_mb"] = peak_rss_mb()
    return values


def run_traced(w: SoloWorkload, seed: int, scratch: str) -> Outcome:
    tally = checks.Tally()
    seeds = spec_seeds(seed)
    n = w.trace_specs

    plain = NullTracer()
    base = closed_loop(w, seeds, fresh_cache(plain, scratch), plain, tally,
                       count=n)
    untraced_s = sum(r.total_s + r.replay_s for r in base)

    tracer = Tracer()
    runs = closed_loop(w, seeds, fresh_cache(tracer, scratch), tracer, tally,
                       count=n)
    for i, (a, b) in enumerate(zip(base, runs)):
        tally.unit(a.digest == b.digest,
                   f"{w.name} traced spec {i}: digest differs from untraced")

    traced_s = sum(r.total_s + r.replay_s for r in runs)
    values = layer_values(tracer, n, traced_s / untraced_s,
                          runs[-1].runner_metrics)
    values["network.hop_matrix_mb"] = max(r.hop_mb for r in runs)
    return Outcome(values, tally, tracer=tracer)


def layer_values(tracer: Tracer, n_specs: int, trace_overhead: float,
                 runner_metrics: RunnerMetrics) -> dict[str, float]:
    """Per-layer metrics from one traced pass (see :mod:`pbench.catalogue`)."""
    values = {m.name: 0.0 for m in PER_LAYER}
    self_s, root_s, unattributed = tracing.analyse(tracer.spans)
    for span, metric in SPAN_METRICS.items():
        values[metric] = self_s.get(span, 0.0) / n_specs
    for counter, metric in COUNTERS.items():
        values[metric] = tracer.counters.get(counter, 0)
    admitted = values["core.balancer.screen_admitted"]
    bodies = values["core.balancer.phase_b_nodes"]
    values["core.balancer.phase_b_yield"] = admitted / bodies if bodies else 0.0
    if tracer.round_ms:
        p = np.percentile(np.asarray(tracer.round_ms), [50, 99])
        values["sim.kernel.round_ms_p50"] = float(p[0])
        values["sim.kernel.round_ms_p99"] = float(p[1])
    values["sim.kernel.round_samples"] = len(tracer.round_ms)
    rm = runner_metrics
    values["runner.task_s"] = rm.task_s
    values["runner.queue_wait_s"] = rm.queue_wait_s
    values["runner.utilization"] = rm.utilization()
    values["runner.workers_spawned"] = rm.workers_spawned
    values["runner.cache_hits"] = rm.cache_hits
    values["runner.cache_misses"] = rm.cache_misses
    values["bench.traced_specs"] = n_specs
    values["unattributed_share"] = unattributed / root_s if root_s else 0.0
    values["trace_overhead"] = trace_overhead
    return values
