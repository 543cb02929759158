"""Every metric the benchmark emits: name, unit and direction.

``END_TO_END`` is what a user of the program sees, measured with
tracing off; ``PER_LAYER`` comes from the traced run only. Both lists
are mirrored in ``BENCHMARK.json`` at the repository root (the
self-tests hold the two in step). Layer names follow the package
modules: ``runner``, ``workloads``, ``network``, ``tasks``, ``core``,
``sim``.

Per-layer times (``*_s``) are *self* seconds — a span minus the part of
it its child spans cover — summed over the traced pass and divided by
the number of traced specs, so they read "seconds per spec".
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("spec_to_result_s", "s", "lower", 0.24),
    Metric("rounds_per_s", "1/s", "higher", 0.24),
    Metric("grid_cold_specs_per_s", "1/s", "higher", 0.24),
    Metric("grid_warm_specs_per_s", "1/s", "higher", 0.24),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

PER_LAYER = (
    Metric("runner.spec.parse_s", "s", "lower"),
    Metric("runner.spec.key_s", "s", "lower"),
    Metric("runner.registry.make_balancer_s", "s", "lower"),
    Metric("network.topology_build_s", "s", "lower"),
    Metric("workloads.scenario_build_s", "s", "lower"),
    Metric("network.hop_matrix_mb", "MB", "lower"),
    Metric("sim.engine.init_s", "s", "lower"),
    Metric("sim.kernel.run_s", "s", "lower"),
    Metric("sim.kernel.play_round_s", "s", "lower"),
    Metric("sim.engine.round_begin_s", "s", "lower"),
    Metric("core.balancer.step_s", "s", "lower"),
    Metric("sim.engine.round_apply_s", "s", "lower"),
    Metric("tasks.mutate_s", "s", "lower"),
    Metric("tasks.candidates_s", "s", "lower"),
    Metric("sim.kernel.observe_s", "s", "lower"),
    Metric("sim.kernel.record_s", "s", "lower"),
    Metric("sim.kernel.converge_s", "s", "lower"),
    Metric("sim.kernel.round_ms_p50", "ms", "lower"),
    Metric("sim.kernel.round_ms_p99", "ms", "lower"),
    Metric("sim.kernel.round_samples", "count", "higher"),
    Metric("core.balancer.phase_a_decisions", "count", "lower"),
    Metric("core.balancer.phase_b_nodes", "count", "lower"),
    Metric("core.balancer.screen_admitted", "count", "lower"),
    Metric("core.balancer.screen_rejected", "count", "higher"),
    Metric("core.balancer.rng_draws", "count", "lower"),
    Metric("core.balancer.hops", "count", "lower"),
    Metric("core.balancer.phase_b_yield", "ratio", "higher"),
    Metric("sim.engine.transfers_applied", "count", "lower"),
    Metric("sim.engine.transfers_blocked", "count", "lower"),
    Metric("sim.results.serialise_s", "s", "lower"),
    Metric("runner.sink.metrics_s", "s", "lower"),
    Metric("sim.events.events_per_s", "1/s", "higher"),
    Metric("sim.batch.specs_per_s", "1/s", "higher"),
    Metric("runner.backends.pool_start_s", "s", "lower"),
    Metric("runner.run_grid_s", "s", "lower"),
    Metric("runner.task_s", "s", "lower"),
    Metric("runner.queue_wait_s", "s", "lower"),
    Metric("runner.utilization", "ratio", "higher"),
    Metric("runner.workers_spawned", "count", "lower"),
    Metric("runner.cache_hits", "count", "higher"),
    Metric("runner.cache_misses", "count", "lower"),
    Metric("runner.cache.get_s", "s", "lower"),
    Metric("runner.cache.put_s", "s", "lower"),
    Metric("bench.traced_specs", "count", "higher"),
    Metric("unattributed_share", "ratio", "lower"),
    Metric("trace_overhead", "ratio", "lower"),
    Metric("failed_ratio", "ratio", "lower"),
)

#: traced span names whose self seconds per spec are reported as
#: ``<span>_s``; every other span still counts as attributed time.
SPAN_METRICS = {
    span: span + "_s"
    for span in (
        "runner.spec.parse", "runner.spec.key",
        "runner.registry.make_balancer", "network.topology_build",
        "workloads.scenario_build", "sim.engine.init", "sim.kernel.run",
        "sim.kernel.play_round", "sim.engine.round_begin",
        "core.balancer.step", "sim.engine.round_apply",
        "tasks.mutate", "tasks.candidates",
        "sim.kernel.observe", "sim.kernel.record", "sim.kernel.converge",
        "sim.results.serialise", "runner.sink.metrics",
        "runner.backends.pool_start", "runner.run_grid",
        "runner.cache.get", "runner.cache.put",
    )
}

#: probe counter -> per-layer metric (exact counts over the traced pass).
COUNTERS = {
    "balancer.phase_a_decisions": "core.balancer.phase_a_decisions",
    "balancer.phase_b_nodes": "core.balancer.phase_b_nodes",
    "screen.nodes_admitted": "core.balancer.screen_admitted",
    "screen.nodes_screened_out": "core.balancer.screen_rejected",
    "balancer.rng_draws": "core.balancer.rng_draws",
    "balancer.hops": "core.balancer.hops",
    "engine.transfers_applied": "sim.engine.transfers_applied",
    "engine.transfers_blocked": "sim.engine.transfers_blocked",
}


def metric_block(values: dict[str, float], names) -> dict[str, dict]:
    """``{name: {"value", "unit"}}`` for *names*, in catalogue order."""
    return {
        m.name: {"value": values[m.name], "unit": m.unit} for m in names
    }
