"""Self-tests of the benchmark: names, tiny smokes, and that checks bite.

Run with ``PYTHONPATH=src python -m pytest perfbench/selftests -q``. The
smokes shrink every workload to a few nodes but keep its shape, so each
correctness check runs at least once.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from pbench import BENCH_DIR, ROOT, ProgramMissing, ensure_program

try:
    ensure_program()
except ProgramMissing as exc:
    pytest.skip(f"program under test not loadable: {exc}",
                allow_module_level=True)

from pbench import checks, cli, grid, solo  # noqa: E402
from pbench.catalogue import END_TO_END, PER_LAYER, SPAN_METRICS  # noqa: E402
from pbench.tracing import NullTracer, Tracer, analyse  # noqa: E402

from repro.runner import RunSpec, execute_spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}

TINY = {
    "hotspot": solo.SoloWorkload("tiny-hotspot", "mesh:6x6+hotspot",
                                 rounds=25),
    "converge": solo.SoloWorkload("tiny-converge", "mesh:8x8+uniform",
                                  rounds=200, trace_specs=3),
    "steady": solo.SoloWorkload("tiny-steady", "mesh:8x8+uniform", rounds=20,
                                warmup=5, windows=2, trace_specs=1),
}

TINY_GRID = grid.GridWorkload(
    batch_scenarios=("mesh:4x4+uniform",), batch_seeds=3, batch_rounds=30,
    events_scenario="mesh:4x4+uniform", events_specs=2, events_rounds=10,
    diffusion_scenario="mesh:4x4+hotspot", diffusion_specs=2,
    diffusion_rounds=20, replay_s=0.0,
)


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_catalogue_matches_benchmark_json():
    spec = _benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(cli.WORKLOADS)
    e2e = [(m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == e2e
    layers = [(m.name, m.unit, m.better) for m in PER_LAYER]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == layers
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_names_are_well_formed_and_unique():
    names = [w for w in cli.WORKLOADS] + [m.name for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert set(SPAN_METRICS.values()) <= set(UNITS)


def _emitted(outcome, trace: bool) -> dict:
    args = cli.parse_args(["--workload", "grid-sweep", "--seed", "0",
                           "--seconds", "0", "--trace", str(int(trace))])
    result = cli.report(args, outcome)
    expected = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == [m.name for m in expected]
    for name, m in result["metrics"].items():
        assert NAME.match(name) and m["unit"] == UNITS[name]
        assert isinstance(m["value"], (int, float))
    json.dumps(result)
    return result


@pytest.mark.parametrize("kind", sorted(TINY))
def test_solo_smoke(kind, tmp_path, capsys):
    w = TINY[kind]
    untraced = solo.run_untraced(w, seed=3, seconds=0.0, scratch=str(tmp_path))
    result = _emitted(untraced, trace=False)
    assert result["correct"] and result["failed"] == 0
    # three cold specs (the third repeats the first seed), each followed
    # by one checked replay burst
    assert result["attempted"] == 6
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = solo.run_traced(w, seed=3, scratch=str(tmp_path))
    result = _emitted(traced, trace=True)
    assert result["correct"], traced.tally.reasons
    values = traced.values
    assert values["unattributed_share"] <= 0.05
    assert values["trace_overhead"] > 0
    assert values["core.balancer.step_s"] > 0
    assert values["tasks.mutate_s"] > 0 and values["tasks.candidates_s"] > 0
    assert values["sim.kernel.round_samples"] > 0
    assert values["core.balancer.phase_b_nodes"] > 0
    if w.warmup:
        assert (values["sim.kernel.round_samples"]
                == w.rounds * w.windows * w.trace_specs)


def test_grid_smoke(tmp_path, capsys):
    untraced = grid.run_untraced(TINY_GRID, seed=5, seconds=0.0,
                                 scratch=str(tmp_path))
    result = _emitted(untraced, trace=False)
    assert result["correct"], untraced.tally.reasons
    assert all(m["value"] > 0 for m in result["metrics"].values())
    shares = untraced.details["family_task_share"]
    assert set(shares) == {"rounds-batch", "events-fast", "diffusion"}
    for per_pass in untraced.details["family_task_share_per_pass"]:
        assert sum(per_pass.values()) == pytest.approx(1.0)
    assert len(untraced.samples["setup_s"]) == (
        grid.POOL_STARTS * len(untraced.samples["grid_cold_specs_per_s"]))

    traced = grid.run_traced(TINY_GRID, seed=5, scratch=str(tmp_path))
    result = _emitted(traced, trace=True)
    assert result["correct"], traced.tally.reasons
    values = traced.values
    assert values["runner.cache_misses"] == len(grid.grid_specs(TINY_GRID, 5))
    assert values["sim.events.events_per_s"] > 0
    assert values["sim.batch.specs_per_s"] > 0


def test_corrupted_digest_fails_checks(tmp_path, monkeypatch):
    real = checks.result_digest
    calls = iter(range(10**9))

    def corrupted(result, final_loads=None):
        return f"{real(result, final_loads)}-{next(calls)}"

    monkeypatch.setattr(checks, "result_digest", corrupted)
    outcome = solo.run_untraced(TINY["hotspot"], seed=3, seconds=0.0,
                                scratch=str(tmp_path))
    assert outcome.tally.failed_ratio > 0
    outcome = grid.run_untraced(TINY_GRID, seed=5, seconds=0.0,
                                scratch=str(tmp_path))
    assert outcome.tally.failed_ratio > 0


@pytest.mark.parametrize("spec", [
    RunSpec("mesh:6x6+hotspot", "pplb", seed=7, max_rounds=30,
            engine="rounds-fast"),
    RunSpec("mesh-hotspot", "pplb", seed=7, max_rounds=30, engine="rounds-fast",
            scenario_kwargs={"side": 5}),
    RunSpec("mesh:4x4+uniform", "pplb", seed=7, max_rounds=10,
            engine="events-fast", sim_kwargs={"wake_jitter": 0.25}),
], ids=["composed", "alias", "events"])
def test_staged_build_matches_execute_spec(spec):
    scenario, sim = solo.stage_engine(spec, NullTracer())
    staged = sim.run(max_rounds=spec.max_rounds)
    assert checks.result_digest(staged) == checks.result_digest(execute_spec(spec))


def test_self_time_and_attribution():
    tracer = Tracer()
    tracer.begin_run()
    tracer.record("bench.spec", 0.0, 10.0)
    tracer.record("sim.kernel.run", 1.0, 9.0)
    tracer.record("core.balancer.step", 2.0, 5.0)
    tracer.record("sim.kernel.observe", 5.0, 6.0)
    tracer.begin_run()
    tracer.record("bench.spec", 10.0, 12.0)
    self_s, root_s, unattributed = analyse(tracer.spans)
    assert self_s == {"sim.kernel.run": 4.0, "core.balancer.step": 3.0,
                      "sim.kernel.observe": 1.0}
    assert root_s == 12.0 and unattributed == 4.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hotspot-4096",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
