"""Execution backends: serial/pool/cached differential equivalence,
persistent-pool reuse, chunking, the env override, and fail-fast."""

import json
import os

import pytest

from repro.exceptions import ConfigurationError
from repro.runner import (
    BACKENDS,
    PoolBackend,
    ResultCache,
    RunnerMetrics,
    SerialBackend,
    expand_grid,
    make_backend,
    resolve_backend,
    resolve_workers,
    run_grid,
)
from repro.runner.backends import _shared


def composed_grid():
    """8 fast specs on a *composed* scenario (dynamics + stragglers),
    so the differential covers the component pipeline, not just the
    registered aliases."""
    return expand_grid(
        ["mesh:4x4+hotspot+stragglers:frac=0.2", "mesh:4x4+uniform+churn"],
        ["pplb", "diffusion"],
        [11, 22],
        max_rounds=60,
        scenario_kwargs={"n_tasks": 64},
    )


def deterministic_payloads(outcomes):
    out = []
    for o in outcomes:
        payload = o.result.to_dict()
        payload.pop("wall_time_s")
        out.append(payload)
    return out


def _square(x):
    return x * x


def _boom(x):
    if x == 5:
        raise ValueError("task 5 exploded")
    return x


def _touch_or_fail(job):
    """Pool task: records its execution on disk; the poison item raises."""
    out_dir, index = job
    import pathlib
    import time

    if index == 0:
        raise RuntimeError("poison task")
    time.sleep(0.02)
    pathlib.Path(out_dir, f"{index}.done").touch()
    return index


class TestBackendEquivalence:
    def test_serial_pool_cached_identical(self, tmp_path):
        """The tentpole differential: serial ≡ pool ≡ cached replay,
        bit-identical SweepResult-grade payloads on a composed grid."""
        specs = composed_grid()
        cache = ResultCache(tmp_path)
        serial = run_grid(specs, backend=SerialBackend())
        pool_backend = PoolBackend(workers=2)
        try:
            pooled = run_grid(specs, backend=pool_backend, cache=cache)
        finally:
            pool_backend.close()
        cached = run_grid(specs, cache=cache)
        assert all(not o.cached for o in serial)
        assert all(not o.cached for o in pooled)
        assert all(o.cached for o in cached)
        reference = json.dumps(deterministic_payloads(serial))
        assert reference == json.dumps(deterministic_payloads(pooled))
        assert reference == json.dumps(deterministic_payloads(cached))

    def test_explicit_names_match_default_path(self):
        specs = composed_grid()[:2]
        by_name = run_grid(specs, backend="serial")
        by_default = run_grid(specs)
        assert json.dumps(deterministic_payloads(by_name)) == json.dumps(
            deterministic_payloads(by_default)
        )


class TestPoolPersistence:
    def test_pool_reused_across_run_grid_calls(self):
        specs = composed_grid()
        backend = PoolBackend(workers=2)
        try:
            first = RunnerMetrics()
            run_grid(specs[:4], backend=backend, metrics=first)
            assert 1 <= first.workers_spawned <= 2
            second = RunnerMetrics()
            run_grid(specs[4:], backend=backend, metrics=second)
            # The second grid reuses the warm workers: zero new spawns.
            assert second.workers_spawned == 0
            assert second.backend == "pool"
            assert backend.stats()["map_calls"] == 2
        finally:
            backend.close()

    def test_shared_instance_per_name_and_width(self):
        a = resolve_backend("serial")
        b = resolve_backend("serial")
        assert a is b
        specs_backend = resolve_backend(None, workers=1)
        assert specs_backend.name == "serial"

    def test_default_upgrades_to_pool_for_parallel_widths(self):
        backend = resolve_backend(None, workers=2)
        assert backend.name == "pool"
        assert backend.workers() == 2
        assert resolve_backend(None, workers=2) is backend
        assert ("pool", 2) in _shared

    def test_close_is_idempotent(self):
        backend = PoolBackend(workers=2)
        backend.map_timed(_square, [1, 2, 3])
        backend.close()
        backend.close()
        # A closed pool respawns lazily on the next call.
        results, _ = backend.map_timed(_square, [4])
        assert results == [16]
        backend.close()


class TestChunking:
    def test_explicit_chunk_size_preserves_order(self):
        backend = PoolBackend(workers=2, chunk_size=3)
        try:
            results, seconds = backend.map_timed(_square, list(range(10)))
        finally:
            backend.close()
        assert results == [x * x for x in range(10)]
        assert len(seconds) == 10
        assert all(s >= 0.0 for s in seconds)
        # 10 items in chunks of 3 -> ceil(10/3) = 4 submissions.
        assert backend.stats()["chunks"] == 4

    def test_default_chunking_covers_all_items(self):
        backend = PoolBackend(workers=2)
        try:
            results, _ = backend.map_timed(_square, list(range(23)))
        finally:
            backend.close()
        assert results == [x * x for x in range(23)]

    def test_on_result_fires_once_per_item(self):
        landed = {}
        backend = PoolBackend(workers=2, chunk_size=4)
        try:
            backend.map_timed(
                _square, list(range(9)),
                on_result=lambda i, r, s: landed.__setitem__(i, r),
            )
        finally:
            backend.close()
        assert landed == {i: i * i for i in range(9)}

    def test_chunk_size_validated(self):
        with pytest.raises(ConfigurationError, match="chunk_size"):
            PoolBackend(workers=2, chunk_size=0)


class TestRoster:
    def test_registry_contents(self):
        assert BACKENDS == {"serial", "pool"}

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            make_backend("ssh")
        with pytest.raises(ConfigurationError, match="unknown backend"):
            run_grid(composed_grid()[:1], backend="ssh")

    def test_instance_passthrough(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend


class TestEnvOverride:
    def test_pplb_workers_pins_width(self, monkeypatch):
        monkeypatch.setenv("PPLB_WORKERS", "3")
        assert resolve_workers(1) == 3
        assert resolve_workers(None) == 3
        backend = resolve_backend(None, workers=1)
        assert backend.name == "pool"
        assert backend.workers() == 3

    def test_pplb_workers_zero_means_per_core(self, monkeypatch):
        monkeypatch.setenv("PPLB_WORKERS", "0")
        assert resolve_workers(1) == max(os.cpu_count() or 1, 1)

    def test_pplb_workers_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("PPLB_WORKERS", "many")
        with pytest.raises(ConfigurationError, match="PPLB_WORKERS"):
            resolve_workers(1)

    def test_empty_env_ignored(self, monkeypatch):
        monkeypatch.setenv("PPLB_WORKERS", "")
        assert resolve_workers(1) == 1


class TestFailFast:
    def test_worker_exception_propagates_and_pool_survives(self):
        backend = PoolBackend(workers=2, chunk_size=1)
        try:
            with pytest.raises(ValueError, match="task 5 exploded"):
                backend.map_timed(_boom, list(range(40)))
            # The pool is still healthy after the failure: the same
            # instance serves the next call, and every observed PID
            # belongs to the original spawn (≤ pool width — a worker
            # whose chunks were all cancelled is first *observed* here,
            # but no new process is created).
            results, _ = backend.map_timed(_square, [1, 2, 3])
            assert results == [1, 4, 9]
            assert backend.stats()["workers_spawned"] <= 2
        finally:
            backend.close()

    def test_worker_exception_cancels_queued_tasks(self, tmp_path):
        backend = PoolBackend(workers=2, chunk_size=1)
        try:
            jobs = [(str(tmp_path), i) for i in range(40)]
            with pytest.raises(RuntimeError, match="poison"):
                backend.map_timed(_touch_or_fail, jobs)
            # The poison task fails almost immediately; queued tasks
            # must be cancelled rather than all 39 running to
            # completion first.
            executed = len(list(tmp_path.glob("*.done")))
            assert executed < 39, f"{executed} tasks ran after the failure"
        finally:
            backend.close()

    def test_serial_stops_at_first_error(self):
        backend = SerialBackend()
        landed = []
        with pytest.raises(ValueError):
            backend.map_timed(
                _boom, [1, 2, 5, 7],
                on_result=lambda i, r, s: landed.append(i),
            )
        assert landed == [0, 1]  # nothing after the failing task ran
