"""Unit tests for repro.tasks.task.TaskSystem."""

import numpy as np
import pytest

from repro.exceptions import TaskError
from repro.tasks import TaskSystem


class TestCreation:
    def test_add_and_query(self, mesh4):
        s = TaskSystem(mesh4)
        tid = s.add_task(2.5, 3)
        assert s.n_tasks == 1
        assert s.load_of(tid) == 2.5
        assert s.location_of(tid) == 3
        assert s.node_loads[3] == 2.5
        assert s.total_load == 2.5

    def test_ids_sequential(self, mesh4):
        s = TaskSystem(mesh4)
        ids = [s.add_task(1.0, 0) for _ in range(5)]
        assert ids == [0, 1, 2, 3, 4]

    def test_rejects_nonpositive_load(self, mesh4):
        s = TaskSystem(mesh4)
        with pytest.raises(TaskError):
            s.add_task(0.0, 0)
        with pytest.raises(TaskError):
            s.add_task(-1.0, 0)

    def test_rejects_bad_node(self, mesh4):
        s = TaskSystem(mesh4)
        with pytest.raises(TaskError):
            s.add_task(1.0, 16)
        with pytest.raises(TaskError):
            s.add_task(1.0, -1)

    def test_growth_beyond_initial_capacity(self, mesh4):
        s = TaskSystem(mesh4)
        for k in range(300):
            s.add_task(1.0, k % 16)
        assert s.n_tasks == 300
        assert s.total_load == pytest.approx(300.0)
        # node loads partition the total
        assert s.node_loads.sum() == pytest.approx(300.0)


class TestMoveRemove:
    def test_move_updates_everything(self, mesh4):
        s = TaskSystem(mesh4)
        tid = s.add_task(2.0, 0)
        s.move(tid, 1)
        assert s.location_of(tid) == 1
        assert s.node_loads[0] == 0.0
        assert s.node_loads[1] == 2.0
        assert s.total_moves == 1
        assert tid in s.tasks_at(1)
        assert tid not in s.tasks_at(0)

    def test_move_to_same_node_is_noop(self, mesh4):
        s = TaskSystem(mesh4)
        tid = s.add_task(1.0, 0)
        s.move(tid, 0)
        assert s.total_moves == 0

    def test_remove(self, mesh4):
        s = TaskSystem(mesh4)
        tid = s.add_task(3.0, 2)
        s.remove_task(tid)
        assert s.n_tasks == 0
        assert not s.is_alive(tid)
        assert s.node_loads[2] == 0.0
        assert s.n_created == 1

    def test_operations_on_dead_task_raise(self, mesh4):
        s = TaskSystem(mesh4)
        tid = s.add_task(1.0, 0)
        s.remove_task(tid)
        for op in (lambda: s.load_of(tid), lambda: s.location_of(tid),
                   lambda: s.move(tid, 1), lambda: s.remove_task(tid)):
            with pytest.raises(TaskError):
                op()

    def test_ids_not_reused(self, mesh4):
        s = TaskSystem(mesh4)
        a = s.add_task(1.0, 0)
        s.remove_task(a)
        b = s.add_task(1.0, 0)
        assert b != a


class TestAggregates:
    def test_node_loads_read_only(self, mesh4):
        s = TaskSystem(mesh4)
        s.add_task(1.0, 0)
        with pytest.raises(ValueError):
            s.node_loads[0] = 99.0

    def test_tasks_at_sorted(self, mesh4):
        s = TaskSystem(mesh4)
        ids = [s.add_task(1.0, 5) for _ in range(4)]
        np.testing.assert_array_equal(s.tasks_at(5), sorted(ids))

    def test_largest_tasks_at(self, mesh4):
        s = TaskSystem(mesh4)
        s.add_task(1.0, 0)
        big = s.add_task(5.0, 0)
        mid = s.add_task(3.0, 0)
        top2 = s.largest_tasks_at(0, 2)
        assert list(top2) == [big, mid]

    def test_largest_tasks_fewer_than_k(self, mesh4):
        s = TaskSystem(mesh4)
        a = s.add_task(2.0, 0)
        got = s.largest_tasks_at(0, 10)
        assert list(got) == [a]

    def test_largest_tasks_deterministic_ties(self, mesh4):
        s = TaskSystem(mesh4)
        ids = [s.add_task(1.0, 0) for _ in range(5)]
        got1 = list(s.largest_tasks_at(0, 3))
        got2 = list(s.largest_tasks_at(0, 3))
        assert got1 == got2
        assert set(got1) <= set(ids)

    def test_alive_ids_and_arrays(self, mesh4):
        s = TaskSystem(mesh4)
        a = s.add_task(1.0, 0)
        b = s.add_task(2.0, 1)
        s.remove_task(a)
        np.testing.assert_array_equal(s.alive_ids(), [b])
        np.testing.assert_allclose(s.loads_array(), [2.0])
        np.testing.assert_array_equal(s.locations_array(), [1])

    def test_snapshot_placement(self, mesh4):
        s = TaskSystem(mesh4)
        a = s.add_task(1.0, 0)
        b = s.add_task(1.0, 7)
        assert s.snapshot_placement() == {a: 0, b: 7}

    def test_load_conservation_under_random_ops(self, mesh4, rng):
        s = TaskSystem(mesh4)
        ids = [s.add_task(float(rng.uniform(0.5, 2.0)), int(rng.integers(16)))
               for _ in range(100)]
        for _ in range(500):
            tid = int(rng.choice(ids))
            if s.is_alive(tid):
                s.move(tid, int(rng.integers(16)))
        assert s.node_loads.sum() == pytest.approx(s.total_load)
        per_node = sum(s.node_loads[n] for n in range(16))
        assert per_node == pytest.approx(s.total_load)


class TestBulkCreation:
    """``add_tasks`` is the sequence of ``add_task`` calls, in one step."""

    @staticmethod
    def _state(s, k=3):
        return (
            s.n_created, s.n_tasks, s.node_loads.tobytes(), s.total_load,
            [s.tasks_at(v).tolist() for v in range(s.topology.n_nodes)],
            [s.largest_tasks_at(v, k).tolist() for v in range(s.topology.n_nodes)],
            [sorted(t) for t in s._node_tasks], [list(t) for t in s._node_tasks],
        )

    @staticmethod
    def _batch(rng, n_nodes, n):
        # A wide size spread makes float sums order-sensitive.
        loads = rng.uniform(0.01, 1.0, n) * 10.0 ** rng.integers(-3, 4, n)
        return loads, rng.integers(0, n_nodes, n)

    def test_equals_sequential_adds_on_empty_system(self, mesh4, rng):
        loads, nodes = self._batch(rng, 16, 300)
        seq, bulk = TaskSystem(mesh4), TaskSystem(mesh4)
        ids = [seq.add_task(float(x), int(v)) for x, v in zip(loads, nodes)]
        got = bulk.add_tasks(loads, nodes)
        assert got.dtype == np.int64
        assert got.tolist() == ids
        assert self._state(bulk) == self._state(seq)
        assert bulk.candidate_floor(3).tobytes() == seq.candidate_floor(3).tobytes()
        assert bulk._loads.shape == seq._loads.shape  # same capacity growth

    def test_equals_sequential_adds_with_floor_cache_live(self, mesh4, rng):
        seq, bulk = TaskSystem(mesh4), TaskSystem(mesh4)
        loads, nodes = self._batch(rng, 16, 40)
        for s in (seq, bulk):
            for x, v in zip(loads, nodes):
                s.add_task(float(x), int(v))
            s.remove_task(3)
            s.move(5, 0)
            s.candidate_floor(2)  # the cache is now live
        loads, nodes = self._batch(rng, 16, 150)
        ids = [seq.add_task(float(x), int(v)) for x, v in zip(loads, nodes)]
        assert bulk.add_tasks(loads, nodes).tolist() == ids
        assert bulk._floor_dirty == seq._floor_dirty
        assert bulk.candidate_floor(2).tobytes() == seq.candidate_floor(2).tobytes()
        assert self._state(bulk, 2) == self._state(seq, 2)

    def test_empty_batch_is_a_no_op(self, mesh4):
        s = TaskSystem(mesh4)
        s.add_task(1.0, 0)
        assert s.add_tasks([], []).tolist() == []
        assert s.n_created == 1 and s.total_load == 1.0

    @pytest.mark.parametrize("bad_index, load, node", [
        (0, -1.0, 2), (4, 0.0, 2), (2, 1.0, 16), (3, 1.0, -1), (5, -2.0, 99),
    ])
    def test_bad_entry_raises_like_add_task_and_changes_nothing(self, mesh4, bad_index,
                                                                load, node):
        loads = np.ones(8)
        nodes = np.arange(8)
        loads[bad_index], nodes[bad_index] = load, node
        s = TaskSystem(mesh4)
        s.add_task(2.0, 1)
        s.candidate_floor(1)
        before = self._state(s)
        with pytest.raises(TaskError) as expected:
            TaskSystem(mesh4).add_task(load, node)
        with pytest.raises(TaskError) as got:
            s.add_tasks(loads, nodes)
        assert str(got.value) == str(expected.value)
        assert self._state(s) == before
        assert not s._floor_dirty

    def test_length_mismatch_rejected(self, mesh4):
        with pytest.raises(TaskError):
            TaskSystem(mesh4).add_tasks([1.0, 2.0], [0])
