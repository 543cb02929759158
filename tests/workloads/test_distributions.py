"""Unit tests for repro.workloads.distributions."""

import numpy as np
import pytest

from repro.exceptions import TaskError
from repro.network import mesh
from repro.tasks import TaskSystem
from repro.workloads import (
    balanced,
    clustered,
    gaussian_blob,
    linear_ramp,
    multi_hotspot,
    single_hotspot,
    uniform_random,
)
from repro.workloads.scenarios import build_scenario


def fresh(topo):
    return TaskSystem(topo)


class TestSingleHotspot:
    def test_all_on_one_node(self, mesh4):
        s = fresh(mesh4)
        ids = single_hotspot(s, 20, rng=0)
        assert len(ids) == 20
        loaded = np.nonzero(s.node_loads)[0]
        assert loaded.shape == (1,)

    def test_default_node_is_central(self, mesh4):
        s = fresh(mesh4)
        single_hotspot(s, 5, rng=0)
        node = int(np.nonzero(s.node_loads)[0][0])
        ecc = mesh4.hop_distances.max(axis=1)
        assert ecc[node] == ecc.min()

    def test_explicit_node(self, mesh4):
        s = fresh(mesh4)
        single_hotspot(s, 5, rng=0, node=0)
        assert s.node_loads[0] > 0
        assert s.node_loads[1:].sum() == 0


class TestMultiHotspot:
    def test_spots_far_apart(self, mesh8):
        s = fresh(mesh8)
        multi_hotspot(s, 100, rng=0, n_spots=2)
        spots = np.nonzero(s.node_loads)[0]
        assert spots.shape[0] == 2
        assert mesh8.hop_distances[spots[0], spots[1]] >= mesh8.diameter // 2

    def test_weights_respected(self, mesh4):
        s = fresh(mesh4)
        multi_hotspot(s, 2000, rng=0, nodes=[0, 15], weights=[0.8, 0.2],
                      distribution="constant")
        frac = s.node_loads[0] / s.total_load
        assert frac == pytest.approx(0.8, abs=0.05)

    def test_validation(self, mesh4):
        s = fresh(mesh4)
        with pytest.raises(TaskError):
            multi_hotspot(s, 10, rng=0, nodes=[])
        with pytest.raises(TaskError):
            multi_hotspot(s, 10, rng=0, nodes=[0], weights=[-1.0])
        with pytest.raises(TaskError):
            multi_hotspot(s, 10, rng=0, n_spots=0)


class TestSpreadDistributions:
    def test_uniform_random_covers_nodes(self, mesh8):
        s = fresh(mesh8)
        uniform_random(s, 1000, rng=0)
        assert (s.node_loads > 0).sum() > 50  # nearly all of 64 nodes hit

    def test_linear_ramp_monotone_density(self):
        topo = mesh(1, 8)  # a line: x-coordinate = node index
        s = fresh(topo)
        linear_ramp(s, 4000, rng=0, axis=0, distribution="constant")
        h = s.node_loads
        # right half carries clearly more than the left half
        assert h[4:].sum() > 1.5 * h[:4].sum()

    def test_gaussian_blob_peaks_at_center(self, mesh8):
        s = fresh(mesh8)
        gaussian_blob(s, 2000, rng=0, center=27, sigma_hops=1.5,
                      distribution="constant")
        assert s.node_loads.argmax() == 27

    def test_gaussian_blob_validation(self, mesh4):
        with pytest.raises(TaskError):
            gaussian_blob(fresh(mesh4), 10, rng=0, sigma_hops=0.0)

    def test_balanced_flat(self, mesh4):
        s = fresh(mesh4)
        balanced(s, tasks_per_node=3, rng=0)
        np.testing.assert_allclose(s.node_loads, s.node_loads[0])
        assert s.n_tasks == 48

    def test_determinism(self, mesh4):
        a, b = fresh(mesh4), fresh(mesh4)
        uniform_random(a, 50, rng=9)
        uniform_random(b, 50, rng=9)
        np.testing.assert_allclose(a.node_loads, b.node_loads)


class TestClustered:
    def test_density_peaks_at_far_apart_centers(self, mesh8):
        s = fresh(mesh8)
        clustered(s, 3000, rng=0, n_clusters=3, sigma_hops=1.0,
                  distribution="constant")
        # the three heaviest nodes should be pairwise far apart
        top = np.argsort(s.node_loads)[-3:]
        hd = mesh8.hop_distances
        for i in range(3):
            for j in range(i + 1, 3):
                assert hd[top[i], top[j]] >= 4

    def test_validation(self, mesh4):
        with pytest.raises(TaskError):
            clustered(fresh(mesh4), 10, rng=0, n_clusters=0)
        with pytest.raises(TaskError):
            clustered(fresh(mesh4), 10, rng=0, sigma_hops=0.0)

    def test_deterministic(self, mesh4):
        a, b = fresh(mesh4), fresh(mesh4)
        clustered(a, 64, rng=3)
        clustered(b, 64, rng=3)
        np.testing.assert_allclose(a.node_loads, b.node_loads)


class TestSetupNeedsNoHopMatrix:
    """Placements read BFS rows; the all-pairs matrix stays unbuilt."""

    @pytest.mark.parametrize(
        "placement", ["hotspot", "blob", "clustered", "valleys", "two-valleys"]
    )
    def test_placement_leaves_hop_matrix_unbuilt(self, placement):
        scenario = build_scenario(f"mesh:16x16+{placement}", seed=0)
        assert scenario.system.n_tasks > 0
        assert "hop_distances" not in scenario.topology.__dict__
