"""Unit tests for repro.sim.engine.Simulator (task mode)."""

import pytest

from repro.baselines import NoBalancer
from repro.core import ParticlePlaneBalancer, PPLBConfig
from repro.exceptions import ConfigurationError, SimulationError
from repro.interfaces import Balancer, Migration
from repro.network import FaultModel, LinkAttributes, mesh
from repro.sim import Simulator
from repro.sim.engine import ConvergenceCriteria
from repro.tasks import TaskSystem
from repro.workloads import DynamicWorkload, multi_hotspot, single_hotspot


class ScriptedBalancer(Balancer):
    """Returns pre-scripted migrations per round (for engine tests)."""

    name = "scripted"

    def __init__(self, script):
        self.script = script

    def step(self, ctx):
        return self.script.get(ctx.round_index, [])


class TestValidationAndSetup:
    def test_mismatched_system_topology(self, mesh4):
        other = mesh(3, 3)
        system = TaskSystem(other)
        with pytest.raises(ConfigurationError):
            Simulator(mesh4, system, NoBalancer())

    def test_mismatched_links(self, mesh4):
        system = TaskSystem(mesh4)
        links = LinkAttributes.uniform(mesh(3, 3))
        with pytest.raises(ConfigurationError):
            Simulator(mesh4, system, NoBalancer(), links=links)

    def test_bad_capacity_and_rounds(self, mesh4):
        system = TaskSystem(mesh4)
        with pytest.raises(ConfigurationError):
            Simulator(mesh4, system, NoBalancer(), link_capacity=0)
        sim = Simulator(mesh4, system, NoBalancer())
        with pytest.raises(ConfigurationError):
            sim.run(max_rounds=0)

    def test_criteria_validation(self):
        with pytest.raises(ConfigurationError):
            ConvergenceCriteria(quiet_rounds=0)
        with pytest.raises(ConfigurationError):
            ConvergenceCriteria(spread_tol=-1.0)


class TestOrderValidation:
    def test_rejects_move_of_dead_task(self, mesh4):
        system = TaskSystem(mesh4)
        tid = system.add_task(1.0, 0)
        system.remove_task(tid)
        sim = Simulator(mesh4, system, ScriptedBalancer({0: [Migration(tid, 0, 1)]}))
        with pytest.raises(SimulationError):
            sim.run(max_rounds=1)

    def test_rejects_wrong_source(self, mesh4):
        system = TaskSystem(mesh4)
        tid = system.add_task(1.0, 0)
        sim = Simulator(mesh4, system, ScriptedBalancer({0: [Migration(tid, 5, 6)]}))
        with pytest.raises(SimulationError):
            sim.run(max_rounds=1)

    def test_rejects_non_edge(self, mesh4):
        from repro.exceptions import TopologyError

        system = TaskSystem(mesh4)
        tid = system.add_task(1.0, 0)
        sim = Simulator(mesh4, system, ScriptedBalancer({0: [Migration(tid, 0, 5)]}))
        with pytest.raises(TopologyError):
            sim.run(max_rounds=1)

    def test_rejects_over_capacity(self, mesh4):
        system = TaskSystem(mesh4)
        a = system.add_task(1.0, 0)
        b = system.add_task(1.0, 0)
        sim = Simulator(
            mesh4,
            system,
            ScriptedBalancer({0: [Migration(a, 0, 1), Migration(b, 0, 1)]}),
        )
        with pytest.raises(SimulationError):
            sim.run(max_rounds=1)

    def test_capacity_2_allows_pairs(self, mesh4):
        system = TaskSystem(mesh4)
        a = system.add_task(1.0, 0)
        b = system.add_task(1.0, 0)
        sim = Simulator(
            mesh4,
            system,
            ScriptedBalancer({0: [Migration(a, 0, 1), Migration(b, 0, 1)]}),
            link_capacity=2,
        )
        res = sim.run(max_rounds=1)
        assert res.total_migrations == 2


class TestFaults:
    def test_blocked_migrations_counted_not_applied(self, mesh4):
        system = TaskSystem(mesh4)
        tid = system.add_task(1.0, 0)
        attrs = LinkAttributes.uniform(mesh4)
        fm = FaultModel(attrs, rng=0, permanent={0: [(0, 1)]})
        sim = Simulator(
            mesh4,
            system,
            ScriptedBalancer({0: [Migration(tid, 0, 1)]}),
            links=attrs,
            fault_model=fm,
        )
        res = sim.run(max_rounds=1)
        assert res.total_migrations == 0
        assert res.records[0].blocked == 1
        assert system.location_of(tid) == 0


class TestAccounting:
    def test_traffic_is_load_times_cost(self, mesh4):
        system = TaskSystem(mesh4)
        tid = system.add_task(2.0, 0)
        attrs = LinkAttributes.uniform(mesh4, distance=3.0)  # e = 3
        sim = Simulator(
            mesh4, system, ScriptedBalancer({0: [Migration(tid, 0, 1)]}), links=attrs
        )
        res = sim.run(max_rounds=1)
        assert res.records[0].traffic_work == pytest.approx(6.0)

    def test_heat_passthrough(self, mesh4):
        system = TaskSystem(mesh4)
        tid = system.add_task(1.0, 0)
        sim = Simulator(
            mesh4, system, ScriptedBalancer({0: [Migration(tid, 0, 1, heat=7.5)]})
        )
        res = sim.run(max_rounds=1)
        assert res.records[0].heat == pytest.approx(7.5)

    def test_journey_tracking(self, mesh4):
        system = TaskSystem(mesh4)
        tid = system.add_task(1.0, 0)
        script = {0: [Migration(tid, 0, 1)], 1: [Migration(tid, 1, 2)]}
        sim = Simulator(mesh4, system, ScriptedBalancer(script), track_journeys=True)
        sim.run(max_rounds=3)
        assert sim.task_hops[tid] == 2
        disp = sim.journey_displacements()
        assert disp[tid] == 2  # 0 -> 2 is two hops on the mesh

    def test_journey_displacements_match_hop_matrix(self):
        topo = mesh(8)
        system = TaskSystem(topo)
        multi_hotspot(system, 192, rng=3, n_spots=3)
        sim = Simulator(topo, system, ParticlePlaneBalancer(PPLBConfig()),
                        seed=3, track_journeys=True)
        sim.run(max_rounds=60)
        hd = topo.hop_distances
        expected = {
            tid: int(hd[origin, system.location_of(tid)])
            for tid, origin in sim.task_origin.items()
            if system.is_alive(tid)
        }
        disp = sim.journey_displacements()
        assert list(disp.items()) == list(expected.items())
        assert len(set(sim.task_origin.values())) == 3
        assert max(disp.values()) >= 2

    def test_journey_tracking_requires_flag(self, mesh4):
        system = TaskSystem(mesh4)
        sim = Simulator(mesh4, system, NoBalancer())
        with pytest.raises(ConfigurationError):
            sim.journey_displacements()


class TestConvergence:
    def test_quiet_rounds_trigger(self, mesh4):
        system = TaskSystem(mesh4)
        system.add_task(1.0, 0)
        sim = Simulator(
            mesh4, system, NoBalancer(), criteria=ConvergenceCriteria(quiet_rounds=3)
        )
        res = sim.run(max_rounds=100)
        assert res.converged_round == 0
        assert res.n_rounds == 3

    def test_spread_tol_with_idle_balancer(self, mesh4):
        system = TaskSystem(mesh4)
        from repro.workloads import balanced

        balanced(system, tasks_per_node=2, rng=0)
        sim = Simulator(
            mesh4,
            system,
            NoBalancer(),
            criteria=ConvergenceCriteria(quiet_rounds=50, spread_tol=0.1),
        )
        res = sim.run(max_rounds=100)
        assert res.converged_round == 0
        assert res.n_rounds == 1

    def test_no_convergence_under_churn(self, mesh4):
        system = TaskSystem(mesh4)
        wl = DynamicWorkload(arrival_rate=2.0, completion_prob=0.05, rng=0)
        sim = Simulator(mesh4, system, NoBalancer(), dynamic=wl)
        res = sim.run(max_rounds=30)
        assert res.n_rounds == 30
        assert res.converged_round is None

    def test_records_task_counts_under_churn(self, mesh4):
        system = TaskSystem(mesh4)
        wl = DynamicWorkload(arrival_rate=3.0, completion_prob=0.0, rng=0)
        sim = Simulator(mesh4, system, NoBalancer(), dynamic=wl)
        res = sim.run(max_rounds=10)
        counts = res.series("n_tasks")
        assert counts[-1] >= counts[0]
        assert counts[-1] > 0


class TestEndToEnd:
    def test_pplb_full_run_properties(self, mesh8):
        system = TaskSystem(mesh8)
        single_hotspot(system, 256, rng=0)
        total0 = system.total_load
        sim = Simulator(
            mesh8, system, ParticlePlaneBalancer(PPLBConfig()), seed=0
        )
        res = sim.run(max_rounds=300)
        assert system.total_load == pytest.approx(total0)  # conservation
        assert res.final_cov < res.initial_summary["cov"] / 10
        assert res.converged
        # spread series is eventually non-increasing-ish: final < initial
        assert res.records[-1].spread < res.records[0].spread
