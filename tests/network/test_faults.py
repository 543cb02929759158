"""Unit tests for repro.network.faults."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, TopologyError
from repro.network import FaultModel, LinkAttributes, mesh, ring


class TestTransientFaults:
    def test_fault_free_links_always_up(self, mesh4):
        fm = FaultModel(LinkAttributes.uniform(mesh4), rng=0)
        fm.advance(0)
        assert fm.up_mask().all()
        assert fm.link_up(0, 1)
        assert not fm.any_faults_possible

    def test_transient_rate_approximates_f(self, mesh4):
        attrs = LinkAttributes.uniform(mesh4, fault_prob=0.3)
        fm = FaultModel(attrs, rng=0)
        downs = 0
        total = 0
        for r in range(300):
            fm.advance(r)
            downs += int((~fm.up_mask()).sum())
            total += mesh4.n_edges
        assert 0.25 < downs / total < 0.35

    def test_deterministic_given_seed(self, mesh4):
        attrs = LinkAttributes.uniform(mesh4, fault_prob=0.2)
        a = FaultModel(attrs, rng=42)
        b = FaultModel(attrs, rng=42)
        for r in range(10):
            a.advance(r)
            b.advance(r)
            np.testing.assert_array_equal(a.up_mask(), b.up_mask())

    def test_rounds_must_advance(self, mesh4):
        fm = FaultModel(LinkAttributes.uniform(mesh4), rng=0)
        fm.advance(0)
        with pytest.raises(ConfigurationError):
            fm.advance(0)


class TestPermanentFaults:
    def test_kill_and_repair(self, mesh4):
        fm = FaultModel(
            LinkAttributes.uniform(mesh4),
            rng=0,
            permanent={2: [(0, 1)]},
            repair_after=3,
        )
        fm.advance(0)
        assert fm.link_up(0, 1)
        fm.advance(1)
        fm.advance(2)
        assert not fm.link_up(0, 1)
        fm.advance(3)
        fm.advance(4)
        assert not fm.link_up(0, 1)
        fm.advance(5)  # repair at 2+3
        assert fm.link_up(0, 1)

    def test_kill_forever_without_repair(self, mesh4):
        fm = FaultModel(LinkAttributes.uniform(mesh4), rng=0, permanent={0: [(0, 1)]})
        for r in range(5):
            fm.advance(r)
            assert not fm.link_up(0, 1)

    def test_refuses_to_disconnect(self):
        topo = ring(4)  # killing any 2 adjacent edges around one node disconnects
        fm = FaultModel(
            LinkAttributes.uniform(topo), rng=0, permanent={0: [(0, 1)], 1: [(0, 3)]}
        )
        fm.advance(0)
        with pytest.raises(TopologyError,
                           match=r"killing link \(0, 3\) at round 1 would disconnect"):
            fm.advance(1)

    def test_disconnect_verdict_matches_networkx(self):
        # Random down-sets of every size on a 16x16 mesh (480 links):
        # the CSR connected-components verdict must equal networkx's.
        nx = pytest.importorskip("networkx")
        topo = mesh(16, 16)
        fm = FaultModel(LinkAttributes.uniform(topo), rng=0)
        rng = np.random.default_rng(7)
        verdicts = set()
        for trial in range(120):
            k = int(rng.integers(1, 160)) if trial % 3 else int(rng.integers(1, 6))
            down = rng.choice(topo.n_edges, size=k, replace=False)
            if trial % 4 == 0:  # cut a corner off outright
                down = np.append(down, [topo.edge_id(0, 1), topo.edge_id(0, 16)])
            downed = set(down.tolist())
            g = nx.Graph()
            g.add_nodes_from(range(topo.n_nodes))
            g.add_edges_from(tuple(topo.edges[e]) for e in range(topo.n_edges)
                             if e not in downed)
            expected = not nx.is_connected(g)
            got = fm._would_disconnect(dict.fromkeys(downed))
            assert got == expected, f"trial {trial}"
            verdicts.add(got)
        assert verdicts == {True, False}

    def test_validates_edges_eagerly(self, mesh4):
        with pytest.raises(TopologyError):
            FaultModel(LinkAttributes.uniform(mesh4), permanent={0: [(0, 5)]})

    def test_validates_repair_after(self, mesh4):
        with pytest.raises(ConfigurationError):
            FaultModel(LinkAttributes.uniform(mesh4), repair_after=0)

    def test_any_faults_possible_with_permanent(self, mesh4):
        fm = FaultModel(LinkAttributes.uniform(mesh4), permanent={3: [(0, 1)]})
        assert fm.any_faults_possible
