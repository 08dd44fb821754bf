"""Tests for partial views and the peer sampling services."""

import collections
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.ids import NodeId
from repro.membership import (
    CyclonProtocol,
    NodeDescriptor,
    PartialView,
    StaticMembership,
    cluster_directory,
)
from repro.sim import Cluster, PoissonChurn, Simulation, UniformLatency

from tests.conftest import build_connected


class TestPartialView:
    def make(self, capacity=4):
        return PartialView(capacity, NodeId(0))

    def test_add_and_contains(self):
        view = self.make()
        view.add(NodeDescriptor(NodeId(1), 0))
        assert NodeId(1) in view
        assert len(view) == 1

    def test_self_excluded(self):
        view = self.make()
        view.add(NodeDescriptor(NodeId(0), 0))
        assert len(view) == 0

    def test_younger_wins_on_duplicate(self):
        view = self.make()
        view.add(NodeDescriptor(NodeId(1), 5))
        view.add(NodeDescriptor(NodeId(1), 2))
        assert view.descriptors()[0].age == 2
        view.add(NodeDescriptor(NodeId(1), 9))  # older: ignored
        assert view.descriptors()[0].age == 2

    def test_capacity_evicts_oldest(self):
        view = self.make(capacity=2)
        view.add(NodeDescriptor(NodeId(1), 5))
        view.add(NodeDescriptor(NodeId(2), 1))
        view.add(NodeDescriptor(NodeId(3), 0))
        assert NodeId(1) not in view  # oldest evicted
        assert len(view) == 2

    def test_full_view_rejects_older_than_everything(self):
        view = self.make(capacity=2)
        view.add(NodeDescriptor(NodeId(1), 1))
        view.add(NodeDescriptor(NodeId(2), 2))
        view.add(NodeDescriptor(NodeId(3), 10))
        assert NodeId(3) not in view

    def test_merge_prefers_replaceable_slots(self):
        view = self.make(capacity=2)
        view.add(NodeDescriptor(NodeId(1), 3))
        view.add(NodeDescriptor(NodeId(2), 3))
        view.merge([NodeDescriptor(NodeId(3), 8)], replaceable=[NodeId(1)])
        assert NodeId(3) in view
        assert NodeId(1) not in view
        assert NodeId(2) in view

    def test_increase_ages(self):
        view = self.make()
        view.add(NodeDescriptor(NodeId(1), 0))
        view.increase_ages()
        assert view.descriptors()[0].age == 1

    def test_oldest(self):
        view = self.make()
        view.add(NodeDescriptor(NodeId(1), 3))
        view.add(NodeDescriptor(NodeId(2), 7))
        assert view.oldest().node_id == NodeId(2)

    def test_random_peer_empty(self, sim):
        assert self.make().random_peer(sim.rng("t")) is None

    def test_random_descriptors_excludes(self, sim):
        view = self.make()
        for i in range(1, 4):
            view.add(NodeDescriptor(NodeId(i), 0))
        picked = view.random_descriptors(10, sim.rng("t"), exclude=NodeId(2))
        assert all(d.node_id != NodeId(2) for d in picked)
        assert len(picked) == 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PartialView(0, NodeId(0))

    @given(st.lists(st.tuples(st.integers(1, 50), st.integers(0, 20)), max_size=40))
    @settings(max_examples=50)
    def test_capacity_invariant(self, entries):
        view = PartialView(5, NodeId(0))
        for value, age in entries:
            view.add(NodeDescriptor(NodeId(value), age))
        assert len(view) <= 5
        # one descriptor per peer
        peers = [d.node_id for d in view.descriptors()]
        assert len(peers) == len(set(peers))


def _overlay_connected(nodes) -> bool:
    adj = {}
    for node in nodes:
        adj.setdefault(node.node_id, set()).update(node.protocol("membership").neighbors())
    undirected = {}
    for src, dsts in adj.items():
        undirected.setdefault(src, set()).update(dsts)
        for dst in dsts:
            undirected.setdefault(dst, set()).add(src)
    start = next(iter(undirected))
    seen = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for nxt in undirected.get(current, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == len(undirected)


class TestCyclon:
    def test_views_fill_and_connect(self):
        sim = Simulation(seed=11)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        factory = lambda n: [CyclonProtocol(view_size=8, shuffle_size=4, period=1.0)]
        nodes = build_connected(sim, cluster, 60, factory, warmup=25.0)
        sizes = [len(n.protocol("membership").view) for n in nodes]
        assert min(sizes) >= 6
        assert _overlay_connected(nodes)

    def test_indegree_balanced(self):
        sim = Simulation(seed=12)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        factory = lambda n: [CyclonProtocol(view_size=8, shuffle_size=4, period=1.0)]
        nodes = build_connected(sim, cluster, 80, factory, warmup=30.0)
        indegree = collections.Counter()
        for node in nodes:
            for peer in node.protocol("membership").neighbors():
                indegree[peer] += 1
        values = [indegree[n.node_id] for n in nodes]
        assert statistics.pstdev(values) < statistics.fmean(values)  # no hubs

    def test_sample_peers_distinct(self):
        sim = Simulation(seed=13)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        factory = lambda n: [CyclonProtocol(view_size=8, shuffle_size=4, period=1.0)]
        nodes = build_connected(sim, cluster, 20, factory, warmup=10.0)
        sample = nodes[0].protocol("membership").sample_peers(5)
        assert len(sample) == len(set(sample)) == 5

    def test_dead_peers_age_out(self):
        sim = Simulation(seed=14)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        factory = lambda n: [CyclonProtocol(view_size=8, shuffle_size=4, period=1.0)]
        nodes = build_connected(sim, cluster, 40, factory, warmup=20.0)
        dead = nodes[:10]
        for node in dead:
            node.crash(permanent=True)
        sim.run_for(40.0)
        dead_ids = {n.node_id for n in dead}
        survivors = [n for n in nodes if n.is_up]
        stale = sum(
            1
            for n in survivors
            for p in n.protocol("membership").neighbors()
            if p in dead_ids
        )
        total = sum(len(n.protocol("membership").neighbors()) for n in survivors)
        assert stale / total < 0.05  # almost all dead pointers recycled

    def test_overlay_reconnects_after_churn(self):
        sim = Simulation(seed=15)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        factory = lambda n: [CyclonProtocol(view_size=10, shuffle_size=5, period=1.0)]
        nodes = build_connected(sim, cluster, 50, factory, warmup=15.0)
        churn = PoissonChurn(sim, cluster, event_rate=1.0, mean_downtime=5.0)
        churn.start()
        sim.run_for(60.0)
        churn.stop()
        sim.run_for(30.0)
        up = [n for n in nodes if n.is_up]
        assert _overlay_connected(up)

    def test_shuffle_size_validation(self):
        with pytest.raises(ValueError):
            CyclonProtocol(view_size=4, shuffle_size=5)

    def test_isolated_node_rejoins_after_partition_heals(self):
        # Regression: a node cut off from everyone drains its view (each
        # shuffle removes the target optimistically; nothing merges back)
        # while the rest of the overlay ages it out. Before the fix, its
        # empty view never shuffled again and the durable address cache
        # had been overwritten with ever-shorter lists ending empty — so
        # the node stayed disconnected *forever* after the heal, and its
        # data silently dropped out of anti-entropy.
        sim = Simulation(seed=16)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        factory = lambda n: [CyclonProtocol(view_size=8, shuffle_size=4, period=1.0)]
        nodes = build_connected(sim, cluster, 30, factory, warmup=15.0)
        victim = nodes[7].node_id
        cluster.network.set_partition(
            lambda src, dst: src != victim and dst != victim)
        sim.run_for(120.0)  # long isolation: view fully drains
        assert nodes[7].protocol("membership").neighbors() == []
        # the durable cache must survive the drain — it is the only way back
        assert nodes[7].durable.get("membership:address-cache")
        cluster.network.set_partition(None)
        sim.run_for(30.0)
        assert len(nodes[7].protocol("membership").neighbors()) > 0
        indegree = sum(victim in n.protocol("membership").neighbors()
                       for n in nodes if n.node_id != victim)
        assert indegree > 0  # the overlay knows the node again


class TestStaticMembership:
    def test_directory_sampling(self, sim):
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        factory = lambda n: [StaticMembership(cluster_directory(cluster))]
        nodes = cluster.add_nodes(10, factory)
        sampler = nodes[0].protocol("membership")
        assert len(sampler.neighbors()) == 9
        assert nodes[0].node_id not in sampler.neighbors()
        assert len(sampler.sample_peers(3)) == 3

    def test_down_nodes_stay_listed(self, sim):
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        factory = lambda n: [StaticMembership(cluster_directory(cluster))]
        nodes = cluster.add_nodes(5, factory)
        nodes[1].crash()  # transient: a static directory cannot tell
        assert nodes[1].node_id in nodes[0].protocol("membership").neighbors()

    def test_dead_nodes_removed(self, sim):
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        factory = lambda n: [StaticMembership(cluster_directory(cluster))]
        nodes = cluster.add_nodes(5, factory)
        nodes[1].crash(permanent=True)
        assert nodes[1].node_id not in nodes[0].protocol("membership").neighbors()
