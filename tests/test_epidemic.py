"""Tests for the epidemic dissemination substrates and analysis."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.fulldigest import DictStore
from repro.baselines.lazy import LazyGossip
from repro.epidemic import (
    AntiEntropy,
    EagerGossip,
    atomic_infection_probability,
    c_for_probability,
    expected_coverage,
    fanout_for_atomic,
    fanout_for_coverage,
    fanout_table,
    messages_per_broadcast,
    replica_success_probability,
)
from repro.membership import CyclonProtocol
from repro.sim import Cluster, Simulation, UniformLatency
from repro.store import Memtable, Version, make_tuple

from tests.conftest import build_connected


class TestAnalysis:
    def test_paper_headline_number(self):
        # §III-A: 50 000 nodes, p=0.999 -> c=7 -> fanout ~= 18
        assert fanout_for_atomic(50_000, 0.999) == 18

    def test_probability_inversion(self):
        for p in (0.9, 0.99, 0.999):
            assert atomic_infection_probability(c_for_probability(p)) == pytest.approx(p)

    def test_c7_matches_paper(self):
        assert atomic_infection_probability(7) == pytest.approx(0.999, abs=1e-3)

    def test_coverage_dies_below_one(self):
        assert expected_coverage(0.5) == 0.0
        assert expected_coverage(1.0) == 0.0

    def test_coverage_increases_with_fanout(self):
        values = [expected_coverage(f) for f in (1.5, 2.0, 3.0, 5.0, 10.0)]
        assert values == sorted(values)
        assert values[-1] > 0.999

    def test_coverage_inversion(self):
        for target in (0.5, 0.9, 0.99):
            fanout = fanout_for_coverage(target)
            assert expected_coverage(fanout) == pytest.approx(target, abs=1e-6)

    def test_replica_success_probability_monotone_in_coverage(self):
        probabilities = [
            replica_success_probability(c, 1000, 3) for c in (0.2, 0.5, 0.9, 1.0)
        ]
        assert probabilities == sorted(probabilities)

    def test_replica_success_degenerate(self):
        assert replica_success_probability(0.0, 100, 3) == 0.0

    def test_messages_per_broadcast_scales(self):
        assert messages_per_broadcast(1000, 5) > messages_per_broadcast(100, 5)

    def test_fanout_table_rows(self):
        rows = fanout_table([1000, 50_000], [0, 7])
        assert len(rows) == 4
        by_key = {(r.n_nodes, r.c): r for r in rows}
        assert by_key[(50_000, 7)].fanout == 18

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            c_for_probability(1.5)
        with pytest.raises(ValueError):
            fanout_for_atomic(1)
        with pytest.raises(ValueError):
            expected_coverage(-1)
        with pytest.raises(ValueError):
            fanout_for_coverage(1.0)
        with pytest.raises(ValueError):
            replica_success_probability(0.5, 0, 3)

    @given(st.floats(min_value=1.05, max_value=30.0))
    @settings(max_examples=50)
    def test_coverage_is_valid_fixed_point(self, fanout):
        pi = expected_coverage(fanout)
        assert 0.0 <= pi <= 1.0
        if pi > 0:
            assert pi == pytest.approx(1.0 - math.exp(-fanout * pi), abs=1e-6)


def _gossip_cluster(proto_factory, n=120, seed=21):
    sim = Simulation(seed=seed)
    cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
    factory = lambda node: [
        CyclonProtocol(view_size=10, shuffle_size=5, period=1.0),
        proto_factory(),
    ]
    nodes = build_connected(sim, cluster, n, factory, warmup=12.0)
    return sim, cluster, nodes


class TestEagerGossip:
    def test_high_fanout_reaches_everyone(self):
        fanout = math.ceil(math.log(120)) + 3
        sim, cluster, nodes = _gossip_cluster(lambda: EagerGossip(fanout=fanout))
        nodes[0].protocol("gossip").broadcast("item", {"v": 1})
        sim.run_for(10.0)
        reached = sum(1 for n in nodes if n.protocol("gossip").has_seen("item"))
        assert reached == len(nodes)

    def test_low_fanout_reaches_fraction(self):
        sim, cluster, nodes = _gossip_cluster(lambda: EagerGossip(fanout=2))
        for i in range(5):  # average over several broadcasts
            nodes[i].protocol("gossip").broadcast(f"item-{i}", i)
        sim.run_for(10.0)
        coverage = sum(
            1 for n in nodes for i in range(5) if n.protocol("gossip").has_seen(f"item-{i}")
        ) / (5 * len(nodes))
        expected = expected_coverage(2)
        assert abs(coverage - expected) < 0.15

    def test_subscriber_called_once_per_item(self):
        sim, cluster, nodes = _gossip_cluster(lambda: EagerGossip(fanout=8), n=30)
        deliveries = []
        nodes[5].protocol("gossip").subscribe(lambda i, p, h: deliveries.append(i))
        nodes[0].protocol("gossip").broadcast("x", 1)
        nodes[0].protocol("gossip").broadcast("x", 1)  # duplicate id suppressed
        sim.run_for(10.0)
        assert deliveries.count("x") == 1

    def test_callable_fanout(self):
        sim, cluster, nodes = _gossip_cluster(lambda: EagerGossip(fanout=lambda: 6), n=40)
        nodes[0].protocol("gossip").broadcast("x", 1)
        sim.run_for(10.0)
        reached = sum(1 for n in nodes if n.protocol("gossip").has_seen("x"))
        assert reached > 30

    def test_seen_capacity_bounds_memory(self):
        gossip = EagerGossip(fanout=1, seen_capacity=10)
        sim = Simulation()
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        node = cluster.add_node(lambda n: [CyclonProtocol(), gossip])
        for i in range(50):
            gossip.broadcast(f"i{i}", None)
        assert len(gossip._seen) <= 10

    def test_hops_counted(self):
        sim, cluster, nodes = _gossip_cluster(lambda: EagerGossip(fanout=8), n=40)
        hops_seen = []
        nodes[7].protocol("gossip").subscribe(lambda i, p, h: hops_seen.append(h))
        nodes[0].protocol("gossip").broadcast("x", 1)
        sim.run_for(10.0)
        assert hops_seen and all(h >= 1 for h in hops_seen)


class TestLazyGossip:
    def test_reaches_everyone_with_readvertising(self):
        fanout = math.ceil(math.log(80)) + 2
        sim, cluster, nodes = _gossip_cluster(
            lambda: LazyGossip(fanout=fanout, readvertise_rounds=3, period=1.0), n=80
        )
        nodes[0].protocol("gossip").broadcast("item", {"v": 1})
        sim.run_for(15.0)
        reached = sum(1 for n in nodes if n.protocol("gossip").has_seen("item"))
        assert reached >= 78  # lazy push may miss a straggler or two

    def test_payload_bytes_cheaper_than_eager(self):
        payload = {"blob": "x" * 2000}

        def run(factory):
            sim, cluster, nodes = _gossip_cluster(factory, n=60, seed=44)
            nodes[0].protocol("gossip").broadcast("big", payload)
            sim.run_for(15.0)
            reached = sum(1 for n in nodes if n.protocol("gossip").has_seen("big"))
            assert reached >= 55
            return cluster.metrics.counter_value("net.bytes.gossip")

        fanout = math.ceil(math.log(60)) + 2
        eager_bytes = run(lambda: EagerGossip(fanout=fanout))
        lazy_bytes = run(lambda: LazyGossip(fanout=fanout))
        assert lazy_bytes < eager_bytes

    def test_duplicate_pull_suppression(self):
        sim, cluster, nodes = _gossip_cluster(lambda: LazyGossip(fanout=6), n=30)
        nodes[0].protocol("gossip").broadcast("x", 1)
        sim.run_for(10.0)
        pulls = cluster.metrics.counter_value("gossip.pulls")
        delivered = cluster.metrics.counter_value("gossip.delivered")
        assert pulls <= delivered * 3  # pulls stay near one per delivery


class TestAntiEntropy:
    def test_stores_converge(self):
        sim = Simulation(seed=51)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        stores = []

        def factory(node):
            store = Memtable()
            stores.append(store)
            return [
                CyclonProtocol(view_size=8, shuffle_size=4, period=1.0),
                AntiEntropy(store, period=1.0),
            ]

        nodes = build_connected(sim, cluster, 20, factory, warmup=5.0)
        stores[0].put(make_tuple("a", {"v": "va"}, Version(1, 0)))
        stores[3].put(make_tuple("b", {"v": "vb"}, Version(2, 0)))
        sim.run_for(40.0)
        for store in stores:
            assert store.digest() == {"a": Version(1, 0).packed(), "b": Version(2, 0).packed()}

    def test_newer_version_wins(self):
        sim = Simulation(seed=52)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        stores = []

        def factory(node):
            store = Memtable()
            stores.append(store)
            return [
                CyclonProtocol(view_size=8, shuffle_size=4, period=1.0),
                AntiEntropy(store, period=1.0),
            ]

        build_connected(sim, cluster, 10, factory, warmup=5.0)
        stores[0].put(make_tuple("k", {"v": "old"}, Version(1, 0)))
        stores[5].put(make_tuple("k", {"v": "new"}, Version(9, 0)))
        sim.run_for(30.0)
        for store in stores:
            assert store.get("k").version == Version(9, 0)
            assert store.get("k").record == {"v": "new"}

    def test_dict_store_apply_counts_changes(self):
        store = DictStore()
        assert store.apply([("a", 1, "x"), ("b", 2, "y")]) == 2
        assert store.apply([("a", 1, "x")]) == 0  # same version: no change
        assert store.apply([("a", 5, "z")]) == 1

    def test_digest_cap_limits_entries(self):
        sim = Simulation(seed=53)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        store_a, store_b = Memtable(), Memtable()
        for i in range(100):
            store_a.put(make_tuple(f"k{i}", {"v": i}, Version(1, 0)))
        holder = [store_a, store_b]

        def factory(node):
            store = holder.pop(0)
            return [
                CyclonProtocol(view_size=4, shuffle_size=2, period=1.0),
                AntiEntropy(store, period=1.0, max_digest=10),
            ]

        build_connected(sim, cluster, 2, factory, warmup=2.0, seed_views=1)
        sim.run_for(30.0)
        # reconciliation proceeds in capped chunks but still converges on
        # a sample; eventually items flow despite the cap
        assert len(store_b) > 20
