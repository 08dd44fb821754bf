"""Additional edge-case tests for epidemic dissemination internals."""

import math

import pytest

from repro.common.ids import NodeId
from repro.baselines.lazy import Advertisement, LazyGossip, PullReply, PullRequest
from repro.epidemic import EagerGossip
from repro.epidemic.eager import GossipMessage
from repro.membership import CyclonProtocol
from repro.sim import Cluster, FixedLatency, Simulation

from tests.conftest import build_connected


def _pair(proto_factory, seed=131):
    """Two directly-seeded nodes for message-level tests."""
    sim = Simulation(seed=seed)
    cluster = Cluster(sim, latency=FixedLatency(0.01))
    factory = lambda node: [CyclonProtocol(view_size=4, shuffle_size=2, period=1.0),
                            proto_factory()]
    a = cluster.add_node(factory)
    b = cluster.add_node(factory)
    a.protocol("membership").seed([b.node_id])
    b.protocol("membership").seed([a.node_id])
    return sim, cluster, a, b


class TestEagerEdgeCases:
    def test_zero_fanout_never_relays(self):
        sim, cluster, a, b = _pair(lambda: EagerGossip(fanout=0))
        a.protocol("gossip").broadcast("x", 1)
        sim.run_for(5.0)
        assert not b.protocol("gossip").has_seen("x")

    def test_max_hops_bounds_propagation(self):
        sim = Simulation(seed=132)
        cluster = Cluster(sim, latency=FixedLatency(0.01))
        factory = lambda node: [CyclonProtocol(view_size=4, shuffle_size=2, period=1.0),
                                EagerGossip(fanout=1, max_hops=1)]
        nodes = build_connected(sim, cluster, 20, factory, warmup=8.0)
        nodes[0].protocol("gossip").broadcast("x", 1)
        sim.run_for(10.0)
        reached = sum(1 for n in nodes if n.protocol("gossip").has_seen("x"))
        assert reached <= 3  # origin + <= fanout within 1 hop

    def test_unexpected_message_counted(self):
        sim, cluster, a, b = _pair(lambda: EagerGossip(fanout=1))
        a.protocol("membership").send(b.node_id, GossipMessage("x", 1))
        # ^ wrong protocol on purpose: membership receives a gossip message
        sim.run_for(2.0)
        assert cluster.metrics.counter_value("cyclon.unexpected_message") == 1

    def test_duplicate_counted(self):
        sim, cluster, a, b = _pair(lambda: EagerGossip(fanout=1))
        gossip = a.protocol("gossip")
        gossip.broadcast("x", 1)
        gossip._receive(a.node_id, GossipMessage("x", 1))  # replayed
        assert cluster.metrics.counter_value("gossip.duplicates") == 1


class TestLazyEdgeCases:
    def test_pull_reply_ignored_if_already_held(self):
        sim, cluster, a, b = _pair(lambda: LazyGossip(fanout=1, period=0.5))
        a.protocol("gossip").broadcast("x", {"v": 1})
        sim.run_for(3.0)
        assert b.protocol("gossip").has_seen("x")
        before = cluster.metrics.counter_value("gossip.delivered")
        # a straggler reply arrives again
        b.protocol("gossip").on_message(a.node_id, PullReply("x", {"v": 1}, 1))
        assert cluster.metrics.counter_value("gossip.delivered") == before

    def test_pull_request_for_unknown_id_silently_skipped(self):
        sim, cluster, a, b = _pair(lambda: LazyGossip(fanout=1))
        a.protocol("gossip").on_message(b.node_id, PullRequest(("ghost",)))
        sim.run_for(2.0)  # no crash, no reply
        assert not b.protocol("gossip").has_seen("ghost")

    def test_advertisement_of_known_items_not_repulled(self):
        sim, cluster, a, b = _pair(lambda: LazyGossip(fanout=1, period=0.5))
        a.protocol("gossip").broadcast("x", 1)
        sim.run_for(3.0)
        pulls_before = cluster.metrics.counter_value("gossip.pulls")
        b.protocol("gossip").on_message(a.node_id, Advertisement(("x",), (0,)))
        sim.run_for(1.0)
        assert cluster.metrics.counter_value("gossip.pulls") == pulls_before

    def test_pull_retry_window(self):
        sim, cluster, a, b = _pair(lambda: LazyGossip(fanout=1, period=1.0))
        lazy_b = b.protocol("gossip")
        # advertise an id that a will never answer for (a crashes)
        lazy_b.on_message(a.node_id, Advertisement(("lost",), (0,)))
        first_pulls = cluster.metrics.counter_value("gossip.pulls")
        assert first_pulls == 1
        # within the window: suppressed
        lazy_b.on_message(a.node_id, Advertisement(("lost",), (0,)))
        assert cluster.metrics.counter_value("gossip.pulls") == 1
        # after the window: retried
        sim.run_for(2.0)
        lazy_b.on_message(a.node_id, Advertisement(("lost",), (0,)))
        assert cluster.metrics.counter_value("gossip.pulls") == 2


class TestAdaptiveFanout:
    def test_fanout_follows_size_estimate(self):
        from repro.estimation import ExtremaSizeEstimator

        sim = Simulation(seed=133)
        cluster = Cluster(sim, latency=FixedLatency(0.01))

        def factory(node):
            estimator = ExtremaSizeEstimator(k=32, period=0.5)
            return [CyclonProtocol(view_size=8, shuffle_size=4, period=1.0),
                    estimator,
                    EagerGossip(fanout=estimator.fanout_fn(c=1.0))]

        nodes = build_connected(sim, cluster, 60, factory, warmup=15.0)
        gossip = nodes[0].protocol("gossip")
        estimator = nodes[0].protocol("size-estimator")
        fanout = gossip._current_fanout()
        assert fanout == max(1, math.ceil(math.log(max(2.0, estimator.estimate())) + 1.0))
        assert 3 <= fanout <= 10
