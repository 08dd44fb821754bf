"""Single-hop routing tier (repro.softstate.onehop).

Covers the routing table's semilattice merge and quarantine rules, the
bucketed anti-entropy over the table, live convergence under crash /
reboot, client ops routed and redirected by the soft nodes' tables, and
the DataDroplets facade in ``routing_mode="onehop"`` — including a
forced misroute and operation under churn + message loss.
"""

import pytest

from repro import DataDroplets, DataDropletsConfig
from repro.sim import Cluster, Simulation, UniformLatency
from repro.softstate import ClientPut, OneHopRouting, RingSpace
from repro.softstate.onehop import (
    EVENT_ALIVE,
    EVENT_DEAD,
    EVENT_JOIN,
    EVENT_SUSPECT,
    STATUS_ALIVE,
    STATUS_DEAD,
    STATUS_QUARANTINE,
    STATUS_SUSPECT,
    MemberEvent,
    RoutingTable,
    table_buckets,
)


def make_table(members=8, owner=0, window=5.0, buckets=8):
    space = RingSpace(virtual_nodes=8, buckets=buckets)
    space.seed(range(members))
    return RoutingTable(space, owner, quarantine_window=window)


class TestRoutingTableMerge:
    def test_higher_incarnation_wins(self):
        table = make_table()
        assert table.apply(MemberEvent(3, 2, EVENT_SUSPECT), now=0.0)
        assert table.record(3) == (2, STATUS_SUSPECT)
        # stale incarnation is rejected regardless of severity
        assert not table.apply(MemberEvent(3, 1, EVENT_DEAD), now=0.0)
        assert table.record(3) == (2, STATUS_SUSPECT)
        # recovery must out-incarnate the suspicion
        assert not table.apply(MemberEvent(3, 2, EVENT_ALIVE), now=0.0)
        assert table.apply(MemberEvent(3, 3, EVENT_ALIVE), now=0.0)
        assert table.record(3) == (3, STATUS_ALIVE)

    def test_equal_incarnation_severity_order(self):
        table = make_table()
        assert table.apply(MemberEvent(2, 1, EVENT_SUSPECT), now=0.0)
        assert table.apply(MemberEvent(2, 1, EVENT_DEAD), now=0.0)
        # dead is terminal at this incarnation
        assert not table.apply(MemberEvent(2, 1, EVENT_SUSPECT), now=0.0)
        assert not table.apply(MemberEvent(2, 1, EVENT_ALIVE), now=0.0)
        assert table.record(2) == (1, STATUS_DEAD)

    def test_duplicate_event_is_not_news(self):
        table = make_table()
        event = MemberEvent(4, 2, EVENT_SUSPECT)
        assert table.apply(event, now=0.0)
        assert not table.apply(event, now=0.0)


class TestQuarantine:
    def test_unknown_joiner_is_quarantined_then_admitted(self):
        table = make_table(window=5.0)
        assert table.apply(MemberEvent(99, 1, EVENT_JOIN), now=10.0)
        assert table.record(99) == (1, STATUS_QUARANTINE)
        assert not table.is_alive(99)
        assert 99 in table.quarantined_values()
        assert table.admit_due(now=14.0) == []  # window not over
        assert table.admit_due(now=15.0) == [99]
        assert table.is_alive(99)
        assert table.record(99) == (1, STATUS_ALIVE)

    def test_quarantined_member_never_coordinator(self):
        table = make_table(members=4, window=1000.0)
        for value in (50, 51, 52):
            table.apply(MemberEvent(value, 1, EVENT_JOIN), now=0.0)
        quarantined = set(table.quarantined_values())
        assert quarantined == {50, 51, 52}
        for i in range(300):
            owner = table.coordinator_value(f"key:{i}")
            assert owner is not None and owner not in quarantined

    def test_known_member_recovery_skips_quarantine(self):
        table = make_table()
        table.apply(MemberEvent(1, 2, EVENT_SUSPECT), now=0.0)
        table.apply(MemberEvent(1, 3, EVENT_ALIVE), now=0.0)
        # 1 was already known: recovery is routable immediately
        assert table.is_alive(1)
        assert 1 not in table.quarantined_values()

    def test_member_view_reports_quarantine_as_alive(self):
        table = make_table()
        table.apply(MemberEvent(77, 1, EVENT_JOIN), now=0.0)
        incarnation, status = table.member_view()[77]
        assert (incarnation, status) == (1, STATUS_ALIVE)


class TestBucketedAntiEntropy:
    def test_summaries_localise_divergence_and_entries_repair_it(self):
        space = RingSpace(virtual_nodes=8, buckets=8)
        space.seed(range(16))
        a = RoutingTable(space, 0)
        b = RoutingTable(space, 1)
        assert a.summaries() == b.summaries()

        a.apply(MemberEvent(5, 2, EVENT_SUSPECT), now=0.0)
        a.apply(MemberEvent(9, 3, EVENT_DEAD), now=0.0)
        assert a.root_digest() != b.root_digest()  # phase-0 word disagrees
        ours = dict((bucket, (xor, count)) for bucket, xor, count in b.summaries())
        differing = [bucket for bucket, xor, count in a.summaries()
                     if ours.get(bucket) != (xor, count)]
        assert set(differing) == {space.bucket_of(5), space.bucket_of(9)}

        for event in a.entries_for(differing):
            b.apply(event, now=0.0)
        assert a.summaries() == b.summaries()
        assert a.root_digest() == b.root_digest()
        assert a.member_view() == b.member_view()

    def test_steady_state_rounds_settle_on_the_root_digest(self):
        sim, cluster, space, nodes = onehop_cluster(6)
        sim.run_for(30.0)  # several anti-entropy periods, no faults
        assert cluster.metrics.counter_value("onehop.antientropy_clean") > 0
        assert cluster.metrics.counter_value("onehop.antientropy_repairs") == 0

    @pytest.mark.parametrize("members,buckets", [
        (1, 16), (2, 16), (16, 16), (200, 16), (400, 32), (1000, 64), (10_000, 512),
    ])
    def test_bucket_count_grows_with_the_membership(self, members, buckets):
        # About 16 members per bucket, never fewer than 16 buckets.
        assert table_buckets(members) == buckets

    def test_facade_space_is_sized_by_n_soft(self):
        config = DataDropletsConfig(seed=3, n_storage=4, n_soft=400, routing_mode="onehop")
        assert DataDroplets(config).onehop_space.buckets == 32

    def test_exception_equal_to_baseline_is_dropped(self):
        table = make_table()
        # the baseline row is (1, ALIVE); a redundant event leaves no delta
        table.apply(MemberEvent(2, 1, EVENT_SUSPECT), now=0.0)
        table.apply(MemberEvent(2, 2, EVENT_SUSPECT), now=0.0)
        table.apply(MemberEvent(2, 3, EVENT_ALIVE), now=0.0)
        assert table.is_alive(2)


def onehop_cluster(n, seed=11, loss=0.0, window=2.0):
    sim = Simulation(seed=seed)
    cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02), loss_rate=loss)
    space = RingSpace(virtual_nodes=8, buckets=16)
    nodes = cluster.add_nodes(
        n, lambda node: [OneHopRouting(space, quarantine_window=window)], boot=False)
    space.seed(node.node_id.value for node in nodes)
    for node in nodes:
        node.boot()
    sim.run_for(3.0)
    return sim, cluster, space, nodes


def views(nodes):
    return [node.protocol("onehop").table.member_view()
            for node in nodes if node.is_up]


class TestLiveConvergence:
    def test_crash_is_detected_and_reboot_refutes(self):
        sim, cluster, space, nodes = onehop_cluster(8)
        victim = nodes[3]
        victim.crash()
        sim.run_for(20.0)  # ping + suspect escalation + dissemination
        for node in nodes:
            if node.is_up:
                table = node.protocol("onehop").table
                assert not table.is_alive(victim.node_id.value)

        victim.boot()
        sim.run_for(20.0)
        for node in nodes:
            table = node.protocol("onehop").table
            assert table.is_alive(victim.node_id.value)
        first, *rest = views(nodes)
        for view in rest:
            assert view == first

    def test_missed_events_reconverge_via_antientropy(self):
        sim, cluster, space, nodes = onehop_cluster(8)
        observer, victim = nodes[1], nodes[5]
        observer.crash()
        victim.crash()
        sim.run_for(20.0)  # victim declared dead while observer is down
        victim.boot()
        sim.run_for(10.0)  # victim refutes; observer still believes pre-crash view
        observer.boot()
        sim.run_for(25.0)
        first, *rest = views(nodes)
        for view in rest:
            assert view == first
        assert cluster.metrics.counter_value("onehop.antientropy_rounds") > 0

    def test_fresh_joiner_is_quarantined_then_routable_everywhere(self):
        sim, cluster, space, nodes = onehop_cluster(6, window=4.0)
        joiner = cluster.add_node(
            lambda node: [OneHopRouting(space, quarantine_window=4.0,
                                        bootstrap=lambda: nodes[0].node_id)])
        value = joiner.node_id.value
        sim.run_for(2.0)
        quarantining = [node for node in nodes
                        if value in node.protocol("onehop").table.quarantined_values()]
        assert quarantining  # at least someone holds it in the window
        sim.run_for(10.0)
        for node in nodes:
            assert node.protocol("onehop").table.is_alive(value)
        assert cluster.metrics.counter_value("onehop.admitted") > 0


class TestLookup:
    """Clients reach a coordinator through the owner their view names;
    the soft node routes by its own table and redirects what it does not
    own."""

    def test_client_ops_reach_the_owner_in_one_hop(self, onehop_system):
        dd = onehop_system
        traces = []
        before = dd.metrics.counter_value("onehop.stale_routes")
        dd.set_op_observer(traces.append)
        try:
            for i in range(20):
                dd.put(f"onehop:{i}", {"v": i})
        finally:
            dd.set_op_observer(None)
        assert dd.metrics.counter_value("onehop.stale_routes") == before
        assert len(traces) == 20
        for op in traces:
            (_, coordinator), = op.attempts
            for node in dd.soft_nodes:
                table = node.protocol("onehop").table
                assert table.coordinator_value(op.routing_key) == coordinator

    def test_stale_client_view_is_redirected_by_the_coordinator_table(self):
        dd = DataDroplets(DataDropletsConfig(
            seed=13, n_soft=4, n_storage=16, replication=3,
            routing_mode="onehop")).start(warmup=10.0)
        source = dd.soft_nodes[0].protocol("onehop").table  # the client's view
        owner = dd.soft_nodes[1].node_id.value
        clean = dd.soft_nodes[2].protocol("onehop").table
        # Poison only the view the client learns from: the owner is suspect.
        incarnation, _ = source.record(owner)
        source.apply(MemberEvent(owner, incarnation, EVENT_SUSPECT), now=dd.sim.now)
        key = next(k for k in (f"stale:{i}" for i in range(200))
                   if clean.coordinator_value(k) == owner
                   and source.coordinator_value(k) != source.owner)
        traces = []
        dd.set_op_observer(traces.append)
        dd.put(key, {"v": 1})
        (_, first_hop), = traces[-1].attempts
        assert first_hop != owner  # wrong first hop, one redirect
        assert dd.metrics.counter_value("onehop.stale_routes") == 1
        assert key in dd.soft_nodes[1].protocol("soft").metadata

    def test_peer_sampler_interface(self):
        sim, cluster, space, nodes = onehop_cluster(6)
        router = nodes[2].protocol("onehop")
        me = nodes[2].node_id
        neighbors = router.neighbors()
        assert me not in neighbors
        assert len(neighbors) == 5
        sample = router.sample_peers(3)
        assert len(sample) == 3
        assert len(set(sample)) == 3
        assert me not in sample
        assert set(sample) <= set(neighbors)


@pytest.fixture(scope="module")
def onehop_system():
    dd = DataDroplets(DataDropletsConfig(
        seed=13,
        n_soft=4,
        n_storage=24,
        replication=3,
        routing_mode="onehop",
        onehop_quarantine_window=3.0,
    )).start(warmup=15.0)
    return dd


class TestFacadeOneHopMode:
    def test_basic_operations(self, onehop_system):
        dd = onehop_system
        dd.put("users:1", {"name": "ada"})
        assert dd.get("users:1") == {"name": "ada"}
        dd.delete("users:1")
        dd.run_for(1.0)
        assert dd.get("users:1") is None

    def test_forced_misroute_is_redirected_not_errored(self, onehop_system):
        dd = onehop_system
        key = "redirect:probe"
        coordinator = dd.ring.coordinator_for(key)
        wrong = next(node.node_id for node in dd.soft_nodes
                     if node.is_up and node.node_id != coordinator)
        before = dd.metrics.counter_value("onehop.stale_routes")

        request_id = "req-forced-redirect"
        dd.client_node.send(wrong, "soft", ClientPut(request_id, key, {"v": 1}))
        reply = dd._await_reply(request_id)
        assert reply.ok
        assert dd.metrics.counter_value("onehop.stale_routes") > before
        assert dd.get(key) == {"v": 1}

    def test_operations_survive_soft_crash_under_loss(self, onehop_system):
        dd = onehop_system
        dd.cluster.network.loss_rate = 0.02
        victim = dd.soft_nodes[0]
        victim.crash()
        try:
            dd.run_for(15.0)  # let the tier converge on the failure
            for i in range(15):
                dd.put(f"churny:{i}", {"v": i})
            for i in range(15):
                assert dd.get(f"churny:{i}") == {"v": i}
        finally:
            dd.cluster.network.loss_rate = 0.0
            victim.boot()
            dd.run_for(15.0)
        # the rebooted node serves again and the views re-include it
        source = dd.soft_nodes[1].protocol("onehop").table
        assert source.is_alive(victim.node_id.value)
        for i in range(15):
            assert dd.get(f"churny:{i}") == {"v": i}

    def test_legacy_mode_unaffected(self):
        dd = DataDroplets(DataDropletsConfig(
            seed=13, n_soft=3, n_storage=16, replication=3)).start(warmup=10.0)
        assert dd.onehop_space is None
        dd.put("legacy:1", {"v": 1})
        assert dd.get("legacy:1") == {"v": 1}
        with pytest.raises(KeyError):
            dd.soft_nodes[0].protocol("onehop")
