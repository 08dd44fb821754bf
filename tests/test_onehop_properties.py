"""Property-based tests of the single-hop routing tier (hypothesis).

Two layers of convergence guarantees:

* **Table algebra** — event application is a join-semilattice merge, so
  any delivery order / duplication of the same event set yields the
  same member view, and quarantined members can never be chosen as
  coordinators. Driven directly against :class:`RoutingTable` (a pure
  state machine), no simulator involved.
* **Reference map** — the table's key -> coordinator map and its
  responsibility arcs are those of a :class:`ConsistentHashRing` built
  over the table's routable members, under any aliveness and quarantine.
* **Live tier** — after an arbitrary crash/reboot/join sequence plus a
  quiet period, every live node's table converges to the same member
  view. Driven through the full simulator with pings, gossip and
  anti-entropy running.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.ids import NodeId
from repro.sim import Cluster, Simulation, UniformLatency
from repro.softstate import OneHopRouting, RingSpace, build_ring
from repro.softstate.onehop import (
    EVENT_ALIVE,
    EVENT_DEAD,
    EVENT_JOIN,
    EVENT_SUSPECT,
    STATUS_ALIVE,
    MemberEvent,
    RoutingTable,
)

SEEDED = 6  # baseline members 0..5
events = st.builds(
    MemberEvent,
    node=st.integers(min_value=0, max_value=11),  # half seeded, half joiners
    incarnation=st.integers(min_value=1, max_value=4),
    kind=st.sampled_from([EVENT_JOIN, EVENT_ALIVE, EVENT_SUSPECT, EVENT_DEAD]),
)


def fresh_table(owner=0, window=5.0):
    space = RingSpace(virtual_nodes=8, buckets=8)
    space.seed(range(SEEDED))
    return RoutingTable(space, owner, quarantine_window=window)


class TestTableAlgebra:
    @given(st.lists(events, max_size=24), st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_delivery_order_is_irrelevant(self, batch, rng):
        """Same event multiset, any order (plus duplicates) -> same view."""
        ordered = fresh_table()
        shuffled = fresh_table()
        for event in batch:
            ordered.apply(event, now=0.0)
        permuted = list(batch)
        rng.shuffle(permuted)
        duplicated = permuted + permuted[: len(permuted) // 2]
        for event in duplicated:
            shuffled.apply(event, now=0.0)
        assert ordered.member_view() == shuffled.member_view()
        assert ordered.summaries() == shuffled.summaries()

    @given(st.lists(events, max_size=24))
    @settings(max_examples=200)
    def test_quarantined_members_are_never_coordinators(self, batch):
        table = fresh_table(window=1000.0)
        for event in batch:
            table.apply(event, now=0.0)
        quarantined = set(table.quarantined_values())
        for i in range(40):
            owner = table.coordinator_value(f"probe:{i}")
            if owner is not None:
                assert owner not in quarantined

    @given(st.lists(events, max_size=24))
    @settings(max_examples=100)
    def test_admission_preserves_convergence(self, batch):
        """Tables that admitted at different times still agree once both
        windows have passed."""
        early = fresh_table(window=1.0)
        late = fresh_table(window=50.0)
        for event in batch:
            early.apply(event, now=0.0)
            late.apply(event, now=0.0)
        early.admit_due(now=100.0)
        late.admit_due(now=100.0)
        assert early.member_view() == late.member_view()
        assert not early.quarantined_values()
        assert not late.quarantined_values()


class TestTableMatchesTheReferenceRing:
    """The coordinator routes by the table alone, so its map must be the
    consistent-hashing map over exactly the members it may route to."""

    def test_coordinator_and_arcs_match_build_ring(self):
        kinds = (EVENT_JOIN, EVENT_ALIVE, EVENT_SUSPECT, EVENT_DEAD)
        checked = 0
        for seed in range(10):
            rng = random.Random(seed)
            space = RingSpace(virtual_nodes=rng.choice((4, 8, 16)), buckets=16)
            seeded = rng.randint(3, 40)
            space.seed(range(seeded))
            table = RoutingTable(space, 0, quarantine_window=rng.choice((1.0, 1000.0)))
            for _ in range(rng.randint(0, 3 * seeded)):
                event = MemberEvent(rng.randrange(seeded + 10), rng.randint(1, 4),
                                    rng.choice(kinds))
                table.apply(event, now=0.0)
            table.admit_due(now=rng.choice((0.0, 10.0)))
            routable = [NodeId(v) for v in space.members_list if table.is_alive(v)]
            reference = build_ring(routable, space.virtual_nodes)
            for i in range(10_000):
                key = f"ref:{seed}:{i}"
                expected = reference.coordinator_for(key)
                assert table.coordinator_value(key) == (
                    None if expected is None else expected.value)
                checked += 1
            for value in space.members_list:
                table.owner = value
                assert table.responsibility() == reference.responsibility_of(NodeId(value))
        assert checked == 100_000


# crash/reboot/join scripts over a 5-node cluster; node 0 is never
# crashed so gossip always has a live substrate to flow through.
ops = st.lists(
    st.one_of(
        st.tuples(st.just("crash"), st.integers(min_value=1, max_value=4)),
        st.tuples(st.just("reboot"), st.integers(min_value=1, max_value=4)),
        st.tuples(st.just("join"), st.just(0)),
    ),
    max_size=5,
)


class TestLiveConvergenceProperty:
    @given(ops)
    @settings(max_examples=12, deadline=None)
    def test_any_fault_script_converges_after_quiet_period(self, script):
        sim = Simulation(seed=29)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        space = RingSpace(virtual_nodes=8, buckets=16)

        def stack(node):
            return [OneHopRouting(space, quarantine_window=2.0,
                                  bootstrap=lambda: nodes[0].node_id)]

        nodes = cluster.add_nodes(5, stack, boot=False)
        space.seed(node.node_id.value for node in nodes)
        for node in nodes:
            node.boot()
        sim.run_for(3.0)

        for op, index in script:
            if op == "crash" and nodes[index].is_up:
                nodes[index].crash()
            elif op == "reboot" and not nodes[index].is_up:
                nodes[index].boot()
            elif op == "join":
                nodes.append(cluster.add_node(stack))
            sim.run_for(1.0)

        sim.run_for(45.0)  # quiet period: detection + gossip + anti-entropy
        live_views = [node.protocol("onehop").table.member_view()
                      for node in nodes if node.is_up]
        assert live_views  # node 0 is always up
        first, *rest = live_views
        for view in rest:
            assert view == first
        # and the agreed member set contains every currently-up node
        up_values = {node.node_id.value for node in nodes if node.is_up}
        alive_in_view = {v for v, (_, st_) in first.items() if st_ == STATUS_ALIVE}
        assert up_values <= alive_in_view
