"""Cross-module property-based tests (hypothesis).

These encode the *invariants* the design depends on, independent of any
particular scenario: deterministic sieves, conserved push-sum mass,
reproducible simulations, monotone version resolution, codec stability.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.ids import NodeId
from repro.common.messages import mask_indices
from repro.epidemic import expected_coverage, fanout_for_atomic
from repro.estimation import PushSumProtocol
from repro.membership import CyclonProtocol
from repro.sieve import BucketSieve, TagSieve, UniformSieve, prefix_tag
from repro.sim import Cluster, Simulation, UniformLatency
from repro.sim.metrics import Metrics
from repro.store import Memtable, Version, make_tuple

node_ids = st.integers(min_value=0, max_value=5000).map(NodeId)
sizes = st.integers(min_value=2, max_value=100_000)
replications = st.integers(min_value=1, max_value=20)
keys = st.text(min_size=1, max_size=20)


class TestSieveInvariants:
    @given(node_ids, sizes, replications, keys)
    @settings(max_examples=100)
    def test_uniform_sieve_deterministic(self, node_id, n, r, key):
        sieve = UniformSieve(node_id, r, lambda: n)
        assert sieve.admits(key, {}) == sieve.admits(key, {})

    @given(node_ids, sizes, replications, keys)
    @settings(max_examples=100)
    def test_bucket_sieve_deterministic_and_bucketed(self, node_id, n, r, key):
        sieve = BucketSieve(node_id, r, lambda: n)
        first = sieve.admits(key, {})
        assert first == sieve.admits(key, {})
        if first:
            assert sieve.item_bucket(key, {}) == sieve.bucket_index()

    @given(sizes, replications, keys)
    @settings(max_examples=50)
    def test_every_item_has_a_bucket_owner_in_theory(self, n, r, key):
        """The bucket an item maps to is a valid index for every node's
        bucket count — no item maps outside the partition."""
        sieve = BucketSieve(NodeId(1), r, lambda: n)
        bucket = sieve.item_bucket(key, {})
        assert 0 <= bucket < sieve.bucket_count()

    @given(node_ids, st.text(min_size=1, max_size=10), st.integers(0, 50), st.integers(0, 50))
    @settings(max_examples=100)
    def test_tag_sieve_colocation_property(self, node_id, tag, e1, e2):
        """Any two items with the same prefix tag get the same verdict
        from any node — the collocation guarantee."""
        sieve = TagSieve(node_id, 4, lambda: 128, prefix_tag())
        a = sieve.admits(f"{tag}:item{e1}", {})
        b = sieve.admits(f"{tag}:item{e2}", {})
        assert a == b


class TestAnalysisInvariants:
    @given(st.integers(min_value=2, max_value=10**7),
           st.floats(min_value=0.5, max_value=0.9999))
    @settings(max_examples=100)
    def test_fanout_for_atomic_monotone_in_n(self, n, p):
        assert fanout_for_atomic(n, p) <= fanout_for_atomic(n * 10, p)

    @given(st.floats(min_value=1.01, max_value=20),
           st.floats(min_value=0.01, max_value=5))
    @settings(max_examples=100)
    def test_coverage_monotone(self, fanout, delta):
        assert expected_coverage(fanout + delta) >= expected_coverage(fanout) - 1e-9


class TestStoreInvariants:
    @given(st.lists(st.tuples(keys, st.integers(1, 1000)), max_size=80))
    @settings(max_examples=50)
    def test_memtable_digest_matches_contents(self, writes):
        table = Memtable()
        for key, seq in writes:
            table.put(make_tuple(key, {"s": seq}, Version(seq, 0)))
        digest = table.digest()
        for key, packed in digest.items():
            held = table.get_any(key)
            assert held is not None
            assert held.version.packed() == packed

    @given(st.lists(st.tuples(keys, st.integers(1, 100)), min_size=1, max_size=60),
           st.randoms(use_true_random=False))
    @settings(max_examples=50)
    def test_anti_entropy_merge_is_order_insensitive(self, writes, rng):
        """Applying the same item set in any order yields the same store."""
        table_a, table_b = Memtable(), Memtable()
        items = [make_tuple(k, {"s": s}, Version(s, 0)) for k, s in writes]
        for item in items:
            table_a.put(item)
        shuffled = list(items)
        rng.shuffle(shuffled)
        for item in shuffled:
            table_b.put(item)
        assert table_a.digest() == table_b.digest()


class _PushSumWorld:
    """Push-sum protocols on scripted hosts: the test decides who gossips
    to whom and which share in flight is delivered (or lost) next."""

    class _Host:
        def __init__(self, world, index):
            self.world, self.node_id = world, NodeId(index)
            self.now, self.metrics = 0.0, world.metrics

        def protocol(self, name):
            return self  # stands in for the peer sampler

        def sample_peers(self, count):
            return [NodeId(self.world.next_peer)]

        def send(self, dst, protocol, message):
            self.world.in_flight.append((self.node_id, dst.value, message))

        def set_timer(self, delay, callback):
            return None

    def __init__(self, local_values):
        self.metrics = Metrics()
        self.in_flight = []
        self.next_peer = 0
        self.nodes = []
        for index, values in enumerate(local_values):
            proto = PushSumProtocol("p", lambda v=values: v)
            proto.bind(self._Host(self, index))
            proto._reset()
            self.nodes.append(proto)

    def step(self, action, a, b):
        if action == "round":
            self.next_peer = b % len(self.nodes)
            self.nodes[a % len(self.nodes)]._round()
        elif self.in_flight:
            sender, dst, share = self.in_flight.pop(a % len(self.in_flight))
            if action == "deliver":
                self.nodes[dst].on_message(sender, share)

    def total(self, cell):
        """Mass of one cell (or of the weight, cell=None) over the nodes
        and the shares still in flight."""
        if cell is None:
            return (sum(n._weight for n in self.nodes)
                    + sum(m.weight_part for _, _, m in self.in_flight))
        return (sum(n._vector[cell] for n in self.nodes)
                + sum(self.dense(m)[cell] for _, _, m in self.in_flight))

    def dense(self, share):
        """A share's cells with the zeros it leaves out put back."""
        cells = [0.0] * len(self.nodes[0]._vector)
        for index, part in zip(mask_indices(share.nonzero, len(cells)), share.parts):
            cells[index] = part
        return cells


_layouts = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4).map(
    lambda widths: {f"s{i}": w for i, w in enumerate(widths)})
_steps = st.lists(st.tuples(st.sampled_from(["round", "round", "deliver"]),
                            st.integers(0, 50), st.integers(0, 50)), max_size=30)
_cells = st.floats(min_value=0, max_value=1000).map(lambda v: round(v * 8) / 8)


class TestPushSumVectorInvariants:
    @given(_layouts, st.integers(2, 6), _steps, st.data())
    @settings(max_examples=60, deadline=None)
    def test_mass_is_conserved_and_slots_equal_scalar_push_sums(self, slots, n, steps, data):
        """Any slot layout, any delivery order (each share delivered at
        most once): every cell and the weight are conserved over nodes
        plus shares in flight, and every cell evolves exactly as a scalar
        push-sum making the same peer choices would."""
        size = sum(slots.values())
        flat = [data.draw(st.lists(_cells, min_size=size, max_size=size)) for _ in range(n)]
        local = []
        for row in flat:
            cells = iter(row)
            local.append({slot: [next(cells) for _ in range(w)] for slot, w in slots.items()})
        vector = _PushSumWorld(local)
        scalars = [_PushSumWorld([{"x": [row[c]]} for row in flat])
                   for c in range(size)]
        before = [vector.total(c) for c in range(size)]
        for step in steps:
            vector.step(*step)
            for world in scalars:
                world.step(*step)
        for c in range(size):
            # eighths below 1000 halved at most 30 times add exactly in doubles
            assert vector.total(c) == before[c]
            assert [n._vector[c] for n in vector.nodes] == [n._vector[0] for n in scalars[c].nodes]
        assert vector.total(None) == n
        assert [n._weight for n in vector.nodes] == [n._weight for n in scalars[0].nodes]

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 100)), min_size=2, max_size=6),
           st.lists(st.tuples(st.sampled_from(["round", "round", "deliver", "drop"]),
                              st.integers(0, 50), st.integers(0, 50)), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_ratio_of_two_slots_stays_within_local_ratios_under_loss(self, holdings, steps):
        """avg = mass(sum)/mass(cnt) is, at every node and every step, a
        convex combination of the nodes' local ratios — lost shares
        remove sum and count mass in proportion."""
        local = [{"sum": [float(count * value)], "cnt": [float(count)]}
                 for count, value in holdings]
        ratios = [value for count, value in holdings if count]
        world = _PushSumWorld(local)
        for step in steps:
            world.step(*step)
            for node in world.nodes:
                (total,), (count,) = node.mass("sum"), node.mass("cnt")
                if count > 0:
                    assert min(ratios) - 1e-9 <= total / count <= max(ratios) + 1e-9

    def test_two_independent_push_sums_do_not_have_it(self):
        """The counter-example the merge removes: with sum and count in
        separate protocols one lost *count* share pushes avg outside the
        range of any node's data."""
        sums = _PushSumWorld([{"x": [10.0]}, {"x": [10.0]}])
        counts = _PushSumWorld([{"x": [1.0]}, {"x": [1.0]}])
        for world, fate in ((sums, "deliver"), (counts, "drop")):
            world.step("round", 0, 1)
            world.step(fate, 0, 0)
        assert sums.nodes[1].mass("x")[0] / counts.nodes[1].mass("x")[0] == 15.0


class TestSimulationDeterminism:
    def _run_gossip_world(self, seed: int):
        sim = Simulation(seed=seed)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        factory = lambda node: [CyclonProtocol(view_size=6, shuffle_size=3, period=0.5)]
        nodes = cluster.add_nodes(30, factory)
        cluster.seed_views("membership", 3)
        sim.run_until(20.0)
        return (
            sim.events_processed,
            cluster.metrics.counter_value("net.sent.total"),
            tuple(tuple(sorted(p.value for p in n.protocol("membership").neighbors()))
                  for n in nodes),
        )

    def test_identical_seeds_identical_worlds(self):
        assert self._run_gossip_world(17) == self._run_gossip_world(17)

    def test_different_seeds_differ(self):
        assert self._run_gossip_world(17) != self._run_gossip_world(18)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=5, deadline=None)
    def test_determinism_property(self, seed):
        assert self._run_gossip_world(seed) == self._run_gossip_world(seed)


class TestEndToEndDeterminism:
    def test_full_system_reproducible(self):
        from repro import DataDroplets, DataDropletsConfig

        def run():
            dd = DataDroplets(DataDropletsConfig(seed=23, n_storage=20, n_soft=1,
                                                 replication=3)).start(warmup=10.0)
            for i in range(5):
                dd.put(f"k{i}", {"v": i})
            dd.run_for(10.0)
            reads = tuple(str(dd.get(f"k{i}")) for i in range(5))
            return reads, dd.sim.events_processed, dd.metrics.counter_value("net.sent.total")

        assert run() == run()
