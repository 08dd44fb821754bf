"""Bucketed anti-entropy: summaries and the three-phase exchange, with
the full-digest baseline (``repro.baselines.fulldigest``) beside it.

Covers the incremental-summary regression oracle (rolling == from
scratch), convergence with identical contents on the live exchange and
on the baseline, the baseline's explicit digest-truncation flag, and the
redundant-fetch skip.
"""

import random

import pytest

from repro.baselines.fulldigest import DictStore, DigestMessage, FullDigestAntiEntropy
from repro.epidemic import (
    AntiEntropy,
    BucketDigestMessage,
    BucketSummaryMessage,
    ItemsPush,
    ItemsRequest,
)
from repro.epidemic.costbench import measure_antientropy_cost
from repro.membership.fullview import StaticMembership, cluster_directory
from repro.sim import Cluster, FixedLatency, Simulation
from repro.sim.metrics import Metrics
from repro.store import Memtable, Version, make_tombstone, make_tuple


class _FakeHost:
    """Minimal Host for driving a protocol's handlers directly."""

    def __init__(self):
        from repro.common.ids import NodeId

        self.node_id = NodeId(0)
        self.now = 0.0
        self.rng = random.Random(99)
        self.metrics = Metrics()
        self.durable = {}
        self.sent = []  # (dst, protocol, message)

    def send(self, dst, protocol, message):
        self.sent.append((dst, protocol, message))

    def set_timer(self, delay, callback):
        raise AssertionError("handler tests must not arm timers")

    def protocol(self, name):
        raise KeyError(name)

    def sent_of(self, kind):
        return [m for _, _, m in self.sent if isinstance(m, kind)]


def _bound(store, protocol=AntiEntropy, **kwargs) -> "tuple[AntiEntropy, _FakeHost]":
    proto = protocol(store, **kwargs)
    host = _FakeHost()
    proto.bind(host)
    return proto, host


def _peer():
    from repro.common.ids import NodeId

    return NodeId(1)


class TestIncrementalSummaries:
    def test_rolling_summary_matches_recompute_through_mutations(self):
        table = Memtable(buckets=8)
        rng = random.Random(4)
        for step in range(400):
            key = f"k{rng.randrange(40)}"
            roll = rng.random()
            held = table.get_any(key)
            version = Version(0 if held is None else held.version.sequence + 1, 0)
            if roll < 0.55:
                table.put(make_tuple(key, {"v": step}, version))
            elif roll < 0.8:
                table.put(make_tombstone(key, version))
            else:
                table.delete(key)
            if step % 25 == 0:
                assert table.bucket_summaries() == table.recompute_bucket_summaries()
        assert table.bucket_summaries() == table.recompute_bucket_summaries()

    def test_rolling_summary_matches_recompute_after_apply(self):
        source, sink = Memtable(buckets=4), Memtable(buckets=4)
        for i in range(30):
            source.put(make_tuple(f"k{i}", {"v": i}, Version(1, 0)))
        sink.apply(source.fetch(f"k{i}" for i in range(30)))
        assert sink.bucket_summaries() == sink.recompute_bucket_summaries()
        assert sink.bucket_summaries() == source.bucket_summaries()

    def test_stale_put_leaves_summaries_untouched(self):
        table = Memtable(buckets=4)
        table.put(make_tuple("k", {"v": 1}, Version(5, 0)))
        before = (table.bucket_summaries(), table.mutation_epoch)
        assert not table.put(make_tuple("k", {"v": 0}, Version(4, 0)))
        assert (table.bucket_summaries(), table.mutation_epoch) == before

    def test_bucket_digest_scopes_to_requested_buckets(self):
        table = Memtable(buckets=4)
        for i in range(50):
            table.put(make_tuple(f"k{i}", {}, Version(1, 0)))
        per_bucket = [table.bucket_digest([b]) for b in range(4)]
        assert sum(len(d) for d in per_bucket) == 50
        merged = {}
        for digest in per_bucket:
            merged.update(digest)
        assert merged == table.digest()
        for bucket, digest in enumerate(per_bucket):
            assert all(table.bucket_of(key) == bucket for key in digest)


class TestTruncationFlag:
    """The full-digest baseline's truncation marker."""

    def test_digest_at_exact_cap_is_not_truncated(self):
        store = DictStore()
        for i in range(10):
            store.put(f"k{i}", 1, i)
        proto, host = _bound(store, FullDigestAntiEntropy, max_digest=10)
        entries, truncated = proto._digest_entries()
        assert len(entries) == 10 and not truncated
        assert list(entries) == sorted(entries)

    def test_oversize_digest_is_truncated_and_sorted(self):
        store = DictStore()
        for i in range(25):
            store.put(f"k{i}", 1, i)
        proto, host = _bound(store, FullDigestAntiEntropy, max_digest=10)
        entries, truncated = proto._digest_entries()
        assert len(entries) == 10 and truncated
        assert list(entries) == sorted(entries)

    def test_untruncated_full_width_digest_still_gets_absence_pushes(self):
        # The old inference (len(remote) < max_digest) treated a digest of
        # exactly max_digest entries as truncated, suppressing the push of
        # items the peer demonstrably lacks.
        store = DictStore()
        store.put("mine", 7, "payload")
        proto, host = _bound(store, FullDigestAntiEntropy, max_digest=10)
        remote = tuple((f"r{i}", 1) for i in range(10))  # exactly the cap
        proto.on_message(_peer(), DigestMessage(remote, is_reply=True, truncated=False))
        pushes = host.sent_of(ItemsPush)
        assert len(pushes) == 1
        assert pushes[0].items == (("mine", 7, "payload"),)

    def test_truncated_digest_suppresses_absence_pushes(self):
        store = DictStore()
        store.put("mine", 7, "payload")
        proto, host = _bound(store, FullDigestAntiEntropy, max_digest=10)
        remote = tuple((f"r{i}", 1) for i in range(10))
        proto.on_message(_peer(), DigestMessage(remote, is_reply=True, truncated=True))
        assert host.sent_of(ItemsPush) == []
        # it still pulls what the truncated digest shows as newer
        assert len(host.sent_of(ItemsRequest)) == 1


class TestRedundantFetchSkip:
    def test_equal_version_request_is_skipped_and_counted(self):
        store = Memtable()
        store.put(make_tuple("k", {"v": 1}, Version(3, 0)))
        proto, host = _bound(store)
        proto.on_message(_peer(), ItemsRequest((("k", Version(3, 0).packed()),)))
        assert host.sent_of(ItemsPush) == []
        assert host.metrics.counter_value("antientropy.redundant_fetches") == 1

    def test_newer_version_is_shipped(self):
        store = Memtable()
        store.put(make_tuple("k", {"v": 1}, Version(5, 0)))
        proto, host = _bound(store)
        proto.on_message(_peer(), ItemsRequest((("k", Version(3, 0).packed()), ("absent", -1))))
        pushes = host.sent_of(ItemsPush)
        assert pushes and pushes[0].items == tuple(store.fetch(["k"]))
        assert host.metrics.counter_value("antientropy.redundant_fetches") == 0

    def test_memtable_fetch_newer_skips_before_copying(self):
        table = Memtable()
        table.put(make_tuple("k", {"v": 1}, Version(2, 0)))
        items, skipped = table.fetch_newer([("k", Version(2, 0).packed()), ("gone", -1)])
        assert items == [] and skipped == 1
        items, skipped = table.fetch_newer([("k", Version(1, 0).packed())])
        assert skipped == 0 and items[0][0] == "k"


def _two_node_cluster(make_store, make_protocol, seed=31):
    sim = Simulation(seed=seed)
    cluster = Cluster(sim, latency=FixedLatency(0.01))
    stores = []

    def factory(node):
        store = make_store(len(stores))
        stores.append(store)
        return [StaticMembership(cluster_directory(cluster)), make_protocol(store)]

    cluster.add_nodes(2, factory)
    return sim, cluster, stores


def _memtable_snapshot(table):
    return {
        item.key: (item.version.packed(), dict(item.record), item.tombstone)
        for item in table.all_items()
    }


class TestBucketedExchange:
    def test_bucketed_memtables_converge_identically(self):
        sim, cluster, stores = _two_node_cluster(
            lambda i: Memtable(buckets=32),
            lambda s: AntiEntropy(s, period=1.0),
        )
        a, b = stores
        for i in range(60):
            item = make_tuple(f"k{i}", {"v": i}, Version(1, 0))
            a.put(item)
            if i % 5:
                b.put(item)
        b.put(make_tombstone("k7", Version(2, 0)))  # b knows a deletion a lacks
        sim.run_for(20.0)
        assert _memtable_snapshot(a) == _memtable_snapshot(b)
        assert cluster.metrics.counter_value("antientropy.bucket_count_mismatch") == 0
        assert cluster.metrics.counter_value("net.bytes.anti-entropy.digest") > 0
        assert a.get("k7") is None and a.get_any("k7").tombstone

    def test_clean_rounds_send_no_bucket_digests(self):
        sim, cluster, stores = _two_node_cluster(
            lambda i: Memtable(buckets=32),
            lambda s: AntiEntropy(s, period=1.0),
        )
        item = make_tuple("k", {"v": 1}, Version(1, 0))
        for store in stores:
            store.put(item)
        sim.run_for(10.0)
        assert cluster.metrics.counter_value("antientropy.rounds_clean") > 0
        assert cluster.metrics.counter_value("antientropy.buckets_diverged") == 0
        assert cluster.metrics.counter_value("net.bytes.anti-entropy.items") == 0

    def test_bucket_count_mismatch_is_counted_and_never_reconciles(self):
        sim, cluster, stores = _two_node_cluster(
            lambda i: Memtable(buckets=16 if i == 0 else 64),
            lambda s: AntiEntropy(s, period=1.0),
        )
        a, b = stores
        for i in range(20):
            a.put(make_tuple(f"k{i}", {"v": i}, Version(1, 0)))
        sim.run_for(20.0)
        assert len(a) == 20 and len(b) == 0
        rounds = cluster.metrics.counter_value("antientropy.rounds")
        assert cluster.metrics.counter_value("antientropy.bucket_count_mismatch") == rounds > 0
        assert cluster.metrics.counter_value("net.sent.anti-entropy.items") == 0

    def test_forced_legacy_on_bucketed_store(self):
        sim, cluster, stores = _two_node_cluster(
            lambda i: Memtable(buckets=32),
            lambda s: FullDigestAntiEntropy(s, period=1.0),
        )
        a, b = stores
        a.put(make_tuple("k", {"v": 1}, Version(1, 0)))
        sim.run_for(10.0)
        assert _memtable_snapshot(a) == _memtable_snapshot(b)
        # the baseline: full digests, never summaries
        assert cluster.metrics.counter_value("net.sent.anti-entropy.digest") > 0
        assert cluster.metrics.counter_value("antientropy.rounds_clean") == 0

    def test_baseline_converges_plain_stores(self):
        sim, cluster, stores = _two_node_cluster(
            lambda i: DictStore(),
            lambda s: FullDigestAntiEntropy(s, period=1.0),
        )
        a, b = stores
        for i in range(20):
            a.put(f"k{i}", 1, i)
        b.put("k3", 2, "newer")
        sim.run_for(10.0)
        assert a.digest() == b.digest() and a.items == b.items

    def test_summary_message_ignored_without_divergence_effects(self):
        # A summary over another bucket grid is counted and dropped:
        # nothing is sent back, nothing is inferred from it.
        store = Memtable(buckets=16)
        store.put(make_tuple("k", {"v": 1}, Version(1, 0)))
        proto, host = _bound(store)
        proto.on_message(_peer(), BucketSummaryMessage(32, bytes(4), ()))
        assert host.sent == []
        assert host.metrics.counter_value("antientropy.bucket_count_mismatch") == 1
        assert host.metrics.counter_value("antientropy.buckets_diverged") == 0
        # the same summary over our own grid is answered
        proto.on_message(_peer(), BucketSummaryMessage(16, bytes(2), ()))
        assert len(host.sent_of(BucketDigestMessage)) == 1

    @pytest.mark.parametrize("present, summaries", [
        (b"\x00", ()),                                   # too short for 12 buckets
        (b"\x00\x00\x00", ()),                           # too long
        (b"\x00\x10", ((5, 1),)),                         # flags bucket 12 of 12
        (b"\x01\x00", ()),                               # flags 1, carries 0
        (b"\x00\x00", ((5, 1),)),                         # flags 0, carries 1
        ("\x00\x00", ()),                                # not bytes
    ])
    def test_malformed_presence_mask_is_counted_and_dropped(self, present, summaries):
        store = Memtable(buckets=12)
        store.put(make_tuple("k", {"v": 1}, Version(1, 0)))
        proto, host = _bound(store)
        proto.on_message(_peer(), BucketSummaryMessage(12, present, summaries))
        assert host.sent == []
        assert host.metrics.counter_value("antientropy.bucket_count_mismatch") == 1
        assert host.metrics.counter_value("antientropy.buckets_diverged") == 0


class TestEndToEndCost:
    @pytest.mark.parametrize("bucketed", [False, True])
    def test_paths_converge_identically(self, bucketed):
        cell = measure_antientropy_cost(400, 0.05, bucketed=bucketed, buckets=64, periods=6)
        assert cell["identical"]
        assert cell["converged_at"] is not None

    def test_bucketed_ships_fewer_digest_bytes(self):
        legacy = measure_antientropy_cost(800, 0.01, bucketed=False)
        bucketed = measure_antientropy_cost(800, 0.01, bucketed=True)
        assert bucketed["digest_bytes"] < legacy["digest_bytes"]
