"""RangeScopedStore: sieve scoping, admission cache, repair semantics."""

from repro.common.hashing import KEYSPACE_SIZE, key_hash
from repro.redundancy import RangeRepair
from repro.redundancy.repair import RangeScopedStore
from repro.sieve import AcceptAllSieve, StaticArcSieve
from repro.sieve.base import Sieve
from repro.sim import Cluster, FixedLatency, Simulation
from repro.store import Memtable, Version, make_tombstone, make_tuple
from repro.membership.fullview import cluster_directory


def _coord(key: str) -> float:
    return key_hash(key) / KEYSPACE_SIZE


class _CountingSieve(Sieve):
    """Wraps a sieve and counts admits() evaluations (cache observability)."""

    def __init__(self, inner: Sieve):
        self.inner = inner
        self.admit_calls = 0

    def admits(self, item_id, record):
        self.admit_calls += 1
        return self.inner.admits(item_id, record)

    def range_key(self):
        return self.inner.range_key()

    def describe(self):
        return self.inner.describe()


class _SwitchableSieve(Sieve):
    """Arc sieve whose range can be moved mid-test (size-estimate drift)."""

    def __init__(self, lo: float, hi: float):
        self.arc = StaticArcSieve(lo, hi)

    def move(self, lo: float, hi: float) -> None:
        self.arc = StaticArcSieve(lo, hi)

    def admits(self, item_id, record):
        return self.arc.admits(item_id, record)

    def range_key(self):
        return self.arc.range_key()

    def describe(self):
        return self.arc.describe()


def _filled_memtable(n=80, buckets=16) -> Memtable:
    table = Memtable(buckets=buckets)
    for i in range(n):
        table.put(make_tuple(f"k{i}", {"v": i}, Version(1, 0)))
    return table


class TestScoping:
    def test_digest_contains_only_admitted_items(self):
        table = _filled_memtable()
        low = RangeScopedStore(table, StaticArcSieve(0.0, 0.5))
        high = RangeScopedStore(table, StaticArcSieve(0.5, 1.0))
        low_keys, high_keys = set(low.digest()), set(high.digest())
        assert all(_coord(k) < 0.5 for k in low_keys)
        assert all(_coord(k) >= 0.5 for k in high_keys)
        assert low_keys | high_keys == set(table.digest())
        assert not (low_keys & high_keys)

    def test_bucket_digest_unions_to_digest(self):
        table = _filled_memtable()
        store = RangeScopedStore(table, StaticArcSieve(0.25, 0.75))
        merged = store.bucket_digest(range(table.bucket_count()))
        assert merged == store.digest()

    def test_summaries_match_manual_recompute(self):
        table = _filled_memtable()
        sieve = StaticArcSieve(0.0, 0.5)
        store = RangeScopedStore(table, sieve)
        summaries = store.bucket_summaries()
        for bucket in range(table.bucket_count()):
            xor, count = 0, 0
            for key in table.bucket_keys(bucket):
                item = table.get_any(key)
                if item is None or not sieve.admits(item.key, item.record):
                    continue
                xor ^= table.fingerprint_of(key)
                count += 1
            assert summaries[bucket] == (xor, count)

    def test_apply_rejects_unadmitted_items(self):
        table = Memtable(buckets=8)
        sieve = StaticArcSieve(0.0, 0.5)
        store = RangeScopedStore(table, sieve)
        incoming = []
        for i in range(40):
            key = f"in{i}"
            incoming.append((key, Version(1, 0).packed(), ({"v": i}, False)))
        changed = store.apply(incoming)
        admitted = {k for k, _, _ in incoming if _coord(k) < 0.5}
        assert 0 < changed == len(admitted) < len(incoming)
        assert set(table.digest()) == admitted

    def test_apply_admits_tombstones_by_key(self):
        table = Memtable(buckets=8)
        store = RangeScopedStore(table, AcceptAllSieve())
        key = "dead"
        store.apply([(key, Version(2, 0).packed(), ({}, True))])
        assert table.get(key) is None
        assert table.get_any(key).tombstone


class TestAdmissionCache:
    def test_unchanged_store_serves_digest_from_cache(self):
        table = _filled_memtable()
        sieve = _CountingSieve(StaticArcSieve(0.0, 0.5))
        store = RangeScopedStore(table, sieve)
        first = store.digest()
        calls_after_build = sieve.admit_calls
        assert calls_after_build > 0
        again = store.digest()
        assert again == first
        assert sieve.admit_calls == calls_after_build  # no re-sieving
        assert store.cache_hits == 1
        assert store.cache_rebuilds == 0

    def test_mutation_refreshes_only_dirty_bucket(self):
        table = _filled_memtable(buckets=16)
        store = RangeScopedStore(table, AcceptAllSieve())
        store.digest()
        refreshes_after_build = store.cache_bucket_refreshes
        assert refreshes_after_build == table.bucket_count()
        table.put(make_tuple("fresh", {"v": 1}, Version(1, 0)))
        digest = store.digest()
        assert "fresh" in digest
        assert store.cache_bucket_refreshes == refreshes_after_build + 1
        assert store.cache_rebuilds == 0

    def test_sieve_range_change_invalidates_whole_cache(self):
        table = _filled_memtable()
        sieve = _SwitchableSieve(0.0, 0.5)
        store = RangeScopedStore(table, sieve)
        low_keys = set(store.digest())
        refreshes = store.cache_bucket_refreshes
        sieve.move(0.5, 1.0)
        high_keys = set(store.digest())
        assert store.cache_rebuilds == 1
        assert store.cache_bucket_refreshes == refreshes + table.bucket_count()
        assert all(_coord(k) >= 0.5 for k in high_keys)
        assert not (low_keys & high_keys)
        assert low_keys | high_keys == set(table.digest())

    def test_summaries_track_sieve_change(self):
        table = _filled_memtable()
        sieve = _SwitchableSieve(0.0, 0.5)
        store = RangeScopedStore(table, sieve)
        before = store.bucket_summaries()
        sieve.move(0.0, 1.0)
        after = store.bucket_summaries()
        assert after != before
        assert sum(count for _, count in after) == len(table.digest())


def _repair_pair(make_sieve, seed=41, buckets=32, period=1.0):
    """Two-node cluster wired for direct range repair (no census)."""
    sim = Simulation(seed=seed)
    cluster = Cluster(sim, latency=FixedLatency(0.01))
    directory = cluster_directory(cluster)
    memtables = []

    def factory(node):
        memtable = node.durable.setdefault("memtable", Memtable(buckets=buckets))
        memtables.append(memtable)
        sieve = make_sieve(len(memtables) - 1)
        peer_source = lambda me=node.node_id: [p for p in directory() if p != me]
        return [RangeRepair(memtable, sieve, peer_source, period=period)]

    cluster.add_nodes(2, factory)
    return sim, cluster, memtables


class TestRangeRepairSemantics:
    def test_tombstone_propagates_through_range_repair(self):
        sim, cluster, (a, b) = _repair_pair(lambda i: AcceptAllSieve())
        a.put(make_tuple("doomed", {"v": 1}, Version(1, 0)))
        a.put(make_tuple("kept", {"v": 2}, Version(1, 0)))
        b.put(make_tombstone("doomed", Version(2, 0)))
        sim.run_for(15.0)
        # the deletion wins everywhere; the live item replicates
        for table in (a, b):
            assert table.get("doomed") is None
            assert table.get_any("doomed").tombstone
            assert table.get_any("doomed").version.sequence == 2
            assert table.get("kept").record == {"v": 2}

    def test_repair_does_not_store_items_outside_the_sieve(self):
        arcs = [StaticArcSieve(0.0, 1.0), StaticArcSieve(0.0, 0.5)]
        sim, cluster, (a, b) = _repair_pair(lambda i: arcs[i])
        for i in range(60):
            a.put(make_tuple(f"k{i}", {"v": i}, Version(1, 0)))
        sim.run_for(15.0)
        wanted = {k for k in a.digest() if _coord(k) < 0.5}
        assert set(b.digest()) == wanted
        assert 0 < len(wanted) < len(a.digest())

    def test_same_sieve_pair_converges_identically(self):
        sim, cluster, (a, b) = _repair_pair(lambda i: StaticArcSieve(0.0, 0.5))
        # seed only keys the shared sieve admits, split across the nodes
        seeded = 0
        for i in range(400):
            key = f"k{i}"
            if _coord(key) >= 0.5:
                continue
            (a if seeded % 2 else b).put(make_tuple(key, {"v": i}, Version(1, 0)))
            seeded += 1
            if seeded == 40:
                break
        sim.run_for(15.0)
        assert seeded == 40
        assert a.digest() == b.digest()
        assert all(_coord(k) < 0.5 for k in a.digest())
        # every summary was comparable (same bucket count on both sides)
        assert cluster.metrics.counter_value("antientropy.bucket_count_mismatch") == 0
        assert cluster.metrics.counter_value("net.bytes.range-repair.digest") > 0
