"""Unit-level tests of the storage-node protocol internals."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import DataDroplets, DataDropletsConfig, IndexSpec
from repro.store.memtable import Memtable
from repro.store.tuples import Version, VersionedTuple


@pytest.fixture(scope="module")
def system():
    dd = DataDroplets(DataDropletsConfig(
        seed=66, n_storage=40, n_soft=2, replication=4,
        indexes=(IndexSpec("v", lo=0, hi=100),),
    )).start(warmup=20.0)
    for i in range(30):
        dd.put(f"it:{i}", {"v": float(i * 3 % 100)})
    dd.run_for(40.0)
    return dd


class TestStorageProtocolWiring:
    def test_every_node_runs_the_full_stack(self):
        # One push-sum and one size estimator, whatever the number of
        # indexes (max/min ride the estimator's table): a further index
        # costs one T-Man and no gossip estimator.
        for attributes, size in (((), 8), (("v",), 9), (("v", "w"), 10)):
            dd = DataDroplets(DataDropletsConfig(
                seed=66, n_storage=6, n_soft=1, replication=2,
                indexes=tuple(IndexSpec(a, lo=0, hi=100) for a in attributes),
            )).start(warmup=1.0)
            expected = ["membership", "size-estimator", "gossip", "random-walk",
                        "redundancy", "range-repair"]
            expected += [f"tman:{a}" for a in attributes] + ["push-sum:agg"]
            names = list(dd.storage_nodes[0]._protocols)
            assert names == expected + ["storage"]
            assert len(names) == size

    def test_memtable_persists_across_reboot(self, system):
        node = next(n for n in system.storage_nodes if len(n.durable["memtable"]) > 0)
        before = len(node.durable["memtable"])
        node.crash()
        node.boot()
        assert len(node.durable["memtable"]) == before

    def test_acks_create_hints_at_coordinator(self, system):
        system.put("wired", {"v": 5.0})
        system.run_for(5.0)
        coordinator = system.ring.coordinator_for("wired")
        soft = next(n for n in system.soft_nodes if n.node_id == coordinator).protocol("soft")
        hints = soft.metadata["wired"].hints
        assert hints
        for hint in hints:
            holder = next(n for n in system.storage_nodes if n.node_id == hint)
            assert "wired" in holder.durable["memtable"]


class TestCorrectedContributions:
    def test_corrected_count_sums_to_distinct_items(self, system):
        total = sum(
            node.protocol("storage").local_aggregates()["count"][0]
            for node in system.storage_nodes if node.is_up
        )
        distinct = len({
            item.key
            for node in system.storage_nodes if node.is_up
            for item in node.durable["memtable"].items()
        })
        # census-corrected contributions approximate the distinct count
        assert abs(total - distinct) / distinct < 0.6

    def test_corrected_sum_scales_with_values(self, system):
        node = next(n for n in system.storage_nodes
                    if n.is_up and len(n.durable["memtable"]) > 0)
        slots = node.protocol("storage").local_aggregates()
        assert list(slots) == ["count", "sum:v", "cnt:v", "bins:v"]
        assert slots["sum:v"][0] >= 0.0
        assert slots["cnt:v"][0] <= slots["count"][0] + 1e-9
        # the live histogram is the naive one: a count per replica held
        held = sum(1 for _ in node.durable["memtable"].attribute_values("v"))
        assert len(slots["bins:v"]) == 32 and sum(slots["bins:v"]) == held

    def test_local_extreme(self, system):
        node = next(n for n in system.storage_nodes
                    if n.is_up and any(True for _ in n.durable["memtable"].attribute_values("v")))
        hi, lo = node.protocol("storage").local_extremes()["v"]
        assert lo is not None and hi is not None and lo <= hi
        fresh = DataDroplets(DataDropletsConfig(
            seed=1, n_storage=4, n_soft=1, replication=2,
            indexes=(IndexSpec("v", lo=0, hi=100),),
        )).start(warmup=1.0)
        storage = fresh.storage_nodes[0].protocol("storage")
        assert storage.local_extremes() == {"v": (None, None)}


_writes = st.lists(st.tuples(
    st.sampled_from(["a", "b", "c", "d", "e"]),
    st.none() | st.booleans() | st.text(max_size=2) | st.integers(-50, 50)
    | st.floats(min_value=-1e6, max_value=1e6),
    st.sampled_from(["put", "tombstone", "drop"]),
), max_size=30)


class TestLocalExtremes:
    @given(_writes)
    def test_the_index_ends_equal_the_walk_over_the_values(self, writes):
        indexed, plain = Memtable(index_attributes=["v"]), Memtable()
        for counter, (key, value, kind) in enumerate(writes, start=1):
            for memtable in (indexed, plain):
                if kind == "drop":
                    memtable.delete(key)
                else:
                    record = {} if value is None else {"v": value}
                    memtable.put(VersionedTuple(key, Version(counter, 1), record,
                                                tombstone=kind == "tombstone"))
        values = [value for _, value in plain.attribute_values("v")]
        walk = (min(values), max(values)) if values else None
        assert indexed.attribute_range("v") == plain.attribute_range("v") == walk


class TestTombstonePropagation:
    def test_tombstone_reaches_existing_replicas(self, system):
        system.put("mortal", {"v": 42.0})
        system.run_for(10.0)
        holders = [n for n in system.storage_nodes
                   if n.is_up and "mortal" in n.durable["memtable"]]
        assert holders
        system.delete("mortal")
        system.run_for(10.0)
        for node in holders:
            if not node.is_up:
                continue
            held = node.durable["memtable"].get_any("mortal")
            if held is not None:
                assert held.tombstone

    def test_deleted_key_not_scannable(self, system):
        system.put("scan-victim", {"v": 55.5})
        system.run_for(20.0)
        system.delete("scan-victim")
        system.run_for(20.0)
        rows = system.scan("v", 55, 56)
        assert all(row["_key"] != "scan-victim" for row in rows)


class TestIndexBookkeeping:
    def test_index_buckets_tracked_for_admitted_items(self, system):
        node = next(n for n in system.storage_nodes
                    if n.is_up and n.protocol("storage")._index_buckets)
        storage = node.protocol("storage")
        for key, buckets in list(storage._index_buckets.items())[:5]:
            assert "v" in buckets
            item = node.durable["memtable"].get_any(key)
            assert item is not None

    def test_maintenance_is_idempotent_when_stable(self, system):
        def maintenance_pass():
            before = system.metrics.counter_value("storage.index_migrations")
            for node in system.storage_nodes:
                if node.is_up:
                    node.protocol("storage").run_index_maintenance()
            return system.metrics.counter_value("storage.index_migrations") - before

        system.run_for(40.0)
        maintenance_pass()  # whatever the estimate moved since the last pass
        # Nothing moved in between: a second pass finds no drift. (That
        # 40 s leave none is tests/test_open_defects.py's, ROADMAP item 20.)
        assert maintenance_pass() == 0
