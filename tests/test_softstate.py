"""Tests for the soft-state layer primitives (ring, cache)."""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.ids import NodeId
from repro.softstate import ConsistentHashRing, TupleCache, build_ring
from repro.store import Version, make_tombstone, make_tuple


class TestConsistentHashRing:
    def ring(self, members=4, virtual_nodes=32):
        return build_ring([NodeId(i) for i in range(members)], virtual_nodes)

    def test_every_key_has_a_coordinator(self):
        ring = self.ring()
        for i in range(100):
            assert ring.coordinator_for(f"key:{i}") is not None

    def test_deterministic_assignment(self):
        a, b = self.ring(), self.ring()
        for i in range(50):
            assert a.coordinator_for(f"k{i}") == b.coordinator_for(f"k{i}")

    def test_load_roughly_balanced(self):
        ring = self.ring(members=4, virtual_nodes=64)
        counts = collections.Counter(ring.coordinator_for(f"k{i}") for i in range(4000))
        assert min(counts.values()) > 500  # no starved member

    def test_remove_moves_only_affected_keys(self):
        ring = self.ring(members=5)
        before = {f"k{i}": ring.coordinator_for(f"k{i}") for i in range(500)}
        ring.remove(NodeId(0))
        moved = 0
        for key, owner in before.items():
            after = ring.coordinator_for(key)
            if owner == NodeId(0):
                assert after != NodeId(0)
            elif after != owner:
                moved += 1
        assert moved == 0  # consistent hashing: untouched keys stay put

    def test_down_member_skipped_until_back(self):
        ring = self.ring(members=3)
        key = next(f"k{i}" for i in range(100) if ring.coordinator_for(f"k{i}") == NodeId(1))
        ring.set_alive(NodeId(1), False)
        assert ring.coordinator_for(key) != NodeId(1)
        assert ring.coordinator_for(key, alive_only=False) == NodeId(1)
        ring.set_alive(NodeId(1), True)
        assert ring.coordinator_for(key) == NodeId(1)

    def test_successors_distinct_and_ordered(self):
        ring = self.ring(members=5)
        successors = ring.successors_for("k", 3)
        assert len(successors) == len(set(successors)) == 3

    def test_successors_capped_at_membership(self):
        ring = self.ring(members=2)
        assert len(ring.successors_for("k", 10)) == 2

    def test_empty_ring(self):
        ring = ConsistentHashRing()
        assert ring.coordinator_for("k") is None
        assert ring.successors_for("k", 3) == []

    def test_owns(self):
        ring = self.ring()
        key = "users:1"
        owner = ring.coordinator_for(key)
        assert ring.owns(owner, key)
        other = next(m for m in ring.members() if m != owner)
        assert not ring.owns(other, key)

    def test_responsibility_arcs_cover_keys(self):
        from repro.common.hashing import key_hash

        ring = self.ring(members=3, virtual_nodes=16)
        for i in range(200):
            key = f"k{i}"
            owner = ring.coordinator_for(key)
            arcs = ring.responsibility_of(owner)
            assert any(arc.contains(key_hash(key)) for arc in arcs)

    def test_add_idempotent(self):
        ring = self.ring(members=2, virtual_nodes=8)
        positions_before = len(ring._positions)
        ring.add(NodeId(0))
        assert len(ring._positions) == positions_before

    def test_virtual_nodes_validation(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(virtual_nodes=0)

    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=500))
    @settings(max_examples=50)
    def test_coordinator_always_a_member(self, members, key_index):
        ring = self.ring(members=members)
        owner = ring.coordinator_for(f"key:{key_index}")
        assert owner in ring.members()

    # -- coordinator memoisation (keyed on the mutation epoch) ---------
    def test_mutation_epoch_tracks_real_changes_only(self):
        ring = self.ring(members=3)
        epoch = ring.mutation_epoch
        ring.add(NodeId(1))  # already a member: no-op
        ring.set_alive(NodeId(1), True)  # already alive: no-op
        assert ring.mutation_epoch == epoch
        ring.set_alive(NodeId(1), False)
        assert ring.mutation_epoch == epoch + 1
        ring.add(NodeId(99))
        ring.remove(NodeId(99))
        assert ring.mutation_epoch == epoch + 3

    def test_memoised_lookups_invalidate_on_every_mutation_kind(self):
        ring = self.ring(members=4)
        keys = [f"memo:{i}" for i in range(200)]
        for key in keys:
            ring.coordinator_for(key)  # populate the cache
        for mutate in (
            lambda: ring.set_alive(NodeId(0), False),
            lambda: ring.remove(NodeId(1)),
            lambda: ring.add(NodeId(50)),
            lambda: ring.set_alive(NodeId(0), True),
        ):
            mutate()
            fresh = build_ring(ring.members(), ring.virtual_nodes)
            for member in ring.members():
                fresh.set_alive(member, member in ring.alive_members())
            for key in keys:
                assert ring.coordinator_for(key) == fresh.coordinator_for(key)
                assert ring.coordinator_for(key, alive_only=False) == \
                    fresh.coordinator_for(key, alive_only=False)

    def test_repeated_lookup_hits_cache(self):
        ring = self.ring(members=4)
        first = ring.coordinator_for("cached:key")
        assert ring._coord_cache.get("cached:key", "absent") == first
        assert ring.coordinator_for("cached:key") == first

    def test_virtual_positions_shared_across_rings(self):
        from repro.softstate import virtual_positions

        a = virtual_positions(7, 16)
        assert virtual_positions(7, 16) is a  # process-wide memo
        ring_a, ring_b = self.ring(members=2, virtual_nodes=16), \
            self.ring(members=2, virtual_nodes=16)
        assert ring_a._positions == ring_b._positions


class TestTupleCache:
    def test_put_get_hit(self):
        cache = TupleCache(capacity=4)
        item = make_tuple("k", {"x": 1}, Version(1, 0))
        cache.put(item)
        assert cache.get("k") == item
        assert cache.hits == 1

    def test_miss_counted(self):
        cache = TupleCache(capacity=4)
        assert cache.get("nope") is None
        assert cache.misses == 1

    def test_lru_eviction(self):
        cache = TupleCache(capacity=2)
        cache.put(make_tuple("a", {}, Version(1, 0)))
        cache.put(make_tuple("b", {}, Version(1, 0)))
        cache.get("a")  # refresh a
        cache.put(make_tuple("c", {}, Version(1, 0)))
        assert "a" in cache
        assert "b" not in cache

    def test_never_caches_older(self):
        cache = TupleCache(capacity=4)
        cache.put(make_tuple("k", {"x": 2}, Version(2, 0)))
        cache.put(make_tuple("k", {"x": 1}, Version(1, 0)))
        assert cache.get("k").record["x"] == 2

    def test_required_version_purges_stale(self):
        cache = TupleCache(capacity=4)
        cache.put(make_tuple("k", {"x": 1}, Version(1, 0)))
        assert cache.get("k", required_version=Version(2, 0)) is None
        assert cache.stale_evictions == 1
        assert "k" not in cache

    def test_required_version_accepts_current(self):
        cache = TupleCache(capacity=4)
        cache.put(make_tuple("k", {"x": 1}, Version(3, 0)))
        assert cache.get("k", required_version=Version(3, 0)) is not None

    def test_tombstone_returned_as_authoritative(self):
        cache = TupleCache(capacity=4)
        cache.put(make_tombstone("k", Version(2, 0)))
        entry = cache.get("k")
        assert entry is not None and entry.tombstone

    def test_hit_rate(self):
        cache = TupleCache(capacity=4)
        cache.put(make_tuple("k", {}, Version(1, 0)))
        cache.get("k")
        cache.get("missing")
        assert cache.hit_rate == pytest.approx(0.5)

    def test_invalidate_and_clear(self):
        cache = TupleCache(capacity=4)
        cache.put(make_tuple("k", {}, Version(2, 0)))
        cache.invalidate("k", Version(1, 0))  # a newer entry stays
        assert "k" in cache
        cache.invalidate("k", Version(2, 0))
        assert "k" not in cache
        cache.put(make_tuple("k2", {}, Version(1, 0)))
        cache.clear()
        assert len(cache) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TupleCache(capacity=0)
