"""Batched sieve admission: bit-exact parity with the scalar path.

The batch planner exists purely for speed — any disagreement with
``sieve.admits`` on any key silently changes replica placement, so every
test here is ultimately one assertion: batch == scalar, across sieve
types and adversarial ring coordinates.
"""

from __future__ import annotations

import pytest

from repro.common.ids import NodeId
from repro.sieve import (
    AcceptAllSieve,
    AcceptNothingSieve,
    BucketSieve,
    CapacityScaledSieve,
    StaticArcSieve,
    UniformSieve,
    UnionSieve,
)
from repro.sieve.vectorized import BatchAdmission, measure_admission
from repro.store.tuples import Version, VersionedTuple


def _items(n: int = 400):
    return [(f"key-{i}", {"score": float(i % 97)}) for i in range(n)]


def _sieves():
    estimate = lambda: 500.0  # noqa: E731 - tiny fixed estimate
    return [
        AcceptAllSieve(),
        AcceptNothingSieve(),
        BucketSieve(NodeId(7), replication=8, size_estimate_fn=estimate),
        CapacityScaledSieve(NodeId(7), replication=8, size_estimate_fn=estimate,
                            capacity=2.5),
        StaticArcSieve(0.2, 0.45),
        StaticArcSieve(0.9, 0.1),  # wrap-around arc
        UnionSieve(
            StaticArcSieve(0.0, 0.1),
            BucketSieve(NodeId(3), replication=8, size_estimate_fn=estimate)),
        # not special-cased by the planner -> exercises the scalar fallback
        UniformSieve(NodeId(5), replication=8, size_estimate_fn=estimate),
    ]


class TestParity:
    def test_all_sieve_types_match_scalar(self):
        items = _items()
        for sieve in _sieves():
            batch = BatchAdmission(sieve)
            expected = [sieve.admits(item_id, record) for item_id, record in items]
            assert batch.admits_batch(items) == expected, sieve.describe()

    def test_boundary_coordinates(self):
        # coords landing exactly on arc edges, and outside [0, 1) before
        # the modulo, are where a batched sweep could diverge
        sieve = StaticArcSieve(0.25, 0.75, key_fn=lambda item_id, record: record["c"])
        coords = [0.0, 0.25, 0.25 - 1e-16, 0.5, 0.75, 0.75 - 1e-16, 0.999999, 1.0, 1.5, -0.25]
        items = [(f"k{i}", {"c": c}) for i, c in enumerate(coords)]
        batch = BatchAdmission(sieve)
        assert batch.admits_batch(items) == [
            sieve.admits(item_id, record) for item_id, record in items]

    def test_live_size_estimate_reresolved_per_batch(self):
        estimate = {"n": 100.0}
        sieve = BucketSieve(NodeId(2), replication=4,
                            size_estimate_fn=lambda: estimate["n"])
        batch = BatchAdmission(sieve)
        items = _items(200)
        for n in (100.0, 3200.0):  # grid jumps from 32 to 1024 buckets
            estimate["n"] = n
            assert batch.admits_batch(items) == [
                sieve.admits(item_id, record) for item_id, record in items]

    def test_empty_batch(self):
        batch = BatchAdmission(AcceptAllSieve())
        assert batch.admits_batch([]) == []


class TestCoordinateMemo:
    def test_default_key_fn_is_memoised(self):
        sieve = BucketSieve(NodeId(1), replication=4, size_estimate_fn=lambda: 64.0)
        batch = BatchAdmission(sieve)
        items = _items(50)
        batch.admits_batch(items)
        assert len(batch._coord_cache) == 50
        cached = dict(batch._coord_cache)
        batch.admits_batch(items)  # steady state: no re-hashing, same values
        assert batch._coord_cache == cached

    def test_record_dependent_key_fn_is_not_memoised(self):
        sieve = StaticArcSieve(0.0, 0.5, key_fn=lambda item_id, record: record["c"])
        batch = BatchAdmission(sieve)
        out1 = batch.admits_batch([("k", {"c": 0.1})])
        out2 = batch.admits_batch([("k", {"c": 0.9})])  # same key, moved record
        assert out1 == [True] and out2 == [False]
        assert not batch._coord_cache


class TestStoreIntegration:
    """RangeScopedStore batches admission; results must not change."""

    def _store_pair(self, n_items: int):
        from repro.epidemic.antientropy import AntiEntropyStore  # noqa: F401 - import check
        from repro.redundancy.repair import RangeScopedStore
        from repro.store.memtable import Memtable

        sieve = BucketSieve(NodeId(4), replication=8, size_estimate_fn=lambda: 64.0)
        memtable = Memtable(buckets=16)
        for i in range(n_items):
            memtable.put(VersionedTuple(
                key=f"it-{i}", version=Version(1), record={"v": i}))
        return RangeScopedStore(memtable, sieve), sieve, memtable

    @pytest.mark.parametrize("n_items", [8, 200])  # below and above _BATCH_MIN
    def test_digest_matches_per_item_admission(self, n_items):
        store, sieve, memtable = self._store_pair(n_items)
        digest = store.digest()
        expected = {
            key for key in (f"it-{i}" for i in range(n_items))
            if sieve.admits(key, memtable.get(key).record)
        }
        assert set(digest) == expected

    def test_apply_batches_and_filters_identically(self):
        store, sieve, memtable = self._store_pair(0)
        incoming = [
            (f"in-{i}", Version(2).packed(), ({"v": i}, False)) for i in range(80)
        ]
        changed = store.apply(incoming)
        admitted = [key for key, _, payload in incoming if sieve.admits(key, payload[0])]
        assert changed == len(admitted)
        assert all(memtable.get(key) is not None for key in admitted)
        assert sum(1 for key, _, _ in incoming if memtable.get(key)) == len(admitted)


class TestMeasurement:
    def test_measure_admission_smoke(self):
        out = measure_admission(n_keys=3000, repeats=1)
        assert out["identical"]
        assert out["n_keys"] == 3000
        assert out["scalar_seconds"] > 0
        assert out["speedup"] > 0
