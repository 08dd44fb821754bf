"""Tests for composite sieves and storage under capacity pressure."""

import pytest

from repro import DataDroplets, DataDropletsConfig, IndexSpec
from repro.common.ids import NodeId
from repro.estimation import DistributionEstimate
from repro.sieve import (
    BucketSieve,
    DistributionAwareSieve,
    TagSieve,
    UnionSieve,
    coverage_report,
    prefix_tag,
)
from tests.conftest import assert_acked_means_stored, put_each


class TestProductionComposite:
    """The union sieve the storage stack actually builds: primary
    placement + one distribution-aware index."""

    def _population(self, n=128, r=8):
        estimate = DistributionEstimate(0.0, 100.0, tuple([1 / 16] * 16))
        sieves = []
        for i in range(n):
            primary = BucketSieve(NodeId(i), r, lambda: n)
            index = DistributionAwareSieve(
                NodeId(i), "v", r, lambda: n,
                distribution_fn=lambda e=estimate: e,
                fallback_lo=0, fallback_hi=100,
            )
            sieves.append(UnionSieve(primary, index))
        return sieves

    def test_coverage_of_both_dimensions(self):
        sieves = self._population()
        rows = [(f"k{i}", {"v": float(i % 100)}) for i in range(1500)]
        report = coverage_report(sieves, rows)
        assert report.coverage == 1.0
        # union replication ~= primary r' + index r' (both over-provision)
        assert report.mean_replication >= 8

    def test_attribute_less_items_still_covered(self):
        sieves = self._population()
        rows = [(f"k{i}", {}) for i in range(800)]  # no "v" field
        report = coverage_report(sieves, rows)
        assert report.coverage == 1.0  # primary placement suffices

    def test_union_admits_when_either_admits(self):
        sieves = self._population(n=16, r=4)
        union = sieves[0]
        primary, index = union.sieves
        for i in range(200):
            key, record = f"k{i}", {"v": float(i % 100)}
            assert union.admits(key, record) == (
                primary.admits(key, record) or index.admits(key, record)
            )

    def test_tag_plus_index_composite(self):
        n, r = 64, 8
        estimate = DistributionEstimate(0.0, 100.0, tuple([1 / 8] * 8))
        sieves = [
            UnionSieve(
                TagSieve(NodeId(i), r, lambda: n, prefix_tag()),
                DistributionAwareSieve(NodeId(i), "v", r, lambda: n,
                                       distribution_fn=lambda e=estimate: e,
                                       fallback_lo=0, fallback_hi=100),
            )
            for i in range(n)
        ]
        rows = [(f"user{u}:e{e}", {"v": float((u * 7 + e) % 100)})
                for u in range(30) for e in range(4)]
        report = coverage_report(sieves, rows)
        assert report.coverage == 1.0
        # collocation is preserved through the union: a user's events
        # share at least the tag-sieve holders
        for user in (0, 7, 19):
            holder_sets = []
            for event in range(4):
                key = f"user{user}:e{event}"
                record = {"v": float((user * 7 + event) % 100)}
                tags = {
                    i for i, s in enumerate(sieves)
                    if s.sieves[0].admits(key, record)
                }
                holder_sets.append(tags)
            assert holder_sets[0] == holder_sets[1] == holder_sets[2] == holder_sets[3]


class TestCapacityPressure:
    def test_full_nodes_reject_new_keys_but_system_serves(self):
        dd = DataDroplets(DataDropletsConfig(
            seed=61, n_storage=30, n_soft=1, replication=5,
            memtable_capacity=12,
        )).start(warmup=15.0)
        versions = put_each(dd, ((f"k{i}", {"v": i}) for i in range(40)))
        dd.run_for(20.0)
        rejected = sum(n.durable["memtable"].rejected_puts for n in dd.storage_nodes)
        assert rejected > 0  # capacity pressure is real
        refused = [key for key, version in versions.items() if version is None]
        assert refused  # some keys found every admitting memtable full
        assert_acked_means_stored(dd, versions)
        for node in dd.storage_nodes:
            assert len(node.durable["memtable"]) <= 12
        # every acked put is served
        assert all(dd.get(key) == {"v": int(key[1:])}
                   for key, version in versions.items() if version is not None)

    def test_capacity_zero_config_rejected(self):
        from repro.store import Memtable

        with pytest.raises(ValueError):
            Memtable(capacity=0)

    def test_capacity_bounds_respected_under_load(self):
        dd = DataDroplets(DataDropletsConfig(
            seed=62, n_storage=20, n_soft=1, replication=4,
            memtable_capacity=10,
        )).start(warmup=15.0)
        versions = put_each(dd, ((f"k{i}", {"v": i}) for i in range(60)))
        dd.run_for(30.0)
        assert any(version is None for version in versions.values())
        assert_acked_means_stored(dd, versions)
        for node in dd.storage_nodes:
            assert len(node.durable["memtable"]) <= 10
