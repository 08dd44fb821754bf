"""Tests for sieve functions and coverage checking."""

import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.ids import NodeId
from repro.estimation import DistributionEstimate
from repro.sieve import (
    AcceptAllSieve,
    AcceptNothingSieve,
    BucketSieve,
    CapacityScaledSieve,
    DistributionAwareSieve,
    StaticArcSieve,
    TagSieve,
    UniformSieve,
    UnionSieve,
    bucket_count_for,
    coverage_report,
    field_tag,
    node_position,
    prefix_tag,
    range_population,
)


def items(n, record=None):
    return [(f"key:{i}", record or {}) for i in range(n)]


class TestBaseSieves:
    def test_accept_all(self):
        sieve = AcceptAllSieve()
        assert sieve.admits("k", {})
        assert sieve.range_key() is None
        assert "accept-all" in sieve.describe()

    def test_accept_nothing(self):
        assert not AcceptNothingSieve().admits("k", {})

    def test_union_any(self):
        union = UnionSieve(AcceptNothingSieve(), AcceptAllSieve())
        assert union.admits("k", {})
        assert "|" in union.describe()

    def test_union_empty_rejected(self):
        with pytest.raises(ValueError):
            UnionSieve()

    def test_union_range_key(self):
        assert UnionSieve(AcceptNothingSieve()).range_key() is None
        bucket = BucketSieve(NodeId(1), 2, lambda: 10)
        union = UnionSieve(AcceptNothingSieve(), bucket)
        assert union.range_key() == (None, bucket.range_key())


class TestUniformSieve:
    def test_expected_fraction(self):
        n_est = 100
        sieve = UniformSieve(NodeId(1), 5, lambda: n_est)
        kept = sum(1 for key, rec in items(5000) if sieve.admits(key, rec))
        assert abs(kept / 5000 - 0.05) < 0.015

    def test_deterministic_per_item(self):
        sieve = UniformSieve(NodeId(1), 5, lambda: 100)
        decisions = [sieve.admits(f"k{i}", {}) for i in range(100)]
        assert decisions == [sieve.admits(f"k{i}", {}) for i in range(100)]

    def test_decisions_independent_across_nodes(self):
        a = UniformSieve(NodeId(1), 50, lambda: 100)
        b = UniformSieve(NodeId(2), 50, lambda: 100)
        both = sum(1 for key, rec in items(2000) if a.admits(key, rec) and b.admits(key, rec))
        assert abs(both / 2000 - 0.25) < 0.06  # ~= p^2: independent

    def test_probability_caps_at_one(self):
        sieve = UniformSieve(NodeId(1), 10, lambda: 2)
        assert sieve.retention_probability() == 1.0
        assert all(sieve.admits(k, r) for k, r in items(50))

    def test_no_range_key(self):
        assert UniformSieve(NodeId(1), 3, lambda: 10).range_key() is None

    def test_invalid_replication(self):
        with pytest.raises(ValueError):
            UniformSieve(NodeId(1), 0, lambda: 10)


class TestBucketSieve:
    def test_bucket_count_power_of_two(self):
        for n, r in ((100, 4), (1000, 3), (10, 10)):
            count = bucket_count_for(n, r)
            assert count & (count - 1) == 0  # power of two
            assert n / count >= r * 0.99  # floor biases toward extra replicas

    def test_admits_only_own_bucket(self):
        sieve = BucketSieve(NodeId(1), 2, lambda: 64)
        admitted = [k for k, r in items(2000) if sieve.admits(k, r)]
        buckets = {sieve.item_bucket(k, {}) for k in admitted}
        assert buckets == {sieve.bucket_index()}

    def test_population_coverage_and_replication(self):
        n, r = 256, 8
        sieves = [BucketSieve(NodeId(i), r, lambda: n) for i in range(n)]
        report = coverage_report(sieves, items(3000))
        assert report.coverage == 1.0
        assert report.mean_replication >= r
        assert report.min_replication >= 1

    def test_range_key_groups_nodes(self):
        n, r = 64, 8
        sieves = [BucketSieve(NodeId(i), r, lambda: n) for i in range(n)]
        population = range_population(sieves)
        assert sum(population.values()) == n
        assert len(population) == bucket_count_for(n, r)

    def test_adapts_to_size_estimate(self):
        estimate = {"n": 64}
        sieve = BucketSieve(NodeId(1), 4, lambda: estimate["n"])
        before = sieve.bucket_count()
        estimate["n"] = 512
        assert sieve.bucket_count() == before * 8

    def test_node_position_stable(self):
        assert node_position(NodeId(7)) == node_position(NodeId(7))
        assert node_position(NodeId(7)) != node_position(NodeId(8))

    @given(st.integers(min_value=2, max_value=2000), st.integers(min_value=1, max_value=16))
    @settings(max_examples=50)
    def test_every_item_lands_in_exactly_one_bucket(self, n_est, replication):
        sieve = BucketSieve(NodeId(3), replication, lambda: n_est)
        bucket = sieve.item_bucket("probe", {})
        assert 0 <= bucket < sieve.bucket_count()


class TestCapacityScaledSieve:
    def test_larger_capacity_stores_more(self):
        small = CapacityScaledSieve(NodeId(1), 4, lambda: 128, capacity=0.5)
        large = CapacityScaledSieve(NodeId(1), 4, lambda: 128, capacity=4.0)
        population = items(4000)
        kept_small = sum(1 for k, r in population if small.admits(k, r))
        kept_large = sum(1 for k, r in population if large.admits(k, r))
        assert kept_large > kept_small * 3

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            CapacityScaledSieve(NodeId(1), 4, lambda: 10, capacity=0)

    def test_anchored_range_key(self):
        scaled = CapacityScaledSieve(NodeId(1), 4, lambda: 128, capacity=2.0)
        assert scaled.range_key() == scaled.inner.range_key()


class TestStaticArcSieve:
    def test_plain_arc(self):
        sieve = StaticArcSieve(0.0, 0.5)
        kept = sum(1 for k, r in items(2000) if sieve.admits(k, r))
        assert abs(kept / 2000 - 0.5) < 0.05

    def test_wrapping_arc(self):
        sieve = StaticArcSieve(0.9, 0.1)
        kept = sum(1 for k, r in items(2000) if sieve.admits(k, r))
        assert abs(kept / 2000 - 0.2) < 0.04

    def test_validation(self):
        with pytest.raises(ValueError):
            StaticArcSieve(-0.1, 0.5)


class TestTagSieve:
    def _sieves(self, n=64, r=4, tag=None):
        tag = tag if tag is not None else prefix_tag()
        return [TagSieve(NodeId(i), r, lambda: n, tag) for i in range(n)]

    def test_same_tag_items_colocate(self):
        sieves = self._sieves()
        rows = [(f"user7:event{i}", {}) for i in range(20)]
        admitting_sets = []
        for key, record in rows:
            admitting_sets.append(frozenset(
                i for i, sieve in enumerate(sieves) if sieve.admits(key, record)
            ))
        assert len(set(admitting_sets)) == 1  # all events on the same nodes
        assert len(admitting_sets[0]) >= 1

    def test_different_tags_spread(self):
        sieves = self._sieves()
        sets = set()
        for user in range(20):
            key = f"user{user}:event0"
            sets.add(frozenset(i for i, s in enumerate(sieves) if s.admits(key, {})))
        assert len(sets) > 5  # tags spread across distinct node groups

    def test_field_tag(self):
        sieves = self._sieves(tag=field_tag("user"))
        a = frozenset(i for i, s in enumerate(sieves) if s.admits("x1", {"user": "u1"}))
        b = frozenset(i for i, s in enumerate(sieves) if s.admits("x2", {"user": "u1"}))
        assert a == b

    def test_untagged_falls_back_to_key(self):
        sieves = self._sieves(tag=prefix_tag())
        report = coverage_report(sieves, [(f"nocolon{i}", {}) for i in range(500)])
        assert report.coverage == 1.0

    def test_coverage_holds_under_tagging(self):
        sieves = self._sieves(n=128, r=8)
        rows = [(f"user{u}:e{e}", {}) for u in range(100) for e in range(3)]
        report = coverage_report(sieves, rows)
        assert report.coverage == 1.0


class TestDistributionAwareSieve:
    def _normal_estimate(self):
        # A peaked distribution: most mass in the middle bins.
        densities = (0.02, 0.03, 0.10, 0.35, 0.35, 0.10, 0.03, 0.02)
        return DistributionEstimate(0.0, 80.0, densities)

    def _sieves(self, n=128, r=4, estimate="normal"):
        dist = self._normal_estimate() if estimate == "normal" else None
        return [
            DistributionAwareSieve(
                NodeId(i), "v", r, lambda: n,
                distribution_fn=lambda d=dist: d,
                fallback_lo=0.0, fallback_hi=80.0,
            )
            for i in range(n)
        ]

    def test_equi_depth_balances_skewed_load(self):
        import random
        rng = random.Random(5)
        rows = [(f"k{i}", {"v": min(79.9, max(0.0, rng.gauss(40, 8)))}) for i in range(3000)]
        # r = 8 >~ ln(N): the regime where bucket coverage holds w.h.p.
        # (with small r the paper's scheme deliberately accepts holes, and
        # a put into one fails visibly at the coordinator).
        aware = coverage_report(self._sieves(r=8), rows)
        # compare against hash placement of the same rows through a plain
        # value-proportional arc (fallback uniform mapping = no estimate)
        naive = coverage_report(self._sieves(r=8, estimate=None), rows)
        assert aware.coverage == 1.0
        assert aware.load_imbalance < naive.load_imbalance

    def test_items_without_attribute_rejected(self):
        sieve = self._sieves(n=8)[0]
        assert not sieve.admits("k", {"other": 1})

    def test_value_range_from_distribution(self):
        sieve = self._sieves(n=8)[0]
        lo, hi = sieve.value_range()
        assert 0.0 <= lo < hi <= 80.0

    def test_value_range_none_without_distribution(self):
        sieve = self._sieves(n=8, estimate=None)[0]
        assert sieve.value_range() is None

    def test_range_key_includes_attribute(self):
        key = self._sieves(n=8)[0].range_key()
        assert key[0] == "attr" and key[1] == "v"

    def test_collocates_value_neighbourhoods(self):
        sieves = self._sieves(n=64, r=4)
        close_a = frozenset(i for i, s in enumerate(sieves) if s.admits("a", {"v": 40.0}))
        close_b = frozenset(i for i, s in enumerate(sieves) if s.admits("b", {"v": 40.2}))
        assert close_a == close_b  # adjacent values share the bucket


class TestCoverageReport:
    def test_replication_at_least(self):
        sieves = [AcceptAllSieve(), AcceptAllSieve(), AcceptNothingSieve()]
        report = coverage_report(sieves, items(10))
        assert report.replication_at_least(2) == 1.0
        assert report.replication_at_least(3) == 0.0
        assert report.mean_replication == 2.0

    def test_empty_items(self):
        report = coverage_report([AcceptAllSieve()], [])
        assert report.coverage == 1.0
        assert report.mean_replication == 0.0

    def test_load_imbalance(self):
        report = coverage_report([AcceptAllSieve(), AcceptNothingSieve()], items(10))
        assert report.max_node_load == 10
        assert report.load_imbalance == pytest.approx(2.0)
