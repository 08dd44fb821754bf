"""Property tests for the state-corruption seams and the summary audit.

The self-stabilisation contract at the memtable layer: whatever
interleaving of honest mutations (put / tombstone / delete / apply)
and summary corruption happens, one :meth:`audit_bucket_summaries`
pass restores the summaries to exactly what a from-scratch recompute
produces — the audit is a *fixed point* (a second pass repairs
nothing) and the rolling digests re-agree with the ground truth held
in the tuples themselves.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.store import Memtable, Version, make_tombstone, make_tuple  # noqa: E402

KEYS = [f"k{i}" for i in range(24)]

# One honest mutation of the interleaving.
_honest_step = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(KEYS), st.integers(0, 999)),
    st.tuples(st.just("tombstone"), st.sampled_from(KEYS), st.integers(0, 999)),
    st.tuples(st.just("delete"), st.sampled_from(KEYS), st.just(0)),
)
# One step of the interleaving: an honest mutation or a corruption.
_step = st.one_of(
    _honest_step,
    st.tuples(st.just("flip"), st.sampled_from(KEYS), st.integers(1, 3)),
    st.tuples(st.just("poison"), st.integers(0, 7),
              st.integers(1, 2 ** 64 - 1)),
)


def _next_version(table: Memtable, key: str) -> Version:
    held = table.get_any(key)
    return Version(0 if held is None else held.version.sequence + 1, 0)


def _run_steps(table: Memtable, steps) -> None:
    for op, a, b in steps:
        if op == "put":
            table.put(make_tuple(a, {"v": b}, _next_version(table, a)))
        elif op == "tombstone":
            table.put(make_tombstone(a, _next_version(table, a)))
        elif op == "delete":
            table.delete(a)
        elif op == "flip":
            table.corrupt_version(a, steps=b)
        else:  # poison one bucket's rolling summary
            bucket = a % table.bucket_count()
            keys = table.bucket_keys(bucket)
            table.corrupt_bucket_summary(
                bucket, xor_mask=b, count_delta=1,
                poison_key=min(keys) if keys else None)


class TestAuditFixedPoint:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_step, min_size=1, max_size=60))
    def test_audit_restores_recomputed_summaries(self, steps):
        table = Memtable(buckets=8)
        _run_steps(table, steps)
        table.audit_bucket_summaries()
        assert table.summaries_consistent()
        assert table.bucket_summaries() == table.recompute_bucket_summaries()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_step, min_size=1, max_size=60))
    def test_audit_is_a_fixed_point(self, steps):
        table = Memtable(buckets=8)
        _run_steps(table, steps)
        table.audit_bucket_summaries()
        # Second pass over a consistent table must find nothing to do.
        assert table.audit_bucket_summaries() == []

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_step, min_size=1, max_size=40),
           st.integers(0, 7), st.integers(1, 2 ** 64 - 1))
    def test_single_bucket_poison_is_detected_and_repaired(self, steps,
                                                           bucket, mask):
        # The ISSUE's canonical scenario: honest traffic, then exactly
        # one poisoned bucket, then one audit pass.
        table = Memtable(buckets=8)
        _run_steps(table, [s for s in steps if s[0] not in ("flip", "poison")])
        bucket %= table.bucket_count()
        keys = table.bucket_keys(bucket)
        table.corrupt_bucket_summary(
            bucket, xor_mask=mask, count_delta=1,
            poison_key=min(keys) if keys else None)
        assert not table.summaries_consistent()
        repaired = table.audit_bucket_summaries()
        assert bucket in repaired
        assert table.summaries_consistent()


class TestHonestMutationsStayConsistent:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_honest_step, min_size=0, max_size=60))
    def test_rolling_summaries_never_drift_without_corruption(self, steps):
        # Regression guard on the seams themselves: the audit and the
        # consistency predicate must not cry wolf on honest histories.
        table = Memtable(buckets=8)
        _run_steps(table, steps)
        assert table.summaries_consistent()
        assert table.audit_bucket_summaries() == []


class TestCorruptVersionSeam:
    def test_flip_rolls_back_and_keeps_local_summaries_consistent(self):
        table = Memtable(buckets=8)
        table.put(make_tuple("k", {"v": 1}, Version(4, 2)))
        old = table.corrupt_version("k", steps=2)
        assert old == Version(4, 2).packed()
        held = table.get_any("k")
        assert held is not None and held.version.sequence == 2
        # The flip routes through the rolling-summary bookkeeping: the
        # divergence is *inter-replica*, never visible to a local audit.
        assert table.summaries_consistent()

    def test_flip_refuses_floor_and_absent_keys(self):
        table = Memtable(buckets=8)
        table.put(make_tuple("k", {"v": 1}, Version(0, 0)))
        assert table.corrupt_version("k") is None
        assert table.corrupt_version("missing") is None
