"""Durable local tuple store.

One instance lives on each persistent-layer node, attached to the
node's *durable* state so it survives transient crashes (the paper's
churn model: "nodes suffer from transient faults solved with a reboot"
— their disk contents come back with them). Permanent failures destroy
it, which is what redundancy maintenance must then repair.

The memtable implements the :class:`AntiEntropyStore` interface directly,
so the same object plugs into gossip repair and same-range redundancy
reconciliation — with incremental per-bucket summaries that make
anti-entropy cost proportional to divergence instead of store size.
Per-attribute sorted secondary indexes (maintained on put/delete) serve
``scan`` and ``attribute_values`` without linear passes over the store.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.common.hashing import fingerprint64, key_bucket, key_hash
from repro.epidemic.antientropy import AntiEntropyStore, BucketSummary, VersionedItem
from repro.store.tuples import Version, VersionedTuple

#: Default summary-bucket count. Scoped digests cover ~(diverged keys /
#: store size) × B buckets, so B trades summary bytes (B/8 of presence
#: mask plus ~16 per non-empty bucket, per round) against digest scope;
#: 256 still isolates small divergences to few buckets.
DEFAULT_BUCKETS = 256


def _numeric(value) -> Optional[float]:
    """The attribute value as a float, or None when not indexable."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


class Memtable(AntiEntropyStore):
    """Last-writer-wins versioned key-value store.

    Args:
        capacity: optional max tuple count. The paper's nodes have "low
            capacity [...] despicable when compared to the total volume
            of data"; when full, a put of a *new* key is refused (the
            sieve grain, not eviction, is the intended control knob —
            silently dropping accepted data would break the coverage
            argument). Updates to existing keys always apply.
        buckets: summary-bucket count for incremental anti-entropy
            (reconciling peers must agree on it or they fall back to
            full digests).
        index_attributes: attributes to keep sorted secondary indexes
            for from the start (more can be added with :meth:`add_index`).
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        buckets: int = DEFAULT_BUCKETS,
        index_attributes: Iterable[str] = (),
    ):
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive when set")
        if buckets <= 0:
            raise ValueError("buckets must be positive")
        self.capacity = capacity
        self._tuples: Dict[str, VersionedTuple] = {}
        self.rejected_puts = 0
        # -- incremental bucket summaries -------------------------------
        self._buckets = buckets
        #: key -> (bucket, fingerprint); remembers what was XORed into
        #: the bucket summary so removal/replacement never re-hashes the
        #: outgoing version.
        self._meta: Dict[str, Tuple[int, int]] = {}
        self._bucket_xor: List[int] = [0] * buckets
        self._bucket_count_items: List[int] = [0] * buckets
        self._bucket_keys: List[Set[str]] = [set() for _ in range(buckets)]
        #: Monotone store-wide mutation counter; consumers key caches on
        #: it (RangeScopedStore's admission cache).
        self.mutation_epoch = 0
        #: Per-bucket epoch of the last mutation touching the bucket —
        #: dirty-bucket invalidation for scoped-digest caches.
        self._bucket_epochs: List[int] = [0] * buckets
        # -- sorted secondary indexes -----------------------------------
        #: attribute -> sorted list of (value, key) over *live* tuples.
        self._indexes: Dict[str, List[Tuple[float, str]]] = {}
        for attribute in index_attributes:
            self.add_index(attribute)

    # ------------------------------------------------------------------
    def put(self, item: VersionedTuple) -> bool:
        """Apply a write if it is newer than what is held.

        Returns True when local state changed."""
        current = self._tuples.get(item.key)
        if current is not None and not item.newer_than(current):
            return False
        if current is None and self.is_full():
            self.rejected_puts += 1
            return False
        self._tuples[item.key] = item
        self._note_mutation(item.key, current, item)
        return True

    def get(self, key: str) -> Optional[VersionedTuple]:
        """Live tuple for ``key`` (tombstoned keys read as absent)."""
        item = self._tuples.get(key)
        if item is None or item.tombstone:
            return None
        return item

    def get_any(self, key: str) -> Optional[VersionedTuple]:
        """Tuple including tombstones (replication internals need these)."""
        return self._tuples.get(key)

    def delete(self, key: str) -> None:
        """Drop a key outright (repair bookkeeping; clients use tombstones)."""
        item = self._tuples.pop(key, None)
        if item is not None:
            self._note_mutation(key, item, None)

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def is_full(self) -> bool:
        return self.capacity is not None and len(self._tuples) >= self.capacity

    # ------------------------------------------------------------------
    # mutation bookkeeping: bucket summaries, epochs and indexes
    # ------------------------------------------------------------------
    def _note_mutation(self, key: str, old: Optional[VersionedTuple],
                       new: Optional[VersionedTuple]) -> None:
        meta = self._meta.get(key)
        if meta is not None:
            bucket, fingerprint = meta
            position = None
        else:
            position = key_hash(key)
            bucket = position % self._buckets
            fingerprint = 0  # nothing XORed in yet
        xor = self._bucket_xor[bucket] ^ fingerprint
        if new is not None:
            if position is None:
                position = key_hash(key)
            incoming = fingerprint64(position, new.version.packed())
            self._bucket_xor[bucket] = xor ^ incoming
            self._meta[key] = (bucket, incoming)
            if old is None:
                self._bucket_count_items[bucket] += 1
                self._bucket_keys[bucket].add(key)
        else:
            self._bucket_xor[bucket] = xor
            self._meta.pop(key, None)
            self._bucket_count_items[bucket] -= 1
            self._bucket_keys[bucket].discard(key)
        self.mutation_epoch += 1
        self._bucket_epochs[bucket] = self.mutation_epoch
        if self._indexes:
            self._update_indexes(key, old, new)

    def _update_indexes(self, key: str, old: Optional[VersionedTuple],
                        new: Optional[VersionedTuple]) -> None:
        for attribute, index in self._indexes.items():
            old_value = None if old is None or old.tombstone else _numeric(old.record.get(attribute))
            new_value = None if new is None or new.tombstone else _numeric(new.record.get(attribute))
            if old_value == new_value:
                continue  # (value, key) entry is unchanged by this write
            if old_value is not None:
                slot = bisect_left(index, (old_value, key))
                if slot < len(index) and index[slot] == (old_value, key):
                    del index[slot]
            if new_value is not None:
                insort(index, (new_value, key))

    def add_index(self, attribute: str) -> None:
        """Build (or rebuild) a sorted secondary index for ``attribute``.

        Maintained incrementally afterwards; idempotent."""
        index: List[Tuple[float, str]] = []
        for item in self.items():
            value = _numeric(item.record.get(attribute))
            if value is not None:
                index.append((value, item.key))
        index.sort()
        self._indexes[attribute] = index

    def indexed_attributes(self) -> List[str]:
        return sorted(self._indexes)

    # ------------------------------------------------------------------
    def items(self) -> Iterator[VersionedTuple]:
        """All live tuples (no tombstones)."""
        return (t for t in self._tuples.values() if not t.tombstone)

    def all_items(self) -> Iterator[VersionedTuple]:
        return iter(self._tuples.values())

    def keys(self) -> List[str]:
        return [t.key for t in self.items()]

    def attribute_values(self, attribute: str) -> Iterator[Tuple[str, float]]:
        """(key, numeric value) pairs of the live tuples carrying ``attribute``."""
        index = self._indexes.get(attribute)
        if index is not None:
            return ((key, value) for value, key in index)
        return (
            (item.key, value)
            for item in self.items()
            if (value := _numeric(item.record.get(attribute))) is not None
        )

    def attribute_range(self, attribute: str) -> Optional[Tuple[float, float]]:
        """(min, max) of the live values of ``attribute``, None when no
        live tuple carries one: the two ends of its sorted index."""
        index = self._indexes.get(attribute)
        if index is not None:
            return (index[0][0], index[-1][0]) if index else None
        values = [value for _, value in self.attribute_values(attribute)]
        return (min(values), max(values)) if values else None

    def scan(
        self,
        attribute: str,
        low: float,
        high: float,
    ) -> List[VersionedTuple]:
        """Live tuples with ``low <= record[attribute] <= high``."""
        index = self._indexes.get(attribute)
        if index is not None:
            start = bisect_left(index, (low,))
            matches = []
            for value, key in index[start:]:
                if value > high:
                    break
                matches.append(self._tuples[key])
            return matches
        matches = []
        for item in self.items():
            value = _numeric(item.record.get(attribute))
            if value is not None and low <= value <= high:
                matches.append(item)
        return matches

    # ------------------------------------------------------------------
    # AntiEntropyStore interface (digests use packed integer versions)
    # ------------------------------------------------------------------
    def digest(self) -> Dict[str, int]:
        return {key: item.version.packed() for key, item in self._tuples.items()}

    def bucket_count(self) -> int:
        return self._buckets

    def bucket_of(self, key: str) -> int:
        meta = self._meta.get(key)
        if meta is not None:
            return meta[0]
        return key_bucket(key, self._buckets)

    def fingerprint_of(self, key: str) -> Optional[int]:
        """The fingerprint currently folded into ``key``'s bucket summary."""
        meta = self._meta.get(key)
        return None if meta is None else meta[1]

    def bucket_summaries(self) -> Tuple[BucketSummary, ...]:
        return tuple(zip(self._bucket_xor, self._bucket_count_items))

    def recompute_bucket_summaries(self) -> Tuple[BucketSummary, ...]:
        """From-scratch summaries — the regression oracle the rolling
        summaries must always equal (asserted in tests)."""
        xors = [0] * self._buckets
        counts = [0] * self._buckets
        for key, item in self._tuples.items():
            position = key_hash(key)
            bucket = position % self._buckets
            xors[bucket] ^= fingerprint64(position, item.version.packed())
            counts[bucket] += 1
        return tuple(zip(xors, counts))

    # ------------------------------------------------------------------
    # state-corruption seams + self-stabilising audit
    # ------------------------------------------------------------------
    def corrupt_version(self, key: str, steps: int = 1) -> Optional[int]:
        """Nemesis seam: roll ``key``'s version back by ``steps``.

        The tuple's record is kept verbatim (no fabricated values can
        ever surface from this corruption — readers at worst see a value
        an earlier write genuinely produced at this replica) and the
        mutation goes through :meth:`_note_mutation`, so the local
        summaries stay consistent — the divergence this injects is
        *between replicas*, which is exactly what the bucketed
        anti-entropy exchange must detect and heal. Returns the packed
        pre-corruption version, or None when the key is absent or its
        sequence cannot go lower."""
        item = self._tuples.get(key)
        if item is None:
            return None
        sequence = max(0, item.version.sequence - max(1, steps))
        if sequence == item.version.sequence:
            return None
        old_packed = item.version.packed()
        rolled = VersionedTuple(
            key=item.key,
            version=Version(sequence, item.version.coordinator),
            record=dict(item.record),
            tombstone=item.tombstone,
        )
        self._tuples[key] = rolled
        self._note_mutation(key, item, rolled)
        return old_packed

    def corrupt_wipe(self, key: str) -> Optional[int]:
        """Nemesis seam: drop ``key`` outright (one replica loses its
        copy; peers re-push it through the bucket-digest exchange).
        Returns the packed version that was destroyed, or None."""
        item = self._tuples.get(key)
        if item is None:
            return None
        old_packed = item.version.packed()
        self.delete(key)
        return old_packed

    def corrupt_bucket_summary(self, bucket: int, xor_mask: int = 0,
                               count_delta: int = 0,
                               poison_key: Optional[str] = None) -> None:
        """Nemesis seam: make bucket ``bucket``'s rolling summary (and
        optionally one key's remembered fingerprint) lie about the
        contents. Invisible to the digest exchange — per-key versions
        still agree between replicas, so nothing ever ships — which is
        precisely the detection gap :meth:`audit_bucket_summaries`
        exists to close."""
        if not 0 <= bucket < self._buckets:
            raise ValueError("bucket out of range")
        self._bucket_xor[bucket] ^= xor_mask
        self._bucket_count_items[bucket] += count_delta
        if poison_key is not None:
            meta = self._meta.get(poison_key)
            if meta is not None:
                self._meta[poison_key] = (meta[0], meta[1] ^ (xor_mask or 0x9E3779B97F4A7C15))
        # Mark the bucket dirty so scoped-digest caches rebuild from the
        # poisoned fingerprints: the lie *propagates* into anti-entropy
        # summaries (a phantom divergence the exchange can see but never
        # heal — per-key versions still agree, so no items ever ship).
        self.mutation_epoch += 1
        self._bucket_epochs[bucket] = self.mutation_epoch

    def summaries_consistent(self) -> bool:
        """Whether every piece of rolling summary state matches the
        contents — the audit's (and the convergence checker's) heal
        predicate for summary poisoning."""
        if self.bucket_summaries() != self.recompute_bucket_summaries():
            return False
        if set(self._meta) != set(self._tuples):
            return False
        for key, item in self._tuples.items():
            position = key_hash(key)
            expected = (position % self._buckets,
                        fingerprint64(position, item.version.packed()))
            if self._meta.get(key) != expected:
                return False
            if key not in self._bucket_keys[expected[0]]:
                return False
        return True

    def audit_bucket_summaries(self) -> List[int]:
        """Recompute every derived summary structure from ``_tuples``
        and repair whatever disagrees (the periodic self-stabilisation
        hook). Returns the indices of repaired buckets; repaired buckets
        get fresh epochs so scoped-digest caches (RangeScopedStore)
        rebuild from the corrected fingerprints."""
        expected_meta: Dict[str, Tuple[int, int]] = {}
        xors = [0] * self._buckets
        counts = [0] * self._buckets
        keys: List[Set[str]] = [set() for _ in range(self._buckets)]
        for key, item in self._tuples.items():
            position = key_hash(key)
            bucket = position % self._buckets
            fingerprint = fingerprint64(position, item.version.packed())
            expected_meta[key] = (bucket, fingerprint)
            xors[bucket] ^= fingerprint
            counts[bucket] += 1
            keys[bucket].add(key)
        repaired: List[int] = []
        for bucket in range(self._buckets):
            if (self._bucket_xor[bucket] == xors[bucket]
                    and self._bucket_count_items[bucket] == counts[bucket]
                    and self._bucket_keys[bucket] == keys[bucket]):
                continue
            repaired.append(bucket)
        dirty_meta = {
            expected_meta[key][0] for key in expected_meta
            if self._meta.get(key) != expected_meta[key]
        }
        dirty_meta.update(
            bucket for key, (bucket, _) in
            ((k, m) for k, m in self._meta.items() if k not in expected_meta)
        )
        repaired = sorted(set(repaired) | dirty_meta)
        if not repaired:
            return []
        self._bucket_xor = xors
        self._bucket_count_items = counts
        self._bucket_keys = keys
        self._meta = expected_meta
        self.mutation_epoch += 1
        for bucket in repaired:
            self._bucket_epochs[bucket] = self.mutation_epoch
        return repaired

    def bucket_epoch(self, bucket: int) -> int:
        """Mutation epoch of the last change touching ``bucket``."""
        return self._bucket_epochs[bucket]

    def bucket_keys(self, bucket: int) -> Set[str]:
        """Keys (live and tombstoned) currently hashed into ``bucket``."""
        return self._bucket_keys[bucket]

    def bucket_digest(self, buckets: Sequence[int]) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for bucket in buckets:
            for key in self._bucket_keys[bucket]:
                out[key] = self._tuples[key].version.packed()
        return out

    def fetch(self, item_ids: Iterable[str]) -> List[VersionedItem]:
        out: List[VersionedItem] = []
        for key in item_ids:
            item = self._tuples.get(key)
            if item is not None:
                out.append((key, item.version.packed(), (dict(item.record), item.tombstone)))
        return out

    def fetch_newer(self, entries: Iterable[Tuple[str, int]]) -> Tuple[List[VersionedItem], int]:
        """Version check *before* the payload copy (see base class)."""
        out: List[VersionedItem] = []
        skipped = 0
        for key, known in entries:
            item = self._tuples.get(key)
            if item is None:
                continue
            packed = item.version.packed()
            if packed <= known:
                skipped += 1
                continue
            out.append((key, packed, (dict(item.record), item.tombstone)))
        return out, skipped

    def apply(self, items: Iterable[VersionedItem]) -> int:
        changed = 0
        for key, packed, payload in items:
            record, tombstone = payload
            incoming = VersionedTuple(
                key=key,
                version=Version.unpacked(packed),
                record=dict(record),
                tombstone=bool(tombstone),
            )
            if self.put(incoming):
                changed += 1
        return changed
