"""Key-space (arc) sieves.

"This is in fact similar to what is done in structured DHT approaches
where each node is responsible for a given portion of the key space"
(§III-A) — but decided *locally*, with no structural maintenance.

:class:`BucketSieve` partitions the ring into ``B`` equal buckets where
``B`` is a power of two derived from the node's *local* estimate of
``N / r``. Each node covers the bucket its own stable ring position
falls in, so with N nodes roughly ``N / B ≈ r`` nodes cover each bucket
— replication emerges statistically, with zero coordination:

* coverage: every bucket is covered w.h.p. for r ≳ ln N (and the
  coverage checker in :mod:`repro.sieve.coverage` verifies it);
* nodes whose size estimates disagree pick adjacent powers of two; the
  hierarchy (each level-B bucket nests in a level-B/2 bucket) keeps
  responsibilities aligned rather than arbitrarily overlapping;
* ``range_key()`` is the (level, bucket) pair — the unit redundancy
  maintenance counts and repairs (claim C4).

:class:`CapacityScaledSieve` widens/narrows the arc by a per-node
capacity factor, the paper's "adjusting the sieve grain [...] to cope
with nodes with disparate storage capabilities".
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Optional

from repro.common.hashing import KEYSPACE_SIZE, key_hash
from repro.common.ids import NodeId
from repro.sieve.base import Record, Sieve


def bucket_count_for(n_estimate: float, replication: int) -> int:
    """Power-of-two bucket count targeting ~``replication`` nodes/bucket."""
    if replication <= 0:
        raise ValueError("replication must be positive")
    target = max(1.0, n_estimate / replication)
    # floor, not round: erring toward fewer/wider buckets means *more*
    # nodes per bucket than r, which protects coverage (an empty bucket
    # is data loss; an extra replica is just slack).
    return 1 << max(0, math.floor(math.log2(target)))


def node_position(node_id: NodeId) -> float:
    """Stable position of a node in [0, 1) (independent of key hashing)."""
    return key_hash(f"node-position:{node_id.value}") / KEYSPACE_SIZE


class BucketSieve(Sieve):
    """Own the power-of-two ring bucket containing this node's position.

    Args:
        node_id: determines the node's stable position on the ring.
        replication: target copies per item (r).
        size_estimate_fn: live N estimate (bucket count adapts to it).
        key_fn: maps a record to the ring coordinate in [0, 1); defaults
            to hashing the item id (primary-key placement).
    """

    def __init__(
        self,
        node_id: NodeId,
        replication: int,
        size_estimate_fn: Callable[[], float],
        key_fn: Optional[Callable[[str, Record], float]] = None,
    ):
        if replication <= 0:
            raise ValueError("replication must be positive")
        self.node_id = node_id
        self.replication = replication
        self.size_estimate_fn = size_estimate_fn
        self.key_fn = key_fn if key_fn is not None else self._hash_position
        self.position = node_position(node_id)
        # bucket_count_for() of the last estimate read (NaN: none yet):
        # admission asks on every item, the estimate moves only on
        # extrema exchanges.
        self._counted_estimate = math.nan
        self._count = 1

    @staticmethod
    def _hash_position(item_id: str, record: Record) -> float:
        return key_hash(item_id) / KEYSPACE_SIZE

    # ------------------------------------------------------------------
    def bucket_count(self) -> int:
        estimate = self.size_estimate_fn()
        if estimate != self._counted_estimate:
            self._count = bucket_count_for(max(1.0, float(estimate)), self.replication)
            self._counted_estimate = estimate
        return self._count

    def bucket_index(self) -> int:
        return min(self.bucket_count() - 1, int(self.position * self.bucket_count()))

    def admits(self, item_id: str, record: Record) -> bool:
        return self.item_bucket(item_id, record) == int(self.position * self.bucket_count())

    def item_bucket(self, item_id: str, record: Record) -> int:
        """Which bucket the item currently maps to (drift detection)."""
        buckets = self.bucket_count()
        coord = self.key_fn(item_id, record) % 1.0
        return min(buckets - 1, int(coord * buckets))

    def range_key(self) -> Hashable:
        buckets = self.bucket_count()
        return ("bucket", buckets, self.bucket_index())

    def audit(self) -> bool:
        """Re-derive the cached ring position from the node id.

        ``position`` is pure function of ``node_id`` — the only mutable
        state a corruption nemesis can desync — so the audit just
        recomputes it. Returns True when it had drifted."""
        expected = node_position(self.node_id)
        if self.position == expected:
            return False
        self.position = expected
        return True

    def describe(self) -> str:
        buckets = self.bucket_count()
        return f"bucket({self.bucket_index()}/{buckets})"


class CapacityScaledSieve(Sieve):
    """Arc sieve whose width scales with node capacity.

    A node with ``capacity=2.0`` covers an arc twice as wide as the
    baseline bucket; ``0.5`` covers half a bucket. The arc is centred on
    the node's position so differently-scaled nodes still tile the ring.
    """

    def __init__(
        self,
        node_id: NodeId,
        replication: int,
        size_estimate_fn: Callable[[], float],
        capacity: float = 1.0,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.inner = BucketSieve(node_id, replication, size_estimate_fn)
        self.capacity = capacity

    def admits(self, item_id: str, record: Record) -> bool:
        buckets = self.inner.bucket_count()
        width = self.capacity / buckets
        center = self.inner.position
        coord = self.inner.key_fn(item_id, record) % 1.0
        distance = abs(coord - center)
        distance = min(distance, 1.0 - distance)  # wrap-around
        return distance <= width / 2.0

    def range_key(self) -> Hashable:
        # Capacity-scaled arcs still anchor to their base bucket for
        # redundancy accounting (the overlap is strictly wider).
        return self.inner.range_key()

    def audit(self) -> bool:
        return self.inner.audit()

    def describe(self) -> str:
        return f"capacity({self.capacity:.2f}x, {self.inner.describe()})"


class StaticArcSieve(Sieve):
    """Fixed [lo, hi) arc of the [0,1) ring — for tests and manual layouts."""

    def __init__(self, lo: float, hi: float, key_fn: Optional[Callable[[str, Record], float]] = None):
        if not (0 <= lo < 1 and 0 < hi <= 1):
            raise ValueError("need 0 <= lo < 1 and 0 < hi <= 1")
        self.lo = lo
        self.hi = hi
        self.key_fn = key_fn if key_fn is not None else BucketSieve._hash_position

    def admits(self, item_id: str, record: Record) -> bool:
        coord = self.key_fn(item_id, record) % 1.0
        if self.lo <= self.hi:
            return self.lo <= coord < self.hi
        return coord >= self.lo or coord < self.hi

    def range_key(self) -> Hashable:
        return ("static", round(self.lo, 9), round(self.hi, 9))

    def describe(self) -> str:
        return f"arc[{self.lo:.3f},{self.hi:.3f})"
