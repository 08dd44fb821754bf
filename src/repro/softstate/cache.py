"""Soft-state tuple cache.

"We take advantage of spare capacity to serve as a tuple cache thus
avoiding unnecessary operations at the persistent-state layer. As the
soft-layer always knows the most recent version of an item, cache
inconsistency issues are eliminated." (§II)

The coordinator owns the version counter for its keys, so it can (a)
serve reads straight from cache when the cached version *is* the latest
— no staleness is possible — and (b) drop any cached entry that falls
behind, rather than serve it."""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.store.tuples import Version, VersionedTuple


class TupleCache:
    """LRU cache of versioned tuples with version-checked reads."""

    def __init__(self, capacity: int = 10_000):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[str, VersionedTuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stale_evictions = 0

    # ------------------------------------------------------------------
    def put(self, item: VersionedTuple) -> None:
        current = self._entries.get(item.key)
        if current is not None and current.version > item.version:
            return  # never cache something older than what we hold
        self._entries[item.key] = item
        self._entries.move_to_end(item.key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def get(self, key: str, required_version: Optional[Version] = None) -> Optional[VersionedTuple]:
        """Return the cached tuple, but only if it is provably current.

        ``required_version`` is the coordinator's authoritative latest
        version for the key; a cached entry older than it is purged (it
        can never become valid again)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if required_version is not None and entry.version < required_version:
            del self._entries[key]
            self.stale_evictions += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        # Tombstones are returned as-is: a cached deletion is an
        # *authoritative* miss and callers must not fall through to the
        # persistent layer for it.
        return entry

    def invalidate(self, key: str, version: Version) -> None:
        """Drop the key's entry if it is at ``version`` (a newer one stays)."""
        entry = self._entries.get(key)
        if entry is not None and entry.version == version:
            del self._entries[key]

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
