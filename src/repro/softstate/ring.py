"""Consistent-hashing ring for the soft-state layer.

The paper keeps the *soft-state* layer structured: "a structured
DHT-based approach where nodes partition the key-space among themselves
in order to achieve load-balancing and unequivocal responsibility for
partitions" (§II). The layer is "moderately sized", so a full-view ring
with virtual nodes (à la Chord/Dynamo) is appropriate — the epidemic
machinery is reserved for the large persistent layer below.

Hot-path notes: a node's virtual positions are a pure function of
(node id, replica index), so they are computed once per node per
process and shared across every ring instance (`virtual_positions`).
Positions enter a sorted list only through :func:`merge_positions`,
one sort per batch of members, and key→coordinator lookups are
memoised against a mutation epoch that every add/remove/set_alive bumps.

In ``routing_mode="onehop"`` the soft nodes route by their own
:class:`~repro.softstate.onehop.RoutingTable`; this ring is then only
the client's view, and the reference the table's map is tested against.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.common.hashing import Arc, key_hash
from repro.common.ids import NodeId

#: Process-wide cache of virtual-node positions: (node value, V) -> sorted
#: positions. Positions are pure hashes, so sharing across rings is safe.
_VNODE_CACHE: Dict[Tuple[int, int], Tuple[int, ...]] = {}

#: Bound on the per-ring coordinator memo (cleared wholesale when full —
#: the memo is an epoch cache, not an LRU; correctness never depends on it).
_COORD_CACHE_CAPACITY = 65_536

_Entry = TypeVar("_Entry")


def virtual_positions(node_value: int, virtual_nodes: int) -> Tuple[int, ...]:
    """The sorted ring positions of a node (cached process-wide)."""
    cached = _VNODE_CACHE.get((node_value, virtual_nodes))
    if cached is None:
        cached = tuple(sorted(
            key_hash(f"ring:{node_value}:{replica}")
            for replica in range(virtual_nodes)
        ))
        _VNODE_CACHE[(node_value, virtual_nodes)] = cached
    return cached


def merge_positions(
    positions: List[Tuple[int, _Entry]],
    members: Iterable[Tuple[int, _Entry]],
    virtual_nodes: int,
) -> List[Tuple[int, _Entry]]:
    """The sorted ``positions`` plus every virtual position of
    ``members`` — (node value, ring entry) pairs — as one sorted list.

    One sort per batch: timsort merges the existing sorted run with the
    new positions, so adding one node is O(P + V) and seeding N nodes at
    once is a single sort rather than N merges."""
    fresh = [(position, entry) for value, entry in members
             for position in virtual_positions(value, virtual_nodes)]
    return sorted(positions + fresh)


class ConsistentHashRing:
    """Maps keys to coordinator nodes via virtual-node hashing.

    Args:
        virtual_nodes: ring positions per member; more virtual nodes
            smooth the partition sizes.
    """

    def __init__(self, virtual_nodes: int = 32):
        if virtual_nodes <= 0:
            raise ValueError("virtual_nodes must be positive")
        self.virtual_nodes = virtual_nodes
        self._members: Dict[NodeId, bool] = {}  # node -> alive
        self._positions: List[Tuple[int, NodeId]] = []  # sorted
        self._epoch = 0  # bumped on every mutation; keys the memo below
        self._coord_cache: Dict[str, Optional[NodeId]] = {}

    # ------------------------------------------------------------------
    def _mutated(self) -> None:
        self._epoch += 1
        if self._coord_cache:
            self._coord_cache = {}

    @property
    def mutation_epoch(self) -> int:
        """Monotonic counter; changes whenever lookups could change."""
        return self._epoch

    def add(self, node_id: NodeId) -> None:
        self.extend((node_id,))

    def extend(self, node_ids: Iterable[NodeId]) -> None:
        """Add (or revive) members, placing all new positions in one sort."""
        fresh: List[NodeId] = []
        changed = False
        for node_id in node_ids:
            alive = self._members.get(node_id)
            if alive:
                continue
            if alive is None:
                fresh.append(node_id)
            self._members[node_id] = True
            changed = True
        if fresh:
            self._positions = merge_positions(
                self._positions, ((n.value, n) for n in fresh), self.virtual_nodes)
        if changed:
            self._mutated()

    def remove(self, node_id: NodeId) -> None:
        """Remove permanently (positions are withdrawn)."""
        if node_id not in self._members:
            return
        del self._members[node_id]
        self._positions = [(p, n) for p, n in self._positions if n != node_id]
        self._mutated()

    def set_alive(self, node_id: NodeId, alive: bool) -> None:
        """Mark a member temporarily unavailable without moving the
        partition map (responsibility resumes when it reboots)."""
        if node_id in self._members and self._members[node_id] != alive:
            self._members[node_id] = alive
            self._mutated()

    def members(self) -> List[NodeId]:
        return list(self._members)

    def alive_members(self) -> List[NodeId]:
        return [n for n, alive in self._members.items() if alive]

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._members

    # ------------------------------------------------------------------
    def coordinator_for(self, key: str, alive_only: bool = True) -> Optional[NodeId]:
        """The node owning ``key`` (first ring position clockwise).

        With ``alive_only`` (the default) ownership skips to the next
        alive member while the primary is down — requests must not wait
        for a reboot. Results are memoised until the next mutation."""
        if alive_only:
            cached = self._coord_cache.get(key, False)
            if cached is not False:
                return cached
        candidates = self.successors_for(key, count=1, alive_only=alive_only)
        owner = candidates[0] if candidates else None
        if alive_only:
            if len(self._coord_cache) >= _COORD_CACHE_CAPACITY:
                self._coord_cache = {}
            self._coord_cache[key] = owner
        return owner

    def successors_for(self, key: str, count: int, alive_only: bool = True) -> List[NodeId]:
        """Up to ``count`` distinct members clockwise from the key."""
        if not self._positions or count <= 0:
            return []
        position = key_hash(key)
        index = bisect.bisect_right(self._positions, (position, NodeId(1 << 62)))
        found: List[NodeId] = []
        seen = set()
        for step in range(len(self._positions)):
            _, node = self._positions[(index + step) % len(self._positions)]
            if node in seen:
                continue
            if alive_only and not self._members.get(node, False):
                continue
            seen.add(node)
            found.append(node)
            if len(found) >= count:
                break
        return found

    # ------------------------------------------------------------------
    def responsibility_of(self, node_id: NodeId) -> List[Arc]:
        """The key-space arcs ``node_id`` currently owns (one per virtual
        node; used by metadata reconstruction to scope its query)."""
        if node_id not in self._members or not self._positions:
            return []
        arcs = []
        for index, (position, owner) in enumerate(self._positions):
            if owner != node_id:
                continue
            previous = self._positions[index - 1][0]
            arcs.append(Arc(previous, position))
        return arcs

    def owns(self, node_id: NodeId, key: str, alive_only: bool = True) -> bool:
        return self.coordinator_for(key, alive_only=alive_only) == node_id


def build_ring(members: Sequence[NodeId], virtual_nodes: int = 32) -> ConsistentHashRing:
    ring = ConsistentHashRing(virtual_nodes)
    ring.extend(members)
    return ring
