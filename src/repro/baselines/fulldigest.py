"""Full-digest anti-entropy — the exchange the bucketed one replaced.

Each round ships a complete ``item_id -> version`` digest in both
directions: ``O(store)`` bytes per round regardless of how much actually
differs. E15 measured the bucketed three-phase exchange of
:class:`~repro.epidemic.antientropy.AntiEntropy` at 46x fewer digest
bytes on a 1 %-diverged store, and that is now the only exchange the
system speaks; this module keeps the predecessor as E15's comparison arm
(:mod:`repro.epidemic.costbench`).

:class:`FullDigestAntiEntropy` differs from the live protocol in the
digest phase only: what is pulled and pushed once two digests have been
compared, and how items travel, is the live protocol's own code. Any
store with ``digest`` / ``fetch`` / ``fetch_newer`` / ``apply`` will do —
a :class:`~repro.store.memtable.Memtable`, or the :class:`DictStore`
below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Iterable, List, Tuple

from repro.common.ids import NodeId
from repro.common.messages import Message, message_type
from repro.epidemic.antientropy import ABSENT, AntiEntropy, VersionedItem


@message_type
@dataclass(frozen=True)
class DigestMessage(Message):
    entries: Tuple[Tuple[str, int], ...] = field(default_factory=tuple)
    is_reply: bool = False
    #: Explicit truncation marker. Inferring truncation from
    #: ``len(entries) < max_digest`` wrongly treats an untruncated digest
    #: of exactly ``max_digest`` entries as sampled, which suppresses the
    #: absence-based push path and stalls convergence.
    truncated: bool = False

    wire_category: ClassVar[str] = "digest"


class FullDigestAntiEntropy(AntiEntropy):
    """Periodic push-pull reconciliation by complete digests."""

    def initiate_exchange(self, peer: NodeId) -> None:
        entries, truncated = self._digest_entries()
        self.send(peer, DigestMessage(entries, is_reply=False, truncated=truncated))
        self._c_rounds.inc()
        self._on_initiate(peer)

    def _digest_entries(self) -> Tuple[Tuple[Tuple[str, int], ...], bool]:
        digest = self.store.digest()
        entries = sorted(digest.items())
        truncated = False
        if self.max_digest is not None and len(entries) > self.max_digest:
            # Sample a random cover, then re-sort: deterministic wire
            # order regardless of which entries the sample picked.
            entries = sorted(self.host.rng.sample(entries, self.max_digest))
            truncated = True
        return tuple(entries), truncated

    def on_message(self, sender: NodeId, message: Message) -> None:
        if isinstance(message, DigestMessage):
            self._on_peer_response(sender)
            self._reconcile(sender, dict(message.entries), message.is_reply, message.truncated)
        else:
            super().on_message(sender, message)

    def _reconcile(self, sender: NodeId, remote: Dict[str, int], is_reply: bool,
                   remote_truncated: bool) -> None:
        local = self.store.digest()
        self._exchange(sender, local, remote, remote_truncated)
        if not is_reply:
            entries, truncated = self._digest_entries()
            self.send(sender, DigestMessage(entries, is_reply=True, truncated=truncated))


class DictStore:
    """Trivial in-memory versioned store for the full-digest exchange."""

    def __init__(self) -> None:
        self.items: Dict[str, Tuple[int, Any]] = {}

    def put(self, item_id: str, version: int, payload: Any) -> None:
        current = self.items.get(item_id)
        if current is None or version > current[0]:
            self.items[item_id] = (version, payload)

    def digest(self) -> Dict[str, int]:
        return {i: v for i, (v, _) in self.items.items()}

    def fetch(self, item_ids: Iterable[str]) -> List[VersionedItem]:
        out = []
        for item_id in item_ids:
            held = self.items.get(item_id)
            if held is not None:
                out.append((item_id, held[0], held[1]))
        return out

    def fetch_newer(self, entries: Iterable[Tuple[str, int]]) -> Tuple[List[VersionedItem], int]:
        """Fetch only items strictly newer than the requester's version;
        returns them and the count of redundant fetches skipped."""
        entries = list(entries)
        items = self.fetch(item_id for item_id, _ in entries)
        known = dict(entries)
        out = [item for item in items if item[1] > known.get(item[0], ABSENT)]
        return out, len(items) - len(out)

    def apply(self, items: Iterable[VersionedItem]) -> int:
        changed = 0
        for item_id, version, payload in items:
            current = self.items.get(item_id)
            if current is None or version > current[0]:
                self.items[item_id] = (version, payload)
                changed += 1
        return changed
