"""Anti-entropy: periodic pairwise digest reconciliation.

Eager/lazy push spreads *new* items fast but probabilistically; anti-
entropy is the slow, certain repair channel that reconciles whatever
push missed (the combination is the Bimodal Multicast recipe [21]).
The persistent-state layer also reuses this machinery for redundancy
restoration between nodes responsible for the same sieve range (§III-A).

The protocol is generic over an :class:`AntiEntropyStore` adapter so the
same code reconciles storage memtables, sieve-scoped views of them, or
anything versioned by (item id, monotone version).

There is one wire exchange, in three phases. Item ids hash into ``B``
buckets with incrementally maintained rolling summaries. A round sends
the summaries (:class:`BucketSummaryMessage`) of the non-empty buckets
behind a ``B``-bit presence mask — an empty bucket's summary is always
``(0, 0)``, so the receiver fills those in; the peer answers with
per-key digests *for the differing buckets only*
(:class:`BucketDigestMessage`); items flow last. Cost is proportional to
*divergence*, not store size — the cheap-incremental-sync property
Merkle-style reconcilers rely on. Both sides must use the same ``B``: a
summary with another bucket count cannot be compared, and one whose
mask does not fit ``B`` or its summaries is malformed; both are counted
(``antientropy.bucket_count_mismatch``) and dropped.

The full-digest exchange this replaced (46x the digest bytes at 1 %
divergence, E15) is :mod:`repro.baselines.fulldigest`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.ids import NodeId
from repro.common.messages import Message, mask_indices, message_type, pack_mask
from repro.membership.views import PeerSampler
from repro.sim.node import Protocol

#: (item_id, version, payload)
VersionedItem = Tuple[str, int, Any]

#: (rolling xor of item fingerprints, item count) for one bucket.
BucketSummary = Tuple[int, int]

#: Digest value meaning "I do not hold this item at any version".
ABSENT = -1

#: The summary of a bucket that holds nothing.
_EMPTY: BucketSummary = (0, 0)


class AntiEntropyStore(ABC):
    """Adapter between anti-entropy and a versioned local store.

    Implementations hash item ids into a fixed number of buckets (see
    :func:`repro.common.hashing.key_bucket`) and maintain, per bucket,
    the XOR of per-item :func:`~repro.common.hashing.fingerprint64`
    values plus an item count — updated incrementally on every mutation,
    never rebuilt from scratch on the reconciliation path.
    """

    @abstractmethod
    def digest(self) -> Dict[str, int]:
        """Complete map of item_id -> version this node holds
        (within whatever scope this store chooses to reconcile)."""

    @abstractmethod
    def fetch(self, item_ids: Iterable[str]) -> List[VersionedItem]:
        """Return the requested items (silently skipping unknown ids)."""

    @abstractmethod
    def apply(self, items: Iterable[VersionedItem]) -> int:
        """Merge incoming items (last-writer-wins by version); return
        how many actually changed local state."""

    @abstractmethod
    def fetch_newer(self, entries: Iterable[Tuple[str, int]]) -> Tuple[List[VersionedItem], int]:
        """Fetch only items strictly newer than the requester's version.

        ``entries`` pairs each item id with the version the requester
        already holds (:data:`ABSENT` for none). Returns the items worth
        shipping and the count of redundant fetches skipped — requests
        can race with other reconciliations, and shipping a payload the
        peer already holds at an equal version is pure waste. Check the
        version *before* copying a payload.
        """

    @abstractmethod
    def bucket_count(self) -> int:
        """Number of summary buckets (fixed for the store's lifetime)."""

    @abstractmethod
    def bucket_summaries(self) -> Tuple[BucketSummary, ...]:
        """Current (xor, count) summary of every bucket, in bucket order."""

    @abstractmethod
    def bucket_digest(self, buckets: Sequence[int]) -> Dict[str, int]:
        """Per-key digest restricted to the given buckets — complete
        within those buckets, so absence there is meaningful."""


@message_type
@dataclass(frozen=True)
class BucketSummaryMessage(Message):
    """Phase 1 of the exchange: the rolling summaries of the buckets
    ``present`` flags (:func:`~repro.common.messages.pack_mask` over
    ``bucket_count`` buckets), in bucket order; every other bucket's
    summary is ``(0, 0)``."""

    bucket_count: int = 0
    present: bytes = b""
    summaries: Tuple[BucketSummary, ...] = field(default_factory=tuple)

    wire_category: ClassVar[str] = "digest"


@message_type
@dataclass(frozen=True)
class BucketDigestMessage(Message):
    """Phase 2: per-key digests for the buckets whose summaries differ.

    ``buckets`` names the buckets the entries cover completely (unless
    ``truncated``), so the receiver may infer absence — and therefore
    push — within exactly that scope.
    """

    buckets: Tuple[int, ...] = field(default_factory=tuple)
    entries: Tuple[Tuple[str, int], ...] = field(default_factory=tuple)
    truncated: bool = False

    wire_category: ClassVar[str] = "digest"


@message_type
@dataclass(frozen=True)
class ItemsRequest(Message):
    #: (item_id, version the requester already holds or ABSENT) pairs;
    #: the responder skips ids it cannot better (see ``fetch_newer``).
    entries: Tuple[Tuple[str, int], ...] = field(default_factory=tuple)

    wire_category: ClassVar[str] = "items"


@message_type
@dataclass(frozen=True)
class ItemsPush(Message):
    items: Tuple[VersionedItem, ...] = field(default_factory=tuple)

    wire_category: ClassVar[str] = "items"


class AntiEntropy(Protocol):
    """Periodic push-pull reconciliation with one random peer.

    Args:
        store: versioned store adapter.
        period: seconds between reconciliation rounds.
        membership: sibling PeerSampler protocol name.
        max_digest: cap on digest entries shipped per round (bandwidth
            guard for huge stores; a random cover is sent each round).
        ack_clean: reply to an agreeing bucket summary with an *empty*
            :class:`BucketDigestMessage` (a no-op at the receiver) so the
            initiator gets positive confirmation the round completed.
            Off by default — it adds a tiny message to every clean round,
            which only subclasses tracking peer liveness need.
    """

    name = "anti-entropy"

    def __init__(
        self,
        store: AntiEntropyStore,
        period: float = 5.0,
        membership: str = "membership",
        max_digest: Optional[int] = None,
        ack_clean: bool = False,
    ):
        super().__init__()
        self.store = store
        self.period = period
        self.membership = membership
        self.max_digest = max_digest
        self.ack_clean = ack_clean
        self._timer = None

    # ------------------------------------------------------------------
    def bind(self, host) -> None:
        super().bind(host)
        metrics = host.metrics
        self._c_rounds, self._c_items_applied = metrics.counter_pair(
            "antientropy.rounds", "antientropy.items_applied")
        self._c_unexpected = metrics.counter("antientropy.unexpected_message")
        self._c_redundant = metrics.counter("antientropy.redundant_fetches")
        self._c_bucket_mismatch = metrics.counter("antientropy.bucket_count_mismatch")
        self._c_buckets_diverged = metrics.counter("antientropy.buckets_diverged")
        self._c_buckets_clean = metrics.counter("antientropy.rounds_clean")

    def on_start(self) -> None:
        self._timer = self.every(self.period, self.run_round)

    def on_stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()

    def _sampler(self) -> PeerSampler:
        return self.host.protocol(self.membership)  # type: ignore[return-value]

    def select_peer(self) -> Optional[NodeId]:
        """Peer choice for this round (subclasses may bias it, e.g. to
        same-sieve-range nodes for redundancy repair)."""
        peers = self._sampler().sample_peers(1)
        return peers[0] if peers else None

    # ------------------------------------------------------------------
    def run_round(self) -> None:
        peer = self.select_peer()
        if peer is None:
            return
        self.initiate_exchange(peer)

    def initiate_exchange(self, peer: NodeId) -> None:
        """Start one reconciliation round toward a specific peer.

        Public so callers holding out-of-band peer knowledge (targeted
        redundancy repair) can direct a round instead of waiting for the
        periodic random one.
        """
        store = self.store
        summaries = store.bucket_summaries()
        present = [summary != _EMPTY for summary in summaries]
        self.send(peer, BucketSummaryMessage(
            store.bucket_count(), pack_mask(present),
            tuple(summary for summary, flag in zip(summaries, present) if flag)))
        self._c_rounds.inc()
        self._on_initiate(peer)

    def _on_initiate(self, peer: NodeId) -> None:
        """Hook: an exchange toward ``peer`` was just initiated."""

    def _on_peer_response(self, sender: NodeId) -> None:
        """Hook: any anti-entropy traffic arrived from ``sender``."""

    # ------------------------------------------------------------------
    def on_message(self, sender: NodeId, message: Message) -> None:
        self._on_peer_response(sender)
        if isinstance(message, BucketSummaryMessage):
            self._on_bucket_summary(sender, message)
        elif isinstance(message, BucketDigestMessage):
            self._on_bucket_digest(sender, message)
        elif isinstance(message, ItemsRequest):
            items, skipped = self.store.fetch_newer(message.entries)
            if skipped:
                self._c_redundant.inc(skipped)
            if items:
                self.send(sender, ItemsPush(tuple(items)))
        elif isinstance(message, ItemsPush):
            applied = self.store.apply(message.items)
            self._c_items_applied.inc(applied)
            tracer = self.host.tracer
            if applied and tracer.active:
                tracer.event("repair", self.host.node_id.value, self.host.now,
                             count=applied)
        else:
            self._c_unexpected.inc()

    def _exchange(self, sender: NodeId, local: Dict[str, int], remote: Dict[str, int],
                  remote_truncated: bool) -> None:
        """Pull-and-push against a remote digest covering ``local``'s scope.

        Absence in an untruncated remote digest means the peer lacks the
        item, so everything it does not list at a newer-or-equal version
        is pushed. A truncated digest only supports comparing entries it
        actually lists."""
        missing_here = sorted(
            (i, local.get(i, ABSENT)) for i, v in remote.items() if local.get(i, ABSENT) < v
        )
        if remote_truncated:
            newer_here = sorted(i for i, v in remote.items() if local.get(i, ABSENT) > v)
        else:
            newer_here = sorted(i for i, v in local.items() if remote.get(i, ABSENT) < v)
        if missing_here:
            self.send(sender, ItemsRequest(tuple(missing_here)))
        if newer_here:
            self.send(sender, ItemsPush(tuple(self.store.fetch(newer_here))))

    def _on_bucket_summary(self, sender: NodeId, message: BucketSummaryMessage) -> None:
        store = self.store
        count = store.bucket_count()
        # Summaries over another bucket grid say nothing about which of
        # *our* buckets differ; a mask that does not fit the grid or the
        # summaries would misplace them.
        indices = mask_indices(message.present, count) if message.bucket_count == count else None
        if indices is None or len(indices) != len(message.summaries):
            self._c_bucket_mismatch.inc()
            return
        theirs = [_EMPTY] * count
        for index, summary in zip(indices, message.summaries):
            theirs[index] = summary
        differing = tuple(
            index for index, (mine, other) in enumerate(zip(store.bucket_summaries(), theirs))
            if mine != other
        )
        if not differing:
            self._c_buckets_clean.inc()
            if self.ack_clean:
                # Empty digest: a no-op for the initiator's store, but
                # positive proof this peer is alive and in sync.
                self.send(sender, BucketDigestMessage((), (), False))
            return
        self._c_buckets_diverged.inc(len(differing))
        entries = sorted(store.bucket_digest(differing).items())
        truncated = False
        if self.max_digest is not None and len(entries) > self.max_digest:
            entries = sorted(self.host.rng.sample(entries, self.max_digest))
            truncated = True
        self.send(sender, BucketDigestMessage(differing, tuple(entries), truncated))

    def _on_bucket_digest(self, sender: NodeId, message: BucketDigestMessage) -> None:
        local = self.store.bucket_digest(message.buckets)
        self._exchange(sender, local, dict(message.entries), message.truncated)

