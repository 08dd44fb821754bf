"""Direct same-range reconciliation (paper §III-A).

"[...] have nodes responsible to the same key space (discovered by the
random walk procedure) check tuple redundancy directly between them and
restore redundancy as necessary."

:class:`RangeRepair` is an anti-entropy instance whose digests are
*scoped to the node's own sieve range* and whose partner is drawn from
the same-range peers the range count found — so the exchanged digests
are small (one range, not the whole store) and every exchange is with a
node that actually shares responsibility.

:class:`RangeScopedStore` memoises sieve admission per memtable bucket,
keyed on the memtable's mutation epoch: a repair round over an unchanged
store re-evaluates ``sieve.admits`` for *no* item, and a round after a
few writes re-evaluates only the dirtied buckets. A sieve-range change
(the size estimate moved the bucket grid) invalidates the whole cache.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.common.ids import NodeId
from repro.epidemic.antientropy import (
    AntiEntropy,
    AntiEntropyStore,
    BucketSummary,
    VersionedItem,
)
from repro.sieve.base import Sieve
from repro.store.memtable import Memtable
from repro.store.tuples import Version, VersionedTuple

#: Supplies the current same-range peer candidates (the range count's).
PeerSource = Callable[[], List[NodeId]]


class RangeScopedStore(AntiEntropyStore):
    """Memtable view restricted to items the node's sieve admits.

    Incoming items the sieve does not admit are ignored rather than
    stored: reconciliation must converge replicas of the shared range,
    not turn repair partners into accidental replicas of everything.
    """

    def __init__(self, memtable: Memtable, sieve: Sieve):
        self.memtable = memtable
        self.sieve = sieve
        #: bucket -> {key: packed version} of *admitted* items.
        self._scoped: Dict[int, Dict[str, int]] = {}
        #: bucket -> (xor, count) over the scoped entries.
        self._summaries: Dict[int, BucketSummary] = {}
        self._cache_epoch = -1
        self._cache_fingerprint: Optional[Tuple[Hashable, str]] = None
        # Cache observability (asserted in tests, reported by benches):
        self.cache_rebuilds = 0  # sieve-range changes → full invalidation
        self.cache_bucket_refreshes = 0  # dirty buckets re-sieved
        self.cache_hits = 0  # digest calls served without any re-sieving

    # -- admission cache ------------------------------------------------
    def _sieve_fingerprint(self) -> Tuple[Hashable, str]:
        """Identity of the sieve's current admission behaviour.

        ``range_key()`` captures arc/bucket moves for range sieves;
        ``describe()`` is folded in for sieves without a range key whose
        parameters still show up in their description."""
        return (self.sieve.range_key(), self.sieve.describe())

    def _refresh(self) -> None:
        fingerprint = self._sieve_fingerprint()
        if fingerprint != self._cache_fingerprint:
            # The sieve moved (e.g. size estimate doubled the bucket
            # grid): every cached admission decision is suspect.
            if self._cache_fingerprint is not None:
                self.cache_rebuilds += 1
            self._scoped.clear()
            self._summaries.clear()
            self._cache_epoch = -1
            self._cache_fingerprint = fingerprint
        memtable = self.memtable
        epoch = memtable.mutation_epoch
        if epoch == self._cache_epoch and len(self._scoped) == memtable.bucket_count():
            self.cache_hits += 1
            return
        admits = self.sieve.admits
        for bucket in range(memtable.bucket_count()):
            if bucket in self._scoped and memtable.bucket_epoch(bucket) <= self._cache_epoch:
                continue  # clean bucket: cached admissions still valid
            entries: Dict[str, int] = {}
            xor = 0
            for key in memtable.bucket_keys(bucket):
                item = memtable.get_any(key)
                if item is None or not admits(key, item.record):
                    continue
                entries[key] = item.version.packed()
                fp = memtable.fingerprint_of(key)
                if fp is not None:
                    xor ^= fp
            self._scoped[bucket] = entries
            self._summaries[bucket] = (xor, len(entries))
            self.cache_bucket_refreshes += 1
        self._cache_epoch = epoch

    # -- AntiEntropyStore interface -------------------------------------
    def digest(self) -> Dict[str, int]:
        self._refresh()
        out: Dict[str, int] = {}
        for entries in self._scoped.values():
            out.update(entries)
        return out

    def bucket_count(self) -> int:
        return self.memtable.bucket_count()

    def bucket_summaries(self) -> Tuple[BucketSummary, ...]:
        self._refresh()
        return tuple(self._summaries[b] for b in range(self.memtable.bucket_count()))

    def bucket_digest(self, buckets: Sequence[int]) -> Dict[str, int]:
        self._refresh()
        out: Dict[str, int] = {}
        for bucket in buckets:
            out.update(self._scoped.get(bucket, ()))
        return out

    def fetch(self, item_ids: Iterable[str]) -> List[VersionedItem]:
        return self.memtable.fetch(item_ids)

    def fetch_newer(self, entries: Iterable[Tuple[str, int]]) -> Tuple[List[VersionedItem], int]:
        return self.memtable.fetch_newer(entries)

    def apply(self, items: Iterable[VersionedItem]) -> int:
        changed = 0
        admits = self.sieve.admits
        for key, packed, payload in items:
            record, tombstone = payload
            if not admits(key, record):
                continue
            incoming = VersionedTuple(
                key=key,
                version=Version.unpacked(packed),
                record=dict(record),
                tombstone=bool(tombstone),
            )
            if self.memtable.put(incoming):
                changed += 1
        return changed


class RangeRepair(AntiEntropy):
    """Anti-entropy over the scoped store, partnered by the range count.

    Runs opportunistically: with no discovered same-range peer the round
    is a no-op (the range count will eventually find peers, or conclude
    the range is under-populated and trigger re-dissemination instead).

    Every initiated exchange is tracked against ``exchange_timeout``:
    clean rounds are positively acked (``ack_clean``), so a peer that
    never answers anything is distinguishable from one with nothing to
    say. After ``max_failures`` consecutive silent exchanges the peer is
    reported through ``on_peer_failed`` — the redundancy manager uses this to
    evict crashed nodes from ``known_peers`` instead of burning rounds on
    them forever. Every message a peer sends is reported through
    ``on_peer_heard``: the manager counts it as seen up.

    ``period`` may be a function, read again at every round: the storage
    stack passes the repair period times its policy's cadence factor, so
    under the adaptive policy a calm population reconciles less often.
    """

    name = "range-repair"

    def __init__(
        self,
        memtable: Memtable,
        sieve: Sieve,
        peer_source: PeerSource,
        period: Union[float, Callable[[], float]] = 10.0,
        max_digest: Optional[int] = None,
        exchange_timeout: float = 4.0,
        max_failures: int = 2,
        on_peer_failed: Optional[Callable[[NodeId], None]] = None,
        on_peer_heard: Optional[Callable[[NodeId], None]] = None,
    ):
        super().__init__(
            store=RangeScopedStore(memtable, sieve),
            period=period,
            max_digest=max_digest,
            ack_clean=True,
        )
        if exchange_timeout <= 0:
            raise ValueError("exchange_timeout must be positive")
        if max_failures <= 0:
            raise ValueError("max_failures must be positive")
        self.peer_source = peer_source
        self.exchange_timeout = exchange_timeout
        self.max_failures = max_failures
        self.on_peer_failed = on_peer_failed
        self.on_peer_heard = on_peer_heard
        #: peer value -> deadline of the oldest unanswered exchange.
        self._outstanding: Dict[int, float] = {}
        self._failures: Dict[int, int] = {}

    def bind(self, host) -> None:
        super().bind(host)
        self._c_timeouts = host.metrics.counter("range_repair.exchange_timeouts")

    def select_peer(self) -> Optional[NodeId]:
        peers = self.peer_source()
        if not peers:
            return None
        return self.host.rng.choice(sorted(peers, key=lambda p: p.value))

    # -- targeted repair -------------------------------------------------
    def repair_with(self, peer: NodeId) -> None:
        """Direct one reconciliation round at a specific peer (used by
        the redundancy manager's targeted repair path)."""
        self.initiate_exchange(peer)

    # -- exchange liveness tracking --------------------------------------
    def _on_initiate(self, peer: NodeId) -> None:
        value = peer.value
        if value in self._outstanding:
            return  # an earlier exchange with this peer is still pending
        deadline = self.host.now + self.exchange_timeout
        self._outstanding[value] = deadline
        self.host.set_timer(self.exchange_timeout, lambda: self._check_deadline(value, deadline))

    def _on_peer_response(self, sender: NodeId) -> None:
        self._outstanding.pop(sender.value, None)
        self._failures.pop(sender.value, None)
        if self.on_peer_heard is not None:
            self.on_peer_heard(sender)

    def _check_deadline(self, value: int, deadline: float) -> None:
        if self._outstanding.get(value) != deadline:
            return  # answered, or superseded by a later re-initiation
        del self._outstanding[value]
        self._c_timeouts.inc()
        failures = self._failures.get(value, 0) + 1
        self._failures[value] = failures
        if failures >= self.max_failures:
            self._failures.pop(value, None)
            if self.on_peer_failed is not None:
                self.on_peer_failed(NodeId(value))
