"""Soft-state coordinator protocol (paper §II, claim C10).

One instance runs on every soft-state node. Responsibilities, straight
from the paper:

* **ordering** — the coordinator owns a per-key version counter; every
  write through it gets the next version, which is the only assumption
  the persistent layer makes ("write operations are correctly ordered by
  the soft-state layer");
* **caching** — a version-checked tuple cache ("cache inconsistency
  issues are eliminated" because the coordinator always knows the latest
  version);
* **hints** — remembers which storage nodes acked each key ("maintaining
  knowledge of some of the nodes that store the data [...] improves
  operation performance"), making reads point-to-point and quorum-free;
* **delegation** — the actual storage work is pushed down into the
  epidemic persistent layer (StoreWrite → gossip dissemination);
* **reconstruction** — all of the above is soft state; after a crash it
  is rebuilt from the persistent layer (rebuild_metadata).

Read path: cache, then the first ``read_fanout`` hints at once, then
one more hint per *hedge delay* (twice the upper quartile of measured
round trips, at most ``read_timeout``) while the read is open, and only
when the hints run out an epidemic read (``EpidemicRead``) — the hedged
request of Dean & Barroso, "The Tail at Scale" (CACM 2013), over the
copies the hints already name.

Write path: a put is acked once ``ack_quorum`` storage nodes have
acked it (``StoreAck``). One that gathers no ack after ``WRITE_RETRIES``
re-dispatches (a sieve-coverage hole or a partition) fails visibly with
``unavailable``: its outcome is indeterminate (it may have landed with
its acks lost), and nothing holds it in soft state, which the rebuild
from the persistent layer could not recover. Reads ask storage for the
newest version known to be stored (``KeyMeta.stored``), never for one
that only a failed put was given.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.common.hashing import Arc
from repro.common.ids import NodeId
from repro.common.messages import Message, message_type
from repro.obs.trace import TraceContext
from repro.softstate.cache import TupleCache
from repro.softstate.messages import (
    AggregateReply,
    AggregateRequest,
    BatchReadReply,
    BatchReadRequest,
    ClientAggregate,
    ClientDelete,
    ClientGet,
    ClientMultiGet,
    ClientPut,
    ClientReply,
    ClientScan,
    ReadProbe,
    ReadReply,
    ReadRequest,
    RebuildProbe,
    RebuildReply,
    ScanPartial,
    ScanRequest,
    StoreAck,
    StoreWrite,
)
from repro.softstate.onehop import OneHopRouting, RedirectedOp
from repro.softstate.ring import ConsistentHashRing
from repro.sim.node import Protocol
from repro.store.tuples import Version, VersionedTuple, ZERO_VERSION, make_tuple

#: Supplies current storage-layer entry points (alive storage node ids).
StorageDirectory = Callable[[], List[NodeId]]

#: Extra entry points tried for an epidemic read.
FLOOD_RETRIES = 2
MULTIGET_TIMEOUT = 5.0
SCAN_HOP_BUDGET = 64
AGGREGATE_TIMEOUT = 3.0
#: Forwards of a misrouted op before giving up on a loop.
REDIRECT_HOP_BUDGET = 3
#: Re-dispatches of an unacked write before it fails.
WRITE_RETRIES = 2
#: Remembered storage nodes per key.
HINT_CAPACITY = 8
#: Hinted-read round trips the hedge delay is drawn from.
HEDGE_WINDOW = 32
#: Round trips a coordinator measures before it hedges at all.
HEDGE_MIN_SAMPLES = 4
#: Hedge delay = this × the window's upper quartile (at most ``read_timeout``).
HEDGE_FACTOR = 2.0


@message_type
@dataclass(frozen=True)
class EpidemicRead(Message):
    """Coordinator → storage entry: flood a read probe through gossip."""

    probe: ReadProbe


@message_type
@dataclass(frozen=True)
class InjectRebuild(Message):
    """Coordinator → storage entry: flood a metadata rebuild probe."""

    probe: RebuildProbe


@dataclass
class SoftStateConfig:
    """Tunables of the coordinator."""

    ack_quorum: int = 1  # StoreAcks before a write is confirmed
    ack_timeout: float = 3.0
    read_fanout: int = 2  # hint nodes probed at once; the rest are hedged
    read_timeout: float = 3.0
    scan_timeout: float = 8.0
    cache_capacity: int = 10_000

    def __post_init__(self) -> None:
        for name in ("ack_quorum", "ack_timeout", "read_fanout", "read_timeout",
                     "scan_timeout", "cache_capacity"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class KeyMeta:
    """Per-key soft state: the newest version issued or seen (the next
    put takes one above it), the newest known to be stored (a read's
    floor: a put that failed may be stored nowhere) and storage hints."""

    version: Version = ZERO_VERSION
    stored: Version = ZERO_VERSION
    hints: Set[NodeId] = field(default_factory=set)


@dataclass
class _WriteState:
    request_id: str
    client: NodeId
    item: VersionedTuple
    acks: Set[NodeId] = field(default_factory=set)
    retries_left: int = 0
    # Trace context of the originating client op, captured at dispatch so
    # timer-driven retries re-join the op's causal tree (timers otherwise
    # break the ambient-context chain).
    ctx: Optional[TraceContext] = None


@dataclass
class _ReadState:
    request_id: Optional[str]  # None for sub-reads of a multiget
    client: Optional[NodeId]
    key: str
    min_version: Optional[Version]
    #: Hints not yet asked, in probe order; one is hedged per timer.
    untried: List[NodeId] = field(default_factory=list)
    #: When the first probe went out, while its replies still time a
    #: round trip (cleared once a hedge or flood goes out).
    sent_at: Optional[float] = None
    best: Optional[VersionedTuple] = None
    flood_attempts: int = 0
    last_entry: Optional[NodeId] = None
    done: bool = False
    on_done: Optional[Callable[[str, Optional[VersionedTuple]], None]] = None
    ctx: Optional[TraceContext] = None  # see _WriteState.ctx


@dataclass
class _MultiGetState:
    request_id: str
    client: NodeId
    pending: Set[str]
    results: Dict[str, Optional[VersionedTuple]] = field(default_factory=dict)
    # A key with a stored version came back with nothing.
    unavailable: bool = False
    done: bool = False


@dataclass
class _ScanState:
    request_id: str
    client: NodeId
    attribute: str
    items: Dict[str, VersionedTuple] = field(default_factory=dict)
    done: bool = False
    #: Any ScanPartial arrived (even an empty one). A deadline with no
    #: response at all means the routing walk died (e.g. a stale-view
    #: routing loop), not that the range is empty.
    responded: bool = False
    retried: bool = False
    low: float = 0.0
    high: float = 0.0


@dataclass
class _AggregateState:
    request_id: str
    client: NodeId
    attribute: str
    kind: str
    retried: bool = False
    done: bool = False


class SoftStateProtocol(Protocol):
    """The coordinator protocol (see module docstring).

    Args:
        ring: the coordinator ring shared by the soft layer in legacy
            mode. ``None`` on a node that runs the one-hop router: the
            coordinator then routes by that router's own table.
        storage_directory: current storage-layer entry points.
        config: coordinator tunables.
    """

    name = "soft"

    def __init__(
        self,
        ring: Optional[ConsistentHashRing],
        storage_directory: StorageDirectory,
        config: Optional[SoftStateConfig] = None,
    ):
        super().__init__()
        self.ring = ring
        self.storage_directory = storage_directory
        self.config = config if config is not None else SoftStateConfig()
        self.cache = TupleCache(self.config.cache_capacity)
        self.metadata: Dict[str, KeyMeta] = {}
        self._writes: Dict[Tuple[str, int], _WriteState] = {}
        self._reads: Dict[str, _ReadState] = {}
        self._multigets: Dict[str, _MultiGetState] = {}
        self._scans: Dict[str, _ScanState] = {}
        self._aggregates: Dict[str, _AggregateState] = {}
        self._round_trips: Deque[float] = deque(maxlen=HEDGE_WINDOW)
        self._seq = itertools.count()
        self._router: Optional[OneHopRouting] = None

    # ------------------------------------------------------------------
    def on_start(self) -> None:
        # Soft state is rebuilt empty on every boot; that is the point.
        self.cache = TupleCache(self.config.cache_capacity)
        self.metadata = {}
        self._writes = {}
        self._reads = {}
        self._multigets = {}
        self._scans = {}
        self._aggregates = {}
        self._round_trips = deque(maxlen=HEDGE_WINDOW)
        # A node that runs the one-hop router routes by its table (read at
        # call time: the router boots after us) and forwards misrouted ops
        # to the owner it names (RedirectedOp) instead of bouncing an error.
        try:
            self._router = self.host.protocol("onehop")  # type: ignore[assignment]
        except KeyError:
            self._router = None

    # -- routing ---------------------------------------------------------
    def _owns(self, key: str) -> bool:
        if self._router is not None:
            return self._router.table.owns(key)
        return self.ring.owns(self.host.node_id, key)

    def _owner_of(self, key: str) -> Optional[NodeId]:
        if self._router is not None:
            value = self._router.table.coordinator_value(key)
            return None if value is None else NodeId(value)
        return self.ring.coordinator_for(key)

    def _responsibility(self) -> List[Arc]:
        if self._router is not None:
            return self._router.table.responsibility()
        return self.ring.responsibility_of(self.host.node_id)

    # -- helpers ---------------------------------------------------------
    def _next_id(self, prefix: str) -> str:
        return f"{prefix}:{self.host.node_id.value}:{next(self._seq)}"

    def _coordinator_code(self) -> int:
        return self.host.node_id.value % (1 << 20)

    def _storage_entry(self, exclude: Optional[NodeId] = None) -> Optional[NodeId]:
        entries = [n for n in self.storage_directory() if n != exclude]
        if not entries:
            return None
        return self.host.rng.choice(sorted(entries, key=lambda n: n.value))

    def _reply(self, client: NodeId, request_id: str, ok: bool = True,
               value: Any = None, error: Optional[str] = None) -> None:
        # Replies go to the requester's *client* protocol, not to "soft".
        self.host.send(client, "client", ClientReply(request_id, ok=ok, value=value, error=error))

    def _to_storage(self, dst: NodeId, message: Message) -> None:
        """All coordinator -> persistent-layer traffic targets the
        'storage' protocol on the destination node."""
        self.host.send(dst, "storage", message)

    def _meta(self, key: str) -> KeyMeta:
        meta = self.metadata.get(key)
        if meta is None:
            meta = KeyMeta()
            self.metadata[key] = meta
        return meta

    def _add_hint(self, key: str, storage_node: NodeId) -> None:
        meta = self._meta(key)
        if len(meta.hints) < HINT_CAPACITY:
            meta.hints.add(storage_node)

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------
    def on_message(self, sender: NodeId, message: Message) -> None:
        if isinstance(message, ClientPut):
            self._handle_put(sender, message.request_id, message.key, message.record,
                             delete=False, origin=message)
        elif isinstance(message, ClientDelete):
            self._handle_put(sender, message.request_id, message.key, {},
                             delete=True, origin=message)
        elif isinstance(message, ClientGet):
            self._handle_get(sender, message)
        elif isinstance(message, RedirectedOp):
            self._handle_redirected(message)
        elif isinstance(message, ClientMultiGet):
            self._handle_multiget(sender, message)
        elif isinstance(message, ClientScan):
            self._handle_scan(sender, message)
        elif isinstance(message, ClientAggregate):
            self._handle_aggregate(sender, message)
        elif isinstance(message, StoreAck):
            self._handle_store_ack(message)
        elif isinstance(message, ReadReply):
            self._handle_read_reply(message)
        elif isinstance(message, BatchReadReply):
            self._handle_batch_reply(message)
        elif isinstance(message, ScanPartial):
            self._handle_scan_partial(message)
        elif isinstance(message, AggregateReply):
            self._handle_aggregate_reply(message)
        elif isinstance(message, RebuildReply):
            self._handle_rebuild_reply(message)
        else:
            self.host.metrics.counter("soft.unexpected_message").inc()

    # ------------------------------------------------------------------
    # writes (put / delete)
    # ------------------------------------------------------------------
    def _handle_put(self, client: NodeId, request_id: str, key: str,
                    record: Dict[str, Any], delete: bool,
                    origin: Optional[Message] = None, hops: int = 0) -> None:
        if not self._owns(key):
            self._forward(client, request_id, key, origin=origin, hops=hops)
            return
        meta = self._meta(key)
        version = meta.version.next(self._coordinator_code())
        meta.version = version
        if delete:
            # Tombstones inherit the dead record's attributes so that
            # attribute/tag sieves route the deletion to the same nodes
            # that stored the original (see softstate/messages.py).
            prior = self.cache.get(key)
            attrs = dict(prior.record) if prior is not None else {}
            item = VersionedTuple(key=key, version=version, record=attrs, tombstone=True)
        else:
            item = make_tuple(key, record, version)
        self.cache.put(item)
        state = _WriteState(
            request_id=request_id,
            client=client,
            item=item,
            retries_left=WRITE_RETRIES,
            ctx=self.host.tracer.current,
        )
        self._writes[(key, version.packed())] = state
        self._dispatch_write(state)
        self.host.metrics.counter("soft.writes").inc()

    def _dispatch_write(self, state: _WriteState) -> None:
        entry = self._storage_entry()
        if entry is None:
            self._write_failed(state)
            return
        self._to_storage(entry, StoreWrite(state.item, reply_to=self.host.node_id))
        key = state.item.key
        packed = state.item.version.packed()
        self.host.set_timer(self.config.ack_timeout, lambda: self._write_deadline(key, packed))

    def _write_deadline(self, key: str, packed: int) -> None:
        state = self._writes.get((key, packed))
        if state is None:
            return  # acked: _handle_store_ack stopped tracking it
        if state.retries_left > 0:
            state.retries_left -= 1
            self.host.metrics.counter("soft.write_retries").inc()
            # Timer context: re-activate the op's trace so the retry's
            # StoreWrite stays in its causal tree.
            with self.host.tracer.activate(state.ctx):
                self._dispatch_write(state)
        else:
            self._write_failed(state)

    def _write_failed(self, state: _WriteState) -> None:
        """No ack after the retries: the client is told the put failed.
        Its outcome is indeterminate (it may have landed with its acks
        lost), so the cache stops serving it and reads go to storage with
        the last stored version as their floor; the next put of the key
        still takes the next version."""
        self._writes.pop((state.item.key, state.item.version.packed()), None)
        self.cache.invalidate(state.item.key, state.item.version)
        self.host.metrics.counter("soft.write_unavailable").inc()
        self._reply(state.client, state.request_id, ok=False, error="unavailable")

    def _handle_store_ack(self, ack: StoreAck) -> None:
        self._add_hint(ack.key, ack.stored_at)
        state = self._writes.get((ack.key, ack.version.packed()))
        if state is None:
            return
        state.acks.add(ack.stored_at)
        if len(state.acks) >= self.config.ack_quorum:
            # Confirmed: later acks only add hints (above), and the
            # write's deadline finds nothing left to retry.
            self._writes.pop((ack.key, ack.version.packed()))
            self._note_stored(ack.key, ack.version)
            self._reply(state.client, state.request_id, ok=True, value=self._version_view(state.item))

    def _stored_version(self, key: str) -> Optional[Version]:
        """The newest version of ``key`` known to be on a storage node,
        None if none is: a read that finds nothing then is unavailable,
        not absent."""
        meta = self.metadata.get(key)
        return meta.stored if meta is not None and meta.stored != ZERO_VERSION else None

    def _note_stored(self, key: str, version: Version) -> None:
        """A storage node holds ``key`` at ``version``."""
        meta = self._meta(key)
        meta.version = max(meta.version, version)
        meta.stored = max(meta.stored, version)

    @staticmethod
    def _version_view(item: VersionedTuple) -> Dict[str, int]:
        return {"sequence": item.version.sequence, "coordinator": item.version.coordinator}

    # ------------------------------------------------------------------
    # reads (get)
    # ------------------------------------------------------------------
    def _handle_get(self, client: NodeId, message: ClientGet, hops: int = 0) -> None:
        if not self._owns(message.key):
            self._forward(client, message.request_id, message.key, origin=message, hops=hops)
            return
        self.host.metrics.counter("soft.reads").inc()
        outcome = self._local_lookup(message.key)
        if outcome is not None:
            found, item = outcome
            value = None if (not found or item is None or item.tombstone) else dict(item.record)
            self._reply(client, message.request_id, ok=True, value=value)
            return
        self._start_read(
            key=message.key,
            request_id=message.request_id,
            client=client,
            on_done=None,
        )

    def _local_lookup(self, key: str) -> Optional[Tuple[bool, Optional[VersionedTuple]]]:
        """Resolve from the version-checked cache.

        Returns None when the persistent layer must be consulted."""
        cached = self.cache.get(key, required_version=self._stored_version(key))
        if cached is not None:
            self.host.metrics.counter("soft.cache_hits").inc()
            return (not cached.tombstone, cached)
        return None

    def _start_read(
        self,
        key: str,
        request_id: Optional[str],
        client: Optional[NodeId],
        on_done: Optional[Callable[[str, Optional[VersionedTuple]], None]],
    ) -> None:
        meta = self.metadata.get(key)
        min_version = self._stored_version(key)
        read_id = self._next_id("read")
        state = _ReadState(
            request_id=request_id,
            client=client,
            key=key,
            min_version=min_version,
            on_done=on_done,
            ctx=self.host.tracer.current,
        )
        self._reads[read_id] = state
        hints = sorted(meta.hints, key=lambda n: n.value) if meta is not None else []
        if hints:
            fanout = self.config.read_fanout
            for target in hints[:fanout]:
                self._to_storage(target, ReadRequest(read_id, key, self.host.node_id, min_version))
            state.sent_at = self.host.now
            self.host.metrics.counter("soft.hinted_reads").inc()
            delay = self.hedge_delay()
            if delay is None:
                # Unmeasured: no hedges, the flood comes after read_timeout.
                delay = self.config.read_timeout
            else:
                state.untried = hints[fanout:]
            self.host.set_timer(delay, lambda: self._read_timer(read_id))
        else:
            self._flood_read(read_id, state)
            self.host.set_timer(self.config.read_timeout, lambda: self._read_timer(read_id))

    def hedge_delay(self) -> Optional[float]:
        """How long a hinted probe may go unanswered before the next hint
        is asked: ``HEDGE_FACTOR`` × the upper quartile of the last
        ``HEDGE_WINDOW`` hinted round trips, at most ``read_timeout``.
        ``None`` (reads are not hedged) until ``HEDGE_MIN_SAMPLES`` round
        trips are measured: a quantile of fewer hedges healthy replicas."""
        samples = self._round_trips
        if len(samples) < HEDGE_MIN_SAMPLES:
            return None
        upper_quartile = sorted(samples)[3 * len(samples) // 4]
        return min(self.config.read_timeout, HEDGE_FACTOR * upper_quartile)

    def _flood_read(self, read_id: str, state: _ReadState) -> None:
        # Always consume an attempt, even with no reachable entry —
        # otherwise the deadline loop would retry forever.
        state.flood_attempts += 1
        state.sent_at = None
        # A different entry point each attempt: the previous one may be
        # crashed or cut off by a partition (the flood dies silently
        # then). With a single known entry, reuse it.
        entry = self._storage_entry(exclude=state.last_entry)
        if entry is None:
            entry = self._storage_entry()
        if entry is None:
            return
        state.last_entry = entry
        probe = ReadProbe(read_id, state.key, self.host.node_id, state.min_version)
        self._to_storage(entry, EpidemicRead(probe))
        self.host.metrics.counter("soft.epidemic_reads").inc()

    def _read_timer(self, read_id: str) -> None:
        state = self._reads.get(read_id)
        if state is None or state.done:
            return
        # Timers drop the ambient trace context: re-join the op's tree.
        with self.host.tracer.activate(state.ctx):
            if state.untried:
                # Hedge (Dean & Barroso, "The Tail at Scale"): the probed
                # hints are slow or down, so ask the next copy they name
                # before paying for a flood.
                target = state.untried.pop(0)
                state.sent_at = None
                self._to_storage(target, ReadRequest(read_id, state.key, self.host.node_id,
                                                     state.min_version))
                self.host.metrics.counter("soft.hedged_reads").inc()
                # Measured already: the window only grows until a reboot.
                self.host.set_timer(self.hedge_delay(), lambda: self._read_timer(read_id))
                return
            if state.flood_attempts <= FLOOD_RETRIES:
                # Every hint (or a previous flood) went unanswered: escalate.
                self._flood_read(read_id, state)
                self.host.set_timer(self.config.read_timeout, lambda: self._read_timer(read_id))
                return
        self._finish_read(read_id, state, state.best)

    def _handle_read_reply(self, reply: ReadReply) -> None:
        state = self._reads.get(reply.read_id)
        if state is None or state.done:
            return
        if state.sent_at is not None:
            # Answers a first probe, sent before any hedge or flood.
            self._round_trips.append(self.host.now - state.sent_at)
        if reply.origin is not None and reply.found:
            self._add_hint(state.key, reply.origin)
        if not reply.found or reply.item is None:
            return
        item = reply.item
        if state.min_version is not None and item.version < state.min_version:
            if state.best is None or item.version > state.best.version:
                state.best = item
            return
        self._finish_read(reply.read_id, state, item)

    def _finish_read(self, read_id: str, state: _ReadState, item: Optional[VersionedTuple]) -> None:
        state.done = True
        self._reads.pop(read_id, None)
        if item is not None:
            self.cache.put(item)
            self._note_stored(state.key, item.version)
        if state.on_done is not None:
            state.on_done(state.key, item)
            return
        if state.client is None or state.request_id is None:
            return
        if item is None and state.min_version is not None:
            # We know a version exists but nothing reachable holds it.
            self._reply(state.client, state.request_id, ok=False, error="unavailable")
            self.host.metrics.counter("soft.read_unavailable").inc()
            return
        value = None if item is None or item.tombstone else dict(item.record)
        self._reply(state.client, state.request_id, ok=True, value=value)

    # ------------------------------------------------------------------
    # multiget
    # ------------------------------------------------------------------
    def _handle_multiget(self, client: NodeId, message: ClientMultiGet) -> None:
        self.host.metrics.counter("soft.multigets").inc()
        state = _MultiGetState(
            request_id=message.request_id,
            client=client,
            pending=set(message.keys),
        )
        mg_id = self._next_id("mget")
        self._multigets[mg_id] = state

        remaining: List[str] = []
        for key in message.keys:
            outcome = self._local_lookup(key)
            if outcome is not None:
                found, item = outcome
                state.results[key] = item if found else None
                state.pending.discard(key)
            else:
                remaining.append(key)
        if not state.pending:
            self._finish_multiget(mg_id, state)
            return

        # Group the remaining keys by a hint node so co-located keys ride
        # one BatchReadRequest — this is where correlation-aware sieves
        # pay off (claim C6 / experiment E12).
        groups: Dict[NodeId, List[str]] = {}
        loners: List[str] = []
        for key in remaining:
            meta = self.metadata.get(key)
            hints = sorted(meta.hints, key=lambda n: n.value) if meta is not None else []
            if hints:
                groups.setdefault(hints[0], []).append(key)
            else:
                loners.append(key)
        for target, keys in groups.items():
            self._to_storage(target, BatchReadRequest(mg_id, tuple(keys), self.host.node_id))
            self.host.metrics.counter("soft.batch_reads").inc()
        for key in loners:
            self._start_read(
                key=key,
                request_id=None,
                client=None,
                on_done=lambda k, item, mid=mg_id: self._multiget_item(mid, k, item),
            )
        self.host.set_timer(MULTIGET_TIMEOUT, lambda: self._multiget_deadline(mg_id))

    def _handle_batch_reply(self, reply: BatchReadReply) -> None:
        state = self._multigets.get(reply.read_id)
        if state is None or state.done:
            return
        for item in reply.items:
            if reply.origin is not None:
                self._add_hint(item.key, reply.origin)
            self.cache.put(item)
            self._multiget_item(reply.read_id, item.key, item)
        for key in reply.missing:
            # The hinted node lost it (or never had it): per-key fallback.
            if key in state.pending:
                self._start_read(
                    key=key,
                    request_id=None,
                    client=None,
                    on_done=lambda k, item, mid=reply.read_id: self._multiget_item(mid, k, item),
                )

    def _multiget_item(self, mg_id: str, key: str, item: Optional[VersionedTuple]) -> None:
        state = self._multigets.get(mg_id)
        if state is None or state.done or key not in state.pending:
            return
        self._multiget_result(state, key, item)
        if not state.pending:
            self._finish_multiget(mg_id, state)

    def _multiget_deadline(self, mg_id: str) -> None:
        state = self._multigets.get(mg_id)
        if state is None or state.done:
            return
        for key in list(state.pending):
            self._multiget_result(state, key, None)
        self._finish_multiget(mg_id, state)

    def _multiget_result(self, state: _MultiGetState, key: str,
                         item: Optional[VersionedTuple]) -> None:
        state.results[key] = item
        state.pending.discard(key)
        if item is None and self._stored_version(key) is not None:
            # As for a get: a version is stored but nothing reachable
            # returned it, so the key is not absent.
            state.unavailable = True

    def _finish_multiget(self, mg_id: str, state: _MultiGetState) -> None:
        state.done = True
        self._multigets.pop(mg_id, None)
        if state.unavailable:
            self._reply(state.client, state.request_id, ok=False, error="unavailable")
            self.host.metrics.counter("soft.read_unavailable").inc()
            return
        view = {}
        for key, item in state.results.items():
            view[key] = None if item is None or item.tombstone else dict(item.record)
        self._reply(state.client, state.request_id, ok=True, value=view)

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    def _handle_scan(self, client: NodeId, message: ClientScan) -> None:
        self.host.metrics.counter("soft.scans").inc()
        entry = self._storage_entry()
        if entry is None:
            self._reply(client, message.request_id, ok=False, error="no storage entry point")
            return
        scan_id = self._next_id("scan")
        self._scans[scan_id] = _ScanState(
            message.request_id, client, message.attribute,
            low=message.low, high=message.high,
        )
        self._launch_scan(scan_id, entry)

    def _launch_scan(self, scan_id: str, entry: NodeId) -> None:
        state = self._scans[scan_id]
        self._to_storage(
            entry,
            ScanRequest(
                scan_id,
                state.attribute,
                state.low,
                state.high,
                self.host.node_id,
                hops_left=SCAN_HOP_BUDGET,
                routing=True,
            ),
        )
        self.host.set_timer(self.config.scan_timeout, lambda: self._scan_deadline(scan_id))

    def _handle_scan_partial(self, partial: ScanPartial) -> None:
        state = self._scans.get(partial.scan_id)
        if state is None or state.done:
            return
        state.responded = True
        for item in partial.items:
            current = state.items.get(item.key)
            if current is None or item.version > current.version:
                state.items[item.key] = item
        if partial.done:
            # Give straggler partials (sibling contributions from the
            # walked buckets) one round-trip to land before finishing.
            scan_id = partial.scan_id
            self.host.set_timer(0.5, lambda: self._finish_scan_if_open(scan_id))

    def _finish_scan_if_open(self, scan_id: str) -> None:
        state = self._scans.get(scan_id)
        if state is not None and not state.done:
            self._finish_scan(scan_id, state)

    def _scan_deadline(self, scan_id: str) -> None:
        state = self._scans.get(scan_id)
        if state is None or state.done:
            return
        if not state.responded and not state.retried:
            # The walk died without a single report — a routing loop over
            # stale overlay views (e.g. mid-estimate-epoch disagreement on
            # bucket counts), not an empty range. Relaunch once from a
            # fresh entry point; views typically reconverge within the
            # elapsed scan timeout.
            state.retried = True
            self.host.metrics.counter("soft.scan_relaunches").inc()
            entry = self._storage_entry()
            if entry is not None:
                # Fresh scan id: storage loop guards remember the dead
                # walk's id and would drop its routing hops on sight.
                self._scans.pop(scan_id, None)
                fresh_id = self._next_id("scan")
                self._scans[fresh_id] = state
                self._launch_scan(fresh_id, entry)
                return
        self._finish_scan(scan_id, state)

    def _finish_scan(self, scan_id: str, state: _ScanState) -> None:
        state.done = True
        self._scans.pop(scan_id, None)
        rows = [
            dict(item.record, **{"_key": item.key})
            for item in state.items.values()
            if not item.tombstone
        ]
        rows.sort(key=lambda r: (r.get(state.attribute, 0), r["_key"]))
        self._reply(state.client, state.request_id, ok=True, value=rows)

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def _handle_aggregate(self, client: NodeId, message: ClientAggregate) -> None:
        self.host.metrics.counter("soft.aggregates").inc()
        query_id = self._next_id("agg")
        self._aggregates[query_id] = _AggregateState(
            message.request_id, client, message.attribute, message.kind
        )
        self._dispatch_aggregate(query_id)
        self.host.set_timer(AGGREGATE_TIMEOUT, lambda: self._aggregate_deadline(query_id))

    def _dispatch_aggregate(self, query_id: str) -> None:
        state = self._aggregates.get(query_id)
        if state is None or state.done:
            return
        entry = self._storage_entry()
        if entry is None:
            self._finish_aggregate(query_id, state, ok=False, error="no storage entry point")
            return
        self._to_storage(entry, AggregateRequest(query_id, state.attribute, state.kind, self.host.node_id))

    def _handle_aggregate_reply(self, reply: AggregateReply) -> None:
        state = self._aggregates.get(reply.query_id)
        if state is None or state.done:
            return
        if reply.ok:
            self._finish_aggregate(reply.query_id, state, ok=True, value=reply.value)
        elif not state.retried:
            # The entry point may have just booted (no converged estimate
            # yet): ask another one, once, as after a timeout.
            state.retried = True
            self._dispatch_aggregate(reply.query_id)
        else:
            self._finish_aggregate(reply.query_id, state, ok=False, error=reply.error)

    def _aggregate_deadline(self, query_id: str) -> None:
        state = self._aggregates.get(query_id)
        if state is None or state.done:
            return
        if not state.retried:
            state.retried = True
            self._dispatch_aggregate(query_id)
            self.host.set_timer(AGGREGATE_TIMEOUT, lambda: self._aggregate_deadline(query_id))
        else:
            self._finish_aggregate(query_id, state, ok=False, error="aggregate timeout")

    def _finish_aggregate(self, query_id: str, state: _AggregateState, ok: bool,
                          value: Optional[float] = None, error: Optional[str] = None) -> None:
        state.done = True
        self._aggregates.pop(query_id, None)
        self._reply(state.client, state.request_id, ok=ok, value=value, error=error)

    # ------------------------------------------------------------------
    # metadata reconstruction (claim C10 / experiment E13)
    # ------------------------------------------------------------------
    def rebuild_metadata(self) -> str:
        """Flood a rebuild probe for this coordinator's arcs; storage
        nodes answer with (key, version) digests of matching keys.
        Returns the rebuild id (progress is observable via metadata)."""
        arcs = tuple((arc.start, arc.end) for arc in self._responsibility())
        rebuild_id = self._next_id("rebuild")
        probe = RebuildProbe(rebuild_id, self.host.node_id, arcs)
        entry = self._storage_entry()
        if entry is not None:
            self._to_storage(entry, InjectRebuild(probe))
            self.host.metrics.counter("soft.rebuilds").inc()
        return rebuild_id

    def _handle_rebuild_reply(self, reply: RebuildReply) -> None:
        for key, version in reply.entries:
            self._note_stored(key, version)
            if reply.origin is not None:
                self._add_hint(key, reply.origin)

    # ------------------------------------------------------------------
    def _handle_redirected(self, message: RedirectedOp) -> None:
        """A peer coordinator forwarded a client op it did not own; serve
        it (or keep forwarding, bounded by the hop budget)."""
        op = message.op
        if isinstance(op, ClientPut):
            self._handle_put(message.client, op.request_id, op.key, op.record,
                             delete=False, origin=op, hops=message.hops)
        elif isinstance(op, ClientDelete):
            self._handle_put(message.client, op.request_id, op.key, {},
                             delete=True, origin=op, hops=message.hops)
        elif isinstance(op, ClientGet):
            self._handle_get(message.client, op, hops=message.hops)
        else:
            self.host.metrics.counter("soft.unexpected_message").inc()

    def _forward(self, client: NodeId, request_id: str, key: str,
                 origin: Optional[Message] = None, hops: int = 0) -> None:
        """Misrouted request: redirect it to the owner this node's table
        names (one-hop mode) or, in legacy mode, tell the client who owns
        the key."""
        owner = self._owner_of(key)
        self.host.metrics.counter("soft.misrouted").inc()
        if (
            self._router is not None
            and origin is not None
            and owner is not None
            and owner != self.host.node_id
            and hops < REDIRECT_HOP_BUDGET
        ):
            self.host.metrics.counter("onehop.stale_routes").inc()
            tracer = self.host.tracer
            if tracer.active:
                tracer.event("stale-route", self.host.node_id.value, self.host.now,
                             key=key, hops=hops)
            self.host.send(owner, "soft", RedirectedOp(client, origin, hops + 1))
            return
        self._reply(
            client,
            request_id,
            ok=False,
            error=f"not coordinator; retry at {owner.value if owner else 'unknown'}",
        )
