"""Message vocabulary of the DataDroplets request path.

Three conversations share these types:

* client ↔ soft-state coordinator (ClientPut/Get/... → ClientReply),
* coordinator ↔ persistent layer (StoreWrite / StoreAck, ReadRequest /
  ReadReply, BatchRead, Scan*, Aggregate*), and
* metadata reconstruction after catastrophic soft-layer failure
  (RebuildRequest flows through gossip, RebuildReply comes back direct).

Gossip payloads (``WritePayload``, ``ReadProbe``, ``RebuildProbe``) are
wire structs carried inside ``GossipMessage``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.common.ids import NodeId
from repro.common.messages import Message, message_type, wire_struct
from repro.store.tuples import Version, VersionedTuple

# ---------------------------------------------------------------------------
# client <-> coordinator
# ---------------------------------------------------------------------------


@message_type
@dataclass(frozen=True)
class ClientPut(Message):
    request_id: str
    key: str
    record: Dict[str, Any] = field(default_factory=dict)


@message_type
@dataclass(frozen=True)
class ClientGet(Message):
    request_id: str
    key: str


@message_type
@dataclass(frozen=True)
class ClientDelete(Message):
    request_id: str
    key: str


@message_type
@dataclass(frozen=True)
class ClientMultiGet(Message):
    request_id: str
    keys: Tuple[str, ...] = field(default_factory=tuple)


@message_type
@dataclass(frozen=True)
class ClientScan(Message):
    request_id: str
    attribute: str
    low: float = 0.0
    high: float = 0.0


@message_type
@dataclass(frozen=True)
class ClientAggregate(Message):
    request_id: str
    attribute: str
    kind: str = "avg"  # avg | sum | count | max | min


@message_type
@dataclass(frozen=True)
class ClientReply(Message):
    request_id: str
    ok: bool = True
    value: Any = None
    error: Optional[str] = None


# ---------------------------------------------------------------------------
# coordinator <-> persistent layer
# ---------------------------------------------------------------------------


@wire_struct
@dataclass(frozen=True)
class WritePayload:
    """Gossip payload of one disseminated write."""

    item: VersionedTuple
    reply_to: Optional[NodeId] = None  # coordinator expecting StoreAcks


@message_type
@dataclass(frozen=True)
class StoreWrite(Message):
    """Coordinator → storage entry point: inject a write into gossip.
    ``attempt`` numbers the coordinator's dispatches of one put, so a
    retry is a new gossip item that reaches, and is acked again by,
    holders the first dispatch already reached."""

    item: VersionedTuple
    reply_to: Optional[NodeId] = None
    attempt: int = 0


@message_type
@dataclass(frozen=True)
class StoreAck(Message):
    """Storage node → coordinator: 'my sieve admitted it; it is stored'."""

    key: str
    version: Version
    stored_at: NodeId


@message_type
@dataclass(frozen=True)
class ReadRequest(Message):
    read_id: str
    key: str
    reply_to: NodeId
    min_version: Optional[Version] = None


@message_type
@dataclass(frozen=True)
class ReadReply(Message):
    read_id: str
    key: str
    found: bool = False
    item: Optional[VersionedTuple] = None
    origin: Optional[NodeId] = None


@wire_struct
@dataclass(frozen=True)
class ReadProbe:
    """Gossip payload of an epidemic read (hint-less fallback path)."""

    read_id: str
    key: str
    reply_to: NodeId
    min_version: Optional[Version] = None


@message_type
@dataclass(frozen=True)
class BatchReadRequest(Message):
    read_id: str
    keys: Tuple[str, ...]
    reply_to: NodeId


@message_type
@dataclass(frozen=True)
class BatchReadReply(Message):
    read_id: str
    items: Tuple[VersionedTuple, ...] = field(default_factory=tuple)
    missing: Tuple[str, ...] = field(default_factory=tuple)
    origin: Optional[NodeId] = None


# ---------------------------------------------------------------------------
# range scans over the ordered overlay
# ---------------------------------------------------------------------------


@message_type
@dataclass(frozen=True)
class ScanRequest(Message):
    scan_id: str
    attribute: str
    low: float
    high: float
    reply_to: NodeId
    hops_left: int = 64
    routing: bool = True  # still routing toward the low end of the range
    collect_only: bool = False  # sibling request: contribute matches, no forwarding


@message_type
@dataclass(frozen=True)
class ScanPartial(Message):
    scan_id: str
    items: Tuple[VersionedTuple, ...] = field(default_factory=tuple)
    done: bool = False
    origin: Optional[NodeId] = None


# ---------------------------------------------------------------------------
# aggregates
# ---------------------------------------------------------------------------


@message_type
@dataclass(frozen=True)
class AggregateRequest(Message):
    query_id: str
    attribute: str
    kind: str
    reply_to: NodeId


@message_type
@dataclass(frozen=True)
class AggregateReply(Message):
    query_id: str
    ok: bool = True
    value: Optional[float] = None
    error: Optional[str] = None


# ---------------------------------------------------------------------------
# soft-state metadata reconstruction (paper §II, claim C10)
# ---------------------------------------------------------------------------


@wire_struct
@dataclass(frozen=True)
class RebuildProbe:
    """Gossip payload asking every storage node to report the keys it
    holds whose hash falls in the recovering coordinator's arcs."""

    rebuild_id: str
    reply_to: NodeId
    # Arcs as (start, end) ring positions, half-open (start, end].
    arcs: Tuple[Tuple[int, int], ...] = field(default_factory=tuple)


@message_type
@dataclass(frozen=True)
class RebuildReply(Message):
    rebuild_id: str
    entries: Tuple[Tuple[str, Version], ...] = field(default_factory=tuple)
    origin: Optional[NodeId] = None
