"""Wire codec for the asyncio runtime.

:class:`BinaryCodec` encodes registered
:class:`~repro.common.messages.Message` dataclasses into a compact
binary format: a one-byte format version (:data:`FORMAT_BINARY`),
varint-length-prefixed envelopes, positional per-class field tables
derived from ``dataclasses.fields`` and one-byte type tags for every
supported value kind. No field names or structural overhead go on the
wire. Nested dataclasses, :class:`NodeId`, tuples and sets round-trip
exactly; non-finite floats (NaN/inf) are rejected.

It is the only format a node sends or accepts: a datagram whose first
byte is neither :data:`FORMAT_BINARY` nor :data:`FORMAT_FRAGMENT` is an
unknown frame (:func:`decode_datagram_detailed` raises
:class:`CodecError`). The tagged-JSON codec it replaced (E16: 2.4x the
bytes) is :mod:`repro.baselines.jsonwire`, that experiment's offline
comparison arm.

The simulator never serializes — it passes message objects by reference
— so the codec sits only on the real-network path, in codec tests, and
in the optional ``byte_model="encoded"`` accounting of the simulated
network (:func:`encoded_wire_size`).

Datagram layout (see also docs/API.md "Wire format & batching"):

    binary frame    ::=  0x01 *( uvarint(len) <binary envelope> )
    fragment frame  ::=  0x02 uvarint(frag_id) uvarint(index)
                         uvarint(total) <chunk>

    binary envelope ::=  <sender NodeId value> <protocol str>
                         0x0C <struct> [ <trace tuple value> ]
    struct          ::=  <class name str> uvarint(n_fields) n_fields * <value>
    value           ::=  ... | 0x0C <struct> | 0x0D uvarint(len) <struct>

A fragment's reassembled payload is itself a complete binary frame.

Encode once, decode once per node. An epidemic write reaches every node
several times on purpose, and to a relay the payload struct inside a
message is an opaque blob. So a frozen dataclass that is a *direct
field of the envelope's message* (gossip's ``WritePayload``, the op
inside ``RedirectedOp``) is written *sized*, ``0x0D uvarint(len)
<struct>``, where every other dataclass — the message itself, structs
further down — keeps the plain ``0x0C <struct>``. Decoders read either
tag at any depth, so frames from encoders that never size still decode.

* The encoded bytes are kept on the instance, as ``Message.size_bytes``
  keeps its estimate: a message's ``0x0C <struct>`` the first time it is
  encoded, a sized struct's ``<struct>`` body when it is first encoded
  *or* decoded from the wire. One relayed message object is therefore
  serialised once for its whole fanout, and a payload that arrived from
  the wire is never serialised again on the way out. Only *frozen*
  dataclasses are sized: bytes pinned on an instance whose fields can
  be reassigned could go stale.
* A receiver passes its :class:`DecodeMemo` (``raw <struct> bytes ->
  decoded struct``) to :func:`decode_datagram_detailed`: a sized value is
  sliced and looked up, so a duplicate costs a slice and a dict hit
  instead of a recursive decode; a miss decodes, checks that the body
  consumed exactly ``len`` bytes and is stored once the whole datagram
  has decoded. The memo belongs to the receiving *node* (one node is one
  process in a deployment; a process-wide memo would show co-hosted test
  nodes a hit rate no deployment gets) and holds
  :data:`PAYLOAD_MEMO_ENTRIES` structs — duplicates arrive within
  milliseconds of the first copy, so its hit rate already equals the
  duplicate ratio and more slots only cost memory. Structs only deeper
  in a message (every ``VersionedTuple`` a memtable retains) are left
  alone for the same reason: pinning their bytes cost 25 % resident
  memory for no throughput.
* The envelope header gets the same ``raw bytes -> object`` treatment
  where it stays small: the sender ``NodeId`` through the memo's
  ``senders`` (a node hears from the few dozen peers of its view), a
  struct's class name through a table with one entry per registered type.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import DataDropletsError
from repro.common.ids import NodeId
from repro.common.messages import Message, frozen_struct, lookup_wire_type
from repro.obs.trace import TraceContext

#: First byte of each frame kind.
FORMAT_BINARY = 0x01
FORMAT_FRAGMENT = 0x02


class CodecError(DataDropletsError):
    """A message could not be encoded or decoded."""


@dataclasses.dataclass(frozen=True)
class DecodedEnvelope:
    sender: NodeId
    protocol: str
    message: Message
    #: Causal trace context carried on the envelope, if the sender was
    #: tracing this message (None for untraced and pre-trace frames).
    trace: Optional[TraceContext] = None


# ---------------------------------------------------------------------------
# varints
# ---------------------------------------------------------------------------


def encode_uvarint(value: int, out: bytearray) -> None:
    """Append ``value`` as an unsigned LEB128 varint."""
    if value < 0:
        raise CodecError("uvarint cannot encode negative values")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    """Read an unsigned varint at ``pos``; returns (value, next position)."""
    end = len(data)
    if pos < end and data[pos] < 0x80:  # one byte: most lengths, counts and tags
        return data[pos], pos + 1
    result = 0
    shift = 0
    while True:
        if pos >= end:
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        # Python ints are unbounded, so allow large varints; the cap only
        # stops a malicious endless-continuation-bit stream.
        if shift > 640:
            raise CodecError("varint too long")


def _zigzag(n: int) -> int:
    return (n << 1) ^ (n >> 63) if -(2**63) <= n < 2**63 else _zigzag_big(n)


def _zigzag_big(n: int) -> int:
    # Python ints are unbounded; the shift trick only works for 64-bit
    # values, so fall back to the arithmetic definition.
    return n * 2 if n >= 0 else -n * 2 - 1


def _unzigzag(n: int) -> int:
    return (n >> 1) ^ -(n & 1)


# ---------------------------------------------------------------------------
# binary codec (format 0x01)
# ---------------------------------------------------------------------------

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_TUPLE = 0x08
_T_SET = 0x09
_T_MAP = 0x0A
_T_NODEID = 0x0B
_T_DATACLASS = 0x0C
_T_SIZED = 0x0D  # a frozen dataclass behind a byte length (module docstring)

_FLOAT_STRUCT = struct.Struct(">d")

#: Per-class positional field table (field names in declaration order),
#: shared by encode and decode so both sides agree without shipping
#: names on the wire.
_FIELD_TABLES: Dict[type, Tuple[str, ...]] = {}


def _field_table(cls: type) -> Tuple[str, ...]:
    table = _FIELD_TABLES.get(cls)
    if table is None:
        table = tuple(f.name for f in dataclasses.fields(cls))
        _FIELD_TABLES[cls] = table
    return table


def _write_str(text: str, out: bytearray) -> None:
    raw = text.encode("utf-8")
    encode_uvarint(len(raw), out)
    out += raw


def _read_str(data: bytes, pos: int) -> Tuple[str, int]:
    length, pos = read_uvarint(data, pos)
    end = pos + length
    if end > len(data):
        raise CodecError("truncated string")
    return data[pos:end].decode("utf-8"), end


def _binary_encode(value: Any, out: bytearray) -> None:
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif type(value) is NodeId:
        out.append(_T_NODEID)
        encode_uvarint(_zigzag(value.value), out)
        if value.label is None:
            out.append(0)
        else:
            out.append(1)
            _write_str(value.label, out)
    elif isinstance(value, bool):  # bool subclasses int: must precede int
        out.append(_T_TRUE if value else _T_FALSE)
    elif isinstance(value, int):
        out.append(_T_INT)
        encode_uvarint(_zigzag(value), out)
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise CodecError(f"non-finite float {value!r} is not wire-encodable")
        out.append(_T_FLOAT)
        out += _FLOAT_STRUCT.pack(value)
    elif isinstance(value, str):
        out.append(_T_STR)
        _write_str(value, out)
    elif isinstance(value, bytes):
        out.append(_T_BYTES)
        encode_uvarint(len(value), out)
        out += value
    elif isinstance(value, tuple):
        out.append(_T_TUPLE)
        encode_uvarint(len(value), out)
        for item in value:
            _binary_encode(item, out)
    elif isinstance(value, list):
        out.append(_T_LIST)
        encode_uvarint(len(value), out)
        for item in value:
            _binary_encode(item, out)
    elif isinstance(value, (set, frozenset)):
        out.append(_T_SET)
        encode_uvarint(len(value), out)
        # Deterministic wire order.
        for item in sorted(value, key=repr):
            _binary_encode(item, out)
    elif isinstance(value, dict):
        out.append(_T_MAP)
        encode_uvarint(len(value), out)
        for key, val in value.items():
            _binary_encode(key, out)
            _binary_encode(val, out)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        # Covers Message subclasses, NodeId subclasses and wire structs.
        out.append(_T_DATACLASS)
        _encode_struct(value, out, size_fields=False)
    else:
        raise CodecError(f"unsupported value type: {type(value).__name__}")


def _encode_struct(value: Any, out: bytearray, size_fields: bool) -> None:
    """``<struct>``: class name + positional field values, no field names.

    ``size_fields`` is set for the envelope's message only: its direct
    fields that are frozen dataclasses go out sized, from the bytes kept
    on the instance.
    """
    cls = type(value)
    _write_str(cls.__name__, out)
    table = _field_table(cls)
    encode_uvarint(len(table), out)
    for name in table:
        item = getattr(value, name)
        if size_fields and frozen_struct(type(item)):
            try:
                body = item._wire_struct_cache
            except AttributeError:
                nested = bytearray()
                _encode_struct(item, nested, size_fields=False)
                body = bytes(nested)
                object.__setattr__(item, "_wire_struct_cache", body)
            out.append(_T_SIZED)
            encode_uvarint(len(body), out)
            out += body
        else:
            _binary_encode(item, out)


def _message_bytes(message: Message) -> bytes:
    """``0x0C <struct>`` of an envelope's message, serialised once per
    instance (messages are immutable value objects)."""
    try:
        return message._wire_message_cache  # type: ignore[attr-defined]
    except AttributeError:
        pass
    out = bytearray((_T_DATACLASS,))
    _encode_struct(message, out, size_fields=True)
    raw = bytes(out)
    object.__setattr__(message, "_wire_message_cache", raw)
    return raw


def _binary_decode(data: bytes, pos: int) -> Tuple[Any, int]:
    if pos >= len(data):
        raise CodecError("truncated value")
    tag = data[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_INT:
        raw, pos = read_uvarint(data, pos)
        return _unzigzag(raw), pos
    if tag == _T_FLOAT:
        end = pos + 8
        if end > len(data):
            raise CodecError("truncated float")
        return _FLOAT_STRUCT.unpack_from(data, pos)[0], end
    if tag == _T_STR:
        return _read_str(data, pos)
    if tag == _T_BYTES:
        length, pos = read_uvarint(data, pos)
        end = pos + length
        if end > len(data):
            raise CodecError("truncated bytes")
        return data[pos:end], end
    if tag == _T_LIST or tag == _T_TUPLE:
        count, pos = read_uvarint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _binary_decode(data, pos)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), pos
    if tag == _T_SET:
        count, pos = read_uvarint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _binary_decode(data, pos)
            items.append(item)
        return frozenset(items), pos
    if tag == _T_MAP:
        count, pos = read_uvarint(data, pos)
        mapping = {}
        for _ in range(count):
            key, pos = _binary_decode(data, pos)
            val, pos = _binary_decode(data, pos)
            mapping[key] = val
        return mapping, pos
    if tag == _T_NODEID:
        raw, pos = read_uvarint(data, pos)
        if pos >= len(data):
            raise CodecError("truncated NodeId")
        has_label = data[pos]
        pos += 1
        label = None
        if has_label == 1:
            label, pos = _read_str(data, pos)
        elif has_label != 0:
            raise CodecError(f"bad NodeId label marker 0x{has_label:02x}")
        return NodeId(_unzigzag(raw), label), pos
    if tag == _T_DATACLASS:
        return _decode_struct(data, pos, None)
    if tag == _T_SIZED:
        return _decode_sized(data, pos, None)
    raise CodecError(f"unknown binary value tag 0x{tag:02x}")


#: Encoded class name -> (class, field count) for every name a decode has
#: resolved: at most one entry per registered type, and it spares each
#: struct a UTF-8 decode and two registry lookups.
_WIRE_CLASSES: Dict[bytes, Tuple[type, int]] = {}

_SIZED_LEAD = bytes((_T_SIZED,))


def _decode_struct(data: bytes, pos: int, memo: Optional["DecodeMemo"]) -> Tuple[Any, int]:
    """Decode a ``<struct>``. ``memo`` is passed for the envelope's
    message only: its sized direct fields are looked up before decoding."""
    length, pos = read_uvarint(data, pos)
    end = pos + length
    if end > len(data):
        raise CodecError("truncated string")
    raw_name = data[pos:end]
    known = _WIRE_CLASSES.get(raw_name)
    if known is None:
        cls = lookup_wire_type(raw_name.decode("utf-8"))
        known = _WIRE_CLASSES[raw_name] = (cls, len(_field_table(cls)))
    cls, n_fields = known
    count, pos = read_uvarint(data, end)
    if count != n_fields:
        raise CodecError(
            f"{cls.__name__}: wire carries {count} fields, local class has {n_fields}")
    values = []
    for _ in range(count):
        if memo is not None and data[pos:pos + 1] == _SIZED_LEAD:
            value, pos = _decode_sized(data, pos + 1, memo)
        else:
            value, pos = _binary_decode(data, pos)
        values.append(value)
    try:
        return cls(*values), pos
    except (TypeError, ValueError) as exc:
        raise CodecError(f"cannot construct {cls.__name__}: {exc}") from exc


def _decode_sized(data: bytes, pos: int, memo: Optional["DecodeMemo"]) -> Tuple[Any, int]:
    """Decode ``uvarint(len) <struct>`` (the tag is already consumed)."""
    length, pos = read_uvarint(data, pos)
    end = pos + length
    if end > len(data):
        raise CodecError("truncated sized struct")
    raw = data[pos:end]
    if memo is not None:
        value = memo.payload(raw)
        if value is not None:
            return value, end
    # Decoding the slice, not ``data``, keeps a lying prefix from reading
    # into the values that follow it.
    value, used = _decode_struct(raw, 0, None)
    if used != length:
        raise CodecError(f"sized struct declares {length} bytes, its body is {used}")
    if frozen_struct(type(value)):
        object.__setattr__(value, "_wire_struct_cache", raw)
        if memo is not None:
            memo.stage(memo.payloads, raw, value)
    return value, end


#: Structs a node's :class:`DecodeMemo` keeps. Copies of an epidemic
#: payload arrive within milliseconds of the first, so 16 slots already
#: hit at the duplicate ratio (measured 79.6 % at ``duplicate_ratio``
#: 0.80 on ``udp_mixed``); 64 bought nothing and cost 2 % resident memory.
PAYLOAD_MEMO_ENTRIES = 16

#: Sender ids it keeps: a node hears from its view, a few dozen peers.
SENDER_MEMO_ENTRIES = 64


class DecodeMemo:
    """One receiving node's ``raw bytes -> decoded object`` memo.

    ``payloads`` holds the last :data:`PAYLOAD_MEMO_ENTRIES` sized
    structs, ``senders`` the last :data:`SENDER_MEMO_ENTRIES` envelope
    sender ids, both from datagrams that decoded completely: what a
    datagram adds is staged until then, so garbage cannot push live
    entries out. A hit hands every caller the same immutable instance,
    as the simulator's by-reference delivery does.

    Args:
        hits, misses: counters (anything with ``inc()``) bumped per
            payload lookup.
    """

    __slots__ = ("payloads", "senders", "_staged", "_hits", "_misses")

    def __init__(self, hits: Any, misses: Any) -> None:
        self.payloads: Dict[bytes, Any] = {}
        self.senders: Dict[bytes, NodeId] = {}
        self._staged: List[Tuple[Dict[bytes, Any], bytes, Any]] = []
        self._hits = hits
        self._misses = misses

    def payload(self, raw: bytes) -> Optional[Any]:
        value = self.payloads.get(raw)
        if value is None:
            self._misses.inc()
        else:
            self._hits.inc()
        return value

    def stage(self, table: Dict[bytes, Any], raw: bytes, value: Any) -> None:
        self._staged.append((table, raw, value))

    def settle(self, keep: bool) -> None:
        """End of a datagram: store what it staged (``keep``) or drop it."""
        staged = self._staged
        if not staged:
            return
        if keep:
            for table, raw, value in staged:
                table[raw] = value
            for table, limit in ((self.payloads, PAYLOAD_MEMO_ENTRIES),
                                 (self.senders, SENDER_MEMO_ENTRIES)):
                while len(table) > limit:
                    del table[next(iter(table))]
        staged.clear()


#: Bound on a codec's memoised ``<sender><protocol>`` prefixes. A node
#: encodes as one sender over a dozen protocols; only a codec shared by
#: many senders ever gets near it.
_MAX_PREFIXES = 4096


class BinaryCodec:
    """Compact length-prefixed binary codec over the message registry.

    Envelope layout: ``<sender NodeId> <protocol str> <message>`` using
    the tagged value encoding above. :meth:`encode` wraps one envelope
    into a standalone frame (version byte + varint length + envelope).
    """

    def __init__(self) -> None:
        #: (sender value, sender label, protocol) -> encoded prefix. Keyed
        #: by the label too: ``NodeId`` equality ignores it, the wire does not.
        self._prefixes: Dict[Tuple[int, Optional[str], str], bytes] = {}

    def encode_envelope(self, sender: NodeId, protocol: str, message: Message,
                        trace: Optional[TraceContext] = None) -> bytes:
        if not isinstance(message, Message):
            raise CodecError(f"not a Message: {message!r}")
        try:
            key = (sender.value, sender.label, protocol)
            prefix = self._prefixes.get(key)
            if prefix is None:
                out = bytearray()
                _binary_encode(sender, out)
                _write_str(protocol, out)
                if len(self._prefixes) >= _MAX_PREFIXES:
                    self._prefixes.clear()
                prefix = self._prefixes[key] = bytes(out)
            if trace is None:
                return prefix + _message_bytes(message)
            # Optional trailing tuple: pre-trace (v0x01) envelopes end
            # at the message, so absence decodes as trace=None.
            out = bytearray(prefix)
            out += _message_bytes(message)
            _binary_encode(trace.to_wire(), out)
        except CodecError:
            raise
        except (TypeError, ValueError) as exc:
            raise CodecError(f"cannot encode {message!r}: {exc}") from exc
        return bytes(out)

    def encode(self, sender: NodeId, protocol: str, message: Message,
               trace: Optional[TraceContext] = None) -> bytes:
        return self.frame([self.encode_envelope(sender, protocol, message, trace)])

    def decode(self, payload: bytes) -> DecodedEnvelope:
        """Decode a standalone single-envelope binary frame."""
        envelopes = decode_datagram(payload)
        if len(envelopes) != 1:
            raise CodecError(f"expected one envelope, frame carries {len(envelopes)}")
        return envelopes[0]

    @staticmethod
    def frame(envelopes: List[bytes]) -> bytes:
        """Pack already-encoded envelopes into one datagram."""
        out = bytearray((FORMAT_BINARY,))
        for envelope in envelopes:
            encode_uvarint(len(envelope), out)
            out += envelope
        return bytes(out)


_DATACLASS_LEAD = bytes((_T_DATACLASS,))


def _decode_sender(envelope: bytes, memo: Optional[DecodeMemo]) -> Tuple[NodeId, int]:
    """The ``NodeId`` an envelope starts with. A node hears from the same
    few peers all the time, so with ``memo`` the id's raw bytes are looked
    up before they are decoded."""
    if memo is not None:
        # Where the id ends, read off its length bytes alone: tag, varint,
        # label marker, one-byte label length. Nothing is validated here; a
        # hit means the bytes equal an id that was, anything else misses.
        try:
            end = 1
            while envelope[end] >= 0x80:
                end += 1
            end += 3 + envelope[end + 2] if envelope[end + 1] == 1 else 2
        except IndexError:
            end = 0
        sender = memo.senders.get(envelope[:end])
        if sender is not None:
            return sender, end
    sender, pos = _binary_decode(envelope, 0)
    if not isinstance(sender, NodeId):
        raise CodecError(f"envelope sender is {type(sender).__name__}, not NodeId")
    if memo is not None:
        memo.stage(memo.senders, envelope[:pos], sender)
    return sender, pos


def _decode_envelope(envelope: bytes, memo: Optional[DecodeMemo]) -> DecodedEnvelope:
    """Decode one envelope; what it stages in ``memo`` the caller settles."""
    try:
        sender, pos = _decode_sender(envelope, memo)
        protocol, pos = _read_str(envelope, pos)
        if envelope[pos:pos + 1] == _DATACLASS_LEAD:
            message, pos = _decode_struct(envelope, pos + 1, memo)
        else:  # no dataclass, so no Message: decoded only to name what it is
            message, pos = _binary_decode(envelope, pos)
        if not isinstance(message, Message):
            raise CodecError(f"envelope body is {type(message).__name__}, not a Message")
        trace = None
        if pos < len(envelope):
            # Traced envelopes append one tuple after the message; plain
            # v0x01 envelopes end here, so this branch never runs for them.
            raw_trace, pos = _binary_decode(envelope, pos)
            try:
                trace = TraceContext.from_wire(raw_trace)
            except (TypeError, ValueError) as exc:
                raise CodecError(f"malformed trace field: {exc}") from exc
        if pos != len(envelope):
            raise CodecError(f"{len(envelope) - pos} trailing bytes after envelope")
        return DecodedEnvelope(sender, protocol, message, trace)
    except CodecError:
        raise
    except Exception as exc:
        raise CodecError(f"cannot decode binary envelope: {exc}") from exc


def decode_binary_envelope(envelope: bytes,
                           memo: Optional[DecodeMemo] = None) -> DecodedEnvelope:
    """Decode one binary envelope, through the receiver's ``memo`` if given."""
    if memo is None:
        return _decode_envelope(envelope, None)
    try:
        decoded = _decode_envelope(envelope, memo)
    except CodecError:
        memo.settle(keep=False)
        raise
    memo.settle(keep=True)
    return decoded


# ---------------------------------------------------------------------------
# datagram-level framing: multi-envelope packing
# ---------------------------------------------------------------------------


def make_codec(codec: str = "binary") -> BinaryCodec:
    """A fresh codec for the named wire format. There is one, "binary";
    any other name raises :class:`ValueError`."""
    if codec != "binary":
        raise ValueError(f"unknown codec {codec!r}; the wire format is 'binary'")
    return BinaryCodec()


def decode_datagram_detailed(
    data: bytes, memo: Optional[DecodeMemo] = None,
) -> List[Tuple[DecodedEnvelope, int]]:
    """Decode a (possibly coalesced) datagram.

    Returns ``(envelope, envelope_bytes)`` pairs so receive-side byte
    accounting matches the per-envelope send-side accounting exactly.
    ``memo`` is the receiving node's :class:`DecodeMemo`; it changes only
    if the whole datagram decodes.
    """
    if not data:
        raise CodecError("empty datagram")
    lead = data[0]
    if lead != FORMAT_BINARY:
        if lead == FORMAT_FRAGMENT:
            raise CodecError("fragment frame requires reassembly before decoding")
        raise CodecError(f"unknown wire format byte 0x{lead:02x}")
    results: List[Tuple[DecodedEnvelope, int]] = []
    pos = 1
    try:
        while pos < len(data):
            length, pos = read_uvarint(data, pos)
            end = pos + length
            if end > len(data):
                raise CodecError("truncated envelope in binary frame")
            results.append((_decode_envelope(data[pos:end], memo), length))
            pos = end
        if not results:
            raise CodecError("binary frame carries no envelopes")
    except CodecError:
        if memo is not None:
            memo.settle(keep=False)
        raise
    if memo is not None:
        memo.settle(keep=True)
    return results


def decode_datagram(data: bytes) -> List[DecodedEnvelope]:
    """Like :func:`decode_datagram_detailed`, without the byte counts."""
    return [envelope for envelope, _ in decode_datagram_detailed(data)]


# ---------------------------------------------------------------------------
# fragmentation (format 0x02) — oversized single messages
# ---------------------------------------------------------------------------

#: Fragment header budget: format byte + three worst-case varints.
_FRAGMENT_HEADER_MAX = 1 + 5 + 5 + 5


def fragment_payload(payload: bytes, frag_id: int, max_datagram: int) -> List[bytes]:
    """Split one complete frame into fragment datagrams.

    Each fragment carries (frag_id, index, total) so the receiver can
    reassemble out-of-order arrivals; the reassembled payload is fed back
    through normal frame decoding.
    """
    chunk_size = max_datagram - _FRAGMENT_HEADER_MAX
    if chunk_size <= 0:
        raise ValueError("max_datagram too small for fragment header")
    chunks = [payload[i:i + chunk_size] for i in range(0, len(payload), chunk_size)]
    total = len(chunks)
    frames = []
    for index, chunk in enumerate(chunks):
        out = bytearray((FORMAT_FRAGMENT,))
        encode_uvarint(frag_id, out)
        encode_uvarint(index, out)
        encode_uvarint(total, out)
        out += chunk
        frames.append(bytes(out))
    return frames


def parse_fragment(data: bytes) -> Tuple[int, int, int, bytes]:
    """Parse a fragment frame into (frag_id, index, total, chunk)."""
    if not data or data[0] != FORMAT_FRAGMENT:
        raise CodecError("not a fragment frame")
    frag_id, pos = read_uvarint(data, 1)
    index, pos = read_uvarint(data, pos)
    total, pos = read_uvarint(data, pos)
    if total <= 0 or index >= total:
        raise CodecError(f"bad fragment index {index}/{total}")
    return frag_id, index, total, data[pos:]


# ---------------------------------------------------------------------------
# encoded-size accounting for the simulator
# ---------------------------------------------------------------------------

#: Nominal per-envelope overhead charged on top of the encoded message
#: body: format byte + length prefix + a small sender NodeId + a short
#: protocol name. Fixed so the size is cacheable per message instance
#: (the real sender/protocol vary by a few bytes at most).
ENVELOPE_OVERHEAD = 14


def encoded_wire_size(message: Message) -> int:
    """Binary-encoded size of ``message`` plus nominal envelope overhead.

    Used by ``Network(byte_model="encoded")`` so simulated byte counts
    match what the binary runtime actually puts on the wire: it is the
    length of the very bytes :meth:`BinaryCodec.encode_envelope` sends,
    serialised once per instance. Payloads the codec cannot encode
    (sim-only object graphs) fall back to the estimate.
    """
    try:
        return len(_message_bytes(message)) + ENVELOPE_OVERHEAD
    except CodecError:
        return message.size_bytes()
