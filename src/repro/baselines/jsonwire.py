"""Tagged-JSON wire codec — the runtime's wire before the binary codec.

E16 measured it at 2.4x the bytes and a third of the encode rate of
:class:`~repro.common.codec.BinaryCodec`, which is now the only format a
node sends or accepts. The class stays here as that experiment's
comparison arm (:func:`repro.runtime.wirebench.json_wire_cost` prices a
send schedule with it; no node ever receives its frames) and as the
second opinion the codec round-trip tests hold the binary codec against.

A frame is one JSON object per envelope, so its first byte is ``0x7b``
(``{``); several envelopes are newline-joined. Nested dataclasses,
:class:`NodeId`, tuples, sets and ``bytes`` (base64 under a tag)
round-trip exactly, and non-finite floats (NaN/inf) are rejected, as in
the binary codec.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
from typing import Any, Dict, List, Optional, Tuple

from repro.common.codec import CodecError, DecodedEnvelope
from repro.common.ids import NodeId
from repro.common.messages import Message, lookup_message_type, lookup_wire_type
from repro.obs.trace import TraceContext

_TAG = "__t"  # type tag key used in JSON-encoded objects


class Codec:
    """Bidirectional JSON codec over the message registry."""

    def encode(self, sender: NodeId, protocol: str, message: Message,
               trace: Optional[TraceContext] = None) -> bytes:
        """Serialize an envelope (sender, protocol, message[, trace])."""
        try:
            envelope = {
                "sender": _encode_value(sender),
                "protocol": protocol,
                "type": message.type_name(),
                "body": _encode_value(message),
            }
            if trace is not None:
                # Optional key: peers without tracing simply never emit it,
                # and old decoders ignore unknown keys.
                envelope["trace"] = list(trace.to_wire())
            # allow_nan=False: json.dumps would otherwise emit NaN/Infinity
            # literals that are not standard JSON and break strict peers.
            return json.dumps(envelope, separators=(",", ":"), allow_nan=False).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise CodecError(f"cannot encode {message!r}: {exc}") from exc

    #: One envelope == one frame in the JSON format, so the envelope
    #: encoding doubles as the single-frame encoding.
    encode_envelope = encode

    def decode(self, payload: bytes) -> DecodedEnvelope:
        """Parse bytes back into (sender, protocol, message[, trace])."""
        try:
            envelope = json.loads(payload.decode("utf-8"))
            sender = _decode_value(envelope["sender"])
            cls = lookup_message_type(envelope["type"])
            message = _decode_dataclass(cls, envelope["body"])
            raw_trace = envelope.get("trace")
            trace = None
            if raw_trace is not None:
                try:
                    trace = TraceContext.from_wire(raw_trace)
                except (TypeError, ValueError) as exc:
                    raise CodecError(f"malformed trace field: {exc}") from exc
            return DecodedEnvelope(sender, envelope["protocol"], message, trace)
        except CodecError:
            raise
        except Exception as exc:  # malformed input from the network
            raise CodecError(f"cannot decode payload: {exc}") from exc

    @staticmethod
    def frame(envelopes: List[bytes]) -> bytes:
        """Pack already-encoded envelopes into one datagram.

        Compact JSON contains no raw newline bytes (strings escape them),
        so newline-joining is unambiguous.
        """
        return b"\n".join(envelopes)

    def decode_frame(self, data: bytes) -> List[Tuple[DecodedEnvelope, int]]:
        """``(envelope, envelope_bytes)`` pairs of a frame built by
        :meth:`frame` — the shape of
        :func:`repro.common.codec.decode_datagram_detailed`."""
        return [(self.decode(part), len(part)) for part in data.split(b"\n") if part]


def _encode_value(value: Any) -> Any:
    if isinstance(value, NodeId):
        return {_TAG: "nid", "v": value.value, "l": value.label}
    if isinstance(value, Message) or dataclasses.is_dataclass(value):
        fields = {f.name: _encode_value(getattr(value, f.name)) for f in dataclasses.fields(value)}
        return {_TAG: "dc", "c": type(value).__name__, "f": fields}
    if isinstance(value, bytes):
        return {_TAG: "bin", "v": base64.b64encode(value).decode("ascii")}
    if isinstance(value, tuple):
        return {_TAG: "tup", "v": [_encode_value(v) for v in value]}
    if isinstance(value, (set, frozenset)):
        return {_TAG: "set", "v": [_encode_value(v) for v in sorted(value, key=repr)]}
    if isinstance(value, dict):
        return {_TAG: "map", "v": [[_encode_value(k), _encode_value(v)] for k, v in value.items()]}
    if isinstance(value, list):
        return [_encode_value(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        raise CodecError(f"non-finite float {value!r} is not wire-encodable")
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise CodecError(f"unsupported value type: {type(value).__name__}")


def _decode_value(value: Any) -> Any:
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    if not isinstance(value, dict):
        return value
    tag = value.get(_TAG)
    if tag == "nid":
        return NodeId(value["v"], value["l"])
    if tag == "bin":
        return base64.b64decode(value["v"], validate=True)
    if tag == "tup":
        return tuple(_decode_value(v) for v in value["v"])
    if tag == "set":
        return frozenset(_decode_value(v) for v in value["v"])
    if tag == "map":
        return {_decode_value(k): _decode_value(v) for k, v in value["v"]}
    if tag == "dc":
        cls = lookup_wire_type(value["c"])
        return _decode_dataclass(cls, value)
    raise CodecError(f"unknown encoded object tag: {tag!r}")


def _decode_dataclass(cls: type, encoded: Dict[str, Any]) -> Any:
    fields = encoded["f"]
    kwargs = {name: _decode_value(v) for name, v in fields.items()}
    return cls(**kwargs)
