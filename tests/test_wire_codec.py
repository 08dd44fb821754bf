"""Tests for the binary wire codec, framing, fragmentation and the
registry-driven round-trip fuzz, with the JSON baseline codec
(``repro.baselines.jsonwire``) as the second opinion."""

import copy
import dataclasses
import importlib
import math
import pkgutil
import random
import typing
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.baselines import jsonwire
from repro.common.codec import (
    ENVELOPE_OVERHEAD,
    FORMAT_BINARY,
    PAYLOAD_MEMO_ENTRIES,
    SENDER_MEMO_ENTRIES,
    BinaryCodec,
    CodecError,
    DecodeMemo,
    decode_binary_envelope,
    decode_datagram,
    decode_datagram_detailed,
    encode_uvarint,
    encoded_wire_size,
    fragment_payload,
    make_codec,
    parse_fragment,
    read_uvarint,
)
from repro.common.ids import NodeId, new_node_id
from repro.common.messages import (
    Message,
    message_type,
    registered_message_types,
    wire_struct,
)
from repro.obs.trace import TraceContext
from repro.sim.metrics import Counter


@wire_struct
@dataclass(frozen=True)
class _WireInner:
    label: str
    weight: float


@message_type
@dataclass(frozen=True)
class _WireProbe(Message):
    text: str = ""
    number: int = 0
    data: Dict[str, Any] = field(default_factory=dict)
    maybe: Optional[NodeId] = None
    pair: Tuple[int, int] = (0, 0)
    inner: Optional[_WireInner] = None


def _wire(name: str):
    """``(codec, frame -> [(envelope, envelope_bytes)])`` for a format."""
    if name == "json":
        codec = jsonwire.Codec()
        return codec, codec.decode_frame
    return BinaryCodec(), decode_datagram_detailed


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**21, 2**63, 2**80])
    def test_roundtrip(self, value):
        out = bytearray()
        encode_uvarint(value, out)
        decoded, pos = read_uvarint(bytes(out), 0)
        assert decoded == value
        assert pos == len(out)

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            encode_uvarint(-1, bytearray())

    def test_truncated(self):
        with pytest.raises(CodecError, match="truncated varint"):
            read_uvarint(b"\xff", 0)


class TestBinaryRoundTrip:
    def setup_method(self):
        self.codec = BinaryCodec()
        self.sender = new_node_id("binary-test")

    def roundtrip(self, message: Message) -> Message:
        payload = self.codec.encode(self.sender, "proto", message)
        assert payload[0] == FORMAT_BINARY
        decoded = self.codec.decode(payload)
        assert decoded.sender == self.sender
        assert decoded.sender.label == self.sender.label
        assert decoded.protocol == "proto"
        return decoded.message

    def test_plain_fields(self):
        msg = _WireProbe(text="hello", number=-42)
        assert self.roundtrip(msg) == msg

    def test_node_id_label_preserved(self):
        out = self.roundtrip(_WireProbe(maybe=NodeId(7, "n7")))
        assert out.maybe == NodeId(7) and out.maybe.label == "n7"

    def test_node_id_without_label(self):
        out = self.roundtrip(_WireProbe(maybe=NodeId(3)))
        assert out.maybe.label is None

    def test_tuple_and_nested_struct(self):
        msg = _WireProbe(pair=(3, -9), inner=_WireInner("a", 1.5))
        out = self.roundtrip(msg)
        assert out.pair == (3, -9) and isinstance(out.pair, tuple)
        assert out.inner == _WireInner("a", 1.5)

    def test_containers(self):
        msg = _WireProbe(data={
            "list": [1, 2.5, "three", None, True],
            "map": {"k": {"nested": [7]}},
            "set": frozenset({"a", "b"}),
            1: "non-string key",
        })
        assert self.roundtrip(msg) == msg

    def test_binary_smaller_than_json(self):
        msg = _WireProbe(text="x" * 40, number=123456,
                         data={"a": 1, "b": 2.5}, maybe=NodeId(9, "n9"))
        json_frame = jsonwire.Codec().encode(self.sender, "proto", msg)
        binary_frame = self.codec.encode(self.sender, "proto", msg)
        assert len(binary_frame) < len(json_frame) / 2

    def test_unsupported_value_raises(self):
        with pytest.raises(CodecError):
            self.codec.encode(self.sender, "p", _WireProbe(data={"bad": object()}))

    @given(
        st.text(max_size=50),
        st.integers(min_value=-(2**70), max_value=2**70),
        st.dictionaries(st.text(min_size=1, max_size=8),
                        st.one_of(st.integers(min_value=-(2**40), max_value=2**40),
                                  st.floats(allow_nan=False, allow_infinity=False),
                                  st.text(max_size=10),
                                  st.booleans(),
                                  st.none()),
                        max_size=5),
    )
    @settings(max_examples=50)
    def test_roundtrip_property(self, text, number, data):
        msg = _WireProbe(text=text, number=number, data=data)
        assert self.roundtrip(msg) == msg


class TestAutoDetection:
    def setup_method(self):
        self.sender = new_node_id("detect-test")
        self.msg = _WireProbe(text="payload", number=5)

    def test_detects_json_frame(self):
        # ...as an unknown format. One decoder, one answer: the datagram
        # path and BinaryCodec.decode both refuse a well-formed frame of
        # the JSON baseline.
        frame = jsonwire.Codec().encode(self.sender, "p", self.msg)
        assert jsonwire.Codec().decode(frame).message == self.msg
        with pytest.raises(CodecError, match="unknown wire format byte 0x7b"):
            decode_datagram(frame)
        with pytest.raises(CodecError, match="unknown wire format byte 0x7b"):
            BinaryCodec().decode(frame)

    def test_detects_binary_frame(self):
        frame = BinaryCodec().encode(self.sender, "p", self.msg)
        [envelope] = decode_datagram(frame)
        assert envelope.message == self.msg

    @pytest.mark.parametrize("codec_name", ["json", "binary"])
    def test_multi_envelope_frame(self, codec_name):
        codec, decode = _wire(codec_name)
        messages = [_WireProbe(text=f"m{i}", number=i) for i in range(5)]
        envelopes = [codec.encode_envelope(self.sender, "p", m) for m in messages]
        frame = codec.frame(envelopes)
        detailed = decode(frame)
        assert [env.message for env, _ in detailed] == messages
        # Receive-side byte attribution matches the send-side envelopes.
        assert [size for _, size in detailed] == [len(e) for e in envelopes]

    def test_make_codec_rejects_unknown(self):
        assert isinstance(make_codec("binary"), BinaryCodec)
        for name in ("protobuf", "json"):
            with pytest.raises(ValueError):
                make_codec(name)


class TestMalformedFrames:
    def test_empty_datagram(self):
        with pytest.raises(CodecError):
            decode_datagram(b"")

    def test_bad_version_byte(self):
        with pytest.raises(CodecError, match="unknown wire format byte"):
            decode_datagram(b"\x07junk")

    def test_truncated_length_varint(self):
        with pytest.raises(CodecError, match="truncated varint"):
            decode_datagram(bytes([FORMAT_BINARY, 0xFF]))

    def test_truncated_envelope(self):
        frame = bytearray([FORMAT_BINARY])
        encode_uvarint(100, frame)
        frame += b"short"
        with pytest.raises(CodecError, match="truncated envelope"):
            decode_datagram(bytes(frame))

    def test_junk_value_tag(self):
        frame = bytearray([FORMAT_BINARY])
        encode_uvarint(1, frame)
        frame.append(0xEE)
        with pytest.raises(CodecError, match="unknown binary value tag"):
            decode_datagram(bytes(frame))

    def test_empty_binary_frame(self):
        with pytest.raises(CodecError, match="no envelopes"):
            decode_datagram(bytes([FORMAT_BINARY]))

    def test_fragment_frame_needs_reassembly(self):
        [fragment] = fragment_payload(b"payload", frag_id=1, max_datagram=100)
        with pytest.raises(CodecError, match="reassembly"):
            decode_datagram(fragment)

    def test_garbage_not_json(self):
        with pytest.raises(CodecError):
            decode_datagram(b"{not json")

    def test_trailing_bytes_after_envelope(self):
        # Bytes after the message are tried as the optional trace field;
        # garbage there must still surface as a CodecError, never decode.
        codec = BinaryCodec()
        envelope = codec.encode_envelope(new_node_id(), "p", _WireProbe())
        frame = codec.frame([envelope + b"xx"])
        with pytest.raises(CodecError,
                           match="trailing bytes|unknown binary value tag|malformed trace"):
            decode_datagram(frame)


class TestTraceField:
    """The optional trace envelope field: present when given, absent and
    backward-compatible when not."""

    def setup_method(self):
        from repro.obs.trace import TraceContext

        self.sender = new_node_id("trace-test")
        self.msg = _WireProbe(text="traced", number=9)
        self.ctx = TraceContext(trace_id="t3-52", span_id=17, hop=2,
                                origin_time=12.5)

    @pytest.mark.parametrize("codec_name", ["json", "binary"])
    def test_traced_roundtrip(self, codec_name):
        codec, decode = _wire(codec_name)
        frame = codec.frame([codec.encode_envelope(
            self.sender, "p", self.msg, self.ctx)])
        [(envelope, _)] = decode(frame)
        assert envelope.message == self.msg
        assert envelope.trace == self.ctx

    @pytest.mark.parametrize("codec_name", ["json", "binary"])
    def test_untraced_frame_decodes_with_none(self, codec_name):
        # A v0x01 frame (sender without the trace field) must decode on
        # trace-aware nodes with trace=None.
        codec, decode = _wire(codec_name)
        frame = codec.frame([codec.encode_envelope(self.sender, "p", self.msg)])
        [(envelope, _)] = decode(frame)
        assert envelope.message == self.msg
        assert envelope.trace is None

    @pytest.mark.parametrize("codec_name", ["json", "binary"])
    def test_traced_frame_readable_by_non_tracing_node(self, codec_name):
        # Decoding is stateless: a receiver with tracing disabled gets
        # the same message and may simply ignore envelope.trace.
        codec, decode = _wire(codec_name)
        frame = codec.frame([codec.encode_envelope(
            self.sender, "p", self.msg, self.ctx)])
        [(envelope, _)] = decode(frame)
        assert envelope.message == self.msg
        # nothing about the trace is required to process the message
        assert envelope.protocol == "p"

    def test_json_malformed_trace_rejected(self):
        import json as json_module

        codec = jsonwire.Codec()
        frame = codec.encode(self.sender, "p", self.msg, self.ctx)
        doc = json_module.loads(frame.decode("utf-8"))
        for bad in ([], ["only-id"], ["id", "not-int", 0, 0.0],
                    [1, 2, 3, 4], "not-a-list"):
            doc["trace"] = bad
            with pytest.raises(CodecError, match="malformed trace"):
                codec.decode(json_module.dumps(doc).encode("utf-8"))

    def test_binary_trace_field_byte_flips_fail_cleanly(self):
        # Extend the byte-flip fuzz to the trace field region: flipping
        # bits in the appended trace tuple must decode or raise
        # CodecError, never escape another exception type.
        codec = BinaryCodec()
        bare = codec.encode_envelope(self.sender, "p", self.msg)
        traced = codec.encode_envelope(self.sender, "p", self.msg, self.ctx)
        assert len(traced) > len(bare)
        rng = random.Random(0x7ACE)
        for _ in range(200):
            corrupted = bytearray(traced)
            # target the trace suffix specifically
            index = rng.randrange(len(bare), len(traced))
            corrupted[index] ^= 1 << rng.randrange(8)
            try:
                decode_datagram(codec.frame([bytes(corrupted)]))
            except CodecError:
                pass

    def test_multi_envelope_mixed_tracing(self):
        # Coalesced datagrams may mix traced and untraced envelopes.
        codec = BinaryCodec()
        envelopes = [
            codec.encode_envelope(self.sender, "p", self.msg, self.ctx),
            codec.encode_envelope(self.sender, "p", self.msg),
            codec.encode_envelope(self.sender, "p", self.msg, self.ctx),
        ]
        decoded = decode_datagram(codec.frame(envelopes))
        assert [env.trace for env in decoded] == [self.ctx, None, self.ctx]


class TestNonFiniteFloats:
    @pytest.mark.parametrize("codec_cls", [jsonwire.Codec, BinaryCodec])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejected_with_codec_error(self, codec_cls, bad):
        message = _WireProbe(data={"x": bad})
        with pytest.raises(CodecError):
            codec_cls().encode(new_node_id(), "p", message)

    def test_finite_floats_fine(self):
        message = _WireProbe(data={"x": 1e308, "y": -0.0})
        for codec_cls in (jsonwire.Codec, BinaryCodec):
            codec = codec_cls()
            out = codec.decode(codec.encode(new_node_id(), "p", message))
            assert out.message == message


class TestFragmentation:
    def test_split_and_reassemble(self):
        payload = bytes(range(256)) * 40  # 10240 bytes
        fragments = fragment_payload(payload, frag_id=7, max_datagram=1400)
        assert len(fragments) > 1
        assert all(len(f) <= 1400 for f in fragments)
        parsed = [parse_fragment(f) for f in fragments]
        assert {p[0] for p in parsed} == {7}
        assert [p[1] for p in parsed] == list(range(len(fragments)))
        assert {p[2] for p in parsed} == {len(fragments)}
        assert b"".join(p[3] for p in parsed) == payload

    def test_small_payload_single_fragment(self):
        [fragment] = fragment_payload(b"tiny", frag_id=1, max_datagram=1400)
        assert parse_fragment(fragment)[1:] == (0, 1, b"tiny")

    def test_parse_rejects_non_fragment(self):
        with pytest.raises(CodecError):
            parse_fragment(b"\x01whatever")

    def test_parse_rejects_bad_index(self):
        frame = bytearray([0x02])
        for v in (1, 5, 2):  # index 5 of total 2
            encode_uvarint(v, frame)
        with pytest.raises(CodecError, match="bad fragment index"):
            parse_fragment(bytes(frame))


class TestEncodedWireSize:
    def test_positive_and_cached(self):
        # What Network(byte_model="encoded"), e15 and e16 charge is what the
        # runtime sends: the envelope minus its <sender><protocol> prefix.
        from repro.common.codec import _binary_encode, _write_str

        codec = BinaryCodec()
        sender = NodeId(9001, "127.0.0.1:9001")
        prefix = bytearray()
        _binary_encode(sender, prefix)
        _write_str("p", prefix)
        for message in (_WireProbe(text="hello", number=12),
                        _WireProbe(inner=_WireInner("sized", 2.5), pair=(1, 2))):
            size = encoded_wire_size(message)
            assert size > ENVELOPE_OVERHEAD
            assert encoded_wire_size(message) == size
            envelope = codec.encode_envelope(sender, "p", message)
            assert envelope.startswith(bytes(prefix))
            assert size - ENVELOPE_OVERHEAD == len(envelope) - len(prefix)
            assert not hasattr(message, "_encoded_size_cache")  # one cache: the bytes

    def test_falls_back_to_estimate_for_unencodable(self):
        message = _WireProbe(data={"obj": object()})
        assert encoded_wire_size(message) == message.size_bytes()


# ---------------------------------------------------------------------------
# registry-driven fuzz: every registered message round-trips identically
# through both codecs
# ---------------------------------------------------------------------------


def _import_all_repro_modules() -> None:
    """Populate the message registry with every message in the library."""
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # importing it would run the CLI
        importlib.import_module(info.name)


def _value_for(annotation: Any, rng: random.Random, depth: int = 0) -> Any:
    origin = typing.get_origin(annotation)
    if annotation is str:
        return f"s{rng.randrange(10_000)}"
    if annotation is int:
        return rng.randrange(0, 100_000)
    if annotation is float:
        return round(rng.uniform(-1000.0, 1000.0), 4)
    if annotation is bool:
        return rng.random() < 0.5
    if annotation is bytes:
        return bytes(rng.randrange(256) for _ in range(rng.randrange(0, 5)))
    if annotation is NodeId:
        return NodeId(rng.randrange(0, 500), rng.choice([None, f"n{rng.randrange(99)}"]))
    if annotation is Any:
        return rng.choice([
            None, True, 17, 2.25, "free-form",
            {"k": [1, 2.0, "x", None], "nested": {"a": False}},
            (1, "pair"),
        ])
    if origin is typing.Union:
        args = [a for a in typing.get_args(annotation) if a is not type(None)]
        if type(None) in typing.get_args(annotation) and rng.random() < 0.3:
            return None
        return _value_for(rng.choice(args), rng, depth)
    if origin is tuple:
        args = typing.get_args(annotation)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_value_for(args[0], rng, depth + 1)
                         for _ in range(rng.randrange(0, 4)))
        return tuple(_value_for(a, rng, depth + 1) for a in args)
    if origin is dict:
        key_t, val_t = typing.get_args(annotation)
        return {_value_for(key_t, rng, depth + 1): _value_for(val_t, rng, depth + 1)
                for _ in range(rng.randrange(0, 4))}
    if origin is list:
        (item_t,) = typing.get_args(annotation)
        return [_value_for(item_t, rng, depth + 1) for _ in range(rng.randrange(0, 4))]
    if origin in (set, frozenset):
        (item_t,) = typing.get_args(annotation)
        return frozenset(_value_for(item_t, rng, depth + 1)
                         for _ in range(rng.randrange(0, 4)))
    if dataclasses.is_dataclass(annotation):
        return _instance_of(annotation, rng, depth + 1)
    raise AssertionError(f"no fuzz generator for annotation {annotation!r}")


def _instance_of(cls: type, rng: random.Random, depth: int = 0) -> Any:
    hints = typing.get_type_hints(cls)
    kwargs = {f.name: _value_for(hints[f.name], rng, depth)
              for f in dataclasses.fields(cls)}
    return cls(**kwargs)


class TestRegistryFuzz:
    def test_every_registered_message_roundtrips_both_codecs(self):
        _import_all_repro_modules()
        registry = registered_message_types()
        assert len(registry) >= 30, "registry import walk looks broken"
        json_codec, binary_codec = jsonwire.Codec(), BinaryCodec()
        sender = NodeId(42, "127.0.0.1:4242")
        rng = random.Random(20260806)
        exercised = 0
        for name in sorted(registry):
            cls = registry[name]
            for _ in range(3):
                message = _instance_of(cls, rng)
                json_rt = json_codec.decode(
                    json_codec.encode(sender, "fuzz", message)).message
                binary_rt = binary_codec.decode(
                    binary_codec.encode(sender, "fuzz", message)).message
                assert json_rt == message, f"JSON round-trip changed {name}"
                assert binary_rt == message, f"binary round-trip changed {name}"
                # Cross-format: JSON-encoded then re-encoded as binary and
                # back must still be the same value.
                cross = binary_codec.decode(
                    binary_codec.encode(sender, "fuzz", json_rt)).message
                assert cross == message, f"JSON->binary cross-trip changed {name}"
                exercised += 1
        assert exercised == 3 * len(registry)

    def test_caches_are_invisible_on_the_wire(self):
        """Encode-once must not change a byte: re-encoding a decoded
        message, encoding one instance twice and a cold encode of an equal
        instance all give the same envelope, traced or not."""
        _import_all_repro_modules()
        registry = registered_message_types()
        sender = NodeId(42, "127.0.0.1:4242")
        ctx = TraceContext(trace_id="t1-9", span_id=4, hop=1, origin_time=2.5)
        rng = random.Random(20261002)
        sized = 0
        for name in sorted(registry):
            for _ in range(3):
                message = _instance_of(registry[name], rng)
                cold_twin = copy.deepcopy(message)  # copied before any cache exists
                assert not any(k.startswith("_wire") for k in vars(cold_twin))
                for trace in (None, ctx):
                    codec = BinaryCodec()
                    first = codec.encode_envelope(sender, "fuzz", message, trace)
                    assert codec.encode_envelope(sender, "fuzz", message, trace) == first, name
                    assert BinaryCodec().encode_envelope(sender, "fuzz", cold_twin, trace) \
                        == first, name
                    memo = DecodeMemo(Counter(), Counter())
                    for received in (decode_binary_envelope(first),
                                     decode_binary_envelope(first, memo),   # miss
                                     decode_binary_envelope(first, memo)):  # hit, if sized
                        assert received.message == message and received.trace == trace
                        assert BinaryCodec().encode_envelope(
                            sender, "fuzz", received.message, trace) == first, name
                    sized += len(memo.payloads)
        assert sized > 0, "no registered message carried a sized struct"

    def test_binary_never_larger_family(self):
        """Spot-check the compactness claim on real protocol messages."""
        _import_all_repro_modules()
        from repro.baselines.fulldigest import DigestMessage
        from repro.membership.cyclon import ShuffleRequest
        from repro.membership.views import NodeDescriptor

        sender = NodeId(1, "127.0.0.1:9001")
        samples = [
            DigestMessage(entries=tuple((f"key:{i:05d}", i) for i in range(50))),
            ShuffleRequest(entries=tuple(
                NodeDescriptor(NodeId(i, f"127.0.0.1:{29000 + i}"), age=i % 5)
                for i in range(8))),
        ]
        for message in samples:
            json_size = len(jsonwire.Codec().encode(sender, "p", message))
            binary_size = len(BinaryCodec().encode(sender, "p", message))
            assert binary_size * 2 <= json_size, type(message).__name__


class TestJsonCodecStillStrict:
    """The JSON codec keeps rejecting what it always rejected."""

    def test_math_isfinite_guard_matches_json_dumps(self):
        # Both rejection layers (explicit check, allow_nan=False) agree.
        assert not math.isfinite(float("nan"))
        with pytest.raises(CodecError):
            jsonwire.Codec().encode(new_node_id(), "p", _WireProbe(number=0, data={"f": float("inf")}))


class TestByteFlipFuzz:
    """Corrupted datagrams must fail *cleanly*.

    The runtime drops any datagram whose decode raises CodecError; an
    escape of any other exception type would crash the receive loop. So:
    for every registered message type, encode with the binary codec and
    the JSON baseline, flip random bits, and require decode to either
    succeed (the flip hit a don't-care or produced a different-but-valid
    value) or raise CodecError — nothing else."""

    def _corruptions(self, payload: bytes, rng: random.Random):
        for _ in range(12):
            corrupted = bytearray(payload)
            for _ in range(rng.randrange(1, 4)):
                index = rng.randrange(len(corrupted))
                corrupted[index] ^= 1 << rng.randrange(8)
            yield bytes(corrupted)
        # truncations and padding are corruption too
        for cut in (1, len(payload) // 2):
            yield payload[:-cut] if cut < len(payload) else b""
        yield payload + b"\x00"

    def test_flipped_bytes_raise_codec_error_or_decode(self):
        _import_all_repro_modules()
        registry = registered_message_types()
        sender = NodeId(7, "127.0.0.1:7007")
        rng = random.Random(0xF1A5)
        memo = DecodeMemo(Counter(), Counter())
        attempts = 0
        for name in sorted(registry):
            message = _instance_of(registry[name], rng)
            for codec in (jsonwire.Codec(), BinaryCodec()):
                payload = codec.encode(sender, "fuzz", message)
                for corrupted in self._corruptions(payload, rng):
                    attempts += 1
                    try:
                        codec.decode(corrupted)
                    except CodecError:
                        pass
                    # the datagram path must be as strict (to it a JSON
                    # frame is garbage too), with and without the
                    # receiver's payload memo
                    try:
                        decode_datagram(corrupted)
                    except CodecError:
                        pass
                    before = dict(memo.payloads), dict(memo.senders)
                    try:
                        decode_datagram_detailed(corrupted, memo)
                    except CodecError:
                        assert (memo.payloads, memo.senders) == before and not memo._staged
                    assert len(memo.payloads) <= PAYLOAD_MEMO_ENTRIES
                    assert len(memo.senders) <= SENDER_MEMO_ENTRIES
        assert attempts >= 15 * len(registry) * 2

    def test_random_garbage_datagrams(self):
        rng = random.Random(0xDEAD)
        for length in (0, 1, 2, 7, 64, 513):
            for _ in range(20):
                blob = bytes(rng.randrange(256) for _ in range(length))
                try:
                    decode_datagram(blob)
                except CodecError:
                    pass


class TestSizedStructs:
    """The ``0x0D`` value: a frozen dataclass that is a direct field of
    the envelope's message, behind a byte length."""

    T_DATACLASS, T_SIZED = 0x0C, 0x0D

    def setup_method(self):
        self.codec = BinaryCodec()
        self.sender = NodeId(7, "127.0.0.1:7007")
        self.hits, self.misses = Counter(), Counter()
        self.memo = DecodeMemo(self.hits, self.misses)

    def _split(self, message):
        """(bytes before the sized value's tag, length prefix, body, bytes after)."""
        envelope = self.codec.encode_envelope(self.sender, "p", message)
        body = bytearray()
        from repro.common.codec import _encode_struct

        _encode_struct(message.inner, body, size_fields=False)
        prefix = bytearray()
        encode_uvarint(len(body), prefix)
        marker = bytes([self.T_SIZED]) + bytes(prefix) + bytes(body)
        at = envelope.index(marker)
        return envelope[:at], bytes(prefix), bytes(body), envelope[at + len(marker):]

    def _sized(self, head, length, body, tail):
        out = bytearray(head)
        out.append(self.T_SIZED)
        encode_uvarint(length, out)
        return bytes(out) + body + tail

    def test_direct_struct_field_is_sized_and_deeper_ones_are_not(self):
        message = _WireProbe(inner=_WireInner("a", 1.5),
                             data={"deep": [_WireInner("b", 2.5)]})
        envelope = self.codec.encode_envelope(self.sender, "p", message)
        head, prefix, body, tail = self._split(message)
        assert self._sized(head, len(body), body, tail) == envelope
        # the struct inside the dict travels under the plain tag
        assert bytes([self.T_DATACLASS, len("_WireInner")]) + b"_WireInner" in head
        assert bytes([self.T_SIZED, len("_WireInner")]) + b"_WireInner" not in head
        assert decode_binary_envelope(envelope).message == message

    def test_length_prefix_is_checked(self):
        message = _WireProbe(text="t", inner=_WireInner("label", 1.5), pair=(4, 5))
        head, prefix, body, tail = self._split(message)
        good = self._sized(head, len(body), body, tail)
        assert decode_binary_envelope(good, self.memo).message == message
        assert len(self.memo.payloads) == 1
        kept = dict(self.memo.payloads)
        bad_frames = {
            "truncated prefix": head + bytes([self.T_SIZED, 0x80]),
            "overruns the envelope": self._sized(head, len(body) + len(tail) + 1, body, tail),
            "shorter than its body": self._sized(head, len(body) - 1, body, tail),
            "longer than its body": self._sized(head, len(body) + 1, body, tail),
        }
        for what, envelope in bad_frames.items():
            for memo in (None, self.memo):
                with pytest.raises(CodecError):
                    decode_binary_envelope(envelope, memo)
                with pytest.raises(CodecError):
                    decode_datagram_detailed(self.codec.frame([envelope]), memo)
            assert self.memo.payloads == kept and not self.memo._staged, what

    def test_failed_frame_leaves_the_memo_unchanged(self):
        # First envelope is fine and carries a new payload from a new sender,
        # the second is garbage: the datagram is dropped as a whole, so
        # nothing is kept.
        fine = self.codec.encode_envelope(
            self.sender, "p", _WireProbe(inner=_WireInner("new", 9.0)))
        with pytest.raises(CodecError):
            decode_datagram_detailed(self.codec.frame([fine, fine[:-3]]), self.memo)
        assert not self.memo.payloads and not self.memo.senders and not self.memo._staged
        decode_datagram_detailed(self.codec.frame([fine, fine]), self.memo)
        assert len(self.memo.payloads) == 1 and len(self.memo.senders) == 1

    def test_sender_memo_is_bounded_and_a_hit_equals_a_fresh_decode(self):
        # Same value, different label: NodeId equality ignores the label,
        # the memo (keyed by the raw bytes) must not.
        senders = [NodeId(i, label) for i in range(2 * SENDER_MEMO_ENTRIES)
                   for label in (None, f"10.0.0.{i}:{7000 + i}")]
        senders.append(NodeId(2**40, "x" * 200))  # two-byte label length: never memoised by guess
        message = _WireProbe(text="who")
        for _ in range(2):
            for sender in senders:
                envelope = self.codec.encode_envelope(sender, "p", message)
                seen = decode_binary_envelope(envelope, self.memo).sender
                assert (seen.value, seen.label) == (sender.value, sender.label)
                assert len(self.memo.senders) <= SENDER_MEMO_ENTRIES
        envelope = self.codec.encode_envelope(self.sender, "p", message)
        first = decode_binary_envelope(envelope, self.memo).sender
        again = decode_binary_envelope(envelope, self.memo).sender
        fresh = decode_binary_envelope(envelope).sender
        assert first is again and first is not fresh
        assert (first.value, first.label) == (fresh.value, fresh.label) == (7, "127.0.0.1:7007")

    def test_plain_tag_for_the_nested_struct_still_decodes(self):
        # The layout every encoder before 0x0D produced.
        message = _WireProbe(text="old", inner=_WireInner("peer", 0.25))
        head, _, body, tail = self._split(message)
        old_layout = head + bytes([self.T_DATACLASS]) + body + tail
        assert len(old_layout) == len(
            self.codec.encode_envelope(self.sender, "p", message)) - 1
        for memo in (None, self.memo):
            assert decode_binary_envelope(old_layout, memo).message == message
        assert len(self.memo.payloads) == 0 and self.hits.value == self.misses.value == 0

    def test_sized_value_is_read_at_any_depth(self):
        message = _WireProbe(pair=(1, 2), inner=_WireInner("x", 1.0))
        head, _, body, tail = self._split(message)
        # Re-home the sized struct inside the tuple field ``pair``:
        # (1, 2) -> (1, <sized struct>), and ``inner`` -> None.
        from repro.common.codec import _binary_encode

        pair = bytearray()
        _binary_encode((1, 2), pair)
        assert bytes(pair) in head
        nested = bytearray(pair[:-2])
        nested.append(self.T_SIZED)
        encode_uvarint(len(body), nested)
        nested += body
        envelope = head.replace(bytes(pair), bytes(nested)) + b"\x00" + tail
        decoded = decode_binary_envelope(envelope, self.memo).message
        assert decoded.pair == (1, _WireInner("x", 1.0)) and decoded.inner is None
        assert len(self.memo.payloads) == 0  # only the message's direct fields are memoised

    def test_memo_is_bounded_and_a_hit_equals_a_fresh_decode(self):
        envelopes = [
            self.codec.encode_envelope(
                self.sender, "p", _WireProbe(number=i, inner=_WireInner(f"payload-{i}", i / 3)))
            for i in range(10 * PAYLOAD_MEMO_ENTRIES)
        ]
        for envelope in envelopes:
            decode_binary_envelope(envelope, self.memo)
            assert len(self.memo.payloads) <= PAYLOAD_MEMO_ENTRIES
        assert len(self.memo.payloads) == PAYLOAD_MEMO_ENTRIES
        assert (self.hits.value, self.misses.value) == (0, len(envelopes))
        last = envelopes[-1]
        hit = decode_binary_envelope(last, self.memo).message
        again = decode_binary_envelope(last, self.memo).message
        fresh = decode_binary_envelope(last).message
        assert self.hits.value == 2
        assert hit == fresh and hit.inner == fresh.inner
        assert hit.inner is again.inner and hit.inner is not fresh.inner
        # long evicted: decoded again, and counted as a miss
        decode_binary_envelope(envelopes[0], self.memo)
        assert self.misses.value == len(envelopes) + 1

    def test_mutable_dataclass_is_neither_sized_nor_memoised(self):
        message = _WireProbe(inner=_WireInner("a", 1.0))
        head, _, body, tail = self._split(message)
        mutable_body = body.replace(b"\x0a_WireInner", b"\x0c_WireMutable")
        envelope = self._sized(head, len(mutable_body), mutable_body, tail)
        first = decode_binary_envelope(envelope, self.memo).message.inner
        second = decode_binary_envelope(envelope, self.memo).message.inner
        assert first == second == _WireMutable("a", 1.0) and first is not second
        assert len(self.memo.payloads) == 0 and set(vars(first)) == {"label", "weight"}  # no bytes pinned
        # ... and the encoder writes it under the plain tag
        assert self.codec.encode_envelope(self.sender, "p", _WireProbe(inner=first)) \
            == head + bytes([self.T_DATACLASS]) + mutable_body + tail


@wire_struct
@dataclass
class _WireMutable:
    label: str
    weight: float
