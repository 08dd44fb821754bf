"""Tests for message registry, size accounting and the wire codec."""

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import jsonwire
from repro.common.codec import CodecError
from repro.common.errors import UnknownMessageError
from repro.common.ids import NodeId, new_node_id
from repro.common.messages import (
    Message,
    lookup_message_type,
    lookup_wire_type,
    message_type,
    registered_message_types,
    wire_struct,
)


@message_type
@dataclass(frozen=True)
class _ProbeMessage(Message):
    text: str = ""
    number: int = 0
    data: Dict[str, Any] = field(default_factory=dict)
    maybe: Optional[NodeId] = None
    pair: Tuple[int, int] = (0, 0)


@wire_struct
@dataclass(frozen=True)
class _InnerStruct:
    label: str
    weight: float


@message_type
@dataclass(frozen=True)
class _NestedMessage(Message):
    inner: _InnerStruct = None  # type: ignore[assignment]
    items: Tuple[_InnerStruct, ...] = ()


class TestRegistry:
    def test_lookup_by_name(self):
        assert lookup_message_type("_ProbeMessage") is _ProbeMessage

    def test_unknown_raises(self):
        with pytest.raises(UnknownMessageError):
            lookup_message_type("NoSuchMessage")

    def test_wire_type_covers_structs(self):
        assert lookup_wire_type("_InnerStruct") is _InnerStruct

    def test_non_message_rejected(self):
        with pytest.raises(TypeError):
            message_type(str)  # type: ignore[arg-type]

    def test_registry_snapshot_is_copy(self):
        snap = registered_message_types()
        snap["_ProbeMessage"] = None  # type: ignore[assignment]
        assert lookup_message_type("_ProbeMessage") is _ProbeMessage

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError):
            @message_type
            @dataclass(frozen=True)
            class _ProbeMessage(Message):  # noqa: F811 - deliberate collision
                pass


class TestSizeEstimate:
    def test_positive_and_monotone_in_payload(self):
        small = _ProbeMessage(text="a")
        large = _ProbeMessage(text="a" * 1000)
        assert 0 < small.size_bytes() < large.size_bytes()

    def test_counts_nested_containers(self):
        message = _ProbeMessage(data={"k": [1, 2, 3], "s": "xyz"})
        assert message.size_bytes() > _ProbeMessage().size_bytes()


class TestCodecRoundTrip:
    def setup_method(self):
        self.codec = jsonwire.Codec()
        self.sender = new_node_id("codec-test")

    def roundtrip(self, message: Message) -> Message:
        payload = self.codec.encode(self.sender, "proto", message)
        decoded = self.codec.decode(payload)
        assert decoded.sender == self.sender
        assert decoded.protocol == "proto"
        return decoded.message

    def test_plain_fields(self):
        msg = _ProbeMessage(text="hello", number=42)
        assert self.roundtrip(msg) == msg

    def test_node_id_field(self):
        msg = _ProbeMessage(maybe=NodeId(7, "n7"))
        out = self.roundtrip(msg)
        assert out.maybe == NodeId(7)
        assert out.maybe.label == "n7"

    def test_tuple_field(self):
        msg = _ProbeMessage(pair=(3, 9))
        out = self.roundtrip(msg)
        assert out.pair == (3, 9)
        assert isinstance(out.pair, tuple)

    def test_nested_struct(self):
        msg = _NestedMessage(inner=_InnerStruct("a", 1.5),
                             items=(_InnerStruct("b", 2.0), _InnerStruct("c", 3.0)))
        out = self.roundtrip(msg)
        assert out == msg

    def test_dict_with_non_string_keys(self):
        msg = _ProbeMessage(data={"1": "one"})
        assert self.roundtrip(msg) == msg

    def test_decode_garbage_raises(self):
        with pytest.raises(CodecError):
            self.codec.decode(b"not json at all")

    def test_decode_unknown_type_raises(self):
        payload = self.codec.encode(self.sender, "p", _ProbeMessage())
        corrupted = payload.replace(b"_ProbeMessage", b"_NopeMessage")
        with pytest.raises(CodecError):
            self.codec.decode(corrupted)

    def test_unsupported_value_raises(self):
        msg = _ProbeMessage(data={"bad": object()})
        with pytest.raises(CodecError):
            self.codec.encode(self.sender, "p", msg)

    @given(
        st.text(max_size=50),
        st.integers(min_value=-(2**40), max_value=2**40),
        st.dictionaries(st.text(min_size=1, max_size=8),
                        st.one_of(st.integers(min_value=-1000, max_value=1000),
                                  st.text(max_size=10),
                                  st.booleans(),
                                  st.none()),
                        max_size=5),
    )
    @settings(max_examples=50)
    def test_roundtrip_property(self, text, number, data):
        msg = _ProbeMessage(text=text, number=number, data=data)
        assert self.roundtrip(msg) == msg
