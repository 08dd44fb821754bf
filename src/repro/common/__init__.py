"""Shared primitives used by every DataDroplets subsystem.

This package holds the vocabulary types of the reproduction: node
identifiers, stable key hashing and ring arithmetic, the message base
class and registry used by both the simulator and the asyncio runtime,
and the wire codec.
"""

from repro.common.codec import BinaryCodec, CodecError
from repro.common.errors import (
    ConfigurationError,
    DataDropletsError,
    NodeDownError,
    TimeoutError_,
    UnknownMessageError,
)
from repro.common.hashing import (
    KEYSPACE_SIZE,
    Arc,
    key_hash,
    position_of,
    ring_distance,
)
from repro.common.ids import NodeId, new_node_id
from repro.common.messages import Message, message_type, registered_message_types

__all__ = [
    "Arc",
    "BinaryCodec",
    "CodecError",
    "ConfigurationError",
    "DataDropletsError",
    "KEYSPACE_SIZE",
    "Message",
    "NodeDownError",
    "NodeId",
    "TimeoutError_",
    "UnknownMessageError",
    "key_hash",
    "message_type",
    "new_node_id",
    "position_of",
    "registered_message_types",
    "ring_distance",
]
