"""Message base class and type registry.

Every protocol message in the system is a frozen dataclass deriving from
:class:`Message` and registered with the :func:`message_type` decorator.
Registration buys two things:

* the asyncio runtime can serialize/deserialize by type name, and
* the simulator can charge a (rough) wire size to each message so
  benchmarks can report network cost in bytes as well as message counts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple, Type, TypeVar

from repro.common.errors import UnknownMessageError
from repro.common.ids import NodeId

_REGISTRY: Dict[str, Type["Message"]] = {}

M = TypeVar("M", bound="Message")


@dataclass(frozen=True)
class Message:
    """Base class for all wire messages.

    Messages are immutable value objects. Subclasses add payload fields;
    they must be registered with :func:`message_type` to be routable by
    the asyncio runtime.
    """

    #: Optional cost-accounting bucket. When set (e.g. "digest" or
    #: "items"), the simulated network additionally charges the message
    #: to ``net.sent.<protocol>.<category>`` / ``net.bytes.<protocol>.
    #: <category>`` so benchmarks can split a protocol's traffic by kind
    #: (anti-entropy: control metadata vs payload transfer).
    wire_category: ClassVar[Optional[str]] = None

    @classmethod
    def type_name(cls) -> str:
        return cls.__name__

    def size_bytes(self) -> int:
        """Rough serialized size, used for network-cost accounting.

        The estimate is intentionally cheap: a fixed per-message header
        plus a walk of the payload fields. Benchmarks compare costs
        *between* protocols, so only relative accuracy matters.

        Messages are immutable, so the size is computed once on first
        call and cached on the instance — the network charges bytes per
        send, and a fanout sends one message object many times. A relay
        is a new message around the same payload, so a direct field that
        is a :func:`frozen_struct` keeps its walked size too, the way the
        codec keeps its encoded bytes.
        """
        try:
            return self._size_bytes_cache  # type: ignore[attr-defined]
        except AttributeError:
            pass
        size = 16
        for name, name_len in _fields_of(type(self)):
            value = getattr(self, name)
            kind = type(value)
            if kind is float or kind is int:
                size += name_len + 8
            elif kind is str:
                size += name_len + len(value)
            elif frozen_struct(kind):
                size += name_len + _struct_size(value)
            else:
                size += name_len + _walk(value)
        object.__setattr__(self, "_size_bytes_cache", size)
        return size


def recursive_size_estimate(message: "Message") -> int:
    """Reference size estimate via a full ``dataclasses.asdict`` walk.

    This is the original (slow) implementation; :meth:`Message.size_bytes`
    must agree with it exactly. Kept for regression tests.
    """
    return 16 + _estimate(dataclasses.asdict(message))


def _estimate(value: Any) -> int:
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value)
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, dict):
        return sum(_estimate(k) + _estimate(v) for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(_estimate(item) for item in value)
    if isinstance(value, NodeId):
        return 8
    if dataclasses.is_dataclass(value):
        return _estimate(dataclasses.asdict(value))
    return 8


#: Per-class cache of (field name, len(field name)) pairs so the hot walk
#: never re-runs ``dataclasses.fields``.
_FIELD_CACHE: Dict[type, Tuple[Tuple[str, int], ...]] = {}


def _fields_of(cls: type) -> Tuple[Tuple[str, int], ...]:
    cached = _FIELD_CACHE.get(cls)
    if cached is None:
        cached = tuple((f.name, len(f.name)) for f in dataclasses.fields(cls))
        _FIELD_CACHE[cls] = cached
    return cached


_FROZEN_STRUCTS: Dict[type, bool] = {}


def frozen_struct(cls: type) -> bool:
    """May a ``cls`` instance keep its encoded bytes and walked size?
    Frozen dataclasses only: reassignable fields would leave them stale.
    ``NodeId`` has its own cheap paths; ``__slots__`` leaves no room."""
    flag = _FROZEN_STRUCTS.get(cls)
    if flag is None:
        params = getattr(cls, "__dataclass_params__", None)
        flag = _FROZEN_STRUCTS[cls] = (
            params is not None and params.frozen and cls is not NodeId
            and not any("__slots__" in vars(base) for base in cls.__mro__[:-1]))
    return flag


def walked_size(value: Any) -> int:
    """Estimated size of one payload: what a message charges for it as
    a direct field, less the field name. A :func:`frozen_struct` is
    walked once and keeps the result."""
    return _struct_size(value) if frozen_struct(type(value)) else _walk(value)


def _struct_size(struct: Any) -> int:
    walked = getattr(struct, "_walked_size", None)
    if walked is None:
        walked = _walk(struct)
        object.__setattr__(struct, "_walked_size", walked)
    return walked


def _walk(value: Any) -> int:
    """Size a payload without materializing the ``asdict`` copy.

    Must return exactly what ``_estimate(dataclasses.asdict(...))``
    returns: ``asdict`` converts nested dataclasses (NodeId included)
    into field-name dicts, recurses into dicts/lists/tuples, and leaves
    set members untouched — so sets fall back to :func:`_estimate`.
    """
    if value is None or value is True or value is False:
        return 1
    kind = type(value)
    if kind is NodeId:
        label = value.label
        # len("value") + 8 + len("label") + estimate(label)
        return 18 + (1 if label is None else len(label))
    if kind is str:
        return len(value)
    if kind is int:
        return 8
    if kind is float:
        return 8
    # Containers size their int/float/str members inline: a vector of 64
    # floats is one call, not 65.
    if kind is tuple or kind is list:
        total = 0
        for item in value:
            kind = type(item)
            total += 8 if kind is float or kind is int else len(item) if kind is str else _walk(item)
        return total
    if kind is dict:
        total = 0
        for key, item in value.items():
            kind = type(item)
            total += len(key) if type(key) is str else _walk(key)
            total += 8 if kind is float or kind is int else len(item) if kind is str else _walk(item)
        return total
    if kind is bytes:
        return len(value)
    fields = _FIELD_CACHE.get(kind)
    if fields is not None or (dataclasses.is_dataclass(value) and not isinstance(value, type)):
        total = 0
        for name, name_len in fields or _fields_of(kind):
            item = getattr(value, name)
            kind = type(item)
            total += name_len + (8 if kind is float or kind is int else
                                 len(item) if kind is str else _walk(item))
        return total
    # Slow path: subclasses, sets, unknowns.
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value)
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, dict):
        return sum(_walk(k) + _walk(v) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return sum(_walk(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return sum(_estimate(item) for item in value)
    return 8


def pack_mask(flags: Sequence[bool]) -> bytes:
    """Presence bitmap of a sparse vector: bit ``i % 8`` of byte ``i // 8``
    is set when ``flags[i]`` is, in ``ceil(len(flags) / 8)`` bytes. A
    sparse message carries this mask plus the values it flags, in order."""
    bits = 0
    for index, flag in enumerate(flags):
        if flag:
            bits |= 1 << index
    return bits.to_bytes((len(flags) + 7) // 8, "little")


def mask_indices(mask: bytes, n: int) -> Optional[List[int]]:
    """The indices a :func:`pack_mask` mask over ``n`` entries flags, in
    ascending order; None for anything that mask cannot be: not
    ``bytes``, another length, or a bit set past ``n``."""
    if not isinstance(mask, bytes) or len(mask) != (n + 7) // 8:
        return None
    bits = int.from_bytes(mask, "little")
    if bits >> n:
        return None
    return [index for index, digit in enumerate(reversed(format(bits, "b"))) if digit == "1"]


def message_type(cls: Type[M]) -> Type[M]:
    """Class decorator registering a :class:`Message` subclass by name."""
    if not issubclass(cls, Message):
        raise TypeError(f"{cls.__name__} must derive from Message")
    name = cls.type_name()
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(f"duplicate message type name: {name}")
    _REGISTRY[name] = cls
    return cls


_STRUCTS: Dict[str, type] = {}

S = TypeVar("S")


def wire_struct(cls: Type[S]) -> Type[S]:
    """Register a plain dataclass (not a Message) for wire encoding.

    Needed for payload value objects nested inside messages, e.g. node
    descriptors in membership views or versioned tuples.
    """
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls.__name__} must be a dataclass")
    existing = _STRUCTS.get(cls.__name__)
    if existing is not None and existing is not cls:
        raise ValueError(f"duplicate wire struct name: {cls.__name__}")
    _STRUCTS[cls.__name__] = cls
    return cls


def lookup_message_type(name: str) -> Type[Message]:
    """Resolve a registered message class by its type name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownMessageError(f"unregistered message type: {name}") from None


def lookup_wire_type(name: str) -> type:
    """Resolve a registered message *or* payload struct by name."""
    found = _REGISTRY.get(name) or _STRUCTS.get(name)
    if found is None:
        raise UnknownMessageError(f"unregistered wire type: {name}")
    return found


def registered_message_types() -> Dict[str, Type[Message]]:
    """A copy of the current registry (type name -> class)."""
    return dict(_REGISTRY)
