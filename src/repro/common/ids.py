"""Node identifiers.

A :class:`NodeId` is a small immutable value object. In the simulator ids
are dense integers assigned by the cluster; in the asyncio runtime they
are derived from the listening address. Both are wrapped in the same
type so protocol code never depends on which world it runs in.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True, order=True)
class NodeId:
    """Identity of a process participating in the system.

    Attributes:
        value: dense integer identity (stable for the node's lifetime).
        label: optional human-readable tag (e.g. ``"soft-3"`` or
            ``"127.0.0.1:9001"``); excluded from ordering and equality.
    """

    value: int
    label: Optional[str] = field(default=None, compare=False)

    # Hand-written: the generated methods build a ``(value,)`` tuple per
    # call on every dict/set access. The hash is still ``hash((value,))``
    # (kept on first use), so no set or dict changes its iteration order.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.value == other.value  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            value = hash((self.value,))
            object.__setattr__(self, "_hash", value)
            return value

    def __str__(self) -> str:
        if self.label is not None:
            return self.label
        return f"n{self.value}"

    def __repr__(self) -> str:
        return f"NodeId({self.value}{'' if self.label is None else ', ' + self.label!r})"


_counter = itertools.count()


def new_node_id(label: Optional[str] = None) -> NodeId:
    """Allocate a fresh process-unique :class:`NodeId`.

    Used by the asyncio runtime and by tests that do not go through a
    simulated cluster (which assigns dense ids itself).
    """
    return NodeId(next(_counter), label)
