"""Correlation-aware sieves (paper §III-B1, claim C6).

"The most straightforward approach to item co-location is by using
smarter sieve functions that [...] take advantage of tuple correlation
and thus locally co-locate related items."

:class:`TagSieve` keys placement on a *correlation tag* extracted from
the record (e.g. the user id of a social-network event, the order id of
its line items). All items sharing a tag hash to the same ring
coordinate and are therefore admitted by the same nodes — a multi-item
operation on one tag touches ~r nodes instead of ~r×items.

The soft-state layer can hint tags per table (the paper's "hinted by the
soft-state layer"); extraction is a plain callable here.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

from repro.common.hashing import KEYSPACE_SIZE, key_hash
from repro.common.ids import NodeId
from repro.sieve.base import Record, Sieve
from repro.sieve.keyspace import BucketSieve

#: Extracts the correlation tag from a record (None = fall back to id).
TagFn = Callable[[str, Record], Optional[str]]


def prefix_tag(separator: str = ":") -> TagFn:
    """Tag extractor using the item id's prefix (``"user42:post:7"`` →
    ``"user42"``) — the zero-schema convention many stores use."""

    def _extract(item_id: str, record: Record) -> Optional[str]:
        head, sep, _ = item_id.partition(separator)
        return head if sep else None

    return _extract


class TagSieve(Sieve):
    """Bucket sieve whose ring coordinate is the item's correlation tag.

    Untagged items fall back to their own id, i.e. behave exactly like
    a plain :class:`BucketSieve`.
    """

    def __init__(
        self,
        node_id: NodeId,
        replication: int,
        size_estimate_fn: Callable[[], float],
        tag_fn: TagFn,
    ):
        self.tag_fn = tag_fn
        self.inner = BucketSieve(node_id, replication, size_estimate_fn, key_fn=self._tag_position)

    def _tag_position(self, item_id: str, record: Record) -> float:
        tag = self.tag_fn(item_id, record)
        anchor = tag if tag is not None else item_id
        return key_hash(f"tag:{anchor}") / KEYSPACE_SIZE

    def admits(self, item_id: str, record: Record) -> bool:
        return self.inner.admits(item_id, record)

    def range_key(self) -> Hashable:
        return ("tagged",) + tuple(self.inner.range_key())  # type: ignore[operator]

    def audit(self) -> bool:
        return self.inner.audit()

    def describe(self) -> str:
        return f"tagged({self.inner.describe()})"
