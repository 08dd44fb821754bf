"""Lazy-push gossip (lpbcast-style advertisement/pull).

Instead of shipping full payloads ``fanout`` times per node, a node
gossips only item *ids* (IHAVE); peers that have not seen an id pull the
body once (IWANT → payload). This trades one extra round-trip of latency
for a large reduction in payload bytes — the classic network-friendly
variant ([19], [20] in the paper). No stack assembles it: it is E2's
comparison arm against the live eager push
(:class:`~repro.epidemic.eager.EagerGossip`) in bytes and messages.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.common.ids import NodeId
from repro.common.messages import Message, message_type
from repro.epidemic.eager import DeliverFn, FanoutSpec
from repro.membership.views import PeerSampler
from repro.sim.node import Protocol


@message_type
@dataclass(frozen=True)
class Advertisement(Message):
    """IHAVE: ids the sender can provide, with their hop counts."""

    item_ids: Tuple[str, ...] = field(default_factory=tuple)
    hops: Tuple[int, ...] = field(default_factory=tuple)


@message_type
@dataclass(frozen=True)
class PullRequest(Message):
    """IWANT: ids the sender is missing."""

    item_ids: Tuple[str, ...] = field(default_factory=tuple)


@message_type
@dataclass(frozen=True)
class PullReply(Message):
    """Payload delivery in response to a pull."""

    item_id: str = ""
    payload: Any = None
    hops: int = 0


class LazyGossip(Protocol):
    """Advertisement/pull dissemination.

    Args:
        fanout: peers advertised to per new item.
        readvertise_rounds: how many periodic rounds an id keeps being
            re-advertised (compensates for lost IHAVEs under churn).
        period: seconds between re-advertisement rounds.
    """

    name = "gossip"  # drop-in replacement for EagerGossip

    def __init__(
        self,
        fanout: FanoutSpec = 8,
        readvertise_rounds: int = 2,
        period: float = 1.0,
        membership: str = "membership",
        seen_capacity: int = 100_000,
    ):
        super().__init__()
        self.fanout = fanout
        self.readvertise_rounds = readvertise_rounds
        self.period = period
        self.membership = membership
        self.seen_capacity = seen_capacity
        self._items: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()
        self._fresh: Dict[str, int] = {}  # id -> remaining re-advertisements
        self._requested: Dict[str, float] = {}
        self._subscribers: List[DeliverFn] = []
        self._timer = None

    # ------------------------------------------------------------------
    def bind(self, host) -> None:
        super().bind(host)
        metrics = host.metrics
        self._c_delivered, self._c_duplicates = metrics.counter_pair(
            "gossip.delivered", "gossip.duplicates")
        self._c_advertised, self._c_pulls = metrics.counter_pair(
            "gossip.advertised", "gossip.pulls")
        self._c_unexpected = metrics.counter("gossip.unexpected_message")

    def on_start(self) -> None:
        self._items = OrderedDict()
        self._fresh = {}
        self._requested = {}
        self._timer = self.every(self.period, self._readvertise)

    def on_stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()

    def subscribe(self, callback: DeliverFn) -> None:
        self._subscribers.append(callback)

    def _sampler(self) -> PeerSampler:
        return self.host.protocol(self.membership)  # type: ignore[return-value]

    def _current_fanout(self) -> int:
        if callable(self.fanout):
            return max(0, int(self.fanout()))
        return self.fanout

    # ------------------------------------------------------------------
    def broadcast(self, item_id: str, payload: Any) -> None:
        self._store(item_id, payload, hops=0)

    def has_seen(self, item_id: str) -> bool:
        return item_id in self._items

    # ------------------------------------------------------------------
    def _store(self, item_id: str, payload: Any, hops: int) -> None:
        if item_id in self._items:
            self._c_duplicates.inc()
            return
        self._items[item_id] = (payload, hops)
        while len(self._items) > self.seen_capacity:
            evicted, _ = self._items.popitem(last=False)
            self._fresh.pop(evicted, None)
        self._fresh[item_id] = self.readvertise_rounds
        self._requested.pop(item_id, None)
        for deliver in self._subscribers:
            deliver(item_id, payload, hops)
        self._c_delivered.inc()
        tracer = self.host.tracer
        if tracer.active:
            tracer.event("deliver", self.host.node_id.value, self.host.now,
                         item=item_id, hops=hops)
        self._advertise([item_id])

    def _advertise(self, item_ids: List[str]) -> None:
        fanout = self._current_fanout()
        if fanout <= 0 or not item_ids:
            return
        hops = tuple(self._items[i][1] for i in item_ids if i in self._items)
        ids = tuple(i for i in item_ids if i in self._items)
        if not ids:
            return
        for peer in self._sampler().sample_peers(fanout):
            self.send(peer, Advertisement(ids, hops))
        self._c_advertised.inc(len(ids) * fanout)

    def _readvertise(self) -> None:
        due = [item_id for item_id, remaining in self._fresh.items() if remaining > 0]
        if due:
            self._advertise(due)
        self._fresh = {i: r - 1 for i, r in self._fresh.items() if r - 1 > 0}

    # ------------------------------------------------------------------
    def on_message(self, sender: NodeId, message: Message) -> None:
        if isinstance(message, Advertisement):
            missing = tuple(i for i in message.item_ids if i not in self._items and not self._recently_requested(i))
            if missing:
                for item_id in missing:
                    self._requested[item_id] = self.host.now
                self.send(sender, PullRequest(missing))
                self._c_pulls.inc(len(missing))
        elif isinstance(message, PullRequest):
            for item_id in message.item_ids:
                held = self._items.get(item_id)
                if held is not None:
                    payload, hops = held
                    self.send(sender, PullReply(item_id, payload, hops))
        elif isinstance(message, PullReply):
            self._store(message.item_id, message.payload, message.hops + 1)
        else:
            self._c_unexpected.inc()

    def _recently_requested(self, item_id: str) -> bool:
        """Suppress duplicate pulls for ids requested within one period.

        After that window the pull may be retried (the earlier provider
        may have crashed before answering)."""
        at = self._requested.get(item_id)
        return at is not None and (self.host.now - at) < self.period
