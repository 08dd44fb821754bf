"""Eager push gossip (infect-and-die).

The workhorse dissemination primitive of the persistent-state layer:
on first receipt of an item, a node delivers it to local subscribers and
relays copies to ``fanout`` peers drawn from the peer sampler. With
fanout ln(N)+c this achieves atomic infection w.h.p. (see
:mod:`repro.epidemic.analysis`); with smaller fanout it reaches a
predictable fraction of the system, which is all the uniform-sieve
replication strategy needs (claims C1/C2).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Union

from repro.common.ids import NodeId
from repro.common.messages import Message, message_type
from repro.membership.views import PeerSampler
from repro.sim.node import Protocol

#: Subscriber callback: (item_id, payload, hops).
DeliverFn = Callable[[str, Any, int], None]

#: Fanout may be a fixed int or a callable evaluated per relay (e.g. one
#: backed by the epidemic size estimator: ceil(ln N_est) + c).
FanoutSpec = Union[int, Callable[[], int]]


@message_type
@dataclass(frozen=True)
class GossipMessage(Message):
    item_id: str
    payload: Any
    hops: int = 0


class EagerGossip(Protocol):
    """Payload-carrying eager push gossip.

    Args:
        fanout: copies relayed per (first) receipt; int or callable.
        max_hops: optional hop TTL (None = unlimited; atomic infection
            analysis assumes unlimited).
        membership: name of the PeerSampler protocol on the same node.
        seen_capacity: size of the duplicate-suppression memory.
    """

    name = "gossip"

    def __init__(
        self,
        fanout: FanoutSpec = 8,
        max_hops: Optional[int] = None,
        membership: str = "membership",
        seen_capacity: int = 100_000,
    ):
        super().__init__()
        self.fanout = fanout
        self.max_hops = max_hops
        self.membership = membership
        self.seen_capacity = seen_capacity
        self._seen: "OrderedDict[str, None]" = OrderedDict()
        self._subscribers: List[DeliverFn] = []

    # ------------------------------------------------------------------
    def bind(self, host) -> None:
        super().bind(host)
        # Interned counter handles: the receive/relay loop runs once per
        # message, so it must not resolve registry names per event.
        metrics = host.metrics
        self._c_delivered, self._c_duplicates = metrics.counter_pair(
            "gossip.delivered", "gossip.duplicates")
        self._c_relayed, self._c_unexpected = metrics.counter_pair(
            "gossip.relayed", "gossip.unexpected_message")

    def on_start(self) -> None:
        self._seen = OrderedDict()

    def subscribe(self, callback: DeliverFn) -> None:
        """Register a local delivery callback (called once per item)."""
        self._subscribers.append(callback)

    def _sampler(self) -> PeerSampler:
        return self.host.protocol(self.membership)  # type: ignore[return-value]

    def _current_fanout(self) -> int:
        if callable(self.fanout):
            return max(0, int(self.fanout()))
        return self.fanout

    # ------------------------------------------------------------------
    def broadcast(self, item_id: str, payload: Any) -> None:
        """Inject a new item at this node (origin counts as infected)."""
        self._receive(self.host.node_id, GossipMessage(item_id, payload, hops=0), local=True)

    def on_message(self, sender: NodeId, message: Message) -> None:
        if not isinstance(message, GossipMessage):
            self._c_unexpected.inc()
            return
        self._receive(sender, message)

    # ------------------------------------------------------------------
    def _receive(self, sender: NodeId, message: GossipMessage, local: bool = False) -> None:
        if message.item_id not in self._seen:
            self._remember(message.item_id)
            for deliver in self._subscribers:
                deliver(message.item_id, message.payload, message.hops)
            self._c_delivered.inc()
            tracer = self.host.tracer
            if tracer.active:
                tracer.event("deliver", self.host.node_id.value, self.host.now,
                             item=message.item_id, hops=message.hops)
            if self.max_hops is None or message.hops < self.max_hops:
                self._relay(message)
        else:
            self._c_duplicates.inc()

    def _relay(self, message: GossipMessage) -> None:
        fanout = self._current_fanout()
        if fanout <= 0:
            return
        peers = self._sampler().sample_peers(fanout)
        relayed = GossipMessage(message.item_id, message.payload, hops=message.hops + 1)
        for peer in peers:
            self.send(peer, relayed)
        self._c_relayed.inc(len(peers))

    def _remember(self, item_id: str) -> None:
        self._seen[item_id] = None
        while len(self._seen) > self.seen_capacity:
            self._seen.popitem(last=False)

    # ------------------------------------------------------------------
    def has_seen(self, item_id: str) -> bool:
        return item_id in self._seen
