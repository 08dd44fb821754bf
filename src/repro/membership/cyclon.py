"""Cyclon-style peer sampling (Voulgaris et al.).

Each node keeps a small partial view. Periodically it contacts the
*oldest* peer in its view and the two exchange random subsets of their
views (a *shuffle*). Aging plus oldest-first contact means descriptors
of dead nodes are recycled quickly, keeping the overlay connected under
churn — the property every upper-layer epidemic protocol in this
reproduction depends on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

from repro.common.ids import NodeId
from repro.common.messages import Message, message_type
from repro.membership.views import NodeDescriptor, PartialView, PeerSampler


@message_type
@dataclass(frozen=True)
class ShuffleRequest(Message):
    entries: Tuple[NodeDescriptor, ...] = field(default_factory=tuple)


@message_type
@dataclass(frozen=True)
class ShuffleReply(Message):
    entries: Tuple[NodeDescriptor, ...] = field(default_factory=tuple)


#: Age of an id re-added from the address cache, in rounds: nobody vouches
#: for it, so it is older than any descriptor a live peer hands out. The
#: shuffle tries it first, and nobody who receives it counts it as up.
CACHED_AGE = 1 << 20

#: Sees every shuffle this node receives: its sender and its descriptors.
ShuffleObserver = Callable[[NodeId, Tuple[NodeDescriptor, ...]], None]


class CyclonProtocol(PeerSampler):
    """The peer-sampling service used throughout the library.

    Args:
        view_size: partial view capacity (Cyclon's *c*); O(log N) keeps
            the overlay connected with high probability.
        shuffle_size: descriptors exchanged per shuffle (Cyclon's *l*).
        period: seconds between shuffles.
    """

    name = "membership"

    def __init__(self, view_size: int = 16, shuffle_size: int = 8, period: float = 1.0):
        super().__init__()
        if shuffle_size > view_size:
            raise ValueError("shuffle_size cannot exceed view_size")
        self.view_size = view_size
        self.shuffle_size = shuffle_size
        self.period = period
        self.view: PartialView = None  # type: ignore[assignment]
        self._timer = None
        self._pending: List[Tuple[NodeId, List[NodeId]]] = []
        self.observer: Optional[ShuffleObserver] = None

    # -- lifecycle -------------------------------------------------------
    def bind(self, host) -> None:
        super().bind(host)
        self._c_shuffles, self._c_unexpected = host.metrics.counter_pair(
            "cyclon.shuffles", "cyclon.unexpected_message")

    def on_start(self) -> None:
        self.view = PartialView(self.view_size, self.host.node_id)
        self._pending = []
        # Re-join after a reboot from the durable address cache (every
        # real deployment persists last-known peers; without this a
        # recovering node has an empty view and nobody to shuffle with).
        self._rejoin()
        self._timer = self.every(self.period, self._shuffle)

    def on_stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()

    def seed(self, peers: Iterable[NodeId]) -> None:
        for peer in peers:
            self.view.add(NodeDescriptor(peer, 0))

    def set_observer(self, observer: ShuffleObserver) -> None:
        """Hand every received shuffle to ``observer`` too: the ids that
        reach a node this way, with their ages, are a fresh sample of who
        is up, which the redundancy manager counts its range from."""
        self.observer = observer

    def _rejoin(self) -> None:
        for peer in self.host.durable.get("membership:address-cache", []):
            self.view.add(NodeDescriptor(peer, CACHED_AGE))

    # -- PeerSampler -------------------------------------------------------
    def sample_peers(self, count: int) -> List[NodeId]:
        return [d.node_id for d in self.view.random_descriptors(count, self.host.rng)]

    # -- shuffling ---------------------------------------------------------
    def _shuffle(self) -> None:
        peers = self.view.peers()
        if peers:
            # Keep the freshest view_size addresses: current view first,
            # then what the cache already had. Never overwrite with a
            # *drained* view — while a node is cut off from the network,
            # every shuffle removes its target and nothing merges back,
            # and flushing the cache along the way would leave nothing
            # to re-join from.
            cached = self.host.durable.get("membership:address-cache", [])
            self.host.durable["membership:address-cache"] = list(
                dict.fromkeys(list(peers) + list(cached)))[: self.view_size]
        self.view.increase_ages()
        target = self.view.oldest()
        if target is None:
            # The view drained (long isolation, not a reboot). Re-join
            # from the address cache exactly like on_start does —
            # otherwise the node stays disconnected forever even after
            # the network heals, since shuffles are view-driven and the
            # rest of the overlay has long since aged this node out.
            self._rejoin()
            target = self.view.oldest()
        if target is None:
            return
        # Ship (l - 1) random entries plus a fresh descriptor of ourselves.
        shipped = self.view.random_descriptors(
            self.shuffle_size - 1, self.host.rng, exclude=target.node_id
        )
        payload = tuple(shipped) + (NodeDescriptor(self.host.node_id, 0),)
        # Remove the target optimistically: if it is dead we forget it; if
        # it answers, the reply merge readmits a fresh descriptor for it.
        self.view.remove(target.node_id)
        self._pending.append((target.node_id, [d.node_id for d in shipped]))
        if len(self._pending) > 8:  # forget stale handshakes (lost replies)
            self._pending.pop(0)
        self.send(target.node_id, ShuffleRequest(payload))
        self._c_shuffles.inc()

    def on_message(self, sender: NodeId, message: Message) -> None:
        if self.observer is not None and isinstance(message, (ShuffleRequest, ShuffleReply)):
            self.observer(sender, message.entries)
        if isinstance(message, ShuffleRequest):
            reply = self.view.random_descriptors(self.shuffle_size, self.host.rng, exclude=sender)
            self.send(sender, ShuffleReply(tuple(reply)))
            self.view.merge(message.entries, replaceable=[d.node_id for d in reply])
        elif isinstance(message, ShuffleReply):
            shipped: List[NodeId] = []
            for i, (peer, sent) in enumerate(self._pending):
                if peer == sender:
                    shipped = sent
                    del self._pending[i]
                    break
            self.view.merge(message.entries, replaceable=shipped)
            # The answering peer is alive: keep a fresh pointer to it.
            self.view.add(NodeDescriptor(sender, 0))
        else:
            self._c_unexpected.inc()
