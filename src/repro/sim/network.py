"""Simulated message-passing network.

The network delivers protocol messages between nodes with configurable
latency, loss and partitions. Delivery is point-to-point and unordered
(like UDP, which is also what the asyncio runtime uses): two messages
between the same pair may be reordered if their sampled latencies cross.
That matches the fault model the paper's epidemic protocols are designed
for — they must tolerate loss and reordering natively.

Beyond the baseline latency/loss model, the network exposes adversarial
fault-injection knobs (used by the :mod:`repro.check` nemesis): message
duplication, forced reordering via extra delay, a flat added delay, and
a drop filter for targeted blackholing. All of them default to off and
cost nothing on the hot path when unused.
"""

from __future__ import annotations

import operator
import random
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.common.ids import NodeId
from repro.common.messages import Message
from repro.obs.trace import NULL_TRACER, TraceContext, Tracer
from repro.sim.metrics import Counter, Metrics
from repro.sim.simulator import Simulation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.node import Node


class LatencyModel:
    """Strategy producing a one-way delay sample per message."""

    def sample(self, rng: random.Random, src: NodeId, dst: NodeId) -> float:
        raise NotImplementedError


class FixedLatency(LatencyModel):
    """Constant delay — useful for fully deterministic unit tests."""

    def __init__(self, delay: float = 0.01):
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = delay

    def sample(self, rng: random.Random, src: NodeId, dst: NodeId) -> float:
        return self.delay


class UniformLatency(LatencyModel):
    """Delay drawn uniformly from [low, high]."""

    def __init__(self, low: float = 0.01, high: float = 0.1):
        if not 0 <= low <= high:
            raise ValueError("need 0 <= low <= high")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random, src: NodeId, dst: NodeId) -> float:
        return rng.uniform(self.low, self.high)


class LogNormalLatency(LatencyModel):
    """Heavy-tailed delay, a common fit for wide-area RTT distributions."""

    def __init__(self, median: float = 0.05, sigma: float = 0.5, cap: float = 2.0):
        if median <= 0 or sigma < 0 or cap <= 0:
            raise ValueError("median and cap must be positive, sigma non-negative")
        import math

        self._mu = math.log(median)
        self.sigma = sigma
        self.cap = cap

    def sample(self, rng: random.Random, src: NodeId, dst: NodeId) -> float:
        return min(self.cap, rng.lognormvariate(self._mu, self.sigma))


class Network:
    """Routes messages between registered nodes through the simulator.

    Args:
        sim: owning simulation (provides clock and the ``network`` RNG
            stream).
        latency: one-way delay model.
        loss_rate: probability each message is silently dropped.
        metrics: registry charged with per-protocol message/byte counts.
        byte_model: how a message's wire cost is charged — "estimate"
            (the cheap ``Message.size_bytes`` walk, the default) or
            "encoded" (the real binary-codec frame size, making sim byte
            curves directly comparable to the binary asyncio runtime).
        tracer: causal tracer shared by every node on this network; when
            a trace context is active at send time, the message carries a
            child span and delivery re-activates it around the handler,
            so causality propagates across hops without protocol changes.
            Defaults to the disabled no-op tracer (zero hot-path cost
            beyond one attribute load and a branch).
    """

    def __init__(
        self,
        sim: Simulation,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        metrics: Optional[Metrics] = None,
        byte_model: str = "estimate",
        tracer: Optional[Tracer] = None,
    ):
        if not 0 <= loss_rate < 1:
            raise ValueError("loss_rate must be in [0, 1)")
        if byte_model not in ("estimate", "encoded"):
            raise ValueError("byte_model must be 'estimate' or 'encoded'")
        self.byte_model = byte_model
        if byte_model == "encoded":
            from repro.common.codec import encoded_wire_size

            self._size_of: Callable[[Message], int] = encoded_wire_size
        else:
            # operator.methodcaller keeps dynamic dispatch: subclasses may
            # override size_bytes (the unbound Message.size_bytes would not).
            self._size_of = operator.methodcaller("size_bytes")
        self.sim = sim
        self.latency = latency if latency is not None else UniformLatency()
        self.loss_rate = loss_rate
        self.metrics = metrics if metrics is not None else Metrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._nodes: Dict[NodeId, "Node"] = {}
        self._rng = sim.rng("network")
        # Optional reachability predicate for partitions: return False to
        # block (src, dst). None means fully connected.
        self._reachable: Optional[Callable[[NodeId, NodeId], bool]] = None
        # -- fault-injection knobs (all off by default) -----------------
        #: probability each accepted message is delivered twice
        self.duplicate_rate: float = 0.0
        #: probability a message gets ``reorder_delay`` extra latency
        self.reorder_rate: float = 0.0
        self.reorder_delay: float = 0.25
        #: flat extra one-way delay added to every message
        self.extra_delay: float = 0.0
        #: targeted drop predicate: return True to blackhole the message
        self._drop_filter: Optional[Callable[[NodeId, NodeId, str, Message], bool]] = None
        # Interned counter handles: the send path runs once per message,
        # so it must not rebuild f-string keys or walk the registry dict.
        m = self.metrics
        self._sent_total, self._bytes_total = m.counter_pair("net.sent.total", "net.bytes.total")
        self._delivered_total = m.counter("net.delivered.total")
        self._dropped_unknown = m.counter("net.dropped.unknown_dest")
        self._dropped_partition = m.counter("net.dropped.partition")
        self._dropped_loss = m.counter("net.dropped.loss")
        self._dropped_down = m.counter("net.dropped.node_down")
        self._dropped_injected = m.counter("net.dropped.injected")
        self._injected_duplicates = m.counter("net.injected.duplicates")
        self._injected_reordered = m.counter("net.injected.reordered")
        self._proto_handles: Dict[str, Tuple[Counter, Counter]] = {}
        self._category_handles: Dict[Tuple[str, str], Tuple[Counter, Counter]] = {}

    # ------------------------------------------------------------------
    def register(self, node: "Node") -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node

    def unregister(self, node_id: NodeId) -> None:
        self._nodes.pop(node_id, None)

    def node(self, node_id: NodeId) -> Optional["Node"]:
        return self._nodes.get(node_id)

    def set_partition(self, reachable: Optional[Callable[[NodeId, NodeId], bool]]) -> None:
        """Install (or clear, with None) a reachability predicate.

        The predicate is checked at *send* time and again at *delivery*
        time, so messages already in flight when the partition starts are
        dropped too — cutting a link loses the packets on the wire, not
        just future sends. Symmetrically, messages sent while partitioned
        are gone for good; healing does not resurrect them.
        """
        self._reachable = reachable

    def set_drop_filter(
        self, drop: Optional[Callable[[NodeId, NodeId, str, Message], bool]]
    ) -> None:
        """Install (or clear, with None) a targeted drop predicate.

        Called per send as ``drop(src, dst, protocol, message)``; True
        blackholes the message (counted under ``net.dropped.injected``).
        Used by the nemesis for node isolation and selective loss."""
        self._drop_filter = drop

    # ------------------------------------------------------------------
    def protocol_counters(self, protocol: str) -> Tuple[Counter, Counter]:
        """Interned ``(net.sent.<p>, net.bytes.<p>)`` handles for a protocol."""
        handles = self._proto_handles.get(protocol)
        if handles is None:
            handles = self.metrics.counter_pair(f"net.sent.{protocol}", f"net.bytes.{protocol}")
            self._proto_handles[protocol] = handles
        return handles

    def category_counters(self, protocol: str, category: str) -> Tuple[Counter, Counter]:
        """Interned ``(net.sent.<p>.<c>, net.bytes.<p>.<c>)`` handles.

        Categories come from :attr:`Message.wire_category` — they split
        one protocol's traffic into accounting buckets (anti-entropy:
        "digest" metadata vs "items" payload bytes)."""
        handles = self._category_handles.get((protocol, category))
        if handles is None:
            handles = self.metrics.counter_pair(
                f"net.sent.{protocol}.{category}", f"net.bytes.{protocol}.{category}")
            self._category_handles[(protocol, category)] = handles
        return handles

    def send(self, src: NodeId, dst: NodeId, protocol: str, message: Message) -> None:
        """Send one message; may be dropped, delayed and reordered.

        Sends to unknown or self destinations are counted but dropped —
        epidemic protocols routinely gossip to stale descriptors, and
        that must behave like talking to a dead host, not crash the sim.
        """
        handles = self._proto_handles.get(protocol)
        if handles is None:
            handles = self.protocol_counters(protocol)
        size = self._size_of(message)
        # Direct increments: a size is never negative, so Counter.inc's
        # check buys nothing on the per-send path.
        handles[0].value += 1.0
        handles[1].value += size
        self._sent_total.value += 1.0
        self._bytes_total.value += size
        category = message.wire_category
        if category is not None:
            cat = self._category_handles.get((protocol, category))
            if cat is None:
                cat = self.category_counters(protocol, category)
            cat[0].value += 1.0
            cat[1].value += size
        if dst not in self._nodes:
            self._dropped_unknown.inc()
            return
        if self._reachable is not None and not self._reachable(src, dst):
            self._dropped_partition.inc()
            return
        if self.loss_rate > 0 and self._rng.random() < self.loss_rate:
            self._dropped_loss.inc()
            return
        if self._drop_filter is not None and self._drop_filter(src, dst, protocol, message):
            self._dropped_injected.inc()
            return
        delay = self.latency.sample(self._rng, src, dst) + self.extra_delay
        if self.reorder_rate > 0 and self._rng.random() < self.reorder_rate:
            delay += self.reorder_delay
            self._injected_reordered.inc()
        tracer = self.tracer
        if tracer.current is not None:
            # An operation is being traced: this message becomes a child
            # span and carries the context to the receiver.
            ctx = tracer.send_context(
                src.value, dst.value, protocol, type(message).__name__, self.sim.now)
        else:
            ctx = None
        self.sim.schedule_call(delay, self._deliver, src, dst, protocol, message, ctx)
        if self.duplicate_rate > 0 and self._rng.random() < self.duplicate_rate:
            extra = self.latency.sample(self._rng, src, dst) + self.extra_delay
            self._injected_duplicates.inc()
            self.sim.schedule_call(extra, self._deliver, src, dst, protocol, message, ctx)

    def _deliver(self, src: NodeId, dst: NodeId, protocol: str, message: Message,
                 ctx: Optional[TraceContext] = None) -> None:
        if self._reachable is not None and not self._reachable(src, dst):
            # The partition started while this message was in flight.
            self._dropped_partition.inc()
            return
        node = self._nodes.get(dst)
        if node is None or not node.is_up:
            self._dropped_down.inc()
            return
        self._delivered_total.inc()
        if ctx is not None:
            tracer = self.tracer
            tracer.recv(dst.value, ctx, self.sim.now, protocol)
            with tracer.activate(ctx):
                node.handle_message(src, protocol, message)
        else:
            node.handle_message(src, protocol, message)

    # ------------------------------------------------------------------
    @property
    def message_count(self) -> float:
        return self.metrics.counter_value("net.sent.total")

    @property
    def byte_count(self) -> float:
        return self.metrics.counter_value("net.bytes.total")
