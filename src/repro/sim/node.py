"""Nodes, protocol stacks and the sans-io Host interface.

A *protocol* is a pure event-driven object: it reacts to ``on_start``,
``on_message`` and timers, and acts on the world exclusively through a
:class:`Host` (send a message, set a timer, read the clock, draw random
numbers, touch durable storage). The simulator's :class:`Node` and the
asyncio runtime's node both implement :class:`Host`, so every protocol
in this library runs unchanged in both worlds.

Node lifecycle (the paper's fault model, §III-A):

* ``UP`` — running normally.
* ``DOWN`` — transient failure (crash/reboot). All protocol soft state
  and pending timers are lost, but the *durable* store survives; on
  recovery a fresh protocol stack is built.
* ``DEAD`` — permanent failure. The durable store is lost too and the
  node never returns.
"""

from __future__ import annotations

import enum
import random
from abc import ABC, abstractmethod
from typing import Any, Callable, ClassVar, Dict, Optional, Sequence, Union

from repro.common.errors import NodeDownError
from repro.common.ids import NodeId
from repro.common.messages import Message
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.metrics import Metrics
from repro.sim.network import Network
from repro.sim.simulator import EventHandle, Simulation

#: A timer period: fixed seconds, or a function read at every firing.
Interval = Union[float, Callable[[], float]]


class Host(ABC):
    """Everything a protocol may do to the outside world."""

    @property
    @abstractmethod
    def node_id(self) -> NodeId:
        """Identity of the node hosting the protocol."""

    @property
    @abstractmethod
    def now(self) -> float:
        """Current (virtual or wall-clock) time in seconds."""

    @property
    @abstractmethod
    def rng(self) -> random.Random:
        """This node's private random stream."""

    @property
    @abstractmethod
    def metrics(self) -> Metrics:
        """Shared metrics registry."""

    @property
    @abstractmethod
    def durable(self) -> Dict[str, Any]:
        """Per-node storage that survives transient crashes (the 'disk')."""

    @abstractmethod
    def send(self, dst: NodeId, protocol: str, message: Message) -> None:
        """Send a message to ``protocol`` on node ``dst`` (best effort)."""

    @abstractmethod
    def set_timer(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` after ``delay`` seconds unless the node crashes."""

    @abstractmethod
    def protocol(self, name: str) -> "Protocol":
        """Look up a sibling protocol on the same node by name."""

    @property
    def tracer(self) -> Tracer:
        """The causal tracer observing this node (a disabled no-op one
        unless the host was configured with tracing; protocols can call
        it unconditionally)."""
        return NULL_TRACER


class Protocol:
    """Base class for sans-io protocols.

    Subclasses set the class attribute ``name`` (unique per stack) and
    override the ``on_*`` hooks. Helper methods :meth:`send` and
    :meth:`every` cover the two most common interactions.
    """

    name: ClassVar[str] = "protocol"

    def __init__(self) -> None:
        self.host: Optional[Host] = None

    # -- lifecycle -----------------------------------------------------
    def bind(self, host: Host) -> None:
        self.host = host

    def on_start(self) -> None:
        """Called once when the node (re)boots with this protocol."""

    def on_stop(self) -> None:
        """Called on *graceful* shutdown only — never on a crash."""

    def on_message(self, sender: NodeId, message: Message) -> None:
        """Called for each message addressed to this protocol."""

    # -- helpers -------------------------------------------------------
    def send(self, dst: NodeId, message: Message) -> None:
        """Send ``message`` to this same protocol on ``dst``."""
        assert self.host is not None, "protocol used before bind()"
        self.host.send(dst, self.name, message)

    def every(
        self,
        interval: Interval,
        callback: Callable[[], None],
        jitter: float = 0.1,
        initial_delay: Optional[float] = None,
    ) -> "PeriodicTimer":
        """Run ``callback`` periodically with relative jitter.

        Jitter desynchronises gossip rounds across nodes (synchronized
        rounds are an artifact no real deployment has). The first firing
        happens after ``initial_delay`` if given, else after one jittered
        interval. ``interval`` may be a function, read again at every
        firing, for a period that follows a measured quantity.
        """
        assert self.host is not None, "protocol used before bind()"
        return PeriodicTimer(self.host, interval, callback, jitter, initial_delay)


class PeriodicTimer:
    """Self-rescheduling timer tied to a host; dies with the node."""

    def __init__(
        self,
        host: Host,
        interval: Interval,
        callback: Callable[[], None],
        jitter: float,
        initial_delay: Optional[float],
    ):
        if not callable(interval) and interval <= 0:
            raise ValueError("interval must be positive")
        if not 0 <= jitter < 1:
            raise ValueError("jitter must be in [0, 1)")
        self._host = host
        self._interval = interval
        self._callback = callback
        self._jitter = jitter
        self._stopped = False
        first = initial_delay if initial_delay is not None else self._next_delay()
        self._handle = host.set_timer(first, self._fire)

    def _next_delay(self) -> float:
        interval = self._interval
        if callable(interval):
            interval = interval()
        if self._jitter == 0:
            return interval
        spread = interval * self._jitter
        return interval + self._host.rng.uniform(-spread, spread)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._handle = self._host.set_timer(self._next_delay(), self._fire)
        self._callback()

    def stop(self) -> None:
        self._stopped = True
        self._handle.cancel()


class NodeState(enum.Enum):
    UP = "up"
    DOWN = "down"
    DEAD = "dead"


#: Builds a fresh protocol stack for a (re)booting node.
StackFactory = Callable[["Node"], Sequence[Protocol]]


class Node(Host):
    """A simulated process hosting a stack of protocols.

    The protocol stack is *rebuilt from scratch* on every boot — that is
    what makes a crash lose soft state. Only :attr:`durable` persists
    across DOWN periods (and nothing persists across DEAD).
    """

    def __init__(
        self,
        node_id: NodeId,
        sim: Simulation,
        network: Network,
        stack_factory: StackFactory,
    ):
        self._node_id = node_id
        self.sim = sim
        self.network = network
        self.stack_factory = stack_factory
        self.state = NodeState.DOWN
        self._durable: Dict[str, Any] = {}
        self._protocols: Dict[str, Protocol] = {}
        self._epoch = 0
        self._rng = sim.rng(f"node:{node_id.value}")
        self.boot_count = 0
        network.register(self)

    # -- Host interface --------------------------------------------------
    @property
    def node_id(self) -> NodeId:
        return self._node_id

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def rng(self) -> random.Random:
        return self._rng

    @property
    def metrics(self) -> Metrics:
        return self.network.metrics

    @property
    def durable(self) -> Dict[str, Any]:
        return self._durable

    @property
    def tracer(self) -> Tracer:
        return self.network.tracer

    def send(self, dst: NodeId, protocol: str, message: Message) -> None:
        if self.state is not NodeState.UP:
            return  # a crashed node cannot transmit
        self.network.send(self._node_id, dst, protocol, message)

    def set_timer(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        epoch = self._epoch

        def fire() -> None:
            if self._epoch == epoch and self.state is NodeState.UP:
                callback()

        return self.sim.schedule(delay, fire)

    def protocol(self, name: str) -> Protocol:
        try:
            return self._protocols[name]
        except KeyError:
            raise KeyError(f"node {self._node_id} has no protocol {name!r}") from None

    # -- lifecycle -------------------------------------------------------
    @property
    def is_up(self) -> bool:
        return self.state is NodeState.UP

    def boot(self) -> None:
        """Start (or restart) the node with a fresh protocol stack."""
        if self.state is NodeState.DEAD:
            raise NodeDownError(f"{self._node_id} failed permanently; cannot boot")
        if self.state is NodeState.UP:
            raise NodeDownError(f"{self._node_id} is already up")
        self._epoch += 1
        self.state = NodeState.UP
        self.boot_count += 1
        self._protocols = {}
        for proto in self.stack_factory(self):
            if proto.name in self._protocols:
                raise ValueError(f"duplicate protocol name {proto.name!r} on {self._node_id}")
            proto.bind(self)
            self._protocols[proto.name] = proto
        # Start only after the whole stack is bound, so on_start hooks can
        # resolve sibling protocols.
        for proto in self._protocols.values():
            proto.on_start()

    def crash(self, permanent: bool = False) -> None:
        """Fail abruptly: timers die, soft state is lost, no on_stop."""
        if self.state is not NodeState.UP:
            if permanent and self.state is not NodeState.DEAD:
                self._become_dead()
            return
        self._epoch += 1
        self._protocols = {}
        if permanent:
            self._become_dead()
        else:
            self.state = NodeState.DOWN

    def shutdown(self) -> None:
        """Stop gracefully (protocols get on_stop), keeping durable state."""
        if self.state is not NodeState.UP:
            return
        for proto in self._protocols.values():
            proto.on_stop()
        self._epoch += 1
        self._protocols = {}
        self.state = NodeState.DOWN

    def _become_dead(self) -> None:
        self.state = NodeState.DEAD
        self._durable = {}

    # -- message entry point ----------------------------------------------
    def handle_message(self, sender: NodeId, protocol: str, message: Message) -> None:
        if self.state is not NodeState.UP:
            return
        proto = self._protocols.get(protocol)
        if proto is None:
            self.metrics.counter("node.dropped.no_protocol").inc()
            return
        proto.on_message(sender, message)
