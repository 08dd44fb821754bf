"""Asyncio/UDP runtime for the sans-io protocols.

The same :class:`~repro.sim.node.Protocol` objects that run in the
simulator run here over real UDP sockets — the Host contract (send,
timers, clock, RNG, durable dict) is implemented with asyncio
primitives instead of the virtual event loop. Loss, reordering and
crash-recovery semantics carry over naturally: UDP *is* the lossy
unordered network the protocols were written against.

Addressing: a node's :class:`NodeId` value is its UDP port; the label
carries ``host:port``. The default address book resolves ids to
``127.0.0.1:<value>`` (localhost clusters); pass a custom resolver for
multi-host deployments.

Wire path: one binary format (:mod:`repro.common.codec`); a datagram in
any other is counted in ``runtime.decode_errors`` and dropped.
``send()`` does not transmit immediately: envelopes are coalesced per
destination and flushed on the next event loop tick or when the buffer
would exceed the MTU budget, packing many protocol messages into one
datagram. Single messages larger than
``max_datagram`` are split into fragment frames and reassembled on the
receive side instead of being rejected by the OS. A payload struct is
serialised once however many peers it is relayed to and decoded once per
node however many copies arrive (:class:`~repro.common.codec.DecodeMemo`).

The node owns its socket: datagrams are read into one reused buffer from
an ``add_reader`` callback (asyncio's datagram transport allocates
256 KiB per datagram, which glibc maps and unmaps every time), and a
send the socket would block on waits for it to turn writable, as it
would in asyncio's transport. That needs an event loop with
``add_reader`` (every selector loop; not Windows' proactor loop).
"""

from __future__ import annotations

import asyncio
import collections
import mmap
import random
import socket
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.common.codec import (
    FORMAT_FRAGMENT,
    CodecError,
    DecodeMemo,
    decode_datagram_detailed,
    fragment_payload,
    make_codec,
    parse_fragment,
)
from repro.common.ids import NodeId
from repro.common.messages import Message
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.metrics import Counter, Metrics
from repro.sim.node import Host, Protocol

#: Resolves a NodeId to a UDP address.
AddressBook = Callable[[NodeId], Tuple[str, int]]

#: Conservative per-envelope framing budget used when filling an MTU:
#: the varint length prefix.
_PER_ENVELOPE_OVERHEAD = 3

#: Cap on concurrently reassembling fragmented messages per node; above
#: it the oldest partial reassembly is evicted (it behaves like loss,
#: which the protocols tolerate by design).
_MAX_REASSEMBLIES = 64

#: Receive buffer size: no UDP datagram is larger, so none is truncated.
_RECV_BUFFER_BYTES = 65536


def localhost_address_book(node_id: NodeId) -> Tuple[str, int]:
    return ("127.0.0.1", node_id.value)


def node_id_for(host: str, port: int) -> NodeId:
    return NodeId(port, f"{host}:{port}")


class _TimerHandle:
    """Duck-typed EventHandle over asyncio's TimerHandle."""

    __slots__ = ("_handle", "_cancelled")

    def __init__(self, handle: asyncio.TimerHandle):
        self._handle = handle
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        self._cancelled = True
        self._handle.cancel()


class AsyncioNode(Host):
    """One real process-like node: UDP endpoint + protocol stack.

    Args:
        coalesce: batch same-destination envelopes into one datagram,
            flushed on the next loop tick or at the MTU budget.
        mtu: coalescing budget in bytes; a buffer never grows past it.
        max_datagram: largest datagram handed to the socket; larger
            single frames are split into fragments and reassembled.
        tracer: causal tracer for this node. Outgoing sends made while a
            context is active carry a child span on the envelope;
            incoming traced envelopes re-activate their context
            around the handler. Timestamps are ``loop.time()`` seconds.
    """

    def __init__(
        self,
        port: int,
        stack_factory: Callable[["AsyncioNode"], Sequence[Protocol]],
        address_book: Optional[AddressBook] = None,
        seed: int = 0,
        metrics: Optional[Metrics] = None,
        bind_host: str = "127.0.0.1",
        coalesce: bool = True,
        mtu: int = 1400,
        max_datagram: int = 60000,
        tracer: Optional[Tracer] = None,
    ):
        if mtu <= 0 or max_datagram < mtu:
            raise ValueError("need 0 < mtu <= max_datagram")
        self._node_id = node_id_for(bind_host, port)
        self.bind_host = bind_host
        self.port = port
        self.stack_factory = stack_factory
        self.address_book = address_book if address_book is not None else localhost_address_book
        self._metrics = metrics if metrics is not None else Metrics()
        self._rng = random.Random(f"{seed}/{port}")
        self._durable: Dict[str, Any] = {}
        self._codec = make_codec()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self.coalesce = coalesce
        self.mtu = mtu
        self.max_datagram = max_datagram
        self._protocols: Dict[str, Protocol] = {}
        self._sock: Optional[socket.socket] = None
        # An anonymous mapping, not a bytearray: only the pages a datagram
        # reaches are ever resident (a zero-filled heap buffer is all of it).
        self._recv_buffer = mmap.mmap(-1, _RECV_BUFFER_BYTES)
        #: datagrams the socket would have blocked on, oldest first
        self._send_queue: Deque[Tuple[bytes, Tuple[str, int]]] = collections.deque()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._epoch = 0
        self.running = False
        # -- send-side coalescing state: destinations with pending envelopes --
        self._buffers: Dict[Tuple[str, int], List[bytes]] = {}
        self._buffered_bytes: Dict[Tuple[str, int], int] = {}
        self._flush_scheduled = False
        self._next_frag_id = 0
        # -- receive-side reassembly: (addr, frag_id) -> [total, {index: chunk}]
        self._reassembly: Dict[Tuple[Tuple[str, int], int], List[Any]] = {}
        # -- interned metric handles (mirrors sim.Network's counter set) --
        m = self._metrics
        self._sent_total, self._bytes_total = m.counter_pair("net.sent.total", "net.bytes.total")
        self._delivered_total = m.counter("net.delivered.total")
        self._delivered_bytes = m.counter("net.delivered.bytes.total")
        self._datagrams_sent = m.counter("net.datagrams.total")
        self._datagrams_received = m.counter("net.datagrams.received")
        self._wire_bytes = m.counter("net.bytes.wire")
        self._coalesced = m.counter("runtime.coalesced_messages")
        self._encode_errors = m.counter("runtime.encode_errors")
        self._decode_errors = m.counter("runtime.decode_errors")
        self._fragments_sent = m.counter("runtime.fragments.sent")
        self._fragments_received = m.counter("runtime.fragments.received")
        self._fragments_evicted = m.counter("runtime.fragments.evicted")
        self._dropped_no_protocol = m.counter("node.dropped.no_protocol")
        self._decode_memo = DecodeMemo(
            hits=m.counter("runtime.payload_decode_hits"),
            misses=m.counter("runtime.payload_decode_misses"))
        self._proto_handles: Dict[str, Tuple[Counter, Counter]] = {}
        self._category_handles: Dict[Tuple[str, str], Tuple[Counter, Counter]] = {}
        self._delivered_handles: Dict[str, Counter] = {}

    # -- Host ------------------------------------------------------------
    @property
    def node_id(self) -> NodeId:
        return self._node_id

    @property
    def now(self) -> float:
        assert self._loop is not None, "node not started"
        return self._loop.time()

    @property
    def rng(self) -> random.Random:
        return self._rng

    @property
    def metrics(self) -> Metrics:
        return self._metrics

    @property
    def durable(self) -> Dict[str, Any]:
        return self._durable

    @property
    def tracer(self) -> Tracer:
        return self._tracer

    # -- metric handle interning (same counter names as sim.Network) ----
    def protocol_counters(self, protocol: str) -> Tuple[Counter, Counter]:
        """Interned ``(net.sent.<p>, net.bytes.<p>)`` handles."""
        handles = self._proto_handles.get(protocol)
        if handles is None:
            handles = self._metrics.counter_pair(f"net.sent.{protocol}", f"net.bytes.{protocol}")
            self._proto_handles[protocol] = handles
        return handles

    def category_counters(self, protocol: str, category: str) -> Tuple[Counter, Counter]:
        """Interned ``(net.sent.<p>.<c>, net.bytes.<p>.<c>)`` handles."""
        handles = self._category_handles.get((protocol, category))
        if handles is None:
            handles = self._metrics.counter_pair(
                f"net.sent.{protocol}.{category}", f"net.bytes.{protocol}.{category}")
            self._category_handles[(protocol, category)] = handles
        return handles

    def _delivered_bytes_counter(self, protocol: str) -> Counter:
        handle = self._delivered_handles.get(protocol)
        if handle is None:
            handle = self._metrics.counter(f"net.delivered.bytes.{protocol}")
            self._delivered_handles[protocol] = handle
        return handle

    # -- sending ---------------------------------------------------------
    def send(self, dst: NodeId, protocol: str, message: Message) -> None:
        if not self.running or self._sock is None:
            return
        tracer = self._tracer
        if tracer.current is not None:
            trace = tracer.send_context(
                self._node_id.value, dst.value, protocol, type(message).__name__, self.now)
        else:
            trace = None
        try:
            envelope = self._codec.encode_envelope(self._node_id, protocol, message, trace)
        except CodecError:
            self._encode_errors.inc()
            return
        size = len(envelope)
        # Charge the *actual* encoded bytes, with the same counter set as
        # the simulated network: totals, per-protocol, per-category.
        handles = self._proto_handles.get(protocol)
        if handles is None:
            handles = self.protocol_counters(protocol)
        self._sent_total.inc()
        self._bytes_total.inc(size)
        handles[0].inc()
        handles[1].inc(size)
        category = message.wire_category
        if category is not None:
            cat = self._category_handles.get((protocol, category))
            if cat is None:
                cat = self.category_counters(protocol, category)
            cat[0].inc()
            cat[1].inc(size)

        addr = self.address_book(dst)
        if not self.coalesce:
            self._transmit([envelope], addr)
            return
        budget = size + _PER_ENVELOPE_OVERHEAD
        if self._buffered_bytes.get(addr, 0) + budget > self.mtu:
            self._flush_destination(addr)
        if budget >= self.mtu:
            # Oversized for batching: ship alone (fragmenting if needed).
            self._transmit([envelope], addr)
            return
        pending = self._buffers.get(addr)
        if pending is None:
            self._buffers[addr] = [envelope]
            self._buffered_bytes[addr] = budget
        else:
            pending.append(envelope)
            self._buffered_bytes[addr] += budget
        if not self._flush_scheduled:
            self._flush_scheduled = True
            assert self._loop is not None
            self._loop.call_soon(self._flush_all)

    def _flush_all(self) -> None:
        self._flush_scheduled = False
        for addr in list(self._buffers):
            self._flush_destination(addr)

    def _flush_destination(self, addr: Tuple[str, int]) -> None:
        pending = self._buffers.pop(addr, None)
        if pending is None:
            return
        del self._buffered_bytes[addr]
        if len(pending) > 1:
            self._coalesced.inc(len(pending) - 1)
        self._transmit(pending, addr)

    def _transmit(self, envelopes: List[bytes], addr: Tuple[str, int]) -> None:
        if self._sock is None:
            return
        datagram = self._codec.frame(envelopes)
        if len(datagram) > self.max_datagram:
            self._next_frag_id += 1
            fragments = fragment_payload(datagram, self._next_frag_id, self.max_datagram)
            for fragment in fragments:
                self._sendto(fragment, addr)
            self._fragments_sent.inc(len(fragments))
            return
        self._sendto(datagram, addr)

    def _sendto(self, datagram: bytes, addr: Tuple[str, int]) -> None:
        self._datagrams_sent.inc()
        self._wire_bytes.inc(len(datagram))
        if self._send_queue:  # keep order behind datagrams already waiting
            self._send_queue.append((datagram, addr))
            return
        try:
            self._sock.sendto(datagram, addr)  # type: ignore[union-attr]
        except (BlockingIOError, InterruptedError):
            self._send_queue.append((datagram, addr))
            assert self._loop is not None
            self._loop.add_writer(self._sock.fileno(), self._on_writable)  # type: ignore[union-attr]
        except OSError as exc:
            self.error_received(exc)

    def _on_writable(self) -> None:
        sock, queue = self._sock, self._send_queue
        assert sock is not None and self._loop is not None
        while queue:
            datagram, addr = queue[0]
            try:
                sock.sendto(datagram, addr)
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:
                self.error_received(exc)
            queue.popleft()
        self._loop.remove_writer(sock.fileno())

    def flush(self) -> None:
        """Force out all coalescing buffers now (also runs on shutdown)."""
        self._flush_all()

    def set_timer(self, delay: float, callback: Callable[[], None]) -> _TimerHandle:
        assert self._loop is not None, "node not started"
        epoch = self._epoch

        def fire() -> None:
            if self.running and self._epoch == epoch:
                callback()

        return _TimerHandle(self._loop.call_later(delay, fire))

    def protocol(self, name: str) -> Protocol:
        try:
            return self._protocols[name]
        except KeyError:
            raise KeyError(f"{self._node_id} has no protocol {name!r}") from None

    def has_protocol(self, name: str) -> bool:
        return name in self._protocols

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "AsyncioNode":
        if self.running:
            return self
        loop = self._loop = asyncio.get_running_loop()
        try:  # a numeric bind host resolves without a lookup that could block
            infos = socket.getaddrinfo(self.bind_host, self.port, type=socket.SOCK_DGRAM,
                                       flags=socket.AI_PASSIVE | socket.AI_NUMERICHOST)
        except socket.gaierror:
            infos = await loop.getaddrinfo(self.bind_host, self.port, type=socket.SOCK_DGRAM,
                                           flags=socket.AI_PASSIVE)
        family, kind, proto, _, address = infos[0]
        sock = socket.socket(family, kind, proto)
        try:
            sock.setblocking(False)
            sock.bind(address)
        except OSError:
            sock.close()
            raise
        self._sock = sock
        loop.add_reader(sock.fileno(), self._on_readable)
        self._epoch += 1
        self.running = True
        self._protocols = {}
        for proto in self.stack_factory(self):
            if proto.name in self._protocols:
                raise ValueError(f"duplicate protocol name {proto.name!r}")
            proto.bind(self)
            self._protocols[proto.name] = proto
        for proto in self._protocols.values():
            proto.on_start()
        return self

    def crash(self) -> None:
        """Abrupt stop (no on_stop): soft state dies, durable survives."""
        self.running = False
        self._epoch += 1
        self._protocols = {}
        self._buffers = {}
        self._buffered_bytes = {}
        self._reassembly = {}
        self._send_queue.clear()
        sock, self._sock = self._sock, None
        if sock is not None:
            assert self._loop is not None
            self._loop.remove_reader(sock.fileno())
            self._loop.remove_writer(sock.fileno())
            sock.close()

    def stop(self) -> None:
        """Graceful shutdown."""
        if not self.running:
            return
        for proto in self._protocols.values():
            proto.on_stop()
        # Farewell messages from on_stop hooks should reach the wire.
        self._flush_all()
        self.crash()

    # -- receiving ---------------------------------------------------------
    def _on_readable(self) -> None:
        """One datagram per readiness event, like asyncio's transport, so
        co-hosted nodes take turns."""
        buffer = self._recv_buffer
        try:
            size, addr = self._sock.recvfrom_into(buffer)  # type: ignore[union-attr]
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self.error_received(exc)
            return
        self.datagram_received(buffer[:size], addr)

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        """Per-datagram entry point: reassemble, decode, dispatch."""
        if not self.running:
            return
        self._datagrams_received.inc()
        if data and data[0] == FORMAT_FRAGMENT:
            reassembled = self._reassemble(data, addr)
            if reassembled is None:
                return
            data = reassembled
        try:
            envelopes = decode_datagram_detailed(data, self._decode_memo)
        except CodecError:
            self._decode_errors.inc()
            return
        tracer = self._tracer
        for envelope, size in envelopes:
            self._delivered_total.inc()
            self._delivered_bytes.inc(size)
            self._delivered_bytes_counter(envelope.protocol).inc(size)
            proto = self._protocols.get(envelope.protocol)
            if proto is None:
                self._dropped_no_protocol.inc()
                continue
            ctx = envelope.trace
            if ctx is not None and tracer.enabled:
                tracer.recv(self._node_id.value, ctx, self.now, envelope.protocol)
                with tracer.activate(ctx):
                    proto.on_message(envelope.sender, envelope.message)
            else:
                proto.on_message(envelope.sender, envelope.message)
            if not self.running:
                # A handler stopped/crashed the node; drop the rest of
                # the datagram like any other post-crash arrival.
                return

    def _reassemble(self, data: bytes, addr: Tuple[str, int]) -> Optional[bytes]:
        try:
            frag_id, index, total, chunk = parse_fragment(data)
        except CodecError:
            self._decode_errors.inc()
            return None
        self._fragments_received.inc()
        key = (addr, frag_id)
        entry = self._reassembly.get(key)
        if entry is None:
            if len(self._reassembly) >= _MAX_REASSEMBLIES:
                self._reassembly.pop(next(iter(self._reassembly)))
                self._fragments_evicted.inc()
            entry = self._reassembly[key] = [total, {}]
        if entry[0] != total:
            # Conflicting totals for the same id: treat as corruption.
            del self._reassembly[key]
            self._decode_errors.inc()
            return None
        entry[1][index] = chunk
        if len(entry[1]) < total:
            return None
        del self._reassembly[key]
        return b"".join(entry[1][i] for i in range(total))

    def error_received(self, exc: Exception) -> None:  # pragma: no cover
        self._metrics.counter("runtime.socket_errors").inc()


class LocalCluster:
    """N AsyncioNodes on consecutive localhost ports, one event loop."""

    def __init__(
        self,
        count: int,
        stack_factory: Callable[[AsyncioNode], Sequence[Protocol]],
        base_port: int = 29000,
        seed: int = 0,
        coalesce: bool = True,
        mtu: int = 1400,
        max_datagram: int = 60000,
        tracer: Optional[Tracer] = None,
    ):
        if count <= 0:
            raise ValueError("count must be positive")
        self.metrics = Metrics()
        # One shared tracer is safe here: all nodes run on one event loop
        # thread, and handlers never yield while a context is active.
        self.tracer = tracer
        self.nodes: List[AsyncioNode] = [
            AsyncioNode(
                base_port + i, stack_factory, seed=seed, metrics=self.metrics,
                coalesce=coalesce, mtu=mtu, max_datagram=max_datagram, tracer=tracer,
            )
            for i in range(count)
        ]

    async def start(self, seed_views: int = 4) -> "LocalCluster":
        for node in self.nodes:
            await node.start()
        if seed_views > 0:
            ids = [n.node_id for n in self.nodes]
            rng = random.Random(1)
            for node in self.nodes:
                peers = [p for p in ids if p != node.node_id]
                sample = rng.sample(peers, min(seed_views, len(peers)))
                if node.has_protocol("membership"):
                    node.protocol("membership").seed(sample)  # type: ignore[attr-defined]
        return self

    async def run_for(self, seconds: float) -> None:
        await asyncio.sleep(seconds)

    def stop(self) -> None:
        for node in self.nodes:
            node.stop()
