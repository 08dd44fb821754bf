"""One repetition of ``udp_mixed``: the same stacks on loopback UDP sockets.

Storage, soft-state and client nodes are ``AsyncioNode`` endpoints on
one event loop, assembled the way ``examples/asyncio_datadroplets.py``
does (storage stacks from ``make_storage_stack``, coordinators on one
static ring). Closed-loop clients await each reply through
``ClientProtocol.on_reply`` -> ``asyncio.Future``.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from measure import counter_delta
from shims import SpanRecorder
from simhost import copies_per_key
from spec import RUN_SECONDS, TRACE_SAMPLE_EVERY, Workload
from workloads import (Op, Oracle, Record, audit_batches, build_config, keep_known, make_ops,
                       preload_items)

#: Node ids are ports and feed the sieves' hash positions, so the block
#: starts at a fixed port whenever that block is free.
BASE_PORT = 31200
SETTLE_S = 0.4
PRELOAD_WAVE = 20


def free_port_block(count: int, start: int = BASE_PORT, tries: int = 200) -> int:
    """First base port at or after ``start`` with ``count`` bindable UDP ports."""
    for base in range(start, start + tries * count, count):
        held = []
        try:
            for port in range(base, base + count):
                sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                held.append(sock)
                sock.bind(("127.0.0.1", port))
            return base
        except OSError:
            continue
        finally:
            for sock in held:
                sock.close()
    raise RuntimeError(f"no block of {count} free UDP ports from {start}")


class _Client:
    """Closed-loop request/reply over one client ``AsyncioNode``."""

    def __init__(self, node: Any, ring: Any, timeout: float):
        self.node, self.ring, self.timeout = node, ring, timeout
        self._waiting: Dict[str, asyncio.Future] = {}
        self._ids = itertools.count()
        self._protocol = node.protocol("client")
        self._protocol.on_reply = self._on_reply

    def _on_reply(self, reply: Any) -> None:
        self._protocol.replies.pop(reply.request_id, None)
        future = self._waiting.pop(reply.request_id, None)
        if future is not None and not future.done():
            future.set_result(reply)

    async def call(self, build: Callable[[str], Any], routing_key: str) -> Any:
        """Send ``build(request_id)`` to the key's coordinator; the reply's
        value, or raise ``TimeoutError`` / ``RuntimeError`` (reply not ok)."""
        request_id = f"b{next(self._ids)}"
        loop = asyncio.get_running_loop()
        future = self._waiting[request_id] = loop.create_future()

        def expire() -> None:
            if not future.done():
                future.set_exception(TimeoutError(f"no reply to {request_id}"))

        timer = loop.call_later(self.timeout, expire)
        try:
            self.node.send(self.ring.coordinator_for(routing_key), "soft", build(request_id))
            reply = await future
        finally:
            timer.cancel()
            self._waiting.pop(request_id, None)
        if not reply.ok:
            raise RuntimeError(reply.error or "operation failed")
        return reply.value


async def _apply(client: _Client, op: Op, oracle: Oracle) -> bool:
    from repro.softstate.messages import ClientGet, ClientPut

    kind, key = op[0], op[1]
    try:
        if kind == "put":
            await client.call(lambda rid: ClientPut(rid, key, dict(op[2])), key)
            oracle.ack(key, op[2])
            return True
        return oracle.read_ok(key, await client.call(lambda rid: ClientGet(rid, key), key))
    except (TimeoutError, RuntimeError):
        if kind == "put":
            oracle.unsure(key, op[2])
        return False


async def _audit(client: _Client, oracle: Oracle) -> int:
    """Keys whose last acked value cannot be read back. Batched reads of
    one coordinator's keys first; a key a batch misses is read again on its
    own, because only the single-key path falls back to an epidemic read."""
    from repro.softstate.messages import ClientGet, ClientMultiGet

    lost = 0
    for batch in audit_batches(client.ring, oracle.acked, 20):
        try:
            got = await client.call(lambda rid: ClientMultiGet(rid, batch), batch[0])
        except (TimeoutError, RuntimeError):
            got = {}
        for key in batch:
            if oracle.read_ok(key, got.get(key)):
                continue
            try:
                lost += not oracle.read_ok(key, await client.call(lambda rid: ClientGet(rid, key), key))
            except (TimeoutError, RuntimeError):
                lost += 1
    return lost


def _traced_stack(factory: Callable, recorder: Optional[SpanRecorder]) -> Callable:
    """``factory`` with every protocol's ``on_message`` inside a handler span."""
    if recorder is None:
        return factory

    def traced(node: Any) -> Sequence[Any]:
        stack = list(factory(node))
        for protocol in stack:
            protocol.on_message = recorder.wrap(protocol.on_message, f"handler.{protocol.name}")
        return stack

    return traced


async def _run(workload: Workload, seed: int, seconds: float, smoke: bool,
               recorder: Optional[SpanRecorder]) -> Dict[str, Any]:
    from repro.core.datadroplets import ClientProtocol
    from repro.core.storage import make_storage_stack
    from repro.runtime.host import AsyncioNode
    from repro.sim.metrics import Metrics
    from repro.softstate.coordinator import SoftStateProtocol
    from repro.softstate.ring import ConsistentHashRing

    shape = workload.udp
    scale = seconds / RUN_SECONDS
    started = time.perf_counter()
    config, dropped = build_config(workload)
    n_storage, n_soft = config.n_storage, config.n_soft
    base = free_port_block(n_storage + n_soft + 1)
    metrics = Metrics()
    node_args = keep_known(AsyncioNode, {"seed": seed, "metrics": metrics, "codec": "binary",
                                         "coalesce": True}, dropped)

    def node(port: int, factory: Callable) -> Any:
        return AsyncioNode(port, _traced_stack(factory, recorder), **node_args)

    storage = [node(base + i, make_storage_stack(config)) for i in range(n_storage)]
    storage_ids = [n.node_id for n in storage]
    ring = ConsistentHashRing(config.virtual_nodes)
    soft = [node(base + n_storage + i,
                 lambda _n: [SoftStateProtocol(ring, lambda: list(storage_ids), config.soft)])
            for i in range(n_soft)]
    client_node = node(base + n_storage + n_soft, lambda _n: [ClientProtocol()])
    nodes = storage + soft + [client_node]
    try:
        for member in nodes:
            await member.start()
        for member in soft:
            ring.add(member.node_id)
        for index, member in enumerate(storage):  # bootstrap views: ring neighbours
            peers = [storage_ids[(index + d) % n_storage] for d in (1, 2, 3, n_storage // 2)]
            member.protocol("membership").seed([p for p in peers if p != member.node_id])
        await asyncio.sleep(shape["warmup_s"])
        client = _Client(client_node, ring, shape["op_timeout_s"])
        oracle = Oracle()
        items = preload_items(workload, seed, smoke)

        async def write(key: str, record: Record) -> None:
            if not await _apply(client, ("put", key, record), oracle):
                raise RuntimeError(f"preload put of {key} failed")

        for start in range(0, len(items), PRELOAD_WAVE):
            await asyncio.gather(*(write(k, r) for k, r in items[start:start + PRELOAD_WAVE]))
        await asyncio.sleep(SETTLE_S)
        setup_s = time.perf_counter() - started

        keys = [k for k, _ in items]
        # The window is clock-driven here (nothing on this host is exact):
        # the 2 s census / repair / audit rounds of all nodes fire together
        # and client throughput swings between 200 and 380 ops/s within a
        # round, so the window is a whole number of rounds and ``ops`` is
        # only an upper bound on what fits.
        window_s = shape["window_s"] * scale
        ops = make_ops(workload, seed, max(1, round(workload.ops * scale)), keys)
        clients = shape["clients"]
        share = {k: i * clients // len(keys) for i, k in enumerate(keys)}  # disjoint key ranges
        lat_ms: Dict[str, List[float]] = {}
        attempted = failed = 0
        sampled_by: List[Optional[int]] = [None]

        async def drive(mine: Sequence[Tuple[int, Op]]) -> None:
            nonlocal attempted, failed
            for index, op in mine:
                if time.perf_counter() >= deadline:
                    break
                attempted += 1
                if recorder is not None and index % TRACE_SAMPLE_EVERY == 0 and sampled_by[0] is None:
                    sampled_by[0] = index
                    recorder.sample_op(index)
                issued = time.perf_counter()
                ok = await _apply(client, op, oracle)
                if ok:
                    lat_ms.setdefault(op[0], []).append((time.perf_counter() - issued) * 1e3)
                else:
                    failed += 1
                if sampled_by[0] == index:
                    sampled_by[0] = None
                    recorder.sample_op(None)

        before = {name: c.value for name, c in metrics.counters.items()}
        if recorder is not None:
            recorder.reset()
        cpu0, host0 = time.process_time(), time.perf_counter()
        deadline = host0 + window_s
        await asyncio.gather(*(drive([(i, op) for i, op in enumerate(ops) if share[op[1]] == c])
                               for c in range(clients)))
        host_s, cpu_s = time.perf_counter() - host0, time.process_time() - cpu0
        counters = counter_delta(before, {name: c.value for name, c in metrics.counters.items()})
        spans = {k: tuple(v) for k, v in recorder.acc.items()} if recorder is not None else None

        await asyncio.sleep(SETTLE_S)
        lost = await _audit(client, oracle)
        return {
            "setup_s": setup_s, "host_s": host_s, "clock_s": host_s, "events": 0, "cpu_s": cpu_s,
            "attempted": attempted, "failed": failed, "lat_ms": lat_ms, "counters": counters,
            "copies": copies_per_key(storage, sorted(oracle.acked)), "lost": lost,
            "scan_expected": 0, "scan_returned": 0, "config_dropped_keys": dropped,
            "sizes": {"preload": len(items), "ops": attempted, "window_s": window_s,
                      "n_storage": n_storage,
                      "n_soft": n_soft, "clients": clients, "base_port": base},
            "spans": spans,
        }
    finally:
        for member in nodes:
            member.stop()


def run_rep(workload: Workload, seed: int, seconds: float, smoke: bool,
            recorder: Optional[SpanRecorder] = None) -> Dict[str, Any]:
    return asyncio.run(_run(workload, seed, seconds, smoke, recorder))
