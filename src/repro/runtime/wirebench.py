"""Wire-cost cells for experiment E16 (codec + coalescing).

One *cell* boots a real asyncio/UDP :class:`LocalCluster` whose nodes
run a recorder protocol with no timers, then replays a deterministic
gossip round: the first node sends every one of ``n_items`` payload
messages to ``fanout`` seeded-random peers in one burst (which is
exactly the shape a gossip relay produces — many sends, few
destinations, one event-loop tick). Because the send schedule is fully
deterministic and localhost UDP is effectively loss-free at these
volumes, the delivered message multiset must be identical with and
without coalescing — that is the behavioural gate — while bytes and
datagram counts differ, which is the measured cost.

The baseline the binary wire is held against, tagged JSON with one
datagram per send, is no longer a format a node speaks, and never
needed a socket to be priced: :func:`json_wire_cost` runs the same send
schedule through :class:`repro.baselines.jsonwire.Codec` and
counts bytes (``len`` of each envelope) and datagrams (one per send).

Shared by ``benchmarks/bench_e16_wire_cost.py`` and ``repro bench e16``
(:func:`run` / :func:`render`).
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Dict, Iterator, List, Tuple

from repro.baselines import jsonwire
from repro.common.codec import BinaryCodec
from repro.common.ids import NodeId
from repro.epidemic.eager import GossipMessage
from repro.runtime.host import LocalCluster, node_id_for
from repro.sim.node import Protocol


class _Recorder(Protocol):
    """Sink protocol: records every delivery, never sends or schedules."""

    name = "bench"

    def __init__(self) -> None:
        super().__init__()
        self.received: List[Tuple[int, str, int]] = []

    def on_message(self, sender: NodeId, message: GossipMessage) -> None:
        self.received.append((sender.value, message.item_id, message.hops))


def _bench_message(index: int, payload_pad: int) -> GossipMessage:
    return GossipMessage(
        item_id=f"item:{index:05d}",
        payload={"pad": "x" * payload_pad, "seq": index, "weight": index / 7.0},
        hops=1,
    )


def _send_schedule(n_nodes: int, n_items: int, fanout: int, payload_pad: int,
                   seed: int) -> Iterator[Tuple[int, GossipMessage]]:
    """The round's sends in order, as ``(destination index, message)``;
    node 0 is the source."""
    if not 1 <= fanout < n_nodes:
        raise ValueError("need 1 <= fanout < n_nodes")
    rng = random.Random(seed)
    peers = range(1, n_nodes)
    for index in range(n_items):
        message = _bench_message(index, payload_pad)
        for dst in rng.sample(peers, fanout):
            yield dst, message


def json_wire_cost(
    n_nodes: int = 12,
    n_items: int = 60,
    fanout: int = 8,
    payload_pad: int = 32,
    base_port: int = 32000,
    seed: int = 7,
) -> Dict[str, Any]:
    """The E16 baseline cell (JSON, one datagram per send), computed from
    the send schedule; see module docstring. Same keys as
    :func:`measure_wire_cost` except the delivery ones."""
    codec = jsonwire.Codec()
    source = node_id_for("127.0.0.1", base_port)
    sent = payload_bytes = 0
    for _, message in _send_schedule(n_nodes, n_items, fanout, payload_pad, seed):
        sent += 1
        payload_bytes += len(codec.encode_envelope(source, "bench", message))
    return {
        "codec": "json",
        "coalesce": False,
        "sent_messages": sent,
        "payload_bytes": payload_bytes,
        "bytes_per_message": payload_bytes / sent if sent else 0.0,
        # One envelope is one frame is one datagram: no framing bytes.
        "wire_bytes": payload_bytes,
        "datagrams": sent,
        "coalesced_messages": 0,
    }


def measure_wire_cost(
    coalesce: bool = False,
    n_nodes: int = 12,
    n_items: int = 60,
    fanout: int = 8,
    payload_pad: int = 32,
    mtu: int = 1400,
    base_port: int = 32000,
    seed: int = 7,
    settle_s: float = 0.5,
) -> Dict[str, Any]:
    """Run one wire-cost cell; see module docstring.

    Returns per-message byte cost, datagram counts, coalescing stats and
    the sorted delivered multiset (``(receiver, sender, item_id, hops)``
    tuples) for cross-configuration behaviour comparison.
    """
    schedule = list(_send_schedule(n_nodes, n_items, fanout, payload_pad, seed))

    async def scenario() -> Dict[str, Any]:
        recorders: List[_Recorder] = []

        def stack(node):
            recorder = _Recorder()
            recorders.append(recorder)
            return [recorder]

        cluster = LocalCluster(
            n_nodes, stack, base_port=base_port, seed=seed,
            coalesce=coalesce, mtu=mtu,
        )
        await cluster.start(seed_views=0)
        source = cluster.nodes[0]
        wall_start = time.perf_counter()
        for dst, message in schedule:
            source.send(cluster.nodes[dst].node_id, "bench", message)
        await asyncio.sleep(settle_s)
        wall_s = time.perf_counter() - wall_start
        metrics = cluster.metrics
        # Normalize ports to node indexes so multisets compare across
        # cells running on different base ports.
        index_of = {node.port: i for i, node in enumerate(cluster.nodes)}
        delivered = sorted(
            (index_of[node.port], index_of.get(sender, sender), item_id, hops)
            for node, recorder in zip(cluster.nodes, recorders)
            for sender, item_id, hops in recorder.received
        )
        cluster.stop()
        sent = metrics.counter_value("net.sent.total")
        payload_bytes = metrics.counter_value("net.bytes.total")
        return {
            "codec": "binary",
            "coalesce": coalesce,
            "sent_messages": sent,
            "payload_bytes": payload_bytes,
            "bytes_per_message": payload_bytes / sent if sent else 0.0,
            "wire_bytes": metrics.counter_value("net.bytes.wire"),
            "datagrams": metrics.counter_value("net.datagrams.total"),
            "coalesced_messages": metrics.counter_value("runtime.coalesced_messages"),
            "delivered_messages": metrics.counter_value("net.delivered.total"),
            "delivered_bytes": metrics.counter_value("net.delivered.bytes.total"),
            "delivered": delivered,
            "wall_s": wall_s,
        }

    return asyncio.run(scenario())


def codec_throughput(
    instance: Any,
    n_messages: int = 2000,
    payload_pad: int = 64,
) -> Dict[str, Any]:
    """Encode/decode throughput microbench for one codec instance
    (:class:`~repro.common.codec.BinaryCodec` or the JSON baseline).

    Encodes ``n_messages`` distinct payload messages into standalone
    frames, then decodes them all; reports messages/second each way and
    the mean encoded frame size.
    """
    sender = NodeId(9001, "127.0.0.1:9001")
    messages = [_bench_message(i, payload_pad) for i in range(n_messages)]

    start = time.perf_counter()
    frames = [instance.encode(sender, "bench", m) for m in messages]
    encode_s = time.perf_counter() - start

    start = time.perf_counter()
    for frame in frames:
        instance.decode(frame)
    decode_s = time.perf_counter() - start

    total_bytes = sum(len(f) for f in frames)
    return {
        "encode_msgs_per_s": n_messages / encode_s if encode_s else float("inf"),
        "decode_msgs_per_s": n_messages / decode_s if decode_s else float("inf"),
        "bytes_per_frame": total_bytes / n_messages,
    }


def reductions(cells: List[Dict[str, Any]]) -> Dict[str, float]:
    """JSON-per-send over binary+coalescing: bytes/message and datagrams,
    over ``[json, binary, binary coalesced]`` cells."""
    baseline, _, optimised = cells
    return {
        "payload_reduction": (baseline["bytes_per_message"] / optimised["bytes_per_message"]
                              if optimised["bytes_per_message"] else float("inf")),
        "datagram_reduction": (baseline["datagrams"] / optimised["datagrams"]
                               if optimised["datagrams"] else float("inf")),
    }


def gates(cells: List[Dict[str, Any]]) -> Dict[str, bool]:
    """The e16 gates: >= 2x on both reductions, and coalescing delivers
    the message multiset the uncoalesced binary cell delivers."""
    measured = reductions(cells)
    _, uncoalesced, optimised = cells
    return {
        "payload_reduction_2x": measured["payload_reduction"] >= 2.0,
        "datagram_reduction_2x": measured["datagram_reduction"] >= 2.0,
        "delivery_identical": uncoalesced["delivered"] == optimised["delivered"],
    }


def run(*, items: int = 60, nodes: int = 12, fanout: int = 8, seed: int = 7) -> Dict[str, Any]:
    """Runtime wire cost: binary codec + coalescing vs JSON per send.

    One gossip round of ``items`` messages x ``fanout`` over ``nodes``
    UDP nodes. The JSON baseline is priced from the send schedule; the
    binary cells, uncoalesced and coalesced, run on loopback sockets.
    Also times each codec's encode/decode. Gates: >= 2x fewer payload
    bytes per message and >= 2x fewer datagrams than the baseline, with
    an identical delivered multiset with and without coalescing.
    """
    base_port = 32300
    cells = [json_wire_cost(n_nodes=nodes, n_items=items, fanout=fanout,
                            base_port=base_port, seed=seed)]
    for coalesce in (False, True):
        cells.append(measure_wire_cost(coalesce=coalesce, n_nodes=nodes, n_items=items,
                                       fanout=fanout, base_port=base_port, seed=seed))
        base_port += nodes + 10
    checks = gates(cells)
    return {
        "metrics": {
            "messages": items,
            "fanout": fanout,
            "nodes": nodes,
            **reductions(cells),
            "cells": cells,
        },
        "gates": checks,
        "passed": all(checks.values()),
        "throughput": {name: codec_throughput(codec) for name, codec in
                       (("json", jsonwire.Codec()), ("binary", BinaryCodec()))},
    }


def render(doc: Dict[str, Any]) -> str:
    metrics = doc["metrics"]
    lines = []
    for cell in metrics["cells"]:
        mode = "coalesced" if cell["coalesce"] else "1 msg/datagram"
        wall = f"wall {cell['wall_s']:.3f}s" if "wall_s" in cell else "from the send schedule"
        lines.append(f"  {cell['codec']:<7} {mode:<15} {cell['bytes_per_message']:>7.1f} B/msg  "
                     f"{cell['datagrams']:>6,.0f} datagrams  "
                     f"{cell['coalesced_messages']:>5,.0f} coalesced  {wall}")
    for name, tput in doc["throughput"].items():
        lines.append(f"  {name:<7} encode {tput['encode_msgs_per_s']:>10,.0f} msg/s  "
                     f"decode {tput['decode_msgs_per_s']:>10,.0f} msg/s  "
                     f"{tput['bytes_per_frame']:>7.1f} B/frame")
    lines.append(f"payload reduction: {metrics['payload_reduction']:.1f}x  datagram reduction: "
                 f"{metrics['datagram_reduction']:.1f}x  identical delivery: "
                 f"{doc['gates']['delivery_identical']}")
    return "\n".join(lines)
