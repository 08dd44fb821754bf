"""Tests for the runtime wire path: coalescing, fragmentation, the one
wire format and metric parity with the simulated network."""

import asyncio
import socket

import pytest

from repro.baselines import jsonwire
from repro.common.codec import FORMAT_BINARY, BinaryCodec
from repro.common.ids import NodeId
from repro.epidemic import EagerGossip
from repro.epidemic.antientropy import BucketDigestMessage
from repro.epidemic.eager import GossipMessage
from repro.membership import CyclonProtocol
from repro.membership.views import PeerSampler
from repro.runtime import AsyncioNode, LocalCluster, node_id_for
from repro.sim.metrics import Metrics
from repro.sim.network import Network
from repro.sim.node import Protocol
from repro.sim.simulator import Simulation


def run(coro):
    return asyncio.run(coro)


class _Sink(Protocol):
    """Recorder stack: stores every delivered message, sends nothing."""

    name = "sink"

    def __init__(self):
        super().__init__()
        self.received = []

    def on_message(self, sender, message):
        self.received.append((sender, message))


def _sink_stack(node):
    sink = _Sink()
    node.test_sink = sink  # type: ignore[attr-defined]
    return [sink]


class TestCounterParity:
    """Satellite: the runtime's net.sent/net.bytes counter families must
    match the simulator's exactly, so experiment post-processing works
    on either world's metrics unchanged."""

    def _net_keys(self, metrics: Metrics):
        return {
            name for name in metrics.counters
            if name.startswith(("net.sent.", "net.bytes."))
            and name != "net.bytes.wire"  # runtime-only: framing overhead
        }

    def test_sent_counter_families_match_simulator(self):
        message = BucketDigestMessage((0,), (("k", 1),))  # wire_category "digest"

        sim = Simulation(seed=1)
        sim_net = Network(sim, metrics=Metrics())
        sim_net.send(NodeId(0), NodeId(1), "anti-entropy", message)

        async def scenario():
            node = AsyncioNode(31000, _sink_stack)
            await node.start()
            node.send(NodeId(31001, "127.0.0.1:31001"), "anti-entropy", message)
            node.stop()
            return node.metrics

        runtime_metrics = run(scenario())
        assert self._net_keys(sim_net.metrics) == self._net_keys(runtime_metrics)
        # The previously-missing per-protocol bytes counter exists and
        # carries the real encoded size.
        assert runtime_metrics.counter_value("net.bytes.anti-entropy") > 0
        assert runtime_metrics.counter_value("net.bytes.anti-entropy") == \
            runtime_metrics.counter_value("net.bytes.total")
        assert runtime_metrics.counter_value("net.sent.anti-entropy.digest") == 1
        assert runtime_metrics.counter_value("net.bytes.anti-entropy.digest") == \
            runtime_metrics.counter_value("net.bytes.total")


class TestDeliveredBytes:
    def test_delivered_bytes_equal_sent_bytes_without_loss(self):
        async def scenario():
            cluster = LocalCluster(2, _sink_stack, base_port=31010)
            await cluster.start(seed_views=0)
            src, dst = cluster.nodes
            for i in range(20):
                src.send(dst.node_id, "sink", GossipMessage(f"m{i}", {"i": i}))
            await asyncio.sleep(0.3)
            cluster.stop()
            return cluster.metrics

        metrics = run(scenario())
        sent_bytes = metrics.counter_value("net.bytes.total")
        assert sent_bytes > 0
        assert metrics.counter_value("net.delivered.bytes.total") == sent_bytes
        assert metrics.counter_value("net.delivered.bytes.sink") == sent_bytes
        assert metrics.counter_value("net.delivered.total") == 20


class TestCoalescing:
    def test_burst_to_one_destination_packs_datagrams(self):
        async def scenario():
            cluster = LocalCluster(2, _sink_stack, base_port=31020)
            await cluster.start(seed_views=0)
            src, dst = cluster.nodes
            for i in range(50):
                src.send(dst.node_id, "sink", GossipMessage(f"m{i:03d}", {"i": i}))
            await asyncio.sleep(0.3)
            cluster.stop()
            return cluster.metrics, len(dst.test_sink.received)

        metrics, delivered = run(scenario())
        datagrams = metrics.counter_value("net.datagrams.total")
        assert delivered == 50
        assert datagrams < 25, f"{datagrams} datagrams for 50 messages"
        assert metrics.counter_value("runtime.coalesced_messages") == 50 - datagrams

    def test_coalescing_respects_mtu_budget(self):
        async def scenario():
            cluster = LocalCluster(2, _sink_stack, base_port=31030, mtu=256)
            await cluster.start(seed_views=0)
            src, dst = cluster.nodes
            for i in range(40):
                src.send(dst.node_id, "sink",
                         GossipMessage(f"m{i:03d}", {"pad": "y" * 40}))
            await asyncio.sleep(0.3)
            cluster.stop()
            return cluster.metrics, len(dst.test_sink.received)

        metrics, delivered = run(scenario())
        assert delivered == 40
        # Buffers flushed at the 256-byte budget: several datagrams, each
        # well under the configured MTU.
        assert metrics.counter_value("net.datagrams.total") > 5
        assert metrics.counter_value("net.bytes.wire") / \
            metrics.counter_value("net.datagrams.total") <= 256

    def test_coalesce_off_means_one_datagram_per_send(self):
        async def scenario():
            cluster = LocalCluster(2, _sink_stack, base_port=31040, coalesce=False)
            await cluster.start(seed_views=0)
            src, dst = cluster.nodes
            for i in range(10):
                src.send(dst.node_id, "sink", GossipMessage(f"m{i}", None))
            await asyncio.sleep(0.2)
            cluster.stop()
            return cluster.metrics

        metrics = run(scenario())
        assert metrics.counter_value("net.datagrams.total") == 10
        assert metrics.counter_value("runtime.coalesced_messages") == 0
        assert metrics.counter_value("net.delivered.total") == 10

    def test_buffers_hold_only_pending_destinations(self):
        """Bugfix: flushed buffers used to stay behind, one entry per
        address ever sent to, and every flush walked all of them."""
        async def scenario():
            node = AsyncioNode(31045, _sink_stack)
            await node.start()
            message = GossipMessage("m", None)
            for port in range(40000, 41000):
                node.send(NodeId(port, f"127.0.0.1:{port}"), "sink", message)
            pending = (len(node._buffers), len(node._buffered_bytes))
            node.flush()
            after_flush = (len(node._buffers), len(node._buffered_bytes))
            # the MTU-budget flush of one destination drops its entry too
            big = GossipMessage("big", "y" * 900)
            for _ in range(2):
                node.send(NodeId(40000, "127.0.0.1:40000"), "sink", big)
            one_left = (list(node._buffers), len(node._buffers[("127.0.0.1", 40000)]))
            node.stop()
            return pending, after_flush, one_left, node.metrics

        pending, after_flush, one_left, metrics = run(scenario())
        assert pending == (1000, 1000)
        assert after_flush == (0, 0)
        assert one_left == ([("127.0.0.1", 40000)], 1)
        assert metrics.counter_value("net.datagrams.total") == 1002
        assert metrics.counter_value("runtime.coalesced_messages") == 0


class _FixedPeers(PeerSampler):
    def __init__(self, peers):
        super().__init__()
        self.peers = list(peers)

    def sample_peers(self, count):
        return self.peers[:count]


class TestPayloadDecodedOncePerNode:
    """Tentpole: duplicates of an epidemic payload cost the receiver a
    lookup, and what it relays was never serialised again."""

    PAYLOAD_KEY = "k00042"

    def _payload(self):
        from repro.softstate.messages import WritePayload
        from repro.store.tuples import Version, VersionedTuple

        item = VersionedTuple(self.PAYLOAD_KEY, Version(3, 1), {"score": 0.5, "pad": "x" * 32})
        return WritePayload(item, NodeId(31069, "127.0.0.1:31069"))

    def _frame(self, sender_port, hops, protocol="gossip"):
        codec = BinaryCodec()
        message = GossipMessage("w:1", self._payload(), hops=hops)
        return codec.frame([codec.encode_envelope(
            node_id_for("127.0.0.1", sender_port), protocol, message)])

    def test_five_copies_one_decode_one_delivery_and_a_relay_of_the_same_bytes(self):
        async def scenario():
            listener = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            listener.bind(("127.0.0.1", 31061))
            listener.setblocking(False)
            delivered = []

            def stack(node):
                gossip = EagerGossip(fanout=1)
                gossip.subscribe(lambda item_id, payload, hops: delivered.append((item_id, payload, hops)))
                return [_FixedPeers([NodeId(31061, "127.0.0.1:31061")]), gossip]

            node = AsyncioNode(31060, stack)
            await node.start()
            try:
                for index, hops in enumerate((2, 0, 4, 1, 3)):
                    node.datagram_received(self._frame(31062 + index, hops),
                                           ("127.0.0.1", 31062 + index))
                await asyncio.sleep(0.1)
                relayed = []
                while True:
                    try:
                        relayed.append(listener.recv(65536))
                    except BlockingIOError:
                        break
            finally:
                node.stop()
                listener.close()
            return node.metrics, delivered, relayed

        metrics, delivered, relayed = run(scenario())
        assert metrics.counter_value("runtime.payload_decode_misses") == 1
        assert metrics.counter_value("runtime.payload_decode_hits") == 4
        assert metrics.counter_value("gossip.duplicates") == 4
        assert delivered == [("w:1", self._payload(), 2)]  # the subscriber fired once
        # Relayed from bytes pinned when the payload arrived, yet exactly
        # what a node that built the message itself would have sent.
        cold = BinaryCodec()
        assert relayed == [cold.frame([cold.encode_envelope(
            node_id_for("127.0.0.1", 31060), "gossip",
            GossipMessage("w:1", self._payload(), hops=3))])]

    def test_nodes_in_one_process_do_not_share_a_memo(self):
        async def scenario():
            nodes = [AsyncioNode(31070 + i, _sink_stack) for i in range(2)]
            for node in nodes:
                await node.start()
            for node in nodes:
                node.datagram_received(self._frame(31075, 1, "sink"), ("127.0.0.1", 31075))
            nodes[0].datagram_received(self._frame(31076, 2, "sink"), ("127.0.0.1", 31076))
            for node in nodes:
                node.stop()
            return nodes

        first, second = run(scenario())
        assert first._decode_memo is not second._decode_memo
        assert [(n.metrics.counter_value("runtime.payload_decode_hits"),
                 n.metrics.counter_value("runtime.payload_decode_misses"))
                for n in (first, second)] == [(1, 1), (0, 1)]
        mine, again = [m.payload for _, m in first.test_sink.received]
        [theirs] = [m.payload for _, m in second.test_sink.received]
        assert mine is again and mine is not theirs and mine == theirs


class TestFragmentation:
    def test_oversized_message_survives_the_wire(self):
        big_payload = {"blob": "z" * 200_000}

        async def scenario():
            cluster = LocalCluster(2, _sink_stack, base_port=31050)
            await cluster.start(seed_views=0)
            src, dst = cluster.nodes
            src.send(dst.node_id, "sink", GossipMessage("big", big_payload))
            await asyncio.sleep(0.4)
            cluster.stop()
            received = list(dst.test_sink.received)
            return cluster.metrics, received

        metrics, received = run(scenario())
        assert len(received) == 1
        _, message = received[0]
        assert message.item_id == "big"
        assert message.payload == big_payload
        assert metrics.counter_value("runtime.fragments.sent") >= 4
        assert metrics.counter_value("runtime.fragments.received") == \
            metrics.counter_value("runtime.fragments.sent")


class TestForgedShareOverUdp:
    """A well-formed datagram carrying a malformed sparse message (a
    presence mask that does not fit the receiver's vector) reaches the
    protocol — the codec cannot know the layout: the node counts it,
    keeps its state, and merges the next good one."""

    @staticmethod
    def _deliver(port, proto, protocol, messages, probe):
        """Send ``messages`` one datagram each from a raw socket to a node
        running ``proto``; returns ``probe(node)`` before the first and
        after each, and the node."""
        sender = node_id_for("127.0.0.1", port + 1)
        binary = BinaryCodec()

        async def scenario():
            node = AsyncioNode(port, lambda n: [proto])
            await node.start()
            out = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            seen = [probe(node)]
            try:
                for message in messages:
                    frame = binary.frame([binary.encode_envelope(sender, protocol, message)])
                    out.sendto(frame, ("127.0.0.1", port))
                    await asyncio.sleep(0.1)
                    seen.append(probe(node))
            finally:
                out.close()
                node.stop()
            return seen, node

        return run(scenario())

    def test_short_push_sum_share_is_counted_and_dropped(self):
        from repro.estimation import PushSumProtocol, PushSumShare

        proto = PushSumProtocol("agg", lambda: {"count": [4.0], "bins": [1.0, 2.0, 3.0]},
                                period=3600.0)  # no round of its own during the test
        seen, node = self._deliver(31120, proto, "push-sum:agg", [
            PushSumShare("agg", 0, b"", (9.0,), 0.5),  # a mask too short for 4 cells
            PushSumShare("agg", 0, b"\x0f", (2.0, 1.0, 1.0, 1.0), 0.5),
        ], lambda node: (node.metrics.counter_value("pushsum.shape_mismatch"),
                         proto.mass("count"), proto.mass("bins"), proto.average("count")))
        assert seen[1] == (1, [4.0], [1.0, 2.0, 3.0], 4.0)
        assert seen[2][1:3] == ([6.0], [2.0, 3.0, 4.0])
        assert proto.average("count") == 4.0  # (4 + 2) / (1 + 0.5)
        assert node.metrics.counter_value("pushsum.shape_mismatch") == 1
        assert node.metrics.counter_value("runtime.decode_errors") == 0

    def test_malformed_extrema_reply_is_counted_and_dropped(self):
        from repro.estimation import ExtremaReply, ExtremaSizeEstimator

        size = ExtremaSizeEstimator(k=12, period=3600.0)
        seen, node = self._deliver(31122, size, "size-estimator", [
            ExtremaReply(0, b"\x00\x10", (1e-9,)),  # entry 12 of 12
            ExtremaReply(0, b"\x01\x00", (1e-9,)),
        ], lambda node: (node.metrics.counter_value("extrema.shape_mismatch"), list(size._minima)))
        assert seen[1] == (1, seen[0][1])
        assert seen[2] == (1, [1e-9] + seen[0][1][1:])
        assert node.metrics.counter_value("runtime.decode_errors") == 0

    def test_push_with_unknown_extreme_entries_round_trips(self):
        """A push whose max/min entries are partly None (no node has
        offered a value yet) crosses the wire intact and is merged."""
        from repro.estimation import ExtremaExchange, ExtremaSizeEstimator

        push = ExtremaExchange(0, (1e-9,) * 4 + (-7.0, None, None, 3.0), last=12.5)
        binary = BinaryCodec()
        decoded = binary.decode(binary.encode(NodeId(5), "size-estimator", push))
        assert decoded.message == push
        size = ExtremaSizeEstimator(k=4, period=3600.0,
                                    extremes_fn=lambda: {"x": (None, None), "y": (None, None)})
        seen, node = self._deliver(31126, size, "size-estimator", [push], lambda node: (
            size.maximum("x"), size.minimum("x"), size.maximum("y"), size.minimum("y")))
        assert seen == [(None, None, None, None), (7.0, None, None, 3.0)]
        assert size._minima[:4] == [1e-9] * 4
        assert node.metrics.counter_value("runtime.decode_errors") == 0

    def test_malformed_bucket_summary_is_counted_and_dropped(self):
        from repro.epidemic import AntiEntropy, BucketSummaryMessage
        from repro.store import Memtable, Version, make_tuple

        store = Memtable(buckets=16)
        store.put(make_tuple("k", {"v": 1}, Version(1, 0)))
        seen, node = self._deliver(31124, AntiEntropy(store, period=3600.0), "anti-entropy", [
            BucketSummaryMessage(16, b"\x01\x00", ()),  # flags one bucket, carries none
            BucketSummaryMessage(16, bytes(2), ()),       # all empty: ours differs
        ], lambda node: (node.metrics.counter_value("antientropy.bucket_count_mismatch"),
                         node.metrics.counter_value("antientropy.buckets_diverged")))
        assert seen == [(0, 0), (1, 0), (1, 1)]
        assert node.metrics.counter_value("runtime.decode_errors") == 0


class TestMixedCodecCluster:
    """There is none: binary is the wire, and a node that hears the JSON
    baseline's frames drops them like any other unknown datagram."""

    def test_default_node_sends_binary_frames(self):
        async def scenario():
            listener = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            listener.bind(("127.0.0.1", 31101))
            listener.setblocking(False)
            node = AsyncioNode(31100, _sink_stack)  # no wire argument exists
            await node.start()
            try:
                node.send(node_id_for("127.0.0.1", 31101), "sink", GossipMessage("m", None))
                await asyncio.sleep(0.1)
                return listener.recv(65536)
            finally:
                node.stop()
                listener.close()

        assert run(scenario())[0] == FORMAT_BINARY

    def test_json_datagram_is_counted_and_dropped(self):
        """One decoder, one answer: a ``{``-led datagram is a decode error
        that delivers nothing and touches neither the memo nor its
        counters, and the node goes on decoding valid frames."""
        from repro.softstate.messages import WritePayload
        from repro.store.tuples import Version, VersionedTuple

        sender = node_id_for("127.0.0.1", 31111)
        # A sized payload struct, so the valid frame goes through the memo.
        payload = WritePayload(VersionedTuple("k", Version(3, 1), {"score": 0.5}), sender)
        message = GossipMessage("w:1", payload, hops=1)
        json_frame = jsonwire.Codec().encode(sender, "sink", message)
        assert json_frame[:1] == b"{"
        binary = BinaryCodec()
        binary_frame = binary.frame([binary.encode_envelope(sender, "sink", message)])

        def memo_state(node):
            memo = node._decode_memo
            return (dict(memo.payloads), dict(memo.senders), list(memo._staged),
                    node.metrics.counter_value("runtime.payload_decode_hits"),
                    node.metrics.counter_value("runtime.payload_decode_misses"))

        async def scenario():
            node = AsyncioNode(31110, _sink_stack)
            await node.start()
            out = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                out.sendto(binary_frame, ("127.0.0.1", 31110))  # fills the memo
                await asyncio.sleep(0.1)
                before = memo_state(node)
                out.sendto(json_frame, ("127.0.0.1", 31110))
                await asyncio.sleep(0.1)
                after_json = (memo_state(node), len(node.test_sink.received),
                              node.metrics.counter_value("runtime.decode_errors"))
                out.sendto(binary_frame, ("127.0.0.1", 31110))
                await asyncio.sleep(0.1)
            finally:
                out.close()
                node.stop()
            return before, after_json, node

        before, (state, delivered, errors), node = run(scenario())
        assert before[3:] == (0, 1) and len(before[0]) == 1
        assert (state, delivered, errors) == (before, 1, 1)
        assert [m for _, m in node.test_sink.received] == [message, message]
        assert node.metrics.counter_value("runtime.payload_decode_hits") == 1

    def test_binary_homogeneous_cluster_converges(self):
        async def scenario():
            cluster = LocalCluster(
                8,
                lambda node: [CyclonProtocol(view_size=5, shuffle_size=3, period=0.1)],
                base_port=31200,
            )
            await cluster.start(seed_views=2)
            await cluster.run_for(1.2)
            sizes = [len(n.protocol("membership").view) for n in cluster.nodes]
            cluster.stop()
            return sizes

        assert min(run(scenario())) >= 3


class TestSimEncodedByteModel:
    def test_network_rejects_unknown_model(self):
        sim = Simulation(seed=1)
        with pytest.raises(ValueError):
            Network(sim, byte_model="compressed")

    def test_encoded_model_charges_real_frame_bytes(self):
        from repro.common.codec import encoded_wire_size

        message = BucketDigestMessage((0,), tuple((f"key:{i:04d}", i) for i in range(30)))
        charged = {}
        for model in ("estimate", "encoded"):
            sim = Simulation(seed=1)
            net = Network(sim, metrics=Metrics(), byte_model=model)
            net.send(NodeId(0), NodeId(1), "anti-entropy", message)
            charged[model] = net.metrics.counter_value("net.bytes.total")
        assert charged["estimate"] == message.size_bytes()
        assert charged["encoded"] == encoded_wire_size(message)
        assert charged["encoded"] != charged["estimate"]
