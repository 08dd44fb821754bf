"""Protocol-level unit tests of the soft-state coordinator.

These drive the SoftStateProtocol directly on a two-node micro-sim (one
coordinator, one scripted fake storage node) so individual state
machines — ack quorums, retries, hint bookkeeping, read escalation —
are observable without the full system's noise.
"""

from dataclasses import dataclass, field
from typing import List, Tuple

import pytest

from repro.common.ids import NodeId
from repro.common.messages import Message
from repro.sim import Cluster, FixedLatency, Protocol, Simulation
from repro.softstate import (
    ClientGet,
    ClientPut,
    ClientReply,
    ConsistentHashRing,
    ReadRequest,
    SoftStateConfig,
    SoftStateProtocol,
    StoreAck,
    StoreWrite,
)
from repro.softstate.coordinator import (
    FALLBACK_FLUSH_PERIOD,
    HINT_CAPACITY,
    WRITE_RETRIES,
    EpidemicRead,
)
from repro.softstate.messages import AggregateReply, AggregateRequest, ClientAggregate
from repro.store.tuples import Version


class ScriptedStorage(Protocol):
    """Fake persistent layer: records requests; acks per the script."""

    name = "storage"

    def __init__(self, ack_count: int = 1, answer_reads: bool = True):
        super().__init__()
        self.ack_count = ack_count
        self.answer_reads = answer_reads
        self.writes: List[StoreWrite] = []
        self.reads: List[ReadRequest] = []
        self.floods: List[EpidemicRead] = []
        self.stored = {}

    def on_message(self, sender, message: Message) -> None:
        if isinstance(message, StoreWrite):
            self.writes.append(message)
            self.stored[message.item.key] = message.item
            if message.reply_to is not None:
                for i in range(self.ack_count):
                    self.host.send(
                        message.reply_to, "soft",
                        StoreAck(message.item.key, message.item.version,
                                 NodeId(900 + i)),
                    )
        elif isinstance(message, ReadRequest):
            self.reads.append(message)
            if self.answer_reads:
                from repro.softstate.messages import ReadReply

                item = self.stored.get(message.key)
                self.host.send(
                    message.reply_to, "soft",
                    ReadReply(message.read_id, message.key,
                              found=item is not None, item=item,
                              origin=self.host.node_id),
                )
        elif isinstance(message, EpidemicRead):
            self.floods.append(message)
            if self.answer_reads:
                from repro.softstate.messages import ReadReply

                item = self.stored.get(message.probe.key)
                if item is not None:
                    self.host.send(
                        message.probe.reply_to, "soft",
                        ReadReply(message.probe.read_id, message.probe.key,
                                  found=True, item=item, origin=self.host.node_id),
                    )


class RecordingClient(Protocol):
    name = "client"

    def __init__(self):
        super().__init__()
        self.replies: List[ClientReply] = []

    def on_message(self, sender, message):
        if isinstance(message, ClientReply):
            self.replies.append(message)


@dataclass
class Rig:
    sim: Simulation
    coordinator: SoftStateProtocol
    storage: ScriptedStorage
    client: RecordingClient
    client_id: NodeId
    soft_id: NodeId


def make_rig(config: SoftStateConfig = None, ack_count: int = 1,
             answer_reads: bool = True, storage: ScriptedStorage = None) -> Rig:
    sim = Simulation(seed=77)
    cluster = Cluster(sim, latency=FixedLatency(0.01))
    ring = ConsistentHashRing(8)
    storage_proto = storage or ScriptedStorage(ack_count=ack_count, answer_reads=answer_reads)
    storage_node = cluster.add_node(lambda n: [storage_proto])
    soft_proto = SoftStateProtocol(
        ring,
        storage_directory=lambda: [storage_node.node_id],
        config=config if config is not None else SoftStateConfig(),
    )
    soft_node = cluster.add_node(lambda n: [soft_proto])
    ring.add(soft_node.node_id)
    client_proto = RecordingClient()
    client_node = cluster.add_node(lambda n: [client_proto])
    return Rig(sim, soft_proto, storage_proto, client_proto,
               client_node.node_id, soft_node.node_id)


def send_from_client(rig: Rig, message: Message) -> None:
    client_node = rig.coordinator.host  # not the client; fix below
    # send via the network from the client's node id
    rig.sim.call_soon(lambda: rig.client.host.send(rig.soft_id, "soft", message))


class AggregateStorage(ScriptedStorage):
    """Answers aggregate queries from a script of (ok, value) replies."""

    def __init__(self, answers):
        super().__init__()
        self.answers = list(answers)
        self.queries: List[AggregateRequest] = []

    def on_message(self, sender, message: Message) -> None:
        if not isinstance(message, AggregateRequest):
            return super().on_message(sender, message)
        self.queries.append(message)
        ok, value = self.answers.pop(0)
        self.host.send(message.reply_to, "soft", AggregateReply(
            message.query_id, ok=ok, value=value,
            error=None if ok else "estimate not converged yet"))


class TestAggregates:
    def test_unconverged_entry_point_is_asked_again_once(self):
        # A storage node that just booted has no estimate yet; the query
        # goes to an entry point again instead of failing the client.
        rig = make_rig(storage=AggregateStorage([(False, None), (True, 158.0)]))
        send_from_client(rig, ClientAggregate("r1", "score", "max"))
        rig.sim.run_for(2.0)
        assert len(rig.storage.queries) == 2
        assert [(r.ok, r.value) for r in rig.client.replies] == [(True, 158.0)]

    def test_second_error_reaches_the_client(self):
        rig = make_rig(storage=AggregateStorage([(False, None), (False, None)]))
        send_from_client(rig, ClientAggregate("r1", "score", "max"))
        rig.sim.run_for(2.0)
        assert len(rig.storage.queries) == 2
        assert [r.ok for r in rig.client.replies] == [False]


class TestWrites:
    def test_ack_confirms_write(self):
        rig = make_rig()
        send_from_client(rig, ClientPut("r1", "k", {"v": 1}))
        rig.sim.run_for(2.0)
        assert len(rig.client.replies) == 1
        assert rig.client.replies[0].ok
        assert rig.client.replies[0].value["sequence"] == 1
        assert len(rig.storage.writes) == 1

    def test_quorum_two_waits_for_two_acks(self):
        config = SoftStateConfig(ack_quorum=2, ack_timeout=2.0)
        rig = make_rig(config, ack_count=2)
        send_from_client(rig, ClientPut("r1", "k", {"v": 1}))
        rig.sim.run_for(2.0)
        assert rig.client.replies and rig.client.replies[0].ok

    def test_retry_then_fallback_without_acks(self):
        config = SoftStateConfig(ack_timeout=1.0)
        rig = make_rig(config, ack_count=0)  # storage never acks
        send_from_client(rig, ClientPut("r1", "k", {"v": 1}))
        # parked after 1 + WRITE_RETRIES deadlines, before the first flush
        rig.sim.run_for(WRITE_RETRIES + 1.5)
        assert WRITE_RETRIES + 1.5 < 0.9 * FALLBACK_FLUSH_PERIOD
        # retried, then parked durably and confirmed anyway
        assert len(rig.storage.writes) == 1 + WRITE_RETRIES
        assert rig.client.replies and rig.client.replies[0].ok
        fallback = rig.coordinator.host.durable["soft-fallback"]
        assert "k" in fallback

    def test_fallback_flush_redisseminates_parked_writes(self):
        config = SoftStateConfig(ack_timeout=1.0)
        rig = make_rig(config, ack_count=0)  # storage never acks...
        send_from_client(rig, ClientPut("r1", "k", {"v": 1}))
        rig.sim.run_for(WRITE_RETRIES + 1.5)
        assert "k" in rig.coordinator.host.durable["soft-fallback"]
        # ...until it comes back: the periodic flush must re-send the
        # parked item and drop it from the fallback once storage acks.
        rig.storage.ack_count = 1
        rig.sim.run_for(1.5 * FALLBACK_FLUSH_PERIOD)
        assert "k" not in rig.coordinator.host.durable["soft-fallback"]
        assert rig.storage.stored["k"].record == {"v": 1}

    def test_fallback_flush_keeps_newer_parked_version(self):
        config = SoftStateConfig(ack_timeout=1.0)
        rig = make_rig(config, ack_count=0)
        send_from_client(rig, ClientPut("r1", "k", {"v": 2}))
        rig.sim.run_for(WRITE_RETRIES + 1.5)
        parked = rig.coordinator.host.durable["soft-fallback"]["k"]
        # a stale ack (older version) must not evict the parked copy
        stale = StoreAck("k", Version(sequence=0, coordinator=1), NodeId(900))
        rig.sim.call_soon(lambda: rig.storage.host.send(rig.soft_id, "soft", stale))
        rig.sim.run_for(1.0)
        assert rig.coordinator.host.durable["soft-fallback"]["k"] is parked

    def test_versions_are_per_key_monotone(self):
        rig = make_rig()
        send_from_client(rig, ClientPut("r1", "a", {"v": 1}))
        send_from_client(rig, ClientPut("r2", "a", {"v": 2}))
        send_from_client(rig, ClientPut("r3", "b", {"v": 1}))
        rig.sim.run_for(3.0)
        sequences = {r.request_id: r.value["sequence"] for r in rig.client.replies}
        assert sequences["r1"] == 1 and sequences["r2"] == 2
        assert sequences["r3"] == 1  # independent counter per key

    def test_acks_recorded_as_hints(self):
        rig = make_rig(ack_count=3)
        send_from_client(rig, ClientPut("r1", "k", {"v": 1}))
        rig.sim.run_for(2.0)
        hints = rig.coordinator.metadata["k"].hints
        assert len(hints) == 3

    def test_hint_capacity_respected(self):
        rig = make_rig(ack_count=HINT_CAPACITY + 3)
        send_from_client(rig, ClientPut("r1", "k", {"v": 1}))
        rig.sim.run_for(2.0)
        assert len(rig.coordinator.metadata["k"].hints) == HINT_CAPACITY


class TestReads:
    def test_cache_hit_answers_without_storage(self):
        rig = make_rig()
        send_from_client(rig, ClientPut("r1", "k", {"v": 1}))
        rig.sim.run_for(2.0)
        send_from_client(rig, ClientGet("r2", "k"))
        rig.sim.run_for(2.0)
        assert rig.storage.reads == []  # never asked the storage layer
        reply = next(r for r in rig.client.replies if r.request_id == "r2")
        assert reply.value == {"v": 1}

    def test_cold_read_uses_hints(self):
        rig = make_rig()
        send_from_client(rig, ClientPut("r1", "k", {"v": 1}))
        rig.sim.run_for(2.0)
        rig.coordinator.cache.clear()
        send_from_client(rig, ClientGet("r2", "k"))
        rig.sim.run_for(2.0)
        # hinted path went to... the scripted acks claim NodeId(900) which
        # does not exist; the read escalates to the flood after timeout
        rig.sim.run_for(5.0)
        reply = next(r for r in rig.client.replies if r.request_id == "r2")
        assert reply.value == {"v": 1}
        assert len(rig.storage.floods) >= 1

    def test_never_written_key_reads_none(self):
        rig = make_rig()
        send_from_client(rig, ClientGet("r1", "ghost"))
        # the full miss path walks every flood retry before answering
        rig.sim.run_for(20.0)
        reply = rig.client.replies[0]
        assert reply.ok and reply.value is None

    def test_known_version_unreachable_is_unavailable(self):
        config = SoftStateConfig(read_timeout=1.0)
        rig = make_rig(config, ack_count=1, answer_reads=False)
        send_from_client(rig, ClientPut("r1", "k", {"v": 1}))
        rig.sim.run_for(2.0)
        rig.coordinator.cache.clear()
        rig.coordinator._fallback_store().pop("k", None)
        send_from_client(rig, ClientGet("r2", "k"))
        rig.sim.run_for(15.0)
        reply = next(r for r in rig.client.replies if r.request_id == "r2")
        assert not reply.ok
        assert "unavailable" in (reply.error or "")


class TestRouting:
    def test_misrouted_request_rejected_with_owner_hint(self):
        rig = make_rig()
        # add a second (fake) soft member so some keys belong elsewhere
        other = NodeId(999, "soft-other")
        rig.coordinator.ring.add(other)
        key = next(
            f"k{i}" for i in range(200)
            if rig.coordinator.ring.coordinator_for(f"k{i}") == other
        )
        send_from_client(rig, ClientPut("r1", key, {"v": 1}))
        rig.sim.run_for(2.0)
        reply = rig.client.replies[0]
        assert not reply.ok
        assert "999" in reply.error


class TestConfigValidation:
    def test_bad_quorum(self):
        with pytest.raises(ValueError):
            SoftStateConfig(ack_quorum=0)

    def test_bad_read_fanout(self):
        with pytest.raises(ValueError):
            SoftStateConfig(read_fanout=0)

    @pytest.mark.parametrize("bad", [
        # these used to run, or to fail only at start()
        {"ack_timeout": 0.0}, {"read_timeout": -1.0}, {"scan_timeout": 0.0},
        {"cache_capacity": 0},
    ], ids=lambda bad: ",".join(bad))
    def test_bad_values_fail_at_construction(self, bad):
        with pytest.raises(ValueError):
            SoftStateConfig(**bad)
