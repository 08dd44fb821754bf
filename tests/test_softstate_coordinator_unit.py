"""Protocol-level unit tests of the soft-state coordinator.

These drive the SoftStateProtocol directly on a two-node micro-sim (one
coordinator, one scripted fake storage node) so individual state
machines — ack quorums, retries, hint bookkeeping, read escalation —
are observable without the full system's noise.
"""

from dataclasses import dataclass, field
from typing import List, Tuple

import pytest

from repro import DataDroplets, DataDropletsConfig
from repro.common.ids import NodeId
from repro.common.messages import Message
from repro.sim import Cluster, FixedLatency, Protocol, Simulation
from repro.softstate import (
    BatchReadReply,
    BatchReadRequest,
    ClientGet,
    ClientMultiGet,
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
    HEDGE_FACTOR,
    HEDGE_MIN_SAMPLES,
    HINT_CAPACITY,
    WRITE_RETRIES,
    EpidemicRead,
    KeyMeta,
)
from repro.softstate.messages import AggregateReply, AggregateRequest, ClientAggregate
from repro.store.tuples import Version, make_tuple


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
        elif isinstance(message, BatchReadRequest):
            if self.answer_reads:
                held = [self.stored[key] for key in message.keys if key in self.stored]
                self.host.send(message.reply_to, "soft", BatchReadReply(
                    message.read_id, tuple(held),
                    tuple(key for key in message.keys if key not in self.stored),
                    origin=self.host.node_id))
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
        self.arrived_at = {}  # request id -> virtual time of its first reply

    def on_message(self, sender, message):
        if isinstance(message, ClientReply):
            self.replies.append(message)
            self.arrived_at.setdefault(message.request_id, self.host.now)


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

    def test_retry_then_unavailable_without_acks(self):
        config = SoftStateConfig(ack_timeout=1.0)
        rig = make_rig(config, ack_count=0)  # storage never acks
        send_from_client(rig, ClientPut("r1", "k", {"v": 1}))
        rig.sim.run_for(WRITE_RETRIES + 1.5)
        # retried, then failed visibly: nothing was acked, nothing kept
        assert len(rig.storage.writes) == 1 + WRITE_RETRIES
        assert [(r.ok, r.error) for r in rig.client.replies] == [(False, "unavailable")]
        assert rig.coordinator._writes == {}
        assert rig.coordinator.host.metrics.counter_value("soft.write_unavailable") == 1

    def test_a_failed_put_is_not_read_back_from_the_cache(self):
        config = SoftStateConfig(ack_timeout=1.0, read_timeout=1.0)
        rig = make_rig(config)
        send_from_client(rig, ClientPut("r1", "k", {"v": 1}))
        rig.sim.run_for(2.0)
        acked = rig.storage.stored["k"]
        rig.storage.ack_count = 0
        send_from_client(rig, ClientPut("r2", "k", {"v": 2}))
        rig.sim.run_for(WRITE_RETRIES + 1.5)
        rig.storage.stored["k"] = acked  # the failed write never landed
        send_from_client(rig, ClientGet("r3", "k"))
        rig.sim.run_for(15.0)
        replies = {r.request_id: (r.ok, r.value if r.ok else r.error) for r in rig.client.replies}
        assert replies["r2"] == (False, "unavailable")
        assert replies["r3"] == (True, {"v": 1})  # storage's value, not the failed one

    @pytest.mark.parametrize("ack_count", [1, 2])
    def test_a_confirmed_write_stops_being_tracked(self, ack_count):
        config = SoftStateConfig(ack_timeout=1.0)
        rig = make_rig(config, ack_count=ack_count)
        send_from_client(rig, ClientPut("r1", "k", {"v": 1}))
        rig.sim.run_for(2.0)  # past the write's deadline
        assert [r.ok for r in rig.client.replies] == [True]
        assert len(rig.storage.writes) == 1
        assert rig.coordinator._writes == {}

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
        send_from_client(rig, ClientGet("r2", "k"))
        rig.sim.run_for(15.0)
        reply = next(r for r in rig.client.replies if r.request_id == "r2")
        assert not reply.ok
        assert "unavailable" in (reply.error or "")


@dataclass
class ReplicaRig:
    """One coordinator over several scripted storage nodes, each holding
    the keys it is given; the coordinator's hints name real nodes."""

    sim: Simulation
    coordinator: SoftStateProtocol
    storages: List[ScriptedStorage]
    storage_nodes: list
    client: RecordingClient
    soft_id: NodeId
    latency: float

    def hold(self, key: str, holders: List[int], hinted: List[int],
             sequence: int = 1, versions: dict = None) -> None:
        """Store ``key`` on ``holders`` (indexes; ``versions`` maps one to
        an older sequence) and hint the coordinator at ``hinted``."""
        versions = versions or {}
        for index in holders:
            version = Version(versions.get(index, sequence), 1)
            self.storages[index].stored[key] = make_tuple(key, {"v": version.sequence}, version)
        self.coordinator.metadata[key] = KeyMeta(
            version=Version(sequence, 1),
            stored=Version(sequence, 1),
            hints={self.storage_nodes[i].node_id for i in hinted},
        )

    def get(self, request_id: str, key: str, run_for: float = 10.0) -> Tuple[ClientReply, float]:
        """Issue a get; return its reply and the virtual seconds it took."""
        start = self.sim.now
        send_from_client(self, ClientGet(request_id, key))
        self.sim.run_for(run_for)
        reply = next(r for r in self.client.replies if r.request_id == request_id)
        return reply, self.client.arrived_at[request_id] - start

    def warm(self, reads: int = HEDGE_MIN_SAMPLES) -> None:
        """Time enough hinted reads, every replica up, to start hedging."""
        for i in range(reads):
            key = f"warm{i}"
            self.hold(key, holders=list(range(len(self.storages))), hinted=[0])
            self.get(f"w{i}", key, run_for=10 * self.latency)


def make_replica_rig(replicas: int = 4, latency: float = 0.01,
                     config: SoftStateConfig = None) -> ReplicaRig:
    sim = Simulation(seed=78)
    cluster = Cluster(sim, latency=FixedLatency(latency))
    storages = [ScriptedStorage() for _ in range(replicas)]
    nodes = [cluster.add_node(lambda n, proto=proto: [proto]) for proto in storages]
    ring = ConsistentHashRing(8)
    soft_proto = SoftStateProtocol(
        ring,
        storage_directory=lambda: [n.node_id for n in nodes if n.is_up],
        config=config if config is not None else SoftStateConfig(read_fanout=1, read_timeout=1.0),
    )
    soft_node = cluster.add_node(lambda n: [soft_proto])
    ring.add(soft_node.node_id)
    client_proto = RecordingClient()
    cluster.add_node(lambda n: [client_proto])
    return ReplicaRig(sim, soft_proto, storages, nodes, client_proto, soft_node.node_id, latency)


class TestHedgedReads:
    def counter(self, rig, name: str) -> float:
        return rig.coordinator.host.metrics.counter_value(name)

    def test_second_hint_answers_when_the_first_is_crashed(self):
        rig = make_replica_rig()
        rig.warm()
        delay = rig.coordinator.hedge_delay()
        round_trip = 2 * rig.latency
        assert delay == pytest.approx(HEDGE_FACTOR * round_trip)
        rig.hold("k", holders=[0, 1, 2, 3], hinted=[0, 1, 2, 3])
        rig.storage_nodes[0].crash()
        reply, took = rig.get("r1", "k")
        assert reply.ok and reply.value == {"v": 1}
        # client -> coordinator, one hedge delay, the hedge's round trip,
        # coordinator -> client
        assert took <= delay + round_trip + 2 * rig.latency + 1e-9
        assert self.counter(rig, "soft.hedged_reads") == 1
        assert [r.key for r in rig.storages[1].reads] == ["k"]
        assert rig.storages[2].reads == [] and rig.storages[3].reads == []
        assert all(storage.floods == [] for storage in rig.storages)
        assert self.counter(rig, "soft.epidemic_reads") == 0

    def test_every_hint_crashed_runs_out_the_hedges_then_floods(self):
        rig = make_replica_rig()
        rig.warm()
        # Replica 3 holds the key but no hint names it: only the flood
        # can find it.
        rig.hold("k", holders=[0, 1, 2, 3], hinted=[0, 1, 2])
        for node in rig.storage_nodes[:3]:
            node.crash()
        reply, took = rig.get("r1", "k")
        assert reply.ok and reply.value == {"v": 1}
        assert self.counter(rig, "soft.hedged_reads") == 2
        assert self.counter(rig, "soft.epidemic_reads") == 1
        assert [f.probe.key for f in rig.storages[3].floods] == ["k"]
        # Three hedge delays (first probe, two hedges) before the flood,
        # well inside the one read_timeout the parent path waited.
        assert took < rig.coordinator.config.read_timeout

    def test_stale_first_answer_is_hedged_at_the_hedge_delay(self):
        rig = make_replica_rig()
        rig.warm()
        delay = rig.coordinator.hedge_delay()
        # Replica 0 only has version 1 of a key at version 2.
        rig.hold("k", holders=[0, 1], hinted=[0, 1], sequence=2, versions={0: 1})
        reply, took = rig.get("r1", "k")
        assert reply.ok and reply.value == {"v": 2}
        assert self.counter(rig, "soft.hedged_reads") == 1
        assert self.counter(rig, "soft.epidemic_reads") == 0
        assert took <= delay + 4 * rig.latency + 1e-9
        assert took < rig.coordinator.config.read_timeout

    def test_unmeasured_reads_are_not_hedged_and_the_delay_never_exceeds_the_timeout(self):
        config = SoftStateConfig(read_fanout=1, read_timeout=1.0)
        rig = make_replica_rig(config=config)
        rig.warm(reads=HEDGE_MIN_SAMPLES - 1)
        assert rig.coordinator.hedge_delay() is None
        # Too few round trips for a quantile: the read waits read_timeout
        # and floods, as an unhedged read does.
        rig.hold("k", holders=[0, 1, 2, 3], hinted=[0, 1, 2, 3])
        rig.storage_nodes[0].crash()
        reply, took = rig.get("r1", "k")
        assert reply.ok and reply.value == {"v": 1}
        assert self.counter(rig, "soft.hedged_reads") == 0
        assert self.counter(rig, "soft.epidemic_reads") == 1
        assert took >= config.read_timeout
        # Round trips of 0.6 s would make a 1.2 s delay: capped.
        slow = make_replica_rig(latency=0.3, config=config)
        slow.warm()
        assert slow.coordinator.hedge_delay() == config.read_timeout

    def test_no_hedge_fires_without_churn(self):
        dd = DataDroplets(DataDropletsConfig(seed=5, n_storage=16, n_soft=2)).start(warmup=5.0)
        keys = [f"k{i}" for i in range(40)]
        for key in keys:
            dd.put(key, {"v": key})
        dd.run_for(5.0)
        for node in dd.soft_nodes:
            node.protocol("soft").cache.clear()
        assert [dd.get(key) for key in keys] == [{"v": key} for key in keys]
        assert dd.metrics.counter_value("soft.hinted_reads") >= len(keys)
        # Every coordinator measured enough round trips to hedge...
        delays = [node.protocol("soft").hedge_delay() for node in dd.soft_nodes]
        assert all(delay is not None and delay < dd.config.soft.read_timeout
                   for delay in delays)
        # ...and its delay outlasts every round trip of an all-up network.
        assert dd.metrics.counter_value("soft.hedged_reads") == 0
        assert dd.metrics.counter_value("soft.epidemic_reads") == 0


class TestMultiGetUnavailable:
    """A multi_get keeps the get rule: a key with a stored version that
    comes back with nothing fails the whole reply ``unavailable``; only a
    key no storage node is known to hold reads as absent."""

    @staticmethod
    def multi_get(rig, request_id: str, keys) -> ClientReply:
        send_from_client(rig, ClientMultiGet(request_id, tuple(keys)))
        rig.sim.run_for(10.0)
        return next(r for r in rig.client.replies if r.request_id == request_id)

    def test_all_holders_up_reads_every_key(self):
        rig = make_replica_rig()
        rig.hold("a", holders=[0, 1], hinted=[0])
        rig.hold("b", holders=[2, 3], hinted=[])
        reply = self.multi_get(rig, "m1", ["a", "b", "ghost"])
        assert reply.ok and reply.value == {"a": {"v": 1}, "b": {"v": 1}, "ghost": None}

    @pytest.mark.parametrize("hinted", [[0], []], ids=["deadline", "fallback-read"])
    def test_a_stored_key_whose_holders_are_all_down_is_unavailable(self, hinted):
        # Hinted, its batch read goes to a crashed node and the key is
        # still pending at the deadline; unhinted, its per-key read
        # floods the up nodes and ends with nothing.
        rig = make_replica_rig()
        rig.hold("up", holders=[2, 3], hinted=[2])
        rig.hold("down", holders=[0, 1], hinted=hinted)
        for node in rig.storage_nodes[:2]:
            node.crash()
        reply = self.multi_get(rig, "m1", ["up", "down", "ghost"])
        assert not reply.ok and reply.error == "unavailable"
        assert rig.coordinator.host.metrics.counter_value("soft.read_unavailable") == 1


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
