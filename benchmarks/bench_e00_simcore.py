"""E0 — simulation-core microbenchmarks (events/sec, messages/sec).

Every experiment in this suite is bounded by how fast the discrete-event
core drains events and pushes messages through ``Network.send``. These
microbenchmarks track those two hot paths, and a gossip relay on top of
them (E0c), directly so a regression in the core shows up in the perf
trajectory before it shows up as hours of benchmark wall time.

Reference points (same container, PR 1): the seed core ran ~22.6k msg/s
and ~110k events/s; the cached-size + interned-counter + slots-queue
core runs these paths several times faster. The assertions below are
deliberately loose sanity floors, not thresholds — CI machines vary.
"""

import random
import time

from repro.common.ids import NodeId
from repro.epidemic.eager import GossipMessage
from repro.membership.views import NodeDescriptor, PartialView
from repro.sim import FixedLatency, Network, Simulation
from repro.softstate.messages import WritePayload
from repro.store import Version, make_tuple

from _helpers import print_table, run_once, stash

N_EVENTS = 200_000
N_MESSAGES = 100_000
N_SINKS = 100
RELAY_FANOUT = 5
VIEW_SIZE = 20


class _Sink:
    """Minimal registered endpoint: counts deliveries, no protocol stack."""

    def __init__(self, node_id: NodeId):
        self.node_id = node_id
        self.is_up = True
        self.received = 0

    def handle_message(self, src, protocol, message) -> None:
        self.received += 1


def _drain_events() -> dict:
    sim = Simulation(seed=7)

    def noop() -> None:
        pass

    schedule = sim.schedule
    start = time.perf_counter()
    for i in range(N_EVENTS):
        schedule(i * 1e-6, noop)
    sim.run_until_idle()
    elapsed = time.perf_counter() - start
    assert sim.events_processed == N_EVENTS
    return {"events": N_EVENTS, "seconds": elapsed, "events_per_sec": N_EVENTS / elapsed}


def _pump_messages() -> dict:
    sim = Simulation(seed=7)
    network = Network(sim, latency=FixedLatency(0.001))
    sinks = [_Sink(NodeId(i)) for i in range(N_SINKS)]
    for sink in sinks:
        network.register(sink)
    send = network.send
    start = time.perf_counter()
    for i in range(N_MESSAGES):
        message = GossipMessage(f"item-{i % 50}", {"score": 1.0, "pad": "x" * 64}, 3)
        send(sinks[i % N_SINKS].node_id, sinks[(i * 7 + 1) % N_SINKS].node_id,
             "gossip", message)
        if i % 1000 == 0:  # keep the queue shallow, like a live simulation
            sim.run_until_idle()
    sim.run_until_idle()
    elapsed = time.perf_counter() - start
    delivered = sum(sink.received for sink in sinks)
    assert delivered == N_MESSAGES
    assert network.message_count == N_MESSAGES
    assert network.byte_count > 0
    return {"messages": N_MESSAGES, "seconds": elapsed,
            "messages_per_sec": N_MESSAGES / elapsed}


def _relay_payload() -> dict:
    """One put's epidemic as the relaying nodes see it: every relay is a
    fresh ``GossipMessage`` around the same ``WritePayload``, sent to
    peers drawn from a partial view that a shuffle ages now and then."""
    sim = Simulation(seed=7)
    network = Network(sim, latency=FixedLatency(0.001))
    sinks = [_Sink(NodeId(i)) for i in range(N_SINKS)]
    for sink in sinks:
        network.register(sink)
    view = PartialView(VIEW_SIZE, NodeId(N_SINKS))
    view.merge(NodeDescriptor(sink.node_id) for sink in sinks[:VIEW_SIZE])
    rng = random.Random(7)
    payload = WritePayload(make_tuple("item-0", {"score": 1.0, "pad": "x" * 64},
                                      Version(1, 0)), NodeId(0))
    send = network.send
    relays = N_MESSAGES // RELAY_FANOUT
    start = time.perf_counter()
    for i in range(relays):
        relayed = GossipMessage("item-0", payload, hops=i % 8)
        src = sinks[i % N_SINKS].node_id
        for descriptor in view.random_descriptors(RELAY_FANOUT, rng):
            send(src, descriptor.node_id, "gossip", relayed)
        if i % 200 == 0:  # a shuffle round: the view changes, the queue drains
            view.increase_ages()
            sim.run_until_idle()
    sim.run_until_idle()
    elapsed = time.perf_counter() - start
    sent = relays * RELAY_FANOUT
    assert sum(sink.received for sink in sinks) == sent
    assert network.message_count == sent
    assert network.byte_count == sent * GossipMessage("item-0", payload, 0).size_bytes()
    return {"messages": sent, "seconds": elapsed, "messages_per_sec": sent / elapsed}


def test_e00_event_throughput(benchmark):
    def experiment():
        return _drain_events()

    row = run_once(benchmark, experiment)
    print_table(
        "E0a — event-queue drain throughput",
        ["events", "seconds", "events/sec"],
        [(row["events"], row["seconds"], row["events_per_sec"])],
    )
    stash(benchmark, "throughput", [row])
    # loose sanity floor; the real trajectory lives in extra_info
    assert row["events_per_sec"] > 10_000


def test_e00_message_throughput(benchmark):
    def experiment():
        return _pump_messages()

    row = run_once(benchmark, experiment)
    print_table(
        "E0b — Network.send + delivery throughput (fresh 64-byte-payload messages)",
        ["messages", "seconds", "messages/sec"],
        [(row["messages"], row["seconds"], row["messages_per_sec"])],
    )
    stash(benchmark, "throughput", [row])
    assert row["messages_per_sec"] > 5_000


def test_e00_relay_throughput(benchmark):
    def experiment():
        return _relay_payload()

    row = run_once(benchmark, experiment)
    print_table(
        "E0c — gossip relay: fresh messages around one WritePayload, "
        f"fanout {RELAY_FANOUT} from a {VIEW_SIZE}-entry PartialView",
        ["messages", "seconds", "messages/sec"],
        [(row["messages"], row["seconds"], row["messages_per_sec"])],
    )
    stash(benchmark, "throughput", [row])
    assert row["messages_per_sec"] > 5_000
