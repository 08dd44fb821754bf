"""Paper-scale dissemination on the plain simulator (experiment e17).

Two workloads, each built over one :class:`~repro.sim.Simulation`,
:class:`~repro.sim.Network` and :class:`~repro.sim.Cluster`:

* :class:`GossipScaleProgram` — the paper-scale dissemination workload
  (claim C1 territory): N nodes on a static random overlay, eager push
  gossip of a handful of broadcasts into sieve-filtered stores. Static
  membership keeps the event count proportional to dissemination work
  (no shuffle-timer flood), so it is the honest workload for measuring
  how far N goes. ``repro bench e17`` runs it (:func:`run` /
  :func:`render`) at N = 50 000 by default.

* :class:`ChurnGossipProgram` — the adversarial determinism workload:
  Cyclon membership actively shuffling, Poisson crash/recover churn and
  message loss all at once. It exists to show that two runs with the
  same seed give the same summary under faults, not to go fast.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Optional

from repro.common.ids import NodeId
from repro.epidemic.eager import EagerGossip
from repro.membership.cyclon import CyclonProtocol
from repro.membership.views import PeerSampler
from repro.sieve.keyspace import BucketSieve
from repro.sim.churn import PoissonChurn
from repro.sim.cluster import Cluster
from repro.sim.network import UniformLatency
from repro.sim.node import Protocol
from repro.sim.simulator import Simulation
from repro.store.memtable import Memtable
from repro.store.tuples import Version, VersionedTuple


class StaticMembership(PeerSampler):
    """Peer sampler over a fixed neighbor list (a static random overlay).

    The neighbor list is chosen once per node and never changes — no
    timers, no shuffle traffic. ``sample_peers`` still draws from the
    node's own RNG, so gossip target choice stays random.
    """

    name = "membership"

    def __init__(self, peers: List[NodeId]):
        super().__init__()
        self._peers = list(peers)

    def seed(self, peers) -> None:
        for peer in peers:
            if peer not in self._peers:
                self._peers.append(peer)

    def sample_peers(self, count: int) -> List[NodeId]:
        if len(self._peers) <= count:
            return list(self._peers)
        return self.host.rng.sample(self._peers, count)

    def neighbors(self) -> List[NodeId]:
        return list(self._peers)


class SieveStoreProtocol(Protocol):
    """Sieve-filtered durable store fed by gossip deliveries (§III-A).

    Every delivery the dissemination layer hands up is offered to the
    node's :class:`BucketSieve`; admitted items are written to the
    node's durable memtable. That is the paper's placement loop —
    broadcast everywhere, keep locally only what the sieve admits — and
    it makes the scale workload representative: each delivery costs a
    key hash, a sieve decision and (sometimes) a store put, not just a
    seen-set insert.
    """

    name = "store"

    def __init__(self, replication: int, size_estimate: float):
        super().__init__()
        self.replication = replication
        self.size_estimate = size_estimate
        self.sieve: Optional[BucketSieve] = None

    def on_start(self) -> None:
        host = self.host
        self.sieve = BucketSieve(
            host.node_id,
            replication=self.replication,
            size_estimate_fn=lambda: self.size_estimate,
        )
        # A tiny summary grid: these stores hold a handful of broadcast
        # items, and the default 256-bucket grid costs more to build
        # (x N nodes) than the whole dissemination run.
        self.memtable = host.durable.setdefault("memtable", Memtable(buckets=8))
        host.protocol("gossip").subscribe(self._on_deliver)

    def _on_deliver(self, item_id: str, payload, hops: int) -> None:
        self.host.metrics.counter("store.offered").inc()
        if not self.sieve.admits(item_id, {}):
            return
        stored = self.memtable.put(VersionedTuple(
            key=item_id, version=Version(1), record={"payload": payload}))
        if stored:
            self.host.metrics.counter("store.admitted").inc()

    def holds(self, item_id: str) -> bool:
        return self.memtable.get(item_id) is not None


def _overlay(n_nodes: int, seed: int, degree: int) -> List[List[NodeId]]:
    """A random out-degree-``degree`` neighbor list per node, drawn from
    one seeded stream in node order (O(N·degree), unlike the cluster's
    introducer sample, which lists every live node per draw)."""
    rng = random.Random(f"{seed}/overlay")
    k = min(degree, n_nodes - 1)
    ids = range(n_nodes)
    lists = []
    for value in ids:
        picks = rng.sample(ids, k + 1)
        lists.append([NodeId(p) for p in picks if p != value][:k])
    return lists


class GossipScaleProgram:
    """N-node static-overlay eager gossip + sieve-filtered stores.

    ``degree`` is the overlay out-degree, ``fanout`` the relay fanout,
    ``broadcasts`` the item count; every sieve targets r = 16 copies.
    Broadcast ``i`` originates at node ``(i * 997) % N`` at time
    ``0.25 * (i + 1)``. The summary holds per-item coverage and per-item
    replica counts (how many nodes' sieves admitted each item), the
    paper's C1/C2 placement observable.
    """

    replication = 16

    def __init__(self, degree: int = 12, fanout: int = 6, broadcasts: int = 4):
        self.degree = degree
        self.fanout = fanout
        self.items = [f"item-{index}" for index in range(broadcasts)]

    def build(self, sim: Simulation, cluster: Cluster, n_nodes: int) -> None:
        size_estimate = float(n_nodes)
        for peers in _overlay(n_nodes, sim.seed, self.degree):
            cluster.add_node(lambda node, peers=peers: [
                StaticMembership(peers),
                EagerGossip(fanout=self.fanout),
                SieveStoreProtocol(self.replication, size_estimate),
            ])
        nodes = cluster.nodes()
        for index, item in enumerate(self.items):
            node = nodes[(index * 997) % n_nodes]
            sim.schedule(0.25 * (index + 1),
                         lambda node=node, item=item: node.protocol("gossip").broadcast(item, item))

    def collect(self, cluster: Cluster) -> Dict[str, Any]:
        coverage = dict.fromkeys(self.items, 0)
        replicas = dict.fromkeys(self.items, 0)
        for node in cluster.up_nodes():
            gossip = node.protocol("gossip")
            store = node.protocol("store")
            for item in self.items:
                if gossip.has_seen(item):
                    coverage[item] += 1
                if store.holds(item):
                    replicas[item] += 1
        return {"coverage": coverage, "replicas": replicas}


class ChurnGossipProgram:
    """Cyclon + eager gossip under Poisson churn (plus the run's loss).

    ``churn_rate`` is crash events per second across the population; a
    crashed node stays down for an exponential 5 s unless the crash is
    permanent (probability 0.1). Cyclon keeps 12-entry views and
    shuffles 6 every second; gossip relays to 5 peers; 3 items are
    broadcast.
    """

    items = [f"churn-item-{index}" for index in range(3)]

    def __init__(self, churn_rate: float = 2.0):
        self.churn_rate = churn_rate

    def build(self, sim: Simulation, cluster: Cluster, n_nodes: int) -> None:
        nodes = cluster.add_nodes(n_nodes, lambda node: [
            CyclonProtocol(view_size=12, shuffle_size=6, period=1.0),
            EagerGossip(fanout=5),
        ])
        for node, peers in zip(nodes, _overlay(n_nodes, sim.seed, 12)):
            node.protocol("membership").seed(peers)
        for index, item in enumerate(self.items):
            node = nodes[(index * 61) % n_nodes]
            sim.schedule(1.0 + 0.7 * index, lambda node=node, item=item: (
                node.protocol("gossip").broadcast(item, item) if node.is_up else None))
        self.churn = PoissonChurn(
            sim, cluster, event_rate=self.churn_rate, mean_downtime=5.0,
            permanent_fraction=0.1)
        self.churn.start()

    def collect(self, cluster: Cluster) -> Dict[str, Any]:
        coverage = dict.fromkeys(self.items, 0)
        up = cluster.up_nodes()
        for node in up:
            gossip = node.protocol("gossip")
            for item in self.items:
                if gossip.has_seen(item):
                    coverage[item] += 1
        return {
            "up": len(up),
            "boots": sum(node.boot_count for node in cluster.nodes()),
            "coverage": coverage,
            "crashes": self.churn.crashes,
            "recoveries": self.churn.recoveries,
        }


def run_program(program, n_nodes: int, duration: float, seed: int,
                loss_rate: float = 0.0) -> Dict[str, Any]:
    """Build ``program`` on ``n_nodes`` nodes and run it for ``duration``
    virtual seconds. Returns the seed-determined ``summary`` (the
    program's collected data, every counter and the event count) beside
    the host's ``wall_seconds``."""
    start = time.perf_counter()
    sim = Simulation(seed=seed)
    cluster = Cluster(sim, latency=UniformLatency(0.01, 0.05), loss_rate=loss_rate)
    program.build(sim, cluster, n_nodes)
    sim.run_until(duration)
    summary = {
        "n_nodes": n_nodes,
        "data": program.collect(cluster),
        "counters": {name: counter.value
                     for name, counter in sorted(cluster.metrics.counters.items())},
        "events": sim.events_processed,
    }
    return {"summary": summary, "wall_seconds": time.perf_counter() - start}


def scale_completed(replicas: Dict[str, float]) -> bool:
    """e17's scale gate: every broadcast item was placed on >= 1 replica."""
    return bool(replicas) and all(count > 0 for count in replicas.values())


def run(*, nodes: int = 50_000, duration: float = 2.5, cross_check_n: int = 2000,
        seed: int = 7) -> Dict[str, Any]:
    """Paper-scale dissemination + same-seed determinism under faults.

    (a) the scale workload at ``nodes`` for ``duration`` virtual seconds;
    (b) two same-seed runs of the churn + 5 % loss workload at
    ``cross_check_n`` nodes. Gates: every broadcast item placed, and the
    two churn runs' summaries identical.
    """
    scale = run_program(GossipScaleProgram(broadcasts=3, fanout=5), nodes, duration, seed)
    data = scale["summary"]["data"]

    def churn() -> Dict[str, Any]:
        return run_program(ChurnGossipProgram(), cross_check_n, 4.0, seed + 1,
                           loss_rate=0.05)["summary"]

    first = churn()
    checks = {
        "scale_completed": scale_completed(data["replicas"]),
        "determinism_identical": first == churn(),
    }
    return {
        "metrics": {
            "n_nodes": nodes,
            "duration": duration,
            "wall_s": scale["wall_seconds"],
            "events": scale["summary"]["events"],
            "messages": scale["summary"]["counters"].get("net.sent.total", 0.0),
            "replicas": data["replicas"],
            "cross_check_n": cross_check_n,
            "churn_crashes": first["data"]["crashes"],
            "churn_loss_drops": first["counters"].get("net.dropped.loss", 0.0),
        },
        "gates": checks,
        "passed": all(checks.values()),
        "coverage": data["coverage"],
    }


def render(doc: Dict[str, Any]) -> str:
    m = doc["metrics"]
    coverage = doc["coverage"]
    return "\n".join([
        f"  N={m['n_nodes']:,}: {m['wall_s']:.2f}s wall for {m['duration']:g}s virtual, "
        f"{m['events']:,} events, {m['messages']:,.0f} messages",
        f"  coverage: {sum(coverage.values()):,.0f}/{m['n_nodes'] * len(coverage):,} "
        f"node-items;  replicas/item: {sorted(int(v) for v in m['replicas'].values())}",
        f"  determinism cross-check (N={m['cross_check_n']}, churn+loss, "
        f"{m['churn_crashes']} crashes, {m['churn_loss_drops']:,.0f} loss drops): "
        f"{'identical' if doc['gates']['determinism_identical'] else 'DIVERGED'}",
    ])
