"""Stock sharded workloads: scale benchmarking and determinism checks.

Two program shapes built on :mod:`repro.sim.shard`:

* :class:`GossipScaleProgram` — the paper-scale dissemination workload
  (claim C1 territory): N nodes on a static random overlay, eager push
  gossip of a handful of broadcasts. Static membership keeps the event
  count proportional to dissemination work (no shuffle-timer flood), so
  it is the honest workload for measuring how far sharding moves the
  N-ceiling. Used by ``repro bench e17`` (:func:`run` / :func:`render`)
  and ``repro sim``.

* :class:`ChurnGossipProgram` — the adversarial determinism workload:
  Cyclon membership actively shuffling, Poisson crash/recover churn and
  message loss all at once. Exists to prove the sharded engine's
  determinism contract under faults, not to go fast.

Both define every stack factory at module top level so programs pickle
into worker processes under any multiprocessing start method.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from repro.common.ids import NodeId
from repro.epidemic.eager import EagerGossip
from repro.membership.cyclon import CyclonProtocol
from repro.membership.views import PeerSampler
from repro.sieve.keyspace import BucketSieve
from repro.sieve.vectorized import measure_admission
from repro.sim.node import Protocol
from repro.sim.shard import (
    MirroredPoissonChurn,
    ShardContext,
    ShardPlan,
    ShardProgram,
    ShardRunResult,
    run_sharded,
)
from repro.store.memtable import Memtable
from repro.store.tuples import Version, VersionedTuple


class StaticMembership(PeerSampler):
    """Peer sampler over a fixed neighbor list (a static random overlay).

    The neighbor list is chosen once per node (deterministically, from
    the node's bootstrap sample) and never changes — no timers, no
    shuffle traffic. ``sample_peers`` still draws from the node's own RNG
    so gossip target choice stays random but shard-invariant.
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
    seen-set insert. Admission is a pure function of the item key and
    the fixed size estimate, so it is shard-invariant by construction.
    """

    name = "store"

    def __init__(self, replication: int, size_estimate: float, gossip: str = "gossip"):
        super().__init__()
        self.replication = replication
        self.size_estimate = size_estimate
        self.gossip = gossip
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
        host.protocol(self.gossip).subscribe(self._on_deliver)

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


class GossipScaleProgram(ShardProgram):
    """N-node static-overlay eager gossip + sieve-filtered stores.

    Config keys (all optional): ``degree`` (overlay out-degree, default
    12), ``fanout`` (relay fanout, default 6), ``broadcasts`` (item
    count, default 4), ``max_hops`` (TTL, default None), ``replication``
    (sieve target copies r, default 16), ``store`` (attach the sieve
    store, default True).

    Broadcast ``i`` originates at node ``(i * 997) % N`` at time
    ``0.25 * (i + 1)`` — distinct times so event ordering never depends
    on tie-breaking, distinct origins so shards share the load. With the
    store attached the collected data includes per-item replica counts
    (how many nodes' sieves admitted each item), the paper's C1/C2
    placement observable.
    """

    def build(self, ctx: ShardContext) -> None:
        degree = int(ctx.config.get("degree", 12))
        fanout = int(ctx.config.get("fanout", 6))
        max_hops = ctx.config.get("max_hops")
        with_store = bool(ctx.config.get("store", True))
        replication = int(ctx.config.get("replication", 16))
        size_estimate = float(ctx.plan.n_nodes)
        for value in range(ctx.lo, ctx.hi):
            peers = ctx.bootstrap_peers(value, degree)

            def stack(node, peers=peers, fanout=fanout, max_hops=max_hops):
                layers = [StaticMembership(peers), EagerGossip(fanout=fanout, max_hops=max_hops)]
                if with_store:
                    layers.append(SieveStoreProtocol(replication, size_estimate))
                return layers

            ctx.add_node(value, stack)

    def setup(self, ctx: ShardContext) -> None:
        n = ctx.plan.n_nodes
        broadcasts = int(ctx.config.get("broadcasts", 4))
        for index in range(broadcasts):
            origin = (index * 997) % n
            if not ctx.owns(origin):
                continue
            when = 0.25 * (index + 1)
            item = f"item-{index}"
            node = ctx.nodes[origin]
            ctx.sim.schedule(
                when,
                lambda node=node, item=item: node.protocol("gossip").broadcast(item, item),
            )

    def collect(self, ctx: ShardContext) -> Dict[str, Any]:
        broadcasts = int(ctx.config.get("broadcasts", 4))
        with_store = bool(ctx.config.get("store", True))
        items = [f"item-{index}" for index in range(broadcasts)]
        coverage: Dict[str, float] = {item: 0 for item in items}
        replicas: Dict[str, float] = {item: 0 for item in items}
        for node in ctx.local_nodes():
            if not node.is_up:
                continue
            gossip = node.protocol("gossip")
            store = node.protocol("store") if with_store else None
            for item in items:
                if gossip.has_seen(item):
                    coverage[item] += 1
                if store is not None and store.holds(item):
                    replicas[item] += 1
        out: Dict[str, Any] = {"nodes": len(ctx.nodes), "coverage": coverage}
        if with_store:
            out["replicas"] = replicas
        return out


class ChurnGossipProgram(ShardProgram):
    """Cyclon + eager gossip under mirrored churn and message loss.

    Config keys: ``view_size`` (default 12), ``shuffle_size`` (default
    6), ``period`` (default 1.0), ``fanout`` (default 5), ``broadcasts``
    (default 3), ``churn_rate`` (events/sec, default 2.0),
    ``mean_downtime`` (default 5.0), ``permanent_fraction`` (default
    0.1). Loss comes from ``ShardPlan.loss_rate``.
    """

    def build(self, ctx: ShardContext) -> None:
        view_size = int(ctx.config.get("view_size", 12))
        shuffle_size = int(ctx.config.get("shuffle_size", 6))
        period = float(ctx.config.get("period", 1.0))
        fanout = int(ctx.config.get("fanout", 5))
        for value in range(ctx.lo, ctx.hi):
            peers = ctx.bootstrap_peers(value, view_size)

            def stack(node, peers=peers):
                cyclon = CyclonProtocol(
                    view_size=view_size, shuffle_size=shuffle_size, period=period)
                gossip = EagerGossip(fanout=fanout)
                return [cyclon, gossip]

            node = ctx.add_node(value, stack, boot=False)
            node.boot()
            node.protocol("membership").seed(peers)

    def setup(self, ctx: ShardContext) -> None:
        n = ctx.plan.n_nodes
        broadcasts = int(ctx.config.get("broadcasts", 3))
        for index in range(broadcasts):
            origin = (index * 61) % n
            if ctx.owns(origin):
                when = 1.0 + 0.7 * index
                item = f"churn-item-{index}"
                node = ctx.nodes[origin]
                ctx.sim.schedule(
                    when,
                    lambda node=node, item=item: (
                        node.protocol("gossip").broadcast(item, item)
                        if node.is_up else None),
                )
        self._churn = MirroredPoissonChurn(
            ctx,
            event_rate=float(ctx.config.get("churn_rate", 2.0)),
            mean_downtime=float(ctx.config.get("mean_downtime", 5.0)),
            permanent_fraction=float(ctx.config.get("permanent_fraction", 0.1)),
        )
        self._churn.start()

    def collect(self, ctx: ShardContext) -> Dict[str, Any]:
        broadcasts = int(ctx.config.get("broadcasts", 3))
        items = [f"churn-item-{index}" for index in range(broadcasts)]
        coverage: Dict[str, float] = {item: 0 for item in items}
        boots = 0
        up = 0
        for node in ctx.local_nodes():
            boots += node.boot_count
            if not node.is_up:
                continue
            up += 1
            gossip = node.protocol("gossip")
            for item in items:
                if gossip.has_seen(item):
                    coverage[item] += 1
        return {
            "nodes": len(ctx.nodes),
            "up": up,
            "boots": boots,
            "coverage": coverage,
            "crashes": self._churn.crashes,
            "recoveries": self._churn.recoveries,
        }


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def scale_plan(
    n_nodes: int,
    shards: int,
    duration: float = 3.0,
    seed: int = 42,
    config: Optional[Dict[str, Any]] = None,
) -> ShardPlan:
    """The standard e17 scale plan (static overlay, default latency)."""
    return ShardPlan(
        n_nodes=n_nodes, shards=shards, duration=duration, seed=seed,
        config=dict(config or {}))


def measure_scale(
    n_nodes: int,
    shards: int,
    duration: float = 3.0,
    seed: int = 42,
    config: Optional[Dict[str, Any]] = None,
) -> ShardRunResult:
    """Run the scale workload once and return the merged result."""
    return run_sharded(GossipScaleProgram(), scale_plan(
        n_nodes, shards, duration=duration, seed=seed, config=config))


def verify_determinism(
    n_nodes: int,
    shards: int,
    duration: float = 6.0,
    seed: int = 7,
    loss_rate: float = 0.05,
    config: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Cross-check ``shards``-way vs single-process under churn + loss.

    Runs :class:`ChurnGossipProgram` once inline (shards=1) and once with
    ``shards`` worker processes on the identical plan, then compares the
    canonical results. Returns a mapping with ``identical`` (bool) and
    both canonical dicts for reporting.
    """

    def plan(k: int) -> ShardPlan:
        return ShardPlan(
            n_nodes=n_nodes, shards=k, duration=duration, seed=seed,
            loss_rate=loss_rate, config=dict(config or {}))

    single = run_sharded(ChurnGossipProgram(), plan(1)).canonical()
    sharded = run_sharded(ChurnGossipProgram(), plan(shards)).canonical()
    return {
        "identical": single == sharded,
        "single": single,
        "sharded": sharded,
    }


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


def scale_completed(replicas: Dict[str, float]) -> bool:
    """e17's scale gate: every broadcast item was placed on >= 1 replica."""
    return bool(replicas) and all(count > 0 for count in replicas.values())


def sieve_gates(sieve: Dict[str, Any]) -> Dict[str, bool]:
    """e17's gates over a :func:`~repro.sieve.vectorized.measure_admission` row."""
    return {
        "sieve_speedup_3x": sieve["speedup"] >= 3.0,
        "sieve_identical": bool(sieve["identical"]),
    }


def run(*, nodes: int = 50_000, shards: int = 4, duration: float = 2.5,
        cross_check_n: int = 2000, seed: int = 7, min_speedup: float = 2.5) -> Dict[str, Any]:
    """Sharded scale + vectorised sieve admission.

    (a) the scale workload at ``nodes`` for ``duration`` virtual seconds,
    once on ``shards`` worker processes and once single-process; (b) the
    sharded engine byte-identical to single-process under churn + loss at
    ``cross_check_n`` nodes; (c) the batched sieve-admission speedup.
    Gates: every broadcast item placed, the cross-check identical, the
    batched sieve >= 3x and identical, and a shard speedup of
    ``min_speedup`` -- the last enforced only with >= 4 usable CPUs,
    since K worker processes only pay off on cores to run them; below
    that it is recorded as skipped, not silently passed.
    """
    cpus = usable_cpus()
    config = {"broadcasts": 3, "fanout": 5}
    # Sharded first: the workers fork while the parent is still small.
    # (Forking after the single-process run copies-on-write a dead
    # N-node object graph into every worker, which badly skews the
    # comparison on memory-bound machines.)
    sharded = measure_scale(nodes, shards, duration=duration, seed=seed, config=config)
    single = measure_scale(nodes, 1, duration=duration, seed=seed, config=config)
    speedup = single.wall_seconds / sharded.wall_seconds if sharded.wall_seconds else 0.0
    data = single.canonical()["data"]
    replicas = data.get("replicas", {})
    cross = verify_determinism(cross_check_n, shards, duration=4.0, seed=seed + 1)
    sieve = measure_admission()

    enforce_speedup = cpus >= 4 and shards >= 2
    checks = {
        "scale_completed": scale_completed(replicas),
        "determinism_identical": bool(cross["identical"]),
        **sieve_gates(sieve),
    }
    if enforce_speedup:
        checks["shard_speedup"] = speedup >= min_speedup
    return {
        "metrics": {
            "n_nodes": nodes,
            "shards": shards,
            "duration": duration,
            "usable_cpus": cpus,
            "single_wall_s": single.wall_seconds,
            "sharded_wall_s": sharded.wall_seconds,
            "shard_speedup": speedup,
            "speedup_gate": ("enforced" if enforce_speedup else "skipped: <4 cpus"),
            "replicas": replicas,
            "cross_check_n": cross_check_n,
            "sieve": sieve,
        },
        "gates": checks,
        "passed": all(checks.values()),
        "coverage": data.get("coverage", {}),
    }


def render(doc: Dict[str, Any]) -> str:
    m = doc["metrics"]
    coverage = doc["coverage"]
    sieve = m["sieve"]
    lines = [
        f"  1 shard   {m['single_wall_s']:>8.2f}s wall",
        f"  {m['shards']} shards  {m['sharded_wall_s']:>8.2f}s wall  "
        f"speedup {m['shard_speedup']:.2f}x",
        f"  coverage: {sum(coverage.values()):,.0f}/{m['n_nodes'] * len(coverage):,} "
        f"node-items;  replicas/item: {sorted(int(v) for v in m['replicas'].values())}",
        f"  determinism cross-check (N={m['cross_check_n']}, churn+loss): "
        f"{'identical' if doc['gates']['determinism_identical'] else 'DIVERGED'}",
        f"  sieve admission, {sieve['n_keys']:,} keys: scalar "
        f"{sieve['scalar_seconds'] * 1e3:.1f}ms; batch {sieve['speedup']:.1f}x; "
        f"identical {sieve['identical']}",
    ]
    if m["speedup_gate"] != "enforced":
        lines.append(f"  note: shard-speedup gate skipped — needs >= 4 usable cpus, "
                     f"have {m['usable_cpus']}")
    return "\n".join(lines)
