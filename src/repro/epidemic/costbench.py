"""Anti-entropy reconciliation cost cells (experiment E15).

One *cell* boots a two-node simulated cluster whose memtables share
``n_items`` tuples except for a controlled divergence fraction (half
missing on one side, half stale), runs anti-entropy for a fixed number
of periods, and reports what the reconciliation cost on the wire:
digest bytes, item bytes, rounds to convergence and wall-clock. The
same cell runs the system's bucketed three-phase exchange or, with
``bucketed=False``, the full-digest baseline it replaced
(:mod:`repro.baselines.fulldigest`), so benchmarks and the CLI can
compare the two on identical workloads.

Shared by ``benchmarks/bench_e15_antientropy_cost.py`` and the
``repro bench e15`` CLI smoke check.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, Optional

from repro.baselines.fulldigest import FullDigestAntiEntropy
from repro.epidemic.antientropy import AntiEntropy
from repro.membership.fullview import StaticMembership, cluster_directory
from repro.sim.cluster import Cluster
from repro.sim.network import FixedLatency
from repro.sim.simulator import Simulation
from repro.store.memtable import DEFAULT_BUCKETS, Memtable
from repro.store.tuples import Version, make_tuple


def _snapshot(memtable: Memtable) -> Dict[str, Any]:
    return {
        item.key: (item.version.packed(), dict(item.record), item.tombstone)
        for item in memtable.all_items()
    }


def measure_antientropy_cost(
    n_items: int,
    divergence: float,
    bucketed: bool,
    buckets: int = DEFAULT_BUCKETS,
    periods: int = 8,
    period: float = 1.0,
    max_digest: Optional[int] = None,
    seed: int = 7,
    byte_model: str = "estimate",
) -> Dict[str, Any]:
    """Run one reconciliation-cost cell; see module docstring.

    Returns a dict with ``digest_bytes``, ``items_bytes``, ``rounds``,
    ``digest_bytes_per_round``, ``converged_at`` (simulated seconds, or
    None), ``identical`` (post-run store equality) and ``wall_s``.
    ``byte_model="encoded"`` charges real binary-codec frame sizes
    instead of the cheap estimate, for comparison against runtime runs.
    """
    if not 0 <= divergence <= 1:
        raise ValueError("divergence must be in [0, 1]")
    sim = Simulation(seed=seed)
    cluster = Cluster(sim, latency=FixedLatency(0.01), byte_model=byte_model)
    memtables = []

    def factory(node):
        memtable = node.durable.setdefault("memtable", Memtable(buckets=buckets))
        memtables.append(memtable)
        exchange = AntiEntropy if bucketed else FullDigestAntiEntropy
        return [
            StaticMembership(cluster_directory(cluster)),
            exchange(memtable, period=period, max_digest=max_digest),
        ]

    cluster.add_nodes(2, factory)
    table_a, table_b = memtables[0], memtables[1]

    rng = random.Random(seed)
    diverged = set(rng.sample(range(n_items), round(n_items * divergence)))
    for i in range(n_items):
        key = f"item:{i:06d}"
        item = make_tuple(key, {"score": float(i % 100), "origin": "seed"}, Version(1, 0))
        table_a.put(item)
        if i in diverged:
            if i % 2 == 0:
                continue  # missing on B
            table_b.put(item)
            # stale on B: A moved on to a newer version
            table_a.put(make_tuple(key, {"score": float(i % 100), "origin": "update"},
                                   Version(2, 0)))
        else:
            table_b.put(item)

    wall_start = time.perf_counter()
    converged_at = None
    for _ in range(periods):
        sim.run_for(period)
        if converged_at is None and table_a.digest() == table_b.digest():
            converged_at = sim.now
    wall_s = time.perf_counter() - wall_start

    metrics = cluster.metrics
    rounds = metrics.counter_value("antientropy.rounds")
    digest_bytes = metrics.counter_value("net.bytes.anti-entropy.digest")
    items_bytes = metrics.counter_value("net.bytes.anti-entropy.items")
    return {
        "path": "bucketed" if bucketed else "baseline",
        "n_items": n_items,
        "divergence": divergence,
        "digest_bytes": digest_bytes,
        "items_bytes": items_bytes,
        "rounds": rounds,
        "digest_bytes_per_round": digest_bytes / rounds if rounds else 0.0,
        "redundant_fetches": metrics.counter_value("antientropy.redundant_fetches"),
        "converged_at": converged_at,
        "identical": _snapshot(table_a) == _snapshot(table_b),
        "wall_s": wall_s,
    }
