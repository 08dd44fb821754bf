"""E5b driver: Chord vs heartbeat-mesh ring vs single-hop routing.

Three ways to find a key's coordinator, measured on identical networks
under :class:`~repro.sim.churn.PoissonChurn`:

* **chord** — the multi-hop baseline (`repro.baselines.chord`): O(log N)
  lookup hops, maintenance = stabilize + fix-fingers + pings.
* **mesh** — the heartbeat-mesh detector (`repro.baselines.heartbeat`):
  one-hop routing against a shared ring, but every node heartbeats every
  other node — O(N²) messages per period. Simulated only up to
  ``mesh_cap`` nodes (beyond that the mesh itself is the bottleneck);
  the per-node cost at larger N is the measured cost scaled by
  (N-1)/(cap-1), which is exact because each node sends one fixed-size
  heartbeat per peer per period.
* **onehop** — `repro.softstate.onehop` on the deployment path: a
  :class:`~repro.core.datadroplets.DataDroplets` facade whose soft nodes
  route by full-membership tables fed by epidemically disseminated
  membership events + bucketed anti-entropy; only the soft nodes churn.

Hop accounting is messages-to-reach-the-coordinator: a Chord lookup that
resolved in ``h`` forwarded FindSuccessor messages still needs one more
message to contact the owner, so its path length is ``h + 1``. A onehop
lookup is a client put sent to the owner the client's view names: its
path length is 1 when that soft node owns the key, +1 per
:class:`~repro.softstate.onehop.RedirectedOp` and +1 per client retry.
Its latency is the whole put (coordinator, storage write and ack), a
chord lookup's only the resolution.

Chord rings are built warm (successor lists / predecessors / fingers
preloaded from the known population, then handed to the live
stabilization loops) and the onehop tables are seeded from the founding
soft nodes, so the bench measures steady-state maintenance and routing,
not join storms.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.baselines.chord import ChordProtocol, chord_id
from repro.baselines.heartbeat import SoftMembership
from repro.common.errors import DataDropletsError
from repro.common.hashing import KEYSPACE_SIZE
from repro.core.config import DataDropletsConfig
from repro.core.datadroplets import DataDroplets
from repro.sim.churn import PoissonChurn
from repro.sim.cluster import Cluster
from repro.sim.network import UniformLatency
from repro.sim.simulator import Simulation
from repro.softstate.ring import ConsistentHashRing


@dataclass
class ModeResult:
    """One row of the three-way comparison."""

    mode: str
    nodes: int
    simulated_nodes: int  # < nodes when the mesh row is extrapolated
    lookups_issued: int = 0
    lookups_resolved: int = 0
    one_hop_fraction: float = 0.0  # resolved with path length <= 1
    mean_hops: float = 0.0
    p50_latency_ms: float = 0.0
    p99_latency_ms: float = 0.0
    maint_bytes_per_node_s: float = 0.0
    maint_msgs_per_node_s: float = 0.0
    extrapolated: bool = False
    notes: str = ""
    latencies_ms: List[float] = field(default_factory=list, repr=False)


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _finish_lookup_stats(result: ModeResult, hops: List[int]) -> None:
    result.lookups_resolved = len(hops)
    if hops:
        result.mean_hops = sum(hops) / len(hops)
        result.one_hop_fraction = sum(1 for h in hops if h <= 1) / len(hops)
    result.p50_latency_ms = _percentile(result.latencies_ms, 0.50)
    result.p99_latency_ms = _percentile(result.latencies_ms, 0.99)


def _maintenance_window(sim, metrics, protocols: List[str], nodes: int,
                        duration: float) -> Dict[str, float]:
    """Run ``duration`` virtual seconds and charge the byte/message delta
    of the named wire protocols to maintenance."""
    before_b = sum(metrics.counter_value(f"net.bytes.{p}") for p in protocols)
    before_m = sum(metrics.counter_value(f"net.sent.{p}") for p in protocols)
    sim.run_for(duration)
    bytes_delta = sum(metrics.counter_value(f"net.bytes.{p}") for p in protocols) - before_b
    msgs_delta = sum(metrics.counter_value(f"net.sent.{p}") for p in protocols) - before_m
    return {
        "bytes_per_node_s": bytes_delta / (nodes * duration),
        "msgs_per_node_s": msgs_delta / (nodes * duration),
    }


# -- chord --------------------------------------------------------------------


def _preload_chord(nodes) -> None:
    """Install consistent successor lists, predecessors and fingers on a
    freshly booted population (warm start; stabilization takes over)."""
    entries = sorted(((chord_id(n.node_id), n) for n in nodes), key=lambda e: e[0])
    positions = [pos for pos, _ in entries]
    count = len(entries)
    for index, (pos, node) in enumerate(entries):
        proto: ChordProtocol = node.protocol("chord")  # type: ignore[assignment]
        succ_len = proto.successor_count
        proto.successors = [
            (entries[(index + k) % count][1].node_id, entries[(index + k) % count][0])
            for k in range(1, min(succ_len, count - 1) + 1)
        ]
        prev_pos, prev_node = entries[index - 1]
        proto.predecessor = prev_node.node_id
        proto.predecessor_pos = prev_pos
        for level in range(63, 63 - 24, -1):
            target = (pos + (1 << level)) % KEYSPACE_SIZE
            at = bisect.bisect_left(positions, target) % count
            owner_pos, owner = entries[at]
            if owner is not node:
                proto.fingers[level] = (owner.node_id, owner_pos)


def measure_chord(
    n: int,
    seed: int,
    churn_rate: float,
    warmup: float,
    maintenance_window: float,
    lookups: int,
    mean_downtime: float = 30.0,
    lookup_timeout: float = 8.0,
) -> ModeResult:
    sim = Simulation(seed=seed)
    cluster = Cluster(sim, latency=UniformLatency(0.005, 0.05))
    holder: Dict[str, object] = {"id": None}
    nodes = [
        cluster.add_node(lambda node: [ChordProtocol(lambda: holder["id"],
                                                     successors=4,
                                                     lookup_timeout=lookup_timeout)])
        for _ in range(n)
    ]
    _preload_chord(nodes)
    holder["id"] = nodes[0].node_id  # churned nodes rejoin through node 0
    churn = None
    if churn_rate > 0:
        churn = PoissonChurn(sim, cluster, event_rate=churn_rate,
                             mean_downtime=mean_downtime)
        churn.start()
    sim.run_for(warmup)

    result = ModeResult(mode="chord", nodes=n, simulated_nodes=n)
    window = _maintenance_window(sim, cluster.metrics, ["chord"], n, maintenance_window)
    result.maint_bytes_per_node_s = window["bytes_per_node_s"]
    result.maint_msgs_per_node_s = window["msgs_per_node_s"]

    rng = sim.rng("e05b-lookups")
    outstanding = {"n": 0}
    for i in range(lookups):
        live = [node for node in nodes if node.is_up]
        origin = live[rng.randrange(len(live))]
        issued_at = sim.now
        outstanding["n"] += 1

        def finish(owner, issued=issued_at):
            outstanding["n"] -= 1
            if owner is not None:
                result.latencies_ms.append((sim.now - issued) * 1000.0)

        origin.protocol("chord").lookup(f"e05b:probe:{i}", finish)
        sim.run_for(0.12)  # stagger issues so timers interleave realistically
    deadline = sim.now + lookup_timeout + 2.0
    while outstanding["n"] > 0 and sim.now < deadline:
        sim.run_for(0.5)
    result.lookups_issued = lookups
    # Path length = forwarded FindSuccessor hops + 1 (contacting the owner).
    # The callback only carries the owner, so hop counts come from the
    # chord.lookup_hops histogram — fresh per cluster, so every sample in
    # it is one of our lookups.
    hop_histogram = cluster.metrics.histogram("chord.lookup_hops")
    hops = [int(v) + 1 for v in hop_histogram.values()]
    _finish_lookup_stats(result, hops)
    if churn is not None:
        churn.stop()
    return result


# -- single-hop ---------------------------------------------------------------


def measure_onehop(
    n: int,
    seed: int,
    churn_rate: float,
    warmup: float,
    maintenance_window: float,
    lookups: int,
    mean_downtime: float = 30.0,
    quarantine_window: float = 5.0,
) -> ModeResult:
    """The deployment path: a DataDroplets facade with ``n`` soft nodes
    in onehop mode over a small storage layer, churning the soft nodes
    only. Each lookup is a client put, and its path length is the
    number of sends to a coordinator (1, +1 per client retry after a
    timeout) plus the op's redirects (``onehop.stale_routes``)."""
    dd = DataDroplets(DataDropletsConfig(
        seed=seed, n_soft=n, n_storage=8, routing_mode="onehop", virtual_nodes=8,
        onehop_quarantine_window=quarantine_window))
    dd.start(warmup=0.0)
    churn = None
    if churn_rate > 0:
        soft_layer = Cluster.view_of(dd.sim, dd.cluster.network, dd.soft_nodes)
        churn = PoissonChurn(dd.sim, soft_layer, event_rate=churn_rate,
                             mean_downtime=mean_downtime)
        churn.start()
    dd.run_for(warmup)

    result = ModeResult(mode="onehop", nodes=n, simulated_nodes=n)
    window = _maintenance_window(dd.sim, dd.metrics, ["onehop"], n, maintenance_window)
    result.maint_bytes_per_node_s = window["bytes_per_node_s"]
    result.maint_msgs_per_node_s = window["msgs_per_node_s"]

    traces: List[Any] = []
    dd.set_op_observer(traces.append)
    hops: List[int] = []
    for i in range(lookups):
        dd.run_for(0.12)  # staggered like the chord row's lookups
        redirects_before = dd.metrics.counter_value("onehop.stale_routes")
        try:
            dd.put(f"e05b:probe:{i}", {"i": i})
        except DataDropletsError:
            continue  # unresolved
        redirects = dd.metrics.counter_value("onehop.stale_routes") - redirects_before
        op = traces[-1]
        hops.append(len(op.attempts) + int(redirects))
        result.latencies_ms.append((op.completed_at - op.invoked_at) * 1000.0)
    result.lookups_issued = lookups
    _finish_lookup_stats(result, hops)
    if churn is not None:
        churn.stop()
    return result


# -- heartbeat mesh -----------------------------------------------------------


def measure_mesh(
    n: int,
    seed: int,
    churn_rate: float,
    warmup: float,
    maintenance_window: float,
    mean_downtime: float = 30.0,
    mesh_cap: int = 300,
) -> ModeResult:
    simulated = min(n, mesh_cap)
    sim = Simulation(seed=seed)
    cluster = Cluster(sim, latency=UniformLatency(0.005, 0.05))
    ring = ConsistentHashRing(virtual_nodes=8)

    def stack(node):
        return [SoftMembership(ring)]

    nodes = cluster.add_nodes(simulated, stack, boot=False)
    for node in nodes:
        ring.add(node.node_id)
        node.boot()
    churn = None
    if churn_rate > 0:
        churn = PoissonChurn(sim, cluster, event_rate=churn_rate,
                             mean_downtime=mean_downtime)
        churn.start()
    sim.run_for(warmup)
    result = ModeResult(mode="mesh", nodes=n, simulated_nodes=simulated)
    window = _maintenance_window(
        sim, cluster.metrics, ["soft-membership"], simulated, maintenance_window)
    scale = 1.0
    if n > simulated and simulated > 1:
        # Every node heartbeats every peer once per period, so per-node
        # maintenance is exactly linear in (N-1).
        scale = (n - 1) / (simulated - 1)
        result.extrapolated = True
        result.notes = f"measured at N={simulated}, scaled x{scale:.1f} (O(N) per node)"
    result.maint_bytes_per_node_s = window["bytes_per_node_s"] * scale
    result.maint_msgs_per_node_s = window["msgs_per_node_s"] * scale
    # Routing against the shared ring is one hop by construction (each
    # member holds the full ring); lookups need no probes.
    result.mean_hops = 1.0
    result.one_hop_fraction = 1.0
    if churn is not None:
        churn.stop()
    return result


# -- driver -------------------------------------------------------------------


def three_way(
    n: int,
    seed: int = 42,
    churn_rate: Optional[float] = None,
    warmup: float = 10.0,
    maintenance_window: float = 20.0,
    lookups: int = 400,
    mesh_cap: int = 300,
    quarantine_window: float = 5.0,
) -> Dict[str, ModeResult]:
    """Run all three modes at size ``n`` and return rows keyed by mode."""
    if churn_rate is None:
        churn_rate = n / 2000.0  # one event per 2000 node-seconds
    chord = measure_chord(n, seed, churn_rate, warmup, maintenance_window, lookups)
    onehop = measure_onehop(n, seed + 1, churn_rate, warmup, maintenance_window,
                            lookups, quarantine_window=quarantine_window)
    mesh = measure_mesh(n, seed + 2, churn_rate, warmup, maintenance_window,
                        mesh_cap=mesh_cap)
    return {"chord": chord, "onehop": onehop, "mesh": mesh}


def min_hop_ratio(n: int) -> float:
    """Required chord/onehop hop ratio at population size ``n``.

    The headline gate is 4x at N >= 1000. Chord's mean path is
    ~0.5*log2(N)+1, so demanding 4x of an 80-node smoke run is
    impossible no matter how well single-hop routing works; below gate
    scale the requirement tracks chord's actual advantage instead
    (0.4*log2(N), floored at 2x) so small-N CI smokes still assert the
    routing win without diluting the full-scale gate."""
    if n >= 1000:
        return 4.0
    return max(2.0, 0.4 * math.log2(max(n, 4)))


def ratios(rows: Dict[str, ModeResult]) -> Dict[str, float]:
    """Chord's mean hops over onehop's, and onehop's maintenance bytes
    over chord's."""
    chord, onehop = rows["chord"], rows["onehop"]
    return {
        "hop_ratio": chord.mean_hops / onehop.mean_hops if onehop.mean_hops else 0.0,
        "maintenance_byte_ratio": (
            onehop.maint_bytes_per_node_s / chord.maint_bytes_per_node_s
            if chord.maint_bytes_per_node_s
            else float("inf")
        ),
    }


def gate_results(rows: Dict[str, ModeResult]) -> Dict[str, bool]:
    """The e05b gates (evaluated chord vs onehop)."""
    chord, onehop = rows["chord"], rows["onehop"]
    measured = ratios(rows)
    needed = min_hop_ratio(onehop.nodes)
    return {
        "onehop_fraction_ge_99pct": onehop.one_hop_fraction >= 0.99,
        f"hop_ratio_ge_{needed:g}x": measured["hop_ratio"] >= needed,
        "maintenance_within_3x_of_chord": measured["maintenance_byte_ratio"] <= 3.0,
        "lookups_resolved": onehop.lookups_resolved > 0 and chord.lookups_resolved > 0,
    }


def run(*, nodes: int = 1000, seed: int = 7, churn_rate: Optional[float] = None,
        window: float = 20.0, lookups: int = 400, mesh_cap: int = 300) -> Dict[str, Any]:
    """Routing three-way: chord vs heartbeat mesh vs single-hop.

    One row per mode at ``nodes`` under PoissonChurn (``churn_rate``
    crash events/s, default one per 2000 node-seconds): lookup path
    length over ``lookups`` lookups, latency percentiles, and
    steady-state maintenance bytes/node/s over a ``window``-second
    window. The mesh row is simulated up to ``mesh_cap`` nodes and
    scaled beyond (its per-node cost is exactly O(N)). Gates: >= 99 %
    one-hop lookups, a hop reduction vs chord of 4x at N >= 1000
    (log-scaled below), and maintenance within 3x of chord's.
    """
    rows = three_way(nodes, seed=seed, churn_rate=churn_rate,
                     maintenance_window=window, lookups=lookups, mesh_cap=mesh_cap)
    checks = gate_results(rows)
    return {
        "metrics": {
            "n_nodes": nodes,
            "lookups": lookups,
            **ratios(rows),
            "rows": {mode: {k: v for k, v in asdict(row).items() if k != "latencies_ms"}
                     for mode, row in rows.items()},
        },
        "gates": checks,
        "passed": all(checks.values()),
    }


def render(doc: Dict[str, Any]) -> str:
    metrics = doc["metrics"]
    lines = []
    for mode in ("chord", "mesh", "onehop"):
        row = metrics["rows"][mode]
        note = f"  [{row['notes']}]" if row["notes"] else ""
        lookup_part = (
            f"p50 {row['p50_latency_ms']:>6.1f}ms  p99 {row['p99_latency_ms']:>6.1f}ms  "
            f"resolved {row['lookups_resolved']}/{row['lookups_issued']}"
            if row["lookups_issued"]
            else "lookups one-hop by construction"
        )
        lines.append(f"  {mode:<7} hops {row['mean_hops']:>5.2f}  "
                     f"one-hop {row['one_hop_fraction']:>6.1%}  {lookup_part}  "
                     f"maint {row['maint_bytes_per_node_s']:>9,.0f} B/node/s{note}")
    lines.append(f"  hop reduction {metrics['hop_ratio']:.1f}x;  onehop maintenance "
                 f"{metrics['maintenance_byte_ratio']:.2f}x chord's")
    return "\n".join(lines)
