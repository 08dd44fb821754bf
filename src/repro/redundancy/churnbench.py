"""Adaptive-vs-static redundancy under session churn (experiment E6d).

Builds two identical DataDroplets deployments — one whose storage nodes
run the static-r arm (:class:`~repro.baselines.staticrepair.
StaticRepairPolicy`, installed as their stack before ``start()``), one
with the stock adaptive policy — replays the *same* deterministic churn
trace against both, and measures what each spends on redundancy
maintenance (gossip re-dissemination + range-repair), how far each
node's count of its range is from the truth, and what durability it
ends with. The claim under test (C5): when session
lifetimes are long relative to the recovery window, the lifetime-aware
policy maintains fewer replicas and spends markedly less maintenance
traffic at equal post-heal durability.

Used by ``repro bench e06`` (:func:`run` / :func:`render`) and the E6
benchmark suite, which also prints E6c's arithmetic (:func:`walks_needed`).
"""

from __future__ import annotations

import math
import random
import statistics
from typing import Any, Dict, List, Optional

from repro.sieve.coverage import range_population
from repro.sim.churn import ChurnAction, TraceChurn
from repro.sim.cluster import Cluster

#: Protocol streams that constitute redundancy *maintenance* traffic:
#: targeted same-range repair and the gossip fallback re-dissemination
#: (the range count itself sends nothing). Client writes also ride
#: "gossip", which is why byte counts are snapshotted after the preload.
MAINTENANCE_PROTOCOLS = ("gossip", "range-repair")


def walks_needed(n_estimate: float, range_population: float, rel_error: float = 0.5,
                 confidence_z: float = 1.96) -> int:
    """Walk samples a census needs to resolve ``range_population``
    within ``rel_error`` relative error at the given z (E6c's arithmetic
    of claim C4). Shows why per-range counting is drastically cheaper
    than per-tuple: the cost depends on the *range* population (≈ r),
    not on the number of tuples."""
    if range_population <= 0 or n_estimate <= 0:
        raise ValueError("populations must be positive")
    p = min(1.0, range_population / n_estimate)
    if p >= 1.0:
        return 1
    # n >= z^2 (1-p) / (p * e^2) from the binomial proportion CI.
    return max(1, math.ceil(confidence_z**2 * (1 - p) / (p * rel_error**2)))


def count_errors(dd) -> List[float]:
    """|counted − true| range members, one per up storage node that has
    counted: the node's ``last_population`` plus itself against
    :func:`~repro.sieve.coverage.range_population` over the up nodes'
    sieves, computed here and not by any node."""
    managers = [node.protocol("redundancy") for node in dd.storage_nodes if node.is_up]
    truth = range_population([manager.sieve for manager in managers])
    return [abs(manager.last_population + 1.0 - truth[manager.sieve.range_key()])
            for manager in managers if manager.last_population is not None]


def session_trace(
    n_storage: int,
    seed: int,
    duration: float,
    start: float = 0.0,
    mean_lifetime: float = 150.0,
    mean_downtime: float = 20.0,
    churn_fraction: float = 0.5,
    kills: int = 2,
) -> List[ChurnAction]:
    """Deterministic session-churn schedule over ``[start, start+duration]``.

    A ``churn_fraction`` subset of the storage nodes alternates UP/DOWN
    sessions with exponential lifetimes (mean ``mean_lifetime``) and
    downtimes (mean ``mean_downtime``); ``kills`` stable nodes fail
    permanently at evenly spaced times. Every transient churner gets a
    final ``recover`` at ``start + duration`` so both modes heal from
    the same surviving population. Times are absolute simulation times
    (callers pass ``start=sim.now``); indices are storage-node indices.
    """
    if n_storage <= 0:
        raise ValueError("n_storage must be positive")
    if not 0.0 < churn_fraction <= 1.0:
        raise ValueError("churn_fraction must be in (0, 1]")
    rng = random.Random(seed)
    indices = list(range(n_storage))
    rng.shuffle(indices)
    n_churners = max(1, int(round(n_storage * churn_fraction)))
    churners = indices[:n_churners]
    stable = indices[n_churners:]

    actions: List[ChurnAction] = []
    # leave a tail with no fresh crashes so recoveries land inside the run
    crash_horizon = duration - 2.0 * mean_downtime
    for idx in churners:
        t = rng.expovariate(1.0 / mean_lifetime)
        while t < crash_horizon:
            actions.append(ChurnAction(start + t, idx, "crash"))
            t += rng.expovariate(1.0 / mean_downtime)
            if t >= duration:
                break
            actions.append(ChurnAction(start + t, idx, "recover"))
            t += rng.expovariate(1.0 / mean_lifetime)
        # no-op if the node is already UP (TraceChurn only boots DOWN nodes)
        actions.append(ChurnAction(start + duration, idx, "recover"))

    n_kills = min(kills, len(stable))
    for k in range(n_kills):
        when = start + duration * (k + 1) / (n_kills + 1)
        actions.append(ChurnAction(when, stable[k], "kill"))

    actions.sort(key=lambda a: (a.time, a.node_index, a.kind))
    return actions


def adaptive_view(dd) -> Dict[str, Optional[float]]:
    """The adaptive policy's knobs as the up storage node with the most
    completed sessions sees them (each node fits its own estimate)."""
    node = max((n for n in dd.storage_nodes if n.is_up),
               key=lambda n: n.protocol("redundancy").policy.lifetimes.completed_count)
    return node.protocol("redundancy").policy.describe(dd.sim.now)


def _replica_counts(dd, keys: int) -> List[int]:
    """UP-node durable replica count per preloaded key."""
    counts = []
    for i in range(keys):
        counts.append(sum(
            1 for node in dd.storage_nodes
            if node.is_up and f"k{i}" in node.durable["memtable"]
        ))
    return counts


def _maintenance_bytes(dd) -> float:
    return sum(
        dd.metrics.counter_value(f"net.bytes.{proto}")
        for proto in MAINTENANCE_PROTOCOLS
    )


def measure_policies(
    seed: int = 608,
    n_storage: int = 48,
    replication: int = 5,
    keys: int = 40,
    churn_duration: float = 240.0,
    heal_duration: float = 60.0,
    mean_lifetime: float = 150.0,
    mean_downtime: float = 20.0,
    kills: int = 2,
) -> Dict[str, Dict[str, float]]:
    """Run the same churn trace under the static and the adaptive policy.

    Returns ``{mode: metrics}`` where metrics include ``maintenance_bytes``
    (gossip and range-repair bytes spent after the preload),
    ``lost_keys`` (acked writes with no surviving UP replica post-heal),
    ``min_replicas``/``mean_replicas`` post-heal, repair activity
    counters, ``count_error`` (mean of :func:`count_errors` sampled every
    check period from the churn's start to the end of the heal), and —
    for the adaptive mode — :func:`adaptive_view`.
    """
    from repro.baselines.staticrepair import StaticRepairPolicy
    from repro.core.config import DataDropletsConfig
    from repro.core.datadroplets import DataDroplets
    from repro.core.storage import make_storage_stack
    from repro.redundancy.manager import RepairPolicy

    config = DataDropletsConfig(
        seed=seed,
        n_storage=n_storage,
        n_soft=2,
        replication=replication,
        adaptive_min_deaths=6,
        repair=RepairPolicy(check_period=5.0, grace_window=15.0),
    )
    results: Dict[str, Dict[str, float]] = {}
    for mode in ("static", "adaptive"):
        dd = DataDroplets(config)
        if mode == "static":
            stack = make_storage_stack(config, policy=StaticRepairPolicy)
            for node in dd.storage_nodes:
                node.stack_factory = stack
        dd.start(warmup=15.0)
        for i in range(keys):
            dd.put(f"k{i}", {"v": i})
        dd.run_for(20.0)

        counts_before = _replica_counts(dd, keys)
        bytes_before = _maintenance_bytes(dd)

        actions = session_trace(
            n_storage,
            seed=seed,
            duration=churn_duration,
            start=dd.sim.now,
            mean_lifetime=mean_lifetime,
            mean_downtime=mean_downtime,
            kills=kills,
        )
        view = Cluster.view_of(
            dd.sim, dd.cluster.network, list(dd.storage_nodes),
            rng_stream=f"churnbench:{mode}",
        )
        TraceChurn(dd.sim, view, actions)
        errors: List[float] = []
        end = dd.sim.now + churn_duration + heal_duration
        while dd.sim.now < end:
            dd.sim.run_until(min(end, dd.sim.now + config.repair.check_period))
            errors += count_errors(dd)

        counts_after = _replica_counts(dd, keys)
        entered = [i for i in range(keys) if counts_before[i] > 0]
        lost = sum(1 for i in entered if counts_after[i] == 0)
        row: Dict[str, float] = {
            "maintenance_bytes": _maintenance_bytes(dd) - bytes_before,
            "lost_keys": float(lost),
            "min_replicas": float(min(counts_after[i] for i in entered)) if entered else 0.0,
            "mean_replicas": statistics.fmean(counts_after[i] for i in entered) if entered else 0.0,
            "repairs": dd.metrics.counter_value("redundancy.repairs"),
            "targeted_repairs": dd.metrics.counter_value("redundancy.targeted_repairs"),
            "repair_fallbacks": dd.metrics.counter_value("redundancy.repair_fallbacks"),
            "items_redisseminated": dd.metrics.counter_value("redundancy.items_redisseminated"),
            "repair_bytes": dd.metrics.counter_value("redundancy.repair_bytes"),
            "peers_evicted": dd.metrics.counter_value("redundancy.peers_evicted"),
        }
        row["count_error"] = statistics.fmean(errors) if errors else float("nan")
        if mode == "adaptive":
            for key, value in adaptive_view(dd).items():
                row[f"adaptive_{key}"] = value
        results[mode] = row
    return results


def byte_ratio(results: Dict[str, Dict[str, float]]) -> float:
    """Adaptive maintenance bytes over static's."""
    static = results["static"]["maintenance_bytes"]
    return results["adaptive"]["maintenance_bytes"] / static if static else float("inf")


def gates(results: Dict[str, Dict[str, float]]) -> Dict[str, bool]:
    """The e06 gates over :func:`measure_policies`' rows."""
    static, adaptive = results["static"], results["adaptive"]
    return {
        "adaptive_saves_30pct": byte_ratio(results) <= 0.7,
        "no_lost_acked_writes": (static["lost_keys"] == 0
                                 and adaptive["lost_keys"] == 0),
        "replica_floor_2": (static["min_replicas"] >= 2
                            and adaptive["min_replicas"] >= 2),
    }


def run(*, nodes: int = 48, seed: int = 7, churn_duration: float = 240.0,
        heal_duration: float = 60.0, mean_lifetime: float = 150.0) -> Dict[str, Any]:
    """Adaptive vs static redundancy under the same session-churn trace.

    ``nodes`` storage nodes, ``churn_duration`` virtual seconds of
    session churn (mean session ``mean_lifetime`` s) then
    ``heal_duration`` s of healing. One row per mode: maintenance bytes
    after the preload (targeted range repair, gossip fallback), the mean
    |counted − true| members of each node's range, post-heal replica floor/mean, acked writes lost, repair
    activity. Gates: the lifetime-aware policy spends >= 30 % fewer
    maintenance bytes than static-r, with no lost acked write and a
    replica floor >= 2 in both modes.
    """
    results = measure_policies(
        seed=seed, n_storage=nodes, churn_duration=churn_duration,
        heal_duration=heal_duration, mean_lifetime=mean_lifetime)
    checks = gates(results)
    return {
        "metrics": {
            "n_nodes": nodes,
            "seed": seed,
            "churn_duration": churn_duration,
            "heal_duration": heal_duration,
            "mean_lifetime": mean_lifetime,
            "byte_ratio": byte_ratio(results),
            "modes": results,
        },
        "gates": checks,
        "passed": all(checks.values()),
    }


def render(doc: Dict[str, Any]) -> str:
    metrics = doc["metrics"]
    lines = []
    for mode in ("static", "adaptive"):
        row = metrics["modes"][mode]
        lines.append(f"  {mode:<8} maint {row['maintenance_bytes']:>12,.0f} B  "
                     f"lost {row['lost_keys']:.0f}  "
                     f"replicas min {row['min_replicas']:.0f} / "
                     f"mean {row['mean_replicas']:.2f}  "
                     f"repairs {row['repairs']:.0f} "
                     f"({row['targeted_repairs']:.0f} targeted, "
                     f"{row['repair_fallbacks']:.0f} fallback)  "
                     f"count error {row['count_error']:.2f} nodes")
    adaptive = metrics["modes"]["adaptive"]
    if adaptive.get("adaptive_survival") is not None:
        lines.append(f"  adaptive view: survival/window "
                     f"{adaptive['adaptive_survival']:.3f}, raw target "
                     f"{adaptive['adaptive_raw_target']:.0f}, check period "
                     f"{adaptive['adaptive_check_period']:.1f}s, "
                     f"{adaptive['adaptive_completed_sessions']:.0f} completed sessions")
    ratio = metrics["byte_ratio"]
    lines.append(f"  adaptive maintenance spend: {ratio:.2f}x static "
                 f"({1.0 - ratio:.1%} saved)")
    return "\n".join(lines)
