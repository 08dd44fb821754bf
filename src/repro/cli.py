"""Command-line interface: quick demos without writing any code.

Usage::

    python -m repro demo                 # boot a system, CRUD + scan + aggregate
    python -m repro churn --rate 1.0     # availability under churn
    python -m repro estimate -n 300      # size-estimation convergence demo
    python -m repro info                 # inventory and experiment index
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import DataDroplets, DataDropletsConfig, IndexSpec, __version__


def _cmd_info(args: argparse.Namespace) -> int:
    print(f"DataDroplets reproduction v{__version__}")
    print("paper: Matos, Vilaça, Pereira, Oliveira — DSN 2011")
    print()
    print("subsystems: sim, membership, epidemic, estimation, sieve,")
    print("            randomwalk, redundancy, overlay, store, softstate,")
    print("            core, baselines (one-hop DHT + Chord), workloads,")
    print("            processing, runtime (asyncio/UDP)")
    print()
    print("experiments: pytest benchmarks/ --benchmark-only -s   (E1..E13)")
    print("tests:       pytest tests/")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    config = DataDropletsConfig(
        n_storage=args.nodes,
        n_soft=3,
        replication=args.replication,
        indexes=(IndexSpec("score", lo=0, hi=100),),
        seed=args.seed,
    )
    print(f"booting {config.n_storage} storage + {config.n_soft} soft nodes ...")
    dd = DataDroplets(config).start(warmup=20.0)
    for i in range(30):
        dd.put(f"demo:{i}", {"score": float((i * 17) % 100), "name": f"row-{i}"})
    dd.run_for(45.0)
    print("get demo:3       ->", dd.get("demo:3"))
    rows = dd.scan("score", 20, 60)
    print(f"scan score 20-60 -> {len(rows)} rows")
    print("avg(score)       -> %.2f" % dd.aggregate("score", "avg"))
    print("count            -> %.1f" % dd.aggregate("score", "count"))
    copies = sum(1 for n in dd.storage_nodes if "demo:3" in n.durable["memtable"])
    print(f"replicas of demo:3: {copies}")
    print(f"virtual time elapsed: {dd.sim.now:.0f}s; "
          f"messages: {dd.metrics.counter_value('net.sent.total'):,.0f}")
    return 0


def _cmd_churn(args: argparse.Namespace) -> int:
    from repro import TimeoutError_, UnavailableError

    dd = DataDroplets(DataDropletsConfig(
        n_storage=args.nodes, n_soft=2, replication=args.replication, seed=args.seed,
    )).start(warmup=15.0)
    keys = 25
    for i in range(keys):
        dd.put(f"k{i}", {"v": i})
    dd.run_for(20.0)
    churn = dd.churn(event_rate=args.rate, mean_downtime=args.downtime)
    churn.start()
    dd.run_for(args.duration)
    ok = 0
    for i in range(keys):
        try:
            if dd.get(f"k{i}") == {"v": i}:
                ok += 1
        except (UnavailableError, TimeoutError_):
            pass
    churn.stop()
    up = sum(1 for n in dd.storage_nodes if n.is_up)
    print(f"churn rate {args.rate}/s for {args.duration:.0f}s: "
          f"{churn.crashes} crashes, {up}/{args.nodes} up at the end")
    print(f"read availability: {ok}/{keys} ({ok / keys:.1%})")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    import statistics

    from repro.estimation import ExtremaSizeEstimator
    from repro.membership import CyclonProtocol
    from repro.sim import Cluster, Simulation, UniformLatency

    sim = Simulation(seed=args.seed)
    cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
    factory = lambda node: [
        CyclonProtocol(view_size=12, shuffle_size=6, period=1.0),
        ExtremaSizeEstimator(k=args.k, period=0.5),
    ]
    nodes = cluster.add_nodes(args.nodes, factory)
    cluster.seed_views("membership", 4)
    for checkpoint in (5, 10, 20, 40):
        sim.run_until(float(checkpoint))
        estimates = [n.protocol("size-estimator").estimate() for n in nodes]
        mean = statistics.fmean(estimates)
        print(f"t={checkpoint:>3}s  mean estimate {mean:8.1f}  "
              f"(true {args.nodes}, err {abs(mean - args.nodes) / args.nodes:.1%})")
    return 0


def _sweep_coverage_cell(config: dict, seed: int) -> dict:
    """One sweep cell: eager-gossip coverage at a given fanout.

    Module-level so :func:`repro.sim.sweep.run_sweep` can ship it to
    worker processes; all randomness flows from ``seed``.
    """
    from repro.epidemic import EagerGossip
    from repro.membership import CyclonProtocol
    from repro.sim import Cluster, Simulation, UniformLatency

    sim = Simulation(seed=seed)
    cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
    fanout = config["fanout"]

    def factory(node):
        return [
            CyclonProtocol(view_size=14, shuffle_size=7, period=1.0),
            EagerGossip(fanout=fanout),
        ]

    nodes = cluster.add_nodes(config["nodes"], factory)
    cluster.seed_views("membership", 5)
    sim.run_for(10.0)
    nodes[0].protocol("gossip").broadcast("probe", {"pad": "x" * 64})
    sim.run_for(config["duration"])
    reached = sum(1 for node in nodes if node.protocol("gossip").has_seen("probe"))
    return {
        "coverage": reached / config["nodes"],
        "messages": cluster.metrics.counter_value("net.sent.total"),
        "bytes": cluster.metrics.counter_value("net.bytes.total"),
    }


def _cmd_sweep(args: argparse.Namespace) -> int:
    import statistics

    from repro.sim.sweep import grid, run_sweep

    fanouts = [int(f) for f in args.fanouts.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")]
    configs = [
        {"fanout": fanout, "nodes": args.nodes, "duration": args.duration}
        for fanout in fanouts
    ]
    cells = grid(configs, seeds)
    print(f"sweep: {len(fanouts)} fanouts x {len(seeds)} seeds = {len(cells)} cells, "
          f"workers={args.workers or 'auto'}")
    results = run_sweep(_sweep_coverage_cell, cells, workers=args.workers)
    print(f"{'fanout':>6}  {'coverage (mean)':>15}  {'min':>7}  {'max':>7}  {'msgs (mean)':>12}")
    failed = 0
    for fanout in fanouts:
        rows = [r for r in results if r.ok and r.config["fanout"] == fanout]
        failed += sum(1 for r in results if not r.ok and r.config["fanout"] == fanout)
        if not rows:
            continue
        coverages = [r.result["coverage"] for r in rows]
        messages = statistics.fmean(r.result["messages"] for r in rows)
        print(f"{fanout:>6}  {statistics.fmean(coverages):>15.3f}  "
              f"{min(coverages):>7.3f}  {max(coverages):>7.3f}  {messages:>12,.0f}")
    if failed:
        print(f"warning: {failed} cell(s) failed")
        return 1
    return 0


def _usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


def _write_artifact(bench_id: str, metrics: dict, gates: dict) -> None:
    """Drop ``BENCH_<id>.json`` in the working directory.

    Uses the shared writer in ``benchmarks/_helpers.py`` when running
    from a repo checkout so the CLI and the pytest benches produce the
    same artifact shape; falls back to an inline writer with the
    identical layout when the benchmarks tree is not present (installed
    package).
    """
    import importlib.util
    import json
    import os
    import time

    path = None
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
    helper = os.path.join(root, "benchmarks", "_helpers.py")
    if os.path.exists(helper):
        try:
            spec = importlib.util.spec_from_file_location("_repro_bench_helpers", helper)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            path = module.write_artifact(bench_id, metrics, gates)
        except Exception:  # noqa: BLE001 - artifact writing must never fail a bench
            path = None
    if path is None:
        doc = {
            "id": bench_id,
            "unix_time": time.time(),
            "metrics": metrics,
            "gates": dict(gates),
            "passed": all(gates.values()),
        }
        path = os.path.join(os.getcwd(), f"BENCH_{bench_id}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
    print(f"artifact: {path}")


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.experiment == "e05b":
        return _bench_e05b(args)
    if args.experiment == "e06":
        return _bench_e06(args)
    if args.experiment == "e16":
        return _bench_e16(args)
    if args.experiment == "e17":
        return _bench_e17(args)
    if args.experiment == "e18":
        return _bench_e18(args)
    if args.experiment == "e19":
        return _bench_e19(args)
    if args.experiment != "e15":
        print(f"unknown bench {args.experiment!r}; available: "
              "e05b, e06, e15, e16, e17, e18, e19",
              file=sys.stderr)
        return 2
    from repro.epidemic.costbench import measure_antientropy_cost

    items = args.items if args.items is not None else 2000
    print(f"e15: anti-entropy cost, {items} items, "
          f"{args.divergence:.2%} divergence, B={args.buckets}")
    results = []
    for bucketed in (False, True):
        cell = measure_antientropy_cost(
            items, args.divergence, bucketed=bucketed,
            buckets=args.buckets, seed=args.seed,
        )
        results.append(cell)
        converged = "n/a" if cell["converged_at"] is None else f"{cell['converged_at']:.0f}s"
        print(f"  {cell['path']:<8}  digest {cell['digest_bytes_per_round']:>12,.0f} B/round  "
              f"items {cell['items_bytes']:>10,.0f} B  converged {converged:>4}  "
              f"identical {cell['identical']}  wall {cell['wall_s']:.3f}s")
    baseline, bucketed = results
    ratio = (baseline["digest_bytes_per_round"] / bucketed["digest_bytes_per_round"]
             if bucketed["digest_bytes_per_round"] else float("inf"))
    print(f"digest-byte reduction: {ratio:.1f}x")
    if args.check:
        gates = {
            "digest_reduction_2x": ratio >= 2.0,
            "stores_identical": bool(baseline["identical"] and bucketed["identical"]),
            "both_converged": (baseline["converged_at"] is not None
                               and bucketed["converged_at"] is not None),
        }
        ok = all(gates.values())
        _write_artifact("e15", {
            "items": items,
            "divergence": args.divergence,
            "digest_reduction": ratio,
            "cells": results,
        }, gates)
        print("check:", "ok" if ok else "FAILED "
              "(need >=2x digest reduction and identical converged stores)")
        return 0 if ok else 1
    return 0


def _bench_e05b(args: argparse.Namespace) -> int:
    """Routing three-way: Chord vs heartbeat-mesh ring vs single-hop.

    One row per mode at the same population size under PoissonChurn:
    lookup path length (messages to reach the key's coordinator),
    latency percentiles, and steady-state maintenance bytes/node/s.
    The mesh row is simulated up to ``--mesh-cap`` nodes and linearly
    extrapolated beyond (per-node heartbeat cost is exactly O(N));
    chord and onehop rows are always fully simulated.
    """
    from repro.baselines.routebench import gate_results, three_way

    n = args.nodes if args.nodes is not None else (10_000 if args.stretch else 1_000)
    churn = args.churn_rate  # None -> one event per 2000 node-seconds
    print(f"e05b: routing three-way, N={n:,}, "
          f"{args.lookups} lookups, seed {args.seed}")
    rows = three_way(
        n,
        seed=args.seed,
        churn_rate=churn,
        maintenance_window=args.window,
        lookups=args.lookups,
        mesh_cap=args.mesh_cap,
    )
    for mode in ("chord", "mesh", "onehop"):
        row = rows[mode]
        note = f"  [{row.notes}]" if row.notes else ""
        lookup_part = (
            f"p50 {row.p50_latency_ms:>6.1f}ms  p99 {row.p99_latency_ms:>6.1f}ms  "
            f"resolved {row.lookups_resolved}/{row.lookups_issued}"
            if row.lookups_issued
            else "lookups one-hop by construction"
        )
        print(f"  {mode:<7} hops {row.mean_hops:>5.2f}  "
              f"one-hop {row.one_hop_fraction:>6.1%}  {lookup_part}  "
              f"maint {row.maint_bytes_per_node_s:>9,.0f} B/node/s{note}")
    chord, onehop = rows["chord"], rows["onehop"]
    hop_ratio = chord.mean_hops / onehop.mean_hops if onehop.mean_hops else 0.0
    byte_ratio = (onehop.maint_bytes_per_node_s / chord.maint_bytes_per_node_s
                  if chord.maint_bytes_per_node_s else float("inf"))
    print(f"  hop reduction {hop_ratio:.1f}x;  onehop maintenance "
          f"{byte_ratio:.2f}x chord's")
    if args.check:
        gates = gate_results(rows)
        ok = all(gates.values())
        _write_artifact("e05b", {
            "n_nodes": n,
            "lookups": args.lookups,
            "hop_ratio": hop_ratio,
            "maintenance_byte_ratio": byte_ratio,
            "rows": {
                mode: {
                    "nodes": row.nodes,
                    "simulated_nodes": row.simulated_nodes,
                    "mean_hops": row.mean_hops,
                    "one_hop_fraction": row.one_hop_fraction,
                    "p50_latency_ms": row.p50_latency_ms,
                    "p99_latency_ms": row.p99_latency_ms,
                    "maint_bytes_per_node_s": row.maint_bytes_per_node_s,
                    "maint_msgs_per_node_s": row.maint_msgs_per_node_s,
                    "lookups_resolved": row.lookups_resolved,
                    "lookups_issued": row.lookups_issued,
                    "extrapolated": row.extrapolated,
                }
                for mode, row in rows.items()
            },
        }, gates)
        print("check:", "ok" if ok else "FAILED "
              "(need >=99% one-hop lookups, >=4x hop reduction vs chord, "
              "and maintenance within 3x of chord's)")
        return 0 if ok else 1
    return 0


def _bench_e06(args: argparse.Namespace) -> int:
    """Adaptive-vs-static redundancy under the same session-churn trace.

    One row per redundancy mode: maintenance bytes spent after the
    preload (census walks + targeted range repair + gossip fallback),
    post-heal replica floor/mean, acked writes lost, and repair
    activity. The ``--check`` gate requires the lifetime-aware policy to
    spend >= 30% fewer maintenance bytes than static-r at equal
    durability (no lost acked write, replica floor >= 2, both modes).
    """
    from repro.redundancy.churnbench import measure_redundancy_modes

    n = args.nodes if args.nodes is not None else 48
    print(f"e06: adaptive vs static redundancy, N={n}, "
          f"churn {args.churn_duration:g}s + heal {args.heal_duration:g}s, "
          f"mean lifetime {args.mean_lifetime:g}s, seed {args.seed}")
    results = measure_redundancy_modes(
        seed=args.seed,
        n_storage=n,
        churn_duration=args.churn_duration,
        heal_duration=args.heal_duration,
        mean_lifetime=args.mean_lifetime,
    )
    for mode in ("static", "adaptive"):
        row = results[mode]
        print(f"  {mode:<8} maint {row['maintenance_bytes']:>12,.0f} B  "
              f"lost {row['lost_keys']:.0f}  "
              f"replicas min {row['min_replicas']:.0f} / "
              f"mean {row['mean_replicas']:.2f}  "
              f"repairs {row['repairs']:.0f} "
              f"({row['targeted_repairs']:.0f} targeted, "
              f"{row['repair_fallbacks']:.0f} fallback)  "
              f"censuses {row['censuses']:,.0f}")
    adaptive, static = results["adaptive"], results["static"]
    if adaptive.get("adaptive_survival") is not None:
        print(f"  adaptive view: survival/window "
              f"{adaptive['adaptive_survival']:.3f}, raw target "
              f"{adaptive['adaptive_raw_target']:.0f}, census period "
              f"{adaptive['adaptive_check_period']:.1f}s, "
              f"{adaptive['adaptive_completed_sessions']:.0f} completed sessions")
    ratio = (adaptive["maintenance_bytes"] / static["maintenance_bytes"]
             if static["maintenance_bytes"] else float("inf"))
    print(f"  adaptive maintenance spend: {ratio:.2f}x static "
          f"({1.0 - ratio:.1%} saved)")
    if args.check:
        gates = {
            "adaptive_saves_30pct": ratio <= 0.7,
            "no_lost_acked_writes": (static["lost_keys"] == 0
                                     and adaptive["lost_keys"] == 0),
            "replica_floor_2": (static["min_replicas"] >= 2
                                and adaptive["min_replicas"] >= 2),
        }
        ok = all(gates.values())
        _write_artifact("e06", {
            "n_nodes": n,
            "seed": args.seed,
            "churn_duration": args.churn_duration,
            "heal_duration": args.heal_duration,
            "mean_lifetime": args.mean_lifetime,
            "byte_ratio": ratio,
            "modes": results,
        }, gates)
        print("check:", "ok" if ok else "FAILED "
              "(need >=30% maintenance-byte savings at zero lost acked "
              "writes and replica floor >= 2 in both modes)")
        return 0 if ok else 1
    return 0


def _bench_e16(args: argparse.Namespace) -> int:
    from repro.baselines import jsonwire
    from repro.common.codec import BinaryCodec
    from repro.runtime.wirebench import codec_throughput, json_wire_cost, measure_wire_cost

    items = args.items if args.items is not None else 60
    nodes = args.nodes if args.nodes is not None else 12
    print(f"e16: wire cost, {items} messages x fanout {args.fanout} "
          f"over {nodes} UDP nodes")
    base_port = 32300
    # The baseline is the wire before the binary codec: JSON, one datagram
    # per send. No node speaks it any more; it is priced from the send
    # schedule. The two binary cells run on sockets.
    cells = [json_wire_cost(n_nodes=nodes, n_items=items, fanout=args.fanout,
                            base_port=base_port, seed=args.seed)]
    for coalesce in (False, True):
        cells.append(measure_wire_cost(
            coalesce=coalesce, n_nodes=nodes, n_items=items, fanout=args.fanout,
            base_port=base_port, seed=args.seed,
        ))
        base_port += nodes + 10
    for cell in cells:
        mode = "coalesced" if cell["coalesce"] else "1 msg/datagram"
        wall = f"wall {cell['wall_s']:.3f}s" if "wall_s" in cell else "from the send schedule"
        print(f"  {cell['codec']:<7} {mode:<15} {cell['bytes_per_message']:>7.1f} B/msg  "
              f"{cell['datagrams']:>6,.0f} datagrams  "
              f"{cell['coalesced_messages']:>5,.0f} coalesced  {wall}")
    for name, codec in (("json", jsonwire.Codec()), ("binary", BinaryCodec())):
        tput = codec_throughput(codec)
        print(f"  {name:<7} encode {tput['encode_msgs_per_s']:>10,.0f} msg/s  "
              f"decode {tput['decode_msgs_per_s']:>10,.0f} msg/s  "
              f"{tput['bytes_per_frame']:>7.1f} B/frame")
    baseline, uncoalesced, optimised = cells
    byte_ratio = (baseline["bytes_per_message"] / optimised["bytes_per_message"]
                  if optimised["bytes_per_message"] else float("inf"))
    datagram_ratio = (baseline["datagrams"] / optimised["datagrams"]
                      if optimised["datagrams"] else float("inf"))
    identical = uncoalesced["delivered"] == optimised["delivered"]
    print(f"payload reduction: {byte_ratio:.1f}x  datagram reduction: "
          f"{datagram_ratio:.1f}x  identical delivery: {identical}")
    if args.check:
        gates = {
            "payload_reduction_2x": byte_ratio >= 2.0,
            "datagram_reduction_2x": datagram_ratio >= 2.0,
            "delivery_identical": identical,
        }
        ok = all(gates.values())
        _write_artifact("e16", {
            "messages": items,
            "fanout": args.fanout,
            "nodes": nodes,
            "payload_reduction": byte_ratio,
            "datagram_reduction": datagram_ratio,
            "cells": cells,
        }, gates)
        print("check:", "ok" if ok else "FAILED "
              "(need >=2x payload and datagram reduction with identical "
              "delivered multiset)")
        return 0 if ok else 1
    return 0


def _scale_completed(replicas: dict) -> bool:
    """e17's scale gate: every broadcast item was placed on >= 1 replica."""
    return bool(replicas) and all(count > 0 for count in replicas.values())


def _bench_e17(args: argparse.Namespace) -> int:
    """Paper-scale sharded dissemination + vectorised sieve admission.

    Measures (a) how far the sharded engine moves the N-ceiling of one
    simulated dissemination run, (b) that the sharded run is
    byte-identical to the single-process reference under churn + loss
    at a cross-check N, and (c) the batched sieve-admission speedup.

    The shard-speedup gate is CPU-aware: carving one simulation into K
    worker processes can only pay off when the machine actually has
    cores to run them on, so ``--min-speedup`` is enforced only when at
    least 4 usable CPUs are present — on smaller machines the bench
    still runs everything and reports parallel efficiency, and the gate
    is recorded as skipped rather than silently passed.
    """
    from repro.sieve.vectorized import measure_admission
    from repro.sim.shardbench import measure_scale, verify_determinism

    n = args.nodes if args.nodes is not None else (100_000 if args.stretch else 50_000)
    shards = args.shards
    duration = args.duration
    cpus = _usable_cpus()
    config = {"broadcasts": 3, "fanout": 5}
    print(f"e17: sharded scale, N={n:,} for {duration:g}s virtual, "
          f"{shards} shards on {cpus} usable cpu(s)")

    # Sharded first: the workers fork while the parent is still small.
    # (Forking after the single-process run copies-on-write a dead
    # N-node object graph into every worker, which badly skews the
    # comparison on memory-bound machines.)
    sharded = measure_scale(n, shards, duration=duration, seed=args.seed, config=config)
    single = measure_scale(n, 1, duration=duration, seed=args.seed, config=config)
    speedup = single.wall_seconds / sharded.wall_seconds if sharded.wall_seconds else 0.0
    replicas = single.canonical()["data"].get("replicas", {})
    coverage = single.canonical()["data"].get("coverage", {})
    print(f"  1 shard   {single.wall_seconds:>8.2f}s wall")
    print(f"  {shards} shards  {sharded.wall_seconds:>8.2f}s wall  "
          f"speedup {speedup:.2f}x")
    print(f"  coverage: {sum(coverage.values()):,.0f}/{n * len(coverage):,} "
          f"node-items;  replicas/item: "
          f"{sorted(int(v) for v in replicas.values())}")

    cross_n = args.cross_check_n
    cross = verify_determinism(cross_n, shards, duration=4.0, seed=args.seed + 1)
    print(f"  determinism cross-check (N={cross_n}, churn+loss): "
          f"{'identical' if cross['identical'] else 'DIVERGED'}")

    sieve = measure_admission()
    print(f"  sieve admission, {sieve['n_keys']:,} keys: scalar "
          f"{sieve['scalar_seconds'] * 1e3:.1f}ms; "
          f"batch {sieve['speedup']:.1f}x; "
          f"identical {sieve['identical']}")

    if not args.check:
        return 0

    enforce_speedup = cpus >= 4 and shards >= 2
    gates = {
        "scale_completed": _scale_completed(replicas),
        "determinism_identical": bool(cross["identical"]),
        "sieve_speedup_3x": sieve["speedup"] >= 3.0,
        "sieve_identical": bool(sieve["identical"]),
    }
    if enforce_speedup:
        gates["shard_speedup"] = speedup >= args.min_speedup
    else:
        print(f"  note: shard-speedup gate (>= {args.min_speedup:g}x) skipped — "
              f"needs >= 4 usable cpus, have {cpus}")
    ok = all(gates.values())
    _write_artifact("e17", {
        "n_nodes": n,
        "shards": shards,
        "duration": duration,
        "usable_cpus": cpus,
        "single_wall_s": single.wall_seconds,
        "sharded_wall_s": sharded.wall_seconds,
        "shard_speedup": speedup,
        "speedup_gate": ("enforced" if enforce_speedup else "skipped: <4 cpus"),
        "replicas": replicas,
        "cross_check_n": cross_n,
        "sieve": sieve,
    }, gates)
    print("check:", "ok" if ok else "FAILED (see gates in BENCH_e17.json)")
    return 0 if ok else 1


def _bench_e18(args: argparse.Namespace) -> int:
    """Self-stabilisation under state corruption.

    Runs corruption-nemesis checking campaigns over a handful of seeds
    and aggregates the convergence monitor's annotations: every injected
    corruption (version flips, poisoned summaries, sieve desync,
    fallback truncation) must be *detected* by the system's own
    protocols and *healed* within the anti-entropy round bound, with
    zero checker violations. The per-kind heal-round histogram is the
    experiment's headline figure.
    """
    from repro.check.stabbench import measure_selfstabilisation

    seeds = 5
    bound = 8
    print(f"e18: self-stabilisation, {seeds} corruption campaigns, "
          f"heal bound {bound} rounds")
    result = measure_selfstabilisation(
        seeds=seeds, seed_base=args.seed, bound_rounds=bound)
    for kind, cell in sorted(result["by_kind"].items()):
        hist = ", ".join(f"{r}r:{n}" for r, n in sorted(
            cell["heal_rounds"].items(), key=lambda kv: int(kv[0])))
        print(f"  {kind:<18} injected {cell['injected']:>2}  "
              f"detected {cell['detected']:>2}  healed {cell['healed']:>2}  "
              f"rounds [{hist or '-'}]")
    print(f"  total: {result['injected']} injected, "
          f"{result['detected']} detected, {result['healed']} healed, "
          f"max {result['max_rounds']} round(s), "
          f"{result['violations']} checker violation(s), "
          f"wall {result['wall_s']:.1f}s")

    if not args.check:
        return 0
    gates = {
        "corruptions_injected": result["injected"] > 0,
        "all_detected": result["detected"] == result["injected"],
        "all_healed": result["healed"] == result["injected"],
        "healed_within_bound": result["max_rounds"] <= bound,
        "no_violations": result["violations"] == 0,
    }
    ok = all(gates.values())
    _write_artifact("e18", result, gates)
    print("check:", "ok" if ok else "FAILED (see gates in BENCH_e18.json)")
    return 0 if ok else 1


def _bench_e19(args: argparse.Namespace) -> int:
    """Graceful degradation under multi-tenant overload.

    Three cells of the production-traffic workload (gold/silver steady
    tenants with declared SLOs + a bulk aggressor with a moving hotspot
    and a mid-run flash crowd): gated at 1x, gated at the overload
    multiple, and an ungated control at the same overload. The gates
    assert that with per-tenant fair shedding the in-SLO tenants keep
    their declared p99 and total goodput degrades gracefully, while the
    unprotected control collapses.
    """
    from repro.obs.slobench import (
        SloBenchConfig, measure_graceful_degradation, render_report,
    )

    cfg = SloBenchConfig(
        nodes=args.nodes if args.nodes is not None else 48,
        soft=args.soft,
        seed=args.seed,
        duration=args.slo_duration,
        rate=args.rate,
        overload=args.overload,
        trace_out=args.trace_out,
    )
    print(f"e19: SLO overload, {cfg.nodes} storage nodes, "
          f"{cfg.duration:g}s at {cfg.rate:g} ops/s base "
          f"({cfg.overload:g}x aggressor overload, "
          f"capacity {cfg.capacity:g} ops/s)")
    doc = measure_graceful_degradation(cfg)
    print(render_report(doc))
    if cfg.trace_out:
        print(f"trace: {doc['metrics']['trace_events']} events "
              f"-> {cfg.trace_out}")
    if not args.check:
        return 0
    ok = bool(doc["passed"])
    _write_artifact("e19", doc["metrics"], doc["gates"])
    print("check:", "ok" if ok else "FAILED (see gates in BENCH_e19.json)")
    return 0 if ok else 1


def _cmd_sim(args: argparse.Namespace) -> int:
    """Run the stock sharded dissemination workload once."""
    from repro.sim.shardbench import measure_scale

    config = {
        "degree": args.degree,
        "fanout": args.fanout,
        "broadcasts": args.broadcasts,
    }
    print(f"sim: N={args.nodes:,}, {args.shards} shard(s), "
          f"{args.duration:g}s virtual, seed {args.seed}")
    result = measure_scale(
        args.nodes, args.shards, duration=args.duration, seed=args.seed,
        config=config)
    canonical = result.canonical()
    coverage = canonical["data"].get("coverage", {})
    replicas = canonical["data"].get("replicas", {})
    print(f"wall: {result.wall_seconds:.2f}s; events: {result.events:,}")
    for item in sorted(coverage):
        print(f"  {item}: coverage {coverage[item]:,.0f}/{args.nodes:,}  "
              f"replicas {replicas.get(item, 0):,.0f}")
    sent = result.counters.get("net.sent.total", 0.0)
    remote = result.counters.get("net.shard.remote_sent", 0.0)
    print(f"messages: {sent:,.0f} sent"
          + (f", {remote:,.0f} cross-shard ({remote / sent:.1%})" if sent and remote
             else ""))
    if args.cross_check:
        other = 1 if args.shards > 1 else 2
        check = measure_scale(
            args.nodes, other, duration=args.duration, seed=args.seed,
            config=config)
        identical = check.canonical() == canonical
        print(f"cross-check vs {other} shard(s): "
              f"{'identical' if identical else 'DIVERGED'}")
        return 0 if identical else 1
    return 0


def _record_trace(args: argparse.Namespace, path: str) -> None:
    """Run a small traced deployment and export its event log."""
    config = DataDropletsConfig(
        n_storage=args.nodes,
        n_soft=2,
        replication=args.replication,
        seed=args.seed,
        tracing=True,
    )
    print(f"recording: {config.n_storage} storage nodes, {args.ops} ops ...")
    dd = DataDroplets(config).start(warmup=15.0)
    for i in range(args.ops):
        dd.put(f"trace:{i}", {"score": float(i), "name": f"row-{i}"})
    if args.ops:
        dd.get("trace:0")
    dd.run_for(15.0)
    written = dd.export_trace(path)
    print(f"{written} events -> {path}")


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.analyze import (
        attribute_tail, load_traces, render_summary, render_tail_attribution,
        summarize,
    )

    path = args.path or "trace.jsonl"
    if args.record:
        _record_trace(args, path)
    elif args.path is None:
        print("trace: need a JSONL path to analyze, or --record", file=sys.stderr)
        return 2
    traces = load_traces(path)
    summaries = summarize(traces)
    if args.tenant is not None:
        keep = {s.trace_id for s in summaries if s.tenant == args.tenant}
        if not keep:
            print(f"trace: no traces for tenant {args.tenant!r}",
                  file=sys.stderr)
            return 2
        traces = {tid: tr for tid, tr in traces.items() if tid in keep}
        summaries = [s for s in summaries if s.trace_id in keep]
    print(render_summary(summaries, limit=args.limit, show_paths=args.paths))
    # Per-tenant attribution of the slow tail: which protocol phase the
    # p99 operations actually spent their time in.
    attribution = attribute_tail(traces, q=args.quantile, summaries=summaries)
    if attribution:
        print()
        print(render_tail_attribution(attribution, q=args.quantile))
    if args.check:
        connected = sum(1 for s in summaries if s.connected)
        ok = bool(summaries) and connected == len(summaries)
        print("check:", "ok" if ok else
              f"FAILED ({connected}/{len(summaries)} traces connected)")
        return 0 if ok else 1
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.obs.export import (
        CounterWindows, metrics_json, prometheus_text, render_windows_report,
    )
    from repro.obs.slo import TENANT_PREFIX, SloTracker, escape_tenant

    tenant_filter = None
    if args.tenant is not None:
        tenant_filter = f"tenant.{escape_tenant(args.tenant)}."

    if args.path is not None:
        with open(args.path) as fh:
            doc = json.load(fh)
        print(render_windows_report(doc, last=args.last,
                                    name_filter=tenant_filter))
        return 0

    config = DataDropletsConfig(
        n_storage=args.nodes, n_soft=2, replication=4, seed=args.seed,
    )
    print(f"sampling: {config.n_storage} storage nodes, "
          f"{args.duration:.0f}s at {args.period:g}s windows ...")
    dd = DataDroplets(config).start(warmup=10.0)
    # The tracker turns the facade's OpTraces into tenant.* families so
    # the export formats below have per-tenant series to show.
    SloTracker(dd.metrics, {}, window=args.duration).attach(dd)
    windows = CounterWindows(dd.metrics, prefixes=("net.", TENANT_PREFIX))
    windows.attach(dd.sim, period=args.period)
    tenants = ("alpha", "beta")
    for i in range(25):
        dd.put(f"m:{i}", {"v": i}, tenant=tenants[i % len(tenants)])
    dd.run_for(args.duration)
    windows.detach()

    if args.format == "prom":
        text = prometheus_text(dd.metrics, tenant_top_k=args.tenant_top_k)
        if tenant_filter is not None:
            prom_needle = tenant_filter.replace(".", "_")
            text = "".join(line + "\n" for line in text.splitlines()
                           if prom_needle in line)
    elif args.format == "json":
        doc = metrics_json(dd.metrics, windows,
                           tenant_top_k=args.tenant_top_k)
        if tenant_filter is not None:
            doc = {section: {name: value for name, value in values.items()
                             if tenant_filter in name}
                   for section, values in doc.items()
                   if isinstance(values, dict)}
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = render_windows_report(
            metrics_json(dd.metrics, windows,
                         tenant_top_k=args.tenant_top_k),
            last=args.last, name_filter=tenant_filter) + "\n"
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"written to {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    """Run one production-traffic cell and print the per-tenant SLO table."""
    from repro.obs.slobench import SloBenchConfig, run_cell

    cfg = SloBenchConfig(
        nodes=args.nodes, soft=args.soft, seed=args.seed,
        duration=args.duration, rate=args.rate,
    )
    label = f"{args.scale:g}x-{args.mode}"
    print(f"slo: {cfg.nodes} storage nodes, {cfg.duration:g}s at "
          f"{cfg.rate:g} ops/s base ({label}, capacity "
          f"{cfg.capacity:g} ops/s)")
    cell = run_cell(cfg, args.mode, args.scale, label,
                    trace_out=args.trace_out)
    print(cell.report)
    shed = ", ".join(f"{t}={n:g}" for t, n in sorted(cell.shed.items()))
    admitted = ", ".join(f"{t}={n:g}" for t, n in sorted(cell.admitted.items()))
    print(f"goodput: {cell.goodput:.1f} ops/s "
          f"({cell.offered} offered over {cfg.duration:g}s)")
    print(f"admitted: {admitted}")
    print(f"shed: {shed}")
    print(f"max queue depth: {cell.queue_depth_max:g}")
    if args.trace_out:
        print(f"trace: {cell.trace_events} events -> {args.trace_out} "
              f"(analyze with 'repro trace {args.trace_out}')")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    import json

    from repro.check.explorer import explore, replay

    if args.replay is not None:
        with open(args.replay) as fh:
            artifact = json.load(fh)
        reproduced = replay(artifact, progress=print)
        print("replay:", "all failures reproduced" if reproduced
              else "FAILED to reproduce")
        return 0 if reproduced else 1

    report = explore(
        args.seeds,
        seed_base=args.seed_base,
        quick=args.quick,
        break_repair=args.break_repair,
        floor=args.floor,
        shrink=not args.no_shrink,
        progress=print,
        redundancy_mode=args.redundancy_mode,
        nemesis_mode=args.nemesis,
        break_audit=args.break_audit,
        bound_rounds=args.bound_rounds,
    )
    if args.artifact is not None:
        with open(args.artifact, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"artifact written to {args.artifact}")
    failures = report["failures"]
    passed = args.seeds - len(failures)
    print(f"check: {passed}/{args.seeds} cases clean, {len(failures)} failing")
    if args.expect_violation:
        if failures:
            print("expected violation confirmed")
            return 0
        print("FAILED: no violation produced (checkers may be broken)")
        return 1
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DataDroplets (DSN 2011) reproduction — demos",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="inventory and experiment index").set_defaults(fn=_cmd_info)

    demo = sub.add_parser("demo", help="end-to-end demo (simulated)")
    demo.add_argument("-n", "--nodes", type=int, default=60)
    demo.add_argument("-r", "--replication", type=int, default=4)
    demo.add_argument("--seed", type=int, default=42)
    demo.set_defaults(fn=_cmd_demo)

    churn = sub.add_parser("churn", help="availability under churn")
    churn.add_argument("-n", "--nodes", type=int, default=40)
    churn.add_argument("-r", "--replication", type=int, default=5)
    churn.add_argument("--rate", type=float, default=1.0, help="crash events per second")
    churn.add_argument("--downtime", type=float, default=15.0)
    churn.add_argument("--duration", type=float, default=60.0)
    churn.add_argument("--seed", type=int, default=42)
    churn.set_defaults(fn=_cmd_churn)

    estimate = sub.add_parser("estimate", help="size estimation convergence")
    estimate.add_argument("-n", "--nodes", type=int, default=200)
    estimate.add_argument("-k", type=int, default=64)
    estimate.add_argument("--seed", type=int, default=42)
    estimate.set_defaults(fn=_cmd_estimate)

    sweep = sub.add_parser(
        "sweep", help="parallel coverage sweep over fanouts x seeds")
    sweep.add_argument("-n", "--nodes", type=int, default=200)
    sweep.add_argument("--fanouts", default="1,2,3,4,6,9",
                       help="comma-separated fanout grid")
    sweep.add_argument("--seeds", default="1,2,3",
                       help="comma-separated seed grid")
    sweep.add_argument("--duration", type=float, default=10.0,
                       help="seconds of dissemination per cell")
    sweep.add_argument("-w", "--workers", type=int, default=None,
                       help="worker processes (default: one per cpu)")
    sweep.set_defaults(fn=_cmd_sweep)

    bench = sub.add_parser(
        "bench", help="quick experiment cells (e05b: routing three-way — chord "
                      "vs heartbeat mesh vs single-hop; e06: adaptive vs "
                      "static redundancy under churn; e15: anti-entropy "
                      "reconciliation cost; e16: runtime wire cost; e17: "
                      "sharded scale + vectorised sieve; e18: "
                      "self-stabilisation under state corruption; e19: "
                      "graceful degradation under multi-tenant overload)")
    bench.add_argument("experiment",
                       help="experiment id (e05b, e06, e15, e16, e17, e18, e19)")
    bench.add_argument("-n", "--items", type=int, default=None,
                       help="store items (e15, default 2000) or messages "
                            "per round (e16, default 60)")
    bench.add_argument("--divergence", type=float, default=0.01)
    bench.add_argument("--buckets", type=int, default=256)
    bench.add_argument("--fanout", type=int, default=8, help="gossip fanout (e16)")
    bench.add_argument("--nodes", type=int, default=None,
                       help="UDP nodes (e16, default 12), simulated nodes "
                            "(e17, default 50000), or population size "
                            "(e05b, default 1000)")
    bench.add_argument("--seed", type=int, default=7)
    bench.add_argument("--shards", type=int, default=4,
                       help="worker shards for e17 (default 4)")
    bench.add_argument("--duration", type=float, default=2.5,
                       help="virtual seconds per e17 scale run")
    bench.add_argument("--cross-check-n", type=int, default=2000,
                       help="N for the e17 determinism cross-check under "
                            "churn + loss")
    bench.add_argument("--min-speedup", type=float, default=2.5,
                       help="e17 shard-speedup gate, enforced only with "
                            ">=4 usable cpus")
    bench.add_argument("--stretch", action="store_true",
                       help="e17 at N=100000 instead of 50000; "
                            "e05b at N=10000 instead of 1000")
    bench.add_argument("--churn-rate", type=float, default=None,
                       help="e05b crash events/s across the population "
                            "(default: N/2000)")
    bench.add_argument("--lookups", type=int, default=400,
                       help="e05b lookups per mode (default 400)")
    bench.add_argument("--window", type=float, default=20.0,
                       help="e05b maintenance measurement window in virtual "
                            "seconds (default 20)")
    bench.add_argument("--churn-duration", type=float, default=240.0,
                       help="e06 virtual seconds of session churn (default 240)")
    bench.add_argument("--heal-duration", type=float, default=60.0,
                       help="e06 virtual seconds of post-churn healing "
                            "(default 60)")
    bench.add_argument("--mean-lifetime", type=float, default=150.0,
                       help="e06 mean session lifetime in virtual seconds "
                            "(default 150)")
    bench.add_argument("--mesh-cap", type=int, default=300,
                       help="e05b max simulated heartbeat-mesh nodes; the "
                            "O(N) per-node cost is extrapolated beyond "
                            "(default 300)")
    bench.add_argument("--soft", type=int, default=3,
                       help="e19 soft-state coordinators (default 3)")
    bench.add_argument("--rate", type=float, default=120.0,
                       help="e19 total offered base rate in ops/s "
                            "(default 120)")
    bench.add_argument("--overload", type=float, default=2.0,
                       help="e19 aggressor rate multiplier for the overload "
                            "cells (default 2)")
    bench.add_argument("--slo-duration", type=float, default=30.0,
                       help="e19 measured virtual seconds per cell "
                            "(default 30)")
    bench.add_argument("--trace-out", default=None, metavar="PATH",
                       help="e19: export the overloaded gated cell's causal "
                            "trace here (analyze with 'repro trace PATH')")
    bench.add_argument("--check", action="store_true",
                       help="exit non-zero unless the optimised path beats the "
                            "baseline with identical protocol behaviour "
                            "(writes BENCH_<id>.json)")
    bench.set_defaults(fn=_cmd_bench)

    sim = sub.add_parser(
        "sim", help="one sharded dissemination run (the e17 workload) "
                    "with optional determinism cross-check")
    sim.add_argument("-n", "--nodes", type=int, default=2000)
    sim.add_argument("--shards", type=int, default=1,
                     help="worker processes (1 = inline, no subprocesses)")
    sim.add_argument("--duration", type=float, default=2.5,
                     help="virtual seconds")
    sim.add_argument("--degree", type=int, default=12,
                     help="static overlay out-degree")
    sim.add_argument("--fanout", type=int, default=6)
    sim.add_argument("--broadcasts", type=int, default=4)
    sim.add_argument("--seed", type=int, default=42)
    sim.add_argument("--cross-check", action="store_true",
                     help="re-run with a different shard count and require "
                          "byte-identical canonical results")
    sim.set_defaults(fn=_cmd_sim)

    trace = sub.add_parser(
        "trace", help="causal trace analysis (record a traced run and/or "
                      "analyze a JSONL event log)")
    trace.add_argument("path", nargs="?", default=None,
                       help="trace JSONL to analyze (default trace.jsonl "
                            "with --record)")
    trace.add_argument("--record", action="store_true",
                       help="run a small traced simulation first and write "
                            "its event log to PATH")
    trace.add_argument("-n", "--nodes", type=int, default=50,
                       help="storage nodes for --record")
    trace.add_argument("--ops", type=int, default=10,
                       help="client puts for --record")
    trace.add_argument("-r", "--replication", type=int, default=4)
    trace.add_argument("--seed", type=int, default=42)
    trace.add_argument("--summary", action="store_true",
                       help="aggregate per-phase summary (the default output)")
    trace.add_argument("--paths", action="store_true",
                       help="also print each trace's critical path")
    trace.add_argument("--limit", type=int, default=10,
                       help="traces shown individually")
    trace.add_argument("--tenant", default=None,
                       help="restrict the summary and tail attribution to "
                            "one tenant's operations")
    trace.add_argument("--quantile", type=float, default=0.99,
                       help="tail quantile attributed per tenant "
                            "(default 0.99)")
    trace.add_argument("--check", action="store_true",
                       help="exit non-zero unless every trace's span tree "
                            "is connected")
    trace.set_defaults(fn=_cmd_trace)

    metrics = sub.add_parser(
        "metrics", help="windowed metrics report / Prometheus export "
                        "(runs a small simulation, or renders a JSON dump)")
    metrics.add_argument("path", nargs="?", default=None,
                         help="metrics JSON dump to render instead of "
                              "running a simulation")
    metrics.add_argument("-n", "--nodes", type=int, default=40)
    metrics.add_argument("--duration", type=float, default=20.0)
    metrics.add_argument("--period", type=float, default=1.0,
                         help="window width in virtual seconds")
    metrics.add_argument("--seed", type=int, default=42)
    metrics.add_argument("--format", choices=("report", "prom", "json"),
                         default="report")
    metrics.add_argument("-o", "--output", default=None, metavar="PATH")
    metrics.add_argument("--last", type=int, default=6,
                         help="windows shown per counter")
    metrics.add_argument("--tenant", default=None,
                         help="show only this tenant's metric families")
    metrics.add_argument("--tenant-top-k", type=int, default=None,
                         help="cap exported per-tenant series to the top-K "
                              "tenants by operation count (rest aggregate "
                              "into 'other')")
    metrics.set_defaults(fn=_cmd_metrics)

    slo = sub.add_parser(
        "slo", help="per-tenant SLO report for one production-traffic cell "
                    "(multi-tenant workload through the admission gate)")
    slo.add_argument("-n", "--nodes", type=int, default=48,
                     help="storage nodes")
    slo.add_argument("--soft", type=int, default=3,
                     help="soft-state coordinators")
    slo.add_argument("--duration", type=float, default=20.0,
                     help="measured virtual seconds")
    slo.add_argument("--rate", type=float, default=120.0,
                     help="total offered base rate (ops/s)")
    slo.add_argument("--scale", type=float, default=1.0,
                     help="aggressor rate multiplier (2.0 = overload)")
    slo.add_argument("--mode", choices=("shed", "queue"), default="shed",
                     help="admission gate mode (queue = unprotected control)")
    slo.add_argument("--seed", type=int, default=42)
    slo.add_argument("--trace-out", default=None, metavar="PATH",
                     help="export the cell's causal trace here")
    slo.set_defaults(fn=_cmd_slo)

    check = sub.add_parser(
        "check", help="Jepsen-style fault-injection checking campaign "
                      "(fuzzed nemesis schedules + history checkers)")
    check.add_argument("--seeds", type=int, default=10,
                       help="number of (seed, schedule) cases to fuzz")
    check.add_argument("--seed-base", type=int, default=0,
                       help="first seed of the range")
    check.add_argument("--quick", action="store_true",
                       help="small deployment, no indexes (CI smoke profile)")
    check.add_argument("--break-repair", action="store_true",
                       help="positive control: disable redundancy repair and "
                            "drip permanent kills — violations expected")
    check.add_argument("--expect-violation", action="store_true",
                       help="exit non-zero unless at least one case FAILS "
                            "(used with --break-repair)")
    check.add_argument("--redundancy-mode", choices=("static", "adaptive"),
                       default="static",
                       help="redundancy maintenance mode for the campaign "
                            "deployments (adaptive = lifetime-aware targets)")
    check.add_argument("--nemesis", choices=("stock", "corruption"),
                       default="stock",
                       help="fault tier to fuzz: 'stock' recoverable faults, "
                            "or 'corruption' state-corruption events with the "
                            "bounded-time self-stabilisation checker")
    check.add_argument("--break-audit", action="store_true",
                       help="positive control for --nemesis corruption: "
                            "disable the periodic state audit so poisoned "
                            "summaries cannot heal — violations expected")
    check.add_argument("--bound-rounds", type=int, default=8,
                       help="anti-entropy rounds within which every injected "
                            "corruption must be detected and healed")
    check.add_argument("--floor", type=int, default=1,
                       help="replica-count floor asserted after quiesce")
    check.add_argument("--no-shrink", action="store_true",
                       help="skip greedy schedule shrinking on failures")
    check.add_argument("--artifact", default=None, metavar="PATH",
                       help="write the JSON campaign report here")
    check.add_argument("--replay", default=None, metavar="PATH",
                       help="re-run the failures of a saved artifact instead "
                            "of fuzzing (exit 0 iff all reproduce)")
    check.set_defaults(fn=_cmd_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
