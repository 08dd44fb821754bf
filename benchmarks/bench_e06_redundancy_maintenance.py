"""E6 — Redundancy maintenance (claims C4+C5).

Four questions from §III-A:

* does the census + re-dissemination machinery restore replication after
  permanent losses (maintenance ON vs OFF)?
* what does the grace window buy under *transient* churn (relaxed repair
  should fire far fewer repairs than eager repair, with no extra loss)?
* how much cheaper is per-range census than per-tuple census (the
  paper's "drastically reduces random walk length and the number of
  random walks")?
* what does *churn-adaptive* redundancy buy: does deriving the replica
  target and census cadence from measured session lifetimes cut the
  maintenance spend at equal post-heal durability (the E6d
  adaptive-vs-static ablation)?
"""

import statistics

from repro import DataDroplets, DataDropletsConfig
from repro.randomwalk import walks_needed
from repro.redundancy import churnbench

from _helpers import print_table, run_once, stash

N = 48
R = 5
KEYS = 40


def _replica_counts(dd):
    counts = []
    for i in range(KEYS):
        counts.append(sum(
            1 for node in dd.storage_nodes
            if node.is_up and f"k{i}" in node.durable["memtable"]
        ))
    return counts


def _build(seed: int, maintenance: bool, grace: float):
    from dataclasses import replace

    config = DataDropletsConfig(seed=seed, n_storage=N, n_soft=2, replication=R,
                                repair_enabled=maintenance)
    repair = replace(
        config.repair,
        check_period=5.0,
        walks_per_check=32,
        grace_window=grace,
    )
    config = replace(config, repair=repair)
    dd = DataDroplets(config).start(warmup=15.0)
    for i in range(KEYS):
        dd.put(f"k{i}", {"v": i})
    dd.run_for(20.0)
    return dd


def test_e06_repair_restores_replication(benchmark):
    def experiment():
        rows = []
        waves = 3
        wave_size = N // 6
        for maintenance in (True, False):
            dd = _build(seed=600 + int(maintenance), maintenance=maintenance, grace=10.0)
            counts_before = _replica_counts(dd)
            before = statistics.fmean(counts_before)
            # three waves of permanent failures with time between waves —
            # the window in which maintenance can (or, ablated, cannot)
            # restore redundancy before the next hit
            cursor = 0
            for _ in range(waves):
                for node in dd.storage_nodes[cursor:cursor + wave_size]:
                    node.crash(permanent=True)
                cursor += wave_size
                dd.run_for(60.0)
            counts_after = _replica_counts(dd)
            after = statistics.fmean(counts_after)
            # a key counts as lost only if it *had* storage replicas and
            # now has none (a put that no storage node acked never
            # entered the storage layer)
            lost = sum(
                1 for b, a in zip(counts_before, counts_after) if b > 0 and a == 0
            )
            repairs = dd.metrics.counter_value("redundancy.repairs")
            rows.append(("on" if maintenance else "off", before, after, lost, repairs))
        print_table(
            f"E6a — replicas after {waves} waves of {wave_size} permanent failures "
            f"(of {N} nodes, 60s apart)",
            ["maintenance", "replicas before", "replicas after", "keys lost", "repairs"],
            rows,
        )
        return rows

    rows = run_once(benchmark, experiment)
    stash(benchmark, "repair", [dict(zip(["maint", "before", "after", "lost", "repairs"], r)) for r in rows])
    on = next(r for r in rows if r[0] == "on")
    off = next(r for r in rows if r[0] == "off")
    # Residual loss happens only when a key's *entire* replica set dies
    # inside one wave — no r-replication scheme can repair that (there is
    # no surviving copy to copy from); measured runs show the same keys
    # lost with and without maintenance, confirming the cause.
    assert on[3] <= off[3]
    assert on[3] <= 2
    # the claim under test: maintenance restores the replication level
    # the ablated system lets decay
    assert on[2] > off[2] * 1.5
    assert on[4] > 0


def test_e06_grace_window_ablation(benchmark):
    def experiment():
        rows = []
        for grace in (0.0, 30.0):
            dd = _build(seed=620, maintenance=True, grace=grace)
            churn = dd.churn(event_rate=0.4, mean_downtime=10.0)  # transient only
            churn.start()
            dd.run_for(120.0)
            churn.stop()
            dd.run_for(30.0)
            lost = sum(1 for c in _replica_counts(dd) if c == 0)
            repairs = dd.metrics.counter_value("redundancy.repairs")
            redisseminated = dd.metrics.counter_value("redundancy.items_redisseminated")
            rows.append((grace, repairs, redisseminated, lost))
        print_table(
            "E6b — grace window under purely transient churn (paper: relax, they reboot)",
            ["grace (s)", "repairs fired", "items re-broadcast", "keys lost"],
            rows,
        )
        return rows

    rows = run_once(benchmark, experiment)
    stash(benchmark, "grace", [dict(zip(["grace", "repairs", "items", "lost"], r)) for r in rows])
    eager = next(r for r in rows if r[0] == 0.0)
    relaxed = next(r for r in rows if r[0] == 30.0)
    assert relaxed[1] <= eager[1]  # relaxed repair fires no more often
    assert relaxed[3] == 0  # and loses nothing


def test_e06_census_cost_per_range_vs_per_tuple(benchmark):
    def experiment():
        n_system = 10_000
        tuples_per_range = (50, 500, 5000)
        range_population = 8.0
        per_range = walks_needed(n_system, range_population)
        rows = []
        for tuples in tuples_per_range:
            per_tuple_total = walks_needed(n_system, range_population) * tuples
            rows.append((tuples, per_range, per_tuple_total, per_tuple_total / per_range))
        print_table(
            f"E6c — census walks needed (N={n_system}, range population ~{range_population:g}): "
            "one census per RANGE covers every tuple in it",
            ["tuples in range", "walks (per-range)", "walks (per-tuple)", "savings x"],
            rows,
        )
        return rows

    rows = run_once(benchmark, experiment)
    stash(benchmark, "census_cost", [dict(zip(["tuples", "range", "tuple", "x"], r)) for r in rows])
    assert all(r[3] >= r[0] for r in rows)  # savings scale with range size


def test_e06_adaptive_vs_static_redundancy(benchmark):
    """E6d — lifetime-aware redundancy vs static-r under session churn.

    The same deterministic churn trace (exponential session lifetimes
    long relative to the recovery window, plus two permanent kills) runs
    against both redundancy modes; adaptive must spend markedly fewer
    maintenance bytes at equal-or-better post-heal durability."""

    def experiment():
        results = churnbench.measure_redundancy_modes(
            seed=608, n_storage=32, keys=24,
            churn_duration=150.0, heal_duration=50.0,
        )
        rows = [
            (mode,
             row["maintenance_bytes"],
             row["censuses_run"],
             row["tallies_heard"],
             row["repairs"],
             row["lost_keys"],
             row["min_replicas"],
             row["mean_replicas"])
            for mode, row in results.items()
        ]
        print_table(
            "E6d — adaptive vs static redundancy under the same churn trace",
            ["mode", "maint bytes", "censuses run", "tallies heard", "repairs", "lost",
             "min replicas", "mean replicas"],
            rows,
        )
        return results

    results = run_once(benchmark, experiment)
    stash(benchmark, "adaptive", [
        dict(mode=mode, **{k: row[k] for k in (
            "maintenance_bytes", "censuses_run", "tallies_heard", "repairs", "lost_keys",
            "min_replicas", "mean_replicas")})
        for mode, row in results.items()
    ])
    # >= 30% fewer maintenance bytes, no lost acked write, replica floor 2.
    gates = churnbench.gates(results)
    assert all(gates.values()), gates
