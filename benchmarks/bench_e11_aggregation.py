"""E11 — Epidemic aggregation exposed to clients (claim C9).

"It is straightforward to offer simple aggregations to clients with
minimal overhead [...] some of the challenges, such as robust
aggregation within the dynamic environment and how to cope with multiple
instances of data due to redundancy, still remain."

Measures count/sum/avg/max/min accuracy against ground truth through the
client API — static, then under churn — including the 1/range-population
duplicate correction the storage layer applies, and what max/min cost:
they ride the size estimator's push, so its sends may not grow.
"""

import math
import statistics

from repro import DataDroplets, DataDropletsConfig, IndexSpec
from repro.processing import GroundTruth, relative_errors, snapshot

from _helpers import print_table, run_once, stash

N = 50
ITEMS = 80
#: The last virtual seconds of the static run, over which the converged
#: size estimator's sends are counted.
QUIET_WINDOW = 18.0
#: Size-estimator sends per up storage node per period over the quiet
#: window while max/min ran as a protocol of its own (commit 40d4168,
#: seeds 1100-1105: 1.2144, 1.2178, 1.2256, 1.2178, 1.2256, 1.2211, i.e.
#: 1 093-1 103 sends from 50 nodes in 18 periods), plus that spread (10
#: sends): dropping the other protocol re-rolls each seed's variate
#: replies by as much, either way. The max/min entries now ride its
#: table; one reply of theirs per node per ten periods would fail this.
SIZE_ESTIMATOR_ALONE = 1113 / 900


def _build(seed):
    dd = DataDroplets(DataDropletsConfig(
        seed=seed, n_storage=N, n_soft=2, replication=4,
        indexes=(IndexSpec("score", lo=0, hi=200),),
    )).start(warmup=20.0)
    values = []
    for i in range(ITEMS):
        value = float(10 + (i * 7) % 150)
        values.append(value)
        dd.put(f"row:{i}", {"score": value})
    dd.run_for(40.0 - QUIET_WINDOW)  # estimators converge
    sent = dd.metrics.counter_value("net.sent.size-estimator")
    dd.run_for(QUIET_WINDOW)
    periods = QUIET_WINDOW / dd.config.size_estimator_period
    up = sum(1 for node in dd.storage_nodes if node.is_up)
    quiet = (dd.metrics.counter_value("net.sent.size-estimator") - sent) / (up * periods)
    return dd, GroundTruth.of(values), quiet


KINDS = ("count", "sum", "avg", "max", "min")
#: One seed is a lottery: count/sum carry the size estimator's k=64
#: variance plus range-count variance (the parent read sum errors of 0.02 to
#: 0.47 over these six), so the gate is on the median over the seeds.
SEEDS = (1100, 1101, 1102, 1103, 1104, 1105)


def _measure(seed):
    dd, truth, quiet = _build(seed)
    static = relative_errors(snapshot(dd, "score"), truth)

    churn = dd.churn(event_rate=0.5, mean_downtime=10.0)
    churn.start()
    dd.run_for(45.0)
    churned = relative_errors(snapshot(dd, "score"), truth)
    churn.stop()
    return static, churned, quiet


def _median(errors):
    # an unavailable aggregate (NaN) must not sort its way past the gate
    return statistics.median(math.inf if math.isnan(e) else e for e in errors)


def test_e11_aggregate_accuracy(benchmark):
    def experiment():
        runs = {seed: _measure(seed) for seed in SEEDS}
        print_table(
            f"E11 — aggregate relative error per seed, static / under churn "
            f"(N={N}, {ITEMS} rows, r=4)",
            ["seed", *KINDS],
            [(seed, *(f"{static[k]:.3f} / {churned[k]:.3f}" for k in KINDS))
             for seed, (static, churned, _) in runs.items()],
        )
        rows = [
            (kind,
             _median(static[kind] for static, _, _ in runs.values()),
             _median(churned[kind] for _, churned, _ in runs.values()))
            for kind in KINDS
        ]
        print_table(
            f"E11 — size-estimator sends per node per period over the last "
            f"{QUIET_WINDOW:.0f} s of the static run, max/min entries included "
            f"(gate <= {SIZE_ESTIMATOR_ALONE:.4f}, the estimator without them)",
            ["seed", "sends"],
            [(seed, f"{quiet:.3f}") for seed, (_, _, quiet) in runs.items()],
        )
        print_table(
            f"E11 — median over seeds {SEEDS[0]}-{SEEDS[-1]}",
            ["aggregate", "static err", "under-churn err"],
            rows,
        )
        return runs, rows

    runs, rows = run_once(benchmark, experiment)
    stash(benchmark, "rows", [dict(zip(["kind", "static", "churn"], r)) for r in rows])
    stash(benchmark, "per_seed", [
        {"seed": seed, "static": static, "churn": churned, "size_estimator_sends": quiet}
        for seed, (static, churned, quiet) in runs.items()
    ])

    for static, churned, quiet in runs.values():
        # max/min ride the size estimator's push: no message of their own
        assert quiet <= SIZE_ESTIMATOR_ALONE
        # extremes are exact (monotone merge) on every seed
        assert static["max"] == 0.0
        assert static["min"] == 0.0
        assert churned["max"] == 0.0
    by_kind = {r[0]: r for r in rows}
    # avg is duplicate-insensitive and tight
    assert by_kind["avg"][1] < 0.2
    # count/sum carry size-estimator + range-count variance but stay usable
    assert by_kind["count"][1] < 0.4
    assert by_kind["sum"][1] < 0.4
    # Under churn: avg and the monotone extremes stay accurate; count and
    # sum degrade badly — exactly the open problem the paper flags
    # ("robust aggregation within the dynamic environment [...] still
    # remain[s]"), so they are reported but not asserted.
    assert by_kind["avg"][2] < 0.3
