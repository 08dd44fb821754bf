"""E8 — Decentralised distribution estimation (claim C7).

"Recent work shows that it is possible to obtain accurate estimation of
distribution in a scalable and lightweight fashion. Still, our scenario
has particular characteristics that may affect [them], namely a large
number of duplicates due to the redundancy, and high churn rates."

Measured: KS error of the gossip histogram (a slot of a push-sum
vector, read through ``DistributionEstimate.normalised``) vs ground
truth (a) on clean data, (b) with *non-uniform* duplication (hot items
replicated more — the naive estimator skews), (c) naive vs 1/copies
duplicate correction, and (d) under churn with epoch restarts.
"""

import random
import statistics

from repro.estimation import (
    DistributionEstimate,
    PushSumProtocol,
    empirical_distribution,
    local_histogram,
)
from repro.membership import CyclonProtocol
from repro.sim import Cluster, PoissonChurn, Simulation, UniformLatency

from _helpers import print_table, run_once, stash

N = 120
BINS = 24


def _make_values(rng):
    return [min(99.9, max(0.0, rng.gauss(40, 12))) for _ in range(N * 4)]


def _build(seed, duplication: str, corrected: bool, epoch=None):
    """duplication: 'none' | 'skewed' (low values copied to 10 nodes)."""
    rng = random.Random(seed)
    values = _make_values(rng)
    truth = empirical_distribution(values, 0, 100, BINS)

    placements = [[] for _ in range(N)]
    copies = {}
    for index, value in enumerate(values):
        key = f"v{index}"
        if duplication == "skewed" and value < 40:
            holders = rng.sample(range(N), 10)
        else:
            holders = rng.sample(range(N), 2)
        copies[key] = len(holders)
        for holder in holders:
            placements[holder].append((key, value))

    sim = Simulation(seed=seed)
    cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))

    def factory(node):
        local = placements[node.node_id.value % N]
        weight = (lambda item_id: 1.0 / copies[item_id]) if corrected else None
        return [
            CyclonProtocol(view_size=12, shuffle_size=6, period=1.0),
            PushSumProtocol(
                "v", lambda l=local: {"bins": local_histogram(l, 0, 100, BINS, weight)},
                period=0.5, epoch_length=epoch),
        ]

    nodes = cluster.add_nodes(N, factory)
    cluster.seed_views("membership", 5)
    return sim, cluster, nodes, truth


def _mean_ks(nodes, truth):
    errors = []
    for node in nodes:
        if not node.is_up:
            continue
        estimate = DistributionEstimate.normalised(
            0, 100, node.protocol("push-sum:v").mass("bins"))
        if estimate is not None:
            errors.append(estimate.ks_distance(truth.cdf, samples=200))
    return statistics.fmean(errors) if errors else float("nan")


def test_e08_accuracy_and_duplicates(benchmark):
    def experiment():
        rows = []
        for label, duplication, corrected in (
            ("clean (2 copies each)", "none", False),
            ("skewed dup, naive", "skewed", False),
            ("skewed dup, corrected", "skewed", True),
        ):
            sim, cluster, nodes, truth = _build(800, duplication, corrected)
            checkpoints = []
            for t in (10.0, 20.0, 40.0):
                sim.run_until(t)
                checkpoints.append(_mean_ks(nodes, truth))
            rows.append((label, *checkpoints))
        print_table(
            f"E8a — gossip histogram KS error vs truth (N={N}, bins={BINS})",
            ["setting", "KS @10s", "KS @20s", "KS @40s"],
            rows,
        )
        return rows

    rows = run_once(benchmark, experiment)
    stash(benchmark, "duplicates", [dict(zip(["setting", "k10", "k20", "k40"], r)) for r in rows])
    clean = rows[0][3]
    naive = rows[1][3]
    corrected = rows[2][3]
    assert clean < 0.1  # accurate on clean data
    assert naive > clean * 2  # non-uniform duplicates skew the estimate
    assert corrected < naive / 2  # the 1/copies weighting repairs it


def test_e08_churn(benchmark):
    def experiment():
        rows = []
        for churn_rate in (0.0, 1.0):
            sim, cluster, nodes, truth = _build(820, "none", False, epoch=15.0)
            churn = None
            if churn_rate:
                churn = PoissonChurn(sim, cluster, event_rate=churn_rate, mean_downtime=8.0)
                churn.start()
            sim.run_until(60.0)
            if churn:
                churn.stop()
            rows.append((churn_rate, _mean_ks(nodes, truth)))
        print_table("E8b — KS error under churn (epoch restarts)", ["churn (events/s)", "KS @60s"], rows)
        return rows

    rows = run_once(benchmark, experiment)
    stash(benchmark, "churn", [dict(zip(["churn", "ks"], r)) for r in rows])
    assert rows[0][1] < 0.1
    assert rows[1][1] < 0.3  # degrades but stays usable under churn
