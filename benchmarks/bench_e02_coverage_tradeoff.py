"""E2 — Coverage vs fanout: the atomic-vs-partial trade-off (claim C2).

"Going from reaching a major portion of the population to guaranteeing
atomic dissemination requires a substantial increase in the number of
copies that need to be relayed."

Measures simulated coverage against the fixed-point prediction
pi = 1 - exp(-f*pi), the relayed copies per broadcast, and the marginal
cost of each extra point of coverage. Also contrasts eager push with
lazy (advertise/pull) dissemination in bytes.
"""

import math

from repro.epidemic import expected_coverage

from _helpers import print_table, run_once, stash

N = 400
BROADCASTS = 10


def coverage_cell(config: dict, seed: int) -> dict:
    """One cell: dissemination coverage/cost at one (fanout, variant)."""
    from repro.baselines.lazy import LazyGossip
    from repro.epidemic import EagerGossip
    from repro.membership import CyclonProtocol
    from repro.sim import Cluster, Simulation, UniformLatency

    fanout, lazy = config["fanout"], config["lazy"]
    sim = Simulation(seed=seed)
    cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))

    def factory(node):
        gossip = LazyGossip(fanout=fanout) if lazy else EagerGossip(fanout=fanout)
        return [CyclonProtocol(view_size=14, shuffle_size=7, period=1.0), gossip]

    nodes = cluster.add_nodes(N, factory)
    cluster.seed_views("membership", 5)
    sim.run_for(12.0)
    base_msgs = cluster.metrics.counter_value("net.sent.gossip")
    base_bytes = cluster.metrics.counter_value("net.bytes.gossip")
    reached_total = 0
    for i in range(BROADCASTS):
        nodes[(i * 31) % N].protocol("gossip").broadcast(f"b{i}", {"seq": i, "pad": "x" * 256})
        sim.run_for(8.0)
        reached_total += sum(1 for n in nodes if n.protocol("gossip").has_seen(f"b{i}"))
    return {
        "coverage": reached_total / (BROADCASTS * N),
        "msgs": (cluster.metrics.counter_value("net.sent.gossip") - base_msgs) / BROADCASTS,
        "bytes": (cluster.metrics.counter_value("net.bytes.gossip") - base_bytes) / BROADCASTS,
    }


def test_e02_coverage_vs_fanout(benchmark):
    def experiment():
        fanouts = (1, 2, 3, 4, 6, 9, 12)
        rows = []
        for fanout in fanouts:
            result = coverage_cell({"fanout": fanout, "lazy": False}, seed=200 + fanout)
            rows.append((fanout, result["coverage"], expected_coverage(fanout), result["msgs"]))
        print_table(
            f"E2a — coverage vs fanout (N={N}; fixed point pi=1-exp(-f*pi))",
            ["fanout", "coverage", "predicted", "relayed msgs/bcast"],
            rows,
        )
        return rows

    rows = run_once(benchmark, experiment)
    stash(benchmark, "coverage", [dict(zip(["fanout", "cov", "pred", "msgs"], r)) for r in rows])

    by_fanout = {r[0]: r for r in rows}
    # dissemination dies below fanout 1 and saturates high above ln N
    assert by_fanout[1][1] < 0.35
    assert by_fanout[9][1] > 0.99
    # model agreement within a few points in the supercritical regime
    for fanout, coverage, predicted, _ in rows:
        if fanout >= 2:
            assert abs(coverage - predicted) < 0.12
    # C2: the last few percent cost disproportionally — message cost/node
    # reached keeps rising with fanout
    cost_low = by_fanout[3][3] / (by_fanout[3][1] * N)
    cost_high = by_fanout[12][3] / (by_fanout[12][1] * N)
    assert cost_high > 2.5 * cost_low


def test_e02_eager_vs_lazy_bytes(benchmark):
    def experiment():
        fanout = math.ceil(math.log(N)) + 2
        rows = []
        for lazy in (False, True):
            result = coverage_cell({"fanout": fanout, "lazy": lazy}, seed=250)
            rows.append(("lazy" if lazy else "eager", fanout,
                         result["coverage"], result["msgs"], result["bytes"]))
        print_table(
            "E2b — eager push vs lazy (advertise/pull), 256-byte payloads",
            ["variant", "fanout", "coverage", "msgs/bcast", "bytes/bcast"],
            rows,
        )
        return rows

    rows = run_once(benchmark, experiment)
    stash(benchmark, "variants", [dict(zip(["variant", "fanout", "cov", "msgs", "bytes"], r)) for r in rows])
    eager = next(r for r in rows if r[0] == "eager")
    lazy = next(r for r in rows if r[0] == "lazy")
    assert eager[2] > 0.97 and lazy[2] > 0.95
    assert lazy[4] < eager[4]  # lazy wins on payload bytes
