"""E10 — Multiple contending orderings (claim C8, second half).

"A first naive approach could be to maintain several independent
overlays [...] but this is not scalable as it imposes an high overhead
that grows linearly [...]. Recent work shows it is possible to support
several independent organizations in an efficient and scalable fashion."

Measures overlay-maintenance messages and bytes as the number of ordered
attributes grows, for the naive independent-T-Man design vs the
shared-stream design, plus the resulting ordering quality of both.
"""

from repro.membership import CyclonProtocol
from repro.baselines.multiattr import SharedMultiOverlay
from repro.overlay import TManProtocol
from repro.sim import Cluster, Simulation, UniformLatency

from _helpers import print_table, run_once, stash

N = 48
RUN_SECONDS = 40.0


def _run(attributes: int, shared: bool, seed: int):
    sim = Simulation(seed=seed)
    cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))

    def vector_for(value: int):
        return {f"a{i}": ((value * (2 * i + 1)) % N + 0.5) / N for i in range(attributes)}

    def factory(node):
        vector = vector_for(node.node_id.value)
        protos = [CyclonProtocol(view_size=12, shuffle_size=6, period=1.0)]
        if shared:
            protos.append(SharedMultiOverlay(lambda v=vector: v, view_size=6, period=0.5))
        else:
            for i in range(attributes):
                protos.append(TManProtocol(f"a{i}", lambda c=vector[f"a{i}"]: c,
                                           view_size=6, period=0.5))
        return protos

    nodes = cluster.add_nodes(N, factory)
    cluster.seed_views("membership", 5)
    sim.run_for(RUN_SECONDS)

    total = cluster.metrics.counter_value("net.sent.total")
    membership = cluster.metrics.counter_value("net.sent.membership")
    bytes_total = cluster.metrics.counter_value("net.bytes.total")
    bytes_membership = cluster.metrics.counter_value("net.bytes.membership")

    # ordering quality: fraction of correct successors, averaged over attrs
    good = 0
    checks = 0
    for node in nodes:
        vector = vector_for(node.node_id.value)
        for i in range(attributes):
            attr = f"a{i}"
            if shared:
                successor = node.protocol("multi-overlay").successor(attr)
            else:
                successor = node.protocol(f"tman:{attr}").successor()
            checks += 1
            if successor is None:
                continue
            my = vector[attr]
            want = min(
                (vector_for(m.node_id.value)[attr] for m in nodes
                 if vector_for(m.node_id.value)[attr] > my),
                default=min(vector_for(m.node_id.value)[attr] for m in nodes),
            )
            if abs(successor.coordinate - want) < 1e-9:
                good += 1
    quality = good / checks if checks else 0.0
    return total - membership, bytes_total - bytes_membership, quality


def test_e10_overlay_scaling(benchmark):
    def experiment():
        rows = []
        for attributes in (1, 2, 4, 6):
            naive_msgs, naive_bytes, naive_q = _run(attributes, shared=False, seed=1000 + attributes)
            shared_msgs, shared_bytes, shared_q = _run(attributes, shared=True, seed=1000 + attributes)
            rows.append((attributes, naive_msgs, shared_msgs, naive_bytes, shared_bytes,
                         naive_q, shared_q))
        print_table(
            f"E10 — overlay maintenance cost vs #ordered attributes (N={N}, {RUN_SECONDS:.0f}s)",
            ["attrs", "naive msgs", "shared msgs", "naive bytes", "shared bytes",
             "naive quality", "shared quality"],
            rows,
        )
        return rows

    rows = run_once(benchmark, experiment)
    stash(benchmark, "rows", [
        dict(zip(["attrs", "nm", "sm", "nb", "sb", "nq", "sq"], r)) for r in rows
    ])

    one = rows[0]
    six = rows[-1]
    # naive message cost grows ~linearly with attributes...
    assert six[1] > one[1] * 4
    # ...while shared stays ~flat
    assert six[2] < one[2] * 2
    # and the shared design still orders adequately
    assert six[6] > 0.7
