"""Tests for T-Man and multi-attribute ordered overlays."""

import pytest

from repro.common.ids import NodeId
from repro.membership import CyclonProtocol
from repro.baselines.multiattr import SharedMultiOverlay, naive_overlays
from repro.overlay import TManProtocol, line_distance, ring_distance
from repro.sim import Cluster, PoissonChurn, Simulation, UniformLatency

from tests.conftest import build_connected


class TestDistances:
    def test_ring_wraps(self):
        assert ring_distance(0.95, 0.05) == pytest.approx(0.1)
        assert ring_distance(0.2, 0.4) == pytest.approx(0.2)

    def test_line_does_not_wrap(self):
        assert line_distance(0.95, 0.05) == pytest.approx(0.9)


def _tman_cluster(n=80, seed=91, view_size=6, period=0.5, warmup=25.0):
    sim = Simulation(seed=seed)
    cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))

    def factory(node):
        coordinate = (node.node_id.value + 0.5) / n
        return [
            CyclonProtocol(view_size=10, shuffle_size=5, period=1.0),
            TManProtocol("pos", lambda c=coordinate: c, view_size=view_size, period=period),
        ]

    nodes = build_connected(sim, cluster, n, factory, warmup=warmup)
    return sim, cluster, nodes


def _correct_successors(nodes, n):
    return sum(
        1
        for node in nodes
        if (s := node.protocol("tman:pos").successor()) is not None
        and s.node_id.value == (node.node_id.value + 1) % n
    )


class TestTMan:
    def test_converges_to_sorted_ring(self):
        sim, cluster, nodes = _tman_cluster(n=80)
        assert _correct_successors(nodes, 80) >= 78

    def test_predecessors_converge_too(self):
        sim, cluster, nodes = _tman_cluster(n=40)
        good = sum(
            1
            for node in nodes
            if (p := node.protocol("tman:pos").predecessor()) is not None
            and p.node_id.value == (node.node_id.value - 1) % 40
        )
        assert good >= 38

    def test_closest_to_routes_toward_target(self):
        sim, cluster, nodes = _tman_cluster(n=60)
        view = nodes[0].protocol("tman:pos").closest_to(0.5, 3)
        assert view
        # entries should be reasonably near 0.5 in ring distance
        assert all(ring_distance(0.5, d.coordinate) < 0.5 for d in view)

    def test_ordered_neighbors_sorted(self):
        sim, cluster, nodes = _tman_cluster(n=30)
        ordered = nodes[5].protocol("tman:pos").ordered_neighbors()
        coords = [d.coordinate for d in ordered]
        assert coords == sorted(coords)

    def test_heals_under_churn(self):
        sim, cluster, nodes = _tman_cluster(n=60, warmup=20.0)
        churn = PoissonChurn(sim, cluster, event_rate=0.5, mean_downtime=5.0)
        churn.start()
        sim.run_for(40.0)
        churn.stop()
        sim.run_for(40.0)
        up = [n for n in nodes if n.is_up]
        good = 0
        for node in up:
            successor = node.protocol("tman:pos").successor()
            if successor is None:
                continue
            my = (node.node_id.value + 0.5) / 60
            # successor should be the nearest *live* greater coordinate
            live_greater = sorted(
                (m.node_id.value + 0.5) / 60 for m in up if (m.node_id.value + 0.5) / 60 > my
            )
            expected = live_greater[0] if live_greater else min((m.node_id.value + 0.5) / 60 for m in up)
            if abs(successor.coordinate - expected) < 1e-9:
                good += 1
        assert good >= len(up) * 0.9

    def test_coordinate_none_pauses_participation(self):
        sim = Simulation(seed=92)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))

        def factory(node):
            return [CyclonProtocol(view_size=6, shuffle_size=3, period=1.0),
                    TManProtocol("pos", lambda: None, period=0.5)]

        nodes = build_connected(sim, cluster, 10, factory, warmup=10.0)
        assert nodes[0].protocol("tman:pos").successor() is None

    def test_same_coordinate_capped_in_view(self):
        sim = Simulation(seed=93)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        n = 40

        def factory(node):
            # only 4 distinct coordinates: 10 nodes share each
            coordinate = ((node.node_id.value % 4) + 0.5) / 4
            return [CyclonProtocol(view_size=10, shuffle_size=5, period=1.0),
                    TManProtocol("pos", lambda c=coordinate: c, view_size=8, period=0.5)]

        nodes = build_connected(sim, cluster, n, factory, warmup=20.0)
        view = nodes[0].protocol("tman:pos").view()
        per_coord = {}
        for d in view:
            per_coord[d.coordinate] = per_coord.get(d.coordinate, 0) + 1
        assert max(per_coord.values()) <= 2
        assert len(per_coord) >= 3  # spans several buckets

    def test_explore_probability_validation(self):
        with pytest.raises(ValueError):
            TManProtocol("x", lambda: 0.5, explore_probability=1.5)

    def test_fresher_descriptor_wins_merge(self):
        sim = Simulation(seed=96)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))

        def factory(node):
            return [CyclonProtocol(view_size=6, shuffle_size=3, period=1.0),
                    TManProtocol("pos", lambda: 0.5, view_size=4, period=0.5)]

        nodes = build_connected(sim, cluster, 4, factory, warmup=5.0)
        from repro.overlay import TManDescriptor

        tman = nodes[0].protocol("tman:pos")
        peer = nodes[1].node_id
        stale = TManDescriptor(peer, 0.1, stamp=1.0)
        fresh = TManDescriptor(peer, 0.9, stamp=sim.now)
        tman._merge((fresh,))
        tman._merge((stale,))  # stale must NOT overwrite fresh
        held = [d for d in tman.view() if d.node_id == peer]
        assert held and held[0].coordinate == 0.9

    def test_expired_descriptors_dropped(self):
        sim = Simulation(seed=97)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))

        def factory(node):
            return [CyclonProtocol(view_size=6, shuffle_size=3, period=1.0),
                    TManProtocol("pos", lambda: 0.5, view_size=4, period=0.5,
                                 descriptor_ttl=5.0)]

        nodes = build_connected(sim, cluster, 3, factory, warmup=2.0)
        from repro.overlay import TManDescriptor

        tman = nodes[0].protocol("tman:pos")
        ancient = TManDescriptor(NodeId(99), 0.4, stamp=0.0)
        sim.run_until(20.0)
        tman._merge((ancient,))
        assert all(d.node_id != NodeId(99) for d in tman.view())


class TestMultiAttribute:
    def test_naive_overlays_builds_instances(self):
        protos = naive_overlays(
            ["a", "b"],
            {"a": lambda: 0.1, "b": lambda: 0.9},
        )
        assert [p.name for p in protos] == ["tman:a", "tman:b"]

    def test_shared_overlay_orders_all_attributes(self):
        sim = Simulation(seed=94)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        n = 50

        def factory(node):
            v = node.node_id.value
            vector = {"up": (v + 0.5) / n, "down": ((n - 1 - v) + 0.5) / n}
            return [CyclonProtocol(view_size=10, shuffle_size=5, period=1.0),
                    SharedMultiOverlay(lambda vec=vector: vec, view_size=6, period=0.5)]

        nodes = build_connected(sim, cluster, n, factory, warmup=30.0)
        good_up = good_down = 0
        for node in nodes:
            overlay = node.protocol("multi-overlay")
            succ_up = overlay.successor("up")
            if succ_up is not None and succ_up.node_id.value == (node.node_id.value + 1) % n:
                good_up += 1
            succ_down = overlay.successor("down")
            if succ_down is not None and succ_down.node_id.value == (node.node_id.value - 1) % n:
                good_down += 1
        assert good_up >= n * 0.85
        assert good_down >= n * 0.85

    def test_shared_overlay_cheaper_than_naive(self):
        n = 40
        attributes = 4

        def run(shared: bool):
            sim = Simulation(seed=95)
            cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))

            def factory(node):
                v = node.node_id.value
                vector = {f"a{i}": ((v * (i + 1)) % n + 0.5) / n for i in range(attributes)}
                protos = [CyclonProtocol(view_size=10, shuffle_size=5, period=1.0)]
                if shared:
                    protos.append(SharedMultiOverlay(lambda vec=vector: vec, period=0.5))
                else:
                    for i in range(attributes):
                        protos.append(TManProtocol(
                            f"a{i}", lambda c=vector[f"a{i}"]: c, period=0.5))
                return protos

            build_connected(sim, cluster, n, factory, warmup=30.0)
            total = cluster.metrics.counter_value("net.sent.total")
            membership = cluster.metrics.counter_value("net.sent.membership")
            return total - membership

        shared_cost = run(shared=True)
        naive_cost = run(shared=False)
        assert shared_cost < naive_cost / 1.5  # message overhead stays ~flat
