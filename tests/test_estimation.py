"""Tests for size estimation, push-sum aggregation and histograms."""

import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.ids import NodeId
from repro.estimation import (
    DistributionEstimate,
    ExtremaExchange,
    ExtremaReply,
    ExtremaSizeEstimator,
    PushSumProtocol,
    PushSumShare,
    empirical_distribution,
    local_histogram,
)
from repro.membership import CyclonProtocol
from repro.sim import Cluster, Simulation, UniformLatency

from tests.conftest import build_connected


def _estimator_cluster(extra_factory, n=150, seed=61, warmup=25.0, loss_rate=0.0):
    sim = Simulation(seed=seed)
    cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02), loss_rate=loss_rate)
    factory = lambda node: [CyclonProtocol(view_size=10, shuffle_size=5, period=1.0)] + extra_factory(node)
    nodes = build_connected(sim, cluster, n, factory, warmup=warmup)
    return sim, cluster, nodes


class TestExtremaSizeEstimator:
    def test_converges_near_truth(self):
        sim, cluster, nodes = _estimator_cluster(
            lambda n: [ExtremaSizeEstimator(k=128, period=0.5)], n=150
        )
        estimates = [n.protocol("size-estimator").estimate() for n in nodes]
        mean = statistics.fmean(estimates)
        assert abs(mean - 150) / 150 < 0.3
        # all nodes agree once minima have spread
        assert max(estimates) - min(estimates) < 1.0

    def test_accuracy_improves_with_k(self):
        def run(k, seed):
            sim, cluster, nodes = _estimator_cluster(
                lambda n: [ExtremaSizeEstimator(k=k, period=0.5)], n=100, seed=seed
            )
            return abs(nodes[0].protocol("size-estimator").estimate() - 100) / 100

        small = statistics.fmean(run(8, s) for s in (1, 2, 3, 4, 5))
        large = statistics.fmean(run(256, s) for s in (1, 2, 3, 4, 5))
        assert large < small

    def test_epoch_restart_tracks_shrinkage(self):
        sim, cluster, nodes = _estimator_cluster(
            lambda n: [ExtremaSizeEstimator(k=64, period=0.5, epoch_length=15.0)],
            n=100, warmup=30.0,
        )
        for node in nodes[:50]:
            node.crash(permanent=True)
        sim.run_for(60.0)  # several epochs
        survivors = [n for n in nodes if n.is_up]
        estimate = statistics.fmean(n.protocol("size-estimator").estimate() for n in survivors)
        assert estimate < 100  # moved toward 50
        assert abs(estimate - 50) / 50 < 0.6

    def test_a_node_rebooted_into_an_epoch_reads_what_its_peers_read(self):
        """Reboots inflate an epoch's estimate: each adds fresh variates
        to the minima. Until the next turn the nodes that saw that epoch
        read its estimate; a node down at the turn boots with no previous
        epoch of its own and must read the same value (so the sieves'
        bucket grids agree), not its fresh, lower one."""
        sim, cluster, nodes = _estimator_cluster(
            lambda n: [ExtremaSizeEstimator(k=64, period=0.5, epoch_length=15.0)],
            n=40, warmup=20.0)
        late = nodes[-1]
        for node in nodes[:30]:  # epoch 1, [15, 30): 30 reboots
            node.crash()
            sim.run_for(0.1)
            node.boot()
        late.crash()
        sim.run_for(31.0 - sim.now)  # past the turn to epoch 2
        late.boot()
        sim.run_for(6.0)  # epoch 2 has mixed; its turn is at 45
        carried = [n.protocol("size-estimator")._last_estimate for n in nodes[:-1]]
        assert min(carried) > 1.3 * 40  # the inflation is real
        estimates = [n.protocol("size-estimator").estimate() for n in nodes]
        assert max(estimates) - min(estimates) < 1.0

    def test_fanout_fn(self):
        sim, cluster, nodes = _estimator_cluster(
            lambda n: [ExtremaSizeEstimator(k=64, period=0.5)], n=60, warmup=15.0
        )
        estimator = nodes[0].protocol("size-estimator")
        fanout = estimator.fanout_fn(c=2.0)()
        assert fanout >= math.ceil(math.log(30))
        assert isinstance(fanout, int)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            ExtremaSizeEstimator(k=2)

    def test_estimate_before_any_exchange(self):
        sim = Simulation(seed=1)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        node = cluster.add_node(lambda n: [CyclonProtocol(), ExtremaSizeEstimator(k=16)])
        assert node.protocol("size-estimator").estimate() >= 1.0


def _scalar(instance, value_fn, **kwargs):
    """A one-slot, one-cell push-sum: the scalar case of the vector protocol."""
    return PushSumProtocol(instance, lambda: {instance: [value_fn()]}, **kwargs)


class TestPushSum:
    def test_average_converges(self):
        values = {}

        def extra(node):
            values[node.node_id] = float(node.node_id.value % 7)
            return [_scalar("load", lambda v=values[node.node_id]: v, period=0.5)]

        sim, cluster, nodes = _estimator_cluster(extra, n=80, warmup=25.0)
        truth = statistics.fmean(values.values())
        estimates = [n.protocol("push-sum:load").average("load") for n in nodes]
        assert all(e is not None for e in estimates)
        assert statistics.fmean(estimates) == pytest.approx(truth, rel=0.01)

    def test_epochs_track_changing_values(self):
        box = {"scale": 1.0}

        def extra(node):
            return [_scalar("v", lambda: box["scale"], period=0.5, epoch_length=10.0)]

        sim, cluster, nodes = _estimator_cluster(extra, n=40, warmup=25.0)
        box["scale"] = 5.0
        sim.run_for(30.0)  # multiple epochs with the new value
        est = nodes[0].protocol("push-sum:v").average("v")
        assert est == pytest.approx(5.0, rel=0.05)

    def test_multiple_instances_coexist(self):
        # What used to take one protocol instance per quantity rides in
        # one vector (slots of different widths, one share per round);
        # separately named instances still coexist on a node.
        def extra(node):
            return [
                PushSumProtocol(
                    "ab", lambda: {"a": [1.0], "wide": [0.0, 2.0, 4.0], "b": [3.0]}, period=0.5),
                _scalar("c", lambda: 7.0, period=0.5),
            ]

        sim, cluster, nodes = _estimator_cluster(extra, n=30, warmup=20.0)
        proto = nodes[0].protocol("push-sum:ab")
        assert proto.average("a") == pytest.approx(1.0, rel=0.01)
        assert proto.average("b") == pytest.approx(3.0, rel=0.01)
        wide = proto.mass("wide")
        assert len(wide) == 3 and wide[0] == 0.0
        assert wide[2] / wide[1] == pytest.approx(2.0, rel=1e-9)
        assert nodes[0].protocol("push-sum:c").average("c") == pytest.approx(7.0, rel=0.01)


class TestExtremeEntries:
    """Max and min ride the size estimator's table: −max and min per
    attribute after the K variates, merged by the same min rule.

    Node ``i`` holds ``(i, i)`` in attribute ``x`` unless ``local`` says
    otherwise; ``(None, None)`` is a node with nothing to offer."""

    PERIOD = 0.5

    def _estimator(self, extremes_fn):
        return ExtremaSizeEstimator(k=16, period=self.PERIOD, extremes_fn=extremes_fn)

    def _tables(self, n=50, seed=61, loss_rate=0.0, local=None, with_entries=True):
        local = {} if local is None else local

        def extra(node):
            i = node.node_id.value
            extremes = (lambda i=i: {"x": local.get(i, (float(i), float(i)))}) if with_entries else None
            return [self._estimator(extremes)]

        return _estimator_cluster(extra, n=n, seed=seed, warmup=25.0, loss_rate=loss_rate)

    @staticmethod
    def _holding(nodes, maximum, minimum):
        return [node for node in nodes if node.is_up and
                (node.protocol("size-estimator").maximum("x"),
                 node.protocol("size-estimator").minimum("x")) == (maximum, minimum)]

    def test_max_and_min(self):
        def extra(node):
            v = float(node.node_id.value)
            return [self._estimator(lambda v=v: {"id": (v, v), "neg": (-v, -v)})]

        sim, cluster, nodes = _estimator_cluster(extra, n=50, warmup=20.0)
        table = nodes[3].protocol("size-estimator")
        assert table.maximum("id") == 49.0
        assert table.minimum("id") == 0.0
        assert table.maximum("neg") == 0.0
        assert table.minimum("neg") == -49.0

    def test_none_values_skipped(self):
        def extra(node):
            value = None if node.node_id.value % 2 else float(node.node_id.value)
            return [self._estimator(lambda v=value: {"m": (v, v), "never": (None, None)})]

        sim, cluster, nodes = _estimator_cluster(extra, n=20, warmup=15.0)
        table = nodes[0].protocol("size-estimator")
        assert table.maximum("m") == 18.0
        assert table.minimum("m") == 0.0
        assert table.maximum("never") is None and table.minimum("never") is None

    def test_the_entries_cost_no_message(self):
        """Two same-seed clusters, one with attribute entries and one
        without: once converged they send the same size-estimator
        messages, one push per firing and no reply."""
        periods = 36
        sent = []
        for with_entries in (True, False):
            sim, cluster, nodes = self._tables(with_entries=with_entries)
            if with_entries:
                assert len(self._holding(nodes, 49.0, 0.0)) == 50
            before = cluster.metrics.counter_value("net.sent.size-estimator")
            sim.run_for(periods * self.PERIOD)
            sent.append(cluster.metrics.counter_value("net.sent.size-estimator") - before)
        assert sent[0] == sent[1] > 0

    @pytest.mark.parametrize("seed", [61, 62, 63])
    def test_a_new_local_max_reaches_every_node_within_log_n_plus_3_periods(self, seed):
        local = {}
        sim, cluster, nodes = self._tables(seed=seed, local=local)
        local[7] = (1000.0, 7.0)
        sim.run_for((math.ceil(math.log2(50)) + 3) * self.PERIOD)
        assert len(self._holding(nodes, 1000.0, 0.0)) == 50

    def test_a_rebooted_or_data_less_node_holds_the_global_table_within_2_periods(self):
        local = {i: (None, None) for i in range(10, 20)}
        sim, cluster, nodes = self._tables(local=local)
        rebooted = nodes[10:15] + nodes[30:35]  # five without data, five with
        for node in rebooted:
            node.crash()
        sim.run_for(5 * self.PERIOD)
        for node in rebooted:
            node.boot()
        assert not self._holding(rebooted, 49.0, 0.0)
        sim.run_for(2 * self.PERIOD)
        assert len(self._holding(rebooted, 49.0, 0.0)) == len(rebooted)

    def test_a_non_finite_local_value_never_enters_the_table_or_draws_a_reply(self):
        # The binary codec refuses NaN and ±inf: one adopted into an empty
        # entry could not be pushed over UDP.
        sim = Simulation(seed=1)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        table = ExtremaSizeEstimator(k=4, extremes_fn=lambda: {
            "x": (5.0, 5.0), "y": (math.nan, math.nan), "z": (math.inf, -math.inf)})
        cluster.add_node(lambda n: [CyclonProtocol(), table])
        table._round()
        assert [(table.maximum(a), table.minimum(a)) for a in "xyz"] == [
            (5.0, 5.0), (None, None), (None, None)]
        variates = tuple(table._minima[:4])
        sent = lambda: cluster.metrics.counter_value("net.sent.size-estimator")
        table.on_message(NodeId(99), ExtremaExchange(0, variates + (-5.0, 5.0) + (math.nan,) * 4))
        assert sent() == 0  # x is equal and a NaN is lower than nothing: no reply
        assert table._minima[4:] == [-5.0, 5.0, None, None, None, None]
        table.on_message(NodeId(99), ExtremaExchange(0, variates + (-4.0, 5.0) + (None,) * 4))
        assert sent() == 1  # the sender lacks our max of 5

    def test_the_entries_survive_an_epoch_turn(self):
        # Only the variates restart: a node holding no value of its own
        # keeps the max and min it heard across the turn.
        sim = Simulation(seed=1)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        table = ExtremaSizeEstimator(k=4, epoch_length=10.0, extremes_fn=lambda: {"x": (None, None)})
        cluster.add_node(lambda n: [CyclonProtocol(), table])
        table.on_message(NodeId(99), ExtremaExchange(0, tuple(table._minima[:4]) + (-9.0, 1.0)))
        variates = table._minima[:4]
        sim.run_for(12.0)  # past the turn at 10 s
        assert table._epoch == 1 and table._minima[:4] != variates
        assert (table.maximum("x"), table.minimum("x")) == (9.0, 1.0)

    def test_tables_converge_exactly_under_5_percent_loss(self):
        local = {}
        sim, cluster, nodes = self._tables(loss_rate=0.05, local=local)
        assert len(self._holding(nodes, 49.0, 0.0)) == 50
        sim.run_for(30 * self.PERIOD)  # converged, and losing messages
        local[3], local[40] = (3.0, -5.0), (77.0, 40.0)
        sim.run_for(40 * self.PERIOD)
        assert len(self._holding(nodes, 77.0, -5.0)) == 50
        assert cluster.metrics.counter_value("net.dropped.loss") > 0


class TestShortShareIsDropped:
    """A share whose shape differs from the local one (a peer with
    another layout, a forged datagram) used to be zip()-merged and
    truncated the local state for good; it is now counted and dropped.
    For a sparse share the shape is its presence mask: one that is too
    short or too long, flags a cell past the end, or flags another
    number of cells than the share carries is malformed."""

    #: (mask, values) pairs a 4-cell vector cannot take, in that order.
    _BAD_FOR_FOUR = ((b"", (9.0,)), (b"\x0f\x00", (1.0,) * 4), (b"\x10", (9.0,)),
                     (b"\x0f", (1.0,) * 5), (b"\x03", (1.0,)), ("\x0f", (1.0,) * 4))

    def _node(self, protocol):
        sim = Simulation(seed=1)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        node = cluster.add_node(lambda n: [CyclonProtocol(), protocol])
        return cluster, node, NodeId(99)

    def test_push_sum(self):
        proto = PushSumProtocol("p", lambda: {"a": [4.0], "bins": [1.0, 2.0, 3.0]})
        cluster, node, peer = self._node(proto)
        for mask, parts in self._BAD_FOR_FOUR:
            proto.on_message(peer, PushSumShare("p", 0, mask, parts, 0.5))
        assert cluster.metrics.counter_value("pushsum.shape_mismatch") == len(self._BAD_FOR_FOUR)
        assert (proto.mass("a"), proto.mass("bins"), proto.average("a")) == ([4.0], [1.0, 2.0, 3.0], 4.0)
        proto.on_message(peer, PushSumShare("p", 0, b"\x0f", (2.0, 1.0, 1.0, 1.0), 1.0))
        assert (proto.mass("a"), proto.mass("bins"), proto.average("a")) == ([6.0], [2.0, 3.0, 4.0], 3.0)
        proto.on_message(peer, PushSumShare("p", 0, b"\x05", (3.0, 1.0), 1.0))  # cells 0 and 2
        assert (proto.mass("a"), proto.mass("bins")) == ([9.0], [2.0, 4.0, 4.0])

    def test_short_share_from_a_future_epoch_does_not_restart_the_epoch(self):
        proto = PushSumProtocol("p", lambda: {"a": [4.0, 4.0]}, epoch_length=10.0)
        cluster, node, peer = self._node(proto)
        proto.on_message(peer, PushSumShare("p", 7, b"\x04", (1.0,), 0.5))  # cell 2 of 2
        assert proto._epoch == 0 and proto.mass("a") == [4.0, 4.0]
        assert cluster.metrics.counter_value("pushsum.shape_mismatch") == 1

    def test_extreme_table(self):
        size = ExtremaSizeEstimator(k=5, extremes_fn=lambda: {"x": (5.0, 5.0), "y": (None, None)})
        cluster, node, peer = self._node(size)
        size._round()
        before = list(size._minima)
        assert len(before) == 5 + 2 * 2
        for minima in ((1e-9,) * 5, (1e-9,) * 8, (1e-9,) * 11):  # no entries, short, long
            size.on_message(peer, ExtremaExchange(0, minima))
        # A 9-entry reply whose mask flags entry 9, is one byte short, or
        # flags two entries for one value.
        for mask in (b"\x00\x02", b"\x20", b"\x60\x00"):
            size.on_message(peer, ExtremaReply(0, mask, (-9.0,)))
        assert cluster.metrics.counter_value("extrema.shape_mismatch") == 6
        assert size._minima == before
        assert (size.maximum("x"), size.minimum("x"), size.maximum("y")) == (5.0, 5.0, None)
        size.on_message(peer, ExtremaExchange(0, tuple(before[:5]) + (-9.0, None, None, 2.0)))
        assert (size.maximum("x"), size.minimum("x")) == (9.0, 5.0)
        assert (size.maximum("y"), size.minimum("y")) == (None, 2.0)
        size.on_message(peer, ExtremaReply(0, b"\x40\x00", (1.0,)))  # x's min only
        assert (size.maximum("x"), size.minimum("x")) == (9.0, 1.0)

    def test_size_estimator(self):
        size = ExtremaSizeEstimator(k=16)
        cluster, node, peer = self._node(size)
        before = (list(size._minima), size.estimate())
        size.on_message(peer, ExtremaExchange(0, (1e-9,) * 8))  # would read N ~ 1e9
        assert cluster.metrics.counter_value("extrema.shape_mismatch") == 1
        assert (size._minima, size.estimate()) == before
        assert cluster.metrics.counter_value("net.sent.size-estimator") == 0  # and no reply
        size.on_message(peer, ExtremaExchange(0, (1e-9,) * 16))
        assert len(size._minima) == 16 and size.estimate() > before[1]
        # Nothing held is lower than the push: no reply, it would lower nothing.
        assert cluster.metrics.counter_value("net.sent.size-estimator") == 0
        assert cluster.metrics.counter_value("extrema.replies_skipped") == 1
        size.on_message(peer, ExtremaExchange(0, (1.0,) + (1e-9,) * 15))
        assert cluster.metrics.counter_value("net.sent.size-estimator") == 1  # entry 0 is lower

    #: (mask, values) pairs a 12-entry reply cannot be, in that order.
    _BAD_FOR_TWELVE = ((b"\xff", (1e-9,) * 8), (b"\xff\x0f\x00", (1e-9,) * 12),
                       (b"\x00\x10", (1e-9,)), (b"\xff\x0f", (1e-9,) * 11),
                       (b"\x01\x00", ()), ("\x01\x00", (1e-9,)))

    def test_size_estimator_reply(self):
        size = ExtremaSizeEstimator(k=12)
        cluster, node, peer = self._node(size)
        before = (list(size._minima), size.estimate())
        for mask, values in self._BAD_FOR_TWELVE:
            size.on_message(peer, ExtremaReply(0, mask, values))
        assert cluster.metrics.counter_value("extrema.shape_mismatch") == len(self._BAD_FOR_TWELVE)
        assert (size._minima, size.estimate()) == before
        size.on_message(peer, ExtremaReply(0, b"\x01\x00", (1e-9,)))  # lowers entry 0 only
        assert size._minima == [1e-9] + before[0][1:] and size.estimate() > before[1]
        assert cluster.metrics.counter_value("net.sent.size-estimator") == 0  # a reply is not answered

    def test_malformed_reply_from_a_future_epoch_does_not_restart_the_epoch(self):
        size = ExtremaSizeEstimator(k=12, epoch_length=10.0)
        cluster, node, peer = self._node(size)
        before = list(size._minima)
        size.on_message(peer, ExtremaReply(7, b"\x00\x10", (1e-9,)))  # entry 12 of 12
        assert size._epoch == 0 and size._minima == before
        assert cluster.metrics.counter_value("extrema.shape_mismatch") == 1


class TestDistributionEstimate:
    def make(self):
        return DistributionEstimate(0.0, 10.0, (0.1, 0.2, 0.3, 0.2, 0.2))

    def test_cdf_monotone(self):
        est = self.make()
        values = [est.cdf(v) for v in [0, 1, 3, 5, 7, 10]]
        assert values == sorted(values)
        assert est.cdf(-1) == 0.0
        assert est.cdf(11) == 1.0

    def test_quantile_inverts_cdf(self):
        est = self.make()
        for q in (0.1, 0.4, 0.8):
            assert est.cdf(est.quantile(q)) == pytest.approx(q, abs=0.02)

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            self.make().quantile(1.5)

    def test_equi_depth_boundaries(self):
        est = self.make()
        bounds = est.equi_depth_boundaries(4)
        assert len(bounds) == 3
        assert bounds == sorted(bounds)
        with pytest.raises(ValueError):
            est.equi_depth_boundaries(0)

    def test_ks_distance_self_zero(self):
        est = self.make()
        assert est.ks_distance(est.cdf) == pytest.approx(0.0, abs=1e-9)

    def test_empirical_distribution(self):
        values = [1.0] * 50 + [9.0] * 50
        est = empirical_distribution(values, 0.0, 10.0, 10)
        assert est.densities[1] == pytest.approx(0.5)
        assert est.densities[9] == pytest.approx(0.5)
        assert sum(est.densities) == pytest.approx(1.0)

    def test_empirical_empty(self):
        est = empirical_distribution([], 0, 1, 4)
        assert sum(est.densities) == 0.0

    @given(st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_empirical_is_normalised(self, values):
        est = empirical_distribution(values, 0.0, 10.0, 8)
        assert sum(est.densities) == pytest.approx(1.0, abs=1e-9)

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=16),
           st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=50)
    def test_quantile_cdf_roundtrip_property(self, weights, q):
        total = sum(weights)
        est = DistributionEstimate(0.0, 1.0, tuple(w / total for w in weights))
        v = est.quantile(q)
        assert 0.0 <= v <= 1.0
        assert est.cdf(v) == pytest.approx(q, abs=1e-6)


def _histogram(local, bins, weight_fn=None, **kwargs):
    """A push-sum whose only slot is the histogram of ``local``."""
    return PushSumProtocol(
        "v", lambda: {"bins": local_histogram(local, 0, 100, bins, weight_fn)}, **kwargs)


def _estimate(node):
    return DistributionEstimate.normalised(0, 100, node.protocol("push-sum:v").mass("bins"))


class TestHistogramEstimator:
    """The histogram estimator is a push-sum slot plus the
    ``DistributionEstimate.normalised`` view."""

    def test_gossip_histogram_matches_truth(self):
        all_values = []

        def extra(node):
            local = [(f"{node.node_id.value}:{i}", float((node.node_id.value * 13 + i * 7) % 100))
                     for i in range(5)]
            all_values.extend(v for _, v in local)
            return [_histogram(local, 20, period=0.5)]

        sim, cluster, nodes = _estimator_cluster(extra, n=60, warmup=25.0)
        truth = empirical_distribution(all_values, 0, 100, 20)
        estimate = _estimate(nodes[0])
        assert estimate is not None
        assert estimate.ks_distance(truth.cdf) < 0.05

    def test_weight_fn_corrects_duplicates(self):
        # Half of the nodes hold duplicated copies of the same skewed
        # values; weighting by 1/copies recovers the true distribution.
        base = [(f"k{i}", float(i)) for i in range(10)]

        def extra(node):
            if node.node_id.value % 2 == 0:
                local = base  # each even node holds copies of keys k0..k9
                weight = lambda item_id: 1.0 / 20  # 20 even nodes hold each
            else:
                local = [(f"u{node.node_id.value}", 90.0)]
                weight = lambda item_id: 1.0
            return [_histogram(local, 10, weight, period=0.5)]

        sim, cluster, nodes = _estimator_cluster(extra, n=40, warmup=25.0)
        estimate = _estimate(nodes[1])
        assert estimate is not None
        # true distinct values: 10 low keys + 20 unique value-90 keys
        assert estimate.densities[9] > estimate.densities[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            local_histogram([], lo=1, hi=1)
        with pytest.raises(ValueError):
            local_histogram([], lo=0, hi=1, bins=0)

    def test_local_histogram_bins_and_domain(self):
        cells = local_histogram([("a", 0.0), ("b", 49.9), ("c", 100.0), ("d", 100.1), ("e", -1.0)],
                                0, 100, 4)
        assert cells == [1.0, 1.0, 0.0, 1.0]  # hi lands in the last cell, outside is dropped

    def test_estimate_none_without_data(self):
        sim = Simulation(seed=1)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        node = cluster.add_node(lambda n: [CyclonProtocol(), _histogram([], 32)])
        assert _estimate(node) is None
