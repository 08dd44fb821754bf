"""Tests for the range count, redundancy repair and E6c's arithmetic.

Each storage node counts the up members of its sieve range from the
peer ids its Cyclon shuffles deliver (``RedundancyManager.observe``);
the count is judged against the ground truth
(:func:`repro.sieve.coverage.range_population` over the up nodes'
sieves), computed by the test and not by any node.
"""

import statistics

import pytest

from repro import DataDroplets, DataDropletsConfig
from repro.baselines.staticrepair import StaticRepairPolicy
from repro.common.ids import NodeId
from repro.core.storage import SHUFFLE_SIZE, VIEW_SIZE
from repro.epidemic import EagerGossip
from repro.estimation import ExtremaSizeEstimator
from repro.membership import CyclonProtocol
from repro.redundancy import RangeRepair, RedundancyManager, RepairPolicy
from repro.redundancy.churnbench import count_errors, walks_needed
from repro.sieve import BucketSieve
from repro.sieve.coverage import range_population
from repro.sim import Cluster, Simulation, UniformLatency
from repro.store import Memtable, Version, make_tuple

from tests.conftest import build_connected


class TestWalksNeeded:
    """E6c's arithmetic: what a census by random walks would cost."""

    def test_walks_needed_cheaper_for_bigger_ranges(self):
        per_range = walks_needed(10_000, range_population=50)
        per_item = walks_needed(10_000, range_population=4)
        assert per_range < per_item

    def test_walks_needed_validation(self):
        with pytest.raises(ValueError):
            walks_needed(100, 0)


def _storage_stack_for_redundancy(policy, replication=6, n_estimate=None, target=None):
    """Minimal storage-ish stack: PSS + size estimator + gossip +
    redundancy manager + range repair over a shared-bucket sieve. The
    manager repairs toward ``target``, by default the sieve's r."""

    def factory(node):
        memtable = node.durable.setdefault("memtable", Memtable())
        size_est = ExtremaSizeEstimator(k=64, period=0.5)
        size_fn = (lambda: n_estimate) if n_estimate else size_est.estimate
        sieve = BucketSieve(node.node_id, replication, size_fn)
        gossip = EagerGossip(fanout=8)
        manager = RedundancyManager(memtable, sieve, size_fn,
                                    StaticRepairPolicy(policy, target or replication))
        repair = RangeRepair(memtable, sieve, manager.same_range_peers, period=2.0,
                             on_peer_failed=manager.note_peer_failed,
                             on_peer_heard=manager.note_peer_heard)

        def apply_write(item_id, payload, hops):
            item = payload
            if sieve.admits(item.key, item.record) or item.key in memtable:
                memtable.put(item)

        gossip.subscribe(apply_write)
        return [CyclonProtocol(view_size=VIEW_SIZE, shuffle_size=SHUFFLE_SIZE, period=1.0),
                size_est, gossip, manager, repair]

    return factory


class TestRedundancyManager:
    def test_count_estimates_range_population(self):
        sim = Simulation(seed=81)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        n, r = 64, 8
        policy = RepairPolicy(check_period=5.0, grace_window=1000.0)
        nodes = build_connected(
            sim, cluster, n, _storage_stack_for_redundancy(policy, replication=r, n_estimate=n),
            warmup=40.0,
        )
        populations = [n_.protocol("redundancy").last_population for n_ in nodes]
        measured = [p for p in populations if p is not None]
        assert measured, "no node counted its range"
        # true population per bucket is n / buckets = 64/8 = 8
        mean = sum(measured) / len(measured)
        assert 3 < mean < 16

    def test_census_discovers_same_range_peers(self):
        sim = Simulation(seed=82)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        n, r = 48, 12
        policy = RepairPolicy(check_period=5.0, grace_window=1000.0)
        nodes = build_connected(
            sim, cluster, n, _storage_stack_for_redundancy(policy, replication=r, n_estimate=n),
            warmup=40.0,
        )
        with_peers = [n_ for n_ in nodes if n_.protocol("redundancy").same_range_peers()]
        assert len(with_peers) > len(nodes) // 2
        # discovered peers really share the range
        for node in with_peers[:5]:
            manager = node.protocol("redundancy")
            my_range = manager.sieve.range_key()
            for peer_id in manager.same_range_peers():
                peer = next(n for n in cluster.nodes() if n.node_id == peer_id)
                assert peer.protocol("redundancy").sieve.range_key() == my_range

    def test_range_repair_converges_same_range_stores(self):
        sim = Simulation(seed=83)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        n, r = 32, 16  # two buckets -> many same-range peers
        policy = RepairPolicy(check_period=3.0, grace_window=1000.0)
        nodes = build_connected(
            sim, cluster, n,
            _storage_stack_for_redundancy(policy, replication=r, n_estimate=n, target=4),
            warmup=20.0,
        )
        # Plant an item directly at ONE node of its bucket; repair must
        # copy it to the other same-bucket nodes without any gossip write.
        target = nodes[0]
        sieve = BucketSieve(target.node_id, r, lambda: n)
        item = None
        for i in range(500):
            candidate = make_tuple(f"planted:{i}", {}, Version(1, 0))
            if sieve.admits(candidate.key, candidate.record):
                item = candidate
                break
        assert item is not None
        target.durable["memtable"].put(item)
        sim.run_for(90.0)
        same_bucket = [
            node for node in nodes
            if BucketSieve(node.node_id, r, lambda: n).range_key() == sieve.range_key()
        ]
        holders = [node for node in same_bucket if item.key in node.durable["memtable"]]
        assert len(holders) > len(same_bucket) // 2

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RepairPolicy(check_period=0)
        with pytest.raises(ValueError):
            RepairPolicy(grace_window=-1)

    def test_repair_triggered_when_population_low(self):
        sim = Simulation(seed=84)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        n = 24
        # Demand far more replicas than exist -> the range is always deficient.
        policy = RepairPolicy(check_period=3.0, grace_window=0.0)
        nodes = build_connected(
            sim, cluster, n,
            _storage_stack_for_redundancy(policy, replication=4, n_estimate=n, target=50),
            warmup=10.0,
        )
        nodes[0].durable["memtable"].put(make_tuple("any", {}, Version(1, 0)))
        sim.run_for(40.0)
        assert cluster.metrics.counter_value("redundancy.repairs") > 0


class TestRangeCount:
    """The count against the truth, and what it must not count."""

    PERIOD = 5.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_count_tracks_the_truth_under_churn(self, seed):
        """64 storage nodes under the churn process of the benchmark's
        ``sim_churn`` workload: each up node's count of its range's
        members, itself included, is off by at most 1.5 nodes on average
        over 60 virtual seconds of churn."""
        dd = DataDroplets(DataDropletsConfig(
            seed=seed, n_storage=64, n_soft=4, replication=4, indexes=(),
            estimator_epoch=None, repair_period=5.0,
            repair=RepairPolicy(check_period=self.PERIOD, grace_window=10.0))).start()
        churn = dd.churn(event_rate=1.0, mean_downtime=15.0, permanent_fraction=0.2)
        churn.start()
        errors = []
        for _ in range(12):
            dd.run_for(self.PERIOD)
            errors += count_errors(dd)
        churn.stop()
        assert dd.metrics.counter_value("churn.crashes") > 30
        assert statistics.fmean(errors) <= 1.5, statistics.fmean(errors)

    @pytest.mark.parametrize("check_period", [RepairPolicy().check_period, 5.0])
    def test_fault_free_cluster_runs_no_repair(self, check_period):
        """Every range holds at least the target in truth, so ten check
        periods without a fault repair nothing, at the default check
        period and at the 5 s the experiments use."""
        sim = Simulation(seed=93)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        n, r = 64, 8
        sieves = [BucketSieve(NodeId(value), r, lambda: n) for value in range(n)]
        target = min(range_population(sieves).values())
        policy = RepairPolicy(check_period=check_period)
        nodes = build_connected(
            sim, cluster, n,
            _storage_stack_for_redundancy(policy, replication=r, n_estimate=n, target=target),
            warmup=2 * policy.check_period,
        )
        assert sorted(node.node_id for node in nodes) == sorted(s.node_id for s in sieves)
        sim.run_for(10 * policy.check_period)
        assert cluster.metrics.counter_value("redundancy.repairs") == 0

    def test_a_rebooted_node_does_not_count_its_address_cache(self):
        """One range covers every node, so each id a node has cached is a
        range mate; with everyone it cached down, the rebooted node has
        no evidence that any of them is up, and counts none."""
        sim = Simulation(seed=94)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        n = 16
        policy = RepairPolicy(check_period=self.PERIOD, grace_window=1000.0)
        nodes = build_connected(
            sim, cluster, n, _storage_stack_for_redundancy(policy, replication=n, n_estimate=n),
            warmup=4 * self.PERIOD,
        )
        node = nodes[0]
        assert node.protocol("redundancy").last_population > 0
        cached = node.durable["membership:address-cache"]
        assert cached
        for other in nodes:
            other.crash()
        node.boot()
        assert set(node.protocol("membership").view.peers()) == set(cached)
        sim.run_for(3 * self.PERIOD)
        manager = node.protocol("redundancy")
        assert manager.last_population == 0.0
        assert manager.same_range_peers() == []

    def test_a_live_neighbour_does_not_count_a_rebooted_nodes_cache(self):
        """A rebooted node ships the ids of its address cache in its
        shuffles; the crashed peers among them must not count at the
        live peers that receive them."""
        sim = Simulation(seed=95)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        n = 32
        policy = RepairPolicy(check_period=self.PERIOD, grace_window=1000.0)
        nodes = build_connected(
            sim, cluster, n, _storage_stack_for_redundancy(policy, replication=n, n_estimate=n),
            warmup=4 * self.PERIOD,
        )
        rebooted = nodes[0]
        cached = sorted(rebooted.durable["membership:address-cache"])
        assert len(cached) > 2
        # Half of what it cached crashes; the other half stays up, so
        # the rebooted node rejoins and ships the crashed ids onward.
        crashed = set(cached[::2])
        rebooted.crash()
        for node in nodes:
            if node.node_id in crashed:
                node.crash()
        live = [node for node in nodes if node.is_up]
        sim.run_for(4 * self.PERIOD)  # the crashed peers age out of every count
        rebooted.boot()
        for _ in range(4):
            sim.run_for(self.PERIOD)
            # One range covers every node: a live node's range mates are
            # the other live nodes and the rebooted one.
            counts = [node.protocol("redundancy").last_population for node in live]
            assert max(counts) <= len(live), counts
    def test_range_driven_below_target_is_repaired_in_bound(self):
        """Crash all but two members of the widest range: a survivor
        repairs within grace_window + 2 check periods of the crash.

        The bound is asserted on the median over five seeds."""
        period, grace = self.PERIOD, 10.0
        delays = []
        for seed in range(1, 6):
            sim = Simulation(seed=seed)
            cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
            n = 48
            policy = RepairPolicy(check_period=period, grace_window=grace)
            nodes = build_connected(
                sim, cluster, n,
                _storage_stack_for_redundancy(policy, replication=6, n_estimate=n, target=8),
                warmup=40.0,
            )
            ranges = {}
            for node in nodes:
                ranges.setdefault(node.protocol("redundancy").sieve.range_key(), []).append(node)
            widest = max(ranges.values(), key=len)
            survivors = [node.protocol("redundancy") for node in widest[:2]]
            repaired = []
            for manager in survivors:
                manager._repair = (lambda repair=manager._repair:
                                   (repaired.append(sim.now), repair()))
            crashed_at = sim.now
            for node in widest[2:]:
                node.crash()
            sim.run_for(grace + 2 * period)
            delays.append(min(repaired) - crashed_at if repaired else float("inf"))
        assert statistics.median(delays) <= grace + 2 * period, delays
