"""Tests for random walks, census estimation and redundancy repair."""

import math
import statistics

import pytest

from repro.baselines import jsonwire
from repro.common.codec import BinaryCodec
from repro.common.ids import NodeId
from repro.epidemic import EagerGossip
from repro.estimation import ExtremaSizeEstimator
from repro.membership import CyclonProtocol
from repro.randomwalk import (
    PopulationEstimate,
    RandomWalkProtocol,
    WalkStep,
    collect_peer_ids,
    estimate_item_population,
    estimate_range_population,
    recommended_walk_ttl,
    walks_needed,
)
from repro.redundancy import RangeRepair, RedundancyManager, RepairPolicy
from repro.redundancy.manager import PEER_TTL_CENSUSES
from repro.sieve import BucketSieve
from repro.sieve.coverage import range_population
from repro.sieve.keyspace import node_position
from repro.sim import Cluster, FixedLatency, Simulation, UniformLatency
from repro.store import Memtable, Version, make_tuple

from tests.conftest import build_connected


class TestSamplingMath:
    def test_recommended_ttl_grows_logarithmically(self):
        assert recommended_walk_ttl(16) < recommended_walk_ttl(1 << 16)
        assert recommended_walk_ttl(2) >= 1

    def test_population_estimate(self):
        est = PopulationEstimate("rk", walks=100, hits=25, n_estimate=400)
        assert est.proportion == 0.25
        assert est.population == 100.0
        assert est.stderr > 0

    def test_zero_walks(self):
        est = PopulationEstimate("rk", walks=0, hits=0, n_estimate=100)
        assert est.population == 0.0
        assert est.stderr == float("inf")

    def test_estimate_range_population(self):
        reports = [{"range_key": "a"}] * 3 + [{"range_key": "b"}] * 7
        est = estimate_range_population(reports, "a", n_estimate=100)
        assert est.hits == 3
        assert est.population == pytest.approx(30.0)

    def test_estimate_item_population(self):
        reports = [{"holds": True}, {"holds": False}, {"holds": True}]
        est = estimate_item_population(reports, n_estimate=90)
        assert est.population == pytest.approx(60.0)

    def test_walks_needed_cheaper_for_bigger_ranges(self):
        per_range = walks_needed(10_000, range_population=50)
        per_item = walks_needed(10_000, range_population=4)
        assert per_range < per_item

    def test_walks_needed_validation(self):
        with pytest.raises(ValueError):
            walks_needed(100, 0)

    def test_collect_peer_ids(self):
        reports = [
            {"range_key": "a", "node": 1},
            {"range_key": "a", "node": 2},
            {"range_key": "b", "node": 3},
            {"range_key": "a", "node": 1},
        ]
        assert collect_peer_ids(reports, "a") == [1, 2]
        assert collect_peer_ids(reports, "a", exclude=1) == [2]


def _walk_cluster(n=60, seed=71, reporter=None):
    sim = Simulation(seed=seed)
    cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))

    def factory(node):
        walker = RandomWalkProtocol(reporter=reporter, timeout=8.0)
        return [CyclonProtocol(view_size=10, shuffle_size=5, period=1.0), walker]

    nodes = build_connected(sim, cluster, n, factory, warmup=10.0)
    return sim, cluster, nodes


class TestRandomWalks:
    def test_walks_complete_and_report(self):
        sim, cluster, nodes = _walk_cluster()
        results = []
        nodes[0].protocol("random-walk").start_walks(30, 8, results.append)
        sim.run_for(10.0)
        assert len(results) == 1
        reports = results[0]
        assert len(reports) == 30
        assert all("node" in r for r in reports)

    def test_endpoints_are_spread(self):
        sim, cluster, nodes = _walk_cluster(n=40)
        results = []
        nodes[0].protocol("random-walk").start_walks(80, 10, results.append)
        sim.run_for(15.0)
        endpoints = {r["node"] for r in results[0]}
        assert len(endpoints) > 15  # near-uniform sampling touches many nodes

    def test_zero_ttl_reports_self(self):
        sim, cluster, nodes = _walk_cluster(n=10)
        outcome = []
        nodes[0].protocol("random-walk").start_walk(0, outcome.append)
        sim.run_for(5.0)
        assert outcome[0]["node"] == nodes[0].node_id.value

    def test_custom_reporter_fields(self):
        sim, cluster, nodes = _walk_cluster(reporter=lambda probe: {"extra": 42})
        outcome = []
        nodes[0].protocol("random-walk").start_walk(5, outcome.append)
        sim.run_for(5.0)
        assert outcome[0]["extra"] == 42

    def test_probe_passed_to_reporter(self):
        sim, cluster, nodes = _walk_cluster(
            reporter=lambda probe: {"echo": probe.get("key")}
        )
        outcome = []
        nodes[0].protocol("random-walk").start_walk(5, outcome.append, probe={"key": "K"})
        sim.run_for(5.0)
        assert outcome[0]["echo"] == "K"

    def test_timeout_reports_none(self):
        sim = Simulation(seed=72)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))

        def factory(node):
            return [CyclonProtocol(view_size=4, shuffle_size=2, period=1.0),
                    RandomWalkProtocol(timeout=3.0)]

        nodes = build_connected(sim, cluster, 10, factory, warmup=5.0)
        # Crash everyone else so the walk dies mid-flight.
        walker = nodes[0].protocol("random-walk")
        outcome = []
        walker.start_walk(6, outcome.append)
        for node in nodes[1:]:
            node.crash()
        sim.run_for(10.0)
        assert outcome == [None]

    def test_negative_ttl_rejected(self):
        sim, cluster, nodes = _walk_cluster(n=5)
        with pytest.raises(ValueError):
            nodes[0].protocol("random-walk").start_walk(-1, lambda r: None)


def _walk_messages(cluster):
    return cluster.metrics.counter_value("net.sent.random-walk")


class TestSamplingWalks:
    """One mixed walk yields many samples; the sampler is still a sampler."""

    @pytest.mark.parametrize("samples, ttl, walks", [(32, 10, 4), (8, 8, 1), (30, 8, 4), (5, 0, 5)])
    def test_census_message_count_is_exact(self, samples, ttl, walks):
        sim, cluster, nodes = _walk_cluster(n=200, seed=73)
        origin = nodes[0]
        metrics = cluster.metrics
        results = []
        before = _walk_messages(cluster)
        origin.protocol("random-walk").start_walks(samples, ttl, results.append)
        sim.run_for(5.0)
        assert len(results) == 1, "on_done fires exactly once"
        reports = results[0]
        assert len(reports) == samples
        # Every walk takes its mixing hops plus one hop per further
        # sample, every sample is one report; a sample taken at the
        # origin itself is handed over without a message. With even
        # walks of s samples this is k*(ttl+s-1)+W: 100 messages for the
        # stock census (N=64: ttl 10, W 32), where W*(ttl+1) was 352.
        assert walks == math.ceil(samples / max(1, ttl))
        local = sum(1 for r in reports if r["node"] == origin.node_id.value)
        hops = walks * (ttl - 1) + samples if ttl else 0  # ttl 0 samples the origin
        assert _walk_messages(cluster) - before == hops + samples - local
        if samples % walks == 0 and ttl:
            per_walk = samples // walks
            assert hops + samples == walks * (ttl + per_walk - 1) + samples
        assert metrics.counter_value("walks.started") == walks
        assert metrics.counter_value("walks.hops") == hops
        assert metrics.counter_value("walks.samples_requested") == samples
        assert metrics.counter_value("walks.samples_returned") == samples
        assert metrics.counter_value("walks.timeouts") == 0
        sim.run_for(10.0)  # past the deadline: the timer was cancelled
        assert len(results) == 1

    def test_census_estimate_is_unbiased(self):
        n, r = 200, 25  # 8 buckets of ~25 nodes
        sim = Simulation(seed=74)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        sieves = {}

        def factory(node):
            sieve = sieves[node.node_id.value] = BucketSieve(node.node_id, r, lambda: n)
            walker = RandomWalkProtocol(
                reporter=lambda probe: {"range_key": sieve.range_key()}, timeout=8.0)
            return [CyclonProtocol(view_size=10, shuffle_size=5, period=1.0), walker]

        nodes = build_connected(sim, cluster, n, factory, warmup=10.0)
        truth = range_population(list(sieves.values()))
        ttl = recommended_walk_ttl(n)
        errors = []
        for _ in range(2):  # 400 censuses, two per node
            for node in nodes:
                range_key = sieves[node.node_id.value].range_key()

                def done(reports, range_key=range_key):
                    assert len(reports) == 32
                    estimate = estimate_range_population(reports, range_key, n)
                    errors.append(estimate.population - truth[range_key])

                node.protocol("random-walk").start_walks(32, ttl, done)
            sim.run_for(5.0)
        assert len(errors) == 2 * n
        stderr = statistics.stdev(errors) / math.sqrt(len(errors))
        assert abs(statistics.fmean(errors)) < 2 * stderr

    def test_crash_mid_walk_keeps_samples_already_reported(self):
        sim = Simulation(seed=75)
        cluster = Cluster(sim, latency=FixedLatency(0.01))

        def factory(node):
            return [CyclonProtocol(view_size=6, shuffle_size=3, period=1.0),
                    RandomWalkProtocol(timeout=3.0)]

        nodes = build_connected(sim, cluster, 20, factory, warmup=5.0)
        walker = nodes[0].protocol("random-walk")
        results = []
        walker.start_walks(6, 6, results.append)  # one walk, six samples
        # Hop 6 is reached after 60 ms and its report lands at 70 ms,
        # the next one 10 ms later, and so on.
        sim.run_for(0.085)
        for node in nodes[1:]:
            node.crash()
        assert results == []
        sim.run_for(1.0)
        returned = cluster.metrics.counter_value("walks.samples_returned")
        assert 0 < returned < 6
        assert results == []  # still waiting for the deadline
        sim.run_for(5.0)
        assert len(results) == 1
        assert len(results[0]) == returned
        assert cluster.metrics.counter_value("walks.started") == 1
        assert cluster.metrics.counter_value("walks.timeouts") == 1

    def test_duplicated_step_does_not_overfill_a_census(self):
        sim, cluster, nodes = _walk_cluster(n=30, seed=76)
        cluster.network.duplicate_rate = 1.0  # every hop forks the walk
        results = []
        nodes[0].protocol("random-walk").start_walks(12, 4, results.append)
        sim.run_for(5.0)
        assert len(results) == 1 and len(results[0]) == 12
        assert cluster.metrics.counter_value("walks.samples_returned") == 12

    def test_single_walk_is_the_one_sample_case(self):
        sim, cluster, nodes = _walk_cluster(
            n=50, seed=77, reporter=lambda probe: {"echo": probe.get("key")})
        origin = nodes[0]
        outcome = []
        before = _walk_messages(cluster)
        origin.protocol("random-walk").start_walk(5, outcome.append, probe={"key": "K"})
        sim.run_for(5.0)
        assert len(outcome) == 1 and outcome[0]["echo"] == "K"
        local = outcome[0]["node"] == origin.node_id.value
        assert _walk_messages(cluster) - before == 5 + (0 if local else 1)
        assert cluster.metrics.counter_value("walks.started") == 1
        assert cluster.metrics.counter_value("walks.hops") == 5

    def test_empty_view_reports_from_here(self):
        sim = Simulation(seed=78)
        cluster = Cluster(sim, latency=FixedLatency(0.01))
        (node,) = cluster.add_nodes(1, lambda n: [
            CyclonProtocol(view_size=4, shuffle_size=2, period=1.0), RandomWalkProtocol()])
        outcome = []
        node.protocol("random-walk").start_walk(5, outcome.append)
        assert [r["node"] for r in outcome] == [node.node_id.value]  # synchronously
        # A walk that owes more samples than it can take reports once
        # and the rest is lost at the deadline.
        batches = []
        node.protocol("random-walk").start_walks(3, 5, batches.append)
        sim.run_for(11.0)
        assert [len(b) for b in batches] == [1]
        assert cluster.metrics.counter_value("walks.timeouts") == 1

    @pytest.mark.parametrize("codec", [jsonwire.Codec(), BinaryCodec()], ids=["json", "binary"])
    def test_walk_step_samples_round_trips(self, codec):
        step = WalkStep("7:3.1", NodeId(7), 4, {"key": "K"}, samples=6)
        decoded = codec.decode(codec.encode(NodeId(9), "random-walk", step))
        assert decoded.message == step
        assert decoded.message.samples == 6
        assert WalkStep("7:3.0", NodeId(7), 4).samples == 1


def _storage_stack_for_redundancy(policy, replication=6, n_estimate=None, walk_timeout=8.0,
                                  target=None):
    """Minimal storage-ish stack: PSS + size estimator + gossip + walker +
    redundancy manager + range repair over a shared-bucket sieve. The
    census repairs toward ``target``, by default the sieve's r."""

    def factory(node):
        memtable = node.durable.setdefault("memtable", Memtable())
        size_est = ExtremaSizeEstimator(k=64, period=0.5)
        size_fn = (lambda: n_estimate) if n_estimate else size_est.estimate
        sieve = BucketSieve(node.node_id, replication, size_fn)
        gossip = EagerGossip(fanout=8)
        walker = RandomWalkProtocol(timeout=walk_timeout)
        manager = RedundancyManager(memtable, sieve, size_fn, policy,
                                    replication=target or replication)
        repair = RangeRepair(memtable, sieve, manager.same_range_peers, period=2.0,
                             on_peer_failed=manager.note_peer_failed)

        def apply_write(item_id, payload, hops):
            item = payload
            if sieve.admits(item.key, item.record) or item.key in memtable:
                memtable.put(item)

        gossip.subscribe(apply_write)
        return [CyclonProtocol(view_size=10, shuffle_size=5, period=1.0),
                size_est, gossip, walker, manager, repair]

    return factory


class TestRedundancyManager:
    def test_census_estimates_range_population(self):
        sim = Simulation(seed=81)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        n, r = 64, 8
        policy = RepairPolicy(check_period=5.0, walks_per_check=48, grace_window=1000.0)
        nodes = build_connected(
            sim, cluster, n, _storage_stack_for_redundancy(policy, replication=r, n_estimate=n),
            warmup=40.0,
        )
        populations = [n_.protocol("redundancy").last_population for n_ in nodes]
        measured = [p for p in populations if p is not None]
        assert measured, "census never completed"
        # true population per bucket is n / buckets = 64/8 = 8
        mean = sum(measured) / len(measured)
        assert 3 < mean < 16

    def test_census_discovers_same_range_peers(self):
        sim = Simulation(seed=82)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        n, r = 48, 12
        policy = RepairPolicy(check_period=5.0, walks_per_check=48, grace_window=1000.0)
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
                peer = cluster.node(peer_id)
                assert peer.protocol("redundancy").sieve.range_key() == my_range

    def test_range_repair_converges_same_range_stores(self):
        sim = Simulation(seed=83)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        n, r = 32, 16  # two buckets -> many same-range peers
        policy = RepairPolicy(check_period=3.0, walks_per_check=32, grace_window=1000.0)
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
            RepairPolicy(walks_per_check=0)
        with pytest.raises(ValueError):
            RepairPolicy(grace_window=-1)

    def test_repair_triggered_when_population_low(self):
        sim = Simulation(seed=84)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        n = 24
        # Demand far more replicas than exist -> census always deficient.
        policy = RepairPolicy(check_period=3.0, walks_per_check=24, grace_window=0.0)
        nodes = build_connected(
            sim, cluster, n,
            _storage_stack_for_redundancy(policy, replication=4, n_estimate=n, target=50),
            warmup=10.0,
        )
        nodes[0].durable["memtable"].put(make_tuple("any", {}, Version(1, 0)))
        sim.run_for(40.0)
        assert cluster.metrics.counter_value("redundancy.repairs") > 0

    def _quiet_manager(self, walks_per_check=32):
        """A 32-node storage stack whose censuses only run on demand."""
        sim = Simulation(seed=85)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        n = 32
        policy = RepairPolicy(check_period=1e6, walks_per_check=walks_per_check,
                              grace_window=30.0)
        nodes = build_connected(
            sim, cluster, n, _storage_stack_for_redundancy(policy, replication=4, n_estimate=n),
            warmup=10.0,
        )
        return sim, cluster, nodes[0].protocol("redundancy")

    def test_zero_report_census_is_inconclusive(self):
        sim, cluster, manager = self._quiet_manager()
        range_key = manager.sieve.range_key()
        peer = NodeId(999)
        manager._peer_seen[peer.value] = manager.censuses
        for clock in (None, 3.5):  # must neither start nor end a deficiency
            manager._deficient_since = clock
            manager.last_population = 7.0
            manager.known_peers = [peer]
            manager.censuses += 1
            manager._census_done([], range_key, 32.0, 32)
            assert manager._deficient_since == clock
            assert manager.last_population == 7.0
        assert cluster.metrics.counter_value("redundancy.census_inconclusive") == 2
        assert cluster.metrics.counter_value("redundancy.repairs") == 0
        assert manager.same_range_peers() == [peer]
        # ... but unseen peers still age out.
        manager.censuses += PEER_TTL_CENSUSES
        manager._census_done([], range_key, 32.0, 32)
        assert manager.same_range_peers() == []
        # A report that fails the position echo is no evidence either.
        wrong_bucket = (int(node_position(NodeId(5)) * 8) + 1) % 8
        liar = {"node": 5, "range_key": ("bucket", 8, wrong_bucket)}
        manager._deficient_since = None
        manager._census_done([liar], range_key, 32.0, 32)
        assert manager._deficient_since is None
        assert cluster.metrics.counter_value("redundancy.census_inconclusive") == 4

    def test_foreign_tally_changes_nothing(self):
        from repro.redundancy.manager import CensusTally

        sim, cluster, manager = self._quiet_manager()
        manager.known_peers = [NodeId(999)]
        manager._peer_seen[999] = manager.censuses
        manager.last_population = 7.0

        def state():
            return (manager.last_population, manager.same_range_peers(), manager._deficient_since,
                    manager._last_tally, manager.censuses, dict(manager._peer_seen))

        before = state()
        buckets, index = manager.sieve.range_key()[-2:]
        foreign = CensusTally(("bucket", buckets, (index + 1) % buckets), 0.0, (1, 2, 3))
        manager.on_message(NodeId(5), foreign)
        assert state() == before
        assert cluster.metrics.counter_value("redundancy.tallies_foreign") == 1
        assert cluster.metrics.counter_value("redundancy.tallies_received") == 0
        assert cluster.metrics.counter_value("redundancy.repairs") == 0

    def test_census_requests_follow_previous_yield(self):
        sim, cluster, manager = self._quiet_manager(walks_per_check=32)
        range_key = manager.sieve.range_key()

        def requested():
            return cluster.metrics.counter_value("walks.samples_requested")

        report = {"node": manager.host.node_id.value, "range_key": range_key}

        def next_request(returned, asked):
            manager._census_done([report] * returned, range_key, 32.0, asked)
            before = requested()
            manager.run_census()
            return requested() - before

        assert next_request(32, 32) == 32       # nothing lost: steady-state cost
        assert next_request(24, 32) == 43       # ceil(32 / 0.75)
        assert next_request(16, 32) == 64       # half lost: twice the samples
        assert next_request(0, 64) == 64        # never more than 2 W
        assert next_request(48, 64) == 43
        assert next_request(70, 64) == 32       # never fewer than W
        sim.run_for(12.0)  # the censuses above complete loss-free
        assert manager._census_yield == 1.0
        hist = cluster.metrics.histogram("redundancy.census_samples")
        assert hist.count >= 6


class TestCensusPerRange:
    """One census per sieve range, not one per node: the members of a
    range take turns walking and push the result to each other."""

    PERIOD = 5.0

    @pytest.fixture(scope="class")
    def fault_free(self):
        """64 nodes in 8 ranges, 20 census periods after the warm-up;
        the age of every node's freshest census sampled every 0.5 s."""
        sim = Simulation(seed=91)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        n, r = 64, 8
        policy = RepairPolicy(check_period=self.PERIOD, walks_per_check=32, grace_window=1000.0)
        nodes = build_connected(
            sim, cluster, n,
            _storage_stack_for_redundancy(policy, replication=r, n_estimate=n, target=2),
            warmup=30.0,
        )
        managers = [node.protocol("redundancy") for node in nodes]
        walks_before = cluster.metrics.counter_value("walks.started")
        start, ages = sim.now, []
        while sim.now - start < 20 * self.PERIOD:
            sim.run_for(0.5)
            ages += [sim.now - m._last_tally[1] for m in managers]
        return {
            "ranges": len({m.sieve.range_key() for m in managers}),
            "periods": (sim.now - start) / self.PERIOD,
            "walks": cluster.metrics.counter_value("walks.started") - walks_before,
            "walks_per_census": math.ceil(32 / recommended_walk_ttl(n)),
            "ages": ages,
            "cluster": cluster,
        }

    def test_about_one_census_per_range_per_period(self, fault_free):
        censuses = fault_free["walks"] / fault_free["walks_per_census"]
        per_range_period = censuses / (fault_free["ranges"] * fault_free["periods"])
        # Per node it was 8 (64 nodes / 8 ranges) per range per period.
        assert 0.75 <= per_range_period <= 1.5
        metrics = fault_free["cluster"].metrics
        assert metrics.counter_value("redundancy.census_skipped") > 0
        assert metrics.counter_value("redundancy.tallies_received") > 0

    def test_every_node_refreshed_within_two_periods(self, fault_free):
        ages = fault_free["ages"]
        # A census lands in every slot, so a node hears one at least every
        # two periods; where members' views of the range disagree a slot
        # can go empty, and the staleness rule walks at the first tick
        # past two periods (a tick is one period ± 10 %).
        assert sum(age > 2 * self.PERIOD for age in ages) <= 0.03 * len(ages)
        assert max(ages) <= 3.1 * self.PERIOD + 1.0

    def test_node_without_peers_walks_every_period(self):
        sim = Simulation(seed=92)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        n = 16
        policy = RepairPolicy(check_period=self.PERIOD, walks_per_check=16, grace_window=1000.0)
        nodes = build_connected(
            sim, cluster, n, _storage_stack_for_redundancy(policy, replication=1, n_estimate=n),
            warmup=10.0,
        )
        managers = [node.protocol("redundancy") for node in nodes]
        members = {}
        for manager in managers:
            members.setdefault(manager.sieve.range_key(), []).append(manager)
        alone = [group[0] for group in members.values() if len(group) == 1]
        assert alone, "expected a range with a single member"
        before = [manager.censuses_run for manager in alone]
        sim.run_for(10 * self.PERIOD)
        for manager, ran in zip(alone, before):
            assert manager.same_range_peers() == []
            assert manager.censuses_run - ran >= 9  # one per tick

    def test_range_driven_below_target_is_repaired_in_bound(self):
        """Crash all but two members of the widest range: a survivor
        repairs within grace_window + 2 check periods of the crash.

        One census is a 32-sample lottery (and most of the survivors'
        rotation is dead members, so detection waits on the staleness
        rule), so the bound is asserted on the median over five seeds;
        per-node censuses, one per node per period, meet it on the same
        seeds as well."""
        period, grace = self.PERIOD, 10.0
        delays = []
        for seed in range(1, 6):
            sim = Simulation(seed=seed)
            cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
            n = 48
            policy = RepairPolicy(check_period=period, walks_per_check=32, grace_window=grace)
            nodes = build_connected(
                sim, cluster, n,
                _storage_stack_for_redundancy(policy, replication=6, n_estimate=n,
                                              walk_timeout=1.5, target=8),
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
