"""Churn-adaptive redundancy: policy maths, hysteresis, peer eviction.

Covers the AdaptiveRepairPolicy provider (targets monotone in churn,
clamps, hysteresis, cadence bounds) and the three peer-eviction paths
that keep ``known_peers`` from accumulating crashed nodes forever:
liveness-oracle filtering, census-TTL ageing, and repair-exchange
timeouts.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.ids import NodeId
from repro.estimation.lifetimes import LifetimeEstimator
from repro.membership import CyclonProtocol
from repro.redundancy.adaptive import AdaptiveRepairPolicy
from repro.redundancy.manager import PEER_TTL_CENSUSES, RedundancyManager, RepairPolicy
from repro.redundancy.repair import RangeRepair
from repro.sieve import BucketSieve
from repro.sim import Cluster, Simulation, UniformLatency
from repro.sim.metrics import Metrics
from repro.store import Memtable


def _estimator(mean_lifetime: float, n: int = 200, min_deaths: int = 8) -> LifetimeEstimator:
    """Estimator fed exactly the exponential quantile grid of ``mean``
    (deterministic, scale-faithful: the fitted scale tracks the mean)."""
    est = LifetimeEstimator(min_deaths=min_deaths)
    now = 0.0
    for i in range(n):
        life = -mean_lifetime * math.log(1.0 - (i + 0.5) / n)
        est.note_join(i, now)
        est.note_death(i, now + life)
        now += 1.0
    return est


def _policy(est: LifetimeEstimator, **kwargs) -> AdaptiveRepairPolicy:
    base = kwargs.pop("base", RepairPolicy(check_period=5.0, grace_window=15.0))
    defaults = dict(replication=5, r_min=1, r_max=50, loss_tolerance=1e-2)
    defaults.update(kwargs)
    return AdaptiveRepairPolicy(base=base, lifetimes=est, **defaults)


class TestAdaptiveTargets:
    def test_base_policy_before_min_deaths(self):
        est = LifetimeEstimator(min_deaths=8)  # no data at all
        policy = _policy(est, r_min=2, r_max=10)
        assert policy.raw_target(0.0) == 5  # the deployment's replication
        assert policy.check_period(0.0) == 5.0
        assert policy.grace_window(0.0) == 15.0

    @given(
        st.floats(min_value=5.0, max_value=5e3),
        st.floats(min_value=1.05, max_value=50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_target_monotone_in_churn_rate(self, mean, factor):
        """Shorter session lifetimes (faster churn) never lower the
        replica target: r(churnier) >= r(calmer)."""
        churny = _policy(_estimator(mean))
        calm = _policy(_estimator(mean * factor))
        now = 200.0
        assert churny.raw_target(now) >= calm.raw_target(now)

    def test_clamps(self):
        # sessions die ~instantly -> target slams into r_max
        storm = _policy(_estimator(0.5), r_min=2, r_max=7)
        assert storm.raw_target(200.0) == 7
        # sessions outlive the window by orders of magnitude -> r_min
        calm = _policy(_estimator(1e6), r_min=2, r_max=7)
        assert calm.raw_target(200.0) == 2

    def test_tighter_tolerance_needs_more_replicas(self):
        est = _estimator(150.0)
        loose = _policy(est, loss_tolerance=0.1)
        tight = _policy(est, loss_tolerance=1e-6)
        assert tight.raw_target(200.0) >= loose.raw_target(200.0)

    def test_survival_uses_conditional_window(self):
        est = _estimator(100.0)
        policy = _policy(est, recovery_window=25.0)
        p = policy.survival_over_window(200.0)
        # exponential data: S(window) = exp(-25/scale), age-independent
        fit = est.fit(200.0)
        assert p == pytest.approx(math.exp(-25.0 / fit.scale), rel=1e-6)


class TestHysteresis:
    def _flappable(self):
        """Policy whose raw target we can steer by swapping estimators."""
        est = _estimator(0.5)  # storm: raw target == r_max == 9
        return _policy(est, r_min=2, r_max=9, lower_rounds=3)

    def test_lowering_needs_consecutive_rounds(self):
        policy = self._flappable()
        assert policy.target_for(100.0, "range") == 9
        policy.lifetimes = _estimator(1e6)  # calm: raw target 2
        # two agreeing computations are not enough ...
        assert policy.target_for(101.0, "range") == 9
        assert policy.target_for(102.0, "range") == 9
        # ... the third consecutive one publishes the lower target
        assert policy.target_for(103.0, "range") == 2

    def test_raise_is_immediate_and_resets_streak(self):
        policy = self._flappable()
        policy.lifetimes = _estimator(1e6)
        assert policy.target_for(100.0, "range") == 2  # first sight publishes
        policy.lifetimes = _estimator(0.5)
        assert policy.target_for(101.0, "range") == 9  # raise: no delay

    def test_ranges_have_independent_state(self):
        policy = self._flappable()
        assert policy.target_for(100.0, "a") == 9
        policy.lifetimes = _estimator(1e6)
        assert policy.target_for(101.0, "b") == 2  # fresh range: no history
        assert policy.target_for(101.0, "a") == 9  # a still held up


class TestCadenceAndValidation:
    def test_check_period_clamped_to_bounds(self):
        base = RepairPolicy(check_period=10.0)
        storm = _policy(_estimator(0.5), base=base, period_bounds=(0.5, 4.0))
        calm = _policy(_estimator(1e6), base=base, period_bounds=(0.5, 4.0))
        assert storm.check_period(200.0) == pytest.approx(5.0)  # 0.5x floor
        assert calm.check_period(200.0) == pytest.approx(40.0)  # 4x ceiling

    def test_range_repair_follows_the_cadence_factor(self):
        """Adaptive mode paces same-range reconciliation by the factor
        that paces the census: a 4x calmer population reconciles 4x
        less often."""
        base = RepairPolicy(check_period=10.0)
        calm = _policy(_estimator(1e6), base=base, period_bounds=(0.5, 4.0))
        assert calm.cadence_factor(200.0) == pytest.approx(4.0)
        assert calm.check_period(200.0) == base.check_period * calm.cadence_factor(200.0)

        def rounds(period_scale):
            sim = Simulation(seed=29)
            cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
            ids = []

            def factory(node):
                memtable = node.durable.setdefault("memtable", Memtable())
                sieve = BucketSieve(node.node_id, 4, lambda: 2)

                def others():
                    return [i for i in ids if i != node.node_id]

                return [CyclonProtocol(view_size=4, shuffle_size=2, period=1.0),
                        RangeRepair(memtable, sieve, peer_source=others, period=1.0,
                                    period_scale=period_scale)]

            ids += [node.node_id for node in cluster.add_nodes(2, factory)]
            cluster.seed_views("membership", 1)
            sim.run_for(80.0)
            return cluster.metrics.counter_value("antientropy.rounds")

        static, adaptive = rounds(None), rounds(lambda now: calm.cadence_factor(now + 200.0))
        assert static == pytest.approx(160, rel=0.1)
        assert adaptive == pytest.approx(static / 4, rel=0.15)

    def test_grace_window_stretches_with_survival(self):
        base = RepairPolicy(grace_window=20.0)
        storm = _policy(_estimator(0.5), base=base)
        calm = _policy(_estimator(1e6), base=base)
        assert storm.grace_window(200.0) < 20.0
        assert calm.grace_window(200.0) > 20.0

    def test_validation(self):
        est = LifetimeEstimator()
        base = RepairPolicy()
        with pytest.raises(ValueError):
            AdaptiveRepairPolicy(base, est, replication=4, r_min=0)
        with pytest.raises(ValueError):
            AdaptiveRepairPolicy(base, est, replication=4, r_min=5, r_max=3)
        with pytest.raises(ValueError):
            AdaptiveRepairPolicy(base, est, replication=4, loss_tolerance=1.5)
        with pytest.raises(ValueError):
            AdaptiveRepairPolicy(base, est, replication=4, recovery_window=0.0)
        with pytest.raises(ValueError):
            AdaptiveRepairPolicy(base, est, replication=4, lower_rounds=0)
        with pytest.raises(ValueError):
            AdaptiveRepairPolicy(base, est, replication=4, period_bounds=(0.0, 2.0))
        with pytest.raises(ValueError):
            AdaptiveRepairPolicy(base, est, replication=4, period_bounds=(3.0, 2.0))
        with pytest.raises(ValueError):
            AdaptiveRepairPolicy(base, est, replication=4, reference_death_probability=1.0)


# ----------------------------------------------------------------------
# peer eviction (the known_peers-never-forgets regression)
# ----------------------------------------------------------------------
class _StubHost:
    """Just enough Host for RedundancyManager's bookkeeping paths."""

    def __init__(self):
        self.metrics = Metrics()
        self.rng = random.Random(7)
        self.now = 0.0
        self.node_id = NodeId(0)


def _manager(policy=None, liveness=None) -> RedundancyManager:
    memtable = Memtable()
    sieve = BucketSieve(NodeId(0), 3, lambda: 16)
    manager = RedundancyManager(memtable, sieve, lambda: 16, policy or RepairPolicy(),
                                replication=3, liveness=liveness)
    manager.host = _StubHost()
    return manager


class TestPeerEviction:
    def test_absorb_evicts_dead_by_liveness_oracle(self):
        manager = _manager(liveness=lambda value: value != 7)
        manager.known_peers = [NodeId(5), NodeId(7)]
        manager._peer_seen = {5: 0, 7: 0}
        manager.censuses = 1
        manager._absorb_peers([5])
        assert [p.value for p in manager.known_peers] == [5]
        assert manager.host.metrics.counter_value("redundancy.peers_evicted") == 1

    def test_absorb_evicts_peers_unseen_for_ttl_censuses(self):
        manager = _manager()
        manager.known_peers = [NodeId(5), NodeId(9)]
        manager._peer_seen = {5: 0, 9: 0}
        manager.censuses = PEER_TTL_CENSUSES  # peer 9 unseen for that many censuses
        manager._absorb_peers([5])  # 5 is re-sighted, 9 is not
        assert [p.value for p in manager.known_peers] == [5]

    def test_note_peer_failed_evicts(self):
        manager = _manager()
        manager.known_peers = [NodeId(5), NodeId(7)]
        manager._peer_seen = {5: 0, 7: 0}
        manager.note_peer_failed(NodeId(7))
        assert [p.value for p in manager.known_peers] == [5]
        assert 7 not in manager._peer_seen
        # idempotent: evicting an unknown peer is a no-op
        manager.note_peer_failed(NodeId(7))
        assert manager.host.metrics.counter_value("redundancy.peers_evicted") == 1

    def test_repair_skips_dead_peers(self):
        """_repair must not target peers the liveness oracle calls dead —
        with none alive it falls back to gossip re-dissemination."""
        calls = []

        class _FakeGossip:
            def broadcast(self, item_id, payload):
                calls.append(item_id)

        manager = _manager(liveness=lambda value: False)
        manager.known_peers = [NodeId(5)]
        host = manager.host
        host.protocol = lambda name: {"gossip": _FakeGossip()}[name]
        manager._repair()
        assert manager.host.metrics.counter_value("redundancy.repair_fallbacks") == 1
        assert manager.host.metrics.counter_value("redundancy.targeted_repairs") == 0

    def test_fallback_charges_each_payload_its_walked_size(self):
        """redundancy.repair_bytes is what a gossip message carrying each
        re-disseminated payload is charged for it, not 64 B an item."""
        from repro.common.messages import walked_size
        from repro.epidemic.eager import GossipMessage
        from repro.softstate.messages import WritePayload
        from repro.store import Version, make_tuple

        sent = []

        class _FakeGossip:
            def broadcast(self, item_id, payload):
                sent.append(payload)

        manager = _manager()
        manager.repair_wrap = lambda item: WritePayload(item, None)
        manager.host.protocol = lambda name: {"gossip": _FakeGossip()}[name]
        for i in range(40):
            manager.memtable.put(make_tuple(f"k{i}", {"pad": "x" * i}, Version(1, 0)))
        manager._redisseminate()
        assert len(sent) >= 2
        sizes = [walked_size(payload) for payload in sent]
        assert all(size != 64 for size in sizes)
        assert manager.host.metrics.counter_value("redundancy.repair_bytes") == sum(sizes)
        for payload in sent:  # a None field walks as one byte
            charged = GossipMessage("g", payload).size_bytes() - GossipMessage("g", None).size_bytes()
            assert charged == walked_size(payload) - 1

    def test_exchange_timeout_reports_failed_peer(self):
        """A crashed repair partner times out ``max_failures`` exchanges
        and is reported through on_peer_failed (satellite: crashed peers
        must leave known_peers instead of absorbing rounds forever)."""
        sim = Simulation(seed=19)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        failed = []

        def factory(node):
            memtable = node.durable.setdefault("memtable", Memtable())
            sieve = BucketSieve(node.node_id, 4, lambda: 2)
            repair = RangeRepair(
                memtable, sieve, peer_source=lambda: [],
                period=500.0,  # manual initiation only
                exchange_timeout=3.0, max_failures=2,
                on_peer_failed=failed.append,
            )
            return [CyclonProtocol(view_size=4, shuffle_size=2, period=1.0), repair]

        alice, bob = cluster.add_nodes(2, factory)
        cluster.seed_views("membership", 1)
        sim.run_for(5.0)

        bob.crash()  # silent partner from here on
        repair = alice.protocol("range-repair")
        repair.repair_with(bob.node_id)
        sim.run_for(5.0)  # first exchange times out
        assert failed == []
        repair.repair_with(bob.node_id)
        sim.run_for(5.0)  # second consecutive timeout -> reported
        assert failed == [bob.node_id]
        assert alice.metrics.counter_value("range_repair.exchange_timeouts") == 2

    def test_response_clears_failure_streak(self):
        """An answered exchange resets the consecutive-failure count."""
        sim = Simulation(seed=23)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        failed = []

        def factory(node):
            memtable = node.durable.setdefault("memtable", Memtable())
            sieve = BucketSieve(node.node_id, 4, lambda: 2)
            repair = RangeRepair(
                memtable, sieve, peer_source=lambda: [],
                period=500.0, exchange_timeout=3.0, max_failures=2,
                on_peer_failed=failed.append,
            )
            return [CyclonProtocol(view_size=4, shuffle_size=2, period=1.0), repair]

        alice, bob = cluster.add_nodes(2, factory)
        cluster.seed_views("membership", 1)
        sim.run_for(5.0)

        repair = alice.protocol("range-repair")
        bob.crash()
        repair.repair_with(bob.node_id)
        sim.run_for(5.0)  # timeout #1
        bob.boot()
        sim.run_for(2.0)
        repair.repair_with(bob.node_id)  # answered: streak resets
        sim.run_for(5.0)
        bob.crash()
        repair.repair_with(bob.node_id)
        sim.run_for(5.0)  # timeout #1 again, not #2
        assert failed == []

    def test_crashed_peer_leaves_known_peers_end_to_end(self):
        """Full deployment: a permanently killed storage node disappears
        from every survivor's known_peers within a few censuses."""
        from dataclasses import replace

        from repro.core.config import DataDropletsConfig
        from repro.core.datadroplets import DataDroplets

        config = DataDropletsConfig(seed=11, n_storage=16, n_soft=2,
                                    replication=4, redundancy_mode="adaptive")
        config = replace(
            config,
            repair=replace(config.repair, check_period=3.0, walks_per_check=24),
        )
        dd = DataDroplets(config).start(warmup=15.0)
        for i in range(12):
            dd.put(f"k{i}", {"v": i})
        dd.run_for(20.0)  # censuses discover same-range peers
        victim = dd.storage_nodes[0]
        victim.crash(permanent=True)
        dd.run_for(30.0)
        survivors = [n for n in dd.storage_nodes if n.is_up]
        holders = [
            n for n in survivors
            if victim.node_id in n.protocol("redundancy").known_peers
        ]
        assert holders == []
