"""Nemesis schedules, combinators and the fault driver."""

from __future__ import annotations

import pytest

from repro.check.nemesis import Nemesis, NemesisEvent, NemesisSchedule
from repro.core.config import DataDropletsConfig
from repro.core.datadroplets import DataDroplets
from repro.sim.node import NodeState


def small_dd(seed: int = 7, **overrides) -> DataDroplets:
    config = DataDropletsConfig(
        seed=seed, n_storage=12, n_soft=2, replication=3, **overrides)
    return DataDroplets(config).start(warmup=8.0)


class TestNemesisSchedule:
    def test_events_sorted_and_horizon(self):
        sched = NemesisSchedule([
            NemesisEvent("loss", at=10.0, duration=5.0, params={"rate": 0.1}),
            NemesisEvent("partition", at=2.0, duration=20.0),
        ])
        assert [e.kind for e in sched] == ["partition", "loss"]
        assert sched.horizon == 22.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            NemesisEvent("meteor", at=0.0)

    def test_sequence_shifts_later_schedules(self):
        a = NemesisSchedule([NemesisEvent("loss", at=0.0, duration=10.0)])
        b = NemesisSchedule([NemesisEvent("delay", at=1.0, duration=2.0)])
        seq = NemesisSchedule.sequence(a, b, gap=5.0)
        kinds = {e.kind: e for e in seq}
        assert kinds["loss"].at == 0.0
        assert kinds["delay"].at == 1.0 + 10.0 + 5.0

    def test_overlap_merges_on_shared_origin(self):
        a = NemesisSchedule([NemesisEvent("loss", at=3.0, duration=1.0)])
        b = NemesisSchedule([NemesisEvent("delay", at=3.0, duration=1.0)])
        merged = NemesisSchedule.overlap(a, b)
        assert len(merged) == 2
        assert all(e.at == 3.0 for e in merged)

    def test_without_and_with_duration(self):
        sched = NemesisSchedule([
            NemesisEvent("loss", at=0.0, duration=8.0),
            NemesisEvent("delay", at=5.0, duration=4.0),
        ])
        assert [e.kind for e in sched.without(0)] == ["delay"]
        halved = sched.with_duration(0, 4.0)
        assert halved.events[0].duration == 4.0
        assert sched.events[0].duration == 8.0  # original untouched

    def test_from_seed_deterministic(self):
        a = NemesisSchedule.from_seed(99, duration=50.0, events=5)
        b = NemesisSchedule.from_seed(99, duration=50.0, events=5)
        assert a.to_dicts() == b.to_dicts()
        assert len(a) == 5
        assert a.horizon <= 50.0
        # stock kinds never kill permanently
        for event in a:
            assert not event.params.get("permanent", False)

    def test_roundtrip_through_dicts(self):
        sched = NemesisSchedule.from_seed(3, duration=30.0, events=4)
        again = NemesisSchedule.from_dicts(sched.to_dicts())
        assert again.to_dicts() == sched.to_dicts()


class TestNemesisDriver:
    def test_transient_crash_reverts(self):
        dd = small_dd()
        sched = NemesisSchedule([
            NemesisEvent("crash", at=1.0, duration=5.0, params={"count": 3})])
        nemesis = Nemesis(dd, sched)
        nemesis.arm()
        dd.run_for(3.0)
        down = [n for n in dd.storage_nodes if n.state is NodeState.DOWN]
        assert len(down) == 3
        dd.run_for(5.0)
        assert all(n.is_up for n in dd.storage_nodes)

    def test_loss_rate_reverts_to_baseline(self):
        dd = small_dd()
        net = dd.cluster.network
        base = net.loss_rate
        sched = NemesisSchedule([
            NemesisEvent("loss", at=0.5, duration=2.0, params={"rate": 0.5})])
        Nemesis(dd, sched).arm()
        dd.run_for(1.0)
        assert net.loss_rate == 0.5
        dd.run_for(3.0)
        assert net.loss_rate == base

    def test_overlapping_windows_end_with_their_last_one(self):
        # The earlier window ends first: the later one's rate holds until
        # it ends too, then the baseline is back.
        dd = small_dd()
        net = dd.cluster.network
        base = (net.loss_rate, net.extra_delay)
        sched = NemesisSchedule([
            NemesisEvent("loss", at=0.5, duration=2.0, params={"rate": 0.5}),
            NemesisEvent("loss", at=1.0, duration=3.0, params={"rate": 0.3}),
            NemesisEvent("delay", at=1.5, duration=1.0, params={"extra": 0.2}),
            NemesisEvent("delay", at=2.0, duration=3.0, params={"extra": 0.1})])
        Nemesis(dd, sched).arm()
        dd.run_for(3.0)  # at 3.0 the first loss and the first delay are over
        assert (net.loss_rate, net.extra_delay) == (0.3, 0.1)
        dd.run_for(3.0)
        assert (net.loss_rate, net.extra_delay) == base

    def test_partition_splits_storage_only(self):
        dd = small_dd()
        sched = NemesisSchedule([
            NemesisEvent("partition", at=0.5, duration=10.0, params={"pieces": 2})])
        Nemesis(dd, sched).arm()
        dd.run_for(1.0)
        reachable = dd.cluster.network._reachable
        assert reachable is not None
        storage_ids = [n.node_id for n in dd.storage_nodes]
        groups = {}
        for nid in storage_ids:
            groups.setdefault(
                tuple(reachable(nid, other) for other in storage_ids), []).append(nid)
        assert len(groups) == 2
        # soft/client nodes stay reachable from everyone
        soft = dd.soft_nodes[0].node_id
        assert all(reachable(nid, soft) and reachable(soft, nid)
                   for nid in storage_ids)

    def test_heal_reverts_everything(self):
        dd = small_dd()
        sched = NemesisSchedule([
            NemesisEvent("crash", at=0.5, duration=60.0, params={"count": 2}),
            NemesisEvent("duplicate", at=0.5, duration=60.0, params={"rate": 0.3}),
            NemesisEvent("isolate", at=0.5, duration=60.0, params={"count": 1}),
        ])
        nemesis = Nemesis(dd, sched)
        nemesis.arm()
        dd.run_for(2.0)
        net = dd.cluster.network
        assert net.duplicate_rate == 0.3
        assert net._drop_filter is not None
        nemesis.heal()
        assert net.duplicate_rate == 0.0
        assert net._drop_filter is None
        assert net._reachable is None
        assert all(n.is_up for n in dd.storage_nodes)

    def test_fault_windows_recorded_in_history(self):
        from repro.check.history import History

        dd = small_dd()
        history = History()
        sched = NemesisSchedule([
            NemesisEvent("delay", at=1.0, duration=4.0, params={"extra": 0.05})])
        Nemesis(dd, sched, history=history).arm()
        dd.run_for(2.0)
        assert len(history.fault_windows) == 1
        lo, hi = history.fault_windows[0]
        assert hi - lo == pytest.approx(4.0)

    def test_churn_event_stops_at_heal(self):
        dd = small_dd()
        sched = NemesisSchedule([
            NemesisEvent("churn", at=0.5, duration=10.0,
                         params={"rate": 2.0, "mean_downtime": 3.0})])
        nemesis = Nemesis(dd, sched)
        nemesis.arm()
        dd.run_for(5.0)
        assert nemesis._churns and nemesis._churns[0].crashes > 0
        nemesis.heal()
        assert not nemesis._churns[0]._running
        assert all(n.is_up for n in dd.storage_nodes)

    def test_atomic_wipeout_records_extinct_keys(self):
        dd = small_dd()
        dd.put("doomed", {"v": 1.0})
        dd.run_for(5.0)
        holders = [n for n in dd.storage_nodes
                   if (mt := n.durable.get("memtable")) and mt.get("doomed")]
        assert len(holders) >= 2
        values = [n.node_id.value for n in holders]
        sched = NemesisSchedule([
            NemesisEvent("crash", at=0.5,
                         params={"count": len(holders), "permanent": True})])
        nemesis = Nemesis(dd, sched)
        # Pin victim selection to exactly the holders: sample() draws from
        # the UP pool, so shrink it to the holders via a monkeypatched pick.
        nemesis._pick_victims = lambda pool, ev, default_fraction: holders
        nemesis.arm()
        dd.run_for(1.0)
        assert "doomed" in nemesis.extinct_keys
        info = nemesis.extinct_keys["doomed"]
        assert info["holders_before"] == len(holders)
        assert sorted(info["killed"]) == sorted(values)

    def test_single_kill_is_not_extinction(self):
        dd = small_dd()
        dd.put("survivor", {"v": 1.0})
        dd.run_for(5.0)
        holders = [n for n in dd.storage_nodes
                   if (mt := n.durable.get("memtable")) and mt.get("survivor")]
        assert len(holders) >= 2
        sched = NemesisSchedule([
            NemesisEvent("crash", at=0.5, params={"count": 1, "permanent": True})])
        nemesis = Nemesis(dd, sched)
        nemesis._pick_victims = lambda pool, ev, default_fraction: [holders[0]]
        nemesis.arm()
        dd.run_for(1.0)
        # one victim leaves the other holders alive: not extinct
        assert "survivor" not in nemesis.extinct_keys
        assert nemesis.kills == 1
