"""Fault-injection integration tests across the full stack."""

import pytest

from repro import DataDroplets, DataDropletsConfig, IndexSpec, TimeoutError_, UnavailableError


def build(seed, **overrides):
    defaults = dict(n_storage=30, n_soft=2, replication=4)
    defaults.update(overrides)
    return DataDroplets(DataDropletsConfig(seed=seed, **defaults)).start(warmup=15.0)


class TestWriteUnavailable:
    def test_write_fails_visibly_with_storage_layer_down(self):
        dd = build(41)
        for node in dd.storage_nodes:
            node.crash()
        # no storage node acks, so the put is not acked either
        with pytest.raises(UnavailableError):
            dd.put("orphan", {"v": 1})
        assert dd.metrics.counter_value("soft.write_unavailable") == 1

    def test_the_same_put_succeeds_once_storage_returns(self):
        dd = build(42)
        for node in dd.storage_nodes:
            node.crash()
        with pytest.raises(UnavailableError):
            dd.put("orphan", {"v": 7})
        for node in dd.storage_nodes:
            node.boot()
        dd.run_for(20.0)
        version = dd.put("orphan", {"v": 7})
        assert version["sequence"] == 2  # the failed put's version is not reused
        assert dd.get("orphan") == {"v": 7}


class TestReadPaths:
    def test_read_survives_stale_hints(self):
        dd = build(43)
        dd.put("k", {"v": 1})
        dd.run_for(10.0)
        soft = dd.soft_nodes[0].protocol("soft")
        # find which soft node coordinates "k" and kill its hinted targets
        coordinator = dd.ring.coordinator_for("k")
        soft = next(n for n in dd.soft_nodes if n.node_id == coordinator).protocol("soft")
        soft.cache.clear()
        # Crash the two nodes the coordinator probes first (the first
        # read_fanout hints in node-id order) and forget the other hints
        # (they would be hedged), so the hinted path dead-ends while
        # other replicas survive.
        hints = sorted(soft.metadata["k"].hints, key=lambda n: n.value)
        probed = set(hints[: dd.config.soft.read_fanout])
        soft.metadata["k"].hints = set(probed)
        for node in dd.storage_nodes:
            if node.node_id in probed:
                node.crash()
        # hinted probes time out, the epidemic fallback answers
        assert dd.get("k") == {"v": 1}
        assert dd.metrics.counter_value("soft.hedged_reads") == 0
        assert dd.metrics.counter_value("soft.epidemic_reads") >= 1

    def test_read_with_message_loss(self):
        dd = build(44, loss_rate=0.1)
        for i in range(10):
            dd.put(f"lossy{i}", {"v": i})
        dd.run_for(15.0)
        ok = sum(1 for i in range(10) if dd.get(f"lossy{i}") == {"v": i})
        assert ok == 10  # retries and gossip redundancy absorb 10% loss

    def test_unavailable_when_all_replicas_dead(self):
        dd = build(45, replication=3)
        dd.put("victim", {"v": 1})
        dd.run_for(10.0)
        # destroy every storage copy permanently and purge soft state
        for node in dd.storage_nodes:
            if "victim" in node.durable["memtable"]:
                node.crash(permanent=True)
        for node in dd.soft_nodes:
            node.protocol("soft").cache.clear()
        with pytest.raises((UnavailableError, TimeoutError_)):
            if dd.get("victim") is None:
                # metadata knows a version exists -> must raise, not None
                raise AssertionError("read returned None for an existing version")


class TestIndexMigration:
    def test_drifted_items_remain_scannable(self):
        dd = build(46, n_storage=50, indexes=(IndexSpec("v", lo=0, hi=100),))
        # Phase 1: skew low — establishes an early distribution estimate.
        for i in range(15):
            dd.put(f"low{i}", {"v": float(5 + i % 10)})
        dd.run_for(35.0)
        # Phase 2: heavy high values shift the distribution (and thus the
        # equi-depth boundaries) substantially.
        for i in range(45):
            dd.put(f"high{i}", {"v": float(80 + i % 15)})
        dd.run_for(80.0)  # several maintenance/migration rounds
        rows = dd.scan("v", 0, 20)
        found = {row["_key"] for row in rows}
        missing = {f"low{i}" for i in range(15)} - found
        assert len(missing) <= 1  # migration kept old items reachable
        assert dd.metrics.counter_value("storage.index_migrations") > 0


class TestCatastrophicStorageEvents:
    def test_half_layer_transient_outage(self):
        dd = build(47, n_storage=40, replication=5)
        for i in range(20):
            dd.put(f"k{i}", {"v": i})
        dd.run_for(15.0)
        victims = dd.storage_nodes[:20]
        for node in victims:
            node.crash()
        dd.run_for(10.0)
        # Reads still mostly work from the surviving half...
        ok_during = 0
        for i in range(20):
            try:
                if dd.get(f"k{i}") == {"v": i}:
                    ok_during += 1
            except (UnavailableError, TimeoutError_):
                pass
        for node in victims:
            node.boot()
        dd.run_for(15.0)
        ok_after = sum(1 for i in range(20) if dd.get(f"k{i}") == {"v": i})
        assert ok_during >= 14
        assert ok_after == 20

    def test_sequential_permanent_failures_with_repair(self):
        from dataclasses import replace

        config = DataDropletsConfig(seed=48, n_storage=40, n_soft=2, replication=5)
        config = replace(config, repair=replace(
            config.repair, check_period=4.0, walks_per_check=32, grace_window=5.0,
        ))
        dd = DataDroplets(config).start(warmup=15.0)
        for i in range(15):
            dd.put(f"k{i}", {"v": i})
        dd.run_for(20.0)
        # kill 25% of the layer permanently, in two waves with repair time
        for node in dd.storage_nodes[:5]:
            node.crash(permanent=True)
        dd.run_for(60.0)
        for node in dd.storage_nodes[5:10]:
            node.crash(permanent=True)
        dd.run_for(60.0)
        ok = sum(1 for i in range(15) if dd.get(f"k{i}") == {"v": i})
        assert ok == 15
