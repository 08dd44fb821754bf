"""End-to-end tests of the assembled DataDroplets system."""

import collections
import dataclasses
import inspect
import os
import subprocess
import sys

import pytest

from repro import (
    DataDroplets,
    DataDropletsConfig,
    IndexSpec,
    TimeoutError_,
    UnavailableError,
)
from repro.core.config import IndexSpec as CoreIndexSpec
from repro.core.storage import make_storage_stack
from repro.common.errors import ConfigurationError
from repro.epidemic import EagerGossip
from repro.sim.cluster import Cluster
from repro.sim.simulator import Simulation
from repro.softstate.coordinator import SoftStateConfig


@pytest.fixture(scope="module")
def system():
    """One shared, warmed-up deployment with preloaded data."""
    dd = DataDroplets(DataDropletsConfig(
        seed=7,
        n_storage=60,
        n_soft=3,
        replication=4,
        indexes=(IndexSpec("age", lo=0, hi=120),),
    )).start(warmup=20.0)
    for i in range(40):
        dd.put(f"users:{i}", {"name": f"u{i}", "age": 20 + (i % 50)})
    dd.run_for(45.0)  # overlay + migration settle
    return dd


class TestBasicOperations:
    def test_put_returns_version(self, system):
        version = system.put("probe:1", {"v": 1})
        assert version["sequence"] >= 1

    def test_get_returns_record(self, system):
        assert system.get("users:1") == {"name": "u1", "age": 21}

    def test_get_missing_returns_none(self, system):
        assert system.get("users:never-written") is None

    def test_update_overwrites(self, system):
        system.put("probe:update", {"v": 1})
        system.put("probe:update", {"v": 2})
        assert system.get("probe:update") == {"v": 2}

    def test_versions_increase_monotonically(self, system):
        first = system.put("probe:versions", {"v": 1})
        second = system.put("probe:versions", {"v": 2})
        assert second["sequence"] > first["sequence"]

    def test_delete_hides_key(self, system):
        system.put("probe:delete", {"v": 1})
        system.delete("probe:delete")
        assert system.get("probe:delete") is None

    def test_rewrite_after_delete(self, system):
        system.put("probe:regen", {"v": 1})
        system.delete("probe:regen")
        system.put("probe:regen", {"v": 2})
        assert system.get("probe:regen") == {"v": 2}

    def test_multi_get(self, system):
        result = system.multi_get(["users:2", "users:3", "users:missing"])
        assert result["users:2"] == {"name": "u2", "age": 22}
        assert result["users:3"] == {"name": "u3", "age": 23}
        assert result["users:missing"] is None

    def test_multi_get_empty(self, system):
        assert system.multi_get([]) == {}

    def test_records_replicated_to_multiple_nodes(self, system):
        holders = sum(
            1 for node in system.storage_nodes
            if node.is_up and "users:5" in node.durable["memtable"]
        )
        assert holders >= 2

    def test_operations_before_start_rejected(self):
        dd = DataDroplets(DataDropletsConfig(n_storage=4, n_soft=1))
        from repro.common.errors import DataDropletsError
        with pytest.raises(DataDropletsError):
            dd.get("k")


class TestScansAndAggregates:
    def test_scan_returns_matching_sorted_rows(self, system):
        rows = system.scan("age", 25, 35)
        ages = [row["age"] for row in rows]
        assert ages == sorted(ages)
        assert all(25 <= age <= 35 for age in ages)
        expected = sorted(20 + (i % 50) for i in range(40) if 25 <= 20 + (i % 50) <= 35)
        assert len(rows) >= len(expected) - 2  # near-total recall

    def test_scan_rows_carry_key(self, system):
        rows = system.scan("age", 25, 30)
        assert all("_key" in row for row in rows)

    def test_scan_empty_range(self, system):
        assert system.scan("age", 115, 119) == []

    def test_aggregate_count_close_to_truth(self, system):
        count = system.aggregate("age", "count")
        # 40 users + a few probe keys; estimator tolerance is generous
        assert 20 < count < 80

    def test_aggregate_avg(self, system):
        avg = system.aggregate("age", "avg")
        true_avg = sum(20 + (i % 50) for i in range(40)) / 40
        assert abs(avg - true_avg) / true_avg < 0.25

    def test_aggregate_max_min(self, system):
        assert system.aggregate("age", "max") == max(20 + (i % 50) for i in range(40))
        assert system.aggregate("age", "min") == min(20 + (i % 50) for i in range(40))

    def test_aggregate_unindexed_attribute_fails(self, system):
        with pytest.raises(UnavailableError):
            system.aggregate("salary", "avg")


class TestConfigValidation:
    def test_rejects_bad_collocation(self):
        with pytest.raises(ConfigurationError):
            DataDropletsConfig(collocation="nope")

    def test_rejects_duplicate_indexes(self):
        with pytest.raises(ConfigurationError):
            DataDropletsConfig(indexes=(CoreIndexSpec("a", 0, 1), CoreIndexSpec("a", 0, 2)))

    def test_rejects_bad_index_bounds(self):
        with pytest.raises(ConfigurationError):
            IndexSpec("a", lo=5, hi=5)

    def test_rejects_zero_nodes(self):
        with pytest.raises(ConfigurationError):
            DataDropletsConfig(n_storage=0)

    @pytest.mark.parametrize("bad", [
        {"estimator_epoch": 0.0},  # used to construct, then ZeroDivisionError in start()
        {"membership_period": 0.0}, {"pushsum_period": -1.0}, {"repair_period": 0.0},
        {"size_estimator_period": 0.0}, {"tman_period": 0.0},
        {"loss_rate": 1.0}, {"loss_rate": -0.1},
        {"latency_low": 0.2, "latency_high": 0.1}, {"latency_low": -0.01},
        {"virtual_nodes": 0}, {"client_timeout": 0.0},
        # these used to fail only at start(), or to run
        {"memtable_capacity": 0}, {"memtable_capacity": -3}, {"collocation": "field:"},
    ], ids=lambda bad: ",".join(bad))
    def test_bad_values_fail_at_construction(self, bad):
        with pytest.raises(ConfigurationError):
            DataDropletsConfig(**bad)

    def test_edge_values_still_construct(self):
        DataDropletsConfig(estimator_epoch=None, loss_rate=0.0, latency_low=0.0,
                           latency_high=0.0, memtable_capacity=1, collocation="field:x")

    def test_repair_target_follows_replication(self):
        """One r: a stack built outside the facade, as the UDP hosts
        build theirs, repairs toward the r that sizes its sieve, and so
        does the facade's."""
        for r in (4, 7):
            config = DataDropletsConfig(n_storage=8, n_soft=1, replication=r)
            standalone = Cluster(Simulation(seed=1)).add_node(make_storage_stack(config))
            facade = DataDroplets(config).start(warmup=0.0).storage_nodes[0]
            for node in (standalone, facade):
                manager = node.protocol("redundancy")
                assert manager.sieve.replication == r
                assert manager.current_target(manager.sieve.range_key()) == r


class TestDefaultsAreTheMeasuredPath:
    """The paths the benchmark pins are the only ones: no option selects
    a predecessor, and the live system does not even import one."""

    RETIRED = {"lazy_gossip", "gossip_mode", "fixed_fanout", "shared_overlays",
               "soft_failure_detection", "epidemic_read_fallback", "auto_rebuild",
               "adaptive_r_min", "adaptive_r_max", "adaptive_loss_tolerance",
               "adaptive_recovery_window", "flood_retries", "multiget_timeout",
               "scan_hop_budget", "aggregate_timeout", "redirect_hop_budget"}

    def test_retired_options_are_not_config_fields(self):
        names = {f.name for cls in (DataDropletsConfig, SoftStateConfig)
                 for f in dataclasses.fields(cls)}
        assert not names & self.RETIRED
        assert DataDropletsConfig().routing_mode == "legacy"  # waits for ROADMAP item 1
        assert "mode" not in inspect.signature(EagerGossip).parameters

    def test_default_run_speaks_one_anti_entropy_exchange(self):
        dd = DataDroplets(DataDropletsConfig(
            seed=5, n_storage=24, n_soft=2, indexes=(IndexSpec("age", lo=0, hi=120),)))
        sent = collections.Counter()
        # A tap, not a fault: the filter sees every send and drops none.
        dd.cluster.network.set_drop_filter(
            lambda src, dst, protocol, message: sent.update([(protocol, type(message).__name__)]))
        dd.start(warmup=15.0)
        dd.put("users:1", {"age": 36})
        assert dd.get("users:1") == {"age": 36}
        dd.run_for(30.0)
        assert [row["age"] for row in dd.scan("age", 30, 40)] == [36]
        assert "antientropy.fallback_rounds" not in dd.metrics.counters
        assert dd.metrics.counter_value("antientropy.bucket_count_mismatch") == 0
        repair = {name for protocol, name in sent if protocol == "range-repair"}
        assert {"BucketSummaryMessage"} <= repair <= {
            "BucketSummaryMessage", "BucketDigestMessage", "ItemsRequest", "ItemsPush"}
        rounds = dd.metrics.counter_value("antientropy.rounds")
        assert sent[("range-repair", "BucketSummaryMessage")] == rounds > 0
        assert not any(protocol in ("soft-membership", "multi-overlay") for protocol, _ in sent)

    def test_live_system_loads_no_baseline(self):
        script = (
            "import sys\n"
            "import repro, repro.core.datadroplets, repro.core.storage, repro.runtime.host\n"
            "from repro.common.messages import registered_message_types\n"
            "assert 'numpy' not in sys.modules\n"
            "assert 'multiprocessing' not in sys.modules\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('repro.baselines'))\n"
            "assert not loaded, loaded\n"
            "retired = {'DigestMessage', 'SoftHeartbeat', 'HistogramShare', 'Advertisement',\n"
            "           'PullRequest', 'PullReply', 'VectorExchange'} & set(registered_message_types())\n"
            "assert not retired, retired\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_package_is_single_process(self):
        # Every module outside the baselines, not just the live closure:
        # no experiment, bench module or tool forks worker processes.
        script = (
            "import importlib, pkgutil, sys\n"
            "import repro\n"
            "names = [m.name for m in pkgutil.walk_packages(repro.__path__, 'repro.')\n"
            "         if not m.name.startswith(('repro.baselines', 'repro.__main__'))]\n"
            "for name in names:\n"
            "    importlib.import_module(name)\n"
            "assert 'repro.sim.scalebench' in sys.modules, names\n"
            "assert 'multiprocessing' not in sys.modules\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestChurnSurvival:
    def test_reads_survive_storage_churn(self):
        dd = DataDroplets(DataDropletsConfig(
            seed=8, n_storage=50, n_soft=2, replication=5,
        )).start(warmup=15.0)
        for i in range(25):
            dd.put(f"k{i}", {"v": i})
        dd.run_for(20.0)
        churn = dd.churn(event_rate=0.5, mean_downtime=10.0)
        churn.start()
        dd.run_for(60.0)
        ok = 0
        for i in range(25):
            try:
                if dd.get(f"k{i}") == {"v": i}:
                    ok += 1
            except (UnavailableError, TimeoutError_):
                pass
        churn.stop()
        assert ok >= 23  # near-full availability under churn

    def test_data_survives_mass_transient_reboot(self):
        dd = DataDroplets(DataDropletsConfig(
            seed=9, n_storage=40, n_soft=2, replication=4,
        )).start(warmup=15.0)
        for i in range(15):
            dd.put(f"k{i}", {"v": i})
        dd.run_for(10.0)
        # Reboot 50% of the storage layer (transient: disks survive).
        victims = [n for n in dd.storage_nodes[:20]]
        for node in victims:
            node.crash()
        dd.run_for(5.0)
        for node in victims:
            node.boot()
        dd.run_for(20.0)
        ok = sum(1 for i in range(15) if dd.get(f"k{i}") == {"v": i})
        assert ok == 15


class TestSoftStateRecovery:
    def test_metadata_rebuild_restores_reads(self):
        dd = DataDroplets(DataDropletsConfig(
            seed=10, n_storage=40, n_soft=2, replication=4,
        )).start(warmup=15.0)
        for i in range(10):
            dd.put(f"k{i}", {"v": i})
        dd.run_for(10.0)
        dd.crash_soft_layer(1.0)
        dd.run_for(2.0)
        dd.recover_soft_layer(rebuild=True)
        dd.run_for(15.0)
        ok = sum(1 for i in range(10) if dd.get(f"k{i}") == {"v": i})
        assert ok == 10

    def test_rebuild_restores_version_metadata(self):
        dd = DataDroplets(DataDropletsConfig(
            seed=11, n_storage=30, n_soft=1, replication=4,
        )).start(warmup=15.0)
        dd.put("k", {"v": 1})
        dd.put("k", {"v": 2})
        dd.run_for(10.0)
        dd.crash_soft_layer(1.0)
        dd.run_for(2.0)
        dd.recover_soft_layer(rebuild=True)
        dd.run_for(15.0)
        soft = dd.soft_nodes[0].protocol("soft")
        assert soft.metadata["k"].version.sequence == 2
        # writes continue with later versions, never reusing old ones
        version = dd.put("k", {"v": 3})
        assert version["sequence"] >= 3

    def test_writes_keep_working_with_partial_soft_layer(self):
        dd = DataDroplets(DataDropletsConfig(
            seed=12, n_storage=30, n_soft=3, replication=4,
        )).start(warmup=15.0)
        dd.soft_nodes[0].crash()
        for i in range(10):
            dd.put(f"p{i}", {"v": i})  # surviving coordinators take over
        ok = sum(1 for i in range(10) if dd.get(f"p{i}") == {"v": i})
        assert ok == 10


class TestCacheAndHints:
    def test_repeated_reads_hit_cache(self):
        dd = DataDroplets(DataDropletsConfig(
            seed=13, n_storage=30, n_soft=1, replication=4,
        )).start(warmup=15.0)
        dd.put("hot", {"v": 1})
        before = dd.metrics.counter_value("soft.cache_hits")
        for _ in range(5):
            dd.get("hot")
        assert dd.metrics.counter_value("soft.cache_hits") >= before + 5

    def test_hints_recorded_after_write(self):
        dd = DataDroplets(DataDropletsConfig(
            seed=14, n_storage=30, n_soft=1, replication=4,
        )).start(warmup=15.0)
        dd.put("hinted", {"v": 1})
        dd.run_for(5.0)
        soft = dd.soft_nodes[0].protocol("soft")
        assert len(soft.metadata["hinted"].hints) >= 1

    def test_cold_read_uses_hints_not_flood(self):
        dd = DataDroplets(DataDropletsConfig(
            seed=15, n_storage=30, n_soft=1, replication=4,
        )).start(warmup=15.0)
        dd.put("cold", {"v": 1})
        dd.run_for(5.0)
        soft_node = dd.soft_nodes[0]
        soft = soft_node.protocol("soft")
        soft.cache.clear()  # force a persistent-layer read
        floods_before = dd.metrics.counter_value("soft.epidemic_reads")
        assert dd.get("cold") == {"v": 1}
        assert dd.metrics.counter_value("soft.epidemic_reads") == floods_before
        assert dd.metrics.counter_value("soft.hinted_reads") >= 1
