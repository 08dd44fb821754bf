"""E13 — Soft-state value and recovery (claim C10).

Three measurements of the layer split the paper's §II argues for:

* the cache/hint benefit: persistent-layer messages per read for cached,
  hinted and flooded (epidemic) read paths;
* quorum-free reads: hinted reads contact read_fanout nodes (one more
  per hedge, only past a slow or crashed hinted replica), not a
  majority quorum;
* catastrophic recovery: crash the whole soft layer, rebuild metadata
  from the persistent layer, and verify reads/versions come back.
"""

from repro import DataDroplets, DataDropletsConfig

from _helpers import print_table, run_once, stash

N = 40
KEYS = 30


def _build(seed):
    dd = DataDroplets(DataDropletsConfig(
        seed=seed, n_storage=N, n_soft=2, replication=4,
    )).start(warmup=15.0)
    for i in range(KEYS):
        dd.put(f"k{i}", {"v": i})
    dd.run_for(15.0)
    return dd


def test_e13_read_paths(benchmark):
    def experiment():
        dd = _build(1300)

        def measure(reads_fn, reads: int):
            base = dd.metrics.counter_value("net.sent.storage") + dd.metrics.counter_value("net.sent.gossip")
            reads_fn()
            return (dd.metrics.counter_value("net.sent.storage")
                    + dd.metrics.counter_value("net.sent.gossip") - base) / reads

        # 1) warm cache
        cached = measure(lambda: [dd.get(f"k{i}") for i in range(KEYS)], KEYS)
        # 2) cold cache, hints intact
        for node in dd.soft_nodes:
            node.protocol("soft").cache.clear()
        hinted = measure(lambda: [dd.get(f"k{i}") for i in range(KEYS)], KEYS)
        # 3) no cache, no hints (fresh coordinator state) -> epidemic reads
        dd.crash_soft_layer(1.0)
        dd.run_for(1.0)
        dd.recover_soft_layer(rebuild=False)
        dd.run_for(2.0)
        flooded = measure(lambda: [dd.get(f"k{i}") for i in range(KEYS)], KEYS)

        rows = [
            ("cache hit", cached),
            ("hinted (quorum-free)", hinted),
            ("epidemic flood (no metadata)", flooded),
        ]
        print_table("E13a — persistent-layer messages per read by path", ["read path", "msgs/read"], rows)
        return rows

    rows = run_once(benchmark, experiment)
    stash(benchmark, "paths", [dict(zip(["path", "msgs"], r)) for r in rows])
    cached, hinted, flooded = (r[1] for r in rows)
    assert cached < 0.5  # essentially free
    assert hinted < 10.0  # point-to-point, no quorum, no flood
    assert flooded > hinted * 5  # the flood fallback is what hints avoid


def test_e13_catastrophic_recovery(benchmark):
    def experiment():
        dd = _build(1310)
        soft = dd.soft_nodes[0].protocol("soft")
        keys_before = sum(1 for k in soft.metadata if k.startswith("k"))

        dd.crash_soft_layer(1.0)
        dd.run_for(2.0)
        dd.recover_soft_layer(rebuild=True)
        recovery_started = dd.sim.now
        dd.run_for(10.0)

        soft = dd.soft_nodes[0].protocol("soft")
        keys_after = sum(1 for k in soft.metadata if k.startswith("k"))
        reads_ok = sum(1 for i in range(KEYS) if dd.get(f"k{i}") == {"v": i})
        # versions resume above the pre-crash values
        version = dd.put("k0", {"v": 999})

        rows = [
            ("metadata keys before crash", keys_before),
            ("metadata keys after rebuild", keys_after),
            ("reads correct after recovery", reads_ok),
            ("next version of k0 (was 1)", version["sequence"]),
            ("rebuild window (virtual s)", dd.sim.now - recovery_started),
        ]
        print_table("E13b — catastrophic soft-layer failure and rebuild", ["metric", "value"], rows)
        return rows, keys_before, keys_after, reads_ok, version

    rows, keys_before, keys_after, reads_ok, version = run_once(benchmark, experiment)
    stash(benchmark, "recovery", [dict(zip(["metric", "value"], r)) for r in rows])
    assert keys_after >= keys_before * 0.95
    assert reads_ok == KEYS
    assert version["sequence"] >= 2
