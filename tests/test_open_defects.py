"""Open defects, executable: each reproducer fails at HEAD for the
stated assertion and is marked ``xfail(strict=True)``, so the change
that fixes the defect must delete its marker (ROADMAP item 19) and
keeps the test as its regression check."""

import random

import pytest

from repro import DataDroplets, DataDropletsConfig, IndexSpec
from tests.conftest import assert_acked_means_stored, put_each


@pytest.fixture(scope="module")
def hole_at_256():
    """256 storage nodes, r = 4, no estimator epochs: ``k16`` lands in a
    sieve bucket that no storage node covers. Each put's version, or
    ``None`` for a put that raised ``UnavailableError``."""
    dd = DataDroplets(DataDropletsConfig(
        seed=1, n_storage=256, n_soft=4, replication=4,
        estimator_epoch=None)).start(warmup=15.0)
    versions = put_each(dd, ((f"k{i}", {"i": i}) for i in range(17)))
    return dd, versions


def _holders(dd, key, up_only):
    return [node for node in dd.storage_nodes
            if (node.is_up or not up_only)
            and node.durable["memtable"].get_any(key) is not None]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: a sieve bucket at N = 256 has no holder")
def test_every_put_key_has_an_up_storage_holder(hole_at_256):
    dd, _ = hole_at_256
    assert _holders(dd, "k16", up_only=True)


def test_an_acked_put_has_a_durable_copy(hole_at_256):
    # ``k16``, in the bucket no node covers, raises.
    dd, versions = hole_at_256
    assert_acked_means_stored(dd, versions)


def _no_epochs():
    return DataDroplets(DataDropletsConfig(
        seed=3, n_storage=16, n_soft=2, replication=4, indexes=(),
        estimator_epoch=None)).start()


def _size_estimate(node):
    return node.protocol("size-estimator").estimate()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: a rebooted node's N-hat reads ~1, so its sieve admits all")
def test_a_rebooted_storage_node_knows_the_system_size():
    dd = _no_epochs()
    node = dd.storage_nodes[5]
    node.crash()
    dd.run_for(2.0)
    node.boot()
    assert _size_estimate(node) >= 16 / 2  # reads 1.0 until its first exchange


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: without epochs every reboot's fresh variates inflate N-hat")
def test_reboots_leave_the_size_estimate_where_it_was():
    dd = _no_epochs()
    before = _size_estimate(dd.storage_nodes[0])  # 17.6 with all 16 up
    for node in dd.storage_nodes[:9]:
        node.crash()
        dd.run_for(2.0)
        node.boot()
        dd.run_for(3.0)
    dd.run_for(10.0)
    assert all(node.is_up for node in dd.storage_nodes)
    assert all(_size_estimate(node) <= 1.1 * before for node in dd.storage_nodes)  # 27.2


@pytest.mark.parametrize("epoch", [
    30.0,
    pytest.param(None, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 20: without estimator epochs push-sum gossips "
               "its boot-time (empty) values forever")),
])
def test_aggregates_read_the_stored_items(epoch):
    dd = DataDroplets(DataDropletsConfig(
        seed=3, n_storage=16, n_soft=2, replication=4, estimator_epoch=epoch,
        indexes=(IndexSpec("score", lo=0, hi=100),))).start()
    for i in range(40):
        dd.put(f"k{i}", {"score": float(i * 2)})
    dd.run_for(70.0)
    assert dd.aggregate("score", "count") > 0
    assert dd.aggregate("score", "sum") > 0
    assert 0 < dd.aggregate("score", "avg") < 100


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 20")
def test_a_converged_index_stops_migrating():
    """40 virtual s after the index's items settled, a maintenance pass
    should find no item whose equi-depth bucket drifted. Each epoch's
    histogram moves the bucket bounds, so it finds some: 0-15 items on
    cluster seeds 60-71, and at least 2 on each of 62 and 63 (whose
    counts any change to the background traffic re-rolls)."""
    drift = []
    for seed in (62, 63):
        dd = DataDroplets(DataDropletsConfig(
            seed=seed, n_storage=40, n_soft=2, replication=4,
            indexes=(IndexSpec("v", lo=0, hi=100),))).start(warmup=20.0)
        for i in range(30):
            dd.put(f"it:{i}", {"v": float(i * 3 % 100)})
        dd.run_for(80.0)
        before = dd.metrics.counter_value("storage.index_migrations")
        for node in dd.storage_nodes:
            if node.is_up:
                node.protocol("storage").run_index_maintenance()
        drift.append(dd.metrics.counter_value("storage.index_migrations") - before)
    assert drift == [0, 0]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 16")
def test_a_scan_that_replies_ok_returns_every_stored_row():
    """The first scans of a run stop early with no timeout or relaunch
    and reply ``ok`` with rows missing, though every missing key has an
    up holder: at ``sim_read``'s size (64 storage nodes, 120 keys, scans
    2 virtual s after the puts) one or two of the first five scans come
    back short on about half of the cluster seeds; on cluster seed 2,
    two do. One cluster is a lottery: any change to the
    background traffic can re-roll which seeds and scans it is."""
    dd = DataDroplets(DataDropletsConfig(
        seed=2, n_storage=64, n_soft=4, replication=4, routing_mode="onehop",
        estimator_epoch=None, indexes=(IndexSpec("score", lo=0, hi=100),))).start()
    rng = random.Random(1)
    scores = {f"k{i}": round(rng.uniform(0, 100), 3) for i in range(120)}
    for key, score in scores.items():
        dd.put(key, {"score": score})
    dd.run_for(2.0)
    short = []
    for _ in range(5):
        low = round(rng.uniform(0, 90), 2)
        expected = {key for key, score in scores.items() if low <= score <= low + 10}
        unplaced = [key for key in expected if not _holders(dd, key, up_only=True)]
        if unplaced:
            pytest.fail(f"not a scan defect: {unplaced} have no up holder")
        rows = dd.scan("score", low, low + 10)  # raises unless the reply is ok
        missing = expected - {row["_key"] for row in rows}
        if missing:
            short.append((low, len(missing), len(expected)))
    assert not short, f"(low, rows missing, rows stored) per short scan: {short}"
