"""Open defects, executable: each reproducer fails at HEAD for the
stated assertion and is marked ``xfail(strict=True)``, so the change
that fixes the defect must delete its marker (ROADMAP item 19)."""

import random

import pytest

from repro import DataDroplets, DataDropletsConfig, IndexSpec


@pytest.fixture(scope="module")
def hole_at_256():
    """256 storage nodes, r = 4, no estimator epochs: ``k16`` lands in a
    sieve bucket that no storage node covers, and its put is still acked
    (after its write retries, from the coordinator's fallback store)."""
    dd = DataDroplets(DataDropletsConfig(
        seed=1, n_storage=256, n_soft=4, replication=4,
        estimator_epoch=None)).start(warmup=15.0)
    versions = {f"k{i}": dd.put(f"k{i}", {"i": i}) for i in range(17)}
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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 17: the coordinator acks a write it could not store")
def test_an_acked_put_has_a_durable_copy(hole_at_256):
    dd, versions = hole_at_256
    assert versions["k16"] is not None  # the put was acked
    assert _holders(dd, "k16", up_only=False)


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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 16")
def test_a_scan_that_replies_ok_returns_every_stored_row():
    """The first scan of a 16-node run walks 0.7 virtual s, stops early
    with no timeout or relaunch and replies ``ok`` with 2 of its 6 rows;
    each missing key is held by six or more up storage nodes."""
    dd = DataDroplets(DataDropletsConfig(
        seed=2, n_storage=16, n_soft=4, replication=4, routing_mode="onehop",
        estimator_epoch=None, indexes=(IndexSpec("score", lo=0, hi=100),))).start()
    rng = random.Random(2)
    scores = {f"k{i}": round(rng.uniform(0, 100), 3) for i in range(60)}
    for key, score in scores.items():
        dd.put(key, {"score": score})
    dd.run_for(10.0)
    low, high = 65.14, 75.14
    expected = {key for key, score in scores.items() if low <= score <= high}
    unplaced = [key for key in expected if not _holders(dd, key, up_only=True)]
    if unplaced:
        pytest.fail(f"not a scan defect: {unplaced} have no up holder")
    rows = dd.scan("score", low, high)  # raises unless the reply is ok
    assert {row["_key"] for row in rows} == expected
