"""Open defects, executable: each reproducer fails at HEAD for the
stated assertion and is marked ``xfail(strict=True)``, so the change
that fixes the defect must delete its marker (ROADMAP item 19)."""

import pytest

from repro import DataDroplets, DataDropletsConfig, IndexSpec


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
