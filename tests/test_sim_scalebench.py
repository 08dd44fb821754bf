"""The e17 scale workloads on the plain simulator."""

from __future__ import annotations

from repro.sim.scalebench import (
    ChurnGossipProgram,
    GossipScaleProgram,
    run_program,
    scale_completed,
)


class TestDeterminism:
    def test_sieve_store_replicas_track_target(self):
        # r=16 at N=240 -> 16 buckets -> ~15 nodes/bucket; admission is
        # hash-based so allow generous slack, but the counts must be in
        # the right regime (not 0, not "everyone stores everything").
        summary = run_program(GossipScaleProgram(), 240, 2.5, seed=5)["summary"]
        replicas = summary["data"]["replicas"]
        assert set(replicas) == {f"item-{i}" for i in range(4)}
        for item, copies in replicas.items():
            assert 2 <= copies <= 60, (item, copies)
        assert scale_completed(replicas)
        assert all(count >= 0.95 * 240 for count in summary["data"]["coverage"].values())

    def test_churn_and_loss_identical_at_n200(self):
        def summary(seed: int):
            return run_program(ChurnGossipProgram(), 200, 4.0, seed=seed,
                               loss_rate=0.05)["summary"]

        reference = summary(7)
        assert summary(7) == reference
        # the run exercised faults, not a quiet network
        assert reference["counters"]["net.dropped.loss"] > 0
        assert reference["data"]["crashes"] > 0
        # and the summary is fine-grained enough to tell seeds apart
        assert summary(8) != reference
