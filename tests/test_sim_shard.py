"""Sharded engine: partitioning, frames, determinism under faults, failure modes.

The load-bearing assertions are the determinism ones: a sharded run must
be *byte-for-byte* identical to the single-process reference — with
churn and message loss switched on — or the whole "shard for scale"
story silently changes experiment results.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.common.codec import BinaryCodec, CodecError
from repro.common.ids import NodeId
from repro.epidemic.eager import GossipMessage
from repro.sim import LogNormalLatency, UniformLatency
from repro.sim.shard import (
    ShardContext,
    ShardError,
    ShardPlan,
    ShardWorkerError,
    decode_frame,
    encode_frame,
    run_sharded,
    shard_of,
    shard_ranges,
)
from repro.sim.shardbench import (
    ChurnGossipProgram,
    GossipScaleProgram,
    measure_scale,
    verify_determinism,
)


class TestPartitioning:
    def test_ranges_cover_contiguously_and_balance(self):
        for n in (1, 2, 7, 100, 101):
            for k in (1, 2, 3, 5):
                if k > n:
                    continue
                ranges = shard_ranges(n, k)
                assert ranges[0][0] == 0 and ranges[-1][1] == n
                for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                    assert hi == lo
                sizes = [hi - lo for lo, hi in ranges]
                assert max(sizes) - min(sizes) <= 1

    def test_shard_of_agrees_with_ranges(self):
        for n, k in ((10, 3), (100, 7), (5, 5), (64, 4)):
            ranges = shard_ranges(n, k)
            for value in range(n):
                lo, hi = ranges[shard_of(value, n, k)]
                assert lo <= value < hi

    def test_invalid_partitions_rejected(self):
        with pytest.raises(ShardError):
            shard_ranges(0, 1)
        with pytest.raises(ShardError):
            shard_ranges(4, 0)
        with pytest.raises(ShardError):
            shard_ranges(2, 3)


class TestFrames:
    def test_roundtrip_dedups_envelopes(self):
        codec = BinaryCodec()
        env_a = codec.encode_envelope(
            NodeId(3), "gossip", GossipMessage("item-1", "x", hops=2))
        env_b = codec.encode_envelope(
            NodeId(9), "gossip", GossipMessage("item-2", "y", hops=0))
        entries = [(0.5, 7, env_a), (0.625, 8, env_a), (1.0, 7, env_b)]
        frame = encode_frame(entries)
        decoded = decode_frame(frame)
        assert [(when, dst) for when, dst, _ in decoded] == [
            (0.5, 7), (0.625, 8), (1.0, 7)]
        # one decode per unique envelope: entries share the object
        assert decoded[0][2] is decoded[1][2]
        assert decoded[0][2].message.item_id == "item-1"
        assert decoded[2][2].sender == NodeId(9)
        # dedup means the repeated envelope is not shipped twice
        assert len(frame) < len(env_a) * 2 + len(env_b)

    def test_empty_frame(self):
        assert decode_frame(encode_frame([])) == []

    def test_truncated_frame_rejected(self):
        codec = BinaryCodec()
        env = codec.encode_envelope(NodeId(1), "gossip", GossipMessage("i", "p", hops=0))
        frame = encode_frame([(1.25, 4, env)])
        with pytest.raises(CodecError):
            decode_frame(frame[: len(frame) - 3])
        with pytest.raises(CodecError):
            decode_frame(frame + b"\x00")


class TestPlanValidation:
    def test_zero_lookahead_latency_rejected(self):
        plan = ShardPlan(
            n_nodes=10, shards=2, duration=1.0, latency=LogNormalLatency(median=0.05))
        with pytest.raises(ShardError, match="lookahead"):
            plan.resolved_tick()

    def test_tick_wider_than_lookahead_rejected(self):
        plan = ShardPlan(
            n_nodes=10, shards=2, duration=1.0,
            latency=UniformLatency(0.01, 0.05), tick=0.02)
        with pytest.raises(ShardError, match="tick"):
            plan.resolved_tick()

    def test_run_sharded_validates_before_forking(self):
        plan = ShardPlan(
            n_nodes=10, shards=2, duration=1.0, latency=LogNormalLatency())
        with pytest.raises(ShardError, match="lookahead"):
            run_sharded(GossipScaleProgram(), plan)

    def test_faultprobe_apis_are_refused(self):
        ctx = ShardContext(ShardPlan(n_nodes=8, shards=2, duration=1.0), 0)
        with pytest.raises(ShardError, match="partition"):
            ctx.network.set_partition(lambda a, b: True)
        with pytest.raises(ShardError, match="drop filter"):
            ctx.network.set_drop_filter(lambda s, d, p, m: False)
        # clearing (None) stays a no-op so shared teardown code works
        ctx.network.set_partition(None)
        ctx.network.set_drop_filter(None)


class TestDeterminism:
    def test_scale_program_byte_identical_across_shard_counts(self):
        reference = None
        for shards in (1, 2, 4):
            result = measure_scale(120, shards, duration=2.0, seed=11)
            blob = pickle.dumps(result.canonical())
            if reference is None:
                reference = blob
            else:
                assert blob == reference, f"{shards}-shard run diverged"

    def test_churn_and_loss_byte_identical_at_n200(self):
        def plan(shards: int) -> ShardPlan:
            return ShardPlan(
                n_nodes=200, shards=shards, duration=4.0, seed=7, loss_rate=0.05)

        reference = pickle.dumps(run_sharded(ChurnGossipProgram(), plan(1)).canonical())
        for shards in (2, 4):
            sharded = pickle.dumps(run_sharded(ChurnGossipProgram(), plan(shards)).canonical())
            assert sharded == reference, f"{shards}-shard churn run diverged"

    def test_verify_determinism_driver(self):
        out = verify_determinism(100, 2, duration=3.0)
        assert out["identical"]
        assert out["single"] == out["sharded"]
        # the run actually exercised faults, not a quiet network
        assert out["single"]["counters"]["net.dropped.loss"] > 0
        assert out["single"]["data"]["crashes"] > 0

    def test_canonical_strips_transport_counters(self):
        result = measure_scale(60, 2, duration=1.5, seed=3)
        assert result.counters.get("net.shard.remote_sent", 0) > 0
        canonical = result.canonical()
        assert not any(name.startswith("net.shard.") for name in canonical["counters"])

    def test_sieve_store_replicas_track_target(self):
        # r=16 at N=240 -> 16 buckets -> ~15 nodes/bucket; admission is
        # hash-based so allow generous slack, but the counts must be in
        # the right regime (not 0, not "everyone stores everything").
        result = measure_scale(240, 2, duration=2.5, seed=5)
        replicas = result.canonical()["data"]["replicas"]
        assert set(replicas) == {f"item-{i}" for i in range(4)}
        for item, copies in replicas.items():
            assert 2 <= copies <= 60, (item, copies)


class _SetupBombProgram(GossipScaleProgram):
    """Raises during setup on shard 1 only (worker-exception path)."""

    def setup(self, ctx: ShardContext) -> None:
        if ctx.shard_index == 1:
            raise RuntimeError("shard 1 detonated")
        super().setup(ctx)


class _SetupExitProgram(GossipScaleProgram):
    """Hard-kills the shard-1 worker process (worker-death path)."""

    def setup(self, ctx: ShardContext) -> None:
        if ctx.shard_index == 1:
            os._exit(13)
        super().setup(ctx)


class TestWorkerFailures:
    def _plan(self) -> ShardPlan:
        return ShardPlan(
            n_nodes=40, shards=2, duration=1.0, seed=1, barrier_timeout=30.0)

    def test_worker_exception_surfaces_with_traceback(self):
        with pytest.raises(ShardWorkerError, match="detonated"):
            run_sharded(_SetupBombProgram(), self._plan())

    def test_worker_death_is_a_clean_error_not_a_hang(self):
        with pytest.raises(ShardWorkerError, match="exit code"):
            run_sharded(_SetupExitProgram(), self._plan())
