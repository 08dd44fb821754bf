"""Sharded multi-process simulation engine.

The single-process :class:`~repro.sim.simulator.Simulation` is pinned to
one core, which caps experiments at a few thousand nodes before wall
time explodes. This module partitions the simulated node space across
worker processes by node-id range: each shard runs its *own* event loop
over only the nodes it owns, and cross-shard messages travel between
shards as batched binary-codec frames exchanged at **conservative tick
barriers**.

Correctness argument (classic conservative lookahead):

* every latency model eligible for sharding guarantees a minimum
  one-way delay ``L`` (:meth:`LatencyModel.lookahead`);
* shards advance virtual time in ticks of width ``tick <= L``;
* a message sent during tick T (at any time ``t > T_end - tick``) is
  delivered at ``t + delay >= t + tick > T_end`` — strictly after the
  tick — so handing the frame over at the T barrier always schedules the
  delivery before the receiving shard could have reached it.

Determinism contract (the :mod:`repro.sim.sweep` bar, extended):

* all randomness that affects a node flows from streams owned by that
  node (``node:<id>`` for protocol draws — already the simulator-wide
  discipline) or from per-*source* network streams (``netsrc:<id>``) for
  latency/loss/duplication draws, so no draw ever depends on how sends
  from different nodes interleave globally;
* globally scoped processes (churn) replay one shared stream on every
  shard against a mirrored population state and apply only locally-owned
  transitions (:class:`MirroredPoissonChurn`);
* merged results are combined in shard order over integer-valued
  counters, so addition is exact.

Under those rules ``run_sharded(program, plan)`` produces results that
are byte-for-byte identical for any shard count, including the inline
single-process run at ``shards=1`` — which
``tests/test_sim_shard.py`` asserts, with churn and message loss on.
(The one caveat: simultaneity ties *between different nodes* are broken
by queue insertion order, which sharding can permute. Continuous latency
models make such ties probability-zero, which is why eligibility is
keyed on ``lookahead()`` and the stock programs use
:class:`~repro.sim.network.UniformLatency`.)

Cross-shard frames use the PR 3 binary codec: each frame carries a
deduplicated envelope table (a gossip relay fanning the same message to
several peers on one shard is encoded once) plus ``(dst, time, env)``
entries, and frames are applied in (src-shard, send-order) order at each
barrier so replay is deterministic.
"""

from __future__ import annotations

import math
import multiprocessing
import random
import struct
import time
import traceback
from bisect import insort
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# Bound as a module, not from-imported: repro.common.codec itself imports
# the obs package, whose __init__ pulls in repro.sim — a from-import here
# would trip that cycle at package-init time. Attribute access happens at
# call time, when both modules are fully initialized.
import repro.common.codec as _codec
from repro.common.errors import DataDropletsError
from repro.common.ids import NodeId
from repro.common.messages import Message
from repro.sim.metrics import Metrics
from repro.sim.network import LatencyModel, Network, UniformLatency
from repro.sim.node import Node, NodeState, StackFactory
from repro.sim.simulator import Simulation


class ShardError(DataDropletsError):
    """A sharded run was misconfigured or hit an unsupported feature."""


class ShardWorkerError(ShardError):
    """A shard worker process failed or died; the run was aborted."""


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------


def shard_ranges(n_nodes: int, shards: int) -> List[Tuple[int, int]]:
    """Balanced contiguous ``[lo, hi)`` node-id ranges, one per shard."""
    if n_nodes <= 0:
        raise ShardError("n_nodes must be positive")
    if shards <= 0:
        raise ShardError("shards must be positive")
    if shards > n_nodes:
        raise ShardError(f"cannot split {n_nodes} nodes across {shards} shards")
    base, extra = divmod(n_nodes, shards)
    ranges: List[Tuple[int, int]] = []
    lo = 0
    for index in range(shards):
        hi = lo + base + (1 if index < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def shard_of(value: int, n_nodes: int, shards: int) -> int:
    """Owning shard of node id ``value`` under :func:`shard_ranges`."""
    base, extra = divmod(n_nodes, shards)
    pivot = extra * (base + 1)
    if value < pivot:
        return value // (base + 1)
    return extra + (value - pivot) // base


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardPlan:
    """Everything a worker needs to reproduce its slice of the run.

    Args:
        n_nodes: global population size (ids ``0 .. n_nodes-1``).
        shards: worker process count (1 = inline, no subprocesses).
        duration: virtual seconds to simulate.
        seed: master simulation seed (same discipline as
            :class:`Simulation`).
        latency: one-way delay model; must have a positive
            ``lookahead()``. Defaults to ``UniformLatency(0.01, 0.05)``.
        tick: barrier width; defaults to the latency lookahead and must
            not exceed it (that would break the conservative guarantee).
        loss_rate: per-message drop probability (drawn from the sender's
            ``netsrc`` stream, so it shards deterministically).
        config: free-form parameters forwarded to the program.
        barrier_timeout: wall-clock seconds the coordinator waits at any
            one barrier before declaring a worker hung.
    """

    n_nodes: int
    shards: int
    duration: float
    seed: int = 0
    latency: Optional[LatencyModel] = None
    tick: Optional[float] = None
    loss_rate: float = 0.0
    config: Dict[str, Any] = field(default_factory=dict)
    barrier_timeout: float = 120.0

    def resolved_latency(self) -> LatencyModel:
        return self.latency if self.latency is not None else UniformLatency(0.01, 0.05)

    def resolved_tick(self) -> float:
        latency = self.resolved_latency()
        lookahead = latency.lookahead()
        if lookahead <= 0:
            raise ShardError(
                f"latency model {type(latency).__name__} has no positive lookahead; "
                "sharded runs need a guaranteed minimum delay (use FixedLatency or "
                "UniformLatency with low > 0)")
        tick = self.tick if self.tick is not None else lookahead
        if not 0 < tick <= lookahead:
            raise ShardError(
                f"tick {tick} must be in (0, {lookahead}] (the latency lookahead) "
                "or cross-shard messages could arrive in the past")
        return tick


# ---------------------------------------------------------------------------
# cross-shard frames (binary codec)
# ---------------------------------------------------------------------------

_TIME_STRUCT = struct.Struct(">d")

#: One buffered cross-shard delivery: (delivery time, dst id, envelope bytes).
_OutEntry = Tuple[float, int, bytes]


def encode_frame(entries: Sequence[_OutEntry]) -> bytes:
    """Pack buffered deliveries into one frame with envelope dedup.

    Layout: ``uvarint(n_envs) *(uvarint(len) env) uvarint(n_entries)
    *(uvarint(dst) float64(time) uvarint(env_index))``. A relay fanning
    one message to several peers behind the same barrier ships (and the
    receiver decodes) the envelope once.
    """
    out = bytearray()
    env_index: Dict[bytes, int] = {}
    envs: List[bytes] = []
    for _, _, env in entries:
        if env not in env_index:
            env_index[env] = len(envs)
            envs.append(env)
    _codec.encode_uvarint(len(envs), out)
    for env in envs:
        _codec.encode_uvarint(len(env), out)
        out += env
    _codec.encode_uvarint(len(entries), out)
    for when, dst, env in entries:
        _codec.encode_uvarint(dst, out)
        out += _TIME_STRUCT.pack(when)
        _codec.encode_uvarint(env_index[env], out)
    return bytes(out)


def decode_frame(data: bytes) -> List[Tuple[float, int, Any]]:
    """Inverse of :func:`encode_frame`; decodes each unique envelope once.

    Returns ``(time, dst id, DecodedEnvelope)`` entries in send order.
    Entries sharing an envelope share the decoded message *object*, which
    matches the single-process simulator's by-reference delivery
    semantics (protocols must treat received messages as immutable).
    """
    n_envs, pos = _codec.read_uvarint(data, 0)
    envelopes = []
    for _ in range(n_envs):
        length, pos = _codec.read_uvarint(data, pos)
        end = pos + length
        if end > len(data):
            raise _codec.CodecError("truncated envelope in shard frame")
        envelopes.append(_codec.decode_binary_envelope(data[pos:end]))
        pos = end
    n_entries, pos = _codec.read_uvarint(data, pos)
    entries: List[Tuple[float, int, Any]] = []
    for _ in range(n_entries):
        dst, pos = _codec.read_uvarint(data, pos)
        end = pos + 8
        if end > len(data):
            raise _codec.CodecError("truncated time in shard frame")
        when = _TIME_STRUCT.unpack_from(data, pos)[0]
        pos = end
        env_idx, pos = _codec.read_uvarint(data, pos)
        if env_idx >= n_envs:
            raise _codec.CodecError(f"shard frame references envelope {env_idx}/{n_envs}")
        entries.append((when, dst, envelopes[env_idx]))
    if pos != len(data):
        raise _codec.CodecError(f"{len(data) - pos} trailing bytes after shard frame")
    return entries


# ---------------------------------------------------------------------------
# shard network
# ---------------------------------------------------------------------------


class ShardNetwork(Network):
    """Network whose randomness and routing are shard-deterministic.

    Differences from the base :class:`Network`:

    * latency / loss / duplicate / reorder draws come from a per-*source*
      stream (``netsrc:<id>``), so the draw sequence depends only on that
      node's own send order, never on global interleaving;
    * destinations are resolved against the *global* id space ``[0, n)``
      (every shard knows the static partition), so "unknown destination"
      accounting matches the single-process run even for remote ids;
    * sends to non-local destinations are charged locally, then buffered
      as encoded envelopes in a per-destination-shard outbox that the
      tick barrier drains.

    Partitions and targeted drop filters are rejected: both take
    arbitrary Python predicates that cannot be replayed consistently on
    every shard. (Loss, duplication and reordering knobs shard fine.)
    """

    def __init__(
        self,
        sim: Simulation,
        n_nodes: int,
        shards: int,
        shard_index: int,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        metrics: Optional[Metrics] = None,
    ):
        super().__init__(sim, latency=latency, loss_rate=loss_rate, metrics=metrics)
        self.n_nodes = n_nodes
        self.shards = shards
        self.shard_index = shard_index
        self._lo, self._hi = shard_ranges(n_nodes, shards)[shard_index]
        self._codec = _codec.BinaryCodec()
        self._src_rngs: Dict[int, random.Random] = {}
        #: value -> NodeId, so frame application constructs each id once.
        self._node_id_memo: Dict[int, NodeId] = {}
        self._outbox: Dict[int, List[_OutEntry]] = {
            s: [] for s in range(shards) if s != shard_index}
        self._sent_remote = self.metrics.counter("net.shard.remote_sent")
        self._recv_remote = self.metrics.counter("net.shard.remote_delivered")

    # -- unsupported fault surfaces -------------------------------------
    def set_partition(self, reachable) -> None:  # noqa: D102 — see class doc
        if reachable is not None:
            raise ShardError("partitions are not supported in sharded runs")

    def set_drop_filter(self, drop) -> None:  # noqa: D102 — see class doc
        if drop is not None:
            raise ShardError("drop filters are not supported in sharded runs")

    # -- deterministic per-source randomness ----------------------------
    def _src_rng(self, src: NodeId) -> random.Random:
        rng = self._src_rngs.get(src.value)
        if rng is None:
            rng = self.sim.rng(f"netsrc:{src.value}")
            self._src_rngs[src.value] = rng
        return rng

    # -- send path ------------------------------------------------------
    def send(self, src: NodeId, dst: NodeId, protocol: str, message: Message) -> None:
        self._charge_send(protocol, message)
        dst_value = dst.value
        if not 0 <= dst_value < self.n_nodes:
            self._dropped_unknown.inc()
            return
        rng = self._src_rng(src)
        if self.loss_rate > 0 and rng.random() < self.loss_rate:
            self._dropped_loss.inc()
            return
        delay = self.latency.sample(rng, src, dst) + self.extra_delay
        if self.reorder_rate > 0 and rng.random() < self.reorder_rate:
            delay += self.reorder_delay
            self._injected_reordered.inc()
        delays = [delay]
        if self.duplicate_rate > 0 and rng.random() < self.duplicate_rate:
            delays.append(self.latency.sample(rng, src, dst) + self.extra_delay)
            self._injected_duplicates.inc()
        if self._lo <= dst_value < self._hi:
            for d in delays:
                self.sim.schedule_call(d, self._deliver, src, dst, protocol, message, None)
            return
        envelope = self._encode(src, protocol, message)
        box = self._outbox[shard_of(dst_value, self.n_nodes, self.shards)]
        now = self.sim.now
        for d in delays:
            box.append((now + d, dst_value, envelope))
        self._sent_remote.inc(len(delays))

    def _encode(self, src: NodeId, protocol: str, message: Message) -> bytes:
        """Binary envelope for ``message``. The codec serialises a message
        object once, so a relay to several remote peers costs one encode;
        equal envelopes are then shipped once per frame (:func:`encode_frame`)."""
        try:
            return self._codec.encode_envelope(src, protocol, message)
        except _codec.CodecError as exc:
            raise ShardError(
                f"message {type(message).__name__} is not wire-encodable, so it "
                f"cannot cross a shard boundary: {exc}") from exc

    # -- barrier interface ----------------------------------------------
    def take_outbox(self) -> Dict[int, bytes]:
        """Drain buffered cross-shard deliveries into per-shard frames."""
        frames: Dict[int, bytes] = {}
        for shard, entries in self._outbox.items():
            if entries:
                frames[shard] = encode_frame(entries)
                entries.clear()
        return frames

    def apply_frame(self, data: bytes) -> int:
        """Schedule one inbound frame's deliveries; returns entry count.

        Delivery times are strictly ahead of the local clock by the
        conservative-lookahead argument; a violation means the tick was
        wider than the latency floor and is reported loudly instead of
        silently warping causality.
        """
        entries = decode_frame(data)
        now = self.sim.now
        schedule = self.sim.schedule_call_at
        deliver = self._deliver
        node_ids = self._node_id_memo
        for when, dst_value, env in entries:
            if when < now:
                raise ShardError(
                    f"conservative barrier violated: delivery at {when} < now {now} "
                    "(tick exceeds the latency lookahead?)")
            dst = node_ids.get(dst_value)
            if dst is None:
                dst = node_ids[dst_value] = NodeId(dst_value)
            schedule(when, deliver, env.sender, dst, env.protocol, env.message, None)
        self._recv_remote.inc(len(entries))
        return len(entries)


# ---------------------------------------------------------------------------
# shard context (what programs build against)
# ---------------------------------------------------------------------------


class ShardContext:
    """One shard's view of the world, handed to the program hooks.

    Owns the local :class:`Simulation`, :class:`ShardNetwork` and the
    locally-hosted nodes; knows the global partition so programs can
    guard globally-unique actions with :meth:`owns`.
    """

    def __init__(self, plan: ShardPlan, shard_index: int):
        self.plan = plan
        self.shard_index = shard_index
        self.shard_count = plan.shards
        self.lo, self.hi = shard_ranges(plan.n_nodes, plan.shards)[shard_index]
        self.sim = Simulation(seed=plan.seed)
        self.metrics = Metrics()
        self.network = ShardNetwork(
            self.sim,
            n_nodes=plan.n_nodes,
            shards=plan.shards,
            shard_index=shard_index,
            latency=plan.resolved_latency(),
            loss_rate=plan.loss_rate,
            metrics=self.metrics,
        )
        self.nodes: Dict[int, Node] = {}

    @property
    def config(self) -> Dict[str, Any]:
        return self.plan.config

    def owns(self, value: int) -> bool:
        """Whether node id ``value`` lives on this shard."""
        return self.lo <= value < self.hi

    def add_node(self, value: int, stack_factory: StackFactory, boot: bool = True) -> Node:
        """Create (and by default boot) the locally-owned node ``value``."""
        if not self.owns(value):
            raise ShardError(f"node {value} belongs to another shard")
        if value in self.nodes:
            raise ShardError(f"node {value} already built")
        node = Node(NodeId(value), self.sim, self.network, stack_factory)
        self.nodes[value] = node
        if boot:
            node.boot()
        return node

    def local_nodes(self) -> List[Node]:
        return [self.nodes[v] for v in sorted(self.nodes)]

    def bootstrap_peers(self, value: int, k: int) -> List[NodeId]:
        """Deterministic bootstrap sample for node ``value``.

        Derived purely from ``(seed, value)``, so every shard — and the
        single-process run — computes the identical introduction list
        without a shared introducer RNG (which would not partition).
        """
        n = self.plan.n_nodes
        k = min(k, n - 1)
        rng = random.Random(f"{self.plan.seed}/boot:{value}")
        picks = rng.sample(range(n), k + 1)
        peers = [NodeId(p) for p in picks if p != value]
        return peers[:k]


# ---------------------------------------------------------------------------
# globally-scoped processes: churn
# ---------------------------------------------------------------------------


class MirroredPoissonChurn:
    """Shard-deterministic Poisson crash/recover churn.

    The population-level :class:`~repro.sim.churn.PoissonChurn` picks
    victims from a shared RNG stream, which cannot be split across
    processes. This variant replays the *same* global stream
    (``rng("churn")``) on **every** shard against a mirrored up/down
    ledger of the whole population, and applies (and counts) only the
    transitions whose victim the shard owns — so the global schedule is
    identical for any shard count, and merged counters sum to exactly
    the single-process numbers.

    The mirror is sound as long as churn is the only fault source, which
    the sharded engine enforces anyway (no nemesis hooks). Permanent
    failures are supported (victims leave the ledger for good);
    replacement joins are not, because population growth would change
    the static partition.
    """

    def __init__(
        self,
        ctx: ShardContext,
        event_rate: float,
        mean_downtime: float = 30.0,
        permanent_fraction: float = 0.0,
    ):
        if event_rate <= 0:
            raise ValueError("event_rate must be positive")
        if mean_downtime <= 0:
            raise ValueError("mean_downtime must be positive")
        if not 0 <= permanent_fraction <= 1:
            raise ValueError("permanent_fraction must be in [0, 1]")
        self.ctx = ctx
        self.event_rate = event_rate
        self.mean_downtime = mean_downtime
        self.permanent_fraction = permanent_fraction
        self._rng = ctx.sim.rng("churn")
        self._up: List[int] = list(range(ctx.plan.n_nodes))
        self._down: set = set()
        self._running = False
        #: locally-applied transition counts (merge across shards to get
        #: the global totals).
        self.crashes = 0
        self.permanent_deaths = 0
        self.recoveries = 0

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False

    def _schedule_next(self) -> None:
        if not self._running:
            return
        delay = self._rng.expovariate(self.event_rate)
        self.ctx.sim.schedule(delay, self._fire)

    def _fire(self) -> None:
        if not self._running:
            return
        if self._up:
            victim = self._rng.choice(self._up)
            permanent = self._rng.random() < self.permanent_fraction
            self._up.remove(victim)
            if not permanent:
                self._down.add(victim)
                downtime = self._rng.expovariate(1.0 / self.mean_downtime)
                self.ctx.sim.schedule(downtime, lambda v=victim: self._recover(v))
            if self.ctx.owns(victim):
                node = self.ctx.nodes[victim]
                if node.is_up:
                    node.crash(permanent=permanent)
                self.crashes += 1
                self.ctx.metrics.counter("churn.crashes").inc()
                if permanent:
                    self.permanent_deaths += 1
                    self.ctx.metrics.counter("churn.permanent").inc()
        self._schedule_next()

    def _recover(self, victim: int) -> None:
        if victim not in self._down:
            return
        self._down.remove(victim)
        insort(self._up, victim)
        if self.ctx.owns(victim):
            node = self.ctx.nodes[victim]
            if node.state is NodeState.DOWN:
                node.boot()
            self.recoveries += 1
            self.ctx.metrics.counter("churn.recoveries").inc()


# ---------------------------------------------------------------------------
# programs
# ---------------------------------------------------------------------------


class ShardProgram:
    """What a sharded experiment must provide.

    Instances are pickled to worker processes, so define subclasses at
    module top level and keep attributes plain data. Hooks run inside the
    worker:

    * :meth:`build` — create the shard's nodes via ``ctx.add_node``.
    * :meth:`setup` — seed views, schedule stimuli (guard globally-unique
      actions with ``ctx.owns``), start churn.
    * :meth:`collect` — return this shard's result mapping; merged in
      shard order into :attr:`ShardRunResult.shard_data`.
    """

    def build(self, ctx: ShardContext) -> None:
        raise NotImplementedError

    def setup(self, ctx: ShardContext) -> None:  # noqa: B027 — optional hook
        pass

    def collect(self, ctx: ShardContext) -> Dict[str, Any]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass
class ShardRunResult:
    """Deterministically merged outcome of a sharded run."""

    n_nodes: int
    shards: int
    counters: Dict[str, float]
    shard_data: List[Dict[str, Any]]
    events: int
    wall_seconds: float

    def canonical(self) -> Dict[str, Any]:
        """The determinism-relevant view: equal across shard counts.

        Drops wall time and the shard topology itself (per-shard outboxes
        and worker count are *means*, not results): counters are summed
        globally minus the shard-transport accounting, and per-shard data
        is merged in shard order. Raw ``events`` is dropped too — it
        counts per-shard event-loop work, and globally-mirrored processes
        (:class:`MirroredPoissonChurn`) replay their schedule on every
        shard, so that work scales with the shard count by design.
        Compare two runs with ``canonical() ==`` or byte-for-byte via
        ``pickle.dumps``.
        """
        counters = {
            name: value for name, value in sorted(self.counters.items())
            if not name.startswith("net.shard.")
        }
        merged: Dict[str, Any] = {}
        for data in self.shard_data:
            for key, value in data.items():
                if isinstance(value, (int, float)):
                    merged[key] = merged.get(key, 0) + value
                elif isinstance(value, list):
                    merged.setdefault(key, []).extend(value)
                elif isinstance(value, dict):
                    bucket = merged.setdefault(key, {})
                    for k, v in value.items():
                        bucket[k] = bucket.get(k, 0) + v
                else:
                    raise ShardError(
                        f"collect() value {key!r} must be a number, list or dict "
                        f"of numbers, got {type(value).__name__}")
        return {
            "n_nodes": self.n_nodes,
            "counters": counters,
            "data": {k: merged[k] for k in sorted(merged)},
        }


# ---------------------------------------------------------------------------
# per-shard runtime (used inline and by workers)
# ---------------------------------------------------------------------------


class _ShardRuntime:
    """Builds one shard and drives its tick loop."""

    def __init__(self, plan: ShardPlan, program: ShardProgram, shard_index: int):
        self.plan = plan
        self.tick = plan.resolved_tick()
        self.ticks = max(1, math.ceil(plan.duration / self.tick - 1e-9))
        self.program = program
        self.ctx = ShardContext(plan, shard_index)
        program.build(self.ctx)
        expected = self.ctx.hi - self.ctx.lo
        if len(self.ctx.nodes) != expected:
            raise ShardError(
                f"program built {len(self.ctx.nodes)} nodes on shard {shard_index}, "
                f"expected {expected} (ids {self.ctx.lo}..{self.ctx.hi - 1})")
        program.setup(self.ctx)

    def run(self, exchange: Callable[[int, Dict[int, bytes]], List[Tuple[int, bytes]]]) -> None:
        """Advance tick by tick, handing the outbox to ``exchange`` at
        each barrier and applying the frames it returns (sorted by source
        shard). The final barrier is skipped — nothing runs after it."""
        ctx = self.ctx
        for index in range(self.ticks):
            boundary = min(self.plan.duration, (index + 1) * self.tick)
            ctx.sim.run_until(boundary)
            if index == self.ticks - 1:
                break
            frames = exchange(index, ctx.network.take_outbox())
            for _, data in frames:
                ctx.network.apply_frame(data)

    def result(self) -> Dict[str, Any]:
        counters = {
            name: counter.value
            for name, counter in sorted(self.ctx.metrics.counters.items())
        }
        return {
            "shard": self.ctx.shard_index,
            "counters": counters,
            "data": self.program.collect(self.ctx),
            "events": self.ctx.sim.events_processed,
        }


# ---------------------------------------------------------------------------
# coordinator
# ---------------------------------------------------------------------------


def _shard_worker(conn, plan: ShardPlan, program: ShardProgram, shard_index: int) -> None:
    """Worker process entry point: run one shard, barrier via the pipe."""
    try:
        runtime = _ShardRuntime(plan, program, shard_index)

        def exchange(index: int, outbox: Dict[int, bytes]) -> List[Tuple[int, bytes]]:
            conn.send(("frames", index, outbox))
            kind, got_index, frames = conn.recv()
            if kind != "deliver" or got_index != index:
                raise ShardError(f"barrier protocol desync at tick {index}: got {kind!r}")
            return frames

        runtime.run(exchange)
        conn.send(("result", shard_index, runtime.result()))
    except BaseException:  # noqa: BLE001 — ship the traceback to the coordinator
        try:
            conn.send(("error", shard_index, traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


def _await_message(conn, proc, shard_index: int, timeout: float, expect: str):
    """Receive one message from a worker, surfacing death as a clean error."""
    deadline = time.monotonic() + timeout
    while True:
        if conn.poll(0.05):
            try:
                message = conn.recv()
            except EOFError:
                raise ShardWorkerError(
                    f"shard {shard_index} worker closed its pipe mid-run "
                    f"(exit code {proc.exitcode})") from None
            if message[0] == "error":
                raise ShardWorkerError(
                    f"shard {message[1]} worker failed:\n{message[2]}")
            if message[0] != expect:
                raise ShardWorkerError(
                    f"shard {shard_index} protocol desync: expected {expect!r}, "
                    f"got {message[0]!r}")
            return message
        if not proc.is_alive():
            raise ShardWorkerError(
                f"shard {shard_index} worker died (exit code {proc.exitcode})")
        if time.monotonic() > deadline:
            raise ShardWorkerError(
                f"shard {shard_index} worker stalled for {timeout:.0f}s at a barrier")


def _mp_context():
    """Fork context when the platform has it (cheap, inherits imports);
    whatever the default is otherwise."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def run_sharded(program: ShardProgram, plan: ShardPlan) -> ShardRunResult:
    """Run ``program`` over ``plan``, fanning shards out across processes.

    ``shards=1`` runs inline (one process, no pipes) through the same
    tick loop — that run is the reference the determinism contract
    compares worker-count > 1 runs against. A worker that raises or dies
    aborts the whole run with :class:`ShardWorkerError` (never a hang:
    every barrier wait polls worker liveness and applies
    ``plan.barrier_timeout``).
    """
    plan.resolved_tick()  # validate up front, before forking anything
    start = time.perf_counter()
    if plan.shards == 1:
        runtime = _ShardRuntime(plan, program, 0)
        runtime.run(lambda index, outbox: [])
        raws = [runtime.result()]
    else:
        ctx = _mp_context()
        pipes = []
        procs = []
        try:
            for shard_index in range(plan.shards):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=_shard_worker,
                    args=(child_conn, plan, program, shard_index),
                    name=f"repro-shard-{shard_index}",
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                pipes.append(parent_conn)
                procs.append(proc)
        except (OSError, ValueError, RuntimeError) as exc:
            for proc in procs:
                proc.terminate()
            raise ShardError(f"cannot start shard workers: {exc}") from exc
        try:
            ticks = max(1, math.ceil(plan.duration / plan.resolved_tick() - 1e-9))
            for index in range(ticks - 1):
                outboxes = [
                    _await_message(pipes[s], procs[s], s, plan.barrier_timeout, "frames")[2]
                    for s in range(plan.shards)
                ]
                inbound: List[List[Tuple[int, bytes]]] = [[] for _ in range(plan.shards)]
                for src_shard in range(plan.shards):
                    for dst_shard, data in sorted(outboxes[src_shard].items()):
                        inbound[dst_shard].append((src_shard, data))
                for dst_shard in range(plan.shards):
                    pipes[dst_shard].send(("deliver", index, inbound[dst_shard]))
            raws = [
                _await_message(pipes[s], procs[s], s, plan.barrier_timeout, "result")[2]
                for s in range(plan.shards)
            ]
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
            for proc in procs:
                proc.join(timeout=5.0)
            for conn in pipes:
                conn.close()
    wall = time.perf_counter() - start
    counters: Dict[str, float] = {}
    for raw in raws:
        for name, value in raw["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
    return ShardRunResult(
        n_nodes=plan.n_nodes,
        shards=plan.shards,
        counters={name: counters[name] for name in sorted(counters)},
        shard_data=[raw["data"] for raw in raws],
        events=sum(raw["events"] for raw in raws),
        wall_seconds=wall,
    )
