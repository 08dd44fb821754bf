"""Hot-path regressions: size caching, single-size sends, cancelled events.

The simulation core's fast paths (cached ``Message.size_bytes``, the
slots event queue, interned counters, the kept peer order, size
estimate, bucket count and ``NodeId`` hash) must stay behaviourally
identical to the straightforward implementations they replaced. These
tests pin that equivalence down, and a golden fingerprint of one seeded
run catches whatever they miss.
"""

from __future__ import annotations

import dataclasses
import random
import typing
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# Import every module that registers message types so the registry is full.
import repro.baselines.chord  # noqa: F401
import repro.baselines.dht  # noqa: F401
import repro.baselines.fulldigest  # noqa: F401
import repro.baselines.heartbeat  # noqa: F401
import repro.baselines.lazy  # noqa: F401
import repro.baselines.multiattr  # noqa: F401
import repro.epidemic.antientropy  # noqa: F401
import repro.epidemic.eager  # noqa: F401
import repro.estimation.extrema  # noqa: F401
import repro.estimation.histogram  # noqa: F401
import repro.estimation.pushsum  # noqa: F401
import repro.membership.cyclon  # noqa: F401
import repro.overlay.tman  # noqa: F401
import repro.softstate.coordinator  # noqa: F401
import repro.softstate.messages  # noqa: F401
from repro.common.ids import NodeId
from repro.common.messages import (
    _REGISTRY,
    Message,
    recursive_size_estimate,
)
from repro.membership.views import NodeDescriptor, PartialView
from repro.sim import FixedLatency, Histogram, Network, Simulation


# ----------------------------------------------------------------------
# payload synthesis: build a non-trivial instance of every message type
# ----------------------------------------------------------------------
def _synthesize_value(hint: Any, depth: int = 0) -> Any:
    if depth > 4:
        return None
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if hint is int:
        return 7
    if hint is float:
        return 2.5
    if hint is bool:
        return True
    if hint is str:
        return "abcdef"
    if hint is bytes:
        return b"xyz"
    if hint in (Any, object, None, type(None)):
        return {"k": "nested", "n": 3}
    if hint is NodeId:
        return NodeId(3, "peer-3")
    if origin is tuple:
        if args and args[-1] is Ellipsis:
            return tuple(_synthesize_value(args[0], depth + 1) for _ in range(2))
        return tuple(_synthesize_value(a, depth + 1) for a in args)
    if origin is list:
        item = args[0] if args else int
        return [_synthesize_value(item, depth + 1) for _ in range(2)]
    if origin is dict:
        key, value = args if args else (str, int)
        return {_synthesize_value(key, depth + 1): _synthesize_value(value, depth + 1)}
    if origin is typing.Union:
        concrete = [a for a in args if a is not type(None)]
        return _synthesize_value(concrete[0], depth + 1) if concrete else None
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        return _synthesize_dataclass(hint, depth + 1)
    if origin is not None:  # unhandled generic (frozenset[...] etc.)
        return None
    return "fallback"


def _synthesize_dataclass(cls: type, depth: int = 0) -> Any:
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for field in dataclasses.fields(cls):
        kwargs[field.name] = _synthesize_value(hints.get(field.name, Any), depth)
    return cls(**kwargs)


class TestSizeBytesCache:
    def test_every_registered_type_matches_recursive_estimate(self):
        registry = dict(_REGISTRY)
        assert len(registry) >= 15  # the suite registers many protocols
        for name, cls in sorted(registry.items()):
            message = _synthesize_dataclass(cls)
            assert message.size_bytes() == recursive_size_estimate(message), name
            # cached second call returns the same number
            assert message.size_bytes() == recursive_size_estimate(message), name

    def test_size_is_computed_once_per_instance(self, monkeypatch):
        import repro.common.messages as messages_mod

        walks = {"count": 0}
        real_walk = messages_mod._walk

        def counting_walk(value):
            walks["count"] += 1
            return real_walk(value)

        monkeypatch.setattr(messages_mod, "_walk", counting_walk)
        message = repro.epidemic.eager.GossipMessage("item", {"pad": "x" * 32}, 1)
        first = message.size_bytes()
        after_first = walks["count"]  # recursion counts too; must be > 0 once
        assert after_first >= 1
        for _ in range(10):
            assert message.size_bytes() == first
        assert walks["count"] == after_first  # cache hit: no further walks

    def test_relays_sharing_one_payload_walk_it_once(self, monkeypatch):
        import repro.common.messages as messages_mod
        from repro.epidemic.eager import GossipMessage
        from repro.softstate.messages import WritePayload
        from repro.store import Version, make_tuple

        payload = WritePayload(make_tuple("k1", {"score": 4.5, "pad": "x" * 64},
                                          Version(3, 1)), NodeId(2, "soft-2"))
        walked = []
        real_walk = messages_mod._walk

        def recording_walk(value):
            walked.append(value)
            return real_walk(value)

        monkeypatch.setattr(messages_mod, "_walk", recording_walk)
        relays = [GossipMessage("k1", payload, hops) for hops in range(3)]
        for relay in relays:
            assert relay.size_bytes() == recursive_size_estimate(relay)
        assert sum(1 for value in walked if value is payload) == 1

    def test_default_constructed_types_also_match(self):
        for name, cls in sorted(dict(_REGISTRY).items()):
            required = [f for f in dataclasses.fields(cls)
                        if f.default is dataclasses.MISSING
                        and f.default_factory is dataclasses.MISSING]
            if required:
                continue  # covered by the synthesized-payload test
            message = cls()
            assert message.size_bytes() == recursive_size_estimate(message), name


class _Sink:
    def __init__(self, node_id):
        self.node_id = node_id
        self.is_up = True
        self.received = 0

    def handle_message(self, src, protocol, message):
        self.received += 1


class TestSendChargesSizeOnce:
    def test_size_bytes_called_exactly_once_per_send(self):
        calls = {"count": 0}

        @dataclass(frozen=True)
        class CountingProbe(Message):
            payload: str = "y" * 16

            def size_bytes(self) -> int:
                calls["count"] += 1
                return 99  # fixed size keeps byte accounting checkable

        sim = Simulation(seed=1)
        network = Network(sim, latency=FixedLatency(0.01))
        a, b = _Sink(NodeId(0)), _Sink(NodeId(1))
        network.register(a)
        network.register(b)
        for i in range(5):
            network.send(a.node_id, b.node_id, "probe", CountingProbe())
        assert calls["count"] == 5  # one call per send, not two
        sim.run_until_idle()
        assert b.received == 5
        assert network.byte_count == 5 * 99
        assert network.metrics.counter_value("net.bytes.probe") == 5 * 99


class TestCancelledEvents:
    def test_cancelled_before_run_never_fires(self):
        sim = Simulation(seed=1)
        fired = []
        keep = sim.schedule(1.0, lambda: fired.append("keep"))
        drop = sim.schedule(1.0, lambda: fired.append("drop"))
        drop.cancel()
        sim.run_until(2.0)
        assert fired == ["keep"]

    def test_cancelled_between_run_until_calls_never_fires(self):
        sim = Simulation(seed=1)
        fired = []
        sim.schedule(1.0, lambda: fired.append("early"))
        late = sim.schedule(5.0, lambda: fired.append("late"))
        sim.run_until(2.0)
        assert fired == ["early"]
        late.cancel()
        sim.run_until(10.0)
        assert fired == ["early"]

    def test_cancelled_survives_run_until_to_idle_boundary(self):
        sim = Simulation(seed=1)
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        doomed = sim.schedule(3.0, lambda: fired.append("doomed"))
        sim.schedule(5.0, lambda: fired.append("b"))
        sim.run_until(2.0)
        doomed.cancel()
        sim.run_until_idle()
        assert fired == ["a", "b"]
        assert sim.events_processed == 2

    def test_cancellation_from_inside_an_event(self):
        sim = Simulation(seed=1)
        fired = []
        victim = sim.schedule(2.0, lambda: fired.append("victim"))
        sim.schedule(1.0, lambda: victim.cancel())
        sim.run_until_idle()
        assert fired == []

    def test_schedule_call_fast_path_fires_and_cancels(self):
        sim = Simulation(seed=1)
        fired = []
        sim.schedule_call(1.0, fired.append, "args-path")
        doomed = sim.schedule_call(2.0, fired.append, "never")
        doomed.cancel()
        with pytest.raises(ValueError):
            sim.schedule_call(-0.5, fired.append, "negative")
        sim.run_until_idle()
        assert fired == ["args-path"]


class TestHistogramSortedCache:
    def test_percentile_reflects_new_observations(self):
        hist = Histogram()
        for v in (5.0, 1.0, 3.0):
            hist.observe(v)
        assert hist.percentile(100) == 5.0
        hist.observe(9.0)  # must invalidate the cached sorted view
        assert hist.percentile(100) == 9.0
        assert hist.percentile(0) == 1.0

    def test_repeated_percentiles_reuse_one_sorted_view(self):
        hist = Histogram()
        for v in (4.0, 2.0, 8.0, 6.0):
            hist.observe(v)
        hist.percentile(50)
        cached = hist._sorted
        assert cached is not None
        hist.percentile(99)
        hist.percentile(1)
        assert hist._sorted is cached  # no re-sort between observes
        hist.observe(1.0)
        assert hist._sorted is None


class TestNodeIdIdentity:
    """``NodeId.__eq__``/``__hash__`` are hand-written for speed; they must
    behave exactly like the dataclass-generated ones they replaced."""

    def test_hash_is_the_tuple_hash_of_the_value(self):
        for value, label in ((0, None), (7, "soft-7"), (-3, None), (1 << 40, "x")):
            node_id = NodeId(value, label)
            assert hash(node_id) == hash((value,))
            assert hash(node_id) == hash((value,))  # the kept value, second call

    def test_label_is_ignored_by_eq_and_hash(self):
        assert NodeId(4, "a") == NodeId(4, "b") == NodeId(4)
        assert hash(NodeId(4, "a")) == hash(NodeId(4))
        assert len({NodeId(4, "a"), NodeId(4, "b"), NodeId(5)}) == 2

    def test_other_types_never_compare_equal(self):
        assert NodeId(1) != 1
        assert not (NodeId(1) == (1,))
        assert NodeId(1) != NodeDescriptor(NodeId(1))

    def test_ordering_is_by_value(self):
        ids = [NodeId(5, "z"), NodeId(1, "y"), NodeId(3)]
        assert sorted(ids) == [NodeId(1), NodeId(3), NodeId(5)]
        assert NodeId(1, "b") < NodeId(2, "a") and NodeId(2) >= NodeId(2, "x")
        with pytest.raises(TypeError):
            NodeId(1) < 2  # noqa: B015

    def test_pickle_and_binary_codec_round_trips(self):
        import pickle

        from repro.common.codec import BinaryCodec
        from repro.membership.cyclon import ShuffleRequest

        node_id = NodeId(9, "soft-9")
        hash(node_id)  # the kept hash travels in the pickled state
        codec = BinaryCodec()
        decoded = codec.decode(codec.encode(node_id, "membership",
                                            ShuffleRequest((NodeDescriptor(node_id, 2),))))
        for copy in (pickle.loads(pickle.dumps(node_id)), decoded.sender,
                     decoded.message.entries[0].node_id):
            assert copy == node_id and copy.label == "soft-9"
            assert hash(copy) == hash((9,))


# ----------------------------------------------------------------------
# Each cache against the computation it replaced
# ----------------------------------------------------------------------
def _reference_descriptors(view, count, rng, exclude):
    pool = [d for d in view._entries.values() if d.node_id != exclude]
    pool.sort(key=lambda d: d.node_id.value)
    if len(pool) <= count:
        return pool
    return rng.sample(pool, count)


_peers = st.integers(min_value=1, max_value=12)
_descriptors = st.builds(lambda peer, age: NodeDescriptor(NodeId(peer), age), _peers,
                         st.integers(min_value=0, max_value=6))
_view_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), _descriptors),
    # Cyclon never names a peer twice as replaceable (merge would KeyError).
    st.tuples(st.just("merge"), st.lists(_descriptors, max_size=5),
              st.lists(_peers, max_size=3, unique=True)),
    st.tuples(st.just("remove"), _peers),
    st.tuples(st.just("age")),
    st.tuples(st.just("draw"), st.integers(0, 8), st.integers(0, 2**32), st.none() | _peers),
), max_size=40)


class TestPartialViewOrderCache:
    @given(_view_ops)
    @settings(max_examples=150)
    def test_draws_match_a_fresh_sort(self, ops):
        view = PartialView(6, NodeId(0))
        for op in ops:
            if op[0] == "add":
                view.add(op[1])
            elif op[0] == "merge":
                view.merge(op[1], replaceable=[NodeId(p) for p in op[2]])
            elif op[0] == "remove":
                view.remove(NodeId(op[1]))
            elif op[0] == "age":
                view.increase_ages()
            else:
                _, count, seed, exclude = op
                exclude = None if exclude is None else NodeId(exclude)
                snapshot = dict(view._entries)
                expected = _reference_descriptors(view, count, random.Random(seed), exclude)
                drawn = view.random_descriptors(count, random.Random(seed), exclude)
                assert drawn == expected
                drawn.append(NodeDescriptor(NodeId(99)))  # caller owns the list
                drawn.clear()
                assert view._entries == snapshot
                assert view.random_descriptors(len(view.peers()) + 1, random.Random(seed)) == \
                    _reference_descriptors(view, len(view.peers()) + 1, random.Random(seed), None)

    def test_sorts_once_per_mutation(self):
        view = PartialView(8, NodeId(0))
        view.merge([NodeDescriptor(NodeId(i)) for i in range(1, 9)])
        view.random_descriptors(3, random.Random(0))
        kept = view._sorted
        for seed in range(20):
            view.random_descriptors(3, random.Random(seed), exclude=NodeId(seed % 10))
        view.remove(NodeId(42))  # not in the view: nothing changed
        view.add(NodeDescriptor(NodeId(3), 5))  # older than the one held
        assert view._sorted is kept
        view.remove(NodeId(4))
        assert view._sorted is None


def _reference_estimate(estimator):
    total = sum(estimator._minima)
    raw = None if total <= 0 or not estimator._minima else (estimator.k - 1) / total
    candidates = [v for v in (raw, estimator._last_estimate) if v is not None]
    return max(1.0, max(candidates)) if candidates else 1.0


_minima = st.lists(st.floats(min_value=1e-6, max_value=5.0), min_size=4, max_size=4)


class TestSizeEstimateCache:
    @given(st.lists(st.one_of(
        # lower=None is a push; a flag list is a reply listing those entries.
        st.tuples(st.just("exchange"), st.integers(-1, 1), _minima,
                  st.none() | st.lists(st.booleans(), min_size=4, max_size=4)),
        st.tuples(st.just("tick"), st.floats(min_value=0.0, max_value=12.0)),
    ), max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_estimate_matches_the_formula(self, ops):
        from repro.common.messages import pack_mask
        from repro.estimation.extrema import ExtremaExchange, ExtremaReply, ExtremaSizeEstimator
        from repro.membership import CyclonProtocol
        from repro.sim import Cluster, UniformLatency

        sim = Simulation(seed=3)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        estimator = ExtremaSizeEstimator(k=4, epoch_length=5.0)
        cluster.add_node(lambda n: [CyclonProtocol(), estimator])
        assert estimator.estimate() == _reference_estimate(estimator)
        for op in ops:
            if op[0] == "exchange":  # stale, current or ahead-of-epoch
                _, offset, minima, lower = op
                epoch = max(0, estimator._epoch + offset)
                estimator.on_message(NodeId(99), ExtremaExchange(epoch, tuple(minima))
                                     if lower is None else ExtremaReply(
                                         epoch, pack_mask(lower),
                                         tuple(v for v, flag in zip(minima, lower) if flag)))
            else:  # rounds and epoch turns (_regenerate)
                sim.run_for(op[1])
            assert estimator.estimate() == _reference_estimate(estimator)


class TestBucketCountMemo:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=150)
    def test_bucket_count_follows_a_changing_estimate(self, estimates, r):
        from repro.sieve.keyspace import BucketSieve, bucket_count_for

        reads = iter(estimates)
        sieve = BucketSieve(NodeId(1), r, lambda: next(reads))
        for estimate in estimates:
            assert sieve.bucket_count() == bucket_count_for(max(1.0, estimate), r)


class TestGoldenFingerprint:
    """A small seeded deployment must repeat the parent's run exactly.

    Hot-path caches must not move one RNG draw, heap entry or charged
    byte; if a change does, this fails here and not only in the
    benchmark. A deliberate protocol change updates the numbers."""

    def test_seeded_run_repeats_the_recorded_counts(self):
        from repro import DataDroplets, DataDropletsConfig, IndexSpec

        dd = DataDroplets(DataDropletsConfig(
            seed=11, n_storage=16, n_soft=2, replication=4,
            indexes=(IndexSpec("score", lo=0, hi=100),))).start(warmup=10.0)
        for i in range(20):
            dd.put(f"k{i}", {"score": float(i * 5), "pad": "x" * 16})
        for i in range(0, 20, 4):
            dd.get(f"k{i}")
        dd.run_for(10.0)
        assert (dd.sim.events_processed, dd.metrics.counter_value("net.sent.total"),
                dd.metrics.counter_value("net.bytes.total")) == (5641, 4047.0, 1192343.0)

    def test_onehop_run_with_a_soft_crash_repeats_the_recorded_counts(self):
        """The same deployment under onehop routing, with one soft node
        crashed and rebooted (with metadata rebuild), so the coordinators
        route and scope their rebuild by tables that have changed."""
        from repro import DataDroplets, DataDropletsConfig, IndexSpec

        dd = DataDroplets(DataDropletsConfig(
            seed=11, n_storage=16, n_soft=2, replication=4, routing_mode="onehop",
            indexes=(IndexSpec("score", lo=0, hi=100),))).start(warmup=10.0)
        for i in range(20):
            dd.put(f"k{i}", {"score": float(i * 5), "pad": "x" * 16})
        dd.crash_soft_layer(fraction=0.5)
        dd.run_for(10.0)
        for i in range(20, 25):
            dd.put(f"k{i}", {"score": float(i * 2), "pad": "x" * 16})
        dd.recover_soft_layer(rebuild=True)
        dd.run_for(10.0)
        for i in range(0, 25, 4):
            dd.get(f"k{i}")
        dd.run_for(10.0)
        assert dd.metrics.counter_value("onehop.suspicions") >= 1
        assert (dd.sim.events_processed, dd.metrics.counter_value("net.sent.total"),
                dd.metrics.counter_value("net.bytes.total")) == (10577, 7138.0, 2272703.0)
