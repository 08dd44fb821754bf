"""Hot-path regressions: size caching, single-size sends, cancelled events.

The simulation core's fast paths (cached ``Message.size_bytes``, the
slots event queue, interned counters) must stay behaviourally identical
to the straightforward implementations they replaced. These tests pin
that equivalence down.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import pytest

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
import repro.randomwalk.walker  # noqa: F401
import repro.softstate.coordinator  # noqa: F401
import repro.softstate.messages  # noqa: F401
from repro.common.ids import NodeId
from repro.common.messages import (
    Message,
    recursive_size_estimate,
    registered_message_types,
)
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
        registry = registered_message_types()
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

    def test_default_constructed_types_also_match(self):
        for name, cls in sorted(registered_message_types().items()):
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
        assert keep.cancelled is False
        assert drop.cancelled is True

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
