"""End-to-end causal tracing: context propagation, the event log, the
trace analyzer, and the acceptance scenario from the observability PR —
a traced put in a 50-node deployment must yield a connected span tree
from the client op down to replication-factor storage applies."""

import asyncio
import json

import pytest

from repro import DataDroplets, DataDropletsConfig
from repro.obs.analyze import build_traces, load_traces, render_summary, summarize
from repro.obs.trace import NULL_TRACER, TraceContext, Tracer, load_events


class TestTraceContext:
    def test_wire_roundtrip(self):
        ctx = TraceContext(trace_id="t1-9", span_id=4, hop=2, origin_time=1.25)
        assert TraceContext.from_wire(ctx.to_wire()) == ctx

    def test_from_wire_rejects_garbage(self):
        for bad in ((), ("id",), ("id", "x", 0, 0.0), ("id", 1, 2, "t"),
                    ("id", True, 0, 0.0), "nope", None, (1, 2, 3, 4)):
            with pytest.raises((TypeError, ValueError)):
                TraceContext.from_wire(bad)


class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        assert tracer.start_trace(1, "put", 0.0) is None
        tracer.event("apply", 1, 0.0)
        assert tracer.records() == []
        assert tracer.current is None

    def test_null_tracer_is_shared_and_inert(self):
        assert NULL_TRACER.current is None
        assert not NULL_TRACER.active
        assert NULL_TRACER.start_trace(1, "put", 0.0) is None
        assert NULL_TRACER.records() == []

    def test_activate_restores_previous_context(self):
        tracer = Tracer(enabled=True)
        outer = tracer.start_trace(1, "put", 0.0)
        with tracer.activate(outer):
            inner = tracer.send_context(1, 2, "p", "Msg", 0.1)
            with tracer.activate(inner):
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None

    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(enabled=True, capacity=10)
        ctx = tracer.start_trace(1, "put", 0.0)
        with tracer.activate(ctx):
            for i in range(25):
                tracer.event("apply", 1, float(i), key=f"k{i}")
        records = tracer.records()
        assert len(records) == 10
        assert records[0].detail["key"] == "k15"  # op + k0..k14 evicted
        assert tracer.dropped == 16

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer(enabled=True)
        ctx = tracer.start_trace(5, "put", 1.0, key="k")
        with tracer.activate(ctx):
            child = tracer.send_context(5, 6, "soft", "ClientPut", 1.1)
        tracer.recv(6, child, 1.2, "soft")
        path = tmp_path / "trace.jsonl"
        written = tracer.export_jsonl(str(path))
        assert written == 3
        events = load_events(str(path))
        assert [e.type for e in events] == ["op", "send", "recv"]
        assert events[1].detail["msg"] == "ClientPut"


class TestAnalyzer:
    def _three_hop_tracer(self):
        tracer = Tracer(enabled=True)
        ctx = tracer.start_trace(50, "put", 0.0, key="k")
        with tracer.activate(ctx):
            hop1 = tracer.send_context(50, 51, "soft", "ClientPut", 0.01)
        tracer.recv(51, hop1, 0.03, "soft")
        with tracer.activate(hop1):
            hop2 = tracer.send_context(51, 7, "storage", "StoreWrite", 0.04)
        tracer.recv(7, hop2, 0.06, "storage")
        with tracer.activate(hop2):
            tracer.event("apply", 7, 0.06, key="k")
        return tracer

    def test_span_tree_connected(self):
        traces = build_traces(self._three_hop_tracer().records())
        assert len(traces) == 1
        [trace] = traces.values()
        assert trace.is_connected()
        assert not trace.orphan_events
        assert len(trace.applies()) == 1

    def test_summary_depth_and_phases(self):
        [summary] = summarize(build_traces(self._three_hop_tracer().records()))
        assert summary.connected
        assert summary.depth == 2
        assert summary.applies == 1
        assert "client-request" in summary.phases
        assert "coordinator-dispatch" in summary.phases
        assert summary.critical_latency == pytest.approx(0.06)

    def test_orphan_detection(self):
        tracer = Tracer(enabled=True)
        ctx = tracer.start_trace(1, "put", 0.0)
        # an annotation naming a span that never had a send event
        fake = TraceContext(trace_id=ctx.trace_id, span_id=999, hop=3,
                            origin_time=0.0)
        tracer.event("apply", 2, 0.5, ctx=fake, key="k")
        [trace] = build_traces(tracer.records()).values()
        assert trace.orphan_events

    def test_render_summary_mentions_connectivity(self):
        summaries = summarize(build_traces(self._three_hop_tracer().records()))
        text = render_summary(summaries, show_paths=True)
        assert "CONNECTED" in text
        assert "per-phase latency" in text
        assert "ClientPut" in text  # critical path rendering


def _traced_deployment(**overrides):
    defaults = dict(n_storage=50, n_soft=2, replication=4, seed=42, tracing=True)
    defaults.update(overrides)
    return DataDroplets(DataDropletsConfig(**defaults)).start(warmup=15.0)


class TestTracedSimulation:
    """A traced deployment end to end, plus the tracing-off guarantee."""

    def test_put_yields_connected_tree_with_replicated_applies(self):
        dd = _traced_deployment()
        for i in range(5):
            dd.put(f"acc:{i}", {"v": i})
        dd.run_for(15.0)
        summaries = summarize(build_traces(dd.tracer.records()))
        puts = [s for s in summaries if s.kind == "put"]
        assert len(puts) == 5
        assert all(s.connected for s in puts)
        assert all(s.orphans == 0 for s in puts)
        # every put reaches at least one storage apply, and dissemination
        # replicates at least one of them replication-factor times
        assert all(s.applies >= 1 for s in puts)
        assert max(s.applies for s in puts) >= dd.config.replication
        # the infection tree has real depth: client -> coordinator ->
        # storage -> gossip relays
        assert max(s.depth for s in puts) >= 3

    def test_op_observer_carries_trace_id(self):
        dd = _traced_deployment()
        seen = []
        dd.set_op_observer(lambda trace: seen.append(trace))
        dd.put("k", {"v": 1})
        assert seen and seen[-1].trace_id is not None
        trace_ids = {s.trace_id for s in summarize(build_traces(dd.tracer.records()))}
        assert seen[-1].trace_id in trace_ids

    def test_export_jsonl_then_cli_analysis_path(self, tmp_path):
        dd = _traced_deployment()
        dd.put("k", {"v": 1})
        dd.run_for(5.0)
        path = tmp_path / "events.jsonl"
        written = dd.export_trace(str(path))
        assert written > 0
        with open(path) as fh:
            first = json.loads(fh.readline())
        assert {"t", "node", "type", "trace", "span"} <= set(first)
        summaries = summarize(load_traces(str(path)))
        assert summaries and all(s.connected for s in summaries)

    def test_tracing_disabled_records_nothing(self):
        dd = _traced_deployment(tracing=False)
        dd.put("k", {"v": 1})
        dd.run_for(5.0)
        assert dd.tracer is NULL_TRACER
        assert dd.tracer.records() == []

    def test_history_records_trace_ids(self):
        from repro.check.history import HistoryRecorder

        dd = _traced_deployment()
        recorder = HistoryRecorder()
        store = recorder.attach(dd)
        store.put("h", {"v": 1})
        record = recorder.history.ops[-1]
        assert record.trace_id is not None
        assert record.to_dict()["trace_id"] == record.trace_id


class TestRuntimeTracePropagation:
    """Trace context crosses real UDP datagrams in the asyncio runtime."""

    def test_context_propagates_over_udp(self):
        from repro.runtime import LocalCluster
        from repro.sim.node import Protocol

        class Sink(Protocol):
            name = "sink"

            def __init__(self):
                super().__init__()
                self.received = []

            def on_message(self, sender, message):
                # the handler runs inside the activated receive context
                self.received.append(self.host.tracer.current)

        def stack(node):
            sink = Sink()
            node.test_sink = sink  # type: ignore[attr-defined]
            return [sink]

        async def scenario():
            from repro.epidemic.eager import GossipMessage

            tracer = Tracer(enabled=True)
            cluster = LocalCluster(2, stack, base_port=31200, tracer=tracer)
            await cluster.start(seed_views=0)
            src, dst = cluster.nodes
            ctx = tracer.start_trace(src.node_id.value, "probe", src.now)
            with tracer.activate(ctx):
                src.send(dst.node_id, "sink", GossipMessage("m", {"x": 1}))
            await asyncio.sleep(0.3)
            cluster.stop()
            return tracer, dst.test_sink.received

        tracer, received = asyncio.run(scenario())
        assert len(received) == 1
        ctx = received[0]
        assert ctx is not None and ctx.hop == 1
        types = [e.type for e in tracer.records()]
        assert types.count("send") == 1 and types.count("recv") == 1
        [trace] = build_traces(tracer.records()).values()
        assert trace.is_connected()

    def test_untraced_runtime_send_carries_no_context(self):
        from repro.runtime import LocalCluster
        from repro.sim.node import Protocol

        class Sink(Protocol):
            name = "sink"

            def __init__(self):
                super().__init__()
                self.received = []

            def on_message(self, sender, message):
                self.received.append(self.host.tracer.current)

        def stack(node):
            sink = Sink()
            node.test_sink = sink  # type: ignore[attr-defined]
            return [sink]

        async def scenario():
            from repro.epidemic.eager import GossipMessage

            cluster = LocalCluster(2, stack, base_port=31210)
            await cluster.start(seed_views=0)
            src, dst = cluster.nodes
            src.send(dst.node_id, "sink", GossipMessage("m", {"x": 1}))
            await asyncio.sleep(0.3)
            cluster.stop()
            return dst.test_sink.received

        received = asyncio.run(scenario())
        assert received == [None]
