"""Phase classification and per-tenant tail attribution.

Two halves: synthetic spans pin the route/repair/audit classification
tables (every protocol family must land in a known phase), and a stock
traced deployment — onehop routing, random walks, range repair and the
state audit all enabled — must produce *zero* ``unknown`` spans.
"""

from __future__ import annotations

import pytest

from repro import DataDroplets, DataDropletsConfig
from repro.obs.analyze import (
    PHASE_GROUPS,
    Span,
    attribute_tail,
    build_traces,
    phase_group,
    phase_of,
    render_tail_attribution,
    summarize,
)

CANONICAL_BUCKETS = ("coordinate", "disseminate", "repair", "route", "audit")


def span(kind: str = "send", proto: str = None, msg: str = None) -> Span:
    return Span(span_id=1, trace_id="t", parent=0, kind=kind, node=1,
                t_start=0.0, dst=2, proto=proto, msg=msg)


class TestPhaseOf:
    def test_root_op_span(self):
        assert phase_of(span(kind="op")) == "client-op"
        assert phase_group("client-op") == "coordinate"

    @pytest.mark.parametrize("proto,msg,phase,group", [
        # onehop routing traffic -> route
        ("soft", "RedirectedOp", "route-redirect", "route"),
        ("onehop", "MemberEvent", "route-gossip", "route"),
        ("onehop", "EventGossip", "route-gossip", "route"),
        ("onehop", "OneHopPing", "route-probe", "route"),
        ("onehop", "OneHopPong", "route-probe", "route"),
        ("onehop", "TableDigest", "route-antientropy", "route"),
        # targeted repair exchanges -> repair (proto-first: range-repair
        # reuses the anti-entropy message vocabulary)
        ("range-repair", "DigestRequest", "repair-exchange", "repair"),
        ("range-repair", "ItemsPush", "repair-exchange", "repair"),
        ("redundancy", "ProbeRequest", "repair-control", "repair"),
        # state audits / census walks -> audit
        ("random-walk", "WalkStep", "census", "audit"),
        ("random-walk", "WalkResult", "census", "audit"),
        # the rest of the protocol families stay classified
        ("gossip", "Infect", "gossip-hop", "disseminate"),
        ("anti-entropy", "DigestRequest", "antientropy", "repair"),
        ("membership", "ShuffleRequest", "membership", "disseminate"),
        ("soft-membership", "SoftHeartbeat", "membership", "disseminate"),
        ("size-estimator", "PushSumShare", "estimation", "disseminate"),
        ("size-estimator", "ExtremaExchange", "estimation", "disseminate"),
        ("size-estimator", "ExtremaReply", "estimation", "disseminate"),
        ("tman:rank", "TManExchange", "overlay", "disseminate"),
        ("push-sum:size", "PushSumShare", "estimation", "disseminate"),
        ("push-sum:agg", "PushSumShare", "estimation", "disseminate"),
        ("dht", "Lookup", "baseline", "route"),
        ("chord", "Stabilize", "baseline", "route"),
    ])
    def test_protocol_families(self, proto, msg, phase, group):
        assert phase_of(span(proto=proto, msg=msg)) == phase
        assert phase_group(phase) == group

    def test_unmapped_traffic_is_unknown_not_misfiled(self):
        assert phase_of(span(proto="martian", msg="Blorp")) == "unknown"
        assert phase_group("unknown") == "other"

    def test_every_mapped_phase_has_a_coarse_group(self):
        assert set(PHASE_GROUPS.values()) <= set(CANONICAL_BUCKETS)


def _traced_full_stack():
    """A deployment exercising every background protocol family."""
    return DataDroplets(DataDropletsConfig(
        n_storage=30, n_soft=3, replication=4, seed=42, tracing=True,
        routing_mode="onehop",
    )).start(warmup=15.0)


class TestStockRunHasNoUnknownPhase:
    def test_no_unknown_spans(self):
        dd = _traced_full_stack()
        for i in range(6):
            dd.put(f"k:{i}", {"v": i}, tenant="gold" if i % 2 else "bulk")
        dd.get("k:0", tenant="gold")
        dd.run_for(20.0)
        traces = build_traces(dd.tracer.records())
        assert traces
        unknown = [(s.proto, s.msg) for tr in traces.values()
                   for s in tr.spans.values() if phase_of(s) == "unknown"]
        assert unknown == []

    def test_summaries_carry_the_tenant_tag(self):
        dd = _traced_full_stack()
        dd.put("k:a", {"v": 1}, tenant="gold")
        dd.put("k:b", {"v": 2})
        dd.run_for(5.0)
        tenants = [s.tenant
                   for s in summarize(build_traces(dd.tracer.records()))]
        assert sorted(tenants) == ["default", "gold"]


class TestAttributeTail:
    def _traces(self):
        dd = _traced_full_stack()
        for i in range(12):
            dd.put(f"k:{i}", {"v": i}, tenant="gold" if i % 3 else "bulk")
        dd.run_for(10.0)
        return build_traces(dd.tracer.records())

    def test_reports_canonical_buckets_per_tenant(self):
        attribution = attribute_tail(self._traces(), q=0.5)
        assert set(attribution) == {"gold", "bulk"}
        for doc in attribution.values():
            assert set(doc["phases"]) == set(CANONICAL_BUCKETS)
            assert doc["ops"] > 0
            assert doc["slow_ops"] >= 1
            shares = [p["share"] for p in doc["phases"].values()]
            assert sum(shares) == pytest.approx(1.0)
            assert doc["dominant"] in CANONICAL_BUCKETS
            # dissemination dominates a healthy epidemic store's tail
            assert doc["dominant"] == "disseminate"

    def test_quantile_narrows_the_slow_set(self):
        traces = self._traces()
        broad = attribute_tail(traces, q=0.1)
        narrow = attribute_tail(traces, q=0.99)
        for tenant in broad:
            assert narrow[tenant]["slow_ops"] <= broad[tenant]["slow_ops"]

    def test_render_mentions_every_tenant_and_bucket(self):
        text = render_tail_attribution(attribute_tail(self._traces(), q=0.5))
        for needle in ("gold", "bulk", *CANONICAL_BUCKETS, "dominant"):
            assert needle in text

    def test_empty_input(self):
        assert attribute_tail({}) == {}
        assert "no completed operation traces" in render_tail_attribution({})
