"""Offline trace analysis: span trees, critical paths, phase latency.

Consumes the flat JSONL event stream produced by
:class:`repro.obs.trace.Tracer` and rebuilds per-operation span trees:

* a ``send`` event *defines* a span (its id travels on the wire) and
  links it to its parent span; the matching ``recv`` closes it, so
  ``t_recv - t_send`` is that hop's network latency;
* an ``op`` event defines the root span of a client operation;
* every other event type annotates whichever span it names.

From the tree we derive what the epidemic literature calls the
*infection tree* of an operation: depth (max hops from the root to any
storage apply), width (applies per hop level), the critical path (the
root → apply chain that completed last), and a per-phase latency
breakdown keyed on protocol/message classes. Events naming spans with
no recorded definition (sampled-out parents, ring-buffer eviction,
traffic from a restarted tracer) are reported as *orphans* instead of
crashing the analysis — a long-running ring buffer legitimately evicts
prefixes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.trace import TraceEvent, load_events

#: Annotation event types counted as "the payload reached storage".
APPLY_TYPES = ("apply", "repair")


@dataclass
class Span:
    """One reconstructed span (a message hop, or the root op)."""

    span_id: int
    trace_id: str
    parent: Optional[int]
    kind: str                      # "op" or "send"
    node: int                      # sender (op: client node)
    t_start: float                 # send time / op start
    dst: Optional[int] = None
    proto: Optional[str] = None
    msg: Optional[str] = None
    t_recv: Optional[float] = None
    children: List[int] = field(default_factory=list)
    annotations: List[TraceEvent] = field(default_factory=list)

    @property
    def hop_latency(self) -> Optional[float]:
        if self.t_recv is None or self.kind != "send":
            return None
        return self.t_recv - self.t_start


@dataclass
class Trace:
    """All spans of one operation (one connected tree when complete)."""

    trace_id: str
    spans: Dict[int, Span] = field(default_factory=dict)
    root: Optional[Span] = None
    orphan_events: List[TraceEvent] = field(default_factory=list)

    # -- tree accessors ------------------------------------------------
    def depth_of(self, span_id: int) -> int:
        """Hops from the root (0 for the root; orphan chains count from
        their highest known ancestor)."""
        depth = 0
        span = self.spans.get(span_id)
        while span is not None and span.parent is not None:
            depth += 1
            span = self.spans.get(span.parent)
            if depth > len(self.spans):  # cycle guard on corrupt input
                break
        return depth

    def path_to_root(self, span_id: int) -> List[Span]:
        """Spans from the root down to ``span_id`` (inclusive)."""
        chain: List[Span] = []
        span = self.spans.get(span_id)
        while span is not None:
            chain.append(span)
            if span.parent is None:
                break
            span = self.spans.get(span.parent)
            if len(chain) > len(self.spans):
                break
        chain.reverse()
        return chain

    def applies(self) -> List[Tuple[Span, TraceEvent]]:
        """(span, event) for every storage apply/repair annotation."""
        out: List[Tuple[Span, TraceEvent]] = []
        for span in self.spans.values():
            for event in span.annotations:
                if event.type in APPLY_TYPES:
                    out.append((span, event))
        return out

    def is_connected(self) -> bool:
        """True when every span reaches the root via parent links."""
        if self.root is None:
            return False
        root_id = self.root.span_id
        for span in self.spans.values():
            chain = self.path_to_root(span.span_id)
            if not chain or chain[0].span_id != root_id:
                return False
        return True


def build_traces(events: Iterable[TraceEvent]) -> Dict[str, Trace]:
    """Group a flat event stream into per-operation :class:`Trace` s."""
    traces: Dict[str, Trace] = {}
    pending: Dict[str, List[TraceEvent]] = defaultdict(list)

    for event in events:
        trace = traces.get(event.trace_id)
        if trace is None:
            trace = traces[event.trace_id] = Trace(event.trace_id)
        if event.type == "op":
            span = Span(event.span, event.trace_id, None, "op",
                        event.node, event.t)
            span.annotations.append(event)
            trace.spans[event.span] = span
            trace.root = span
        elif event.type == "send":
            detail = event.detail or {}
            span = Span(event.span, event.trace_id, event.parent, "send",
                        event.node, event.t, dst=detail.get("dst"),
                        proto=detail.get("proto"), msg=detail.get("msg"))
            trace.spans[event.span] = span
            parent = trace.spans.get(event.parent) if event.parent is not None else None
            if parent is not None:
                parent.children.append(event.span)
        else:
            pending[event.trace_id].append(event)

    # Second pass: recv closures + annotations may precede their span's
    # definition in a multi-node concatenated file, so resolve them after
    # every span is known.
    for trace_id, annots in pending.items():
        trace = traces[trace_id]
        for event in annots:
            span = trace.spans.get(event.span)
            if span is None:
                trace.orphan_events.append(event)
            elif event.type == "recv":
                span.t_recv = event.t
            else:
                span.annotations.append(event)

    # Sends whose parent never appeared are orphan spans too.
    for trace in traces.values():
        for span in trace.spans.values():
            if span.parent is not None and span.parent not in trace.spans:
                trace.orphan_events.extend(span.annotations)
    return traces


def load_traces(path: str) -> Dict[str, Trace]:
    return build_traces(load_events(path))


# ---------------------------------------------------------------------------
# phase classification
# ---------------------------------------------------------------------------

#: message-name prefixes → phase label (first match wins; fall back to
#: the protocol map below).
# First matching prefix wins, so more specific names come first
# (``ClientReply`` before ``Client``, ``ReadReply`` before ``Read``).
_PHASE_BY_MSG = (
    ("ClientReply", "client-reply"),
    ("Client", "client-request"),
    ("StoreWrite", "coordinator-dispatch"),
    ("StoreAck", "storage-ack"),
    ("ReadReply", "storage-reply"),
    ("BatchReadReply", "storage-reply"),
    ("ScanPartial", "storage-reply"),
    ("AggregateReply", "storage-reply"),
    ("RebuildReply", "storage-reply"),
    ("RedirectedOp", "route-redirect"),
    ("Read", "coordinator-dispatch"),
    ("BatchRead", "coordinator-dispatch"),
    ("Scan", "coordinator-dispatch"),
    ("Aggregate", "coordinator-dispatch"),
    ("EpidemicRead", "coordinator-dispatch"),
    ("Rebuild", "coordinator-dispatch"),
    ("InjectRebuild", "coordinator-dispatch"),
    ("Gossip", "gossip-hop"),
    ("Advertisement", "gossip-lazy"),
    ("PullRequest", "gossip-lazy"),
    ("PullReply", "gossip-lazy"),
    ("Digest", "antientropy"),
    ("BucketSummary", "antientropy"),
    ("BucketDigest", "antientropy"),
    ("Items", "antientropy"),
    # one-hop routing layer (PR 8): member-event epidemics, liveness
    # probes, and routing-table anti-entropy are all *routing* cost.
    ("MemberEvent", "route-gossip"),
    ("EventGossip", "route-gossip"),
    ("OneHopPing", "route-probe"),
    ("OneHopPong", "route-probe"),
    ("Table", "route-antientropy"),
    # background membership / estimation / overlay maintenance.
    ("SoftHeartbeat", "membership"),
    ("ShuffleRequest", "membership"),
    ("ShuffleReply", "membership"),
    ("TManExchange", "overlay"),
    ("VectorExchange", "overlay"),
    ("PushSumShare", "estimation"),
    ("ExtremaExchange", "estimation"),
    ("ExtremaReply", "estimation"),
)

#: protocol → phase for spans whose message name matches no prefix
#: (prefix-named protocols like ``tman:<attr>`` are matched on prefix).
_PHASE_BY_PROTO = {
    "soft": "coordinator-dispatch",
    "storage": "coordinator-dispatch",
    "client": "client-request",
    "gossip": "gossip-hop",
    "anti-entropy": "antientropy",
    "range-repair": "repair-exchange",
    "redundancy": "repair-control",
    "onehop": "route-gossip",
    "membership": "membership",
    "soft-membership": "membership",
    "size-estimator": "estimation",
    "multi-overlay": "overlay",
    "dht": "baseline",
    "chord": "baseline",
}

_PHASE_BY_PROTO_PREFIX = (
    ("tman:", "overlay"),
    ("push-sum:", "estimation"),
)

#: fine phase → coarse bucket for tail attribution: where did the slow
#: quantile's time go — client-path coordination, epidemic
#: dissemination, redundancy repair, routing, or audit traffic?
PHASE_GROUPS = {
    "client-op": "coordinate",
    "client-request": "coordinate",
    "client-reply": "coordinate",
    "coordinator-dispatch": "coordinate",
    "storage-ack": "coordinate",
    "storage-reply": "coordinate",
    "gossip-hop": "disseminate",
    "gossip-lazy": "disseminate",
    "membership": "disseminate",
    "overlay": "disseminate",
    "estimation": "disseminate",
    "antientropy": "repair",
    "repair-exchange": "repair",
    "repair-control": "repair",
    "route-gossip": "route",
    "route-probe": "route",
    "route-antientropy": "route",
    "route-redirect": "route",
    "baseline": "route",
    "audit": "audit",
}


def phase_of(span: Span) -> str:
    # The root span is the client operation itself, not a message hop.
    if span.kind == "op":
        return "client-op"
    # Protocol precedes the message-name match where the same message
    # classes serve two phases: RangeRepair reuses the anti-entropy
    # Digest*/Items* vocabulary over its range-scoped store, but that
    # traffic is *repair*, not generic anti-entropy.
    if span.proto == "range-repair":
        return "repair-exchange"
    msg = span.msg or ""
    for prefix, phase in _PHASE_BY_MSG:
        if msg.startswith(prefix):
            return phase
    proto = span.proto or ""
    if proto in _PHASE_BY_PROTO:
        return _PHASE_BY_PROTO[proto]
    for prefix, phase in _PHASE_BY_PROTO_PREFIX:
        if proto.startswith(prefix):
            return phase
    return "unknown"


def phase_group(phase: str) -> str:
    """Coarse bucket of a fine phase (``other`` for unmapped ones)."""
    return PHASE_GROUPS.get(phase, "other")


def phase_breakdown(trace: Trace) -> Dict[str, Tuple[int, float]]:
    """``phase -> (hop count, total hop latency)`` over closed spans."""
    out: Dict[str, Tuple[int, float]] = {}
    for span in trace.spans.values():
        latency = span.hop_latency
        if latency is None:
            continue
        phase = phase_of(span)
        count, total = out.get(phase, (0, 0.0))
        out[phase] = (count + 1, total + latency)
    return out


# ---------------------------------------------------------------------------
# per-trace summary
# ---------------------------------------------------------------------------


@dataclass
class TraceSummary:
    trace_id: str
    kind: str
    start: float
    applies: int
    spans: int
    depth: int                      # max hops root → apply
    width_by_hop: Dict[int, int]    # applies per hop level
    connected: bool
    orphans: int
    phases: Dict[str, Tuple[int, float]]
    critical_path: List[Span]       # root → latest-completing apply
    critical_latency: Optional[float]
    tenant: Optional[str] = None    # tenant tag from the root op detail


def summarize_trace(trace: Trace) -> TraceSummary:
    applies = trace.applies()
    depth = 0
    width: Dict[int, int] = defaultdict(int)
    latest: Optional[Tuple[float, Span, TraceEvent]] = None
    for span, event in applies:
        hops = trace.depth_of(span.span_id)
        depth = max(depth, hops)
        width[hops] += 1
        if latest is None or event.t > latest[0]:
            latest = (event.t, span, event)
    root = trace.root
    kind = "?"
    tenant: Optional[str] = None
    if root is not None and root.annotations:
        detail = root.annotations[0].detail or {}
        kind = detail.get("kind", "?")
        tenant = detail.get("tenant")
    critical: List[Span] = []
    critical_latency: Optional[float] = None
    if latest is not None:
        critical = trace.path_to_root(latest[1].span_id)
        if root is not None and critical and critical[0] is root:
            critical_latency = latest[0] - root.t_start
    return TraceSummary(
        trace_id=trace.trace_id,
        kind=kind,
        start=root.t_start if root is not None else 0.0,
        applies=len(applies),
        spans=len(trace.spans),
        depth=depth,
        width_by_hop=dict(width),
        connected=trace.is_connected(),
        orphans=len(trace.orphan_events),
        phases=phase_breakdown(trace),
        critical_path=critical,
        critical_latency=critical_latency,
        tenant=tenant,
    )


def summarize(traces: Dict[str, Trace]) -> List[TraceSummary]:
    return sorted((summarize_trace(t) for t in traces.values()),
                  key=lambda s: s.start)


# ---------------------------------------------------------------------------
# tenant/phase tail attribution
# ---------------------------------------------------------------------------


def _nearest_rank(ordered: List[float], q: float) -> float:
    """Nearest-rank quantile over an already-sorted non-empty list."""
    import math

    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def attribute_tail(traces: Dict[str, Trace], q: float = 0.99,
                   summaries: Optional[List[TraceSummary]] = None) -> Dict[str, Dict[str, Any]]:
    """Per tenant: which phase dominates the slow ``q`` quantile.

    Groups operation traces by tenant, takes each tenant's slowest
    ``1-q`` fraction (by critical latency), and sums the coarse phase
    buckets (``coordinate / disseminate / repair / route / audit``) of
    hop latency inside those slow traces. The ``dominant`` entry names
    where a tenant's tail latency actually goes — client-path
    coordination, or background repair/route traffic the op got queued
    behind on shared spans.

    Returns ``{tenant: {"ops", "slow_ops", "threshold", "phases":
    {group: {"total", "share"}}, "dominant"}}``. Traces without a
    measured critical latency are skipped; pass precomputed
    ``summaries`` to avoid re-walking the span trees.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    if summaries is None:
        summaries = summarize(traces)
    by_tenant: Dict[str, List[TraceSummary]] = defaultdict(list)
    for s in summaries:
        if s.critical_latency is not None:
            by_tenant[s.tenant or "default"].append(s)
    out: Dict[str, Dict[str, Any]] = {}
    canonical = ("coordinate", "disseminate", "repair", "route", "audit")
    for tenant, group in sorted(by_tenant.items()):
        latencies = sorted(s.critical_latency for s in group)
        threshold = _nearest_rank(latencies, q)
        slow = [s for s in group if s.critical_latency >= threshold]
        # Always report the canonical buckets (zero when a phase carried
        # no traffic) so readers can see what the tail is NOT spent on.
        buckets: Dict[str, float] = dict.fromkeys(canonical, 0.0)
        for s in slow:
            for phase, (_count, total) in s.phases.items():
                g = phase_group(phase)
                buckets[g] = buckets.get(g, 0.0) + total
        grand = sum(buckets.values())
        out[tenant] = {
            "ops": len(group),
            "slow_ops": len(slow),
            "threshold": threshold,
            "phases": {
                name: {"total": total,
                       "share": total / grand if grand else 0.0}
                for name, total in sorted(buckets.items())
            },
            "dominant": max(buckets, key=buckets.get) if grand else None,
        }
    return out


def render_tail_attribution(attribution: Dict[str, Dict[str, Any]],
                            q: float = 0.99) -> str:
    """Human-readable block for ``repro trace`` and the e19 report."""
    if not attribution:
        return "tail attribution: no completed operation traces"
    lines = [f"per-tenant tail attribution (slowest {100 * (1 - q):g}% by critical latency):"]
    for tenant, doc in attribution.items():
        lines.append(
            f"  {tenant:<12} ops={doc['ops']:<5} slow={doc['slow_ops']:<3}"
            f" p{100 * q:g}={_fmt_latency(doc['threshold'])}"
            f"  dominant={doc['dominant'] or '-'}"
        )
        for name, cell in doc["phases"].items():
            lines.append(
                f"      {name:<12} total={_fmt_latency(cell['total']):<10}"
                f" share={cell['share'] * 100:5.1f}%"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI rendering
# ---------------------------------------------------------------------------


def _fmt_latency(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    return f"{seconds * 1000:.2f}ms"


def render_summary(summaries: List[TraceSummary], limit: int = 10,
                   show_paths: bool = False) -> str:
    """The ``repro trace --summary`` report."""
    if not summaries:
        return "no traces found"
    lines: List[str] = []
    total_spans = sum(s.spans for s in summaries)
    total_orphans = sum(s.orphans for s in summaries)
    connected = sum(1 for s in summaries if s.connected)
    lines.append(
        f"{len(summaries)} trace(s), {total_spans} spans, "
        f"{connected}/{len(summaries)} connected, {total_orphans} orphan event(s)"
    )
    # Aggregate phase table across all traces.
    agg: Dict[str, Tuple[int, float]] = {}
    for s in summaries:
        for phase, (count, total) in s.phases.items():
            c0, t0 = agg.get(phase, (0, 0.0))
            agg[phase] = (c0 + count, t0 + total)
    if agg:
        lines.append("per-phase latency (all traces):")
        for phase, (count, total) in sorted(agg.items()):
            lines.append(
                f"  {phase:<22} hops={count:<6} total={_fmt_latency(total)}"
                f"  mean={_fmt_latency(total / count)}"
            )
    lines.append("")
    for s in summaries[:limit]:
        width = "/".join(str(s.width_by_hop[h]) for h in sorted(s.width_by_hop)) or "-"
        tenant = f" [{s.tenant}]" if s.tenant else ""
        lines.append(
            f"{s.trace_id:<14} {s.kind:<10}{tenant} spans={s.spans:<5} applies={s.applies:<3}"
            f" depth={s.depth} width={width:<8}"
            f" crit={_fmt_latency(s.critical_latency):<9}"
            f"{' CONNECTED' if s.connected else ' DISCONNECTED'}"
            f"{'' if not s.orphans else f' orphans={s.orphans}'}"
        )
        if show_paths and s.critical_path:
            for span in s.critical_path:
                if span.kind == "op":
                    lines.append(f"    op @node{span.node} t={span.t_start:.6g}")
                else:
                    lines.append(
                        f"    {span.proto or '?'}/{span.msg or '?'}"
                        f" node{span.node}->node{span.dst}"
                        f" +{_fmt_latency(span.hop_latency)}"
                    )
    if len(summaries) > limit:
        lines.append(f"... {len(summaries) - limit} more trace(s) omitted")
    return "\n".join(lines)
