"""Causal trace propagation and span/event recording.

The model is a lightweight cousin of distributed tracing systems: a
client operation opens a *root span*; every network send performed while
a span is active allocates a *child span* whose id travels with the
message (inside the wire envelope, see :mod:`repro.common.codec`); the
receiver activates the delivered context around its message handler, so
any sends it performs in turn become grandchildren. The resulting
parent links form one connected tree per operation — the infection tree
the epidemic literature analyses, reconstructed from real traffic.

Records are flat *events*, not open/close span pairs:

* ``op``    — root span of a client operation (facade).
* ``send``  — child-span allocation at the sender (one per network send;
  the span id is what the wire carries).
* ``recv``  — the matching delivery (same span id as its ``send``), so
  send/recv pairs yield per-hop latency.
* annotation events (``apply``, ``sieve-admit``, ``sieve-reject``,
  ``deliver``, ``repair``, ``ack``, ``reply``, ``stale-route``, …) —
  attached to whatever span is active where they happen.

Timestamps are whatever the host clock says: *virtual seconds* in the
simulator, ``loop.time()`` wall-clock seconds in the asyncio runtime
(see DESIGN.md). Events live in a bounded ring buffer; a long run
evicts the oldest events first, which the analyzer reports as orphans
rather than failing.

Everything here is standard library only, so the codec layer can import
:class:`TraceContext` without cycles.
"""

from __future__ import annotations

import itertools
import json
from contextlib import contextmanager
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class TraceContext:
    """The compact causal context a message carries on the wire.

    ``trace_id`` names the operation's whole tree; ``span_id`` is the
    span the carrying message *is* (allocated at send time); ``hop``
    counts network hops from the root; ``origin_time`` is the root
    span's start time (sender clock), letting any receiver compute
    origin-relative latency without a lookup.
    """

    __slots__ = ("trace_id", "span_id", "hop", "origin_time")

    trace_id: str
    span_id: int
    hop: int
    origin_time: float

    def to_wire(self) -> Tuple[str, int, int, float]:
        return (self.trace_id, self.span_id, self.hop, self.origin_time)

    @classmethod
    def from_wire(cls, raw: Any) -> "TraceContext":
        trace_id, span_id, hop, origin_time = raw
        if not isinstance(trace_id, str) or not isinstance(span_id, int) \
                or not isinstance(hop, int) or isinstance(hop, bool) \
                or isinstance(span_id, bool):
            raise ValueError(f"malformed trace context: {raw!r}")
        return cls(trace_id, span_id, hop, float(origin_time))


@dataclass(frozen=True)
class TraceEvent:
    """One ring-buffer record (see module docstring for the grammar)."""

    __slots__ = ("t", "node", "type", "trace_id", "span", "parent", "detail")

    t: float
    node: int
    type: str
    trace_id: str
    span: int
    parent: Optional[int]
    detail: Optional[Dict[str, Any]]

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "t": self.t,
            "node": self.node,
            "type": self.type,
            "trace": self.trace_id,
            "span": self.span,
        }
        if self.parent is not None:
            out["parent"] = self.parent
        if self.detail:
            out["detail"] = self.detail
        return out

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "TraceEvent":
        return cls(
            t=float(raw["t"]),
            node=int(raw["node"]),
            type=str(raw["type"]),
            trace_id=str(raw["trace"]),
            span=int(raw["span"]),
            parent=raw.get("parent"),
            detail=raw.get("detail"),
        )


class Tracer:
    """Span allocator + bounded event recorder for one fabric.

    The simulator shares one tracer across all nodes of a cluster (the
    event loop is single-threaded, so one ambient ``current`` context is
    unambiguous); the asyncio runtime gives each node its own. Both use
    the same API:

    * :meth:`start_trace` — open a root span.
    * :meth:`send_context` — allocate a child span for an outgoing
      message and record its ``send`` event.
    * :meth:`activate` — install a delivered context around a handler.
    * :meth:`event` — record an annotation on the active span.

    When ``enabled`` is False every method is a cheap no-op and
    :attr:`active` is always False, so instrumented hot paths cost one
    attribute load and a branch.
    """

    __slots__ = ("enabled", "events", "current", "_span_seq", "_trace_seq", "dropped")

    def __init__(self, enabled: bool = True, capacity: int = 200_000):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.enabled = enabled
        self.events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.current: Optional[TraceContext] = None
        self._span_seq = itertools.count(1)
        self._trace_seq = itertools.count()
        #: Events recorded beyond capacity (evicted from the ring).
        self.dropped = 0

    # -- span lifecycle ------------------------------------------------
    @property
    def active(self) -> bool:
        """True when an instrumentation point should record events."""
        return self.enabled and self.current is not None

    def start_trace(self, node: int, kind: str, t: float,
                    **detail: Any) -> Optional[TraceContext]:
        """Open a root span; None when disabled."""
        if not self.enabled:
            return None
        trace_id = f"t{next(self._trace_seq)}-{node}"
        span = next(self._span_seq)
        ctx = TraceContext(trace_id, span, hop=0, origin_time=t)
        self._record(TraceEvent(t, node, "op", trace_id, span, None,
                                dict(detail, kind=kind) if detail else {"kind": kind}))
        return ctx

    def send_context(self, src: int, dst: int, protocol: str, msg_type: str,
                     t: float, parent: Optional[TraceContext] = None,
                     ) -> Optional[TraceContext]:
        """Allocate the child span for one outgoing message.

        Returns the context to put on the wire, or None when nothing is
        active (untraced traffic stays untraced)."""
        if parent is None:
            parent = self.current
        if not self.enabled or parent is None:
            return None
        span = next(self._span_seq)
        ctx = TraceContext(parent.trace_id, span, parent.hop + 1, parent.origin_time)
        self._record(TraceEvent(t, src, "send", parent.trace_id, span, parent.span_id,
                                {"dst": dst, "proto": protocol, "msg": msg_type}))
        return ctx

    def recv(self, node: int, ctx: TraceContext, t: float, protocol: str) -> None:
        """Record the delivery that closes a send span."""
        if not self.enabled:
            return
        self._record(TraceEvent(t, node, "recv", ctx.trace_id, ctx.span_id, None,
                                {"proto": protocol}))

    def event(self, etype: str, node: int, t: float,
              ctx: Optional[TraceContext] = None, **detail: Any) -> None:
        """Annotate the active (or given) span with a typed event."""
        if ctx is None:
            ctx = self.current
        if not self.enabled or ctx is None:
            return
        self._record(TraceEvent(t, node, etype, ctx.trace_id, ctx.span_id, None,
                                detail or None))

    @contextmanager
    def activate(self, ctx: Optional[TraceContext]) -> Iterator[None]:
        """Install ``ctx`` as the ambient context for a handler's scope."""
        previous = self.current
        self.current = ctx
        try:
            yield
        finally:
            self.current = previous

    # -- recording -----------------------------------------------------
    def _record(self, event: TraceEvent) -> None:
        if len(self.events) == self.events.maxlen:
            self.dropped += 1
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def records(self) -> List[TraceEvent]:
        return list(self.events)

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    # -- export --------------------------------------------------------
    def export_jsonl(self, path: str) -> int:
        """Write the buffered events as one-JSON-object-per-line.

        Returns the number of events written. The format is append-
        friendly, so traces from several tracers (one per runtime node)
        can be concatenated into one file for analysis."""
        with open(path, "w", encoding="utf-8") as fh:
            return self.write_jsonl(fh)

    def write_jsonl(self, fh) -> int:
        count = 0
        for event in self.events:
            fh.write(json.dumps(event.to_dict(), separators=(",", ":")))
            fh.write("\n")
            count += 1
        return count


class _NullTracer(Tracer):
    """The always-off tracer hosts fall back to (shared singleton)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(enabled=False, capacity=1)


#: Shared disabled tracer; ``Host.tracer`` returns this when no tracer
#: is configured, so instrumentation never needs a None check.
NULL_TRACER = _NullTracer()


def load_events(path: str) -> List[TraceEvent]:
    """Read a JSONL trace file back into events (blank lines skipped)."""
    events: List[TraceEvent] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(TraceEvent.from_dict(json.loads(line)))
    return events
