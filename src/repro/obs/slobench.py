"""E19: graceful degradation under multi-tenant overload (bench).

Drives the full system *open-loop* with the production traffic profiles
of :mod:`repro.workloads.profiles` — a bulk aggressor with a moving
hotspot and a flash crowd, plus two small tenants with declared SLOs —
through the facade's admission gate, and measures whether protection
actually protects:

* **1× gated** — the healthy baseline: offered load inside capacity.
* **2× gated** — the aggressor doubles its rate (overload): the gate
  must shed the aggressor's excess so total goodput degrades gracefully
  (≥ ``goodput_floor`` of baseline) and the in-SLO tenants' p99 stays
  within their declared targets.
* **2× ungated** — the collapse control: same overload through an
  unprotected FIFO queue; every tenant's latency grows with the backlog,
  demonstrating what the gate is for.

Dispatch capacity is a fluid token bucket (see
:mod:`repro.obs.overload`): the simulator's network latency model is
load-independent, so finite client-side dispatch capacity is the
explicit overload model — the backlog (negative tokens) is the queue,
and queueing delay is backlog over capacity. All timing is virtual, so
results are exactly reproducible.

``repro bench e19 --check`` gates on this (:func:`run` /
:func:`render`); ``BENCH_e19.json`` records the measured numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import DataDropletsConfig
from repro.core.datadroplets import ClientProtocol, DataDroplets, OpTrace
from repro.obs.overload import AdmissionConfig, AdmissionGate
from repro.obs.slo import SloTracker, TenantSLO
from repro.softstate.messages import ClientDelete, ClientGet, ClientPut
from repro.workloads.profiles import (
    HotspotSchedule,
    MultiTenantWorkload,
    RateProfile,
    TenantProfile,
)

#: Tenants inside their fair share, whose SLOs the gate must protect.
PROTECTED_TENANTS = ("gold", "silver")

#: The over-share aggressor the gate is allowed to shed.
AGGRESSOR = "bulk"


@dataclass(frozen=True)
class SloBenchConfig:
    """Knobs of the E19 graceful-degradation bench."""

    nodes: int = 48
    soft: int = 3
    seed: int = 42
    duration: float = 30.0          # measured virtual seconds per cell
    rate: float = 120.0             # total offered base rate (ops/s)
    overload: float = 2.0           # aggressor rate multiplier
    headroom: float = 1.3           # dispatch capacity / base offered rate
    max_delay: float = 0.25         # in-share queue-wait bound (s)
    goodput_floor: float = 0.7      # gate: goodput(2×)/goodput(1×) >=
    gold_slo: float = 0.5           # declared p99 target (s)
    silver_slo: float = 0.8
    error_budget: float = 0.05
    drain: float = 5.0              # post-traffic virtual s to collect replies
    #: the open-loop client refreshes its routing table on this period
    #: (like a real client library), not per operation — so after the
    #: bounce its view lags and the one-hop redirect fallback covers it.
    client_sync_period: float = 0.5
    #: bounce one soft node mid-run (crash at 20%, reboot at 65% of the
    #: duration): the outage must outlast the one-hop failure detector
    #: (ping period + ping timeout, ~3 s) so the death actually lands in
    #: the routing tables; the rejoin then makes the client's
    #: periodically-synced table briefly stale, so the one-hop redirect
    #: fallback fires and the trace carries real *route*-phase spans.
    #: Applied to every cell identically.
    bounce: bool = True
    trace_out: Optional[str] = None  # export the 2×-gated cell's trace here

    @property
    def capacity(self) -> float:
        return self.rate * self.headroom


def build_workload(cfg: SloBenchConfig) -> MultiTenantWorkload:
    """gold/silver (steady, in-share, declared SLOs) + bulk aggressor
    (moving hotspot, flash crowd mid-run)."""
    bulk_rate = cfg.rate * 0.5
    return MultiTenantWorkload(
        [
            TenantProfile(
                "gold", RateProfile.steady(cfg.rate * 0.25), weight=1.0,
                n_keys=40, slo=TenantSLO(cfg.gold_slo, cfg.error_budget),
            ),
            TenantProfile(
                "silver", RateProfile.steady(cfg.rate * 0.25), weight=1.0,
                n_keys=40, slo=TenantSLO(cfg.silver_slo, cfg.error_budget),
            ),
            TenantProfile(
                AGGRESSOR,
                RateProfile.flash_crowd(
                    bulk_rate, at=cfg.duration * 0.4,
                    duration=cfg.duration * 0.3, factor=1.5,
                ),
                weight=2.0,
                n_keys=120,
                hotspot=HotspotSchedule(120, theta=0.99,
                                        drift_period=cfg.duration / 6),
            ),
        ],
        seed=cfg.seed,
    )


@dataclass
class CellResult:
    """Measured outcome of one bench cell."""

    label: str
    mode: str
    scale: float
    offered: int
    goodput: float                       # successful ops/s over the run
    tenants: Dict[str, Dict[str, Any]]   # SloTracker summary per tenant
    shed: Dict[str, float]               # per-tenant shed counts
    admitted: Dict[str, float]
    queue_depth_max: float
    trace_events: int = 0
    report: str = ""                     # SloTracker's rendered per-tenant table

    def p99(self, tenant: str) -> Optional[float]:
        return self.tenants.get(tenant, {}).get("p99")


def run_cell(cfg: SloBenchConfig, mode: str, scale: float,
             label: str, trace_out: Optional[str] = None) -> CellResult:
    """Run one (mode, overload-scale) cell end to end."""
    workload = build_workload(cfg)
    dd = DataDroplets(DataDropletsConfig(
        n_storage=cfg.nodes,
        n_soft=cfg.soft,
        seed=cfg.seed,
        routing_mode="onehop",
        # Short rejoin quarantine so the bounced node re-takes its ranges
        # while tables are still converging — the redirect window the
        # route-phase spans come from.
        onehop_quarantine_window=0.5,
        tracing=trace_out is not None,
        trace_capacity=500_000,
    ))
    dd.start()
    gate = AdmissionGate(
        AdmissionConfig(
            rate=cfg.capacity,
            burst=max(8.0, cfg.capacity / 10),
            max_delay=cfg.max_delay,
            mode=mode,
            weights=workload.weights(),
        ),
        dd.metrics,
    )
    tracker = SloTracker(dd.metrics, workload.slos(), window=cfg.duration)

    # Preload every tenant's key population (blocking, before the clock).
    for tenant, keys in sorted(workload.datasets().items()):
        for key in keys:
            dd.put(key, {"rev": 0}, tenant=tenant)

    sim, tracer = dd.sim, dd.tracer
    client = dd.client_node
    proto: ClientProtocol = client.protocol("client")  # type: ignore[assignment]
    #: request id -> (arrival time, tenant, kind, key, trace ctx)
    pending: Dict[str, Tuple[float, str, str, str, Any]] = {}
    queue_depth_max = 0.0
    seq = iter(range(10 ** 9))

    def on_reply(reply) -> None:
        info = pending.pop(reply.request_id, None)
        if info is None:
            return
        arrived, tenant, kind, key, ctx = info
        if ctx is not None:
            tracer.event("op-complete", client.node_id.value, sim.now,
                         ctx=ctx, ok=reply.ok)
        tracker.observe(OpTrace(
            kind=kind, routing_key=key, attempts=(),
            ok=reply.ok, error=None if reply.ok else "UnavailableError",
            invoked_at=arrived, completed_at=sim.now,
            trace_id=ctx.trace_id if ctx is not None else None,
            tenant=tenant,
        ))

    proto.on_reply = on_reply

    def synthesize(arrived: float, tenant: str, kind: str, key: str,
                   error: str) -> None:
        tracker.observe(OpTrace(
            kind=kind, routing_key=key, attempts=(), ok=False, error=error,
            invoked_at=arrived, completed_at=sim.now, tenant=tenant,
        ))

    def fire(arrival) -> None:
        nonlocal queue_depth_max
        op = arrival.operation
        tenant, kind, key = arrival.tenant, op.kind, op.key or ""
        decision = gate.offer(tenant, sim.now)
        queue_depth_max = max(queue_depth_max, gate.queue_depth())
        arrived = sim.now
        ctx = tracer.start_trace(client.node_id.value, kind, arrived,
                                 key=key, tenant=tenant)
        if not decision.admitted:
            if ctx is not None:
                tracer.event("shed", client.node_id.value, sim.now,
                             ctx=ctx, reason=decision.reason)
            synthesize(arrived, tenant, kind, key, "SheddedError")
            return
        rid = f"e19-{next(seq)}"
        if kind == "put":
            message = ClientPut(rid, key, dict(op.record or {}))
        elif kind == "delete":
            message = ClientDelete(rid, key)
        else:
            message = ClientGet(rid, key)
        pending[rid] = (arrived, tenant, kind, key, ctx)

        def dispatch() -> None:
            coordinator = dd.ring.coordinator_for(key)
            if coordinator is None:
                info = pending.pop(rid, None)
                if info is not None:
                    synthesize(info[0], tenant, kind, key, "UnavailableError")
                return
            with tracer.activate(ctx):
                client.send(coordinator, "soft", message)

        if decision.wait > 0:
            if ctx is not None:
                tracer.event("admission-wait", client.node_id.value,
                             sim.now, ctx=ctx, wait=decision.wait)
            sim.schedule(decision.wait, dispatch)
        else:
            dispatch()

    start = sim.now

    def sync_ring() -> None:
        dd._refresh_ring()
        sim.schedule(cfg.client_sync_period, sync_ring)

    sync_ring()
    if cfg.bounce:
        victim = dd.soft_nodes[-1]
        sim.schedule_at(start + cfg.duration * 0.20,
                        lambda: victim.crash(permanent=False))
        sim.schedule_at(start + cfg.duration * 0.65, victim.boot)
    arrivals = list(workload.arrivals(
        cfg.duration, rate_scale={AGGRESSOR: scale}))
    for arrival in arrivals:
        sim.schedule_at(start + arrival.t, lambda a=arrival: fire(a))
    sim.run_until(start + cfg.duration + cfg.drain)

    # Whatever never replied within the drain is a timeout-class failure.
    for rid, (arrived, tenant, kind, key, _ctx) in list(pending.items()):
        synthesize(arrived, tenant, kind, key, "TimeoutError_")
    pending.clear()

    trace_events = 0
    if trace_out is not None:
        trace_events = dd.export_trace(trace_out)

    total_ok = sum(tracker.totals(t)["ok"] for t in tracker.tenants())
    return CellResult(
        label=label,
        mode=mode,
        scale=scale,
        offered=len(arrivals),
        goodput=total_ok / cfg.duration,
        tenants=tracker.summary(now=sim.now),
        shed={t: gate.counts(t)["shed"] for t in
              (*PROTECTED_TENANTS, AGGRESSOR)},
        admitted={t: gate.counts(t)["admitted"] for t in
                  (*PROTECTED_TENANTS, AGGRESSOR)},
        queue_depth_max=queue_depth_max,
        trace_events=trace_events,
        report=tracker.report(now=sim.now),
    )


def measure_graceful_degradation(cfg: SloBenchConfig) -> Dict[str, Any]:
    """Run all three cells and evaluate the E19 gates.

    Returns ``{"cells": {...}, "metrics": {...}, "gates": {...},
    "passed": bool}`` — the metrics/gates halves are the artifact.
    """
    baseline = run_cell(cfg, "shed", 1.0, "1x-gated")
    overload = run_cell(cfg, "shed", cfg.overload, f"{cfg.overload:g}x-gated",
                        trace_out=cfg.trace_out)
    collapse = run_cell(cfg, "queue", cfg.overload, f"{cfg.overload:g}x-ungated")

    goodput_ratio = (overload.goodput / baseline.goodput
                     if baseline.goodput else 0.0)
    slo_targets = {"gold": cfg.gold_slo, "silver": cfg.silver_slo}
    protected_p99 = {t: overload.p99(t) for t in PROTECTED_TENANTS}
    protected_ok = all(
        p99 is not None and p99 <= slo_targets[t]
        for t, p99 in protected_p99.items()
    )
    # The overload has to be real: offered beyond dispatch capacity.
    offered_rate = overload.offered / cfg.duration
    overload_real = offered_rate > cfg.capacity
    # And the control has to collapse: without the gate, the backlog
    # pushes the protected tenants far beyond their declared targets.
    collapsed = all(
        (collapse.p99(t) or 0.0) > slo_targets[t]
        for t in PROTECTED_TENANTS
    )
    shed_recorded = (overload.shed[AGGRESSOR] > 0
                     and all(overload.admitted[t] > 0 for t in PROTECTED_TENANTS))

    metrics = {
        "capacity_ops_per_s": cfg.capacity,
        "offered_rate_2x": offered_rate,
        "goodput_1x": baseline.goodput,
        "goodput_2x": overload.goodput,
        "goodput_2x_ungated": collapse.goodput,
        "goodput_ratio": goodput_ratio,
        "p99_gold_1x": baseline.p99("gold"),
        "p99_gold_2x": overload.p99("gold"),
        "p99_gold_2x_ungated": collapse.p99("gold"),
        "p99_silver_2x": overload.p99("silver"),
        "p99_silver_2x_ungated": collapse.p99("silver"),
        "p99_bulk_2x": overload.p99(AGGRESSOR),
        "shed_bulk_2x": overload.shed[AGGRESSOR],
        "shed_gold_2x": overload.shed["gold"],
        "admitted_bulk_2x": overload.admitted[AGGRESSOR],
        "queue_depth_max_2x": overload.queue_depth_max,
        "queue_depth_max_ungated": collapse.queue_depth_max,
        "trace_events": overload.trace_events,
    }
    gates = {
        "overload_real": overload_real,
        "goodput_degrades_gracefully": goodput_ratio >= cfg.goodput_floor,
        "protected_p99_within_slo": protected_ok,
        "ungated_control_collapses": collapsed,
        "shed_admit_counters_recorded": shed_recorded,
    }
    return {
        "cells": {c.label: _cell_doc(c) for c in (baseline, overload, collapse)},
        "metrics": metrics,
        "gates": gates,
        "passed": all(gates.values()),
    }


def _cell_doc(cell: CellResult) -> Dict[str, Any]:
    return {
        "mode": cell.mode,
        "scale": cell.scale,
        "offered": cell.offered,
        "goodput": cell.goodput,
        "queue_depth_max": cell.queue_depth_max,
        "shed": cell.shed,
        "admitted": cell.admitted,
        "tenants": cell.tenants,
    }


def run(*, nodes: int = 48, soft: int = 3, seed: int = 7, slo_duration: float = 30.0,
        rate: float = 120.0, overload: float = 2.0,
        trace_out: Optional[str] = None) -> Dict[str, Any]:
    """Graceful degradation under multi-tenant overload.

    Gold/silver steady tenants with declared SLOs plus a bulk aggressor
    (moving hotspot, mid-run flash crowd) at ``rate`` ops/s base for
    ``slo_duration`` virtual seconds per cell, over ``nodes`` storage and
    ``soft`` soft-state nodes: gated at 1x, gated at ``overload`` x the
    aggressor's rate, and an ungated control at the same overload.
    ``trace_out`` exports the overloaded gated cell's causal trace
    (analyze with ``repro trace PATH``). Gates: with per-tenant fair
    shedding the in-SLO tenants keep their declared p99 and goodput
    degrades gracefully, while the unprotected control collapses.
    """
    doc = measure_graceful_degradation(SloBenchConfig(
        nodes=nodes, soft=soft, seed=seed, duration=slo_duration, rate=rate,
        overload=overload, trace_out=trace_out))
    doc["trace_out"] = trace_out
    return doc


def render(doc: Dict[str, Any]) -> str:
    """Human-readable E19 report."""
    lines: List[str] = []
    m = doc["metrics"]
    lines.append(
        f"capacity={m['capacity_ops_per_s']:g} ops/s, "
        f"offered at 2x={m['offered_rate_2x']:.1f} ops/s"
    )
    header = (f"{'cell':<12} {'goodput/s':>10} {'p99 gold':>10} "
              f"{'p99 silver':>11} {'p99 bulk':>10} {'shed bulk':>10} {'qmax':>8}")
    lines.append(header)
    for label, cell in doc["cells"].items():
        tenants = cell["tenants"]

        def p99(t: str) -> str:
            v = tenants.get(t, {}).get("p99")
            return "-" if v is None else f"{v * 1000:.1f}ms"

        lines.append(
            f"{label:<12} {cell['goodput']:>10.1f} {p99('gold'):>10} "
            f"{p99('silver'):>11} {p99('bulk'):>10} "
            f"{cell['shed'].get('bulk', 0):>10g} {cell['queue_depth_max']:>8.1f}"
        )
    lines.append("gates:")
    for name, ok in doc["gates"].items():
        lines.append(f"  {'PASS' if ok else 'FAIL'}  {name}")
    if doc.get("trace_out"):
        lines.append(f"trace: {m['trace_events']} events -> {doc['trace_out']}")
    return "\n".join(lines)
