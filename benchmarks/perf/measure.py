"""Turning one repetition's raw observations into named metrics."""

from __future__ import annotations

import gc
import heapq
import math
import statistics
import time
from typing import Any, Dict, List, Sequence

from spec import LAYERS, is_maintenance, layer_of


def _calibration_loop(n: int) -> float:
    heap: List[tuple] = []
    table: Dict[int, int] = {}
    start = time.perf_counter()
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        if i & 1:
            key = heapq.heappop(heap)[1] & 255
            table[key] = table.get(key, 0) + 1
    return n / (time.perf_counter() - start) / 1e3


def calibrate(n: int = 30_000, rounds: int = 3) -> float:
    """Host speed in kops/s of a fixed pure-Python loop shaped like the
    simulator's inner loop (heap push/pop + dict updates): best of
    ``rounds``, collector off so the live heap's size does not count."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return max(_calibration_loop(n) for _ in range(rounds))
    finally:
        if was_enabled:
            gc.enable()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(q / 100 * len(ordered)) - 1))
    return ordered[rank]


def counter_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {name: value - before.get(name, 0.0) for name, value in after.items()}


def per_protocol(counters: Dict[str, float], prefix: str) -> Dict[str, float]:
    """``<prefix><protocol>`` counters by protocol name, without the
    totals and the per-category (``<protocol>.<category>``) splits."""
    table = {k[len(prefix):]: v for k, v in counters.items()
             if k.startswith(prefix) and "." not in k[len(prefix):]}
    table.pop("total", None)
    table.pop("wire", None)  # net.bytes.wire: datagram bytes on UDP, not a protocol
    return table


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(rep: Dict[str, Any]) -> Dict[str, float]:
    """Every metric a single untraced repetition can give.

    ``rep`` holds: ``setup_s``, ``host_s``, ``clock_s`` (seconds of the
    deployment's own clock in the measured phase), ``events`` (simulator
    only), ``attempted``, ``failed``, ``lat_ms`` (kind -> latencies of OK
    ops), ``counters`` (measured-phase deltas), ``copies`` (per-key
    durable copies), ``lost``, ``scan_expected``/``scan_returned``,
    ``rss_mb``, ``cpu_s``.
    """
    counters: Dict[str, float] = rep["counters"]
    ok = rep["attempted"] - rep["failed"]
    ops = max(1, rep["attempted"])
    all_lat = [v for values in rep["lat_ms"].values() for v in values]
    sent = per_protocol(counters, "net.sent.")
    size = per_protocol(counters, "net.bytes.")
    total_msgs = counters.get("net.sent.total", 0.0)
    total_bytes = counters.get("net.bytes.total", 0.0)
    copies: List[int] = rep["copies"]

    out = {
        "setup_s": rep["setup_s"],
        "ops_per_s": ok / rep["host_s"],
        "op_p50_ms": percentile(all_lat, 50),
        "op_p95_ms": percentile(all_lat, 95),
        "net_msgs_per_op": total_msgs / ops,
        "net_bytes_per_op": total_bytes / ops,
        "maint_byte_share": _ratio(sum(v for p, v in size.items() if is_maintenance(p)), total_bytes),
        "peak_rss_mb": rep["rss_mb"],
    }
    for layer in LAYERS:
        out[f"{layer}.msgs_per_op"] = sum(v for p, v in sent.items() if layer_of(p) == layer) / ops
        out[f"{layer}.bytes_per_op"] = sum(v for p, v in size.items() if layer_of(p) == layer) / ops
    events = rep.get("events", 0)
    receives = counters.get("gossip.delivered", 0.0) + counters.get("gossip.duplicates", 0.0)
    out.update({
        "sim.events_per_op": events / ops,
        "sim.us_per_event": _ratio(rep["host_s"] * 1e6, events),
        "sim.speed": rep["clock_s"] / rep["host_s"] if events else 0.0,
        "epidemic.duplicate_ratio": _ratio(counters.get("gossip.duplicates", 0.0), receives),
        "sieve.accept_ratio": _ratio(counters.get("storage.writes_applied", 0.0),
                                     counters.get("gossip.delivered", 0.0)),
        "store.copies_per_key": statistics.fmean(copies) if copies else 0.0,
        "store.copies_min": float(min(copies)) if copies else 0.0,
        "randomwalk.hops_per_walk": _ratio(counters.get("walks.hops", 0.0),
                                           counters.get("walks.started", 0.0)),
        "randomwalk.timeout_ratio": _ratio(counters.get("walks.timeouts", 0.0),
                                           counters.get("walks.started", 0.0)),
        "redundancy.byte_share": _ratio(out["redundancy.bytes_per_op"] * ops, total_bytes),
        "redundancy.repair_bytes_per_virt_s": counters.get("redundancy.repair_bytes", 0.0) / rep["clock_s"],
        "redundancy.redisseminated_per_virt_s":
            counters.get("redundancy.items_redisseminated", 0.0) / rep["clock_s"],
        "overlay.scan_recall": _ratio(rep["scan_returned"], rep["scan_expected"]),
        "softstate.cache_hit_ratio": _ratio(counters.get("soft.cache_hits", 0.0),
                                            counters.get("soft.reads", 0.0)),
        "softstate.epidemic_read_ratio": _ratio(counters.get("soft.epidemic_reads", 0.0),
                                                counters.get("soft.reads", 0.0)),
        "softstate.write_retry_ratio": _ratio(counters.get("soft.write_retries", 0.0),
                                              counters.get("soft.writes", 0.0)),
        "softstate.stale_route_ratio": counters.get("onehop.stale_routes", 0.0) / ops,
        "core.put_virt_p50_ms": percentile(rep["lat_ms"].get("put", ()), 50),
        "core.get_virt_p50_ms": percentile(rep["lat_ms"].get("get", ()), 50),
        "core.multiget_virt_p50_ms": percentile(rep["lat_ms"].get("multi_get", ()), 50),
        "core.scan_virt_p50_ms": percentile(rep["lat_ms"].get("scan", ()), 50),
        "core.fail_share": rep["failed"] / ops,
        "core.lost_acked_writes": float(rep["lost"]),
        "common.codec.bytes_per_msg": _ratio(total_bytes, total_msgs) if not events else 0.0,
        "runtime.datagrams_per_op": counters.get("net.datagrams.total", 0.0) / ops,
        "runtime.msgs_per_datagram": _ratio(total_msgs, counters.get("net.datagrams.total", 0.0)),
        "runtime.cpu_util": _ratio(rep.get("cpu_s", 0.0), rep["host_s"]) if not events else 0.0,
        "runtime.wall_p99_ms": percentile(all_lat, 99) if not events else 0.0,
    })
    return out


def _self_s(spans: Dict[str, Sequence[int]], prefix: str) -> float:
    return sum(v[1] for k, v in spans.items() if k.startswith(prefix)) / 1e9


def _calls(spans: Dict[str, Sequence[int]], prefix: str) -> int:
    return sum(v[0] for k, v in spans.items() if k.startswith(prefix))


def derive_traced(rep: Dict[str, Any], untraced_s_per_op: float) -> Dict[str, float]:
    """Per-layer time metrics from a traced repetition's span
    accumulators (``rep["spans"]``: name -> (calls, self_ns)).
    ``untraced_s_per_op`` is the untraced rep's host time per client op:
    on UDP both reps last one window and differ in how many ops fit."""
    spans: Dict[str, Sequence[int]] = rep["spans"]
    ops = max(1, rep["attempted"])
    host_s = rep["host_s"]
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    for name, (calls, self_ns) in spans.items():
        kind, _, protocol = name.partition(".")
        if kind in ("handler", "timer"):
            layer = layer_of(protocol)
            if layer is not None:
                layer_self[layer] += self_ns / 1e9
                layer_calls[layer] += calls
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_op"] = layer_self[layer] * 1e3 / ops
        out[f"{layer}.calls_per_op"] = layer_calls[layer] / ops
    claimed = sum(v[1] for k, v in spans.items() if not k.startswith("facade.")) / 1e9
    on_sim = bool(rep.get("events"))
    out.update({
        "sim.net_sends_per_op": _calls(spans, "sim.net") / ops,
        "sim.net_self_ms_per_op": _self_s(spans, "sim.net") * 1e3 / ops,
        "sim.core_self_ms_per_op": max(0.0, host_s - claimed) * 1e3 / ops if on_sim else 0.0,
        "sieve.self_ms_per_op": _self_s(spans, "sieve.") * 1e3 / ops,
        "sieve.calls_per_op": _calls(spans, "sieve.") / ops,
        "store.self_ms_per_op": _self_s(spans, "store.") * 1e3 / ops,
        "store.calls_per_op": _calls(spans, "store.") / ops,
        "common.codec.encode_us_per_msg": _ratio(_self_s(spans, "codec.encode") * 1e6,
                                                 _calls(spans, "codec.encode")),
        "common.codec.decode_us_per_msg": _ratio(_self_s(spans, "codec.decode") * 1e6,
                                                 rep["counters"].get("net.delivered.total", 0.0)),
        "runtime.self_ms_per_op": _self_s(spans, "runtime.") * 1e3 / ops,
        "trace.overhead_ratio": host_s / ops / untraced_s_per_op,
        "trace.unattributed_share": _self_s(spans, "timer.other") / host_s,
    })
    return out


def span_table(spans: Dict[str, Sequence[int]], host_s: float, top: int = 14) -> List[str]:
    """The trace as text: span names ranked by self time."""
    rows = sorted(spans.items(), key=lambda kv: -kv[1][1])
    lines = [f"  {'span':<34}{'calls':>10}{'self s':>10}{'share':>8}"]
    for name, (calls, self_ns) in rows[:top]:
        lines.append(f"  {name:<34}{calls:>10}{self_ns / 1e9:>10.3f}{self_ns / 1e9 / host_s:>8.1%}")
    rest = sum(v[1] for _, v in rows[top:]) / 1e9
    if rest:
        lines.append(f"  {'(other spans)':<34}{'':>10}{rest:>10.3f}{rest / host_s:>8.1%}")
    return lines
