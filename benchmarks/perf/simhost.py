"""One repetition of a simulator workload, through the public facade."""

from __future__ import annotations

import itertools
import math
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from measure import counter_delta
from shims import SpanRecorder
from spec import RUN_SECONDS, TRACE_SAMPLE_EVERY, Workload
from workloads import Op, Oracle, Record, build_config, make_ops, multi_get_keys, preload_items

#: Virtual seconds between the last preload ack and the first measured
#: op, and between the last op and the audit: dissemination settles.
SETTLE_S = 2.0
#: Preload puts are re-sent after this many virtual seconds, this many times.
RESEND_S, RESENDS = 1.5, 6
#: Virtual seconds the audit waits for its gets: three read timeouts and more.
AUDIT_S = 15.0


def _counters(dd: Any) -> Dict[str, float]:
    return {name: c.value for name, c in dd.metrics.counters.items()}


def _preload(dd: Any, items: Sequence[Tuple[str, Record]], oracle: Oracle, wave: int = 40) -> None:
    """Write the key set with ``wave`` puts in flight at a time (a
    blocking put per key would spend most of set-up on idle virtual time).
    Puts unanswered after ``RESEND_S`` are sent again: the network may be lossy."""
    from repro.softstate.messages import ClientPut

    if not items:
        return
    first_key, first_record = items[0]
    dd.put(first_key, first_record)  # also syncs the client's routing view
    oracle.ack(first_key, first_record)
    client = dd.client_node.protocol("client")
    pending: Dict[str, Tuple[str, Record]] = {}  # request id -> what it wrote
    unacked: set = set()  # keys of the wave in flight

    def on_reply(reply: Any) -> None:
        entry = pending.pop(reply.request_id, None)
        if entry is None:  # answer to a put that was re-sent and already acked
            return
        key, record = entry
        if not reply.ok:
            raise RuntimeError(f"preload put of {key} failed: {reply.error}")
        unacked.discard(key)
        oracle.ack(key, record)

    client.on_reply = on_reply
    request_ids = itertools.count()
    try:
        for start in range(1, len(items), wave):
            batch = dict(items[start:start + wave])
            unacked = set(batch)
            for _ in range(RESENDS):
                for key in sorted(unacked):
                    request_id = f"preload-{next(request_ids)}"
                    pending[request_id] = (key, batch[key])
                    dd.client_node.send(dd.ring.coordinator_for(key), "soft",
                                        ClientPut(request_id, key, dict(batch[key])))
                deadline = dd.sim.now + RESEND_S
                while unacked and dd.sim.now < deadline and dd.sim.step():
                    pass
                if not unacked:
                    break
            else:
                raise RuntimeError(f"preload stalled with {len(unacked)} puts unacked")
            pending.clear()
    finally:
        client.on_reply = None
        client.replies.clear()


def _apply(dd: Any, op: Op, oracle: Oracle) -> Tuple[bool, int, int]:
    """Run one op against the facade and the oracle.
    Returns ``(ok, scan_rows_expected, scan_rows_returned)``."""
    from repro.common.errors import DataDropletsError

    kind = op[0]
    try:
        if kind == "put":
            dd.put(op[1], op[2])
            oracle.ack(op[1], op[2])
            return True, 0, 0
        if kind == "get":
            return oracle.read_ok(op[1], dd.get(op[1])), 0, 0
        if kind == "multi_get":
            keys = multi_get_keys(dd.ring, op[1])
            got = dd.multi_get(keys)
            return all(oracle.read_ok(k, got.get(k)) for k in keys), 0, 0
        rows = dd.scan("score", op[1], op[2])
        expected = oracle.scan_expected(op[1], op[2])
        return True, len(expected), len(expected & {row["_key"] for row in rows})
    except DataDropletsError:
        if kind == "put":
            oracle.unsure(op[1], op[2])
        return False, 0, 0


def copies_per_key(storage_nodes: Sequence[Any], keys: Sequence[str]) -> List[int]:
    """Durable copies of each key on UP storage nodes (either host)."""
    tables = [n.durable.get("memtable") for n in storage_nodes
              if getattr(n, "is_up", getattr(n, "running", False))]
    tables = [t for t in tables if t is not None]
    return [sum(1 for t in tables if k in t) for k in keys]


def _audit(dd: Any, oracle: Oracle) -> int:
    """Keys whose last acked value cannot be read back.

    One single-key get per key: only that path falls back to an epidemic
    read when the hinted replicas are down (a batched read returns None
    for such a key). All gets are in flight at once, so an audit after
    churn costs a few virtual seconds, not one read timeout after another.
    A get unanswered after ``AUDIT_S`` counts as lost."""
    from repro.softstate.messages import ClientGet

    client = dd.client_node.protocol("client")
    asked = {f"audit-{i}": key for i, key in enumerate(sorted(oracle.acked))}
    answers: Dict[str, Any] = {}
    client.on_reply = lambda reply: answers.setdefault(reply.request_id, reply)
    try:
        for request_id, key in asked.items():
            dd.client_node.send(dd.ring.coordinator_for(key), "soft", ClientGet(request_id, key))
        deadline = dd.sim.now + AUDIT_S
        while len(answers) < len(asked) and dd.sim.now < deadline and dd.sim.step():
            pass
    finally:
        client.on_reply = None
        client.replies.clear()
    return sum(1 for request_id, key in asked.items()
               if (reply := answers.get(request_id)) is None or not reply.ok
               or not oracle.read_ok(key, reply.value))


def run_rep(workload: Workload, seed: int, seconds: float, smoke: bool,
            recorder: Optional[SpanRecorder] = None) -> Dict[str, Any]:
    from repro.core.datadroplets import DataDroplets

    scale = seconds / RUN_SECONDS
    started = time.perf_counter()
    config, dropped = build_config(workload)
    dd = DataDroplets(config)
    dd.start()
    oracle = Oracle()
    items = preload_items(workload, seed, smoke)
    _preload(dd, items, oracle)
    dd.run_for(SETTLE_S)
    setup_s = time.perf_counter() - started

    keys = [k for k, _ in items]
    churn_s = workload.churn_s * scale
    # A paced client: op i is due i * pace_s after the start, or as soon
    # as the op before it completes if that is later. A slow op delays the
    # next few, which then catch up, so every seed covers the same virtual
    # time with the same number of ops and background traffic per op does
    # not depend on the seed's latencies. Under churn the ops still owed
    # when the churn stops run during the heal, which ends at a fixed
    # virtual time.
    count = math.ceil(churn_s / workload.pace_s) if churn_s else max(1, round(workload.ops * scale))
    ops = make_ops(workload, seed, count, keys)
    lat_ms: Dict[str, List[float]] = {}
    attempted = failed = scan_expected = scan_returned = 0
    sim = dd.sim
    before, events0, clock0 = _counters(dd), sim.events_processed, sim.now
    churn = dd.churn(**workload.churn) if churn_s else None
    if recorder is not None:
        recorder.reset()
    host0 = time.perf_counter()
    if churn is not None:
        churn.start()
        sim.schedule(churn_s, churn.stop)
    for index, op in enumerate(ops):
        sampled = recorder is not None and index % TRACE_SAMPLE_EVERY == 0
        if sampled:
            recorder.sample_op(index)
        issued = sim.now
        ok, expected, returned = _apply(dd, op, oracle)
        attempted += 1
        scan_expected += expected
        scan_returned += returned
        if ok:
            lat_ms.setdefault(op[0], []).append((sim.now - issued) * 1e3)
        else:
            failed += 1
        if sampled:
            recorder.sample_op(None)
        if workload.pace_s and (wait := clock0 + (index + 1) * workload.pace_s - sim.now) > 0:
            dd.run_for(wait)
    if churn is not None and (wait := clock0 + churn_s + workload.heal_s * scale - sim.now) > 0:
        dd.run_for(wait)
    host_s = time.perf_counter() - host0
    counters = counter_delta(before, _counters(dd))
    events, clock_s = sim.events_processed - events0, sim.now - clock0
    # Copied now: the audit below runs through the same shims.
    spans = {k: tuple(v) for k, v in recorder.acc.items()} if recorder is not None else None

    dd.run_for(SETTLE_S)
    lost = _audit(dd, oracle)
    return {
        "setup_s": setup_s, "host_s": host_s, "clock_s": clock_s, "events": events,
        "attempted": attempted, "failed": failed, "lat_ms": lat_ms, "counters": counters,
        "copies": copies_per_key(dd.storage_nodes, sorted(oracle.acked)), "lost": lost,
        "scan_expected": scan_expected, "scan_returned": scan_returned,
        "config_dropped_keys": dropped,
        "sizes": {"preload": len(items), "ops": attempted, "virtual_s": round(clock_s, 3),
                  "n_storage": len(dd.storage_nodes)},
        "spans": spans,
    }
