"""Bounded-time convergence checking for state corruption.

The corruption nemeses (:mod:`repro.check.nemesis`, kinds in
``CORRUPTION_KINDS``) damage *internal* replica state — version
vectors, bucket summaries, sieve ranges, routing-table exceptions —
without touching the network or killing nodes. A self-stabilising
substrate must (a) *detect* the divergence through its own protocols
(anti-entropy digests, the periodic state audit, census position
echoes, SWIM refutation) and (b) *heal* it within a bounded number of
anti-entropy rounds.

:class:`ConvergenceMonitor` rides along with the nemesis driver
(``nemesis.monitor = monitor``): each injection is recorded into
``history.corruptions`` with its virtual timestamp and a snapshot of
the relevant detection counters; a probe timer then re-evaluates a
per-kind *heal predicate* against the live cluster every round until
it holds, stamping ``detected_at`` / ``healed_at`` / ``heal_rounds``.

:func:`check_corruption_healed` turns the annotated records into
:class:`~repro.check.checkers.Violation`\\ s: an injection that was
never detected, never healed, or healed only after the round bound is
a checker failure.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.check.checkers import Violation
from repro.check.history import History
from repro.core.datadroplets import DataDroplets
from repro.sim.node import Node, NodeState
from repro.sieve.keyspace import node_position

#: Detection counters per corruption kind: the injection snapshots their
#: values; any later increase means the protocols *noticed* (digests
#: mismatched, an audit repaired, a census echo failed, a refutation was
#: originated).
DETECTION_COUNTERS: Dict[str, Tuple[str, ...]] = {
    "flip_version": (
        "antientropy.buckets_diverged",
        "redundancy.repairs",
        "redundancy.targeted_repairs",
    ),
    "poison_summary": (
        "storage.summary_audit_repairs",
        "antientropy.buckets_diverged",
    ),
    "desync_sieve": (
        "storage.sieve_audit_repairs",
        "redundancy.sieve_desync_detected",
    ),
    "scramble_routing": (
        "onehop.table_audit_repairs",
        "onehop.refutations",
        "onehop.antientropy_mismatch",
    ),
}


class ConvergenceMonitor:
    """Records corruption injections and probes the cluster until each
    one is detected and healed, or the run ends.

    ``round_length`` should match the anti-entropy cadence
    (``check_period`` / ``repair_period`` in the explorer's case
    config); ``bound_rounds`` is the self-stabilisation contract —
    every corruption must heal within that many rounds. The monitor
    itself never fails a run: it only annotates
    ``history.corruptions``; :func:`check_corruption_healed` does the
    judging so replay sees the same records the live run produced.
    """

    #: hard cap on probe ticks — a runaway guard, far above any real run
    MAX_TICKS = 500

    def __init__(self, dd: DataDroplets, history: History, *,
                 round_length: float = 4.0, bound_rounds: int = 8) -> None:
        self.dd = dd
        self.history = history
        self.round_length = float(round_length)
        self.bound_rounds = int(bound_rounds)
        self._ids = 0
        self._ticks = 0
        self._timer_armed = False
        #: record id -> per-record counter baselines at injection time
        self._baselines: Dict[int, Dict[str, float]] = {}
        self._nodes: Dict[int, Node] = {
            n.node_id.value: n
            for n in list(dd.storage_nodes) + list(dd.soft_nodes)
        }

    # -- injection hook (called by the Nemesis driver) -----------------
    def note_injection(self, kind: str, node_value: int,
                       details: Dict[str, Any], now: float) -> None:
        record: Dict[str, Any] = {
            "id": self._ids,
            "kind": kind,
            "node": node_value,
            "at": now,
            "details": dict(details),
            "detected_at": None,
            "healed_at": None,
            "heal_rounds": None,
        }
        self._ids += 1
        self._baselines[record["id"]] = {
            name: self._counter(name) for name in DETECTION_COUNTERS.get(kind, ())
        }
        self.history.corruptions.append(record)
        # Every kind leaves damage behind at injection (none heals or is
        # detected at that instant), so the first evaluation is a probe.
        self._arm()

    # -- probe loop ----------------------------------------------------
    def _arm(self) -> None:
        if self._timer_armed or self._ticks >= self.MAX_TICKS:
            return
        self._timer_armed = True
        self.dd.sim.schedule(self.round_length, self._probe)

    def _probe(self) -> None:
        self._timer_armed = False
        self._ticks += 1
        now = self.dd.sim.now
        pending = False
        for record in self.history.corruptions:
            self._evaluate(record, now)
            if record["healed_at"] is None or record["detected_at"] is None:
                pending = True
        if pending:
            self._arm()

    def finalize(self) -> None:
        """Last-chance evaluation after the post-heal settle window."""
        now = self.dd.sim.now
        for record in self.history.corruptions:
            self._evaluate(record, now)

    # -- evaluation ----------------------------------------------------
    def _counter(self, name: str) -> float:
        return float(self.dd.cluster.metrics.counter_value(name))

    def _evaluate(self, record: Dict[str, Any], now: float) -> None:
        if record["detected_at"] is None:
            baselines = self._baselines.get(record["id"], {})
            for name, base in baselines.items():
                if self._counter(name) > base:
                    record["detected_at"] = now
                    break
        if record["healed_at"] is None and self._healed(record):
            record["healed_at"] = now
            elapsed = max(0.0, now - record["at"])
            record["heal_rounds"] = int(math.ceil(elapsed / self.round_length))

    def _healed(self, record: Dict[str, Any]) -> bool:
        node = self._nodes.get(record["node"])
        if node is None or node.state is NodeState.DEAD:
            # The corrupted state died with the node; nothing to heal.
            return True
        if not node.is_up:
            return False  # can't converge while down — defer, don't fail
        kind, details = record["kind"], record["details"]
        if kind == "flip_version":
            return self._healed_flip(node, details)
        if kind == "poison_summary":
            return node.protocol("storage").memtable.summaries_consistent()
        if kind == "desync_sieve":
            storage = node.protocol("storage")
            sieve = storage._primary_bucket_sieve()
            return sieve is None or sieve.position == node_position(sieve.node_id)
        if kind == "scramble_routing":
            return self._healed_scramble(node, details)
        return True

    def _healed_flip(self, node: Node, details: Dict[str, Any]) -> bool:
        memtable = node.protocol("storage").memtable
        for key, old_packed in details.get("keys", {}).items():
            held = memtable.get_any(key)
            if held is None or held.version.packed() < int(old_packed):
                return False
        return True

    def _healed_scramble(self, node: Node, details: Dict[str, Any]) -> bool:
        table = node.protocol("onehop").table
        if not table.summaries_consistent():
            return False
        for value in details.get("scrambled", ()):
            member = self._nodes.get(value)
            if member is None:
                continue
            if table.is_alive(value) != member.is_up:
                return False
        return True

    # -- reporting -----------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Per-kind heal-latency histograms for the run's stats block."""
        per_kind: Dict[str, Dict[str, Any]] = {}
        for record in self.history.corruptions:
            bucket = per_kind.setdefault(record["kind"], {
                "injected": 0, "detected": 0, "healed": 0,
                "heal_rounds": {}, "max_rounds": 0,
            })
            bucket["injected"] += 1
            if record["detected_at"] is not None:
                bucket["detected"] += 1
            if record["healed_at"] is not None:
                bucket["healed"] += 1
                rounds = int(record["heal_rounds"] or 0)
                hist = bucket["heal_rounds"]
                hist[str(rounds)] = hist.get(str(rounds), 0) + 1
                bucket["max_rounds"] = max(bucket["max_rounds"], rounds)
        return {
            "injected": sum(b["injected"] for b in per_kind.values()),
            "bound_rounds": self.bound_rounds,
            "by_kind": per_kind,
        }


def check_corruption_healed(history: History,
                            bound_rounds: int = 8) -> List[Violation]:
    """Every injected corruption must be detected and healed within
    ``bound_rounds`` anti-entropy rounds.

    Works from ``history.corruptions`` alone so it runs identically on
    live histories and replayed JSON artifacts.
    """
    violations: List[Violation] = []
    for record in history.corruptions:
        ident = f"{record['kind']}#{record['id']}@{record['node']}"
        key = _record_key(record)
        if record.get("detected_at") is None:
            violations.append(Violation(
                checker="corruption_healed",
                key=key,
                op_ids=(),
                detail=f"corruption {ident} was never detected "
                       "(no anti-entropy mismatch, audit repair, or echo failure)",
                extra={"corruption": dict(record)},
            ))
            continue
        if record.get("healed_at") is None:
            violations.append(Violation(
                checker="corruption_healed",
                key=key,
                op_ids=(),
                detail=f"corruption {ident} detected at "
                       f"{record['detected_at']:.1f} but never healed",
                extra={"corruption": dict(record)},
            ))
            continue
        rounds = int(record.get("heal_rounds") or 0)
        if rounds > bound_rounds:
            violations.append(Violation(
                checker="corruption_healed",
                key=key,
                op_ids=(),
                detail=f"corruption {ident} healed in {rounds} rounds, "
                       f"over the {bound_rounds}-round bound",
                extra={"corruption": dict(record)},
            ))
    return violations


def _record_key(record: Dict[str, Any]) -> Optional[str]:
    """A representative key for the violation, when the corruption
    targeted specific keys."""
    details = record.get("details", {})
    keys = details.get("keys")
    if isinstance(keys, dict) and keys:
        return sorted(keys)[0]
    return None
