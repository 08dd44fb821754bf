"""Fault schedules and the nemesis driver.

A :class:`NemesisSchedule` is an ordered list of :class:`NemesisEvent`
primitives — *what* goes wrong and *when*, relative to the schedule's
start. Schedules compose (:meth:`~NemesisSchedule.sequence` runs one
after another, :meth:`~NemesisSchedule.overlap` superimposes them), can
be generated from a seed (:meth:`~NemesisSchedule.from_seed`), edited
for shrinking (:meth:`~NemesisSchedule.without`,
:meth:`~NemesisSchedule.with_duration`), and round-trip through plain
dicts for the JSON failure artifacts.

The :class:`Nemesis` driver arms a schedule against a running
:class:`~repro.core.datadroplets.DataDroplets` deployment: events apply
at their virtual times, timed events revert when their duration ends
(overlapping network-knob windows stack, so a knob stays set until the
last window that set it ends), and :meth:`Nemesis.heal` force-reverts
everything still active, restores network baselines and reboots
transient victims — the
"quiesce" step before the convergence and lost-write checkers run.

Event kinds
-----------

========== ============================================================
kind       params (all optional unless noted)
========== ============================================================
crash      ``fraction`` | ``count``, ``permanent``, ``target``
           ("storage"/"soft"). Transient victims reboot when the
           duration expires (or at heal).
catastrophe alias of ``crash`` with a bigger default fraction — one
           correlated wipe-out instant.
partition  ``pieces`` (default 2): storage nodes split into disjoint
           groups that cannot talk to each other; soft/client nodes
           keep full connectivity (the paper churns the persistent
           layer, not the coordinators).
loss       ``rate``: message loss probability while active.
duplicate  ``rate``: probability each message is delivered twice.
reorder    ``rate``, ``extra``: probability of adding ``extra`` delay.
delay      ``extra``: flat added one-way latency.
isolate    ``count`` (default 1): blackhole all traffic to/from the
           chosen storage nodes. This is the pause/resume primitive: a
           paused node keeps running but is cut off, and rejoins with
           stale state on revert.
pause      alias of ``isolate``.
churn      ``rate`` (events/s, required), ``mean_downtime``,
           ``permanent_fraction``: a Poisson churn process over the
           storage layer, stopped when the duration ends.
soft_outage ``fraction``: crash that fraction of soft-state
           coordinators; revert reboots them and rebuilds metadata.
========== ============================================================

Permanent failures destroy durable state, so the driver snapshots the
victims' keys *before* killing them and maintains the E6a extinction
carve-out: a key whose whole replica set (>= 2 holders) dies in one
atomic action is recorded as *extinct* (unavoidable loss); a key that
drains to zero holders gradually is not — losing it means redundancy
maintenance failed, which is exactly what the checkers must flag.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.check.history import History
from repro.core.datadroplets import DataDroplets
from repro.sim.churn import PoissonChurn
from repro.sim.cluster import Cluster
from repro.sim.node import Node, NodeState

#: State-corruption primitives (the self-stabilisation tier): each
#: damages *live durable state* on one node, instantaneously, and must
#: be detected and healed by the audit + anti-entropy machinery — the
#: bounded-time convergence checker asserts exactly that.
CORRUPTION_KINDS = (
    "flip_version",      # roll back / wipe memtable versions on one replica
    "poison_summary",    # make bucket (xor, count) summaries lie about contents
    "desync_sieve",      # corrupt the cached sieve ring position
    "scramble_routing",  # damage onehop routing-table exception records
)

KINDS = (
    "crash", "catastrophe", "partition", "loss", "duplicate", "reorder",
    "delay", "isolate", "pause", "churn", "soft_outage",
) + CORRUPTION_KINDS


@dataclass(frozen=True)
class NemesisEvent:
    """One fault primitive: ``kind`` at relative time ``at`` for
    ``duration`` seconds (0 = instantaneous / permanent)."""

    kind: str
    at: float
    duration: float = 0.0
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown nemesis kind {self.kind!r}")
        if self.at < 0 or self.duration < 0:
            raise ValueError("at and duration must be non-negative")

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "at": self.at}
        if self.duration:
            out["duration"] = self.duration
        if self.params:
            out["params"] = dict(self.params)
        return out

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "NemesisEvent":
        return NemesisEvent(
            kind=data["kind"],
            at=data["at"],
            duration=data.get("duration", 0.0),
            params=dict(data.get("params", {})),
        )


class NemesisSchedule:
    """An immutable, time-sorted sequence of :class:`NemesisEvent`."""

    def __init__(self, events: Sequence[NemesisEvent]):
        self.events: Tuple[NemesisEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.at, e.kind)))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{e.kind}@{e.at:g}" for e in self.events)
        return f"NemesisSchedule([{inner}])"

    @property
    def horizon(self) -> float:
        """Relative time when the last event (incl. duration) ends."""
        return max((e.at + e.duration for e in self.events), default=0.0)

    # -- combinators ---------------------------------------------------
    def shifted(self, dt: float) -> "NemesisSchedule":
        return NemesisSchedule(
            [NemesisEvent(e.kind, e.at + dt, e.duration, dict(e.params))
             for e in self.events])

    @staticmethod
    def sequence(*schedules: "NemesisSchedule", gap: float = 0.0) -> "NemesisSchedule":
        """Concatenate schedules: each starts after the previous ends."""
        events: List[NemesisEvent] = []
        offset = 0.0
        for sched in schedules:
            events.extend(sched.shifted(offset).events)
            offset += sched.horizon + gap
        return NemesisSchedule(events)

    @staticmethod
    def overlap(*schedules: "NemesisSchedule") -> "NemesisSchedule":
        """Superimpose schedules on a shared time origin."""
        events: List[NemesisEvent] = []
        for sched in schedules:
            events.extend(sched.events)
        return NemesisSchedule(events)

    # -- shrinking edits -----------------------------------------------
    def without(self, index: int) -> "NemesisSchedule":
        events = list(self.events)
        del events[index]
        return NemesisSchedule(events)

    def with_duration(self, index: int, duration: float) -> "NemesisSchedule":
        events = list(self.events)
        e = events[index]
        events[index] = NemesisEvent(e.kind, e.at, duration, dict(e.params))
        return NemesisSchedule(events)

    # -- (de)serialisation ---------------------------------------------
    def to_dicts(self) -> List[Dict[str, Any]]:
        return [e.to_dict() for e in self.events]

    @staticmethod
    def from_dicts(data: Sequence[Mapping[str, Any]]) -> "NemesisSchedule":
        return NemesisSchedule([NemesisEvent.from_dict(d) for d in data])

    # -- generation ----------------------------------------------------
    #: kinds drawn by from_seed — recoverable faults only, so a stock
    #: campaign must come back clean after heal.
    STOCK_KINDS = ("crash", "partition", "loss", "duplicate", "reorder",
                   "delay", "isolate", "churn")

    #: corruption kinds drawn by corruption_from_seed — every one of
    #: them self-heals on a stock deployment, so a corruption campaign
    #: must also come back clean. scramble_routing is excluded: it is a
    #: no-op under legacy routing (the stock check config); onehop-mode
    #: campaigns add it explicitly.
    STOCK_CORRUPTION_KINDS = ("flip_version", "poison_summary", "desync_sieve")

    @staticmethod
    def from_seed(
        seed: int,
        duration: float = 60.0,
        events: int = 6,
        kinds: Optional[Sequence[str]] = None,
        allow_permanent: bool = False,
    ) -> "NemesisSchedule":
        """Deterministically fuzz a schedule from a seed.

        Events start in the first 70% of ``duration`` with durations up
        to 30% of it, so everything ends within the horizon. With
        ``allow_permanent`` crash/catastrophe/churn events may kill
        nodes for good — only meaningful for campaigns that *expect*
        data loss."""
        rng = random.Random(seed)
        kinds = tuple(kinds if kinds is not None else NemesisSchedule.STOCK_KINDS)
        out: List[NemesisEvent] = []
        for _ in range(events):
            kind = rng.choice(kinds)
            at = rng.uniform(0.0, duration * 0.7)
            span = rng.uniform(duration * 0.08, duration * 0.3)
            permanent = allow_permanent and rng.random() < 0.3
            params: Dict[str, Any]
            if kind in ("crash", "catastrophe"):
                frac = rng.uniform(0.1, 0.3) if kind == "crash" else rng.uniform(0.25, 0.45)
                params = {"fraction": round(frac, 3), "permanent": permanent}
                if permanent:
                    span = 0.0
            elif kind == "partition":
                params = {"pieces": rng.randint(2, 3)}
            elif kind == "loss":
                params = {"rate": round(rng.uniform(0.05, 0.25), 3)}
            elif kind == "duplicate":
                params = {"rate": round(rng.uniform(0.1, 0.4), 3)}
            elif kind == "reorder":
                params = {"rate": round(rng.uniform(0.1, 0.4), 3),
                          "extra": round(rng.uniform(0.2, 1.0), 3)}
            elif kind == "delay":
                params = {"extra": round(rng.uniform(0.02, 0.12), 3)}
            elif kind in ("isolate", "pause"):
                params = {"count": rng.randint(1, 2)}
            elif kind == "churn":
                params = {"rate": round(rng.uniform(0.2, 0.6), 3),
                          "mean_downtime": round(rng.uniform(4.0, 12.0), 2),
                          "permanent_fraction": 0.3 if permanent else 0.0}
            elif kind == "flip_version":
                params = {"count": rng.randint(1, 3), "wipe": rng.random() < 0.3}
                span = 0.0
            elif kind == "poison_summary":
                params = {"buckets": rng.randint(1, 2)}
                span = 0.0
            elif kind == "desync_sieve":
                params = {}
                span = 0.0
            elif kind == "scramble_routing":
                params = {"flips": rng.randint(1, 3)}
                span = 0.0
            else:  # soft_outage
                params = {"fraction": round(rng.uniform(0.3, 0.7), 3)}
            out.append(NemesisEvent(kind, round(at, 2), round(span, 2), params))
        return NemesisSchedule(out)

    @staticmethod
    def corruption_from_seed(
        seed: int,
        duration: float = 35.0,
        events: int = 4,
        kinds: Optional[Sequence[str]] = None,
    ) -> "NemesisSchedule":
        """Deterministic state-corruption schedule (self-stabilisation
        campaigns). Same fuzzing discipline as :meth:`from_seed`, but
        kinds *cycle* through a shuffled corruption tier instead of
        being drawn independently — a campaign with at least as many
        events as kinds exercises every primitive. Composable with stock
        schedules through :meth:`overlap`/:meth:`sequence`."""
        rng = random.Random(seed)
        pool = list(kinds if kinds is not None
                    else NemesisSchedule.STOCK_CORRUPTION_KINDS)
        rng.shuffle(pool)
        out: List[NemesisEvent] = []
        for i in range(events):
            kind = pool[i % len(pool)]
            at = rng.uniform(0.0, duration * 0.7)
            params: Dict[str, Any]
            if kind == "flip_version":
                params = {"count": rng.randint(1, 3), "wipe": rng.random() < 0.3}
            elif kind == "poison_summary":
                params = {"buckets": rng.randint(1, 2)}
            elif kind == "desync_sieve":
                params = {}
            else:  # scramble_routing
                params = {"flips": rng.randint(1, 3)}
            out.append(NemesisEvent(kind, round(at, 2), 0.0, params))
        return NemesisSchedule(out)


class Nemesis:
    """Applies a :class:`NemesisSchedule` to a live deployment.

    All randomness (victim choice, partition grouping) comes from the
    simulation's ``nemesis`` RNG stream, so a (seed, schedule) pair
    replays bit-identically. Fault windows and extinct keys are pushed
    into ``history`` when one is given, for the checkers."""

    def __init__(self, dd: DataDroplets, schedule: NemesisSchedule,
                 history: Optional[History] = None, rng_stream: str = "nemesis"):
        self.dd = dd
        self.schedule = schedule
        self.history = history
        self._rng = dd.sim.rng(rng_stream)
        self._reverts: Dict[int, Callable[[], None]] = {}
        self._revert_seq = itertools.count()
        self._churns: List[PoissonChurn] = []
        # Network knobs (loss_rate, ...) under a fault window: their
        # value before the first window, and one layer per open window.
        self._knob_base: Dict[str, float] = {}
        self._knob_layers: List[Dict[str, float]] = []
        self.applied: List[NemesisEvent] = []
        self.kills = 0
        self.extinct_keys: Dict[str, Dict[str, Any]] = {}
        self.healed = False
        self._armed_at: Optional[float] = None
        self._windows: List[Tuple[float, float]] = []
        #: Optional ConvergenceMonitor (repro.check.corruption) told
        #: about every injected corruption so it can track detection
        #: and bounded-time healing.
        self.monitor: Optional[Any] = None
        #: Fault-window width noted for instantaneous corruption events:
        #: healing is asynchronous (audit + anti-entropy rounds), so
        #: reads in this settle window may legitimately see pre-heal
        #: state (mirrors the fault-window carve-out for network faults).
        self.corruption_settle = 30.0

    # ------------------------------------------------------------------
    def arm(self, t0: Optional[float] = None) -> None:
        """Schedule every event at ``t0 + event.at`` (default: now)."""
        sim = self.dd.sim
        t0 = sim.now if t0 is None else t0
        self._armed_at = t0
        for ev in self.schedule:
            sim.schedule_at(t0 + ev.at, lambda e=ev: self._apply(e))

    def heal(self) -> None:
        """Force-revert all active faults and reboot transient victims."""
        self.healed = True
        for token in reversed(list(self._reverts)):
            self._run_revert(token)
        for churn in self._churns:
            churn.stop()
        net = self.dd.cluster.network
        net.set_partition(None)
        net.set_drop_filter(None)
        for node in self.dd.storage_nodes:
            if node.state is NodeState.DOWN:
                node.boot()
        self.dd.recover_soft_layer(rebuild=True)

    @property
    def fault_windows(self) -> List[Tuple[float, float]]:
        if self.history is not None:
            return self.history.fault_windows
        return self._windows

    # ------------------------------------------------------------------
    def _apply(self, ev: NemesisEvent) -> None:
        if self.healed:
            return
        handler = getattr(self, f"_do_{'isolate' if ev.kind == 'pause' else ev.kind}")
        revert = handler(ev)
        self.applied.append(ev)
        now = self.dd.sim.now
        settle = self.corruption_settle if ev.kind in CORRUPTION_KINDS else 0.0
        self._note_window(now, now + max(ev.duration, settle))
        if revert is not None:
            token = next(self._revert_seq)
            self._reverts[token] = revert
            if ev.duration > 0:
                self.dd.sim.schedule(ev.duration, lambda: self._run_revert(token))

    def _run_revert(self, token: int) -> None:
        fn = self._reverts.pop(token, None)
        if fn is not None:
            fn()

    def _note_window(self, start: float, end: float) -> None:
        if self.history is not None:
            self.history.fault_windows.append((start, end))
        else:
            self._windows.append((start, end))

    # -- victim selection ----------------------------------------------
    def _pick_victims(self, pool: Sequence[Node], ev: NemesisEvent,
                      default_fraction: float) -> List[Node]:
        params = ev.params
        if "count" in params:
            count = min(int(params["count"]), len(pool))
        else:
            fraction = float(params.get("fraction", default_fraction))
            count = int(round(len(pool) * fraction))
        count = max(1, min(count, len(pool)))
        return self._rng.sample(list(pool), count) if pool else []

    # -- handlers (each returns a revert callable or None) -------------
    def _do_crash(self, ev: NemesisEvent) -> Optional[Callable[[], None]]:
        target = ev.params.get("target", "storage")
        pool = [n for n in (self.dd.soft_nodes if target == "soft"
                            else self.dd.storage_nodes) if n.is_up]
        if not pool:
            return None
        victims = self._pick_victims(pool, ev, default_fraction=0.2)
        if ev.params.get("permanent", False):
            self._note_permanent_kills(victims)
            for node in victims:
                node.crash(permanent=True)
            self.kills += len(victims)
            return None
        for node in victims:
            node.crash(permanent=False)

        def revert() -> None:
            for node in victims:
                if node.state is NodeState.DOWN:
                    node.boot()
            if target == "soft":
                self.dd.recover_soft_layer(rebuild=True)

        return revert

    def _do_catastrophe(self, ev: NemesisEvent) -> Optional[Callable[[], None]]:
        if "fraction" not in ev.params and "count" not in ev.params:
            ev = NemesisEvent(ev.kind, ev.at, ev.duration, dict(ev.params, fraction=0.35))
        return self._do_crash(ev)

    def _do_soft_outage(self, ev: NemesisEvent) -> Optional[Callable[[], None]]:
        merged = dict(ev.params, target="soft")
        merged.setdefault("fraction", 0.5)
        return self._do_crash(NemesisEvent("crash", ev.at, ev.duration, merged))

    def _do_partition(self, ev: NemesisEvent) -> Callable[[], None]:
        pieces = max(2, int(ev.params.get("pieces", 2)))
        values = [n.node_id.value for n in self.dd.storage_nodes
                  if n.state is not NodeState.DEAD]
        self._rng.shuffle(values)
        group: Dict[int, int] = {}
        for i, value in enumerate(values):
            group[value] = i % pieces
        net = self.dd.cluster.network

        def reachable(src, dst) -> bool:
            gs, gd = group.get(src.value), group.get(dst.value)
            # Soft-layer and client nodes are outside every group and
            # keep full connectivity (the split severs the storage ring).
            if gs is None or gd is None:
                return True
            return gs == gd

        net.set_partition(reachable)
        return lambda: net.set_partition(None)

    def _set_knobs(self, **knobs: float) -> Callable[[], None]:
        """Set network knobs for one fault window. Overlapping windows
        stack: when one ends, each knob it set goes back to the newest
        open window's value for it, or to its value before the first.
        (Restoring the value seen at apply time would leave the knob set
        for good whenever the earlier of two windows ends first, outside
        every window the checkers exempt.)"""
        net = self.dd.cluster.network
        for name, value in knobs.items():
            self._knob_base.setdefault(name, getattr(net, name))
            setattr(net, name, value)
        self._knob_layers.append(knobs)

        def revert() -> None:
            self._knob_layers.remove(knobs)
            for name in knobs:
                setattr(net, name, next((layer[name] for layer in reversed(self._knob_layers)
                                         if name in layer), self._knob_base[name]))

        return revert

    def _do_loss(self, ev: NemesisEvent) -> Callable[[], None]:
        return self._set_knobs(loss_rate=float(ev.params.get("rate", 0.1)))

    def _do_duplicate(self, ev: NemesisEvent) -> Callable[[], None]:
        return self._set_knobs(duplicate_rate=float(ev.params.get("rate", 0.2)))

    def _do_reorder(self, ev: NemesisEvent) -> Callable[[], None]:
        return self._set_knobs(reorder_rate=float(ev.params.get("rate", 0.2)),
                               reorder_delay=float(ev.params.get("extra", 0.25)))

    def _do_delay(self, ev: NemesisEvent) -> Callable[[], None]:
        return self._set_knobs(extra_delay=float(ev.params.get("extra", 0.05)))

    def _do_isolate(self, ev: NemesisEvent) -> Optional[Callable[[], None]]:
        pool = [n for n in self.dd.storage_nodes if n.is_up]
        if not pool:
            return None
        victims = self._pick_victims(pool, ev, default_fraction=0.0)
        cut = {n.node_id.value for n in victims}
        net = self.dd.cluster.network

        def drop(src, dst, protocol, message) -> bool:
            return src.value in cut or dst.value in cut

        net.set_drop_filter(drop)
        return lambda: net.set_drop_filter(None)

    def _do_churn(self, ev: NemesisEvent) -> Callable[[], None]:
        params = ev.params
        target = Cluster.view_of(self.dd.sim, self.dd.cluster.network,
                                 self.dd.storage_nodes)

        def on_crash(victim: Node, permanent: bool) -> None:
            if permanent:
                self._note_permanent_kills([victim])
                self.kills += 1

        churn = PoissonChurn(
            self.dd.sim,
            target,
            event_rate=float(params.get("rate", 0.3)),
            mean_downtime=float(params.get("mean_downtime", 8.0)),
            permanent_fraction=float(params.get("permanent_fraction", 0.0)),
            on_crash=on_crash,
        )
        churn.start()
        self._churns.append(churn)
        return churn.stop

    # -- state-corruption handlers (self-stabilisation tier) -----------
    # All instantaneous (no revert): the system itself must detect and
    # heal the damage; the ConvergenceMonitor asserts it does in time.

    def _note_corruption(self, kind: str, node: Node, details: Dict[str, Any]) -> None:
        if self.monitor is not None:
            self.monitor.note_injection(kind, node.node_id.value, details,
                                        self.dd.sim.now)

    def _up_storage(self) -> List[Node]:
        return [n for n in self.dd.storage_nodes if n.is_up]

    def _flippable_keys(self, victim: Node, require_rollback: bool) -> List[str]:
        """Keys on ``victim`` whose corruption is *healable*: the
        victim's own primary sieve admits them (same-range reconciliation
        covers only admitted items) and at least one other live replica
        holds a copy at >= the victim's version (something must exist to
        heal *from* — corrupting the sole newest copy would manufacture
        unavoidable data loss, which is the permanent-kill nemesis's
        job, not this one's)."""
        storage = victim.protocol("storage")
        others = [n.protocol("storage") for n in self._up_storage() if n is not victim]
        eligible: List[str] = []
        for item in sorted(storage.memtable.all_items(), key=lambda i: i.key):
            if require_rollback and item.version.sequence <= 0:
                continue
            if not storage.primary_sieve.admits(item.key, item.record):
                continue
            for other in others:
                held = other.memtable.get_any(item.key)
                if (held is not None and held.version >= item.version
                        and other.primary_sieve.admits(item.key, item.record)):
                    eligible.append(item.key)
                    break
        return eligible

    def _do_flip_version(self, ev: NemesisEvent) -> None:
        count = max(1, int(ev.params.get("count", 2)))
        wipe = bool(ev.params.get("wipe", False))
        pool = self._up_storage()
        self._rng.shuffle(pool)
        for node in pool:
            eligible = self._flippable_keys(node, require_rollback=not wipe)
            if not eligible:
                continue
            keys = self._rng.sample(eligible, min(count, len(eligible)))
            details = node.protocol("storage").corrupt(
                "flip_version", self._rng, keys=keys, wipe=wipe,
                steps=int(ev.params.get("steps", 1)))
            if details["keys"]:
                self._note_corruption("flip_version", node, details)
            return None
        return None

    def _do_poison_summary(self, ev: NemesisEvent) -> None:
        pool = [n for n in self._up_storage()
                if len(n.protocol("storage").memtable) > 0]
        if not pool:
            return None
        node = self._rng.choice(pool)
        details = node.protocol("storage").corrupt(
            "poison_summary", self._rng, buckets=int(ev.params.get("buckets", 1)))
        if details["buckets"]:
            self._note_corruption("poison_summary", node, details)
        return None

    def _do_desync_sieve(self, ev: NemesisEvent) -> None:
        pool = self._up_storage()
        if not pool:
            return None
        node = self._rng.choice(pool)
        details = node.protocol("storage").corrupt("desync_sieve", self._rng)
        if details.get("desynced"):
            self._note_corruption("desync_sieve", node, details)
        return None

    def _do_scramble_routing(self, ev: NemesisEvent) -> None:
        pool = []
        for node in self.dd.soft_nodes:
            if not node.is_up:
                continue
            try:
                node.protocol("onehop")
            except KeyError:
                continue  # legacy routing: nothing to scramble
            pool.append(node)
        if not pool:
            return None
        node = self._rng.choice(pool)
        details = node.protocol("onehop").corrupt_table(
            self._rng, flips=int(ev.params.get("flips", 2)))
        if details["scrambled"]:
            self._note_corruption("scramble_routing", node, details)
        return None

    # -- extinction bookkeeping (E6a carve-out) ------------------------
    def _note_permanent_kills(self, victims: Sequence[Node]) -> None:
        """Record keys whose whole replica set dies in *this* action.

        Must run before ``crash(permanent=True)`` — DEAD wipes durable
        state. ``holders_before >= 2`` is the carve-out condition: with
        a single remaining copy no redundancy scheme could have saved
        the key, but losing >= 2 copies at once is genuinely atomic."""
        victims = [v for v in victims if v.state is not NodeState.DEAD]
        if not victims:
            return
        victim_ids = {v.node_id for v in victims}
        others = [n for n in self.dd.storage_nodes
                  if n.state is not NodeState.DEAD and n.node_id not in victim_ids]
        victim_holds: Dict[str, int] = {}
        for v in victims:
            memtable = v.durable.get("memtable")
            if memtable is None:
                continue
            for item in memtable.all_items():
                if not item.tombstone:
                    victim_holds[item.key] = victim_holds.get(item.key, 0) + 1
        for key, in_victims in victim_holds.items():
            in_others = 0
            for node in others:
                memtable = node.durable.get("memtable")
                if memtable is not None and memtable.get(key) is not None:
                    in_others += 1
            if in_others == 0 and in_victims >= 2:
                info = {
                    "at": self.dd.sim.now,
                    "holders_before": in_victims,
                    "killed": sorted(v.node_id.value for v in victims),
                }
                self.extinct_keys[key] = info
                if self.history is not None:
                    self.history.extinct_keys[key] = info
