"""Redundancy maintenance (paper §III-A, claims C4/C5).

Periodically each sieve range runs one *census*: a few short sampling
walks whose every node past the mixing hops reports which sieve range
it covers. From the hit fraction and the epidemic size estimate the
range learns how many nodes currently share it — one cheap estimate
covering *every tuple in the range at once*, instead of a random walk
per tuple. A walk that dies takes its remaining samples with it, so
each census asks for as many more samples as the previous one lost (at
most twice), and a census with no usable report is inconclusive: it
neither starts nor ends a deficiency.

The members of a range take turns. A node walks only in its own slot
among the members it knows (itself and its same-range peers, sorted by
id; slot = census period number plus rank, modulo the member count), or
when it knows no peer, while its range is deficient, or when the
freshest census it holds is older than two periods — so a dead member
whose turn it is delays the range by at most one period. A conclusive
census is pushed as a :class:`CensusTally` to every known peer, and
each member whose range matches applies it as if it had run the census
itself.

Outcomes:

* discovered same-range peers feed :class:`RangeRepair` (direct
  reconciliation), and
* if the range population stays below the replication target for longer
  than the *grace window* (the paper's churn-relaxation: most nodes
  come back after a reboot, so don't panic-repair), the node repairs
  (a tally starts the clock; the node's own censuses confirm it) —
  first by *targeted* bucketed reconciliation with known same-range
  peers (bytes proportional to what actually diverged), falling back to
  gossip re-dissemination of the whole range only when no live peer is
  known.

The replication target, census cadence and grace window are either the
deployment's r and the static :class:`RepairPolicy` values or, when a
*policy provider* (see :class:`~repro.redundancy.adaptive.AdaptiveRepairPolicy`)
is plugged in, recomputed every census from the measured churn of the
population; the provider's cadence factor then paces :class:`RangeRepair` too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.common.ids import NodeId
from repro.common.messages import Message, message_type, walked_size
from repro.randomwalk.sampling import (
    collect_peer_ids,
    estimate_range_population,
    recommended_walk_ttl,
)
from repro.randomwalk.walker import RandomWalkProtocol
from repro.sieve.base import Sieve
from repro.sieve.keyspace import node_position
from repro.sim.node import Protocol
from repro.store.memtable import Memtable


#: Cap on remembered same-range peers.
MAX_KNOWN_PEERS = 8
#: Max items re-broadcast per fallback repair.
REDISSEMINATE_BATCH = 200
#: Same-range peers targeted per repair action.
REPAIR_FANOUT = 3
#: Census rounds (run here or heard as tallies) a known peer may go
#: unseen before it is presumed gone and evicted.
PEER_TTL_CENSUSES = 8


@dataclass(frozen=True)
class RepairPolicy:
    """Tunables of redundancy maintenance. The replication target is
    not one of them: it is the deployment's r, the same that sizes the
    sieve (``RedundancyManager(replication=)``).

    Attributes:
        check_period: seconds between census ticks; a range runs about
            one census per period, whichever member's turn it is.
        walks_per_check: samples per census (binomial resolution); the
            walker draws them from ceil(samples / ttl) walks of
            ~log2(N)+4 mixing hops each.
        grace_window: seconds a deficiency must persist before active
            repair (0 = eager repair; the E6 ablation knob).
    """

    check_period: float = 10.0
    walks_per_check: int = 32
    grace_window: float = 30.0

    def __post_init__(self) -> None:
        if self.check_period <= 0 or self.walks_per_check <= 0:
            raise ValueError("check_period and walks_per_check must be positive")
        if self.grace_window < 0:
            raise ValueError("grace_window must be non-negative")


@message_type
@dataclass(frozen=True)
class CensusTally(Message):
    """One conclusive census of ``range_key``, pushed by the member that
    ran it to the members it knows. ``peers`` are the range members the
    census found, the sender included."""

    range_key: Any
    population: float
    peers: Tuple[int, ...]


class RedundancyManager(Protocol):
    """Runs the census loop and triggers repair actions.

    Collaborators are sibling protocols found by name on the same node:
    the random-walk engine, the gossip dissemination channel, the
    range-repair anti-entropy instance (targeted repair), and the size
    estimator (through ``size_estimate_fn``).

    Args:
        replication: the replica target (the paper's r, as given to the
            sieve).
        policy_provider: optional churn-adaptive override supplying
            ``target_for(now, range_key)``, ``check_period(now)`` and
            ``grace_window(now)``; None keeps the static ``policy``.
        liveness: optional oracle ``value -> bool`` (e.g. the lifetime
            estimator's ``is_alive``) used to drop peers known dead.
        repair_wrap: wraps an item before gossip re-dissemination so the
            receiving stack recognises the payload (the storage stack
            passes a ``WritePayload`` constructor; the default broadcasts
            the bare item for simple subscriber stacks).
        repair_peer: sibling protocol name of the targeted-repair
            anti-entropy instance.
    """

    name = "redundancy"

    def __init__(
        self,
        memtable: Memtable,
        sieve: Sieve,
        size_estimate_fn,
        policy: RepairPolicy = RepairPolicy(),
        *,
        replication: int,
        gossip: str = "gossip",
        walker: str = "random-walk",
        active: bool = True,
        policy_provider: Optional[Any] = None,
        liveness: Optional[Callable[[int], bool]] = None,
        repair_wrap: Optional[Callable[[Any], Any]] = None,
        repair_peer: str = "range-repair",
    ):
        super().__init__()
        self.active = active
        self.replication = replication
        self.memtable = memtable
        self.sieve = sieve
        self.size_estimate_fn = size_estimate_fn
        self.policy = policy
        self.policy_provider = policy_provider
        self.liveness = liveness
        self.repair_wrap = repair_wrap
        self.gossip_name = gossip
        self.walker_name = walker
        self.repair_peer_name = repair_peer
        self.known_peers: List[NodeId] = []
        self.last_population: Optional[float] = None
        self._deficient_since: Optional[float] = None
        #: returned / requested samples of the previous census, in [½, 1].
        self._census_yield = 1.0
        self._timer = None
        #: a census launched here has not completed yet (walks still out).
        self._census_pending = False
        #: (range key, time) of the freshest conclusive census applied.
        self._last_tally: Optional[Tuple[Hashable, float]] = None
        #: peer value -> census round at which the peer was last seen.
        self._peer_seen: Dict[int, int] = {}
        #: census rounds observed (own or heard): the peer-ageing clock.
        self.censuses = 0
        self.censuses_run = 0
        self.tallies_heard = 0
        self.repairs_triggered = 0

    # ------------------------------------------------------------------
    def bind(self, host) -> None:
        super().bind(host)
        metrics = host.metrics
        self._c_skipped = metrics.counter("redundancy.census_skipped")
        self._c_tallies, self._c_foreign = metrics.counter_pair(
            "redundancy.tallies_received", "redundancy.tallies_foreign")

    def on_start(self) -> None:
        walker = self._walker()
        walker.set_reporter(self._report)
        # The provider may change the period between censuses, so each
        # delay is read again at scheduling time.
        self._timer = self.every(self.current_check_period, self._census_tick)

    def on_stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()

    def _walker(self) -> RandomWalkProtocol:
        return self.host.protocol(self.walker_name)  # type: ignore[return-value]

    # -- adaptive knobs --------------------------------------------------
    def current_check_period(self) -> float:
        if self.policy_provider is not None:
            return self.policy_provider.check_period(self.host.now)
        return self.policy.check_period

    def current_target(self, range_key) -> int:
        if self.policy_provider is not None:
            return self.policy_provider.target_for(self.host.now, range_key)
        return self.replication

    def current_grace_window(self) -> float:
        if self.policy_provider is not None:
            return self.policy_provider.grace_window(self.host.now)
        return self.policy.grace_window

    def _census_tick(self) -> None:
        if not self._census_pending and self._my_turn():
            self.run_census()
        else:
            self._c_skipped.inc()

    def _my_turn(self) -> bool:
        """Should this node walk at this tick?

        Always when it knows no peer (bootstrap), while its range is
        deficient (every member censuses a thin range each period), or
        when its freshest census is older than two periods
        (the member whose turn it was is gone). Otherwise in its own
        slot among the members it knows, unless a census was heard since
        the slot began; a tick jittered past its slot makes it up in the
        next one."""
        if not self.known_peers or self._deficient_since is not None:
            return True
        now = self.host.now
        period = self.current_check_period()
        last = self._last_tally
        if last is None or last[0] != self.sieve.range_key() or now - last[1] > 2.0 * period:
            return True
        me = self.host.node_id.value
        members = sorted([me] + [p.value for p in self.known_peers])
        slot = int(now // period)
        mine = slot - (slot + members.index(me)) % len(members)
        return slot - mine <= 1 and last[1] < mine * period

    def _report(self, probe: Dict[str, Any]) -> Dict[str, Any]:
        """Endpoint report for incoming walks: who am I, which range do
        I cover, and do I hold the probed key (per-item ablation path)."""
        info: Dict[str, Any] = {
            "node": self.host.node_id.value,
            "range_key": self.sieve.range_key(),
        }
        probed = probe.get("key")
        if probed is not None:
            info["holds"] = probed in self.memtable
        return info

    # ------------------------------------------------------------------
    def same_range_peers(self) -> List[NodeId]:
        """Census-discovered peers sharing this node's range (the
        RangeRepair peer source)."""
        return list(self.known_peers)

    def note_peer_failed(self, peer: NodeId) -> None:
        """Evict a peer that stopped answering repair exchanges (wired
        to RangeRepair's ``on_peer_failed``)."""
        before = len(self.known_peers)
        self.known_peers = [p for p in self.known_peers if p.value != peer.value]
        self._peer_seen.pop(peer.value, None)
        if len(self.known_peers) != before:
            self.host.metrics.counter("redundancy.peers_evicted").inc()

    def run_census(self) -> None:
        """One census round (also callable directly by tests/benchmarks)."""
        range_key = self.sieve.range_key()
        if range_key is None:
            self.host.metrics.counter("redundancy.no_range").inc()
            return
        n_estimate = max(1.0, float(self.size_estimate_fn()))
        ttl = recommended_walk_ttl(n_estimate)
        self.censuses_run += 1
        self._census_pending = True
        requested = math.ceil(self.policy.walks_per_check / self._census_yield)
        self._walker().start_walks(
            requested,
            ttl,
            lambda reports: self._census_done(reports, range_key, n_estimate, requested),
        )

    def _position_echo_ok(self, report: Dict[str, Any]) -> bool:
        """Verify a census report's sieve fingerprint against the
        reporter's identity.

        A bucket-style ``range_key`` is a pure function of the
        reporter's node id (ring position) and its claimed bucket count,
        so the receiver can recompute the expected bucket index — a
        node whose cached sieve position was corrupted *claims a range
        it does not actually cover*, which would otherwise inflate our
        population estimate and poison the peer list. Non-bucket range
        keys (static arcs, per-item ablation) carry no verifiable echo
        and pass through."""
        value = report.get("node")
        range_key = report.get("range_key")
        if value is None or not (
            isinstance(range_key, tuple) and len(range_key) >= 3 and range_key[-3] == "bucket"
        ):
            return True
        buckets, index = range_key[-2], range_key[-1]
        if not (isinstance(buckets, int) and isinstance(index, int) and buckets > 0):
            return True
        expected = min(buckets - 1, int(node_position(NodeId(value)) * buckets))
        if index == expected:
            return True
        self.host.metrics.counter("redundancy.sieve_desync_detected").inc()
        return False

    def _census_done(self, reports: List[Dict[str, Any]], range_key, n_estimate: float,
                     requested: int) -> None:
        self._census_pending = False
        self._census_yield = min(1.0, max(0.5, len(reports) / requested))
        if self.sieve.range_key() != range_key:
            return  # our range moved (size estimate shifted) — stale census
        reports = [r for r in reports if self._position_echo_ok(r)]
        self.host.metrics.histogram("redundancy.census_samples").observe(len(reports))
        self.censuses += 1
        if not reports:
            # No evidence either way: age the peer list, leave the
            # deficiency clock and the last estimate alone.
            self.host.metrics.counter("redundancy.census_inconclusive").inc()
            self._absorb_peers([])
            return
        estimate = estimate_range_population(reports, range_key, n_estimate)
        me = self.host.node_id.value
        found = collect_peer_ids(reports, range_key, exclude=me)
        self._apply_census(range_key, estimate.population, found, own=True)
        tally = CensusTally(range_key, estimate.population, tuple(sorted(found + [me])))
        for peer in self.known_peers:
            self.send(peer, tally)

    def on_message(self, sender: NodeId, message: Message) -> None:
        if not isinstance(message, CensusTally):
            return
        range_key = message.range_key
        if range_key != self.sieve.range_key():
            self._c_foreign.inc()
            return
        if not self._position_echo_ok({"node": sender.value, "range_key": range_key}):
            return
        self._c_tallies.inc()
        self.tallies_heard += 1
        self.censuses += 1
        me = self.host.node_id.value
        self._apply_census(range_key, message.population,
                           [value for value in message.peers if value != me], own=False)

    def _apply_census(self, range_key, population: float, peer_values: List[int],
                      own: bool) -> None:
        """Act on one conclusive census of this node's range, run here
        or heard as a member's tally."""
        self._last_tally = (range_key, self.host.now)
        self.last_population = population
        self.host.metrics.histogram("redundancy.population").observe(population)
        self._absorb_peers(peer_values)
        target = self.current_target(range_key)
        self.host.metrics.gauge("redundancy.target").set(target)
        # A tally raises the alarm at every member it reaches; each
        # member then walks every tick, and its own censuses confirm the
        # deficiency into a repair or call it off. One noisy census thus
        # neither calls off every member's repair nor makes them all act.
        if population + 1 < target:  # +1: we cover it ourselves
            if self._deficient_since is None:
                self._deficient_since = self.host.now
            elif own and self.host.now - self._deficient_since >= self.current_grace_window():
                if self.active:
                    self._repair()
                self._deficient_since = self.host.now  # back off one window
        elif own:
            self._deficient_since = None

    def _is_live(self, value: int) -> bool:
        return self.liveness is None or self.liveness(value)

    def _absorb_peers(self, peer_values: List[int]) -> None:
        census = self.censuses
        for value in peer_values:
            self._peer_seen[value] = census
        merged = {p.value: p for p in self.known_peers}
        for value in peer_values:
            merged.setdefault(value, NodeId(value))
        evicted = 0
        peers = []
        for peer in merged.values():
            last_seen = self._peer_seen.get(peer.value, census)
            if not self._is_live(peer.value):
                self._peer_seen.pop(peer.value, None)
                evicted += 1
            elif census - last_seen >= PEER_TTL_CENSUSES:
                # Unseen by this many whole censuses: presumed gone.
                self._peer_seen.pop(peer.value, None)
                evicted += 1
            else:
                peers.append(peer)
        if evicted:
            self.host.metrics.counter("redundancy.peers_evicted").inc(evicted)
        peers.sort(key=lambda p: p.value)
        if len(peers) > MAX_KNOWN_PEERS:
            peers = self.host.rng.sample(peers, MAX_KNOWN_PEERS)
        self.known_peers = peers

    # ------------------------------------------------------------------
    def _repair(self) -> None:
        """Restore range redundancy: targeted bucketed reconciliation
        with live known peers, gossip re-dissemination as last resort."""
        self.host.metrics.counter("redundancy.repairs").inc()
        repair = None
        try:
            repair = self.host.protocol(self.repair_peer_name)
        except KeyError:
            pass
        live_peers = sorted(
            (p for p in self.known_peers if self._is_live(p.value)),
            key=lambda p: p.value,
        )
        if repair is not None and live_peers:
            count = min(REPAIR_FANOUT, len(live_peers))
            for peer in self.host.rng.sample(live_peers, count):
                repair.repair_with(peer)  # type: ignore[attr-defined]
            self.repairs_triggered += 1
            self.host.metrics.counter("redundancy.targeted_repairs").inc(count)
            return
        self._redisseminate()

    def _redisseminate(self) -> None:
        """Fallback: re-broadcast own-range items so the current
        population re-places them (new/widened sieves admit them on
        arrival). Only reached when no live same-range peer is known."""
        gossip = self.host.protocol(self.gossip_name)
        batch = 0
        repair_bytes = 0
        # The round tag makes successive repair rounds distinct gossip
        # items; otherwise intermediate seen-caches would suppress them.
        round_tag = f"{self.host.node_id.value}.{self.repairs_triggered}"
        for item in self.memtable.all_items():
            if not self.sieve.admits(item.key, item.record):
                continue
            payload = item if self.repair_wrap is None else self.repair_wrap(item)
            gossip.broadcast(  # type: ignore[attr-defined]
                f"repair:{round_tag}:{item.key}:{item.version.packed()}", payload
            )
            repair_bytes += walked_size(payload)
            batch += 1
            if batch >= REDISSEMINATE_BATCH:
                break
        self.repairs_triggered += 1
        self.host.metrics.counter("redundancy.repair_fallbacks").inc()
        self.host.metrics.counter("redundancy.items_redisseminated").inc(batch)
        self.host.metrics.counter("redundancy.repair_bytes").inc(repair_bytes)
