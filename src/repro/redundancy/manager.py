"""Redundancy maintenance (paper §III-A, claims C4/C5).

Periodically each node runs a *census*: a few short sampling walks
whose every node past the mixing hops reports which sieve range it
covers. From the hit fraction and the epidemic size estimate the node
learns how many nodes currently share its range — one cheap estimate
covering *every tuple in the range at once*, instead of a random walk
per tuple. A walk that dies takes its remaining samples with it, so
each census asks for as many more samples as the previous one lost (at
most twice), and a census with no usable report is inconclusive: it
neither starts nor ends a deficiency.

Outcomes:

* discovered same-range peers feed :class:`RangeRepair` (direct
  reconciliation), and
* if the range population stays below the replication target for longer
  than the *grace window* (the paper's churn-relaxation: most nodes
  come back after a reboot, so don't panic-repair), the node repairs —
  first by *targeted* bucketed reconciliation with known same-range
  peers (bytes proportional to what actually diverged), falling back to
  gossip re-dissemination of the whole range only when no live peer is
  known.

The replication target, census cadence and grace window are either the
static :class:`RepairPolicy` values or, when a *policy provider* (see
:class:`~repro.redundancy.adaptive.AdaptiveRepairPolicy`) is plugged in,
recomputed every census from the measured churn of the population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.common.ids import NodeId
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


@dataclass(frozen=True)
class RepairPolicy:
    """Tunables of redundancy maintenance.

    Attributes:
        target_replication: minimum nodes per range (the paper's r).
        check_period: seconds between censuses.
        walks_per_check: samples per census (binomial resolution); the
            walker draws them from ceil(samples / walk_ttl) walks.
        walk_ttl: mixing hops per walk; None derives ~log2(N)+4 from
            the size estimate.
        grace_window: seconds a deficiency must persist before active
            repair (0 = eager repair; the E6 ablation knob).
        max_known_peers: cap on remembered same-range peers.
        redisseminate_batch: max items re-broadcast per fallback repair.
        repair_fanout: same-range peers targeted per repair action.
        peer_ttl_censuses: censuses a known peer may go unseen before it
            is presumed gone and evicted.
        max_peer_failures: consecutive unanswered repair exchanges before
            a peer is reported failed and evicted.
    """

    target_replication: int = 3
    check_period: float = 10.0
    walks_per_check: int = 32
    walk_ttl: Optional[int] = None
    grace_window: float = 30.0
    max_known_peers: int = 8
    redisseminate_batch: int = 200
    repair_fanout: int = 3
    peer_ttl_censuses: int = 8
    max_peer_failures: int = 2

    def __post_init__(self) -> None:
        if self.target_replication <= 0:
            raise ValueError("target_replication must be positive")
        if self.check_period <= 0 or self.walks_per_check <= 0:
            raise ValueError("check_period and walks_per_check must be positive")
        if self.walk_ttl is not None and self.walk_ttl <= 0:
            raise ValueError("walk_ttl must be positive when set")
        if self.grace_window < 0:
            raise ValueError("grace_window must be non-negative")
        if self.max_known_peers <= 0:
            raise ValueError("max_known_peers must be positive")
        if self.redisseminate_batch <= 0:
            raise ValueError("redisseminate_batch must be positive")
        if self.repair_fanout <= 0:
            raise ValueError("repair_fanout must be positive")
        if self.peer_ttl_censuses <= 0:
            raise ValueError("peer_ttl_censuses must be positive")
        if self.max_peer_failures <= 0:
            raise ValueError("max_peer_failures must be positive")


class RedundancyManager(Protocol):
    """Runs the census loop and triggers repair actions.

    Collaborators are sibling protocols found by name on the same node:
    the random-walk engine, the gossip dissemination channel, the
    range-repair anti-entropy instance (targeted repair), and the size
    estimator (through ``size_estimate_fn``).

    Args:
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
        self._stopped = False
        #: peer value -> census index at which the peer was last seen.
        self._peer_seen: Dict[int, int] = {}
        self.censuses = 0
        self.repairs_triggered = 0

    # ------------------------------------------------------------------
    def on_start(self) -> None:
        walker = self._walker()
        walker.set_reporter(self._report)
        self._stopped = False
        self._schedule_census()

    def on_stop(self) -> None:
        self._stopped = True
        if self._timer is not None:
            self._timer.cancel()

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
        return self.policy.target_replication

    def current_grace_window(self) -> float:
        if self.policy_provider is not None:
            return self.policy_provider.grace_window(self.host.now)
        return self.policy.grace_window

    def _schedule_census(self) -> None:
        # Self-rescheduling rather than Protocol.every(): the provider
        # may change the period between censuses, so each delay is
        # recomputed at scheduling time (with the usual desync jitter).
        period = self.current_check_period()
        delay = period + self.host.rng.uniform(-0.1 * period, 0.1 * period)
        self._timer = self.host.set_timer(delay, self._census_tick)

    def _census_tick(self) -> None:
        if self._stopped:
            return
        self._schedule_census()
        self.run_census()

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
        ttl = self.policy.walk_ttl
        if ttl is None:
            ttl = recommended_walk_ttl(n_estimate)
        self.censuses += 1
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
        self._census_yield = min(1.0, max(0.5, len(reports) / requested))
        if self.sieve.range_key() != range_key:
            return  # our range moved (size estimate shifted) — stale census
        reports = [r for r in reports if self._position_echo_ok(r)]
        self.host.metrics.histogram("redundancy.census_samples").observe(len(reports))
        if not reports:
            # No evidence either way: age the peer list, leave the
            # deficiency clock and the last estimate alone.
            self.host.metrics.counter("redundancy.census_inconclusive").inc()
            self._absorb_peers([])
            return
        estimate = estimate_range_population(reports, range_key, n_estimate)
        self.last_population = estimate.population
        self.host.metrics.histogram("redundancy.population").observe(estimate.population)
        self._absorb_peers(collect_peer_ids(reports, range_key, exclude=self.host.node_id.value))
        target = self.current_target(range_key)
        self.host.metrics.gauge("redundancy.target").set(target)
        if estimate.population + 1 < target:  # +1: we cover it ourselves
            if self._deficient_since is None:
                self._deficient_since = self.host.now
            elif self.host.now - self._deficient_since >= self.current_grace_window():
                if self.active:
                    self._repair()
                self._deficient_since = self.host.now  # back off one window
        else:
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
            elif census - last_seen >= self.policy.peer_ttl_censuses:
                # Unseen by this many whole censuses: presumed gone.
                self._peer_seen.pop(peer.value, None)
                evicted += 1
            else:
                peers.append(peer)
        if evicted:
            self.host.metrics.counter("redundancy.peers_evicted").inc(evicted)
        peers.sort(key=lambda p: p.value)
        if len(peers) > self.policy.max_known_peers:
            peers = self.host.rng.sample(peers, self.policy.max_known_peers)
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
            count = min(self.policy.repair_fanout, len(live_peers))
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
            repair_bytes += getattr(payload, "size_bytes", 64)
            batch += 1
            if batch >= self.policy.redisseminate_batch:
                break
        self.repairs_triggered += 1
        self.host.metrics.counter("redundancy.repair_fallbacks").inc()
        self.host.metrics.counter("redundancy.items_redisseminated").inc(batch)
        self.host.metrics.counter("redundancy.repair_bytes").inc(repair_bytes)
