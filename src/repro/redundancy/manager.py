"""Redundancy maintenance (paper §III-A, claims C4/C5).

Each storage node counts the up members of its own sieve range from the
peer ids the peer-sampling service already hands it. A node's primary
range is a pure function of its id and the bucket count
(:func:`~repro.sieve.keyspace.position_bucket` of its
:func:`~repro.sieve.keyspace.node_position`), so every Cyclon shuffle a
node receives says, at no extra message, which of the peers it names
share the receiver's range. The shuffle's sender is up now, and a peer
named by a descriptor of age *a* was up *a* shuffle rounds ago (the age
counts the rounds since the peer itself handed it out). A peer counts
while it was last known up within the *count window*: two check periods,
or longer when the cluster is so large that the shuffle stream needs
more rounds to name every one of the N̂ (size estimate) nodes. A crashed
peer thus drops out one window after its crash. The ids a rebooting node
re-adds from its address cache carry an age older than any window, so
they are never counted, here or at the peers they are shipped to. One
count covers every tuple in the range at once, which is claim C4's
point; the census by random walks that used to take it survives only as
E6c's arithmetic (:func:`repro.redundancy.churnbench.walks_needed`).

At every check tick the node takes its count:

* the peers last counted in its range feed :class:`RangeRepair`
  (direct reconciliation); they stay partners after the count has lost
  sight of them, since they hold the range's copies, until repair
  exchanges with them fail or a re-cut of the grid puts them in another
  range, and
* if the range population stays below the replication target for longer
  than the *grace window* (the paper's churn-relaxation: most nodes
  come back after a reboot, so don't panic-repair), timed from when the
  range fell short (the last sighting of the member whose absence put
  it below target), the node repairs —
  first by *targeted* bucketed reconciliation with known same-range
  peers (bytes proportional to what actually diverged), falling back to
  gossip re-dissemination of the whole range only when no live peer is
  known.

The replication target, check cadence and grace window come from the
node's policy, :class:`~repro.redundancy.adaptive.AdaptiveRepairPolicy`,
which recomputes them every check from a survival estimate this node
fits from its own sightings. A peer's session opens at its first
sighting inside the count window and closes at its last sighting, once
the peer lapses out of the window or repair exchanges with it fail, so a
reboot shorter than the window stays one session: the transient
departure C5 relaxes for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.common.ids import NodeId
from repro.common.messages import walked_size
from repro.membership.views import NodeDescriptor
from repro.sieve.base import Sieve
from repro.sieve.keyspace import node_position, position_bucket
from repro.sim.node import Protocol
from repro.store.memtable import Memtable

if TYPE_CHECKING:
    from repro.redundancy.adaptive import AdaptiveRepairPolicy


#: Cap on remembered same-range peers (repair partners).
MAX_KNOWN_PEERS = 8
#: Max items re-broadcast per fallback repair.
REDISSEMINATE_BATCH = 200
#: Same-range peers targeted per repair action.
REPAIR_FANOUT = 3


@dataclass(frozen=True)
class RepairPolicy:
    """Tunables of redundancy maintenance. The replication target is
    not one of them: the policy starts from the deployment's r, the
    same that sizes the sieve (``AdaptiveRepairPolicy(replication=)``).

    Attributes:
        check_period: seconds between checks of the range population; a
            peer counts for at least two periods after it was last known
            up.
        grace_window: seconds a deficiency must persist before active
            repair (0 = eager repair; the E6 ablation knob).
    """

    check_period: float = 10.0
    grace_window: float = 30.0

    def __post_init__(self) -> None:
        if self.check_period <= 0:
            raise ValueError("check_period must be positive")
        if self.grace_window < 0:
            raise ValueError("grace_window must be non-negative")


def _bucket_grid(range_key: Any) -> Optional[Tuple[int, int]]:
    """``(buckets, index)`` of a bucket-style range key (a plain or a
    tagged :class:`~repro.sieve.keyspace.BucketSieve`), else None."""
    if isinstance(range_key, tuple) and len(range_key) >= 3 and range_key[-3] == "bucket":
        return range_key[-2], range_key[-1]
    return None



class RedundancyManager(Protocol):
    """Counts this node's range from the shuffles it receives and
    triggers repair actions.

    Collaborators are sibling protocols found by name on the same node:
    the peer-sampling service (which hands it every shuffle), the gossip
    dissemination channel and the range-repair anti-entropy instance
    (targeted repair).

    Args:
        size_estimate_fn: the node's cluster-size estimate N̂, which sets
            how many shuffle rounds the count window spans.
        policy: the replica target, check period and grace window
            (an :class:`~repro.redundancy.adaptive.AdaptiveRepairPolicy`,
            or a comparison arm with the same calls), whose
            ``lifetimes`` estimator the manager feeds from its sightings.
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
        size_estimate_fn: Callable[[], float],
        policy: "AdaptiveRepairPolicy",
        *,
        gossip: str = "gossip",
        active: bool = True,
        repair_wrap: Optional[Callable[[Any], Any]] = None,
        repair_peer: str = "range-repair",
    ):
        super().__init__()
        self.active = active
        self.memtable = memtable
        self.sieve = sieve
        self.size_estimate_fn = size_estimate_fn
        self.policy = policy
        self.lifetimes = policy.lifetimes
        self.repair_wrap = repair_wrap
        self.gossip_name = gossip
        self.repair_peer_name = repair_peer
        self.known_peers: List[NodeId] = []
        self.last_population: Optional[float] = None
        self._deficient_since: Optional[float] = None
        self._timer = None
        #: peer value -> latest virtual time it is known to have been up.
        self._seen: Dict[int, float] = {}
        #: repair partner value -> when it was last counted as a range mate.
        self._partners: Dict[int, float] = {}
        #: the sampler's round (s) and the ids a node receives per round
        #: (its reply and, on average, one request); read at start.
        self._shuffle_period = 1.0
        self._ids_per_round = 16.0
        #: the count window at the last check (sightings older than it
        #: open no session); its floor until the first check.
        self._window = 2.0 * policy.base.check_period
        self.repairs_triggered = 0

    # ------------------------------------------------------------------
    def on_start(self) -> None:
        sampler = self.host.protocol("membership")
        self._shuffle_period = sampler.period  # type: ignore[attr-defined]
        self._ids_per_round = 2.0 * sampler.shuffle_size  # type: ignore[attr-defined]
        sampler.set_observer(self.observe)  # type: ignore[attr-defined]
        # The policy may change the period between checks, so each
        # delay is read again at scheduling time.
        self._timer = self.every(self.current_check_period, self.check)

    def on_stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()

    def current_check_period(self) -> float:
        return self.policy.check_period(self.host.now)

    def count_window(self) -> float:
        """Seconds a peer counts after it was last known up: two check
        periods, or the shuffle rounds the stream needs to name each of
        N̂ nodes with high probability (N̂ ln N̂ ids, coupon collector),
        whichever is longer."""
        n = max(1.0, float(self.size_estimate_fn()))
        rounds = n * math.log(n) / self._ids_per_round
        return max(2.0 * self.current_check_period(), rounds * self._shuffle_period)

    # ------------------------------------------------------------------
    def observe(self, sender: NodeId, entries: Tuple[NodeDescriptor, ...]) -> None:
        """Note whom a received shuffle shows up, and since when: its
        sender now, each peer it names ``age`` rounds ago."""
        now = self.host.now
        seen = self._seen
        seen[sender.value] = now
        sessions = self.lifetimes
        sessions.note_join(sender.value, now)
        opened_after = now - self._window
        me = self.host.node_id.value
        period = self._shuffle_period
        for descriptor in entries:
            value = descriptor.node_id.value
            at = now - descriptor.age * period
            if value != me and at > seen.get(value, -math.inf):
                seen[value] = at
                if at >= opened_after:
                    sessions.note_join(value, at)

    def note_peer_heard(self, peer: NodeId) -> None:
        """A repair partner sent something, so it is up now (wired to
        RangeRepair's ``on_peer_heard``): partners vouch for each other
        between the shuffles that name them."""
        self._seen[peer.value] = self.host.now
        self.lifetimes.note_join(peer.value, self.host.now)

    def same_range_peers(self) -> List[NodeId]:
        """Peers last known to share this node's range (the RangeRepair
        peer source)."""
        return list(self.known_peers)

    def note_peer_failed(self, peer: NodeId) -> None:
        """Evict a peer that stopped answering repair exchanges (wired
        to RangeRepair's ``on_peer_failed``), closing its session at its
        last sighting; it counts again once a shuffle shows it up."""
        last = self._seen.pop(peer.value, None)
        if last is not None:
            self.lifetimes.note_death(peer.value, last)
        if self._partners.pop(peer.value, None) is not None:
            self.known_peers = [p for p in self.known_peers if p.value != peer.value]
            self.host.metrics.counter("redundancy.peers_evicted").inc()

    def check(self) -> None:
        """Count this node's range and act on the count (the periodic
        tick; also callable directly by tests)."""
        range_key = self.sieve.range_key()
        grid = _bucket_grid(range_key)
        if grid is None:
            self.host.metrics.counter("redundancy.no_range").inc()
            return
        buckets, index = grid
        now = self.host.now
        # Range mates, freshest first, with those that lapsed since the
        # last check: they date when the range fell short.
        mates = sorted(((at, value) for value, at in self._seen.items()
                        if position_bucket(node_position(NodeId(value)), buckets) == index),
                       reverse=True)
        self._window = self.count_window()
        horizon = now - self._window
        for value, at in self._seen.items():
            if at < horizon:  # lapsed: its session ended when last seen
                self.lifetimes.note_death(value, at)
        self._seen = {value: at for value, at in self._seen.items() if at >= horizon}
        peers = [value for at, value in mates if at >= horizon]
        # Partners outlive the window but not a re-cut of the grid.
        partners = {value: at for value, at in self._partners.items()
                    if position_bucket(node_position(NodeId(value)), buckets) == index}
        partners.update((value, at) for at, value in mates if at >= horizon)
        if len(partners) > MAX_KNOWN_PEERS:
            freshest = sorted(partners.items(), key=lambda entry: (-entry[1], entry[0]))
            partners = dict(freshest[:MAX_KNOWN_PEERS])
        self._partners = partners
        self.known_peers = [NodeId(value) for value in sorted(partners)]
        population = float(len(peers))
        self.last_population = population
        self.host.metrics.histogram("redundancy.population").observe(population)
        target = self.policy.target_for(now, range_key)
        self.host.metrics.gauge("redundancy.target").set(target)
        if population + 1 < target:  # +1: we cover it ourselves
            if self._deficient_since is None:
                # Short since the (target - 1)-th freshest mate was last seen.
                short = target - 2
                self._deficient_since = mates[short][0] if short < len(mates) else now
            if now - self._deficient_since >= self.policy.grace_window(now):
                if self.active:
                    self._repair()
                self._deficient_since = now  # back off one window
        else:
            self._deficient_since = None

    # ------------------------------------------------------------------
    def _repair(self) -> None:
        """Restore range redundancy: targeted bucketed reconciliation
        with known peers, gossip re-dissemination as last resort."""
        self.host.metrics.counter("redundancy.repairs").inc()
        repair = None
        try:
            repair = self.host.protocol(self.repair_peer_name)
        except KeyError:
            pass
        peers = self.known_peers
        if repair is not None and peers:
            count = min(REPAIR_FANOUT, len(peers))
            for peer in self.host.rng.sample(peers, count):
                repair.repair_with(peer)  # type: ignore[attr-defined]
            self.repairs_triggered += 1
            self.host.metrics.counter("redundancy.targeted_repairs").inc(count)
            return
        self._redisseminate()

    def _redisseminate(self) -> None:
        """Fallback: re-broadcast own-range items so the current
        population re-places them (new/widened sieves admit them on
        arrival). Only reached when no same-range peer is known."""
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
