"""Persistent-state layer node (paper §III).

:class:`StorageNodeProtocol` glues the epidemic substrates together on
one storage node:

* applies gossiped writes through the node's sieve into the durable
  memtable and acks the coordinator;
* answers direct, hinted reads and batch reads;
* answers epidemic read probes and soft-state rebuild probes arriving
  through gossip;
* executes range scans by walking the attribute-ordered overlay; and
* serves aggregate queries from the gossip estimators, with the
  duplicate correction the paper calls for (weights 1/range-population).

:func:`make_storage_stack` builds the full protocol stack for a node
from a :class:`~repro.core.config.DataDropletsConfig`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.hashing import Arc, key_hash
from repro.common.ids import NodeId
from repro.common.messages import Message
from repro.core.config import DataDropletsConfig, IndexSpec
from repro.epidemic.eager import EagerGossip
from repro.estimation.extrema import ExtremaSizeEstimator
from repro.estimation.histogram import DistributionEstimate, bin_of
from repro.estimation.lifetimes import LifetimeEstimator
from repro.estimation.pushsum import PushSumProtocol
from repro.membership.cyclon import CyclonProtocol
from repro.overlay.tman import TManProtocol
from repro.redundancy.adaptive import AdaptiveRepairPolicy
from repro.redundancy.manager import RedundancyManager
from repro.redundancy.repair import RangeRepair
from repro.sieve.adaptive import DistributionAwareSieve
from repro.sieve.base import Sieve, UnionSieve
from repro.sieve.correlation import TagSieve, prefix_tag
from repro.sieve.keyspace import BucketSieve
from repro.sim.node import Host, Protocol
from repro.softstate.coordinator import EpidemicRead, InjectRebuild
from repro.softstate.messages import (
    AggregateReply,
    AggregateRequest,
    BatchReadReply,
    BatchReadRequest,
    ReadProbe,
    ReadReply,
    ReadRequest,
    RebuildProbe,
    ScanPartial,
    ScanRequest,
    StoreAck,
    StoreWrite,
    WritePayload,
)
from repro.store.memtable import Memtable
from repro.store.tuples import VersionedTuple

#: Cyclon partial view and shuffle length (Cyclon's c and l).
VIEW_SIZE = 16
SHUFFLE_SIZE = 8
#: Minima per size-estimator vector.
SIZE_ESTIMATOR_K = 64
#: Gossip fanout is ceil(ln N̂ + FANOUT_C).
FANOUT_C = 2.0
#: Ranked view of each index's T-Man overlay.
TMAN_VIEW = 8
#: Unanswered repair exchanges before a same-range peer is evicted.
MAX_PEER_FAILURES = 2


class StorageNodeProtocol(Protocol):
    """Request-facing logic of one persistent-layer node."""

    name = "storage"

    def __init__(
        self,
        memtable: Memtable,
        primary_sieve: Sieve,
        full_sieve: Sieve,
        index_sieves: Dict[str, DistributionAwareSieve],
        indexes: Sequence[IndexSpec],
        replication: int,
        gossip: str = "gossip",
        audit_enabled: bool = True,
        audit_period: float = 6.0,
    ):
        super().__init__()
        self.memtable = memtable
        self.primary_sieve = primary_sieve
        self.full_sieve = full_sieve
        self.index_sieves = dict(index_sieves)
        self.indexes = {spec.attribute: spec for spec in indexes}
        self.replication = replication
        self.gossip_name = gossip
        self.maintenance_period = 15.0
        self.migration_batch = 200
        self.audit_enabled = audit_enabled
        self.audit_period = audit_period
        self._seen_scans: "OrderedDict[str, None]" = OrderedDict()
        # key -> attribute -> bucket the item was admitted under; drift
        # of equi-depth boundaries is detected against this.
        self._index_buckets: Dict[str, Dict[str, int]] = {}
        self._migration_round = 0
        self._maintenance_timer = None
        self._audit_timer = None

    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self._seen_scans = OrderedDict()
        self._index_buckets = {}
        self.host.protocol(self.gossip_name).subscribe(self._on_gossip)  # type: ignore[attr-defined]
        if self.index_sieves:
            self._maintenance_timer = self.every(self.maintenance_period, self.run_index_maintenance)
        if self.audit_enabled:
            self._audit_timer = self.every(self.audit_period, self.run_state_audit)

    def on_stop(self) -> None:
        if self._maintenance_timer is not None:
            self._maintenance_timer.stop()
        if self._audit_timer is not None:
            self._audit_timer.stop()

    # ------------------------------------------------------------------
    # gossip deliveries
    # ------------------------------------------------------------------
    def _on_gossip(self, item_id: str, payload: Any, hops: int) -> None:
        if isinstance(payload, WritePayload):
            self._apply_write(payload)
        elif isinstance(payload, ReadProbe):
            self._answer_probe(payload)
        elif isinstance(payload, RebuildProbe):
            self._answer_rebuild(payload)
        else:
            self.host.metrics.counter("storage.unknown_gossip_payload").inc()

    def _apply_write(self, payload: WritePayload) -> None:
        item = payload.item
        held = self.memtable.get_any(item.key)
        tracer = self.host.tracer
        # Keep the item if our sieve admits it, or if we already hold the
        # key (updates and tombstones must reach existing replicas even
        # when a placement rule has since shifted).
        if held is None and not self.full_sieve.admits(item.key, item.record):
            if tracer.active:
                tracer.event("sieve-reject", self.host.node_id.value, self.host.now,
                             key=item.key)
            return
        if tracer.active:
            if held is None:
                tracer.event("sieve-admit", self.host.node_id.value, self.host.now,
                             key=item.key)
            tracer.event("apply", self.host.node_id.value, self.host.now,
                         key=item.key, version=item.version.packed())
        self.memtable.put(item)
        self.host.metrics.counter("storage.writes_applied").inc()
        self._note_index_buckets(item)
        stored = self.memtable.get_any(item.key)
        # Ack what this node holds: this write, or a newer version. An
        # equal version with another value is a different write.
        if payload.reply_to is not None and stored is not None and (
                stored.version > item.version or stored == item):
            self.host.send(
                payload.reply_to,
                "soft",
                StoreAck(item.key, item.version, self.host.node_id),
            )

    def _note_index_buckets(self, item: VersionedTuple) -> None:
        if not self.index_sieves or item.tombstone:
            self._index_buckets.pop(item.key, None)
            return
        buckets = {}
        for attribute, sieve in self.index_sieves.items():
            if attribute in item.record:
                buckets[attribute] = sieve.inner.item_bucket(item.key, item.record)
        if buckets:
            self._index_buckets[item.key] = buckets

    def run_index_maintenance(self) -> None:
        """Re-disseminate items whose equi-depth bucket drifted.

        When the distribution estimate shifts, cdf(value) moves and an
        item's index bucket can change; the nodes of the *new* bucket
        never saw the item, so range scans there would miss it. Any
        holder that detects the drift re-broadcasts the item (the new
        owners' sieves admit it on arrival) — the convergent answer to
        the paper's open question of keeping custom-sieve coverage under
        changing distributions (§III-B1)."""
        migrated = 0
        self._migration_round += 1
        gossip = self._gossip()
        for item in self.memtable.items():
            noted = self._index_buckets.get(item.key)
            if noted is None:
                self._note_index_buckets(item)
                continue
            drifted = False
            for attribute, sieve in self.index_sieves.items():
                if attribute not in item.record:
                    continue
                current = sieve.inner.item_bucket(item.key, item.record)
                if noted.get(attribute, current) != current:
                    drifted = True
                    noted[attribute] = current
            if drifted:
                gossip.broadcast(  # type: ignore[attr-defined]
                    f"mig:{self.host.node_id.value}.{self._migration_round}:"
                    f"{item.key}:{item.version.packed()}",
                    WritePayload(item, None),
                )
                migrated += 1
                if migrated >= self.migration_batch:
                    break
        if migrated:
            self.host.metrics.counter("storage.index_migrations").inc(migrated)

    def _answer_probe(self, probe: ReadProbe) -> None:
        item = self.memtable.get_any(probe.key)
        if item is None:
            return
        if probe.min_version is not None and item.version < probe.min_version:
            return
        self.host.send(
            probe.reply_to,
            "soft",
            ReadReply(probe.read_id, probe.key, found=True, item=item, origin=self.host.node_id),
        )
        self.host.metrics.counter("storage.probe_answers").inc()

    def _answer_rebuild(self, probe: RebuildProbe) -> None:
        arcs = [Arc(start, end) for start, end in probe.arcs]
        if not arcs:
            return
        entries = []
        for item in self.memtable.all_items():
            position = key_hash(item.key)
            if any(arc.contains(position) for arc in arcs):
                entries.append((item.key, item.version))
        if entries:
            from repro.softstate.messages import RebuildReply

            self.host.send(
                probe.reply_to,
                "soft",
                RebuildReply(probe.rebuild_id, tuple(entries), origin=self.host.node_id),
            )
            self.host.metrics.counter("storage.rebuild_answers").inc()

    # ------------------------------------------------------------------
    # direct requests
    # ------------------------------------------------------------------
    def on_message(self, sender: NodeId, message: Message) -> None:
        if isinstance(message, StoreWrite):
            self._inject_write(message)
        elif isinstance(message, EpidemicRead):
            self._inject_probe(message.probe)
        elif isinstance(message, InjectRebuild):
            self._inject_rebuild(message.probe)
        elif isinstance(message, ReadRequest):
            self._serve_read(sender, message)
        elif isinstance(message, BatchReadRequest):
            self._serve_batch_read(message)
        elif isinstance(message, ScanRequest):
            self._serve_scan(message)
        elif isinstance(message, AggregateRequest):
            self._serve_aggregate(message)
        else:
            self.host.metrics.counter("storage.unexpected_message").inc()

    def _gossip(self):
        return self.host.protocol(self.gossip_name)

    def _inject_write(self, message: StoreWrite) -> None:
        item = message.item
        # A retry needs its own gossip id: under the first dispatch's it
        # would die as a duplicate wherever that one reached, and a
        # holder whose ack was lost would never ack again.
        retry = f":{message.attempt}" if message.attempt else ""
        self._gossip().broadcast(  # type: ignore[attr-defined]
            f"w:{item.key}:{item.version.packed()}{retry}",
            WritePayload(item, message.reply_to),
        )

    def _inject_probe(self, probe: ReadProbe) -> None:
        self._gossip().broadcast(f"r:{probe.read_id}", probe)  # type: ignore[attr-defined]

    def _inject_rebuild(self, probe: RebuildProbe) -> None:
        self._gossip().broadcast(f"rb:{probe.rebuild_id}", probe)  # type: ignore[attr-defined]

    def _serve_read(self, sender: NodeId, message: ReadRequest) -> None:
        item = self.memtable.get_any(message.key)
        found = item is not None and (
            message.min_version is None or item.version >= message.min_version
        )
        self.host.send(
            message.reply_to,
            "soft",
            ReadReply(message.read_id, message.key, found=found,
                      item=item if found else None, origin=self.host.node_id),
        )

    def _serve_batch_read(self, message: BatchReadRequest) -> None:
        items = []
        missing = []
        for key in message.keys:
            item = self.memtable.get_any(key)
            if item is None:
                missing.append(key)
            else:
                items.append(item)
        self.host.send(
            message.reply_to,
            "soft",
            BatchReadReply(message.read_id, tuple(items), tuple(missing), origin=self.host.node_id),
        )

    # ------------------------------------------------------------------
    # range scans over the ordered overlay
    # ------------------------------------------------------------------
    def _serve_scan(self, message: ScanRequest) -> None:
        if message.collect_only:
            # A same-bucket sibling asked us to contribute our matches to
            # close per-node gossip coverage gaps; never forwarded, so it
            # bypasses the loop guard safely.
            matches = tuple(self.memtable.scan(message.attribute, message.low, message.high))
            self._scan_reply(message, items=matches, done=False)
            return
        # The loop guard applies to ROUTING hops only: routing follows
        # closest-to pointers and could cycle, while the in-range walk
        # moves to strictly greater coordinates and cannot revisit — and
        # a node visited during routing is often legitimately revisited
        # by the walk moments later.
        if message.routing:
            if message.scan_id in self._seen_scans:
                return  # routing loop; the coordinator deadline copes
            self._seen_scans[message.scan_id] = None
            while len(self._seen_scans) > 1024:
                self._seen_scans.popitem(last=False)

        sieve = self.index_sieves.get(message.attribute)
        spec = self.indexes.get(message.attribute)
        if sieve is None or spec is None:
            self._scan_reply(message, items=(), done=True)
            self.host.metrics.counter("storage.scan_unindexed").inc()
            return
        tman: TManProtocol = self.host.protocol(f"tman:{message.attribute}")  # type: ignore[assignment]
        buckets = sieve.inner.bucket_count()
        index = sieve.inner.bucket_index()
        arc_lo, arc_hi = index / buckets, (index + 1) / buckets
        # One bucket of safety margin on both ends: the scanned values'
        # *holders* placed them with their own distribution estimates,
        # which can disagree with this walker's by a fraction of a
        # bucket — without the margin, boundary items sit one bucket
        # past where the walk would stop. Precision is unaffected (local
        # matching is always by actual value).
        margin = 1.0 / buckets
        lo_c = max(0.0, self._cdf(message.attribute, spec, message.low) - margin)
        hi_c = min(1.0, self._cdf(message.attribute, spec, message.high) + margin)

        if message.routing and not (arc_lo <= lo_c < arc_hi):
            # Still routing toward the low end of the range. Distance is
            # *linear* in coordinate space (scan walks are linear; ring
            # distance would ping-pong across the 0/1 wrap on full-range
            # scans) and each hop must make strict progress.
            my_center = (index + 0.5) / buckets
            view = tman.view()
            closest = min(
                view,
                key=lambda d: (abs(d.coordinate - lo_c), d.node_id.value),
                default=None,
            )
            makes_progress = (
                closest is not None
                and abs(closest.coordinate - lo_c) < abs(my_center - lo_c)
            )
            if message.hops_left <= 0 or not makes_progress:
                # We are the closest node we know of: contribute whatever
                # matches locally and end the scan.
                matches = tuple(self.memtable.scan(message.attribute, message.low, message.high))
                self._scan_reply(message, items=matches, done=True)
                self.host.metrics.counter("storage.scan_hops_exhausted").inc()
                return
            self.send(
                closest.node_id,
                ScanRequest(message.scan_id, message.attribute, message.low, message.high,
                            message.reply_to, hops_left=message.hops_left - 1, routing=True),
            )
            self.host.metrics.counter("storage.scan_routed").inc()
            return

        # We are inside the range: report local matches and walk on.
        matches = tuple(self.memtable.scan(message.attribute, message.low, message.high))
        covered_to_end = arc_hi >= hi_c
        successor = tman.successor()
        half_width = 0.5 / buckets
        my_center = (index + 0.5) / buckets
        # Continue while the successor's bucket (centre ± half width)
        # still overlaps the unscanned tail, moving strictly forward
        # (a ring-wrap successor would loop the scan).
        can_continue = (
            not covered_to_end
            and message.hops_left > 0
            and successor is not None
            and successor.coordinate - half_width < hi_c
            and successor.coordinate > my_center
        )
        self._scan_reply(message, items=matches, done=not can_continue)
        siblings = [
            d for d in tman.view()
            if d.coordinate == my_center and d.node_id != self.host.node_id
        ]
        if siblings:
            self.send(
                siblings[0].node_id,
                ScanRequest(message.scan_id, message.attribute, message.low, message.high,
                            message.reply_to, hops_left=0, routing=False, collect_only=True),
            )
        if can_continue and successor is not None:
            self.send(
                successor.node_id,
                ScanRequest(message.scan_id, message.attribute, message.low, message.high,
                            message.reply_to, hops_left=message.hops_left - 1, routing=False),
            )
            self.host.metrics.counter("storage.scan_walked").inc()

    def distribution(self, attribute: str) -> Optional[DistributionEstimate]:
        """The indexed attribute's estimated value distribution: the
        view of its histogram slot (None until any data is seen)."""
        spec = self.indexes[attribute]
        aggregates: PushSumProtocol = self.host.protocol("push-sum:agg")  # type: ignore[assignment]
        return DistributionEstimate.normalised(spec.lo, spec.hi, aggregates.mass(f"bins:{attribute}"))

    def _cdf(self, attribute: str, spec: IndexSpec, value: float) -> float:
        estimate = self.distribution(attribute)
        if estimate is None:
            span = spec.hi - spec.lo
            return min(0.999999, max(0.0, (value - spec.lo) / span))
        return min(0.999999, max(0.0, estimate.cdf(value)))

    def _scan_reply(self, message: ScanRequest, items, done: bool) -> None:
        self.host.send(
            message.reply_to,
            "soft",
            ScanPartial(message.scan_id, tuple(items), done=done, origin=self.host.node_id),
        )

    # ------------------------------------------------------------------
    # aggregates (paper §III-C)
    # ------------------------------------------------------------------
    def _serve_aggregate(self, message: AggregateRequest) -> None:
        try:
            value = self._aggregate_value(message.attribute, message.kind)
        except KeyError:
            self._aggregate_reply(message, ok=False,
                                  error=f"attribute {message.attribute!r} is not indexed")
            return
        if value is None:
            self._aggregate_reply(message, ok=False, error="estimate not converged yet")
            return
        self._aggregate_reply(message, ok=True, value=value)

    def _aggregate_value(self, attribute: str, kind: str) -> Optional[float]:
        size: ExtremaSizeEstimator = self.host.protocol("size-estimator")  # type: ignore[assignment]
        aggregates: PushSumProtocol = self.host.protocol("push-sum:agg")  # type: ignore[assignment]
        if kind != "count" and attribute not in self.indexes:
            raise KeyError(attribute)
        if kind in ("count", "sum"):
            average = aggregates.average("count" if kind == "count" else f"sum:{attribute}")
            return None if average is None else average * size.estimate()
        if kind == "avg":
            # Two cells of one vector: same paths, same weight, so no
            # size estimate and no weight enters the ratio.
            sums = aggregates.mass(f"sum:{attribute}")
            counts = aggregates.mass(f"cnt:{attribute}")
            if sums is None or counts is None or counts[0] <= 0:
                return None
            return sums[0] / counts[0]
        if kind in ("max", "min"):
            return size.maximum(attribute) if kind == "max" else size.minimum(attribute)
        raise KeyError(kind)

    def _aggregate_reply(self, message: AggregateRequest, ok: bool,
                         value: Optional[float] = None, error: Optional[str] = None) -> None:
        self.host.send(
            message.reply_to,
            "soft",
            AggregateReply(message.query_id, ok=ok, value=value, error=error),
        )

    # ------------------------------------------------------------------
    # duplicate-corrected local contributions (claims C7/C9)
    # ------------------------------------------------------------------
    def local_aggregates(self) -> Dict[str, List[float]]:
        """This node's cells for every push-sum slot, from one walk over
        the memtable.

        ``count``, ``sum:<a>`` and ``cnt:<a>`` take the node's
        primary-range items divided by the counted population of that
        range (each of the ~p replicas contributes 1/p); ``bins:<a>`` is
        the naive histogram — one count per replica held (C7; E8 shows
        what that costs under skewed duplication)."""
        manager: RedundancyManager = self.host.protocol("redundancy")  # type: ignore[assignment]
        population = manager.last_population
        denominator = (population + 1.0) if population is not None else float(self.replication)
        denominator = max(1.0, denominator)
        count = 0.0
        sums = dict.fromkeys(self.indexes, 0.0)
        counts = dict.fromkeys(self.indexes, 0.0)
        bins = {attribute: [0.0] * spec.bins for attribute, spec in self.indexes.items()}
        for item in self.memtable.items():
            primary = self.primary_sieve.admits(item.key, item.record)
            if primary:
                count += 1.0
            for attribute, spec in self.indexes.items():
                value = item.record.get(attribute)
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    continue
                cell = bin_of(value, spec.lo, spec.hi, spec.bins)
                if cell is not None:
                    bins[attribute][cell] += 1.0
                if primary:
                    sums[attribute] += float(value)
                    counts[attribute] += 1.0
        slots = {"count": [count / denominator]}
        for attribute in self.indexes:
            slots[f"sum:{attribute}"] = [sums[attribute] / denominator]
            slots[f"cnt:{attribute}"] = [counts[attribute] / denominator]
            slots[f"bins:{attribute}"] = bins[attribute]
        return slots

    def local_extremes(self) -> Dict[str, Tuple[Optional[float], Optional[float]]]:
        """(max, min) of the values held per indexed attribute (None, None
        when the node holds none)."""
        extremes = {}
        for attribute in self.indexes:
            bounds = self.memtable.attribute_range(attribute)
            extremes[attribute] = (None, None) if bounds is None else (bounds[1], bounds[0])
        return extremes

    # ------------------------------------------------------------------
    # self-stabilisation: periodic state audit + corruption seam
    # ------------------------------------------------------------------
    def _primary_bucket_sieve(self) -> Optional[BucketSieve]:
        """The BucketSieve carrying this node's cached ring position
        (directly, or behind a tag/equi-depth wrapper)."""
        sieve = self.primary_sieve
        while sieve is not None and not isinstance(sieve, BucketSieve):
            sieve = getattr(sieve, "inner", None)
        return sieve

    def run_state_audit(self) -> int:
        """Recompute derived state from first principles and repair drift.

        This is the self-stabilisation hook: bucket summaries that were
        corrupted to *agree* with nothing ship over the digest exchange
        (per-key versions still match, so the three-phase protocol sees
        a forever-diverged bucket but transfers zero items), and a desynced
        sieve position silently re-shapes what this node believes it owns.
        Both are pure functions of durable state, so a periodic recompute
        detects and heals them. Returns the number of repairs made."""
        repaired_buckets = self.memtable.audit_bucket_summaries()
        if repaired_buckets:
            self.host.metrics.counter("storage.summary_audit_repairs").inc(len(repaired_buckets))
        sieve_repairs = 0
        if self.full_sieve.audit():
            sieve_repairs += 1
        # full_sieve shares the primary object when a UnionSieve wraps
        # it, but a bare primary config has full_sieve IS primary — the
        # second audit is then an idempotent no-op either way.
        if self.primary_sieve is not self.full_sieve and self.primary_sieve.audit():
            sieve_repairs += 1
        if sieve_repairs:
            self.host.metrics.counter("storage.sieve_audit_repairs").inc(sieve_repairs)
        return len(repaired_buckets) + sieve_repairs

    def corrupt(self, kind: str, rng, **params) -> Dict[str, Any]:
        """Nemesis seam: damage this node's live durable state.

        Exists only for fault injection (the check harness's corruption
        nemesis tier); every primitive here must be detected and healed
        by the audit + anti-entropy machinery, which the bounded-time
        convergence checker asserts. Returns injection details the
        checker needs to define "healed"."""
        if kind == "flip_version":
            flipped: Dict[str, int] = {}
            wipe = bool(params.get("wipe", False))
            for key in params.get("keys", ()):
                old = (self.memtable.corrupt_wipe(key) if wipe
                       else self.memtable.corrupt_version(key, int(params.get("steps", 1))))
                if old is not None:
                    flipped[key] = old
            self.host.metrics.counter("storage.corruptions_injected").inc()
            return {"keys": flipped, "wipe": wipe}
        if kind == "poison_summary":
            non_empty = [b for b in range(self.memtable.bucket_count())
                         if self.memtable.bucket_keys(b)]
            if not non_empty:
                return {"buckets": []}
            count = max(1, min(int(params.get("buckets", 1)), len(non_empty)))
            chosen = sorted(rng.sample(non_empty, count))
            for bucket in chosen:
                poison_key = min(self.memtable.bucket_keys(bucket))
                self.memtable.corrupt_bucket_summary(
                    bucket,
                    xor_mask=rng.getrandbits(64) | 1,  # never the identity mask
                    count_delta=rng.choice((-1, 1, 2)),
                    poison_key=poison_key,
                )
            self.host.metrics.counter("storage.corruptions_injected").inc()
            return {"buckets": chosen}
        if kind == "desync_sieve":
            sieve = self._primary_bucket_sieve()
            if sieve is None:
                return {"desynced": False}
            old_position = sieve.position
            # Force a *different* position so the corruption is real.
            while True:
                position = rng.random()
                if position != old_position:
                    break
            sieve.position = position
            self.host.metrics.counter("storage.corruptions_injected").inc()
            return {"desynced": True, "old_position": old_position,
                    "new_position": position}
        raise ValueError(f"unknown corruption kind {kind!r}")


def make_storage_stack(config: DataDropletsConfig,
                       policy: Callable[..., Any] = AdaptiveRepairPolicy):
    """StackFactory building the full persistent-layer node stack.

    Each node gets its own redundancy policy (``policy(base=,
    lifetimes=, replication=)``: C5's
    :class:`~repro.redundancy.adaptive.AdaptiveRepairPolicy`; E6d passes
    its static arm) over its own
    :class:`~repro.estimation.lifetimes.LifetimeEstimator`, which its
    redundancy manager feeds from the peers it sees (per boot: a reboot
    starts the estimate afresh); the same factory thus builds the same
    node on the simulator and on a UDP host.
    """

    def factory(node: Host) -> List[Protocol]:
        memtable = node.durable.get("memtable")
        if memtable is None:
            memtable = Memtable(
                config.memtable_capacity,
                index_attributes=[spec.attribute for spec in config.indexes],
            )
            node.durable["memtable"] = memtable

        protocols: List[Protocol] = []
        membership = CyclonProtocol(
            view_size=VIEW_SIZE,
            shuffle_size=SHUFFLE_SIZE,
            period=config.membership_period,
        )
        protocols.append(membership)

        size_estimator = ExtremaSizeEstimator(
            k=SIZE_ESTIMATOR_K,
            period=config.size_estimator_period,
            epoch_length=config.estimator_epoch,
            # Every max/min aggregate is a pair of entries on its table;
            # the storage protocol is assembled last (it needs the sieves).
            extremes_fn=(lambda: storage.local_extremes()) if config.indexes else None,
        )
        protocols.append(size_estimator)
        size_fn = size_estimator.estimate

        # --- placement sieves ------------------------------------------------
        if config.collocation is None:
            primary: Sieve = BucketSieve(node.node_id, config.replication, size_fn)
        else:  # "prefix"
            primary = TagSieve(node.node_id, config.replication, size_fn, prefix_tag())

        # The sieves read the distribution through the storage protocol,
        # which is assembled last (it needs the sieves).
        index_sieves: Dict[str, DistributionAwareSieve] = {}
        for spec in config.indexes:
            index_sieves[spec.attribute] = DistributionAwareSieve(
                node_id=node.node_id,
                attribute=spec.attribute,
                replication=config.replication,
                size_estimate_fn=size_fn,
                distribution_fn=lambda attr=spec.attribute: storage.distribution(attr),
                fallback_lo=spec.lo,
                fallback_hi=spec.hi,
            )

        full_sieve: Sieve = (
            UnionSieve(primary, *index_sieves.values()) if index_sieves else primary
        )

        # --- dissemination ---------------------------------------------------
        protocols.append(EagerGossip(fanout=size_estimator.fanout_fn(FANOUT_C)))

        # --- redundancy ------------------------------------------------------
        repair_policy = policy(
            base=config.repair,
            lifetimes=LifetimeEstimator(min_deaths=config.adaptive_min_deaths),
            replication=config.replication,
        )
        manager = RedundancyManager(
            memtable=memtable,
            sieve=primary,
            size_estimate_fn=size_fn,
            policy=repair_policy,
            active=config.repair_enabled,
            # Wrap fallback re-dissemination so receiving storage nodes
            # recognise the payload (a bare item would be dropped as
            # storage.unknown_gossip_payload).
            repair_wrap=lambda item: WritePayload(item, None),
        )
        protocols.append(manager)
        protocols.append(
            RangeRepair(
                memtable=memtable,
                sieve=primary,
                # With repair disabled the reconciler gets no partners —
                # the range count still runs for aggregate corrections.
                peer_source=manager.same_range_peers if config.repair_enabled else (lambda: []),
                # Reconciles on the check cadence: with the range count
                # free, repair rounds are what a calm population can save.
                period=lambda: config.repair_period * repair_policy.cadence_factor(node.now),
                max_failures=MAX_PEER_FAILURES,
                on_peer_failed=manager.note_peer_failed,
                on_peer_heard=manager.note_peer_heard,
            )
        )

        # --- ordered overlays ------------------------------------------------
        def coordinate_of(s: DistributionAwareSieve) -> float:
            buckets = s.inner.bucket_count()
            return (s.inner.bucket_index() + 0.5) / buckets

        for spec in config.indexes:
            sieve = index_sieves[spec.attribute]
            protocols.append(
                TManProtocol(
                    spec.attribute,
                    lambda s=sieve: coordinate_of(s),
                    view_size=TMAN_VIEW,
                    period=config.tman_period,
                )
            )

        storage = StorageNodeProtocol(
            memtable=memtable,
            primary_sieve=primary,
            full_sieve=full_sieve,
            index_sieves=index_sieves,
            indexes=config.indexes,
            replication=config.replication,
            audit_enabled=config.audit_enabled,
            audit_period=config.audit_period,
        )

        # --- aggregates: every count/sum/avg/histogram is a push-sum slot --
        protocols.append(
            PushSumProtocol(
                "agg",
                values_fn=storage.local_aggregates,
                period=config.pushsum_period,
                epoch_length=config.estimator_epoch,
            )
        )

        protocols.append(storage)
        return protocols

    return factory
