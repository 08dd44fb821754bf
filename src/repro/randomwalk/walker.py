"""Random walks over the gossip overlay (paper refs [24], [25]).

A walk starts at an origin and takes ``ttl`` uniform-random *mixing*
hops through membership views. On a well-mixed expander — which the
Cyclon overlay is — O(log N) hops suffice for the walk's position to be
a near-uniform sample of the population. From there on it is a
*sampling walk*: the node it has reached reports *directly* to the
origin with a small info record (its id, its sieve range key, whether it
holds a probed key...), and while the walk still owes samples it takes
one more hop and the next node reports too. What a report says (the
sieve range is a hash of the node id) is independent of Cyclon
adjacency, so successive positions of a mixed walk are as good as fresh
endpoints, and the burn-in is paid once per walk instead of once per
sample.

Redundancy maintenance builds on this: the fraction of samples whose
sieve covers range R estimates the *population of range R* when scaled
by the size estimate. That is the paper's key efficiency claim (C4): a
few short walks per *range* replace a walk per *tuple*.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.common.ids import NodeId
from repro.common.messages import Message, message_type
from repro.membership.views import PeerSampler
from repro.sim.node import Protocol

#: Builds a sampled node's report. Receives the walk's probe payload.
ReporterFn = Callable[[Dict[str, Any]], Dict[str, Any]]

#: Invoked at the origin with the endpoint's report (None on timeout).
ResultFn = Callable[[Optional[Dict[str, Any]]], None]


@message_type
@dataclass(frozen=True)
class WalkStep(Message):
    """One hop. ``ttl`` mixing hops are still to go; once they are spent
    the walk owes the origin ``samples`` more reports, one per node."""

    walk_id: str
    origin: NodeId
    ttl: int
    probe: Dict[str, Any] = field(default_factory=dict)
    samples: int = 1


@message_type
@dataclass(frozen=True)
class WalkResult(Message):
    walk_id: str
    info: Dict[str, Any] = field(default_factory=dict)


class _Census:
    """Origin-side state of one batch of walks: the reports so far and
    how many samples each walk still owes."""

    __slots__ = ("on_done", "reports", "owed", "timer")

    def __init__(self, on_done: Callable[[list], None], owed: List[int], timer: Any):
        self.on_done = on_done
        self.reports: List[Dict[str, Any]] = []
        self.owed = owed
        self.timer = timer


class RandomWalkProtocol(Protocol):
    """Issues, forwards and completes sampling walks.

    Args:
        reporter: builds this node's report; installed by the storage
            layer (reports the sieve range, store size, ...). Defaults
            to reporting just the node id.
        timeout: seconds an origin waits for a batch of walks before it
            settles for the samples it has (a walk dies, and takes its
            remaining samples with it, when a node crashes mid-walk).
    """

    name = "random-walk"

    def __init__(
        self,
        reporter: Optional[ReporterFn] = None,
        timeout: float = 10.0,
        membership: str = "membership",
    ):
        super().__init__()
        self.reporter = reporter
        self.timeout = timeout
        self.membership = membership
        self._pending: Dict[str, _Census] = {}
        self._census_seq = itertools.count()

    def bind(self, host) -> None:
        super().bind(host)
        metrics = host.metrics
        self._c_started, self._c_hops = metrics.counter_pair("walks.started", "walks.hops")
        self._c_timeouts, self._c_unexpected = metrics.counter_pair(
            "walks.timeouts", "walks.unexpected_message")
        self._c_requested, self._c_returned = metrics.counter_pair(
            "walks.samples_requested", "walks.samples_returned")

    def on_start(self) -> None:
        self._pending = {}

    def set_reporter(self, reporter: ReporterFn) -> None:
        self.reporter = reporter

    def _sampler(self) -> PeerSampler:
        return self.host.protocol(self.membership)  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def start_walk(self, ttl: int, on_result: ResultFn, probe: Optional[Dict[str, Any]] = None) -> str:
        """Launch one walk for one sample; ``on_result`` fires exactly
        once (report or None after the timeout). Returns the walk id."""
        return self.start_walks(
            1, ttl, lambda reports: on_result(reports[0] if reports else None), probe)

    def start_walks(self, count: int, ttl: int, on_done: Callable[[list], None],
                    probe: Optional[Dict[str, Any]] = None) -> str:
        """Collect ``count`` samples after ``ttl`` mixing hops; ``on_done``
        gets the list of reports once all are in or at the timeout.

        A walk never samples for longer than it mixed, so the samples
        are split evenly over ``ceil(count / ttl)`` walks."""
        if ttl < 0:
            raise ValueError("ttl must be non-negative")
        census_id = f"{self.host.node_id.value}:{next(self._census_seq)}"
        if count <= 0:
            on_done([])
            return census_id
        walks = -(-count // max(1, ttl))
        base, extra = divmod(count, walks)
        census = self._pending[census_id] = _Census(
            on_done, [base + (j < extra) for j in range(walks)],
            self.host.set_timer(self.timeout, lambda: self._expire(census_id)))
        self._c_started.inc(walks)
        self._c_requested.inc(count)
        origin = self.host.node_id
        probe = dict(probe or {})
        for j, samples in enumerate(census.owed):
            self._advance(WalkStep(f"{census_id}.{j}", origin, ttl, probe, samples))
        return census_id

    # ------------------------------------------------------------------
    def _advance(self, step: WalkStep) -> None:
        sampling = step.ttl <= 0  # the mixing hops are spent: this node is a sample
        owed = step.samples - sampling
        peers = self._sampler().sample_peers(1) if owed > 0 else ()
        if peers:
            self.send(peers[0], WalkStep(step.walk_id, step.origin, max(0, step.ttl - 1),
                                         step.probe, owed))
            self._c_hops.inc()
        if sampling or not peers:
            self._report(step)  # "not peers": nowhere to go, report from here

    def _report(self, step: WalkStep) -> None:
        info = dict(self.reporter(step.probe)) if self.reporter is not None else {}
        info.setdefault("node", self.host.node_id.value)
        if step.origin == self.host.node_id:
            self._collect(step.walk_id, info)
        else:
            self.send(step.origin, WalkResult(step.walk_id, info))

    def _collect(self, walk_id: str, info: Dict[str, Any]) -> None:
        census_id, _, index = walk_id.rpartition(".")
        census = self._pending.get(census_id)
        if census is None:
            return  # past the deadline
        walk = int(index)
        if census.owed[walk] <= 0:
            return  # a duplicated step forked the walk; it owes no more
        census.owed[walk] -= 1
        census.reports.append(info)
        self._c_returned.inc()
        if not any(census.owed):
            del self._pending[census_id]
            census.timer.cancel()
            census.on_done(census.reports)

    def _expire(self, census_id: str) -> None:
        census = self._pending.pop(census_id, None)
        if census is not None:
            self._c_timeouts.inc(sum(1 for owed in census.owed if owed))
            census.on_done(census.reports)

    # ------------------------------------------------------------------
    def on_message(self, sender: NodeId, message: Message) -> None:
        if isinstance(message, WalkStep):
            self._advance(message)
        elif isinstance(message, WalkResult):
            self._collect(message.walk_id, message.info)
        else:
            self._c_unexpected.inc()
