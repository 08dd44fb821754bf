"""Network size estimation by extrema propagation (paper ref [23]).

Every node draws K exponential(1) variates. Gossip exchanges propagate
the *pointwise minimum* of these vectors; once the minima have spread,
each node holds m_1..m_K where sum(m_i) ~ Gamma(K, N), giving the
unbiased estimator::

    N_hat = (K - 1) / sum(m_i)

with relative standard deviation ~ 1/sqrt(K-2). Minima are idempotent,
so the protocol is naturally tolerant to duplicates, reordering and
loss — the properties the paper wants from every substrate.

Dynamism is handled by *epochs*: with ``epoch_length`` set, nodes
restart the computation on a common virtual-time grid, so departed
nodes' variates age out after one epoch (the standard restart approach
for gossip estimation in dynamic networks). While an epoch mixes, a node
reads the previous epoch's estimate; a push carries it, so a node that
booted into the epoch (it saw no previous one) reads what its peers
read, and its sieves cut the same bucket grid as theirs.

One exchange is push-pull: the push carries the whole K-vector, the
reply (:class:`ExtremaReply`) only the minima lower than the ones the
push carried, and no reply goes out when none is. That loses nothing:
minima only fall, so the requester's vector is already at or below what
it sent, and ``min(current, sent)`` is ``current`` for every entry the
reply leaves out.

The sieve layer uses this estimate for the r/N retention probability
(claim C3), and dissemination can size its fanout as ln(N_hat)+c (C1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

from repro.common.ids import NodeId
from repro.common.messages import Message, mask_indices, message_type, pack_mask
from repro.membership.views import PeerSampler
from repro.sim.node import Protocol


@message_type
@dataclass(frozen=True)
class ExtremaExchange(Message):
    """The push: the sender's whole minima vector, and the previous
    epoch's estimate it reads while this one mixes (None if it has none)."""

    epoch: int
    minima: Tuple[float, ...]
    last: Optional[float] = None


@message_type
@dataclass(frozen=True)
class ExtremaReply(Message):
    """The pull: the entries (:func:`~repro.common.messages.pack_mask`
    over the K positions) where the replier's merged minima are lower
    than the push carried, and those minima in order."""

    epoch: int
    lower: bytes
    values: Tuple[float, ...]


class ExtremaSizeEstimator(Protocol):
    """Gossip network-size estimator.

    Args:
        k: number of exponential variates (accuracy ~ 1/sqrt(k-2)).
        period: gossip period in seconds.
        fanout: peers contacted per round.
        epoch_length: if set, restart on this virtual-time grid to track
            a changing population; None = single converging computation.
    """

    name = "size-estimator"

    def __init__(
        self,
        k: int = 128,
        period: float = 1.0,
        fanout: int = 1,
        epoch_length: Optional[float] = None,
        membership: str = "membership",
    ):
        super().__init__()
        if k < 3:
            raise ValueError("k must be >= 3 for a finite-variance estimator")
        self.k = k
        self.period = period
        self.fanout = fanout
        self.epoch_length = epoch_length
        self.membership = membership
        self._epoch = 0
        self._minima: List[float] = []
        self._own: List[float] = []
        self._timer = None
        # Previous epoch's converged estimate; consumers read this while
        # the current epoch is still mixing.
        self._last_estimate: Optional[float] = None
        # estimate() as of the last change to _minima or _last_estimate:
        # the sieves read it on every admission, the minima move only on
        # exchanges that lower one and on epoch turns.
        self._estimate = 1.0
        # Diameter estimation (the second half of ref [23]): the minima
        # vector stops changing once information from the farthest node
        # has arrived, so the last round that changed it estimates the
        # overlay's effective diameter in gossip rounds.
        self._rounds_done = 0
        self._last_change_round = 0

    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self._epoch = self._current_epoch()
        self._regenerate()
        self._timer = self.every(self.period, self._round)

    def on_stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()

    def _current_epoch(self) -> int:
        if self.epoch_length is None:
            return 0
        return int(self.host.now / self.epoch_length)

    def _regenerate(self) -> None:
        self._own = [self.host.rng.expovariate(1.0) for _ in range(self.k)]
        self._minima = list(self._own)
        self._rounds_done = 0
        self._last_change_round = 0
        self._estimate = self._compute_estimate()

    def _sampler(self) -> PeerSampler:
        return self.host.protocol(self.membership)  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _round(self) -> None:
        self._maybe_advance_epoch()
        self._rounds_done += 1
        for peer in self._sampler().sample_peers(self.fanout):
            self.send(peer, ExtremaExchange(self._epoch, tuple(self._minima), self._last_estimate))
        self.host.metrics.counter("extrema.rounds").inc()

    def _maybe_advance_epoch(self) -> None:
        epoch = self._current_epoch()
        if epoch > self._epoch:
            self._last_estimate = self._raw_estimate()
            self._epoch = epoch
            self._regenerate()

    def on_message(self, sender: NodeId, message: Message) -> None:
        if isinstance(message, ExtremaExchange):
            if len(message.minima) != self.k:
                # Merged, it would shorten the vector for good and inflate N.
                self.host.metrics.counter("extrema.shape_mismatch").inc()
                return
            if not self._enter(message.epoch):
                return
            if self._last_estimate is None and message.last is not None:
                # Booted into this epoch: read what the peers that saw
                # the previous one read until the next turn.
                self._last_estimate = message.last
                self._estimate = self._compute_estimate()
            pushed = message.minima
            self._merge(enumerate(pushed))
            lower = [mine < theirs for mine, theirs in zip(self._minima, pushed)]
            if not any(lower):
                # An empty reply would lower none of the requester's minima.
                self.host.metrics.counter("extrema.replies_skipped").inc()
                return
            self.send(sender, ExtremaReply(
                self._epoch, pack_mask(lower),
                tuple(mine for mine, flag in zip(self._minima, lower) if flag)))
        elif isinstance(message, ExtremaReply):
            indices = mask_indices(message.lower, self.k)
            if indices is None or len(indices) != len(message.values):
                self.host.metrics.counter("extrema.shape_mismatch").inc()
                return
            if self._enter(message.epoch):
                self._merge(zip(indices, message.values))
        else:
            self.host.metrics.counter("extrema.unexpected_message").inc()

    def _enter(self, epoch: int) -> bool:
        """Settle the epoch for a message of ``epoch``; False if it is stale."""
        self._maybe_advance_epoch()
        if epoch < self._epoch:
            return False
        if epoch > self._epoch:
            # A peer's clock view is slightly ahead; jump forward with it.
            self._last_estimate = self._raw_estimate()
            self._epoch = epoch
            self._regenerate()
        return True

    def _merge(self, entries: Iterable[Tuple[int, float]]) -> None:
        """Lower the minima to the given (position, value) entries."""
        merged = None
        for index, value in entries:
            if value < self._minima[index]:
                if merged is None:
                    merged = list(self._minima)
                merged[index] = value
        if merged is not None:
            self._last_change_round = self._rounds_done
            self._minima = merged
            self._estimate = self._compute_estimate()

    # ------------------------------------------------------------------
    def _raw_estimate(self) -> Optional[float]:
        total = sum(self._minima)
        if total <= 0 or not self._minima:
            return None
        return (self.k - 1) / total

    def estimate(self) -> float:
        """Best current size estimate (>= 1).

        Early in an epoch the raw estimator reads ~1 (only own variates
        seen); consumers get the previous epoch's converged value until
        the current epoch has mixed further.
        """
        return self._estimate

    def _compute_estimate(self) -> float:
        raw = self._raw_estimate()
        candidates = [v for v in (raw, self._last_estimate) if v is not None]
        if not candidates:
            return 1.0
        # max() because the raw estimator only underestimates while the
        # epoch is still mixing; shrinkage shows up with one epoch of lag
        # when _last_estimate rolls over.
        return max(1.0, max(candidates))

    def diameter_estimate(self) -> int:
        """Effective overlay diameter in gossip rounds (ref [23]'s
        second estimator): the round at which the minima vector last
        changed — information from the farthest node had then arrived.
        Meaningful once the current epoch has quiesced."""
        return max(1, self._last_change_round)

    def fanout_fn(self, c: float = 2.0) -> Callable[[], int]:
        """A FanoutSpec for gossip protocols: ceil(ln(N_hat) + c)."""

        def _fanout() -> int:
            return max(1, math.ceil(math.log(max(2.0, self.estimate())) + c))

        return _fanout

    def retention_probability(self, replication: int) -> float:
        """The paper's uniform sieve probability r / N_hat, capped at 1."""
        if replication <= 0:
            raise ValueError("replication must be positive")
        return min(1.0, replication / max(1.0, self.estimate()))
