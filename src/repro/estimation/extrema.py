"""Network size estimation by extrema propagation (paper ref [23]), and
the global max and min of each indexed attribute on the same table.

Every node draws K exponential(1) variates. Gossip exchanges propagate
the *pointwise minimum* of these vectors; once the minima have spread,
each node holds m_1..m_K where sum(m_i) ~ Gamma(K, N), giving the
unbiased estimator::

    N_hat = (K - 1) / sum(m_i)

with relative standard deviation ~ 1/sqrt(K-2). Minima are idempotent,
so the protocol is naturally tolerant to duplicates, reordering and
loss — the properties the paper wants from every substrate.

The global max and min of a quantity are the same computation: after
the K variates the table holds two entries per indexed attribute, −max
and min, each ``None`` until some node offers a value. One merge rule
covers every entry: it takes a value strictly lower than the one it
holds, and ``None`` is above every value. Each firing first merges the
node's own (−max, min) into its entries; they then ride the push that
goes out every period anyway, so the paper's "simple summaries" (§III-C)
cost no message of their own.

Dynamism is handled by *epochs*: with ``epoch_length`` set, nodes
restart the variates on a common virtual-time grid, so departed nodes'
variates age out after one epoch (the standard restart approach for
gossip estimation in dynamic networks). The attribute entries never
restart: a max or min only lags, it never errs. While an epoch mixes, a
node reads the previous epoch's estimate; a push carries it, so a node
that booted into the epoch (it saw no previous one) reads what its
peers read, and its sieves cut the same bucket grid as theirs.

One exchange is push-pull: the push carries the whole table, the reply
(:class:`ExtremaReply`) only the entries lower than the ones the push
carried, and no reply goes out when none is. That loses nothing:
entries only fall, so the requester's table is already at or below what
it sent, and ``min(current, sent)`` is ``current`` for every entry the
reply leaves out.

The sieve layer uses this estimate for the r/N retention probability
(claim C3), and dissemination can size its fanout as ln(N_hat)+c (C1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.common.ids import NodeId
from repro.common.messages import Message, mask_indices, message_type, pack_mask
from repro.membership.views import PeerSampler
from repro.sim.node import Protocol

#: What an entry that holds ``None`` compares as: any number is lower,
#: and a NaN, lower than nothing, never enters.
_UNKNOWN = math.inf


@message_type
@dataclass(frozen=True)
class ExtremaExchange(Message):
    """The push: the sender's whole table (K minima, then −max and min
    per attribute, None where unknown), and the previous epoch's estimate
    it reads while this one mixes (None if it has none)."""

    epoch: int
    minima: Tuple[Optional[float], ...]
    last: Optional[float] = None


@message_type
@dataclass(frozen=True)
class ExtremaReply(Message):
    """The pull: the entries (:func:`~repro.common.messages.pack_mask`
    over the table's positions) where the replier's merged table is
    lower than the push carried, and those values in order."""

    epoch: int
    lower: bytes
    values: Tuple[float, ...]


class ExtremaSizeEstimator(Protocol):
    """Gossip network-size estimator, carrying each attribute's max/min.

    Args:
        k: number of exponential variates (accuracy ~ 1/sqrt(k-2)).
        period: gossip period in seconds.
        fanout: peers contacted per round.
        epoch_length: if set, restart on this virtual-time grid to track
            a changing population; None = single converging computation.
        extremes_fn: returns this node's local (max, min) per attribute,
            in wire order — either may be None while the node holds
            nothing; sampled every round. None = no attribute entries.
    """

    name = "size-estimator"

    def __init__(
        self,
        k: int = 128,
        period: float = 1.0,
        fanout: int = 1,
        epoch_length: Optional[float] = None,
        membership: str = "membership",
        extremes_fn: Optional[Callable[[], Mapping[str, Tuple[Optional[float], Optional[float]]]]] = None,
    ):
        super().__init__()
        if k < 3:
            raise ValueError("k must be >= 3 for a finite-variance estimator")
        self.k = k
        self.period = period
        self.fanout = fanout
        self.epoch_length = epoch_length
        self.membership = membership
        self.extremes_fn = extremes_fn
        self.slots: Tuple[str, ...] = ()
        self._epoch = 0
        # K variate minima, then −max and min per slot.
        self._minima: List[Optional[float]] = []
        self._timer = None
        # Previous epoch's converged estimate; consumers read this while
        # the current epoch is still mixing.
        self._last_estimate: Optional[float] = None
        # estimate() as of the last change to _minima or _last_estimate:
        # the sieves read it on every admission, the minima move only on
        # exchanges that lower one and on epoch turns.
        self._estimate = 1.0

    # ------------------------------------------------------------------
    def on_start(self) -> None:
        if self.extremes_fn is not None:
            self.slots = tuple(self.extremes_fn())
        self._minima = [None] * (self.k + 2 * len(self.slots))
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
        """Fresh variates; the attribute entries carry over."""
        own = [self.host.rng.expovariate(1.0) for _ in range(self.k)]
        self._minima = own + self._minima[self.k:]
        self._estimate = self._compute_estimate()

    def _sampler(self) -> PeerSampler:
        return self.host.protocol(self.membership)  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _round(self) -> None:
        self._maybe_advance_epoch()
        if self.slots:
            self._merge(self._local_entries())
        for peer in self._sampler().sample_peers(self.fanout):
            self.send(peer, ExtremaExchange(self._epoch, tuple(self._minima), self._last_estimate))
        self.host.metrics.counter("extrema.rounds").inc()

    def _local_entries(self) -> Iterator[Tuple[int, float]]:
        """This node's −max and min per slot as (position, value), less
        the unknown and the non-finite (the wire codec refuses NaN and
        ±inf, so one adopted could not be sent)."""
        local = self.extremes_fn()  # type: ignore[misc]
        for i, slot in enumerate(self.slots):
            high, low = local[slot]
            position = self.k + 2 * i
            for offset, value in ((0, None if high is None else -high), (1, low)):
                if value is not None and math.isfinite(value):
                    yield position + offset, float(value)

    def _maybe_advance_epoch(self) -> None:
        epoch = self._current_epoch()
        if epoch > self._epoch:
            self._last_estimate = self._raw_estimate()
            self._epoch = epoch
            self._regenerate()

    def on_message(self, sender: NodeId, message: Message) -> None:
        if isinstance(message, ExtremaExchange):
            if len(message.minima) != len(self._minima):
                # Merged, it would shorten the table for good and inflate N.
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
            lower = [mine is not None and (theirs is None or mine < theirs)
                     for mine, theirs in zip(self._minima, pushed)]
            if not any(lower):
                # An empty reply would lower none of the requester's entries.
                self.host.metrics.counter("extrema.replies_skipped").inc()
                return
            self.send(sender, ExtremaReply(
                self._epoch, pack_mask(lower),
                tuple(mine for mine, flag in zip(self._minima, lower) if flag)))
        elif isinstance(message, ExtremaReply):
            indices = mask_indices(message.lower, len(self._minima))
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

    def _merge(self, entries: Iterable[Tuple[int, Optional[float]]]) -> None:
        """Lower the table to the given (position, value) entries."""
        merged = None
        for index, value in entries:
            held = self._minima[index]
            if value is not None and value < (_UNKNOWN if held is None else held):
                if merged is None:
                    merged = list(self._minima)
                merged[index] = value
        if merged is not None:
            self._minima = merged
            self._estimate = self._compute_estimate()

    # ------------------------------------------------------------------
    def _raw_estimate(self) -> Optional[float]:
        total = sum(self._minima[:self.k])  # type: ignore[arg-type]
        if total <= 0:
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

    def maximum(self, slot: str) -> Optional[float]:
        """The largest value of ``slot`` heard of, None before any."""
        negated = self._minima[self.k + 2 * self.slots.index(slot)]
        return None if negated is None else -negated

    def minimum(self, slot: str) -> Optional[float]:
        """The smallest value of ``slot`` heard of, None before any."""
        return self._minima[self.k + 2 * self.slots.index(slot) + 1]

    def fanout_fn(self, c: float = 2.0) -> Callable[[], int]:
        """A FanoutSpec for gossip protocols: ceil(ln(N_hat) + c)."""

        def _fanout() -> int:
            return max(1, math.ceil(math.log(max(2.0, self.estimate())) + c))

        return _fanout
