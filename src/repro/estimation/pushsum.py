"""Push-sum gossip aggregation (paper ref [37], Jelasity et al. style).

Each node holds a (vector, weight) pair initialised to (local values,
1). Every round it keeps half of both and pushes the other half to a
random peer; vector/weight converges exponentially fast to the global
per-node average at every node. From an average, count/sum are
recovered with a size estimate; the ratio of two cells needs neither.

Like the size estimator, dynamism is handled by epoch restarts: mass
lost to crashed nodes or dropped messages corrupts a single epoch only.
The paper's §III-C observes that these aggregates are the basis of the
data-processing story — we expose them through the client API — and
§III-B1's distribution estimate is the same machinery: a histogram is
one more slot of the vector (see :mod:`repro.estimation.histogram`).

Maximum and minimum are not sums: they are idempotent, and ride the
size estimator's min-table (:mod:`repro.estimation.extrema`).

A share lists only its non-zero cells behind a presence mask
(:func:`~repro.common.messages.pack_mask`): the receiver adds what is
listed, and ``a + 0.0 == a`` for the rest, so nothing is lost.

A node needs one instance, however many quantities it averages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.ids import NodeId
from repro.common.messages import Message, mask_indices, message_type, pack_mask
from repro.membership.views import PeerSampler
from repro.sim.node import Protocol


@message_type
@dataclass(frozen=True)
class PushSumShare(Message):
    """Half of the sender's mass: ``nonzero`` masks the vector's cells,
    ``parts`` holds the flagged ones in order."""

    instance: str
    epoch: int
    nonzero: bytes
    parts: Tuple[float, ...]
    weight_part: float


class PushSumProtocol(Protocol):
    """Average node-local quantities across the system.

    One instance carries a vector of named *slots* under one weight and
    one epoch counter, so all of a node's mass travels the same paths:
    the ratio of two slots stays a convex combination of the nodes'
    local ratios whatever shares are lost. A scalar push-sum is the
    one-slot, one-cell case.

    Args:
        instance: name suffix of the protocol.
        values_fn: returns this node's local cells per slot name (one
            cell for a scalar, the bins for a histogram), in wire order
            and with the same shape at every node; sampled at the start
            of each epoch.
        period: gossip period.
        epoch_length: restart grid (None = run a single computation).
    """

    def __init__(
        self,
        instance: str,
        values_fn: Callable[[], Mapping[str, Sequence[float]]],
        period: float = 1.0,
        epoch_length: Optional[float] = None,
        membership: str = "membership",
    ):
        super().__init__()
        self.name = f"push-sum:{instance}"
        self.instance = instance
        self.values_fn = values_fn
        self.period = period
        self.epoch_length = epoch_length
        self.membership = membership
        self._span: Dict[str, Tuple[int, int]] = {}  # slot -> its cells in _vector
        self._epoch = 0
        self._vector: List[float] = []
        self._weight = 0.0
        # (vector, weight) the previous epoch ended with.
        self._last: Optional[Tuple[List[float], float]] = None
        self._timer = None

    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self._epoch = self._current_epoch()
        self._reset()
        self._timer = self.every(self.period, self._round)

    def on_stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()

    def _current_epoch(self) -> int:
        if self.epoch_length is None:
            return 0
        return int(self.host.now / self.epoch_length)

    def _reset(self) -> None:
        vector: List[float] = []
        for slot, cells in self.values_fn().items():
            self._span[slot] = (len(vector), len(vector) + len(cells))
            vector.extend(float(cell) for cell in cells)
        self._vector = vector
        self._weight = 1.0

    def _enter_epoch(self, epoch: int) -> None:
        if self._weight > 0:
            self._last = (self._vector, self._weight)
        self._epoch = epoch
        self._reset()

    def _sampler(self) -> PeerSampler:
        return self.host.protocol(self.membership)  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _round(self) -> None:
        self._maybe_advance_epoch()
        peers = self._sampler().sample_peers(1)
        if not peers:
            return
        self._vector = vector = [cell / 2.0 for cell in self._vector]
        self._weight /= 2.0
        nonzero = [cell != 0.0 for cell in vector]
        self.send(peers[0], PushSumShare(
            self.instance, self._epoch, pack_mask(nonzero),
            tuple(cell for cell, flag in zip(vector, nonzero) if flag), self._weight))
        self.host.metrics.counter("pushsum.rounds").inc()

    def _maybe_advance_epoch(self) -> None:
        epoch = self._current_epoch()
        if epoch > self._epoch:
            self._enter_epoch(epoch)

    def on_message(self, sender: NodeId, message: Message) -> None:
        if not isinstance(message, PushSumShare):
            self.host.metrics.counter("pushsum.unexpected_message").inc()
            return
        indices = mask_indices(message.nonzero, len(self._vector))
        if indices is None or len(indices) != len(message.parts):
            # Another slot layout, or a forged datagram: cells would land
            # in the wrong slots, or past the vector's end.
            self.host.metrics.counter("pushsum.shape_mismatch").inc()
            return
        self._maybe_advance_epoch()
        if message.epoch < self._epoch:
            return
        if message.epoch > self._epoch:
            self._enter_epoch(message.epoch)
        for index, part in zip(indices, message.parts):
            self._vector[index] += part
        self._weight += message.weight_part

    # ------------------------------------------------------------------
    def _readable(self) -> Optional[Tuple[List[float], float]]:
        """(vector, weight) of the epoch to answer from."""
        current = (self._vector, self._weight) if self._weight > 1e-12 else None
        if self._last is None:
            return current
        if current is None or not any(self._vector):
            return self._last  # no mass has reached this node this epoch
        if self.epoch_length is not None:
            # Early in an epoch the local ratio is just the local value;
            # prefer last epoch's converged answer until mixing resumes.
            progress = (self.host.now % self.epoch_length) / self.epoch_length
            if progress < 0.25:
                return self._last
        return current

    def mass(self, slot: str) -> Optional[List[float]]:
        """The slot's cells as this node holds them. Ratios of cells (of
        one slot or of two) are already estimates of the global ratios:
        every cell rides under the same weight."""
        start, end = self._span[slot]
        readable = self._readable()
        return None if readable is None else readable[0][start:end]

    def average(self, slot: str) -> Optional[float]:
        """Best current estimate of the global per-node average of the
        slot's local value (its first cell)."""
        readable = self._readable()
        if readable is None:
            return None
        vector, weight = readable
        return vector[self._span[slot][0]] / weight
