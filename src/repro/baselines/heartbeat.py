"""Heartbeat-mesh failure detection for the soft-state layer.

The paper keeps the soft layer "moderately sized and thus manageable
with a structured approach" (§II) — which implies it runs its own
failure detection rather than relying on any outside oracle.
:class:`SoftMembership` was the first implementation of that: every soft
node heartbeats every other ring member and flips a shared ring's
aliveness bits from what it observes, O(N²) messages per period.
Single-hop routing tables fed by epidemic membership events
(:mod:`repro.softstate.onehop`) do the same job at a cost that is flat
in N (E5b), so the facade no longer assembles the mesh; it stays here as
the mesh arm of :mod:`repro.baselines.routebench`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.common.ids import NodeId
from repro.common.messages import Message, message_type
from repro.sim.node import Protocol
from repro.softstate.ring import ConsistentHashRing


@message_type
@dataclass(frozen=True)
class SoftHeartbeat(Message):
    """One-way liveness announcement between soft nodes."""

    epoch: int = 0  # boot counter; a rebooted peer announces a new epoch


class SoftMembership(Protocol):
    """Heartbeats among the ring members; updates shared ring aliveness.

    Args:
        ring: the coordinator ring (shared object).
        heartbeat_period: seconds between announcements.
        suspect_timeout: silence length after which a member is marked
            not-alive (responsibility fails over to the next member).
    """

    name = "soft-membership"

    def __init__(
        self,
        ring: ConsistentHashRing,
        heartbeat_period: float = 1.0,
        suspect_timeout: float = 3.5,
    ):
        super().__init__()
        if suspect_timeout <= heartbeat_period:
            raise ValueError("suspect_timeout must exceed heartbeat_period")
        self.ring = ring
        self.heartbeat_period = heartbeat_period
        self.suspect_timeout = suspect_timeout
        self._last_seen: Dict[NodeId, float] = {}
        self._epoch = 0
        self._timer = None

    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self._last_seen = {}
        self._epoch += 1
        self._timer = self.every(self.heartbeat_period, self._beat, jitter=0.2)

    def on_stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()

    # ------------------------------------------------------------------
    def _peers(self):
        return [m for m in self.ring.members() if m != self.host.node_id]

    def _beat(self) -> None:
        beat = SoftHeartbeat(self._epoch)
        for peer in self._peers():
            self.send(peer, beat)
        self.host.metrics.counter("softmembership.heartbeats").inc(len(self._peers()))
        self._review()
        # we are obviously alive; make sure the shared ring agrees
        self.ring.set_alive(self.host.node_id, True)

    def _review(self) -> None:
        horizon = self.host.now - self.suspect_timeout
        for peer in self._peers():
            seen = self._last_seen.get(peer)
            if seen is None:
                # never heard from it since our boot: give it one full
                # timeout from our start before judging
                self._last_seen[peer] = self.host.now
                continue
            alive = seen >= horizon
            self.ring.set_alive(peer, alive)
            if not alive:
                self.host.metrics.counter("softmembership.suspicions").inc()

    def on_message(self, sender: NodeId, message: Message) -> None:
        if not isinstance(message, SoftHeartbeat):
            self.host.metrics.counter("softmembership.unexpected_message").inc()
            return
        self._last_seen[sender] = self.host.now
        self.ring.set_alive(sender, True)
