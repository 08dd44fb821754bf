"""Deterministic discrete-event simulation core.

A :class:`Simulation` owns a virtual clock and a priority queue of
events. Everything else in the simulated world — network deliveries,
protocol timers, churn — schedules callbacks here. Determinism comes
from two rules:

* ties in time are broken by insertion order (a monotonic sequence
  number), and
* all randomness flows from per-purpose :mod:`random` streams derived
  from the simulation seed (see :meth:`Simulation.rng`), so adding a
  random draw in one subsystem does not perturb the others.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable, Dict, Optional


class _Event:
    """Queue record. The heap holds ``(time, seq, event)`` tuples so heap
    comparisons stay pure C tuple comparisons (``seq`` is unique, the
    event object itself is never compared)."""

    __slots__ = ("time", "callback", "args", "cancelled")

    def __init__(self, time: float, callback: Callable[..., None], args: tuple = ()):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False


class EventHandle:
    """Opaque handle allowing a scheduled event to be cancelled."""

    __slots__ = ("_event",)

    def __init__(self, event: _Event):
        self._event = event

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already fired or was cancelled."""
        self._event.cancelled = True


class Simulation:
    """Virtual-time event loop.

    Args:
        seed: master seed from which every named RNG stream derives.

    Typical driving pattern::

        sim = Simulation(seed=42)
        sim.schedule(1.0, lambda: print("hello at t=1"))
        sim.run_until(10.0)
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.now: float = 0.0
        self._queue: list = []  # heap of (time, seq, _Event)
        self._seq = itertools.count()
        self._rngs: Dict[str, random.Random] = {}
        self._events_processed = 0

    # ------------------------------------------------------------------
    # randomness
    # ------------------------------------------------------------------
    def rng(self, stream: str) -> random.Random:
        """Return the named RNG stream, creating it deterministically.

        Streams are independent: ``rng("network")`` draws never affect
        ``rng("node:7")`` draws. The per-stream seed is derived from
        ``(master seed, stream name)``.
        """
        existing = self._rngs.get(stream)
        if existing is None:
            existing = random.Random(f"{self.seed}/{stream}")
            self._rngs[stream] = existing
        return existing

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at an absolute virtual time."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        event = _Event(time, callback)
        heapq.heappush(self._queue, (time, next(self._seq), event))
        return EventHandle(event)

    def schedule_call(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Fast-path schedule: run ``callback(*args)`` after ``delay``.

        Equivalent to ``schedule(delay, lambda: callback(*args))`` but
        without allocating a closure per event — the network delivery
        path schedules one of these per message.
        """
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        time = self.now + delay
        event = _Event(time, callback, args)
        heapq.heappush(self._queue, (time, next(self._seq), event))
        return EventHandle(event)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event. Returns False when queue is empty."""
        queue = self._queue
        while queue:
            time, _, event = heapq.heappop(queue)
            if event.cancelled:
                continue
            self.now = time
            self._events_processed += 1
            event.callback(*event.args)
            return True
        return False

    def run_until(self, time: float, max_events: Optional[int] = None) -> int:
        """Run events up to and including virtual ``time``.

        Afterwards the clock rests at exactly ``time`` (even if the last
        event fired earlier), so back-to-back ``run_until`` calls tile
        cleanly. When ``max_events`` stops the run while an event at or
        before ``time`` is still queued, the clock stays at the last
        event run, so it never has to move backwards to that event.
        Returns the number of events processed.
        """
        if time < self.now:
            raise ValueError(f"cannot run backwards: {time} < {self.now}")
        queue = self._queue
        pop = heapq.heappop
        processed = 0
        while queue:
            head = queue[0]
            event = head[2]
            if event.cancelled:
                pop(queue)
                continue
            if head[0] > time:
                break
            if max_events is not None and processed >= max_events:
                return processed
            pop(queue)
            self.now = head[0]
            self._events_processed += 1
            event.callback(*event.args)
            processed += 1
        self.now = max(self.now, time)
        return processed

    def run_for(self, duration: float, max_events: Optional[int] = None) -> int:
        """Advance the clock by ``duration`` seconds."""
        return self.run_until(self.now + duration, max_events=max_events)

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Drain the queue completely (bounded by ``max_events``)."""
        queue = self._queue
        pop = heapq.heappop
        processed = 0
        while processed < max_events and queue:
            time, _, event = pop(queue)
            if event.cancelled:
                continue
            self.now = time
            self._events_processed += 1
            event.callback(*event.args)
            processed += 1
        return processed

    @property
    def pending_events(self) -> int:
        """Events currently queued (including lazily-cancelled ones)."""
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def call_soon(self, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at the current time (after pending ties)."""
        return self.schedule(0.0, callback)
