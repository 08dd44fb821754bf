"""Online session-lifetime estimation from sightings of peers (claim C5).

The paper's churn argument (§III-A) is that transient crash/reboot
departures vastly outnumber permanent failures, so redundancy
constraints can be relaxed within a *recovery window* — but only if the
system actually knows how long sessions live. This module turns a
stream of session boundaries into that knowledge; each storage node's
redundancy manager feeds its own estimator, opening a peer's session at
its first sighting and closing it at its last:

* :class:`LifetimeEstimator` ingests per-member session boundaries and
  keeps running sums: completed sessions and their total lifetime, and
  the count and start-time sum of the still-open ones;
* still-alive sessions are *right-censored* observations: a node that
  has been up for 80s tells us its lifetime is at least 80s. The fit is
  the censored exponential maximum-likelihood estimate (deaths over
  total time at risk), so it is not biased low the way "average the
  finished sessions" would be;
* :meth:`LifetimeEstimator.fit` returns a :class:`SurvivalFit` whose
  :meth:`~SurvivalFit.survival` answers the question the redundancy
  controller asks: *what is the chance a replica is still up ``window``
  seconds from now?* The exponential is memoryless, so the replica's
  age does not enter.

Every query is O(1): nothing iterates over sessions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

#: Completed lifetimes are clamped to this floor: a same-instant
#: join/death would otherwise count a death with no exposure.
_MIN_LIFETIME = 1e-6


@dataclass(frozen=True)
class SurvivalFit:
    """A fitted exponential survival model S(t) = exp(-t/scale).

    Attributes:
        scale: the mean lifetime (1/rate), seconds.
        deaths: completed (uncensored) sessions behind the fit.
        censored: still-open sessions that contributed exposure only.
        exposure: total observed member-seconds (completed + censored).
    """

    scale: float
    deaths: int
    censored: int
    exposure: float

    def survival(self, t: float) -> float:
        """P(lifetime > t); by memorylessness also the chance that a
        session of any age outlives the next ``t`` seconds."""
        if t <= 0:
            return 1.0
        return math.exp(-t / self.scale)

    @property
    def mean_lifetime(self) -> float:
        return self.scale


class LifetimeEstimator:
    """Streaming censored estimator of member session lifetimes.

    Feed it session boundaries — :meth:`note_join` when a member is
    first seen up, :meth:`note_death` with the time it was last seen up
    once it has gone (a redundancy manager calls both from its
    sightings; a member seen again later starts a new session).
    Sessions still open at query time enter the fit as right-censored
    exposure.

    Args:
        min_deaths: completed sessions required before :meth:`fit`
            returns anything (below it, the policy answers its
            pre-fit defaults).
    """

    def __init__(self, min_deaths: int = 8):
        if min_deaths <= 0:
            raise ValueError("min_deaths must be positive")
        self.min_deaths = min_deaths
        self._alive: Dict[int, float] = {}  # member -> session start
        self._start_sum = 0.0  # sum of the open sessions' starts
        self._completed = 0
        self._completed_sum = 0.0

    # -- event ingestion -----------------------------------------------
    def note_join(self, member: int, now: float) -> None:
        """A member came up: open a session (idempotent while open)."""
        if member in self._alive:
            return
        self._alive[member] = now
        self._start_sum += now

    def note_death(self, member: int, now: float) -> None:
        """A member went down: close its session, recording the lifetime."""
        start = self._alive.pop(member, None)
        if start is None:
            return  # death of a session we never saw open
        # Recomputed when none is open, so rounding cannot pile up.
        self._start_sum = self._start_sum - start if self._alive else 0.0
        self._completed += 1
        self._completed_sum += max(_MIN_LIFETIME, now - start)

    # -- streaming state -----------------------------------------------
    @property
    def completed_count(self) -> int:
        return self._completed

    @property
    def open_count(self) -> int:
        return len(self._alive)

    def exposure(self, now: float) -> float:
        """Member-seconds observed up to ``now``: completed lifetimes
        plus the ages of the open sessions."""
        return self._completed_sum + len(self._alive) * now - self._start_sum

    # -- survival fit ----------------------------------------------------
    def fit(self, now: float) -> Optional[SurvivalFit]:
        """Censored exponential MLE, or None with too few deaths.

        rate = deaths / total time at risk: the censoring correction is
        exactly the open sessions' ages in the denominator — they
        contribute exposure but no death event."""
        deaths = self._completed
        if deaths < self.min_deaths:
            return None
        exposure = self.exposure(now)
        return SurvivalFit(scale=exposure / deaths, deaths=deaths,
                           censored=len(self._alive), exposure=exposure)
