"""Online session-lifetime estimation from sightings of peers (claim C5).

The paper's churn argument (§III-A) is that transient crash/reboot
departures vastly outnumber permanent failures, so redundancy
constraints can be relaxed within a *recovery window* — but only if the
system actually knows how long sessions live. This module turns a
stream of session boundaries into that knowledge; each storage node's
redundancy manager feeds its own estimator, opening a peer's session at
its first sighting and closing it at its last:

* :class:`LifetimeEstimator` ingests per-member session boundaries and
  keeps sums over completed lifetimes plus the start times of
  still-open sessions;
* still-alive sessions are *right-censored* observations: a node that
  has been up for 80s tells us its lifetime is at least 80s. Both
  survival fits use the censored maximum-likelihood estimators, so the
  estimate is not biased low the way "average the finished sessions"
  would be;
* :meth:`LifetimeEstimator.fit` returns a :class:`SurvivalFit` —
  exponential or Weibull, chosen by censored log-likelihood — and
  :meth:`LifetimeEstimator.survival_probability` answers the question
  the redundancy controller asks: *given a replica has already been up
  for ``age`` seconds, what is the chance it is still up ``window``
  seconds from now?*

Everything is bounded-memory: aggregates are O(1), and raw samples are
kept in a sliding deque only for the Weibull shape solve and empirical
quantiles.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

#: Lifetimes are clamped to this floor: a same-instant join/death would
#: otherwise put log-terms (Weibull) and rates (exponential) at infinity.
_MIN_LIFETIME = 1e-6

#: Bisection bracket for the Weibull shape parameter. Real session-time
#: data lands well inside; outside it the exponential fit wins anyway.
_SHAPE_LO, _SHAPE_HI = 0.05, 20.0


@dataclass(frozen=True)
class SurvivalFit:
    """A fitted parametric survival model S(t) = exp(-(t/scale)^shape).

    ``shape == 1`` is the exponential (memoryless) special case;
    ``shape < 1`` models the heavy-tailed "old nodes keep living"
    behaviour measured in deployed peer-to-peer systems.

    Attributes:
        distribution: "exponential" or "weibull".
        scale: the Weibull scale λ (seconds); for the exponential this
            is the mean lifetime (1/rate).
        shape: the Weibull shape k (1.0 for exponential).
        deaths: completed (uncensored) sessions behind the fit.
        censored: still-open sessions that contributed exposure only.
        exposure: total observed member-seconds (completed + censored).
    """

    distribution: str
    scale: float
    shape: float
    deaths: int
    censored: int
    exposure: float

    def survival(self, t: float) -> float:
        """P(lifetime > t)."""
        if t <= 0:
            return 1.0
        return math.exp(-((t / self.scale) ** self.shape))

    def conditional_survival(self, age: float, window: float) -> float:
        """P(lifetime > age + window | lifetime > age).

        The quantity redundancy control needs: the chance a replica that
        has already survived ``age`` seconds outlives the next
        ``window``. For the exponential this is just S(window)
        (memorylessness); for Weibull the age matters."""
        if window <= 0:
            return 1.0
        s_age = self.survival(max(0.0, age))
        if s_age <= 0.0:
            return 0.0
        return self.survival(max(0.0, age) + window) / s_age

    @property
    def mean_lifetime(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)


def _log_likelihood(shape: float, scale: float,
                    uncensored: List[float], censored: List[float]) -> float:
    """Censored Weibull log-likelihood (exponential at shape=1)."""
    ll = 0.0
    for t in uncensored:
        z = t / scale
        ll += math.log(shape / scale) + (shape - 1.0) * math.log(z) - z ** shape
    for t in censored:
        ll -= (t / scale) ** shape
    return ll


class LifetimeEstimator:
    """Streaming censored estimator of member session lifetimes.

    Feed it session boundaries — :meth:`note_join` when a member is
    first seen up, :meth:`note_death` with the time it was last seen up
    once it has gone (a redundancy manager calls both from its
    sightings; a member seen again later starts a new session).
    Sessions still open at query time enter the fits as right-censored
    exposure.

    Args:
        min_deaths: completed sessions required before :meth:`fit`
            returns anything (below it, callers fall back to their
            static policy).
        max_samples: sliding window of raw completed lifetimes retained
            for the Weibull solve and empirical quantiles; aggregate
            sums (exponential MLE) always cover *all* history.
    """

    def __init__(self, min_deaths: int = 8, max_samples: int = 2048):
        if min_deaths <= 0:
            raise ValueError("min_deaths must be positive")
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self.min_deaths = min_deaths
        self._alive: Dict[int, float] = {}  # member -> session start
        self._completed = 0
        self._completed_sum = 0.0
        self._samples: Deque[float] = deque(maxlen=max_samples)
        self.sessions_opened = 0
        self.sessions_closed = 0

    # -- event ingestion -----------------------------------------------
    def note_join(self, member: int, now: float) -> None:
        """A member came up: open a session (idempotent while open)."""
        if member in self._alive:
            return
        self._alive[member] = now
        self.sessions_opened += 1

    def note_death(self, member: int, now: float) -> None:
        """A member went down: close its session, recording the lifetime."""
        start = self._alive.pop(member, None)
        if start is None:
            return  # death of a session we never saw open
        lifetime = max(_MIN_LIFETIME, now - start)
        self.sessions_closed += 1
        self._completed += 1
        self._completed_sum += lifetime
        self._samples.append(lifetime)

    # -- streaming state -----------------------------------------------
    @property
    def completed_count(self) -> int:
        return self._completed

    def censored_ages(self, now: float) -> List[float]:
        """Ages of still-open sessions (the right-censored observations)."""
        return [max(_MIN_LIFETIME, now - start) for start in self._alive.values()]

    def mean_alive_age(self, now: float) -> float:
        """Mean age of currently-open sessions (0 with none open) —
        the 'typical replica age' the adaptive policy conditions on."""
        if not self._alive:
            return 0.0
        return sum(self.censored_ages(now)) / len(self._alive)

    def empirical_quantile(self, q: float) -> Optional[float]:
        """Quantile of the retained *completed* lifetimes (no censoring
        correction — use :meth:`fit` for the corrected view)."""
        if not 0.0 < q < 1.0:
            raise ValueError("quantile requires 0 < q < 1")
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    # -- survival fits ---------------------------------------------------
    def fit(self, now: float, distribution: str = "auto") -> Optional[SurvivalFit]:
        """Censored MLE survival fit, or None with too few deaths.

        ``distribution`` is "exponential", "weibull" or "auto" (pick the
        better censored log-likelihood on the sample window)."""
        if distribution not in ("auto", "exponential", "weibull"):
            raise ValueError(f"unknown distribution {distribution!r}")
        deaths = self._completed
        if deaths < self.min_deaths:
            return None
        censored = self.censored_ages(now)
        exposure = self._completed_sum + sum(censored)
        if exposure <= 0:
            return None
        # Exponential censored MLE: rate = deaths / total time at risk.
        # The censoring correction is exactly the "+ sum of alive ages"
        # in the denominator — alive sessions contribute exposure but no
        # death event.
        exp_fit = SurvivalFit(
            distribution="exponential",
            scale=exposure / deaths,
            shape=1.0,
            deaths=deaths,
            censored=len(censored),
            exposure=exposure,
        )
        if distribution == "exponential":
            return exp_fit
        weibull = self._fit_weibull(censored, exposure)
        if weibull is None:
            return None if distribution == "weibull" else exp_fit
        if distribution == "weibull":
            return weibull
        uncensored = [max(_MIN_LIFETIME, t) for t in self._samples]
        ll_exp = _log_likelihood(1.0, exp_fit.scale, uncensored, censored)
        ll_wei = _log_likelihood(weibull.shape, weibull.scale, uncensored, censored)
        # Weibull has one extra parameter; require a clear win (an AIC
        # penalty of one nat) before abandoning memorylessness.
        return weibull if ll_wei > ll_exp + 1.0 else exp_fit

    def _fit_weibull(self, censored: List[float], exposure: float) -> Optional[SurvivalFit]:
        """Censored Weibull MLE over the sample window via 1-D bisection
        on the shape's profile-likelihood score equation."""
        uncensored = [max(_MIN_LIFETIME, t) for t in self._samples]
        deaths = len(uncensored)
        if deaths < self.min_deaths:
            return None
        observations = uncensored + [max(_MIN_LIFETIME, t) for t in censored]
        if max(observations) <= min(observations) * (1.0 + 1e-12):
            return None  # degenerate: all observations equal
        mean_log_unc = sum(math.log(t) for t in uncensored) / deaths

        def score(shape: float) -> float:
            pow_sum = 0.0
            pow_log_sum = 0.0
            for t in observations:
                p = t ** shape
                pow_sum += p
                pow_log_sum += p * math.log(t)
            return pow_log_sum / pow_sum - 1.0 / shape - mean_log_unc

        lo, hi = _SHAPE_LO, _SHAPE_HI
        s_lo, s_hi = score(lo), score(hi)
        if s_lo * s_hi > 0:
            return None  # no bracketed root: fall back to exponential
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            s_mid = score(mid)
            if s_lo * s_mid <= 0:
                hi = mid
            else:
                lo, s_lo = mid, s_mid
        shape = 0.5 * (lo + hi)
        scale = (sum(t ** shape for t in observations) / deaths) ** (1.0 / shape)
        return SurvivalFit(
            distribution="weibull",
            scale=scale,
            shape=shape,
            deaths=deaths,
            censored=len(censored),
            exposure=exposure,
        )

    def survival_probability(self, age: float, window: float, now: float,
                             default: Optional[float] = None) -> Optional[float]:
        """P(a replica of current ``age`` survives the next ``window``),
        from the censored fit; ``default`` with too little data."""
        fit = self.fit(now)
        if fit is None:
            return default
        return fit.conditional_survival(age, window)
