"""Churn-adaptive redundancy policy (claim C5).

Static redundancy spends repair bandwidth as if every departure were
permanent. :class:`AdaptiveRepairPolicy` instead derives the replica
target, census cadence and repair grace from the *measured* session
survival of the population (a :class:`~repro.estimation.lifetimes.
LifetimeEstimator` fed by the membership event stream):

* **replica target** — the smallest r for which the probability that
  *all* r replicas of a range die within one recovery window stays
  below ``loss_tolerance``: with per-replica window-death probability
  q = 1 - S(window | age), solve q^r <= tolerance. Clamped to
  ``[r_min, r_max]``; long-lived sessions (the common deployed case)
  pull r down toward ``r_min``, churn storms push it up.
* **maintenance cadence** — scaled inversely with the predicted
  per-window death probability: a calm population is censused and
  reconciled less often, a churning one more urgently. One factor,
  clamped to ``period_bounds``, multiplies both the census period and
  the :class:`~repro.redundancy.repair.RangeRepair` period.
* **grace window** — stretched when survival is high (departures are
  reboots: wait for them) and shrunk toward eager repair when it is low.

Targets are published with hysteresis so estimate noise cannot flap
them: *raises* apply immediately (safety never waits), *lowers* only
after the lower value has been recomputed ``lower_rounds`` consecutive
times for that range.

One provider instance is shared by every node of a deployment (see
``DataDropletsConfig(redundancy_mode="adaptive")``), so all replicas of
a sieve range publish the same target and per-range hysteresis state is
kept exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from repro.estimation.lifetimes import LifetimeEstimator
from repro.redundancy.manager import RepairPolicy


@dataclass
class _RangeState:
    """Published target + lowering streak for one sieve range."""

    published: int
    candidate: int
    streak: int


class AdaptiveRepairPolicy:
    """Policy provider mapping survival estimates to repair urgency.

    Implements the provider seam of
    :class:`~repro.redundancy.manager.RedundancyManager`:
    ``target_for(now, range_key)``, ``check_period(now)`` and
    ``grace_window(now)``. Until the estimator has seen ``min_deaths``
    completed sessions every answer equals the static ``base`` policy
    and ``replication``.

    Args:
        base: the static policy supplying fallbacks and base cadence.
        lifetimes: shared lifetime estimator (membership-event fed).
        replication: the deployment's r, the target before the fit
            engages.
        r_min / r_max: hard clamps on the published replica target.
        loss_tolerance: acceptable probability that a whole range's
            replicas die within one recovery window.
        recovery_window: seconds within which repair is expected to act;
            defaults to grace window + two census periods (detect, wait
            out the grace, repair).
        lower_rounds: consecutive computations of a lower target before
            it is published (raises are immediate).
        period_bounds: (min, max) multipliers on the base census period.
    """

    def __init__(
        self,
        base: RepairPolicy,
        lifetimes: LifetimeEstimator,
        replication: int,
        r_min: int = 2,
        r_max: Optional[int] = None,
        loss_tolerance: float = 1e-2,
        recovery_window: Optional[float] = None,
        lower_rounds: int = 3,
        period_bounds: Tuple[float, float] = (0.5, 4.0),
        reference_death_probability: float = 0.2,
    ):
        if r_min <= 0:
            raise ValueError("r_min must be positive")
        if r_max is None:
            r_max = max(replication, 2 * r_min)
        if r_max < r_min:
            raise ValueError("r_max must be >= r_min")
        if not 0.0 < loss_tolerance < 1.0:
            raise ValueError("loss_tolerance must be in (0, 1)")
        if recovery_window is None:
            recovery_window = base.grace_window + 2.0 * base.check_period
        if recovery_window <= 0:
            raise ValueError("recovery_window must be positive")
        if lower_rounds <= 0:
            raise ValueError("lower_rounds must be positive")
        lo, hi = period_bounds
        if not 0.0 < lo <= hi:
            raise ValueError("period_bounds must satisfy 0 < min <= max")
        if not 0.0 < reference_death_probability < 1.0:
            raise ValueError("reference_death_probability must be in (0, 1)")
        self.base = base
        self.lifetimes = lifetimes
        self.replication = replication
        self.r_min = r_min
        self.r_max = r_max
        self.loss_tolerance = loss_tolerance
        self.recovery_window = recovery_window
        self.lower_rounds = lower_rounds
        self.period_bounds = (lo, hi)
        self.reference_death_probability = reference_death_probability
        self._ranges: Dict[Hashable, _RangeState] = {}

    # -- survival --------------------------------------------------------
    def survival_over_window(self, now: float) -> Optional[float]:
        """P(a typical live replica survives the next recovery window),
        conditioning on the mean age of currently-open sessions; None
        until the estimator has enough completed sessions."""
        return self.lifetimes.survival_probability(
            age=self.lifetimes.mean_alive_age(now),
            window=self.recovery_window,
            now=now,
            default=None,
        )

    # -- replica target --------------------------------------------------
    def raw_target(self, now: float) -> int:
        """Clamped replica target before hysteresis: smallest r with
        (per-replica window-death probability)^r <= loss_tolerance."""
        p_survive = self.survival_over_window(now)
        if p_survive is None:
            return max(self.r_min, min(self.r_max, self.replication))
        q = min(max(1.0 - p_survive, 1e-9), 1.0 - 1e-9)
        required = math.ceil(math.log(self.loss_tolerance) / math.log(q))
        return max(self.r_min, min(self.r_max, int(required)))

    def target_for(self, now: float, range_key: Hashable = None) -> int:
        """Published (hysteresis-filtered) target for one sieve range."""
        raw = self.raw_target(now)
        state = self._ranges.get(range_key)
        if state is None:
            self._ranges[range_key] = _RangeState(raw, raw, 0)
            return raw
        if raw >= state.published:
            # Raising the target is a safety response — never delayed.
            state.published = raw
            state.candidate = raw
            state.streak = 0
            return raw
        if raw == state.candidate:
            state.streak += 1
        else:
            state.candidate = raw
            state.streak = 1
        if state.streak >= self.lower_rounds:
            state.published = raw
            state.streak = 0
        return state.published

    # -- cadence & grace -------------------------------------------------
    def cadence_factor(self, now: float) -> float:
        """Multiplier on every maintenance period: > 1 when the
        population is calm, < 1 when it churns, clamped to
        ``period_bounds``; 1 until the estimator has enough sessions."""
        p_survive = self.survival_over_window(now)
        if p_survive is None:
            return 1.0
        q = max(1.0 - p_survive, 1e-6)
        factor = self.reference_death_probability / q
        lo, hi = self.period_bounds
        return min(max(factor, lo), hi)

    def check_period(self, now: float) -> float:
        """Census period: the base period times :meth:`cadence_factor`."""
        return self.base.check_period * self.cadence_factor(now)

    def grace_window(self, now: float) -> float:
        """Repair grace: relax when departures look transient, tighten
        toward eager repair when sessions are dying fast."""
        p_survive = self.survival_over_window(now)
        if p_survive is None:
            return self.base.grace_window
        factor = min(max(p_survive / 0.7, 0.25), 2.0)
        return self.base.grace_window * factor

    # -- introspection ---------------------------------------------------
    def describe(self, now: float) -> Dict[str, Optional[float]]:
        """Current knob values (benchmarks and debugging)."""
        fit = self.lifetimes.fit(now)
        return {
            "survival": self.survival_over_window(now),
            "raw_target": float(self.raw_target(now)),
            "check_period": self.check_period(now),
            "grace_window": self.grace_window(now),
            "recovery_window": self.recovery_window,
            "mean_lifetime": fit.mean_lifetime if fit is not None else None,
            "fit_shape": fit.shape if fit is not None else None,
            "completed_sessions": float(self.lifetimes.completed_count),
        }
