"""Static-r redundancy: the arm C5's adaptive policy is measured against.

:class:`StaticRepairPolicy` answers the calls of
:class:`~repro.redundancy.adaptive.AdaptiveRepairPolicy` with the
deployment's r and the :class:`~repro.redundancy.manager.RepairPolicy`
periods, whatever the churn: it spends repair bandwidth as if every
departure were permanent. E6d (:mod:`repro.redundancy.churnbench`)
gives its static arm's storage nodes
``make_storage_stack(config, policy=StaticRepairPolicy)`` as their
stack; no configuration selects it.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.estimation.lifetimes import LifetimeEstimator
from repro.redundancy.manager import RepairPolicy


class StaticRepairPolicy:
    """The deployment's r and the base periods, whatever the churn.

    Args:
        base: the check period and grace window.
        replication: the deployment's r, as given to the sieve.
        lifetimes: the estimator the node's manager feeds; this arm
            reads nothing from it.
    """

    def __init__(self, base: RepairPolicy, replication: int,
                 lifetimes: Optional[LifetimeEstimator] = None):
        self.base = base
        self.replication = replication
        self.lifetimes = lifetimes if lifetimes is not None else LifetimeEstimator()

    def target_for(self, now: float, range_key: Hashable = None) -> int:
        return self.replication

    def check_period(self, now: float) -> float:
        return self.base.check_period

    def grace_window(self, now: float) -> float:
        return self.base.grace_window

    def cadence_factor(self, now: float) -> float:
        """Multiplier on the range-repair period."""
        return 1.0

