"""Epidemic estimation substrates: size, aggregates, distributions.

These are the "basic distributed computations" the paper builds on
(§III-A estimation of N for sieves, §III-B1 distribution estimation for
smart sieves and ordering, §III-C aggregates exposed to clients), plus
the session-lifetime survival estimator driving churn-adaptive
redundancy (§III-A claim C5).
"""

from repro.estimation.extrema import ExtremaExchange, ExtremaReply, ExtremaSizeEstimator
from repro.estimation.histogram import (
    DistributionEstimate,
    WeightFn,
    empirical_distribution,
    local_histogram,
)
from repro.estimation.lifetimes import LifetimeEstimator, SurvivalFit
from repro.estimation.pushsum import PushSumProtocol, PushSumShare

__all__ = [
    "DistributionEstimate",
    "ExtremaExchange",
    "ExtremaReply",
    "ExtremaSizeEstimator",
    "LifetimeEstimator",
    "PushSumProtocol",
    "PushSumShare",
    "SurvivalFit",
    "WeightFn",
    "empirical_distribution",
    "local_histogram",
]
