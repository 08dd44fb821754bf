"""Sieve functions — local retention rules for epidemic placement.

The paper's placement strategy (§III-A/§III-B1): writes are disseminated
epidemically and each node *locally* decides, via its sieve, whether to
keep each item. Variants:

* :class:`UniformSieve` — keep with probability r/N (the simplest rule).
* :class:`BucketSieve` — own a power-of-two arc of the key ring.
* :class:`CapacityScaledSieve` — arc width scaled to node capacity.
* :class:`DistributionAwareSieve` — equi-depth arcs over an attribute's
  estimated distribution (collocation + load balance).
* :class:`TagSieve` — correlation-tag placement (related items together).
* :class:`UnionSieve` and friends — composition and test baselines.

:mod:`repro.sieve.coverage` checks the paper's coverage/replication
correctness requirement over sieve populations.
"""

from repro.sieve.adaptive import DistributionAwareSieve
from repro.sieve.base import AcceptAllSieve, AcceptNothingSieve, Record, Sieve, UnionSieve
from repro.sieve.correlation import TagFn, TagSieve, field_tag, prefix_tag
from repro.sieve.coverage import CoverageReport, coverage_report, range_population
from repro.sieve.keyspace import (
    BucketSieve,
    CapacityScaledSieve,
    StaticArcSieve,
    bucket_count_for,
    node_position,
)
from repro.sieve.uniform import UniformSieve

__all__ = [
    "AcceptAllSieve",
    "AcceptNothingSieve",
    "BucketSieve",
    "CapacityScaledSieve",
    "CoverageReport",
    "DistributionAwareSieve",
    "Record",
    "Sieve",
    "StaticArcSieve",
    "TagFn",
    "TagSieve",
    "UniformSieve",
    "UnionSieve",
    "bucket_count_for",
    "coverage_report",
    "field_tag",
    "node_position",
    "prefix_tag",
    "range_population",
]
