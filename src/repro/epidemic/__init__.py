"""Epidemic dissemination substrates (paper §III-A).

* :class:`EagerGossip` — payload-carrying push gossip (infect-and-die),
  the primary write-dissemination channel. (Its lpbcast-style
  advertise/pull comparison arm is :mod:`repro.baselines.lazy`.)
* :class:`AntiEntropy` — periodic pairwise digest reconciliation, the
  certain-but-slow repair channel (also reused for redundancy repair).
* :mod:`repro.epidemic.analysis` — the analytical infection model behind
  the paper's ln(N)+c fanout arithmetic.
"""

from repro.epidemic.analysis import (
    FanoutTableRow,
    atomic_infection_probability,
    c_for_probability,
    expected_coverage,
    fanout_for_atomic,
    fanout_for_coverage,
    fanout_table,
    messages_per_broadcast,
    replica_success_probability,
)
from repro.epidemic.antientropy import (
    AntiEntropy,
    AntiEntropyStore,
    BucketDigestMessage,
    BucketSummaryMessage,
    ItemsPush,
    ItemsRequest,
    VersionedItem,
)
from repro.epidemic.eager import EagerGossip, FanoutSpec, GossipMessage

__all__ = [
    "AntiEntropy",
    "AntiEntropyStore",
    "BucketDigestMessage",
    "BucketSummaryMessage",
    "EagerGossip",
    "FanoutSpec",
    "FanoutTableRow",
    "GossipMessage",
    "ItemsPush",
    "ItemsRequest",
    "VersionedItem",
    "atomic_infection_probability",
    "c_for_probability",
    "expected_coverage",
    "fanout_for_atomic",
    "fanout_for_coverage",
    "fanout_table",
    "messages_per_broadcast",
    "replica_success_probability",
]
