"""Distribution-aware sieves (paper §III-B1).

"If data follows a normal distribution, sieves located near the mean ±
standard deviation need to be much finer than sieves outside that region
due to the higher item density."

:class:`DistributionAwareSieve` realises this with the gossip histogram:
the node's coordinate for an item is the *CDF position* of the item's
attribute value under the current distribution estimate. Equal arcs in
CDF space are equal *mass* (equi-depth), so dense value regions are
automatically covered by proportionally more, finer sieves — giving both
the collocation (value-adjacent items land on the same node) and the
load balancing the paper promises. Choosing a different metric for the
estimated distribution (request popularity, disk usage) rebalances by
that metric instead, with no other change.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

from repro.common.ids import NodeId
from repro.estimation.histogram import DistributionEstimate
from repro.sieve.base import Record, Sieve
from repro.sieve.keyspace import BucketSieve


class DistributionAwareSieve(Sieve):
    """Equi-depth arc sieve over an attribute's estimated distribution.

    Args:
        node_id: stable node position (in CDF space).
        attribute: record field holding the numeric value.
        replication: target copies per item.
        size_estimate_fn: live N estimate (drives bucket count).
        distribution_fn: live distribution estimate for the attribute
            (the view of a push-sum histogram slot); until one is
            available, falls back to treating values scaled by
            ``fallback_lo/hi`` as uniform.
    """

    def __init__(
        self,
        node_id: NodeId,
        attribute: str,
        replication: int,
        size_estimate_fn: Callable[[], float],
        distribution_fn: Callable[[], Optional[DistributionEstimate]],
        fallback_lo: float = 0.0,
        fallback_hi: float = 1.0,
    ):
        if fallback_hi <= fallback_lo:
            raise ValueError("need fallback_hi > fallback_lo")
        self.attribute = attribute
        self.distribution_fn = distribution_fn
        self.fallback_lo = fallback_lo
        self.fallback_hi = fallback_hi
        self.inner = BucketSieve(node_id, replication, size_estimate_fn, key_fn=self._cdf_position)

    # ------------------------------------------------------------------
    def _cdf_position(self, item_id: str, record: Record) -> float:
        value = record.get(self.attribute)
        if value is None:
            return 0.0  # attribute-less items pile at the first bucket
        value = float(value)
        estimate = self.distribution_fn()
        if estimate is None:
            span = self.fallback_hi - self.fallback_lo
            return min(0.999999, max(0.0, (value - self.fallback_lo) / span))
        return min(0.999999, max(0.0, estimate.cdf(value)))

    def admits(self, item_id: str, record: Record) -> bool:
        if self.attribute not in record:
            return False
        return self.inner.admits(item_id, record)

    def range_key(self) -> Hashable:
        return ("attr", self.attribute) + tuple(self.inner.range_key())  # type: ignore[operator]

    def value_range(self) -> Optional[tuple]:
        """The attribute-value interval this node currently covers
        (from the inverse CDF); None until a distribution is known.

        This is the coordinate the ordering overlay (§III-B2) sorts
        nodes by."""
        estimate = self.distribution_fn()
        if estimate is None:
            return None
        buckets = self.inner.bucket_count()
        index = self.inner.bucket_index()
        return (estimate.quantile(index / buckets), estimate.quantile((index + 1) / buckets))

    def audit(self) -> bool:
        return self.inner.audit()

    def describe(self) -> str:
        return f"equi-depth({self.attribute}, {self.inner.describe()})"
