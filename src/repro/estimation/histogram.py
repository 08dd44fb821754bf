"""Decentralised distribution estimation (paper refs [26], [27]).

Nodes estimate the *distribution of stored item values* for an
attribute, which powers two of the paper's mechanisms:

* distribution-aware sieves — finer grain where item density is high
  (§III-B1), and
* item/node ordering — mapping a value to its quantile position gives
  every node a consistent coordinate for T-Man ordering (§III-B2).

Mechanism: each node builds a local equi-width histogram of the values
it stores (:func:`local_histogram`) and the histograms are *averaged* as
one slot of the node's :class:`~repro.estimation.pushsum.PushSumProtocol`
vector. The normalised average is an estimate of the global value
distribution (:meth:`DistributionEstimate.normalised`). This module is
the math only; the gossip is push-sum's.

The paper explicitly flags two hazards of this setting (claim C7):

* **duplicates** — replication means a tuple is counted once per
  replica, so non-uniform replication skews the estimate. The
  ``weight_fn`` hook of :func:`local_histogram` lets callers down-weight
  items by their (estimated) replication degree; E8 ablates naive vs
  corrected.
* **churn** — handled with push-sum's epoch restarts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

#: Optional per-item weight (e.g. 1/replication_estimate for dedup).
WeightFn = Callable[[str], float]


@dataclass(frozen=True)
class DistributionEstimate:
    """A normalised histogram over [lo, hi) with equal-width bins."""

    lo: float
    hi: float
    densities: Tuple[float, ...]  # sums to ~1 (all-zero when unknown)

    @staticmethod
    def normalised(lo: float, hi: float,
                   masses: Optional[Sequence[float]]) -> Optional["DistributionEstimate"]:
        """The view of a (gossip-averaged) histogram; None without data."""
        total = sum(masses) if masses else 0.0
        if total <= 0:
            return None
        return DistributionEstimate(lo, hi, tuple(m / total for m in masses))

    @property
    def bins(self) -> int:
        return len(self.densities)

    def bin_edges(self) -> List[float]:
        width = (self.hi - self.lo) / self.bins
        return [self.lo + i * width for i in range(self.bins + 1)]

    def cdf(self, value: float) -> float:
        """P(X <= value) under the estimated distribution."""
        if value <= self.lo:
            return 0.0
        if value >= self.hi:
            return 1.0
        width = (self.hi - self.lo) / self.bins
        idx = int((value - self.lo) / width)
        frac = (value - (self.lo + idx * width)) / width
        return sum(self.densities[:idx]) + self.densities[idx] * frac

    def quantile(self, q: float) -> float:
        """Smallest value v with cdf(v) >= q."""
        if not 0 <= q <= 1:
            raise ValueError("q must be in [0, 1]")
        width = (self.hi - self.lo) / self.bins
        acc = 0.0
        for i, density in enumerate(self.densities):
            if acc + density >= q:
                if density <= 0:
                    return self.lo + i * width
                frac = (q - acc) / density
                return self.lo + (i + frac) * width
            acc += density
        return self.hi

    def equi_depth_boundaries(self, parts: int) -> List[float]:
        """Boundaries splitting the mass into ``parts`` equal shares —
        the construction behind distribution-aware sieves."""
        if parts <= 0:
            raise ValueError("parts must be positive")
        return [self.quantile(i / parts) for i in range(1, parts)]

    def ks_distance(self, reference_cdf: Callable[[float], float], samples: int = 512) -> float:
        """Kolmogorov–Smirnov distance against a reference CDF."""
        worst = 0.0
        for i in range(samples + 1):
            v = self.lo + (self.hi - self.lo) * i / samples
            worst = max(worst, abs(self.cdf(v) - reference_cdf(v)))
        return worst


def bin_of(value: float, lo: float, hi: float, bins: int) -> Optional[int]:
    """Cell of ``value`` among ``bins`` equal-width cells over [lo, hi]
    (``hi`` itself falls in the last one); None outside the domain."""
    if not lo <= value <= hi:
        return None
    return min(bins - 1, int((value - lo) / ((hi - lo) / bins)))


def local_histogram(
    values: Iterable[Tuple[str, float]],
    lo: float,
    hi: float,
    bins: int = 32,
    weight_fn: Optional[WeightFn] = None,
) -> List[float]:
    """One node's push-sum cells for a histogram slot.

    Args:
        values: (item_id, value) pairs of the locally stored items.
        weight_fn: per-item weight for duplicate correction (C7); the
            naive histogram counts 1 for every replica.
    """
    if hi <= lo:
        raise ValueError("need hi > lo")
    if bins <= 0:
        raise ValueError("bins must be positive")
    cells = [0.0] * bins
    for item_id, value in values:
        cell = bin_of(value, lo, hi, bins)
        if cell is not None:
            cells[cell] += 1.0 if weight_fn is None else weight_fn(item_id)
    return cells


def empirical_distribution(values: Sequence[float], lo: float, hi: float, bins: int) -> DistributionEstimate:
    """Exact histogram of ``values`` — the centralised reference that
    benchmarks compare the gossip estimate against."""
    counts = [0.0] * bins
    for v in values:
        cell = bin_of(v, lo, hi, bins)
        if cell is not None:
            counts[cell] += 1
    estimate = DistributionEstimate.normalised(lo, hi, counts)
    return estimate if estimate is not None else DistributionEstimate(lo, hi, tuple(counts))
