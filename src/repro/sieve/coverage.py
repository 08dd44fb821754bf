"""Key-space coverage and replication-profile checking.

"The only correctness requirement is that all the possibilities in the
key space are covered in order to avoid data-loss." (§III-A)

These utilities evaluate a *population* of sieves (one per node) against
a workload sample: what fraction of items would at least one node admit,
how many nodes admit each item (the achieved replication profile), and
how storage load spreads across nodes. Benchmarks E3/E4 are built on
them, and the storage layer runs :func:`coverage_report` in tests as an
invariant check.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.sieve.base import Record, Sieve


@dataclass(frozen=True)
class CoverageReport:
    """Outcome of evaluating sieves against a sample of items."""

    items: int
    covered_items: int
    replica_counts: Tuple[int, ...]  # admitting nodes per item
    node_loads: Tuple[int, ...]  # admitted items per node

    @property
    def coverage(self) -> float:
        """Fraction of items admitted by at least one node."""
        return self.covered_items / self.items if self.items else 1.0

    @property
    def mean_replication(self) -> float:
        return statistics.fmean(self.replica_counts) if self.replica_counts else 0.0

    @property
    def min_replication(self) -> int:
        return min(self.replica_counts) if self.replica_counts else 0

    @property
    def load_imbalance(self) -> float:
        """max/mean node load (1.0 = perfectly balanced)."""
        if not self.node_loads:
            return 1.0
        mean = statistics.fmean(self.node_loads)
        return (max(self.node_loads) / mean) if mean > 0 else float("inf")


def coverage_report(sieves: Sequence[Sieve], items: Sequence[Tuple[str, Record]]) -> CoverageReport:
    """Evaluate every sieve against every item.

    O(nodes × items); intended for test/benchmark populations, not for
    the hot path (nodes only ever evaluate their own sieve online).
    """
    replica_counts: List[int] = []
    node_loads = [0] * len(sieves)
    covered = 0
    for item_id, record in items:
        admitting = 0
        for index, sieve in enumerate(sieves):
            if sieve.admits(item_id, record):
                admitting += 1
                node_loads[index] += 1
        replica_counts.append(admitting)
        if admitting > 0:
            covered += 1
    return CoverageReport(
        items=len(items),
        covered_items=covered,
        replica_counts=tuple(replica_counts),
        node_loads=tuple(node_loads),
    )


def range_population(sieves: Sequence[Sieve]) -> Dict[object, int]:
    """How many nodes cover each sieve range (None-keyed sieves skipped).

    The ground truth that each node's range count
    (:class:`~repro.redundancy.manager.RedundancyManager`) estimates.
    """
    population: Dict[object, int] = {}
    for sieve in sieves:
        key = sieve.range_key()
        if key is not None:
            population[key] = population.get(key, 0) + 1
    return population
