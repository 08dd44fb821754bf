"""Redundancy maintenance: range count, grace window, direct range repair."""

from repro.redundancy.adaptive import AdaptiveRepairPolicy
from repro.redundancy.manager import RedundancyManager, RepairPolicy
from repro.redundancy.repair import PeerSource, RangeRepair, RangeScopedStore

__all__ = [
    "AdaptiveRepairPolicy",
    "PeerSource",
    "RangeRepair",
    "RangeScopedStore",
    "RedundancyManager",
    "RepairPolicy",
]
