"""Ordered overlays for item/node ordering (paper §III-B2)."""

from repro.overlay.tman import (
    CoordinateFn,
    TManDescriptor,
    TManExchange,
    TManProtocol,
    line_distance,
    ring_distance,
)

__all__ = [
    "CoordinateFn",
    "TManDescriptor",
    "TManExchange",
    "TManProtocol",
    "line_distance",
    "ring_distance",
]
