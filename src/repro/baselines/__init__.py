"""Baselines: the structured comparators the paper argues against.

* :class:`DhtStore` — one-hop, full-membership DHT (Cassandra-style),
  the E5 availability comparator.
* :class:`ChordProtocol` — the classic multi-hop structured overlay
  with successor lists, fingers and periodic stabilization; measures
  structure-maintenance cost under churn (E5b).

Comparison arms the live system superseded or never assembled are
modules here too, imported by their experiment only:
:mod:`~repro.baselines.fulldigest` (E15), :mod:`~repro.baselines.jsonwire`
(E16), :mod:`~repro.baselines.heartbeat` (E5b),
:mod:`~repro.baselines.lazy` (E2) and :mod:`~repro.baselines.multiattr`
(E10).
"""

from repro.baselines.chord import ChordProtocol, chord_id, in_half_open, in_open_interval
from repro.baselines.dht import DhtConfig, DhtNodeProtocol, DhtStore, UnavailableInDht

__all__ = [
    "ChordProtocol",
    "DhtConfig",
    "DhtNodeProtocol",
    "DhtStore",
    "UnavailableInDht",
    "chord_id",
    "in_half_open",
    "in_open_interval",
]
