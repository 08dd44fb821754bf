"""Deterministic discrete-event simulator hosting the sans-io protocols.

Public surface:

* :class:`Simulation` — virtual clock + event queue + seeded RNG streams.
* :class:`Network` / latency models — lossy, reordering message fabric.
* :class:`Node`, :class:`Protocol`, :class:`Host` — protocol hosting with
  the UP/DOWN/DEAD lifecycle from the paper's fault model.
* :class:`Cluster` — population management and bootstrap sampling.
* Churn models — Poisson crash/recover, catastrophic events, traces.
* :class:`Metrics` — counters/histograms/time series for experiments.

The multi-process tools are imported from their own modules, so that a
process hosting a node never loads :mod:`multiprocessing`:
:mod:`repro.sim.sweep` (parallel, deterministic ``(config, seed)``
sweeps) and :mod:`repro.sim.shard` (one big simulation sharded across
processes, merged byte-for-byte deterministically).
"""

from repro.sim.churn import (
    CatastrophicEvent,
    ChurnAction,
    PoissonChurn,
    TraceChurn,
)
from repro.sim.cluster import Cluster
from repro.sim.metrics import Counter, Gauge, Histogram, Metrics, TimeSeries
from repro.sim.network import (
    FixedLatency,
    LatencyModel,
    LogNormalLatency,
    Network,
    UniformLatency,
)
from repro.sim.node import Host, Node, NodeState, PeriodicTimer, Protocol, StackFactory
from repro.sim.simulator import EventHandle, Simulation

__all__ = [
    "CatastrophicEvent",
    "ChurnAction",
    "Cluster",
    "Counter",
    "EventHandle",
    "FixedLatency",
    "Gauge",
    "Histogram",
    "Host",
    "LatencyModel",
    "LogNormalLatency",
    "Metrics",
    "Network",
    "Node",
    "NodeState",
    "PeriodicTimer",
    "PoissonChurn",
    "Protocol",
    "Simulation",
    "StackFactory",
    "TimeSeries",
    "TraceChurn",
    "UniformLatency",
]
