"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro import UnavailableError
from repro.membership import CyclonProtocol
from repro.sim import Cluster, FixedLatency, Simulation, UniformLatency
from repro.store.tuples import Version

# Tier-1 repeats exactly: every property test draws the same examples on
# every run. The "fuzz" profile (``--hypothesis-profile fuzz``, a CI step
# of its own) draws fresh random examples, more of them where a test
# does not pin its own count.
settings.register_profile("ci", derandomize=True)
settings.register_profile("fuzz", derandomize=False, max_examples=400)
settings.load_profile("ci")


@pytest.fixture
def sim() -> Simulation:
    return Simulation(seed=1234)


@pytest.fixture
def cluster(sim: Simulation) -> Cluster:
    return Cluster(sim, latency=UniformLatency(0.005, 0.02))


@pytest.fixture
def fast_cluster(sim: Simulation) -> Cluster:
    """Deterministic fixed-latency cluster for exact-ordering tests."""
    return Cluster(sim, latency=FixedLatency(0.01))


def cyclon_stack(view_size: int = 10, shuffle_size: int = 5, period: float = 1.0):
    """StackFactory with just a Cyclon PSS (most protocol tests add to it)."""

    def factory(node):
        return [CyclonProtocol(view_size=view_size, shuffle_size=shuffle_size, period=period)]

    return factory


def build_connected(sim: Simulation, cluster: Cluster, count: int, factory, warmup: float = 10.0,
                    seed_views: int = 4):
    """Boot ``count`` nodes, seed membership, let the overlay mix."""
    nodes = cluster.add_nodes(count, factory)
    cluster.seed_views("membership", seed_views)
    sim.run_for(warmup)
    return nodes


def put_each(dd, records):
    """Put every ``(key, record)`` through the facade: each put's
    version, or ``None`` for a put that raised ``UnavailableError`` (no
    storage node acked it)."""
    versions = {}
    for key, record in records:
        try:
            versions[key] = dd.put(key, record)
        except UnavailableError:
            versions[key] = None
    return versions


def assert_acked_means_stored(dd, versions):
    """The put contract: every put raised, or a storage node (up or
    down) holds its key at >= the acked version."""
    for key, version in versions.items():
        if version is None:
            continue
        floor = Version(version["sequence"], version["coordinator"])
        held = [node.durable["memtable"].get_any(key) for node in dd.storage_nodes]
        assert any(item is not None and item.version >= floor for item in held), key
