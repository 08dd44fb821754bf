"""End-to-end self-stabilisation: every corruption primitive heals.

Each test boots a small live deployment (5 storage nodes — the ISSUE's
minimum interesting cluster — plus the soft layer), preloads data,
injects exactly one corruption primitive through the Nemesis driver,
and asserts the :class:`~repro.check.corruption.ConvergenceMonitor`
sees it detected *and* healed within the round bound — i.e. that the
bounded-time convergence contract holds for each primitive in
isolation, not just statistically across fuzzed campaigns.
"""

from __future__ import annotations

import random

import pytest

from repro.check.corruption import ConvergenceMonitor, check_corruption_healed
from repro.check.history import History
from repro.check.nemesis import CORRUPTION_KINDS, Nemesis, NemesisEvent, NemesisSchedule
from repro.core.config import DataDropletsConfig
from repro.core.datadroplets import DataDroplets
from repro.redundancy.adaptive import AdaptiveRepairPolicy
from repro.redundancy.manager import RepairPolicy

pytestmark = pytest.mark.slow

ROUND = 4.0
BOUND = 8


def _deploy(seed: int = 11, *, routing_mode: str = "legacy",
            audit_enabled: bool = True) -> DataDroplets:
    config = DataDropletsConfig(
        seed=seed,
        n_storage=5,
        n_soft=2,
        replication=3,
        repair=RepairPolicy(check_period=ROUND, grace_window=4.0),
        repair_period=ROUND,
        adaptive_min_deaths=4,
        routing_mode=routing_mode,
        audit_enabled=audit_enabled,
        audit_period=3.0,
    )
    dd = DataDroplets(config).start(warmup=10.0)
    rng = random.Random(seed + 1)
    for i in range(24):
        dd.put(f"key-{i}", {"v": rng.uniform(0.0, 100.0)})
    dd.run_for(3.0)
    return dd


def _inject_and_converge(dd: DataDroplets, kind: str, params=None,
                         rounds: int = BOUND):
    """Arm a one-event schedule, run ``rounds`` anti-entropy rounds,
    return the annotated corruption records."""
    history = History()
    schedule = NemesisSchedule([NemesisEvent(kind, at=0.5, params=params or {})])
    nemesis = Nemesis(dd, schedule, history=history)
    monitor = ConvergenceMonitor(dd, history, round_length=ROUND,
                                 bound_rounds=BOUND)
    nemesis.monitor = monitor
    nemesis.arm()
    dd.run_for(1.0 + rounds * ROUND)
    monitor.finalize()
    return history


def _assert_healed(history: History, kind: str):
    records = [c for c in history.corruptions if c["kind"] == kind]
    assert records, f"nemesis found no victim to inject {kind} into"
    assert check_corruption_healed(history, bound_rounds=BOUND) == []
    for record in records:
        assert record["detected_at"] is not None
        assert record["healed_at"] is not None
        assert record["heal_rounds"] <= BOUND


class TestPrimitivesHeal:
    def test_flip_version_heals(self):
        history = _inject_and_converge(_deploy(), "flip_version",
                                       {"count": 2, "wipe": False})
        _assert_healed(history, "flip_version")

    def test_flip_version_wipe_heals(self):
        history = _inject_and_converge(_deploy(), "flip_version",
                                       {"count": 2, "wipe": True})
        _assert_healed(history, "flip_version")

    def test_poison_summary_heals(self):
        history = _inject_and_converge(_deploy(), "poison_summary",
                                       {"buckets": 2})
        _assert_healed(history, "poison_summary")

    def test_desync_sieve_heals(self):
        history = _inject_and_converge(_deploy(), "desync_sieve")
        _assert_healed(history, "desync_sieve")

    def test_scramble_routing_heals_under_onehop(self):
        dd = _deploy(routing_mode="onehop")
        history = _inject_and_converge(dd, "scramble_routing", {"flips": 2})
        _assert_healed(history, "scramble_routing")

    def test_adaptive_redundancy_mode_also_heals(self):
        # Every storage node runs the adaptive replica targets; the
        # lifetime-aware repair must not regress self-stabilisation.
        dd = _deploy()
        assert all(isinstance(node.protocol("redundancy").policy,
                              AdaptiveRepairPolicy)
                   for node in dd.storage_nodes)
        history = _inject_and_converge(dd, "flip_version", {"count": 2})
        _assert_healed(history, "flip_version")


class TestMonitorJudgement:
    def test_break_audit_leaves_poison_unhealed(self):
        # Positive control: with the audit hook off, a poisoned summary
        # whose per-key versions agree has no heal path, and the
        # checker must say so.
        dd = _deploy(audit_enabled=False)
        history = _inject_and_converge(dd, "poison_summary", {"buckets": 2})
        violations = check_corruption_healed(history, bound_rounds=BOUND)
        assert violations
        assert all(v.checker == "corruption_healed" for v in violations)

    def test_history_round_trips_corruptions(self):
        history = _inject_and_converge(_deploy(), "desync_sieve")
        assert history.corruptions
        assert {"kind", "at", "detected_at", "healed_at", "heal_rounds"} \
            <= set(history.corruptions[0])

    def test_every_corruption_kind_is_a_schedulable_event(self):
        for kind in CORRUPTION_KINDS:
            NemesisEvent(kind, at=0.0)  # must not raise
