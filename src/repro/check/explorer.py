"""The ``repro check`` campaign runner.

One *case* = one (seed, schedule) pair: build a deployment, preload a
key population, arm the nemesis, drive a recorded client workload
across the fault horizon, heal, wait out a convergence window, read
everything back, and run every checker. All randomness derives from the
seed, so a case replays bit-identically — which is what makes failure
*confirmation* (re-run, compare violation signatures) and greedy
schedule *shrinking* (drop events / halve durations while the failure
persists) cheap.

:func:`explore` fuzzes N seeds and emits a JSON-able report whose
``failures`` entries carry everything needed to replay them:
the seed, the exact schedule (shrunk if possible) and the violations.

The ``--break-repair`` mode is the harness' own positive control:
redundancy maintenance is disabled and the schedule is a drip of
single permanent node kills — exactly the gradual replica drain the
paper's repair protocol exists to survive — so the lost-write /
replica-floor checkers *must* fire. A quiet run there means the
checkers are broken, not the system healthy.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.check import checkers
from repro.check.corruption import ConvergenceMonitor, check_corruption_healed
from repro.check.history import HistoryRecorder
from repro.check.nemesis import Nemesis, NemesisEvent, NemesisSchedule
from repro.core.config import DataDropletsConfig, IndexSpec
from repro.core.datadroplets import DataDroplets
from repro.redundancy.churnbench import adaptive_view
from repro.redundancy.manager import RepairPolicy
from repro.workloads.generators import (
    MixRatios,
    OperationStream,
    apply_operation,
    uniform_records,
)


@dataclass
class CaseResult:
    """Outcome of one (seed, schedule) case."""

    seed: int
    schedule: NemesisSchedule
    violations: List[checkers.Violation]
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def signature(self) -> Tuple[str, ...]:
        """Canonical fingerprint of the violation set, for determinism
        confirmation across re-runs."""
        return tuple(sorted(
            json.dumps(v.to_dict(), sort_keys=True) for v in self.violations))

# ----------------------------------------------------------------------
# deployment + schedule profiles
# ----------------------------------------------------------------------
def case_config(seed: int, quick: bool = False,
                break_repair: bool = False,
                break_audit: bool = False) -> DataDropletsConfig:
    """Deployment profile for checking campaigns.

    Small enough to run dozens of cases, with repair cranked fast so the
    heal window actually converges. ``break_repair`` disables active
    redundancy maintenance (the E6 ablation knob) — the positive
    control that must produce violations. Every storage node runs the
    lifetime-aware replica targets (claim C5), so the checkers prove
    that the adaptive policy loses no acked write. ``break_audit``
    disables the periodic state audit — the corruption tier's own
    positive control: a poisoned summary whose per-key versions still
    agree then has no heal path, so the convergence checker *must*
    fire."""
    return DataDropletsConfig(
        seed=seed,
        n_storage=16 if quick else 24,
        n_soft=3,
        replication=3,
        indexes=() if quick else (IndexSpec("v", 0.0, 100.0),),
        repair=RepairPolicy(check_period=4.0, grace_window=4.0),
        repair_period=4.0,
        repair_enabled=not break_repair,
        # small campaigns see few completed sessions — engage the fit early
        adaptive_min_deaths=4,
        audit_enabled=not break_audit,
        # faster than the 6s default so audits land within one heal round
        audit_period=3.0,
    )


def stock_schedule(seed: int, quick: bool = False) -> NemesisSchedule:
    """The default fuzzed schedule: recoverable faults only."""
    return NemesisSchedule.from_seed(
        seed, duration=35.0 if quick else 60.0, events=4 if quick else 6)


def break_repair_schedule(quick: bool = False) -> NemesisSchedule:
    """A drip of single permanent kills — gradual replica drain.

    One node per event means no atomic whole-replica-set wipe-out ever
    happens, so the E6a extinction carve-out never applies: every key
    that drains to zero copies is a genuine repair failure."""
    kills = 10 if quick else 14
    spacing = 3.5
    return NemesisSchedule([
        NemesisEvent("crash", at=2.0 + i * spacing,
                     params={"count": 1, "permanent": True})
        for i in range(kills)
    ])


def corruption_schedule(seed: int, quick: bool = False) -> NemesisSchedule:
    """Fuzzed state-corruption schedule for ``--nemesis corruption``.

    Corruption events superimposed (via the ``overlap`` combinator) on
    one early message-loss window, which proves corruption composes
    with the recoverable fault tier."""
    duration = 35.0 if quick else 60.0
    base = NemesisSchedule.corruption_from_seed(
        seed, duration=duration, events=3 if quick else 5)
    rng = random.Random(seed ^ 0x5EED)
    loss = NemesisSchedule([
        NemesisEvent("loss", at=round(rng.uniform(1.0, duration * 0.3), 2),
                     duration=round(rng.uniform(4.0, 8.0), 2),
                     params={"rate": 0.35}),
    ])
    return NemesisSchedule.overlap(base, loss)


# ----------------------------------------------------------------------
# one case
# ----------------------------------------------------------------------
def run_case(
    seed: int,
    schedule: Optional[NemesisSchedule] = None,
    *,
    quick: bool = False,
    break_repair: bool = False,
    ops: Optional[int] = None,
    n_keys: Optional[int] = None,
    floor: int = 1,
    heal_window: Optional[float] = None,
    settle: float = 10.0,
    nemesis_mode: str = "stock",
    break_audit: bool = False,
    bound_rounds: int = 8,
) -> CaseResult:
    """Run one fully deterministic checking case and evaluate it."""
    if schedule is None:
        if break_repair:
            schedule = break_repair_schedule(quick)
        elif nemesis_mode == "corruption":
            schedule = corruption_schedule(seed, quick)
        else:
            schedule = stock_schedule(seed, quick)
    config = case_config(seed, quick=quick, break_repair=break_repair,
                         break_audit=break_audit)
    dd = DataDroplets(config).start(warmup=10.0)
    recorder = HistoryRecorder()
    store = recorder.attach(dd)

    n_keys = n_keys if n_keys is not None else (32 if quick else 48)
    dataset = uniform_records(n_keys, random.Random(seed + 1), attribute="v")
    for key, record in dataset:
        store.put(key, record)
    dd.run_for(3.0)

    nemesis = Nemesis(dd, schedule, history=recorder.history)
    monitor: Optional[ConvergenceMonitor] = None
    if nemesis_mode == "corruption":
        monitor = ConvergenceMonitor(dd, recorder.history,
                                     round_length=config.repair_period,
                                     bound_rounds=bound_rounds)
        nemesis.monitor = monitor
    t0 = dd.sim.now
    nemesis.arm()

    mix = MixRatios(update_fraction=0.35, delete_fraction=0.05,
                    multiget_fraction=0.10,
                    scan_fraction=0.0 if quick else 0.05)
    stream = OperationStream(
        dataset, mix, seed=seed + 2, zipf_theta=0.8,
        scan_attribute=None if quick else "v",
        scan_lo=0.0, scan_hi=100.0, scan_span=15.0, multiget_size=4)

    horizon = schedule.horizon + 5.0
    total_ops = ops if ops is not None else (90 if quick else 150)
    gap = horizon / max(1, total_ops)
    for i in range(total_ops):
        target = t0 + (i + 1) * gap
        if dd.sim.now < target:
            dd.run_for(target - dd.sim.now)
        apply_operation(store, stream.next_operation())
    if dd.sim.now < t0 + horizon:
        dd.run_for(t0 + horizon - dd.sim.now)

    nemesis.heal()
    dd.run_for(heal_window if heal_window is not None else (25.0 if quick else 40.0))
    for key, _ in dataset:
        store.get(key, final=True)
    if monitor is not None:
        monitor.finalize()

    history = recorder.history
    violations: List[checkers.Violation] = []
    violations += checkers.check_version_monotonicity(history)
    violations += checkers.check_read_your_writes(history, settle=settle)
    violations += checkers.check_scan_precision(history)
    violations += checkers.check_no_lost_writes(history)
    snapshot = checkers.snapshot_cluster(dd)
    violations += checkers.check_replica_floor(snapshot, history, floor=floor)
    violations += checkers.check_convergence(snapshot, history)
    if monitor is not None:
        violations += check_corruption_healed(history, bound_rounds=bound_rounds)

    errors = sum(1 for op in history.ops if not op.ok)
    stats = {
        "ops": len(history.ops),
        "errors": errors,
        "fault_windows": len(history.fault_windows),
        "extinct_keys": len(history.extinct_keys),
        "permanent_kills": nemesis.kills,
        "virtual_time": round(dd.sim.now, 2),
        "adaptive": {k: v for k, v in adaptive_view(dd).items() if v is not None},
    }
    if monitor is not None:
        stats["corruption"] = monitor.summary()
    return CaseResult(seed=seed, schedule=schedule,
                      violations=violations, stats=stats)


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
def shrink_schedule(
    schedule: NemesisSchedule,
    still_fails: Callable[[NemesisSchedule], bool],
    max_runs: int = 24,
) -> Tuple[NemesisSchedule, int]:
    """Greedy 1-minimal shrink: drop events, then halve durations, as
    long as ``still_fails`` holds. Returns (shrunk schedule, runs used)."""
    current = schedule
    runs = 0
    changed = True
    while changed and runs < max_runs:
        changed = False
        for index in reversed(range(len(current))):
            if len(current) <= 1 or runs >= max_runs:
                break
            candidate = current.without(index)
            runs += 1
            if still_fails(candidate):
                current = candidate
                changed = True
        for index, event in enumerate(current.events):
            if runs >= max_runs:
                break
            if event.duration >= 2.0:
                candidate = current.with_duration(index, round(event.duration / 2, 2))
                runs += 1
                if still_fails(candidate):
                    current = candidate
                    changed = True
    return current, runs


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------
def explore(
    seeds: int,
    seed_base: int = 0,
    *,
    quick: bool = False,
    break_repair: bool = False,
    floor: int = 1,
    shrink: bool = True,
    max_shrink_runs: int = 24,
    progress: Optional[Callable[[str], None]] = None,
    nemesis_mode: str = "stock",
    break_audit: bool = False,
    bound_rounds: int = 8,
) -> Dict[str, Any]:
    """Fuzz ``seeds`` cases; confirm and shrink every failure.

    Returns the JSON-able campaign report (see module docstring)."""
    say = progress if progress is not None else (lambda msg: None)
    report: Dict[str, Any] = {
        "version": 1,
        "quick": quick,
        "break_repair": break_repair,
        "floor": floor,
        "nemesis": nemesis_mode,
        "break_audit": break_audit,
        "bound_rounds": bound_rounds,
        "seeds": [],
        "failures": [],
    }
    for seed in range(seed_base, seed_base + seeds):
        result = run_case(seed, quick=quick, break_repair=break_repair,
                          floor=floor, nemesis_mode=nemesis_mode,
                          break_audit=break_audit, bound_rounds=bound_rounds)
        report["seeds"].append({
            "seed": seed,
            "ok": result.ok,
            "violations": len(result.violations),
            "stats": result.stats,
        })
        if result.ok:
            say(f"seed {seed}: ok ({result.stats['ops']} ops)")
            continue
        say(f"seed {seed}: {len(result.violations)} violation(s), confirming")
        rerun = run_case(seed, schedule=result.schedule, quick=quick,
                         break_repair=break_repair, floor=floor,
                         nemesis_mode=nemesis_mode, break_audit=break_audit,
                         bound_rounds=bound_rounds)
        confirmed = rerun.signature() == result.signature()
        failure: Dict[str, Any] = {
            "seed": seed,
            "confirmed_deterministic": confirmed,
            "schedule": result.schedule.to_dicts(),
            "violations": [v.to_dict() for v in result.violations],
            "stats": result.stats,
        }
        if shrink and confirmed:
            def still_fails(candidate: NemesisSchedule) -> bool:
                return not run_case(seed, schedule=candidate, quick=quick,
                                    break_repair=break_repair, floor=floor,
                                    nemesis_mode=nemesis_mode,
                                    break_audit=break_audit,
                                    bound_rounds=bound_rounds).ok

            shrunk, runs = shrink_schedule(result.schedule, still_fails,
                                           max_runs=max_shrink_runs)
            failure["shrunk_schedule"] = shrunk.to_dicts()
            failure["shrink_runs"] = runs
            say(f"seed {seed}: shrunk {len(result.schedule)} -> "
                f"{len(shrunk)} events in {runs} runs")
        report["failures"].append(failure)
    return report


def replay(artifact: Dict[str, Any],
           progress: Optional[Callable[[str], None]] = None) -> bool:
    """Re-run every failure in a campaign artifact.

    Returns True when *all* recorded failures reproduce (still produce
    violations) — the artifact's promise of deterministic replay."""
    say = progress if progress is not None else (lambda msg: None)
    quick = artifact.get("quick", False)
    break_repair = artifact.get("break_repair", False)
    floor = artifact.get("floor", 1)
    nemesis_mode = artifact.get("nemesis", "stock")
    break_audit = artifact.get("break_audit", False)
    bound_rounds = artifact.get("bound_rounds", 8)
    all_reproduced = True
    for failure in artifact.get("failures", []):
        schedule = NemesisSchedule.from_dicts(
            failure.get("shrunk_schedule") or failure["schedule"])
        result = run_case(failure["seed"], schedule=schedule, quick=quick,
                          break_repair=break_repair, floor=floor,
                          nemesis_mode=nemesis_mode, break_audit=break_audit,
                          bound_rounds=bound_rounds)
        reproduced = not result.ok
        all_reproduced = all_reproduced and reproduced
        say(f"seed {failure['seed']}: "
            f"{'reproduced' if reproduced else 'DID NOT reproduce'} "
            f"({len(result.violations)} violation(s))")
    return all_reproduced
