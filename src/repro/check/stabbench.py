"""Experiment E18: self-stabilisation under state corruption.

Drives the corruption-nemesis checking campaign (`repro check
--nemesis corruption`) as a measured experiment cell: over a handful of
stock seeds, inject version flips, poisoned bucket summaries, sieve
desyncs and fallback truncations into a live cluster and aggregate the
:class:`~repro.check.corruption.ConvergenceMonitor`'s annotations into
per-kind heal-latency histograms. The paper's dependability story
requires the epidemic substrate to be *self-stabilising*: every
divergence its own digests/audits/echoes can express must be detected
and repaired within a bounded number of anti-entropy rounds, with no
consistency checker firing along the way. ``repro bench e18`` runs it
through :func:`run` / :func:`render`.
"""

from __future__ import annotations

import time
from typing import Any, Dict

from repro.check.explorer import run_case


def measure_selfstabilisation(
    seeds: int = 5,
    seed_base: int = 0,
    *,
    quick: bool = True,
    bound_rounds: int = 8,
) -> Dict[str, Any]:
    """Run ``seeds`` corruption campaigns; aggregate detection/heal stats.

    Returns a JSON-able cell with per-kind ``{injected, detected,
    healed, heal_rounds histogram, max_rounds}``, campaign totals, and
    the count of checker violations across all cases (the gate demands
    zero)."""
    t0 = time.perf_counter()
    by_kind: Dict[str, Dict[str, Any]] = {}
    violations = 0
    cases = []
    for seed in range(seed_base, seed_base + seeds):
        result = run_case(seed, quick=quick, nemesis_mode="corruption",
                          bound_rounds=bound_rounds)
        violations += len(result.violations)
        summary = result.stats.get("corruption", {})
        cases.append({
            "seed": seed,
            "ok": result.ok,
            "injected": summary.get("injected", 0),
            "violations": len(result.violations),
        })
        for kind, cell in summary.get("by_kind", {}).items():
            agg = by_kind.setdefault(kind, {
                "injected": 0, "detected": 0, "healed": 0,
                "heal_rounds": {}, "max_rounds": 0,
            })
            agg["injected"] += cell["injected"]
            agg["detected"] += cell["detected"]
            agg["healed"] += cell["healed"]
            for rounds, n in cell["heal_rounds"].items():
                agg["heal_rounds"][rounds] = agg["heal_rounds"].get(rounds, 0) + n
            agg["max_rounds"] = max(agg["max_rounds"], cell["max_rounds"])
    return {
        "seeds": seeds,
        "seed_base": seed_base,
        "quick": quick,
        "bound_rounds": bound_rounds,
        "injected": sum(b["injected"] for b in by_kind.values()),
        "detected": sum(b["detected"] for b in by_kind.values()),
        "healed": sum(b["healed"] for b in by_kind.values()),
        "max_rounds": max((b["max_rounds"] for b in by_kind.values()), default=0),
        "violations": violations,
        "by_kind": by_kind,
        "cases": cases,
        "wall_s": time.perf_counter() - t0,
    }


def gates(result: Dict[str, Any]) -> Dict[str, bool]:
    """The e18 gates over a :func:`measure_selfstabilisation` cell."""
    return {
        "corruptions_injected": result["injected"] > 0,
        "all_detected": result["detected"] == result["injected"],
        "all_healed": result["healed"] == result["injected"],
        "healed_within_bound": result["max_rounds"] <= result["bound_rounds"],
        "no_violations": result["violations"] == 0,
    }


def run(*, seed: int = 7) -> Dict[str, Any]:
    """Self-stabilisation under state corruption.

    Five quick corruption-nemesis campaigns from stock seed ``seed`` on.
    Every injected corruption (version flips, poisoned summaries, sieve
    desync, fallback truncation) must be detected by the system's own
    protocols and healed within 8 anti-entropy rounds, with zero checker
    violations; the per-kind heal-round histogram is the headline figure.
    """
    result = measure_selfstabilisation(seeds=5, seed_base=seed, bound_rounds=8)
    checks = gates(result)
    return {"metrics": result, "gates": checks, "passed": all(checks.values())}


def render(doc: Dict[str, Any]) -> str:
    result = doc["metrics"]
    lines = []
    for kind, cell in sorted(result["by_kind"].items()):
        hist = ", ".join(f"{r}r:{n}" for r, n in sorted(
            cell["heal_rounds"].items(), key=lambda kv: int(kv[0])))
        lines.append(f"  {kind:<18} injected {cell['injected']:>2}  "
                     f"detected {cell['detected']:>2}  healed {cell['healed']:>2}  "
                     f"rounds [{hist or '-'}]")
    lines.append(f"  total: {result['injected']} injected, "
                 f"{result['detected']} detected, {result['healed']} healed, "
                 f"max {result['max_rounds']} round(s), "
                 f"{result['violations']} checker violation(s), "
                 f"wall {result['wall_s']:.1f}s")
    return "\n".join(lines)
