"""E18 — self-stabilisation under state corruption.

Two cells:

* heal — corruption-nemesis checking campaigns over a few stock seeds:
  version flips, poisoned bucket summaries, sieve desyncs and fallback
  truncations injected into live clusters. Hard-asserts 100% detection,
  100% healing within the anti-entropy round bound, and zero checker
  violations; the per-kind heal-round histogram is the headline table.
* control — the positive control: with the periodic state audit
  disabled, a poisoned summary whose per-key versions still agree has
  no heal path, so the convergence checker *must* fire. A quiet run
  here means the checker is broken, not the system self-stabilising.

The wider 25-seed acceptance campaign is exercised by
``repro check --nemesis corruption``; CI benches stay minutes-not-hours.
"""

from repro.check.explorer import run_case
from repro.check import stabbench

from _helpers import print_table, run_once, stash, write_artifact

SEEDS = 3
BOUND = 8


def test_e18_corruptions_heal_within_bound(benchmark):
    def experiment():
        return stabbench.measure_selfstabilisation(seeds=SEEDS, bound_rounds=BOUND)

    cell = run_once(benchmark, experiment)
    rows = [
        (kind, agg["injected"], agg["detected"], agg["healed"],
         agg["max_rounds"],
         " ".join(f"{r}r:{n}" for r, n in sorted(
             agg["heal_rounds"].items(), key=lambda kv: int(kv[0]))))
        for kind, agg in sorted(cell["by_kind"].items())
    ]
    print_table(
        "E18a — bounded-time convergence after state corruption",
        ["kind", "injected", "detected", "healed", "max rounds", "histogram"],
        rows,
    )
    stash(benchmark, "heal", rows)
    gates = stabbench.gates(cell)
    write_artifact("e18_heal", cell, gates=gates)
    assert all(gates.values()), gates


def test_e18_break_audit_control_fires(benchmark):
    def experiment():
        # seed 2's quick schedule includes a poison_summary event — the
        # kind whose only heal path is the audit being ablated here.
        result = run_case(2, quick=True, nemesis_mode="corruption",
                          break_audit=True, bound_rounds=BOUND)
        return {
            "violations": len(result.violations),
            "checkers": sorted({v.checker for v in result.violations}),
            "corruption": result.stats.get("corruption", {}),
        }

    out = run_once(benchmark, experiment)
    print_table(
        "E18b — positive control (state audit ablated)",
        ["violations", "checkers"],
        [(out["violations"], ",".join(out["checkers"]))],
    )
    stash(benchmark, "control", [out])
    write_artifact("e18_control", out,
                   gates={"violation_fired": out["violations"] > 0})
    assert out["violations"] > 0, \
        "audit ablation produced no violation — the corruption checker is blind"
    assert "corruption_healed" in out["checkers"]
