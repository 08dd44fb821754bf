"""E19 — graceful degradation under multi-tenant overload.

One cell: the production-traffic workload (gold/silver steady tenants
with declared p99 SLOs plus a bulk aggressor with a moving Zipf hotspot
and a mid-run flash crowd) is driven open-loop through the per-tenant
admission gate at 1x and at 2x the base rate, with an ungated control
at the same 2x. The gates assert the SLO-plane contract: the overload
is real (offered beyond dispatch capacity), total goodput degrades
gracefully, the in-SLO tenants keep their declared p99 while the bulk
aggressor absorbs the shedding, and the unprotected control collapses.

The full-size run is ``repro bench e19 --check``; this cell uses the CI
smoke scale (24 storage nodes, 8 virtual seconds per cell).
"""

from repro.obs.slobench import SloBenchConfig, measure_graceful_degradation

from _helpers import print_table, run_once, stash

CFG = SloBenchConfig(nodes=24, soft=3, seed=42, duration=8.0, rate=80.0,
                     drain=4.0)


def test_e19_overload_degrades_gracefully(benchmark):
    def experiment():
        return measure_graceful_degradation(CFG)

    doc = run_once(benchmark, experiment)
    rows = [
        (label,
         f"{cell['goodput']:.1f}",
         f"{(cell['tenants'].get('gold', {}).get('p99') or 0) * 1000:.0f}ms",
         f"{(cell['tenants'].get('silver', {}).get('p99') or 0) * 1000:.0f}ms",
         f"{cell['shed'].get('bulk', 0):g}",
         f"{cell['queue_depth_max']:.1f}")
        for label, cell in doc["cells"].items()
    ]
    print_table(
        "E19 — per-tenant SLOs under 2x overload (gated vs ungated)",
        ["cell", "goodput/s", "p99 gold", "p99 silver", "shed bulk", "qmax"],
        rows,
    )
    stash(benchmark, "cells", rows)
    assert doc["passed"], doc["gates"]
