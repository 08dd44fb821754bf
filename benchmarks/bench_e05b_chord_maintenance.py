"""E5b — routing three-way: Chord vs heartbeat mesh vs single-hop (§I).

"Structure maintenance in a dynamic environment is hard because several
invariants need to be observed and costly as repair mechanisms are
reactive and thus induce an overhead proportional to churn."

Compares the three ways this repo can find a key's coordinator, at the
same population size under PoissonChurn:

* **chord** — multi-hop baseline: cheap maintenance, O(log N) hops.
* **mesh** — the legacy heartbeat mesh: one-hop routing but O(N)
  maintenance per node (measured up to a cap, then extrapolated —
  the per-node cost is exactly linear in peers).
* **onehop** — the D1HT-style single-hop tier: one-hop routing with
  epidemically disseminated membership events, maintenance within a
  small constant of Chord's.

The shape to reproduce: single-hop routing keeps the mesh's one-hop
lookups at (close to) Chord's maintenance price. Population size is
parametrised via ``E05B_NODES`` (default 200 — CI-friendly; the CLI
``repro bench e05b --check`` runs the full gate at N=1000).

Rings are built warm (chord successor/finger tables preloaded, the
one-hop table seeded from the known population) so N is not limited by
serial join storms.
"""

import os

from repro.baselines.routebench import gate_results, three_way

from _helpers import print_table, run_once, stash

N = int(os.environ.get("E05B_NODES", "200"))
LOOKUPS = int(os.environ.get("E05B_LOOKUPS", "120"))


def test_e05b_routing_three_way(benchmark):
    def experiment():
        return three_way(
            N,
            seed=550,
            maintenance_window=15.0,
            lookups=LOOKUPS,
            mesh_cap=min(N, 300),
        )

    rows = run_once(benchmark, experiment)
    table = [
        (
            mode,
            row.simulated_nodes,
            row.mean_hops,
            row.one_hop_fraction,
            row.p50_latency_ms,
            row.p99_latency_ms,
            row.maint_bytes_per_node_s,
            "yes" if row.extrapolated else "no",
        )
        for mode, row in ((m, rows[m]) for m in ("chord", "mesh", "onehop"))
    ]
    print_table(
        f"E5b — routing three-way (N={N}, lookups={LOOKUPS})",
        ["mode", "simulated", "mean hops", "one-hop frac",
         "p50 ms", "p99 ms", "maint B/node/s", "extrapolated"],
        table,
    )
    stash(benchmark, "rows", [
        dict(zip(["mode", "simulated", "hops", "onehop_frac", "p50", "p99",
                  "bytes", "extrapolated"], r)) for r in table
    ])
    gates = gate_results(rows)
    chord, mesh, onehop = rows["chord"], rows["mesh"], rows["onehop"]
    # The mesh pays O(N) per node — the cost single-hop removes.
    assert mesh.maint_bytes_per_node_s > 2.0 * onehop.maint_bytes_per_node_s
    # One-hop's p99 latency beats chord's p50: fewer hops, less tail.
    assert onehop.p99_latency_ms < chord.p99_latency_ms
    # >= 99% one-hop lookups, the hop win vs chord (4x at N >= 1000,
    # log-scaled below) and maintenance within 3x of chord's.
    assert all(gates.values()), gates
