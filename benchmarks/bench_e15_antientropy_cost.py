"""E15 — Anti-entropy reconciliation cost: full-digest baseline vs bucketed digests.

The paper targets a "very large scale" persistent layer (§III-A) whose
slow-but-certain repair channel is anti-entropy. The full-digest
exchange (``repro.baselines.fulldigest``; "legacy" below) ships a full
O(store) digest in both directions every round, so repair bandwidth
grows with store size even when replicas barely differ. The system's
bucketed three-phase exchange (summaries → scoped digests → items)
makes the wire cost proportional to *divergence*:

* E15a: digest bytes/round across store sizes at fixed low divergence —
  the acceptance gate is >= 5x reduction at 10k items / <= 1% divergence,
  with byte-identical post-convergence stores on both paths.
* E15b: cost across divergence fractions at fixed store size — bucketed
  degrades gracefully toward the legacy cost as divergence grows.
"""

from repro.epidemic.costbench import measure_antientropy_cost

from _helpers import print_table, run_once, stash

DIVERGENCE = 0.01
SIZES = (1_000, 10_000)
FRACTIONS = (0.001, 0.01, 0.1)


def _pair(n_items: int, divergence: float):
    legacy = measure_antientropy_cost(n_items, divergence, bucketed=False)
    bucketed = measure_antientropy_cost(n_items, divergence, bucketed=True)
    return legacy, bucketed


def test_e15_digest_cost_vs_store_size(benchmark):
    def experiment():
        rows = []
        for n_items in SIZES:
            legacy, bucketed = _pair(n_items, DIVERGENCE)
            assert legacy["identical"] and bucketed["identical"]
            rows.append((
                n_items,
                legacy["digest_bytes_per_round"],
                bucketed["digest_bytes_per_round"],
                legacy["digest_bytes_per_round"] / bucketed["digest_bytes_per_round"],
                legacy["converged_at"],
                bucketed["converged_at"],
                legacy["wall_s"],
                bucketed["wall_s"],
            ))
        print_table(
            f"E15a — digest bytes/round at {DIVERGENCE:.1%} divergence "
            "(two replicas, 8 anti-entropy periods)",
            ["items", "legacy B/round", "bucketed B/round", "reduction x",
             "legacy conv (s)", "bucketed conv (s)", "legacy wall (s)", "bucketed wall (s)"],
            rows,
        )
        return rows

    rows = run_once(benchmark, experiment)
    stash(benchmark, "size_sweep", [
        dict(zip(["items", "legacy", "bucketed", "x", "conv_l", "conv_b", "wall_l", "wall_b"], r))
        for r in rows
    ])
    # Acceptance gate: >= 5x digest-byte reduction at 10k items, <= 1%
    # divergence, identical converged contents (asserted per cell above).
    big = next(r for r in rows if r[0] == 10_000)
    assert big[3] >= 5.0
    # Both paths must actually converge within the run.
    assert all(r[4] is not None and r[5] is not None for r in rows)


def test_e15_digest_cost_vs_divergence(benchmark):
    def experiment():
        rows = []
        n_items = 5_000
        for fraction in FRACTIONS:
            legacy, bucketed = _pair(n_items, fraction)
            assert legacy["identical"] and bucketed["identical"]
            rows.append((
                fraction,
                legacy["digest_bytes_per_round"],
                bucketed["digest_bytes_per_round"],
                legacy["digest_bytes_per_round"] / bucketed["digest_bytes_per_round"],
                bucketed["items_bytes"],
                legacy["items_bytes"],
            ))
        print_table(
            f"E15b — digest bytes/round vs divergence ({n_items} items)",
            ["divergence", "legacy B/round", "bucketed B/round", "reduction x",
             "bucketed item B", "legacy item B"],
            rows,
        )
        return rows

    rows = run_once(benchmark, experiment)
    stash(benchmark, "divergence_sweep", [
        dict(zip(["divergence", "legacy", "bucketed", "x", "items_b", "items_l"], r))
        for r in rows
    ])
    # Reduction shrinks as divergence grows (cost tracks divergence) but
    # the bucketed path never ships MORE digest bytes than legacy here.
    reductions = [r[3] for r in rows]
    assert reductions == sorted(reductions, reverse=True)
    assert all(x > 1.0 for x in reductions)
