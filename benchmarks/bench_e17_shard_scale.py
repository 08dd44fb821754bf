"""E17 — sharded simulation scale + vectorised sieve admission.

Three cells:

* scale — the stock dissemination-into-sieve-stores workload at a
  moderate N, once single-process and once sharded, reporting wall
  times and the speedup (or, on starved CI machines, the slowdown —
  the table records usable CPUs so the trajectory is interpretable).
* determinism — the sharded run must be byte-identical to the
  single-process reference with Cyclon churn and message loss on.
  This is a hard assert, machine-independent.
* sieve — batched admission vs per-item ``sieve.admits`` over a
  100k-key batch; hard-asserts bit-identical admissions and a >=3x
  steady-state speedup for the batched path.

Paper-scale N (50k-100k nodes) is exercised by ``repro bench e17``,
not here — CI benches stay minutes-not-hours.
"""

import pickle

from repro.sim.shardbench import (
    measure_scale,
    scale_completed,
    sieve_gates,
    usable_cpus,
    verify_determinism,
)
from repro.sieve.vectorized import measure_admission

from _helpers import print_table, run_once, stash, write_artifact

N_SCALE = 4000
N_DETERMINISM = 200
SHARDS = 2


def test_e17_sharded_scale(benchmark):
    def experiment():
        # sharded first: fork before the parent owns a dead N-node graph
        sharded = measure_scale(N_SCALE, SHARDS, duration=2.5, seed=42)
        single = measure_scale(N_SCALE, 1, duration=2.5, seed=42)
        return {
            "n_nodes": N_SCALE,
            "shards": SHARDS,
            "cpus": usable_cpus(),
            "single_wall_s": single.wall_seconds,
            "sharded_wall_s": sharded.wall_seconds,
            "speedup": single.wall_seconds / sharded.wall_seconds,
            "identical": pickle.dumps(single.canonical()) == pickle.dumps(sharded.canonical()),
            "replicas": single.canonical()["data"]["replicas"],
        }

    row = run_once(benchmark, experiment)
    print_table(
        "E17a — sharded scale run (dissemination into sieve-filtered stores)",
        ["nodes", "shards", "cpus", "single s", "sharded s", "speedup", "identical"],
        [(row["n_nodes"], row["shards"], row["cpus"], row["single_wall_s"],
          row["sharded_wall_s"], row["speedup"], row["identical"])],
    )
    stash(benchmark, "scale", [row])
    write_artifact("e17_scale", row, gates={"identical": row["identical"]})
    assert row["identical"], "sharded scale run diverged from single-process"
    # replicas must exist and be non-degenerate (sieve admission ran)
    assert scale_completed(row["replicas"])


def test_e17_determinism_under_faults(benchmark):
    def experiment():
        return verify_determinism(N_DETERMINISM, SHARDS, duration=5.0)

    out = run_once(benchmark, experiment)
    single = out["single"]
    print_table(
        "E17b — determinism cross-check (Cyclon + churn + 5% loss)",
        ["nodes", "shards", "identical", "crashes", "loss drops"],
        [(N_DETERMINISM, SHARDS, out["identical"],
          single["data"]["crashes"], single["counters"]["net.dropped.loss"])],
    )
    stash(benchmark, "determinism", [out["single"]])
    assert out["identical"], "sharded churn run diverged from single-process"
    assert single["counters"]["net.dropped.loss"] > 0  # faults actually on


def test_e17_vectorised_sieve(benchmark):
    def experiment():
        return measure_admission(n_keys=100_000)

    row = run_once(benchmark, experiment)
    print_table(
        f"E17c — sieve admission over {row['n_keys']:,} keys (steady state)",
        ["path", "seconds", "speedup"],
        [("scalar", row["scalar_seconds"], 1.0),
         ("batch", row["batch_seconds"], row["speedup"])],
    )
    stash(benchmark, "sieve", [row])
    # bit-identical admissions and a >= 3x batched speedup
    gates = sieve_gates(row)
    write_artifact("e17_sieve", row, gates=gates)
    assert all(gates.values()), gates
