"""E17 — dissemination at scale on the plain simulator.

Two cells:

* scale — the stock dissemination-into-sieve-stores workload at a
  moderate N, reporting wall time, events and per-item replica counts.
* determinism — two same-seed runs with Cyclon churn and message loss
  on must give identical summaries. This is a hard assert,
  machine-independent.

Paper-scale N (50k-100k nodes) is exercised by ``repro bench e17``,
not here — CI benches stay minutes-not-hours.
"""

from repro.sim.scalebench import (
    ChurnGossipProgram,
    GossipScaleProgram,
    run_program,
    scale_completed,
)

from _helpers import print_table, run_once, stash, write_artifact

N_SCALE = 4000
N_DETERMINISM = 200


def test_e17_scale(benchmark):
    def experiment():
        result = run_program(GossipScaleProgram(), N_SCALE, 2.5, seed=42)
        summary = result["summary"]
        return {
            "n_nodes": N_SCALE,
            "wall_s": result["wall_seconds"],
            "events": summary["events"],
            "messages": summary["counters"]["net.sent.total"],
            "replicas": summary["data"]["replicas"],
        }

    row = run_once(benchmark, experiment)
    print_table(
        "E17a — scale run (dissemination into sieve-filtered stores)",
        ["nodes", "wall s", "events", "messages", "replicas/item"],
        [(row["n_nodes"], row["wall_s"], row["events"], row["messages"],
          sorted(int(v) for v in row["replicas"].values()))],
    )
    stash(benchmark, "scale", [row])
    completed = scale_completed(row["replicas"])
    write_artifact("e17_scale", row, gates={"scale_completed": completed})
    assert completed


def test_e17_determinism_under_faults(benchmark):
    def experiment():
        return [run_program(ChurnGossipProgram(), N_DETERMINISM, 5.0, seed=8,
                            loss_rate=0.05)["summary"] for _ in range(2)]

    first, second = run_once(benchmark, experiment)
    print_table(
        "E17b — same-seed determinism (Cyclon + churn + 5% loss)",
        ["nodes", "identical", "crashes", "loss drops"],
        [(N_DETERMINISM, first == second,
          first["data"]["crashes"], first["counters"]["net.dropped.loss"])],
    )
    stash(benchmark, "determinism", [first])
    assert first == second, "same-seed churn runs diverged"
    assert first["counters"]["net.dropped.loss"] > 0  # faults actually on
    assert first["data"]["crashes"] > 0
