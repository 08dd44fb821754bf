"""E5 — Availability under churn: DataDroplets vs a structured DHT (C5).

The paper's core argument: structured overlays assume a moderately
stable environment; at scale, churn is the norm and their reactive
maintenance both costs traffic and opens availability windows, while the
epidemic substrate degrades gracefully.

Both systems get the same replication target, workload, latency model
and churn process. Reported per churn rate: read success fraction and
maintenance messages. Expected shape: comparable at zero churn; as churn
grows the DHT's availability falls faster and its repair traffic climbs,
while DataDroplets stays near-flat.
"""

from repro import DataDroplets, DataDropletsConfig, TimeoutError_, UnavailableError
from repro.baselines import DhtConfig, DhtStore, UnavailableInDht
from repro.sim.sweep import SweepCell, require_ok, run_sweep

from _helpers import print_table, run_once, stash

N_STORAGE = 40
KEYS = 25
READ_ROUNDS = 2
REPLICATION = 4
MEASURE_SECONDS = 90.0


def availability_cell(config: dict, seed: int) -> dict:
    """Sweep cell: one (system, churn rate) availability measurement.

    Module-level so the parallel sweep runner can ship it to workers;
    both systems share the same grid so the whole experiment is one
    2 x len(churn rates) sweep.
    """
    runner = _run_datadroplets if config["system"] == "dd" else _run_dht
    availability, messages = runner(config["churn_rate"], seed)
    return {"availability": availability, "messages": messages}


def _run_datadroplets(churn_rate: float, seed: int):
    dd = DataDroplets(DataDropletsConfig(
        seed=seed, n_storage=N_STORAGE, n_soft=2, replication=REPLICATION,
    )).start(warmup=15.0)
    for i in range(KEYS):
        dd.put(f"k{i}", {"v": i})
    dd.run_for(20.0)
    base_msgs = dd.metrics.counter_value("net.sent.total")
    churn = None
    if churn_rate > 0:
        churn = dd.churn(event_rate=churn_rate, mean_downtime=15.0)
        churn.start()
    dd.run_for(MEASURE_SECONDS / 2)
    ok = attempts = 0
    for _ in range(READ_ROUNDS):
        for i in range(KEYS):
            attempts += 1
            try:
                if dd.get(f"k{i}") == {"v": i}:
                    ok += 1
            except (UnavailableError, TimeoutError_):
                pass
        dd.run_for(MEASURE_SECONDS / (2 * READ_ROUNDS))
    if churn is not None:
        churn.stop()
    messages = dd.metrics.counter_value("net.sent.total") - base_msgs
    return ok / attempts, messages


def _run_dht(churn_rate: float, seed: int):
    dht = DhtStore(DhtConfig(
        seed=seed, n_nodes=N_STORAGE, replication=REPLICATION,
        ping_period=2.0, ping_timeout=1.0, client_timeout=8.0,
    )).start(warmup=10.0)
    for i in range(KEYS):
        dht.put(f"k{i}", {"v": i})
    dht.run_for(20.0)
    base_msgs = dht.metrics.counter_value("net.sent.total")
    churn = None
    if churn_rate > 0:
        churn = dht.churn(event_rate=churn_rate, mean_downtime=15.0)
        churn.start()
    dht.run_for(MEASURE_SECONDS / 2)
    ok = attempts = 0
    for _ in range(READ_ROUNDS):
        for i in range(KEYS):
            attempts += 1
            try:
                if dht.get(f"k{i}") == {"v": i}:
                    ok += 1
            except (UnavailableInDht, TimeoutError_):
                pass
        dht.run_for(MEASURE_SECONDS / (2 * READ_ROUNDS))
    if churn is not None:
        churn.stop()
    messages = dht.metrics.counter_value("net.sent.total") - base_msgs
    return ok / attempts, messages


def test_e05_availability_under_churn(benchmark):
    def experiment():
        churn_rates = (0.0, 0.3, 1.0)
        cells = [
            SweepCell({"system": system, "churn_rate": rate}, seed=500 + int(rate * 10))
            for rate in churn_rates
            for system in ("dd", "dht")
        ]
        results = require_ok(run_sweep(availability_cell, cells))
        by_cell = {(cell.config["system"], cell.config["churn_rate"]): r.result
                   for cell, r in zip(cells, results)}
        rows = [
            (rate,
             by_cell[("dd", rate)]["availability"], by_cell[("dht", rate)]["availability"],
             by_cell[("dd", rate)]["messages"], by_cell[("dht", rate)]["messages"])
            for rate in churn_rates
        ]
        print_table(
            f"E5 — read availability vs churn rate (N={N_STORAGE}, r={REPLICATION}, "
            f"mean downtime 15s)",
            ["churn (events/s)", "DataDroplets avail", "DHT avail",
             "DD msgs", "DHT msgs"],
            rows,
        )
        return rows

    rows = run_once(benchmark, experiment)
    stash(benchmark, "rows", [
        dict(zip(["churn", "dd_avail", "dht_avail", "dd_msgs", "dht_msgs"], r)) for r in rows
    ])

    by_rate = {r[0]: r for r in rows}
    # both healthy with no churn
    assert by_rate[0.0][1] >= 0.95
    assert by_rate[0.0][2] >= 0.95
    # under heavy churn the epidemic substrate stays near-flat...
    assert by_rate[1.0][1] >= 0.9
    # ...and beats the structured baseline
    assert by_rate[1.0][1] >= by_rate[1.0][2]
