"""Self-tests of the benchmark (not part of the tier-1 suite).

    python3 -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import shims  # noqa: E402
import simhost  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOAD_BY_NAME, WORKLOADS, benchmark_json  # noqa: E402
from workloads import Oracle, make_ops  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _results(stdout: str):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith('{"correct"')]


def test_benchmark_json_is_what_spec_generates_and_fits_the_contract():
    declared = _declared()
    assert declared == benchmark_json()
    assert set(declared) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declared["workloads"])
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in declared[key]]
    assert all(NAME.fullmatch(n) for n in names) and len(set(names)) == len(names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in declared["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])


def test_smoke_suite_emits_every_end_to_end_metric_with_its_unit():
    done = subprocess.run(RUN + ["--smoke"], stdout=subprocess.PIPE, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-2000:]
    results = _results(done.stdout)
    assert len(results) == len(WORKLOADS)
    for result in results:
        assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
        assert {n: v["unit"] for n, v in result["metrics"].items()} == {m.name: m.unit for m in END_TO_END}
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert done.stdout.splitlines()[-1].startswith('{"correct"')


def test_smoke_traced_run_emits_every_per_layer_metric():
    for workload in ("sim_churn", "udp_mixed"):
        done = subprocess.run(RUN + ["--smoke", "--trace", "1", "--workload", workload],
                              stdout=subprocess.PIPE, text=True, timeout=170)
        assert done.returncode == 0, done.stdout[-2000:]
        (result,) = _results(done.stdout)
        assert result["correct"]
        assert {n: v["unit"] for n, v in result["metrics"].items()} == {m.name: m.unit for m in PER_LAYER}
        on_udp = workload == "udp_mixed"
        for name, value in result["metrics"].items():
            if name.startswith(("common.codec.", "runtime.")):
                assert (value["value"] > 0) == on_udp, name
        assert os.path.exists(os.path.join(HERE, "out", f"trace_{workload}.jsonl"))


def test_traced_self_times_fit_in_host_time_and_shims_are_removed():
    from repro.sim.network import Network
    from repro.sim.node import Node
    from repro.store.memtable import Memtable

    watched = [(Node, "handle_message"), (Node, "set_timer"), (Network, "send"), (Memtable, "put")]
    before = [vars(owner)[attr] for owner, attr in watched]
    recorder = shims.SpanRecorder()
    shims.install_sim(recorder)
    try:
        assert [vars(owner)[attr] for owner, attr in watched] != before
        rep = simhost.run_rep(WORKLOAD_BY_NAME["sim_write"], seed=3, seconds=1.5, smoke=True,
                              recorder=recorder)
    finally:
        recorder.remove()
    assert recorder.installed == 0
    assert [vars(owner)[attr] for owner, attr in watched] == before
    spans = rep["spans"]
    assert {"sim.net", "handler.gossip", "facade.put"} <= set(spans)
    assert sum(self_ns for _, self_ns in spans.values()) / 1e9 <= rep["host_s"]
    assert rep["lost"] == 0 and rep["failed"] == 0
    assert recorder.records and all(r[2] >= r[1] > 0 for r in recorder.records)


def test_oracle_catches_a_wrong_read():
    oracle = Oracle()
    good, stale, maybe = {"score": 1.0, "pad": "a"}, {"score": 2.0, "pad": "b"}, {"score": 3.0, "pad": "c"}
    oracle.ack("k", good)
    assert oracle.read_ok("k", dict(good)) and not oracle.read_ok("k", stale)
    assert not oracle.read_ok("k", None) and oracle.read_ok("never-written", None)
    oracle.unsure("k", maybe)  # a put that raised: either value is acceptable ...
    assert oracle.read_ok("k", maybe) and oracle.read_ok("k", good)
    oracle.ack("k", stale)  # ... until the next acked put
    assert not oracle.read_ok("k", maybe)

    class WrongFacade:
        def get(self, key):
            return {"score": -1.0, "pad": "not what was written"}

    assert simhost._apply(WrongFacade(), ("get", "k"), oracle) == (False, 0, 0)


def test_same_seed_same_inputs_and_a_fixed_mix():
    workload = WORKLOAD_BY_NAME["sim_read"]
    keys = [f"k{i:05d}" for i in range(50)]
    assert make_ops(workload, 7, 100, keys) == make_ops(workload, 7, 100, keys)
    assert make_ops(workload, 7, 100, keys) != make_ops(workload, 8, 100, keys)
    for seed in (7, 8):
        kinds = [op[0] for op in make_ops(workload, seed, 100, keys)]
        assert {k: kinds.count(k) for k in set(kinds)} == {"get": 90, "put": 4, "multi_get": 4, "scan": 2}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "benchmarks/perf/run.py", "--workload", "sim_write",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode != 0 and not _results(done.stdout)
