"""Tests for the command-line interface."""

import json
import os
import shlex

import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.sim.scalebench import scale_completed as _scale_completed


class TestParser:
    def test_info_parses(self):
        args = build_parser().parse_args(["info"])
        assert args.command == "info"

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.nodes == 60
        assert args.replication == 4

    def test_churn_options(self):
        args = build_parser().parse_args(["churn", "--rate", "2.5", "-n", "20"])
        assert args.rate == 2.5
        assert args.nodes == 20

    def test_estimate_options(self):
        args = build_parser().parse_args(["estimate", "-k", "128"])
        assert args.k == 128

    def test_bench_e17_options(self):
        args = build_parser().parse_args(
            ["bench", "e17", "--nodes", "5000", "--cross-check-n", "300", "--check"])
        assert args.experiment == "e17"
        assert args.nodes == 5000
        assert args.cross_check_n == 300
        for gone in ("--shards", "--min-speedup"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["bench", "e17", gone, "2"])

    def test_sim_command_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sim", "-n", "800"])

    # One flag per experiment that the experiment does not read.
    @pytest.mark.parametrize("argv", [
        ["e05b", "--cross-check-n", "2"],
        ["e06", "--items", "10"],
        ["e15", "--cross-check-n", "2"],
        ["e16", "--lookups", "5"],
        ["e17", "--stretch"],
        ["e18", "--nodes", "5"],
        ["e19", "--divergence", "0.1"],
    ])
    def test_bench_rejects_flags_the_experiment_does_not_read(self, argv):
        assert argv[0] in EXPERIMENTS
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", *argv])

    # What each CI ``repro bench`` line ran with before every experiment
    # had its own flags (one shared parser, shared ``--seed`` default 7).
    CI_PARAMS = {
        "e05b": dict(nodes=200, seed=7, churn_rate=None, window=12.0, lookups=120,
                     mesh_cap=300),
        "e06": dict(nodes=32, seed=7, churn_duration=150.0, heal_duration=50.0,
                    mean_lifetime=150.0),
        "e15": dict(items=2000, divergence=0.01, buckets=256, seed=7),
        "e16": dict(items=60, nodes=12, fanout=8, seed=7),
        "e17": dict(nodes=3000, duration=2.0, cross_check_n=300, seed=7),
        "e18": dict(seed=7),
        "e19": dict(nodes=24, soft=3, seed=42, slo_duration=8.0, rate=80.0,
                    overload=2.0, trace_out="e19_trace.jsonl"),
    }

    def test_ci_bench_lines_parse_to_their_values(self):
        ci = os.path.join(os.path.dirname(__file__), "..", ".github", "workflows", "ci.yml")
        with open(ci) as fh:
            lines = [line.split("python -m repro ", 1)[1] for line in fh
                     if "python -m repro bench " in line]
        seen = set()
        for line in lines:
            args = build_parser().parse_args(shlex.split(line))
            params = {k: v for k, v in vars(args).items()
                      if k not in ("command", "experiment", "check", "fn")}
            assert args.check
            assert params == self.CI_PARAMS[args.experiment], line
            seen.add(args.experiment)
        assert seen == set(EXPERIMENTS)

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExecution:
    def test_info_runs(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "DSN 2011" in out
        assert all(bench_id in out for bench_id in EXPERIMENTS)

    def test_estimate_runs_small(self, capsys):
        assert main(["estimate", "-n", "30", "-k", "16"]) == 0
        out = capsys.readouterr().out
        assert "true 30" in out

    def test_churn_runs_small(self, capsys):
        assert main(["churn", "-n", "12", "-r", "3", "--rate", "0.2",
                     "--duration", "10"]) == 0
        out = capsys.readouterr().out
        assert "read availability" in out

    def test_bench_e15_small_check_writes_artifact(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        status = main(["bench", "e15", "-n", "200", "--check"])
        doc = json.loads((tmp_path / "BENCH_e15.json").read_text())
        # 200 items is below the 2x gate's scale: the exit code follows it
        assert status == (0 if doc["passed"] else 1)
        assert ("check: ok" in capsys.readouterr().out) == doc["passed"]
        assert sorted(doc["metrics"]) == ["cells", "digest_reduction", "divergence", "items"]
        assert sorted(doc["gates"]) == ["both_converged", "digest_reduction_2x",
                                        "stores_identical"]

    def test_bench_e17_small_check_writes_artifact(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        status = main(["bench", "e17", "--nodes", "400",
                       "--duration", "1.5", "--cross-check-n", "80", "--check"])
        out = capsys.readouterr().out
        assert "determinism cross-check" in out and "identical" in out
        assert "check: ok" in out
        doc = json.loads((tmp_path / "BENCH_e17.json").read_text())
        # both gates are virtual-time facts, so the run must pass
        assert status == 0 and doc["passed"]
        assert sorted(doc["gates"]) == ["determinism_identical", "scale_completed"]
        assert doc["gates"]["determinism_identical"] is True
        assert doc["metrics"]["n_nodes"] == 400
        # the scale gate reads the run's replica map, so it can fail
        assert doc["gates"]["scale_completed"] is True
        assert not _scale_completed({})
        assert not _scale_completed({**doc["metrics"]["replicas"], "item-x": 0})
