"""Tests for the command-line interface."""

import pytest

from repro.cli import _scale_completed, build_parser, main


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

    def test_sim_options(self):
        args = build_parser().parse_args(
            ["sim", "-n", "800", "--shards", "2", "--cross-check"])
        assert args.nodes == 800
        assert args.shards == 2
        assert args.cross_check

    def test_bench_e17_options(self):
        args = build_parser().parse_args(
            ["bench", "e17", "--shards", "2", "--nodes", "5000",
             "--min-speedup", "1.5", "--check"])
        assert args.experiment == "e17"
        assert args.shards == 2
        assert args.nodes == 5000
        assert args.min_speedup == 1.5

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

    def test_estimate_runs_small(self, capsys):
        assert main(["estimate", "-n", "30", "-k", "16"]) == 0
        out = capsys.readouterr().out
        assert "true 30" in out

    def test_churn_runs_small(self, capsys):
        assert main(["churn", "-n", "12", "-r", "3", "--rate", "0.2",
                     "--duration", "10"]) == 0
        out = capsys.readouterr().out
        assert "read availability" in out

    def test_sim_runs_small_with_cross_check(self, capsys):
        assert main(["sim", "-n", "80", "--shards", "2", "--duration", "1.5",
                     "--cross-check"]) == 0
        out = capsys.readouterr().out
        assert "cross-check vs 1 shard(s): identical" in out

    def test_bench_e17_small_check_writes_artifact(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "e17", "--nodes", "400", "--shards", "2",
                     "--duration", "1.5", "--cross-check-n", "80", "--check"]) == 0
        out = capsys.readouterr().out
        assert "determinism cross-check" in out and "identical" in out
        import json

        doc = json.loads((tmp_path / "BENCH_e17.json").read_text())
        assert doc["passed"] is True
        assert doc["gates"]["determinism_identical"] is True
        assert doc["metrics"]["n_nodes"] == 400
        # the scale gate reads the run's replica map, so it can fail
        assert doc["gates"]["scale_completed"] is True
        assert not _scale_completed({})
        assert not _scale_completed({**doc["metrics"]["replicas"], "item-x": 0})
