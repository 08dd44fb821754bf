"""Parallel sweep runner: determinism across worker counts, error isolation."""

from __future__ import annotations

import pickle

import pytest

from repro.sim.sweep import SweepCell, SweepCellError, failures, grid, require_ok, run_sweep


def _sim_cell(config: dict, seed: int) -> dict:
    """A real (tiny) simulation: gossip over a 20-node cluster."""
    from repro.epidemic import EagerGossip
    from repro.membership import CyclonProtocol
    from repro.sim import Cluster, Simulation, UniformLatency

    sim = Simulation(seed=seed)
    cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))

    def factory(node):
        return [
            CyclonProtocol(view_size=8, shuffle_size=4, period=1.0),
            EagerGossip(fanout=config["fanout"]),
        ]

    nodes = cluster.add_nodes(20, factory)
    cluster.seed_views("membership", 3)
    sim.run_for(5.0)
    nodes[0].protocol("gossip").broadcast("probe", {"pad": "x" * 32})
    sim.run_for(4.0)
    reached = sum(1 for n in nodes if n.protocol("gossip").has_seen("probe"))
    return {
        "reached": reached,
        "messages": cluster.metrics.counter_value("net.sent.total"),
        "bytes": cluster.metrics.counter_value("net.bytes.total"),
    }


def _crashy_cell(config: dict, seed: int) -> dict:
    if seed == config["bad_seed"]:
        raise RuntimeError(f"cell with seed {seed} exploded")
    return {"seed": seed, "value": seed * 10.0}


class TestSweepDeterminism:
    def test_identical_results_1_vs_4_workers(self):
        cells = grid([{"fanout": 2}, {"fanout": 4}], seeds=[1, 2, 3])
        serial = run_sweep(_sim_cell, cells, workers=1)
        parallel = run_sweep(_sim_cell, cells, workers=4)
        assert all(r.ok for r in serial)
        assert serial == parallel
        # byte-identical cell by cell, not merely approximately equal
        # (list-level pickles can differ in memoization of shared objects)
        for a, b in zip(serial, parallel):
            assert pickle.dumps(a) == pickle.dumps(b)

    def test_results_come_back_in_cell_order(self):
        cells = [SweepCell({"bad_seed": -1}, seed) for seed in (9, 2, 7, 4)]
        results = run_sweep(_crashy_cell, cells, workers=3)
        assert [r.index for r in results] == [0, 1, 2, 3]
        assert [r.seed for r in results] == [9, 2, 7, 4]
        assert [r.result["value"] for r in results] == [90.0, 20.0, 70.0, 40.0]

    def test_grid_is_row_major(self):
        cells = grid(["a", "b"], seeds=[1, 2])
        assert [(c.config, c.seed) for c in cells] == [
            ("a", 1), ("a", 2), ("b", 1), ("b", 2)]

    def test_empty_grid(self):
        assert run_sweep(_sim_cell, [], workers=4) == []


class TestSweepErrorIsolation:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_one_crash_does_not_sink_the_others(self, workers):
        cells = [SweepCell({"bad_seed": 3}, seed) for seed in (1, 2, 3, 4, 5)]
        results = run_sweep(_crashy_cell, cells, workers=workers)
        assert len(results) == 5
        failed = failures(results)
        assert [r.seed for r in failed] == [3]
        assert "exploded" in failed[0].error
        assert failed[0].result is None
        good = [r for r in results if r.ok]
        assert [r.result["value"] for r in good] == [10.0, 20.0, 40.0, 50.0]

    def test_require_ok_raises_with_cell_context(self):
        cells = [SweepCell({"bad_seed": 2}, seed) for seed in (1, 2)]
        results = run_sweep(_crashy_cell, cells, workers=1)
        with pytest.raises(SweepCellError, match="seed 2"):
            require_ok(results)

    def test_require_ok_passes_clean_results_through(self):
        cells = [SweepCell({"bad_seed": -1}, seed) for seed in (1, 2)]
        results = run_sweep(_crashy_cell, cells, workers=1)
        assert require_ok(results) == results


class TestWorkerProvisioning:
    def test_workers_clamped_to_cell_count(self, monkeypatch):
        """Asking for 8 workers with 2 cells must start at most 2."""
        from repro.sim import sweep as sweep_module

        requested = {}

        class _RecordingContext:
            def Pool(self, processes):
                requested["processes"] = processes
                raise RuntimeError("stop here - pool size recorded")

        monkeypatch.setattr(
            sweep_module.multiprocessing, "get_context", lambda: _RecordingContext())
        cells = [SweepCell({"bad_seed": -1}, seed) for seed in (1, 2)]
        results = run_sweep(_crashy_cell, cells, workers=8)
        assert requested["processes"] == 2
        assert [r.result["value"] for r in results] == [10.0, 20.0]

    def test_single_cell_never_forks(self, monkeypatch):
        from repro.sim import sweep as sweep_module

        def _boom():
            raise AssertionError("a single cell must run inline")

        monkeypatch.setattr(sweep_module.multiprocessing, "get_context", _boom)
        results = run_sweep(_crashy_cell, [SweepCell({"bad_seed": -1}, 4)], workers=6)
        assert results[0].result == {"seed": 4, "value": 40.0}

    def test_mp_unavailable_falls_back_inline(self, monkeypatch, caplog):
        """No multiprocessing start method -> warn once, run inline,
        identical results (sandboxes, embedded interpreters)."""
        import logging

        from repro.sim import sweep as sweep_module

        def _unavailable():
            raise OSError("fork unavailable in this environment")

        monkeypatch.setattr(sweep_module.multiprocessing, "get_context", _unavailable)
        cells = [SweepCell({"bad_seed": -1}, seed) for seed in (1, 2, 3)]
        with caplog.at_level(logging.WARNING, logger="repro.sim.sweep"):
            results = run_sweep(_crashy_cell, cells, workers=3)
        assert any("multiprocessing unavailable" in r.message for r in caplog.records)
        assert all(r.ok for r in results)
        assert results == run_sweep(_crashy_cell, cells, workers=1)
