"""E19 bench harness: one smoke-scale graceful-degradation run.

The deterministic simulator makes this a real assertion, not a flaky
perf test: at the CI smoke scale the gated overload cell must keep the
protected tenants inside their declared p99 while the ungated control
collapses, and the exported trace must carry tenant tags with zero
unclassified spans.
"""

from __future__ import annotations

import pytest

from repro.obs.analyze import load_traces, phase_of, summarize
from repro.obs.slobench import (
    AGGRESSOR,
    PROTECTED_TENANTS,
    SloBenchConfig,
    build_workload,
    measure_graceful_degradation,
    render as render_report,
)


def smoke_config(**overrides) -> SloBenchConfig:
    defaults = dict(nodes=24, soft=3, seed=42, duration=8.0, rate=80.0,
                    drain=4.0)
    defaults.update(overrides)
    return SloBenchConfig(**defaults)


class TestWorkloadContract:
    def test_tenant_roster_and_declared_slos(self):
        workload = build_workload(smoke_config())
        names = {t.name for t in workload.tenants}
        assert names == {*PROTECTED_TENANTS, AGGRESSOR}
        assert set(workload.slos()) == set(PROTECTED_TENANTS)
        weights = dict(workload.weights())
        assert weights[AGGRESSOR] > weights["gold"]

    def test_aggressor_carries_the_moving_hotspot_and_flash_crowd(self):
        cfg = smoke_config()
        bulk = next(t for t in build_workload(cfg).tenants
                    if t.name == AGGRESSOR)
        assert bulk.hotspot is not None
        assert bulk.rate.steps  # the flash crowd
        assert bulk.rate.rate_at(cfg.duration * 0.5) > bulk.rate.base_rate


class TestGracefulDegradation:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        trace = tmp_path_factory.mktemp("e19") / "trace.jsonl"
        doc = measure_graceful_degradation(
            smoke_config(trace_out=str(trace)))
        return doc, str(trace)

    def test_all_gates_pass_at_smoke_scale(self, result):
        doc, _ = result
        assert doc["passed"], doc["gates"]

    def test_overload_cell_sheds_the_aggressor_not_the_protected(self, result):
        doc, _ = result
        cell = doc["cells"]["2x-gated"]
        assert cell["shed"][AGGRESSOR] > 50
        for tenant in PROTECTED_TENANTS:
            assert cell["admitted"][tenant] > 0
            assert cell["shed"][tenant] <= cell["shed"][AGGRESSOR] * 0.1

    def test_ungated_control_backlog_dwarfs_the_gated_one(self, result):
        doc, _ = result
        assert doc["metrics"]["queue_depth_max_ungated"] > \
            10 * doc["metrics"]["queue_depth_max_2x"]

    def test_render_report_shows_cells_and_gates(self, result):
        doc, _ = result
        text = render_report(doc)
        for needle in ("1x-gated", "2x-gated", "2x-ungated", "PASS"):
            assert needle in text

    def test_trace_is_tenant_tagged_with_no_unknown_phase(self, result):
        doc, trace_path = result
        assert doc["metrics"]["trace_events"] > 0
        traces = load_traces(trace_path)
        unknown = [s for tr in traces.values() for s in tr.spans.values()
                   if phase_of(s) == "unknown"]
        assert unknown == []
        tenants = {s.tenant for s in summarize(traces)}
        assert tenants == {*PROTECTED_TENANTS, AGGRESSOR}
