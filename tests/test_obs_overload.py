"""Admission gate: fair shedding, queue-mode collapse, facade wiring."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError, SheddedError
from repro.core.config import DataDropletsConfig
from repro.core.datadroplets import DataDroplets, OpTrace
from repro.obs.overload import AdmissionConfig, AdmissionGate
from repro.sim.metrics import Metrics


class TestAdmissionConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionConfig(rate=0.0)
        with pytest.raises(ConfigurationError):
            AdmissionConfig(burst=0.5)
        with pytest.raises(ConfigurationError):
            AdmissionConfig(max_delay=-1.0)
        with pytest.raises(ConfigurationError):
            AdmissionConfig(mode="fifo")
        with pytest.raises(ConfigurationError):
            AdmissionConfig(weights=(("a", 0.0),))
        with pytest.raises(ConfigurationError):
            AdmissionConfig(weights=(("a", 1.0), ("a", 2.0)))


def overload_gate(mode: str = "shed", rate: float = 10.0,
                  **kwargs) -> AdmissionGate:
    return AdmissionGate(
        AdmissionConfig(rate=rate, burst=2.0, max_delay=0.2, mode=mode,
                        **kwargs),
        Metrics())


class TestShedMode:
    def test_within_capacity_everything_is_admitted(self):
        gate = overload_gate(rate=100.0)
        decisions = [gate.offer("t", i * 0.1) for i in range(20)]
        assert all(d.admitted for d in decisions)
        assert all(d.wait == 0.0 for d in decisions)
        assert gate.queue_depth() == 0.0

    def test_aggressor_is_shed_in_share_tenant_keeps_flowing(self):
        gate = overload_gate(rate=10.0, weights=(("gold", 1.0), ("bulk", 1.0)))
        shed_bulk = admitted_gold = gold_offers = 0
        t = 0.0
        for i in range(400):
            t = i * 0.01  # 100 ops/s offered against 10 ops/s capacity
            if i % 25 == 0:  # gold at 4 ops/s: inside its 5 ops/s share
                gold_offers += 1
                if gate.offer("gold", t).admitted:
                    admitted_gold += 1
            else:
                if not gate.offer("bulk", t).admitted:
                    shed_bulk += 1
        assert shed_bulk > 250  # the aggressor takes nearly all the pain
        assert admitted_gold >= gold_offers - 2  # gold stays ~fully admitted
        counts = gate.counts("bulk")
        assert counts["offered"] == counts["admitted"] + counts["shed"]

    def test_in_share_waits_are_bounded_by_max_delay(self):
        gate = overload_gate(rate=10.0)
        waits = [gate.offer("t", 0.0).wait for _ in range(40)]
        assert max(waits) <= 0.2

    def test_spare_capacity_is_work_conserving(self):
        # Only one of two declared tenants sends: it may exceed its fair
        # share as long as global capacity is free.
        gate = overload_gate(rate=10.0, weights=(("a", 1.0), ("b", 1.0)))
        decisions = [gate.offer("a", t / 10.0) for t in range(15)]
        admitted = [d for d in decisions if d.admitted]
        assert len(admitted) > 8  # well beyond a's 5 ops/s share
        assert any(d.reason == "spare" for d in admitted)

    def test_telemetry_gauges_published(self):
        gate = overload_gate(rate=5.0)
        for _ in range(30):
            gate.offer("t", 0.0)
        m = gate.metrics
        assert m.gauge("admission.saturation").value == 1.0
        assert m.counter_value("admission.offered") == 30
        assert m.counter_value("admission.shed") > 0
        assert m.histogram("admission.wait").count == \
            m.counter_value("admission.admitted")


class TestQueueMode:
    def test_never_sheds_but_backlog_grows_without_bound(self):
        gate = overload_gate(mode="queue", rate=10.0)
        decisions = [gate.offer("t", i * 0.01) for i in range(300)]
        assert all(d.admitted for d in decisions)
        assert gate.counts("t")["shed"] == 0
        # 300 offered in 3s against 10/s capacity: ~270 ops queued.
        assert gate.queue_depth() > 200
        # Waits exceed any shed-mode bound — the collapse E19 measures.
        assert decisions[-1].wait > 1.0

    def test_backlog_drains_when_load_stops(self):
        gate = overload_gate(mode="queue", rate=10.0)
        for i in range(50):
            gate.offer("t", i * 0.01)
        assert gate.queue_depth() > 0
        late = gate.offer("t", 100.0)
        assert late.wait == 0.0
        assert gate.queue_depth() == 0.0


class TestFacadeIntegration:
    def make_dd(self, mode: str = "shed") -> DataDroplets:
        return DataDroplets(DataDropletsConfig(
            n_storage=12, n_soft=2, seed=5,
            admission=AdmissionConfig(rate=5.0, burst=2.0, max_delay=0.0,
                                      mode=mode),
        )).start(warmup=5.0)

    def test_flood_raises_shedded_error_and_records_telemetry(self):
        dd = self.make_dd()
        observed = []
        dd.set_op_observer(observed.append)
        shed = 0
        for i in range(20):  # burst at one instant >> 5 ops/s capacity
            try:
                dd.put(f"k:{i}", {"v": i}, tenant="bulk")
            except SheddedError:
                shed += 1
        assert shed > 0
        assert dd.metrics.counter_value("admission.shed.bulk") == shed
        shed_traces = [op for op in observed if op.error == "SheddedError"]
        assert len(shed_traces) == shed
        assert all(op.tenant == "bulk" and not op.ok for op in shed_traces)
        # Shed ops never reached the wire: no attempts recorded.
        assert all(op.attempts == () for op in shed_traces)

    def test_spaced_ops_pass_and_tag_the_tenant(self):
        dd = self.make_dd()
        observed = []
        dd.set_op_observer(observed.append)
        for i in range(3):
            dd.run_for(1.0)
            dd.put(f"k:{i}", {"v": i}, tenant="gold")
        assert dd.get("k:0", tenant="gold")["v"] == 0
        assert all(isinstance(op, OpTrace) and op.tenant == "gold"
                   for op in observed)
        assert dd.metrics.counter_value("admission.shed.gold") == 0

    def test_no_admission_config_means_no_gate(self):
        dd = DataDroplets(DataDropletsConfig(n_storage=12, n_soft=2, seed=5))
        assert dd.admission is None
        dd.start(warmup=5.0)
        for i in range(20):
            dd.put(f"k:{i}", {"v": i})  # pre-PR behaviour: never sheds
