"""The configuration surface, pinned.

Every field is one more configuration that tests and campaigns must
cover, so the four config classes are a budget: a change that adds a
field edits ``FIELDS`` here and names, in CHANGES.md, what it removed
in exchange. Fields that only ever had one value are named constants in
the module that reads them, and passing one as a keyword fails.
"""

import dataclasses

import pytest

import repro.obs.trace
from repro.core.config import DataDropletsConfig
from repro.obs.overload import AdmissionConfig
from repro.redundancy.manager import RepairPolicy
from repro.softstate.coordinator import SoftStateConfig

FIELDS = {
    DataDropletsConfig: [
        "adaptive_min_deaths", "admission", "audit_enabled", "audit_period",
        "client_timeout", "collocation", "estimator_epoch", "indexes", "latency_high",
        "latency_low", "loss_rate", "membership_period", "memtable_capacity", "n_soft",
        "n_storage", "onehop_quarantine_window", "pushsum_period", "repair",
        "repair_enabled", "repair_period", "replication", "routing_mode", "seed",
        "size_estimator_period", "soft", "tman_period", "trace_capacity", "tracing",
        "virtual_nodes",
    ],
    RepairPolicy: ["check_period", "grace_window"],
    SoftStateConfig: ["ack_quorum", "ack_timeout", "cache_capacity", "read_fanout",
                      "read_timeout", "scan_timeout"],
    AdmissionConfig: ["burst", "max_delay", "mode", "rate", "weights"],
}

#: Knobs that had one value in use; each is now a constant of its reader.
#: ``redundancy_mode`` had two: the adaptive one is the only policy, and
#: the static arm is ``repro.baselines.staticrepair``.
DELETED = [
    (DataDropletsConfig, "fanout_c"), (DataDropletsConfig, "view_size"),
    (DataDropletsConfig, "shuffle_size"), (DataDropletsConfig, "size_estimator_k"),
    (DataDropletsConfig, "tman_view"), (DataDropletsConfig, "client_retries"),
    (DataDropletsConfig, "trace_sample_rate"), (DataDropletsConfig, "redundancy_mode"),
    (RepairPolicy, "target_replication"), (RepairPolicy, "walk_ttl"),
    (RepairPolicy, "max_known_peers"), (RepairPolicy, "redisseminate_batch"),
    (RepairPolicy, "repair_fanout"), (RepairPolicy, "peer_ttl_censuses"),
    (RepairPolicy, "max_peer_failures"), (RepairPolicy, "walks_per_check"),
    (SoftStateConfig, "write_retries"), (SoftStateConfig, "hint_capacity"),
    (SoftStateConfig, "fallback_flush_period"), (SoftStateConfig, "redirect_misrouted"),
    (AdmissionConfig, "default_weight"),
]


def test_field_names_are_pinned():
    for cls, names in FIELDS.items():
        assert sorted(f.name for f in dataclasses.fields(cls)) == names, cls.__name__
    assert sum(len(names) for names in FIELDS.values()) == 42


@pytest.mark.parametrize("cls,name", DELETED, ids=lambda v: getattr(v, "__name__", v))
def test_deleted_knob_is_rejected(cls, name):
    with pytest.raises(TypeError):
        cls(**{name: 1})


def test_no_second_replication_target():
    assert not hasattr(DataDropletsConfig, "with_replication_target")
    assert not hasattr(repro.obs.trace, "TraceConfig")
