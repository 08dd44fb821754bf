"""Configuration of a DataDroplets deployment."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.obs.overload import AdmissionConfig
from repro.redundancy.manager import RepairPolicy
from repro.softstate.coordinator import SoftStateConfig


@dataclass(frozen=True)
class IndexSpec:
    """A secondary attribute with ordered placement, scans and stats.

    Items are *additionally* replicated into value-ordered placement for
    each indexed attribute (the paper's "several contending
    organizations", §III-B2) — expect storage cost ~r per index.

    Attributes:
        attribute: record field (numeric).
        lo / hi: value bounds used before a distribution estimate exists
            and as the histogram domain.
        bins: histogram resolution.
    """

    attribute: str
    lo: float
    hi: float
    bins: int = 32

    def __post_init__(self) -> None:
        if self.hi <= self.lo:
            raise ConfigurationError(f"index {self.attribute}: need hi > lo")
        if self.bins <= 0:
            raise ConfigurationError(f"index {self.attribute}: bins must be positive")


@dataclass(frozen=True)
class DataDropletsConfig:
    """All tunables of the two-layer system.

    The defaults are sized for simulation experiments of a few hundred
    storage nodes; see DESIGN.md for how each knob maps to the paper.
    """

    seed: int = 42
    n_soft: int = 4
    n_storage: int = 64
    replication: int = 4

    # placement
    collocation: Optional[str] = None  # None | "prefix"
    indexes: Tuple[IndexSpec, ...] = ()

    # network model
    latency_low: float = 0.005
    latency_high: float = 0.05
    loss_rate: float = 0.0

    # membership
    membership_period: float = 1.0

    # estimation
    size_estimator_period: float = 1.0
    estimator_epoch: Optional[float] = 30.0
    pushsum_period: float = 1.0

    # ordered overlays
    tman_period: float = 1.0

    # redundancy maintenance
    repair: RepairPolicy = field(default_factory=RepairPolicy)
    # same-range anti-entropy period; the policy's cadence factor scales
    # it, as it does the check period
    repair_period: float = 10.0
    # master switch for *active* redundancy repair (the range count still
    # runs — aggregates need it — but re-dissemination and same-range
    # reconciliation are disabled). Ablation knob for experiment E6.
    repair_enabled: bool = True
    # Each storage node fits its own session-lifetime estimate from the
    # peers it sees (a session opens at its first sighting and closes at
    # its last) and its own AdaptiveRepairPolicy derives the replica
    # target, check cadence and grace from predicted survival over the
    # recovery window (claim C5); until this many sessions have closed
    # it answers replication and the RepairPolicy periods above.
    adaptive_min_deaths: int = 8

    # storage
    memtable_capacity: Optional[int] = None
    # Periodic state audit (self-stabilisation): every storage node
    # recomputes its rolling bucket summaries and cached sieve state from
    # first principles and repairs whatever drifted — closing the
    # detection gap for corruption the digest exchange cannot see
    # (summaries poisoned to still agree per key; a desynced sieve
    # position). See docs/API.md "State corruption & self-stabilisation".
    audit_enabled: bool = True
    audit_period: float = 6.0

    # soft layer
    soft: SoftStateConfig = field(default_factory=SoftStateConfig)
    virtual_nodes: int = 16
    # "legacy": one shared ring, aliveness from the facade oracle.
    # "onehop": every soft node keeps a full routing table fed by
    # epidemically disseminated membership events (repro.softstate.onehop)
    # that each coordinator routes by; misrouted ops are redirected to the
    # owner its table names instead of erroring.
    routing_mode: str = "legacy"
    onehop_quarantine_window: float = 10.0

    # client
    client_timeout: float = 30.0  # virtual seconds per operation
    # Overload protection at the facade: None disables the gate entirely
    # (the pre-PR-10 behaviour); an AdmissionConfig installs a token-
    # bucket admission gate with per-tenant fair shedding and publishes
    # queue-depth / shed / saturation telemetry (repro.obs.overload).
    admission: Optional[AdmissionConfig] = None

    # observability — causal tracing (see docs/API.md "Tracing & metrics
    # export"). Off by default: the disabled tracer costs one attribute
    # load and a branch per network send.
    tracing: bool = False
    trace_capacity: int = 200_000  # event ring-buffer size (oldest evicted)

    def __post_init__(self) -> None:
        if self.trace_capacity <= 0:
            raise ConfigurationError("trace_capacity must be positive")
        if self.n_soft <= 0 or self.n_storage <= 0:
            raise ConfigurationError("n_soft and n_storage must be positive")
        if self.replication <= 0:
            raise ConfigurationError("replication must be positive")
        if self.collocation not in (None, "prefix"):
            raise ConfigurationError("collocation must be None or 'prefix'")
        if self.routing_mode not in ("legacy", "onehop"):
            raise ConfigurationError(f"unknown routing_mode {self.routing_mode!r}")
        if self.adaptive_min_deaths <= 0:
            raise ConfigurationError("adaptive_min_deaths must be positive")
        if self.onehop_quarantine_window < 0:
            raise ConfigurationError("onehop_quarantine_window must be >= 0")
        # Everything below would otherwise surface only once a stack
        # factory or the network model runs: at start(), or mid-run.
        for name in ("membership_period", "size_estimator_period", "pushsum_period",
                     "tman_period", "repair_period", "audit_period", "client_timeout",
                     "virtual_nodes"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.estimator_epoch is not None and self.estimator_epoch <= 0:
            raise ConfigurationError("estimator_epoch must be positive, or None for no epochs")
        if self.memtable_capacity is not None and self.memtable_capacity <= 0:
            raise ConfigurationError("memtable_capacity must be positive, or None for no bound")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError("loss_rate must be in [0, 1)")
        if not 0.0 <= self.latency_low <= self.latency_high:
            raise ConfigurationError("need 0 <= latency_low <= latency_high")
        seen = set()
        for index in self.indexes:
            if index.attribute in seen:
                raise ConfigurationError(f"duplicate index on {index.attribute!r}")
            seen.add(index.attribute)
