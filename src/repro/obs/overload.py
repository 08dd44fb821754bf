"""Overload telemetry and admission control at the client facade.

The facade (and the open-loop bench driver) model finite client-side
throughput as a fluid token bucket: the system dispatches at most
``rate`` operations per (virtual) second with ``burst`` of slack. What
happens beyond that capacity is the policy question this module makes
*observable*:

* ``mode="queue"`` — the unprotected baseline: every operation queues
  FIFO for a dispatch token. Under sustained overload the backlog (and
  therefore every tenant's latency) grows without bound — the collapse
  the E19 bench demonstrates.
* ``mode="shed"`` — per-tenant fair shedding: each tenant owns a token
  bucket sized to its weight share of the capacity. A tenant inside its
  share is always admitted (waiting at most ``max_delay`` for the
  global backlog to drain); a tenant beyond its share is admitted only
  from spare global capacity and *shed* otherwise. In-SLO tenants keep
  bounded latency no matter how hard an aggressor pushes.

Telemetry is the point: every decision feeds shed/admit counters per
tenant, a queue-depth gauge (the fluid backlog in operations), a
saturation gauge, and a wait-time histogram — all in the shared
registry, so the PR 5 exporters and ``repro slo`` see them for free.
Callers annotate traces with ``shed`` / ``admission-wait`` saturation
events (see ``DataDroplets._call``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.obs.slo import escape_tenant
from repro.sim.metrics import Metrics

#: Fair-share weight of tenants an AdmissionConfig does not list.
DEFAULT_WEIGHT = 1.0


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs of the client-facade admission gate.

    Attributes:
        rate: dispatch capacity in operations per (virtual) second.
        burst: token-bucket depth — short bursts above ``rate`` that are
            absorbed without queueing.
        max_delay: longest queue wait an in-share operation accepts
            before it is shed anyway (bounds in-SLO tenant latency).
        mode: ``"shed"`` (per-tenant fair shedding) or ``"queue"``
            (unbounded FIFO — the unprotected baseline).
        weights: declared ``(tenant, weight)`` fair shares; tenants not
            listed get ``DEFAULT_WEIGHT``. Shares are normalised over
            all tenants the gate has seen.
    """

    rate: float = 200.0
    burst: float = 20.0
    max_delay: float = 0.25
    mode: str = "shed"
    weights: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigurationError("admission rate must be positive")
        if self.burst < 1:
            raise ConfigurationError("admission burst must be >= 1")
        if self.max_delay < 0:
            raise ConfigurationError("admission max_delay must be >= 0")
        if self.mode not in ("shed", "queue"):
            raise ConfigurationError(f"unknown admission mode {self.mode!r}")
        seen = set()
        for tenant, weight in self.weights:
            if weight <= 0:
                raise ConfigurationError(f"weight of {tenant!r} must be positive")
            if tenant in seen:
                raise ConfigurationError(f"duplicate weight for {tenant!r}")
            seen.add(tenant)


@dataclass(frozen=True)
class Decision:
    """One admission verdict: dispatch now / after ``wait`` / shed."""

    action: str  # "admit" | "shed"
    wait: float = 0.0
    reason: str = ""  # "fair" | "spare" | "queued" | "saturated"

    @property
    def admitted(self) -> bool:
        return self.action == "admit"


class _Bucket:
    __slots__ = ("rate", "burst", "tokens", "last")

    def __init__(self, rate: float, burst: float):
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.last = 0.0

    def refill(self, now: float) -> None:
        if now > self.last:
            self.tokens = min(self.burst, self.tokens + (now - self.last) * self.rate)
        self.last = max(self.last, now)


class AdmissionGate:
    """Token-bucket admission with per-tenant fair shedding.

    The global bucket models total dispatch capacity; its deficit
    (tokens below zero) is the fluid queue backlog, published as the
    ``admission.queue_depth`` gauge. Per-tenant buckets carve the
    capacity into weight-proportional fair shares (resized whenever a
    new tenant appears). All timing is caller-supplied ``now`` — virtual
    seconds in the simulator, ``loop.time()`` in the runtime.
    """

    def __init__(self, config: AdmissionConfig,
                 metrics: Optional[Metrics] = None):
        self.config = config
        self.metrics = metrics if metrics is not None else Metrics()
        self._global = _Bucket(config.rate, config.burst)
        self._tenant_buckets: Dict[str, _Bucket] = {}
        self._weights: Dict[str, float] = dict(config.weights)
        for tenant in self._weights:
            self._add_bucket(tenant)
        self._wait_hist = self.metrics.histogram("admission.wait")
        self._queue_gauge = self.metrics.gauge("admission.queue_depth")
        self._saturation_gauge = self.metrics.gauge("admission.saturation")

    # -- fair shares ---------------------------------------------------
    def _add_bucket(self, tenant: str) -> _Bucket:
        self._weights.setdefault(tenant, DEFAULT_WEIGHT)
        bucket = self._tenant_buckets.get(tenant)
        if bucket is None:
            bucket = self._tenant_buckets[tenant] = _Bucket(1.0, 1.0)
            bucket.last = self._global.last
        total = sum(self._weights.values())
        # Resize every share when the population changes so shares always
        # sum to the full capacity.
        for name, b in self._tenant_buckets.items():
            share = self._weights[name] / total
            b.rate = self.config.rate * share
            b.burst = max(1.0, self.config.burst * share)
            b.tokens = min(b.tokens, b.burst)
        return bucket

    def share_of(self, tenant: str) -> float:
        """The tenant's current fair share of ``rate`` (ops/s)."""
        if tenant not in self._tenant_buckets:
            self._add_bucket(tenant)
        return self._tenant_buckets[tenant].rate

    # -- admission -----------------------------------------------------
    def offer(self, tenant: str, now: float) -> Decision:
        """Decide one operation's fate; updates all telemetry."""
        g = self._global
        g.refill(now)
        bucket = self._tenant_buckets.get(tenant)
        if bucket is None:
            bucket = self._add_bucket(tenant)
        bucket.refill(now)

        e = escape_tenant(tenant)
        counters = self.metrics.counters
        counters["admission.offered"].inc()
        counters[f"admission.offered.{e}"].inc()

        decision = self._decide(g, bucket)
        if decision.admitted:
            counters["admission.admitted"].inc()
            counters[f"admission.admitted.{e}"].inc()
            self._wait_hist.observe(decision.wait)
            if decision.wait > 0:
                counters["admission.queued"].inc()
        else:
            counters["admission.shed"].inc()
            counters[f"admission.shed.{e}"].inc()
        self._queue_gauge.set(self.queue_depth())
        self._saturation_gauge.set(self.saturation())
        return decision

    def _decide(self, g: _Bucket, bucket: _Bucket) -> Decision:
        cfg = self.config
        if cfg.mode == "queue":
            # Unprotected FIFO: always admit; backlog (negative global
            # tokens) grows without bound under overload.
            wait = 0.0 if g.tokens >= 1.0 else (1.0 - g.tokens) / cfg.rate
            g.tokens -= 1.0
            return Decision("admit", wait, "queued" if wait > 0 else "fair")
        if g.tokens >= 1.0:
            g.tokens -= 1.0
            if bucket.tokens >= 1.0:
                bucket.tokens -= 1.0
                return Decision("admit", 0.0, "fair")
            # Over fair share, but the system has spare capacity: admit
            # work-conservingly without charging the fair-share bucket.
            return Decision("admit", 0.0, "spare")
        # Globally saturated: only in-share work may queue, briefly.
        if bucket.tokens >= 1.0:
            wait = (1.0 - g.tokens) / cfg.rate
            if wait <= cfg.max_delay:
                bucket.tokens -= 1.0
                g.tokens -= 1.0
                return Decision("admit", wait, "queued")
        return Decision("shed", 0.0, "saturated")

    # -- telemetry views ----------------------------------------------
    def queue_depth(self) -> float:
        """Fluid backlog in operations (0 when capacity is free)."""
        return max(0.0, -self._global.tokens)

    def saturation(self) -> float:
        """1.0 when the burst allowance is fully consumed (or beyond)."""
        return min(1.0, max(0.0, 1.0 - self._global.tokens / self._global.burst))

    def counts(self, tenant: str) -> Dict[str, float]:
        """``offered/admitted/shed`` counters for one tenant."""
        e = escape_tenant(tenant)
        return {
            key: self.metrics.counter_value(f"admission.{key}.{e}")
            for key in ("offered", "admitted", "shed")
        }
