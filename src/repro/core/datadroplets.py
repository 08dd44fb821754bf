"""DataDroplets: the assembled two-layer system and its client API.

This is Figure 1 of the paper as a runnable object: a *soft-state layer*
of coordinator nodes over a structured consistent-hashing ring, and an
epidemic *persistent-state layer* of storage nodes, all hosted in one
deterministic simulation. The facade exposes a blocking client API —
each call injects a request into the simulated network and advances
virtual time until the reply (or a timeout) arrives, so library users
interact with a distributed system as if it were a dict:

    dd = DataDroplets(DataDropletsConfig(n_storage=100))
    dd.start()
    dd.put("users:1", {"name": "ada", "age": 36})
    dd.get("users:1")            # -> {'name': 'ada', 'age': 36}

Experiments reach below the facade: ``dd.storage``, ``dd.soft`` (the
clusters), ``dd.churn()``, ``dd.metrics`` are all public on purpose.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import DataDropletsError, SheddedError, TimeoutError_
from repro.common.ids import NodeId
from repro.common.messages import Message
from repro.core.config import DataDropletsConfig
from repro.core.storage import VIEW_SIZE, make_storage_stack
from repro.obs.overload import AdmissionGate
from repro.obs.slo import DEFAULT_TENANT
from repro.obs.trace import Tracer
from repro.sim.churn import PoissonChurn
from repro.sim.cluster import Cluster
from repro.sim.metrics import Metrics
from repro.sim.network import Network, UniformLatency
from repro.sim.node import Node, NodeState, Protocol
from repro.sim.simulator import Simulation
from repro.softstate.coordinator import SoftStateProtocol
from repro.softstate.onehop import OneHopRouting, RingSpace, table_buckets
from repro.softstate.messages import (
    ClientAggregate,
    ClientDelete,
    ClientGet,
    ClientMultiGet,
    ClientPut,
    ClientReply,
    ClientScan,
)
from repro.softstate.ring import ConsistentHashRing

#: Re-sends after a timed-out client request.
CLIENT_RETRIES = 2


class ClientProtocol(Protocol):
    """Collects ClientReply messages for the facade.

    ``on_reply`` is an optional callback fired for every reply as it
    arrives — open-loop drivers (``repro.obs.slobench``) hang off it to
    collect completions without blocking in ``_await_reply``."""

    name = "client"

    def __init__(self) -> None:
        super().__init__()
        self.replies: Dict[str, ClientReply] = {}
        self.on_reply: Optional[Callable[[ClientReply], None]] = None

    def on_message(self, sender: NodeId, message: Message) -> None:
        if isinstance(message, ClientReply):
            self.replies[message.request_id] = message
            if self.on_reply is not None:
                self.on_reply(message)


class UnavailableError(DataDropletsError):
    """The operation failed at the coordinator (e.g. data unreachable)."""


@dataclass(frozen=True)
class OpTrace:
    """Client-path telemetry for one facade operation.

    Emitted to the observer installed with
    :meth:`DataDroplets.set_op_observer` after every client call —
    whether it succeeded or raised. ``attempts`` lists one
    ``(request_id, coordinator_node_value)`` pair per (re)send, so the
    history checkers can tell which soft-state coordinator actually
    served the operation and whether coordination moved mid-call."""

    kind: str
    routing_key: str
    attempts: Tuple[Tuple[str, int], ...]
    ok: bool
    error: Optional[str]
    invoked_at: float
    completed_at: float
    #: Causal trace id of this operation's span tree (None when tracing
    #: is off) — joins history records to the JSONL trace log for
    #: replay-with-trace debugging.
    trace_id: Optional[str] = None
    #: Tenant tag of the operation (None when the caller did not tag it)
    #: — the SLO tracker attributes latency/goodput/shed per tenant.
    tenant: Optional[str] = None

    @property
    def coordinator(self) -> Optional[int]:
        """Node value of the coordinator of the final attempt."""
        return self.attempts[-1][1] if self.attempts else None


class DataDroplets:
    """The full system: build, start, operate (see module docstring)."""

    def __init__(self, config: Optional[DataDropletsConfig] = None):
        self.config = config if config is not None else DataDropletsConfig()
        self.sim = Simulation(seed=self.config.seed)
        tracer = None
        if self.config.tracing:
            tracer = Tracer(enabled=True, capacity=self.config.trace_capacity)
        network = Network(
            self.sim,
            latency=UniformLatency(self.config.latency_low, self.config.latency_high),
            loss_rate=self.config.loss_rate,
            tracer=tracer,
        )
        # One cluster, one network: soft, storage and client nodes all
        # share the fabric (ids are dense across all of them).
        self.cluster = Cluster(self.sim, network=network)
        # In "legacy" mode this is *the* coordinator ring, shared by all
        # soft nodes. In "onehop" mode every soft node routes by its own
        # routing table and this object is only the *client's* view,
        # synced (possibly stale) from a live node's table.
        self.ring = ConsistentHashRing(self.config.virtual_nodes)
        self.onehop_space: Optional[RingSpace] = None
        if self.config.routing_mode == "onehop":
            self.onehop_space = RingSpace(self.config.virtual_nodes,
                                          buckets=table_buckets(self.config.n_soft))
        self._request_seq = itertools.count()

        self.storage_nodes: List[Node] = self.cluster.add_nodes(
            self.config.n_storage,
            make_storage_stack(self.config),
            label_prefix="storage-",
            boot=False,
        )
        self.soft_nodes: List[Node] = self.cluster.add_nodes(
            self.config.n_soft, self._soft_stack, label_prefix="soft-", boot=False
        )
        self.client_node: Node = self.cluster.add_node(
            lambda node: [ClientProtocol()], label="client", boot=False
        )
        self._started = False
        self._op_observer: Optional[Callable[[OpTrace], None]] = None
        # Optional overload protection: token-bucket admission with
        # per-tenant fair shedding, publishing into the shared registry.
        self.admission: Optional[AdmissionGate] = None
        if self.config.admission is not None:
            self.admission = AdmissionGate(self.config.admission, self.metrics)

    def set_op_observer(self, observer: Optional[Callable[[OpTrace], None]]) -> None:
        """Install (or clear) a per-operation telemetry hook.

        The observer receives an :class:`OpTrace` after every client
        call, including failed ones — the history recorder of
        :mod:`repro.check` hangs off this."""
        self._op_observer = observer

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def _soft_stack(self, node: Node) -> Sequence[Protocol]:
        if self.config.routing_mode == "onehop":
            assert self.onehop_space is not None
            # The coordinator routes by the router's own table and
            # redirects misrouted ops to the owner it names.
            router = OneHopRouting(
                space=self.onehop_space,
                quarantine_window=self.config.onehop_quarantine_window,
            )
            soft = SoftStateProtocol(
                ring=None,
                storage_directory=self._storage_directory,
                config=self.config.soft,
            )
            return [soft, router]
        return [
            SoftStateProtocol(
                ring=self.ring,
                storage_directory=self._storage_directory,
                config=self.config.soft,
            )
        ]

    def _storage_directory(self) -> List[NodeId]:
        return [n.node_id for n in self.storage_nodes if n.is_up]

    @property
    def metrics(self) -> Metrics:
        return self.cluster.metrics

    @property
    def tracer(self) -> Tracer:
        """The cluster's causal tracer (the disabled no-op one when
        ``config.tracing`` is off)."""
        return self.cluster.network.tracer

    def export_trace(self, path: str) -> int:
        """Write buffered trace events to ``path`` as JSONL; returns the
        event count (see ``repro trace`` for analysis)."""
        return self.tracer.export_jsonl(path)

    def start(self, warmup: float = 15.0) -> "DataDroplets":
        """Boot both layers, seed membership, converge estimators.

        ``warmup`` seconds of virtual time let the PSS mix and the size
        estimator converge before traffic arrives (a real deployment's
        steady state)."""
        if self._started:
            return self
        for node in self.storage_nodes:
            node.boot()
        view = min(VIEW_SIZE, max(1, self.config.n_storage - 1))
        for node in self.storage_nodes:
            peers = [
                n.node_id
                for n in self.sim.rng("bootstrap").sample(self.storage_nodes, min(len(self.storage_nodes), view + 1))
                if n.node_id != node.node_id
            ][:view]
            node.protocol("membership").seed(peers)
        if self.onehop_space is not None:
            # Seed the shared baseline *before* boot so first boots are
            # recognised members (no join-quarantine of the founding set).
            self.onehop_space.seed(node.node_id.value for node in self.soft_nodes)
        for node in self.soft_nodes:
            node.boot()
        self.ring.extend(node.node_id for node in self.soft_nodes)
        self.client_node.boot()
        self._started = True
        if warmup > 0:
            self.sim.run_for(warmup)
        return self

    # ------------------------------------------------------------------
    # time control & fault injection
    # ------------------------------------------------------------------
    def run_for(self, seconds: float) -> None:
        """Advance virtual time (protocols keep running)."""
        self.sim.run_for(seconds)

    def churn(
        self,
        event_rate: float,
        mean_downtime: float = 30.0,
        permanent_fraction: float = 0.0,
        storage_only: bool = True,
    ) -> PoissonChurn:
        """Attach a churn process to the storage population.

        With ``storage_only`` (default) the soft layer and client are
        spared — matching the paper, which churns the big persistent
        layer and keeps the moderate soft layer stable."""
        if storage_only:
            members = list(self.storage_nodes)
        else:
            members = list(self.storage_nodes) + list(self.soft_nodes)
        target = Cluster.view_of(self.sim, self.cluster.network, members)
        return PoissonChurn(
            self.sim,
            target,
            event_rate=event_rate,
            mean_downtime=mean_downtime,
            permanent_fraction=permanent_fraction,
        )

    def crash_soft_layer(self, fraction: float = 1.0) -> List[Node]:
        """Catastrophic soft-state failure (experiment E13)."""
        count = max(1, int(round(len(self.soft_nodes) * fraction)))
        victims = self.soft_nodes[:count]
        for node in victims:
            if node.is_up:
                node.crash(permanent=False)
        return victims

    def recover_soft_layer(self, rebuild: bool = True) -> None:
        for node in self.soft_nodes:
            if node.state is NodeState.DOWN:
                node.boot()
                if rebuild:
                    node.protocol("soft").rebuild_metadata()

    # ------------------------------------------------------------------
    # client operations
    # ------------------------------------------------------------------
    def put(self, key: str, record: Dict[str, Any],
            tenant: Optional[str] = None) -> Dict[str, int]:
        """Write a record; returns the assigned version."""
        reply = self._call(key, lambda rid: ClientPut(rid, key, dict(record)),
                           kind="put", tenant=tenant)
        return reply.value

    def get(self, key: str, tenant: Optional[str] = None) -> Optional[Dict[str, Any]]:
        """Read a record (None if absent or deleted)."""
        reply = self._call(key, lambda rid: ClientGet(rid, key), kind="get",
                           tenant=tenant)
        return reply.value

    def delete(self, key: str, tenant: Optional[str] = None) -> None:
        self._call(key, lambda rid: ClientDelete(rid, key), kind="delete",
                   tenant=tenant)

    def multi_get(self, keys: Sequence[str],
                  tenant: Optional[str] = None) -> Dict[str, Optional[Dict[str, Any]]]:
        """Read several records in one coordinator round-trip.

        All keys are served by the coordinator of the *first* key, which
        batches persistent-layer requests per storage hint — the
        operation correlation-aware placement accelerates (E12)."""
        if not keys:
            return {}
        reply = self._call(keys[0], lambda rid: ClientMultiGet(rid, tuple(keys)),
                           kind="multi_get", tenant=tenant)
        return reply.value

    def scan(self, attribute: str, low: float, high: float,
             tenant: Optional[str] = None) -> List[Dict[str, Any]]:
        """Range scan over an indexed attribute (rows sorted by value)."""
        reply = self._call(
            f"scan:{attribute}", lambda rid: ClientScan(rid, attribute, low, high),
            kind="scan", tenant=tenant
        )
        return reply.value

    def aggregate(self, attribute: str, kind: str = "avg",
                  tenant: Optional[str] = None) -> float:
        """Global aggregate (avg | sum | count | max | min)."""
        reply = self._call(
            f"agg:{attribute}:{kind}", lambda rid: ClientAggregate(rid, attribute, kind),
            kind="aggregate", tenant=tenant,
        )
        return reply.value

    # ------------------------------------------------------------------
    def _call(self, routing_key: str, build, kind: str = "op",
              tenant: Optional[str] = None) -> ClientReply:
        if not self._started:
            raise DataDropletsError("call start() before issuing operations")
        # Requests or replies can be lost on a lossy network; clients
        # retry with a fresh request id (operations are idempotent at
        # the coordinator: re-puts take the next version, reads are pure).
        attempts = 1 + CLIENT_RETRIES
        invoked_at = self.sim.now
        trace_attempts: List[Tuple[str, int]] = []
        last_error: Exception = UnavailableError("no live soft-state coordinator")
        tracer = self.tracer
        # Root span of this operation's causal tree (None when tracing is
        # off); every retry sends under it. The tenant tag rides in the
        # root detail so trace analysis can attribute the whole span tree
        # without touching the wire format.
        ctx = tracer.start_trace(
            self.client_node.node_id.value, kind, invoked_at, key=routing_key,
            tenant=tenant or DEFAULT_TENANT)
        # Admission gate (when configured): decide *before* any network
        # traffic. Shed raises; an in-share queue wait advances virtual
        # time, so the measured latency includes the admission delay.
        if self.admission is not None:
            decision = self.admission.offer(tenant or DEFAULT_TENANT, self.sim.now)
            if not decision.admitted:
                tracer.event("shed", self.client_node.node_id.value,
                             self.sim.now, ctx=ctx, reason=decision.reason)
                self._trace(kind, routing_key, trace_attempts, invoked_at,
                            ok=False, error="SheddedError", ctx=ctx, tenant=tenant)
                raise SheddedError(
                    f"{kind} {routing_key!r} shed by admission gate ({decision.reason})")
            if decision.wait > 0:
                tracer.event("admission-wait", self.client_node.node_id.value,
                             self.sim.now, ctx=ctx, wait=decision.wait)
                self.sim.run_for(decision.wait)
        try:
            for _ in range(attempts):
                self._refresh_ring()
                coordinator = self.ring.coordinator_for(routing_key)
                if coordinator is None:
                    raise UnavailableError("no live soft-state coordinator")
                request_id = f"req-{next(self._request_seq)}"
                trace_attempts.append((request_id, coordinator.value))
                message = build(request_id)

                def _send(m=message, c=coordinator) -> None:
                    # Runs later, inside _await_reply's step loop — the
                    # root context must be active *there*, at send time.
                    with tracer.activate(ctx):
                        self.client_node.send(c, "soft", m)

                self.sim.call_soon(_send)
                try:
                    reply = self._await_reply(request_id)
                except TimeoutError_ as exc:
                    last_error = exc
                    continue
                if not reply.ok:
                    raise UnavailableError(reply.error or "operation failed")
                self._trace(kind, routing_key, trace_attempts, invoked_at,
                            ok=True, error=None, ctx=ctx, tenant=tenant)
                return reply
            raise last_error
        except DataDropletsError as exc:
            self._trace(kind, routing_key, trace_attempts, invoked_at,
                        ok=False, error=type(exc).__name__, ctx=ctx, tenant=tenant)
            raise

    def _trace(self, kind: str, routing_key: str, attempts: List[Tuple[str, int]],
               invoked_at: float, ok: bool, error: Optional[str], ctx=None,
               tenant: Optional[str] = None) -> None:
        if ctx is not None:
            self.tracer.event("op-complete", self.client_node.node_id.value,
                              self.sim.now, ctx=ctx, ok=ok)
        if self._op_observer is None:
            return
        self._op_observer(OpTrace(
            kind=kind,
            routing_key=routing_key,
            attempts=tuple(attempts),
            ok=ok,
            error=error,
            invoked_at=invoked_at,
            completed_at=self.sim.now,
            trace_id=ctx.trace_id if ctx is not None else None,
            tenant=tenant,
        ))

    def _await_reply(self, request_id: str) -> ClientReply:
        client: ClientProtocol = self.client_node.protocol("client")  # type: ignore[assignment]
        deadline = self.sim.now + self.config.client_timeout
        while request_id not in client.replies:
            if self.sim.now >= deadline or not self.sim.step():
                raise TimeoutError_(f"no reply to {request_id} after {self.config.client_timeout}s")
        return client.replies.pop(request_id)

    def _refresh_ring(self) -> None:
        if self.config.routing_mode == "onehop":
            # The client's table is learned from a live soft node (like a
            # client library refreshing its routing table); it can lag
            # reality — the redirect fallback covers the gap.
            source = next((n for n in self.soft_nodes if n.is_up), None)
            if source is None:
                return
            router: OneHopRouting = source.protocol("onehop")  # type: ignore[assignment]
            if router.table is None:
                return
            for node in self.soft_nodes:
                self.ring.set_alive(node.node_id, router.table.is_alive(node.node_id.value))
            return
        for node in self.soft_nodes:
            self.ring.set_alive(node.node_id, node.is_up)
