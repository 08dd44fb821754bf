"""What the benchmark measures: workloads, pinned configuration, metrics.

Everything a later PR compares against is declared here once.
``BENCHMARK.json`` at the repo root is generated from this file:

    python3 benchmarks/perf/spec.py > BENCHMARK.json

Clocks: *virtual* numbers are simulated seconds or counts — identical
run to run under one seed; *host* numbers are ``perf_counter`` seconds —
noisy, and noise only ever slows a run, so each workload runs ``REPS``
same-seed repetitions and every number of the measured phase is that of
the fastest rep, ``setup_s`` the fastest set-up, ``peak_rss_mb`` the
median.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

#: Same-seed repetitions per invocation, each on a freshly built cluster.
REPS = 3
#: Measured host seconds of one invocation at the frozen sizes below
#: (``REPS`` × ~6 s on the 2-core reference box). ``--seconds`` scales
#: op counts and the churn and heal horizons linearly from here: the loads are
#: count-driven, not clock-driven, so virtual metrics stay exact.
RUN_SECONDS = 18
#: The simulated cluster's own seed, the same for every ``--seed``.
CLUSTER_SEED = 42
#: One client op in this many keeps its full span tree in the trace.
TRACE_SAMPLE_EVERY = 50

# ---------------------------------------------------------------------------
# pinned configuration (explicit, so default flips do not move the baseline)
# ---------------------------------------------------------------------------
INDEX = {"attribute": "score", "lo": 0.0, "hi": 100.0}

STOCK_CONFIG = {
    "n_storage": 64,
    "n_soft": 4,
    "replication": 4,
    "routing_mode": "onehop",
    "redundancy_mode": "static",
    "lazy_gossip": False,
    "gossip_mode": "infect-and-die",
    "audit_enabled": True,
    "repair_enabled": True,
    "loss_rate": 0.0,
    "tracing": False,
    "admission": None,
    # No estimator epochs: every restart (30 virtual s by default) shifts
    # the index's equi-depth buckets and several hundred items are
    # re-broadcast, each as a full epidemic, at a virtual time that falls
    # differently among each seed's ops: with epochs on, messages per op
    # spread 11 % over ten seeds on sim_write, with them off 0.6 %.
    "estimator_epoch": None,
}
#: Coordinator cache far smaller than any workload's key set per
#: coordinator, so cache hits, hinted reads and epidemic fallbacks all occur.
#: A scan whose overlay walk dies waits for this deadline: at the default
#: 8 virtual s one such scan outweighs a hundred gets and the run-to-run
#: spread of every per-op metric with it.
STOCK_SOFT = {"cache_capacity": 10, "scan_timeout": 2.0}


@dataclass(frozen=True)
class Workload:
    name: str
    host: str  # "sim" | "udp"
    why: str
    #: client ops per rep at RUN_SECONDS (sim_churn: derived from the
    #: horizon; udp_mixed: an upper bound, the window ends the rep)
    ops: int
    preload: int  # keys written during set-up
    #: share of attempted ops that may fail before the run is rejected
    fail_ceiling: float = 0.0
    config: Optional[Dict[str, object]] = None  # overrides of STOCK_CONFIG
    soft: Optional[Dict[str, object]] = None  # overrides of STOCK_SOFT
    repair: Optional[Dict[str, object]] = None  # RepairPolicy overrides
    #: virtual seconds between the due times of a paced client's ops (0: back to back)
    pace_s: float = 0.0
    #: sim_churn: virtual seconds of churn at RUN_SECONDS, then heal
    churn_s: float = 0.0
    heal_s: float = 0.0
    churn: Optional[Dict[str, float]] = None
    #: udp_mixed: closed-loop clients, wall warm-up, measured window, per-op timeout
    udp: Optional[Dict[str, float]] = None


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="sim_write", host="sim", ops=320, preload=0,
        why="Every put is an epidemic broadcast: gossip relay, Network.send, sieve admission "
            "and memtable apply do most of the work, the soft-state layer almost none.",
    ),
    Workload(
        name="sim_read", host="sim", ops=500, preload=120, pace_s=0.1,
        why="Zipf reads over a key set 3x the coordinator caches with writes and scans beside "
            "them: host time is background maintenance plus sim core; gossip does little.",
    ),
    Workload(
        name="sim_churn", host="sim", ops=0, preload=100, fail_ceiling=0.05,
        # No index: on the other workloads index migration is 60-80 % of all
        # bytes and triples the copies of a key, which hides repair. A
        # client whose request went to a node that then crashed waits 3
        # virtual s, not the default 30 (which would eat the horizon).
        config={"indexes": (), "client_timeout": 3.0, "repair_period": 5.0},
        # Census, grace and same-range anti-entropy compressed 2-3x with the
        # churn rates, so several censuses and grace windows fit the
        # horizon; grace is shorter than the mean downtime, so repair acts.
        repair={"check_period": 5.0, "grace_window": 10.0},
        # An op that meets a crashed replica waits 1 virtual s per try, not 3.
        # Reads probe one hinted replica, not two: a read then meets a
        # crashed one about as often as a node is down (a fifth of reads),
        # which puts op_p95_ms firmly on the timeout-and-fallback path. At
        # two probes 2-6 % of ops are slow and p95 flips between 0.2 s and
        # 1.1 s from seed to seed.
        soft={"read_timeout": 1.0, "ack_timeout": 1.0, "read_fanout": 1},
        churn_s=60.0, heal_s=12.0, pace_s=0.4,
        churn={"event_rate": 1.0, "mean_downtime": 15.0, "permanent_fraction": 0.2},
        why="Crash/reboot churn of the storage layer (no index) over a fixed virtual horizon, "
            "then heal: census walks and same-range repair are half of all bytes and a "
            "fifth of reads meet a crashed replica.",
    ),
    Workload(
        name="udp_mixed", host="udp", ops=6000, preload=120, fail_ceiling=0.01,
        # Wall-clock periods: gossip twice a second, census/repair/audit
        # every 2 s so each fires inside the measured window.
        config={"n_storage": 16, "n_soft": 2, "membership_period": 0.5,
                "size_estimator_period": 0.5, "pushsum_period": 0.5, "tman_period": 0.5,
                "repair_period": 2.0, "audit_period": 2.0},
        soft={"ack_timeout": 1.0, "read_timeout": 1.0},
        # A census of 8 walks, not 32: on 16 nodes 32 walks per node every
        # 2 s were a fifth of the CPU, all in one burst per round. The
        # clients got what the burst left, so a core slowed by 30 % cost
        # them 40-50 %, and p95 was the wait behind a burst.
        repair={"check_period": 2.0, "walks_per_check": 8},
        # The measured window is three whole 2 s maintenance rounds.
        udp={"clients": 2, "warmup_s": 1.5, "window_s": 6.0, "op_timeout_s": 5.0},
        why="The same stacks on loopback UDP sockets: the only workload where the codec and "
            "runtime.host (encode, coalesce, sockets, asyncio timers) do any work at all.",
    ),
)
WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}

# ---------------------------------------------------------------------------
# protocol -> layer (layers are src/repro package names)
# ---------------------------------------------------------------------------
LAYERS = ("epidemic", "membership", "estimation", "randomwalk",
          "redundancy", "overlay", "softstate", "core")
_LAYER_OF = {
    "gossip": "epidemic", "membership": "membership", "size-estimator": "estimation",
    "random-walk": "randomwalk", "redundancy": "redundancy", "range-repair": "redundancy",
    "multi-overlay": "overlay", "soft": "softstate", "onehop": "softstate",
    "soft-membership": "softstate", "storage": "core", "client": "core",
}
_LAYER_PREFIX = {"push-sum:": "estimation", "histogram:": "estimation",
                 "extreme:": "estimation", "tman:": "overlay"}
#: Layers whose traffic is maintenance rather than client work (Leslie's
#: split); ``onehop`` is the only maintenance protocol of ``softstate``.
MAINTENANCE_LAYERS = ("membership", "estimation", "randomwalk", "redundancy", "overlay")
MAINTENANCE_PROTOCOLS = ("onehop", "soft-membership")


def layer_of(protocol: str) -> Optional[str]:
    """Layer owning a protocol name; None for one this map does not know."""
    layer = _LAYER_OF.get(protocol)
    if layer is None:
        for prefix, owner in _LAYER_PREFIX.items():
            if protocol.startswith(prefix):
                return owner
    return layer


def is_maintenance(protocol: str) -> bool:
    return protocol in MAINTENANCE_PROTOCOLS or layer_of(protocol) in MAINTENANCE_LAYERS


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    clock: str  # "host" | "virtual" | "native" (virtual on sim_*, host on udp_mixed)
    meaning: str
    bound: Optional[float] = None  # end-to-end only


#: A bound is about three times the metric's widest interquartile spread
#: over ten seeds on any workload (baseline.json), at most the contract's
#: 25 %: the driver compares medians over different seeds. Numbers on the
#: virtual clock spread 0.2-7 % (sim_churn the most); host-clock numbers
#: 4-8 % in a quiet half hour on the reference box and 15-23 % in a noisy
#: one, so they carry the ceiling.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", "host",
           "construct + boot + warm-up + preload, before the first measured op (fastest rep)", 0.25),
    Metric("ops_per_s", "1/s", "higher", "host",
           "OK client ops per host second of the measured phase", 0.25),
    Metric("op_p50_ms", "ms", "lower", "native",
           "median client-visible op latency in the deployment's own clock", 0.25),
    Metric("op_p95_ms", "ms", "lower", "native",
           "95th percentile of the same (>= 10 samples beyond it, 7 on sim_churn)", 0.25),
    Metric("net_msgs_per_op", "count", "lower", "native",
           "all messages, client and maintenance, per client op", 0.15),
    Metric("net_bytes_per_op", "bytes", "lower", "native",
           "all bytes per client op (modelled sizes on sim, encoded bytes on UDP)", 0.20),
    Metric("maint_byte_share", "ratio", "lower", "native",
           "bytes of maintenance protocols / all bytes", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "host",
           "ru_maxrss of the workload subprocess (median of the reps)", 0.05),
)


def _per_layer() -> Tuple[Metric, ...]:
    out = []
    for layer in LAYERS:
        out += [
            Metric(f"{layer}.msgs_per_op", "count", "lower", "native",
                   f"messages sent by {layer} protocols per client op"),
            Metric(f"{layer}.bytes_per_op", "bytes", "lower", "native",
                   f"bytes sent by {layer} protocols per client op"),
            Metric(f"{layer}.self_ms_per_op", "ms", "lower", "host",
                   f"traced self time of {layer} handlers and timers per client op"),
            Metric(f"{layer}.calls_per_op", "count", "lower", "native",
                   f"traced handler + timer invocations of {layer} per client op"),
        ]
    m = Metric
    out += [
        m("sim.events_per_op", "count", "lower", "virtual", "simulator events per client op"),
        m("sim.us_per_event", "us", "lower", "host", "measured host time / events processed"),
        m("sim.speed", "ratio", "higher", "host", "virtual seconds simulated per host second"),
        m("sim.net_sends_per_op", "count", "lower", "virtual", "traced Network.send calls per op"),
        m("sim.net_self_ms_per_op", "ms", "lower", "host", "traced self time of Network.send per op"),
        m("sim.core_self_ms_per_op", "ms", "lower", "host",
          "event heap + dispatch + facade: host time no shim claims, per op"),
        m("epidemic.duplicate_ratio", "ratio", "lower", "native",
          "gossip.duplicates / all gossip receives"),
        m("sieve.self_ms_per_op", "ms", "lower", "host", "traced self time of Sieve.admits per op"),
        m("sieve.calls_per_op", "count", "lower", "native", "traced Sieve.admits calls per op"),
        m("sieve.accept_ratio", "ratio", "higher", "native",
          "storage.writes_applied / gossip.delivered"),
        m("store.self_ms_per_op", "ms", "lower", "host", "traced self time of Memtable methods per op"),
        m("store.calls_per_op", "count", "lower", "native", "traced Memtable method calls per op"),
        m("store.copies_per_key", "count", "lower", "native",
          "mean durable copies per live key on UP storage nodes, against r (two regimes by seed)"),
        m("store.copies_min", "count", "higher", "native", "fewest durable copies of any live key"),
        m("randomwalk.hops_per_walk", "count", "lower", "native", "walks.hops / walks.started"),
        m("randomwalk.timeout_ratio", "ratio", "lower", "native", "walks.timeouts / walks.started"),
        m("redundancy.byte_share", "ratio", "lower", "native", "redundancy-layer bytes / all bytes"),
        m("redundancy.repair_bytes_per_virt_s", "bytes/s", "lower", "native",
          "redundancy.repair_bytes per second of the deployment's clock"),
        m("redundancy.redisseminated_per_virt_s", "1/s", "lower", "native",
          "redundancy.items_redisseminated per second of the deployment's clock"),
        m("overlay.scan_recall", "ratio", "higher", "virtual",
          "rows returned / rows expected over all scans (0 when the workload has none)"),
        m("softstate.cache_hit_ratio", "ratio", "higher", "native", "soft.cache_hits / soft.reads"),
        m("softstate.epidemic_read_ratio", "ratio", "lower", "native",
          "soft.epidemic_reads / soft.reads"),
        m("softstate.write_retry_ratio", "ratio", "lower", "native",
          "soft.write_retries / soft.writes"),
        m("softstate.stale_route_ratio", "ratio", "lower", "native",
          "onehop.stale_routes / client ops"),
        m("core.put_virt_p50_ms", "ms", "lower", "native", "median put latency"),
        m("core.get_virt_p50_ms", "ms", "lower", "native", "median get latency"),
        m("core.multiget_virt_p50_ms", "ms", "lower", "native", "median multi_get latency"),
        m("core.scan_virt_p50_ms", "ms", "lower", "native", "median scan latency"),
        m("core.fail_share", "ratio", "lower", "native", "failed / attempted client ops"),
        m("core.lost_acked_writes", "count", "lower", "native",
          "keys whose last acked value the end-of-run audit could not read (must be 0)"),
        m("common.codec.encode_us_per_msg", "us", "lower", "host", "traced encode_envelope self time"),
        m("common.codec.decode_us_per_msg", "us", "lower", "host",
          "traced decode_datagram_detailed self time per decoded message"),
        m("common.codec.bytes_per_msg", "bytes", "lower", "host", "encoded bytes per message sent"),
        m("runtime.self_ms_per_op", "ms", "lower", "host",
          "traced send + flush + datagram_received self time per op"),
        m("runtime.datagrams_per_op", "count", "lower", "host", "datagrams sent per client op"),
        m("runtime.msgs_per_datagram", "count", "higher", "host", "messages per datagram (coalescing)"),
        m("runtime.cpu_util", "ratio", "lower", "host", "process CPU seconds / wall seconds, measured phase"),
        m("runtime.wall_p99_ms", "ms", "lower", "host", "99th percentile wall latency on real sockets"),
        m("trace.overhead_ratio", "ratio", "lower", "host", "traced / untraced host time per client op"),
        m("trace.unattributed_share", "ratio", "lower", "host",
          "host time in timer callbacks whose owning protocol could not be resolved / run host time"),
        m("host.calib_kops_per_s", "kops/s", "higher", "host",
          "fixed pure-Python calibration loop, median over the run"),
    ]
    return tuple(out)


PER_LAYER: Tuple[Metric, ...] = _per_layer()


def benchmark_json() -> Dict[str, Any]:
    """The contract file's content."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
