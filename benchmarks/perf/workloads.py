"""Seeded inputs, the last-acked-write oracle and knob-proof config building."""

from __future__ import annotations

import bisect
import dataclasses
import inspect
import itertools
import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from spec import CLUSTER_SEED, INDEX, STOCK_CONFIG, STOCK_SOFT, Workload

Record = Dict[str, Any]
#: ("put", key, record) | ("get", key) | ("multi_get", candidate_keys) | ("scan", lo, hi)
Op = Tuple[Any, ...]
MULTI_GET_KEYS = 5


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------
def keep_known(target: Callable, wanted: Dict[str, Any], dropped: List[str]) -> Dict[str, Any]:
    """``wanted`` minus the keys ``target`` (a dataclass or any callable)
    no longer accepts; the names removed are appended to ``dropped``."""
    if dataclasses.is_dataclass(target):
        known = {f.name for f in dataclasses.fields(target)}
    else:
        known = set(inspect.signature(target).parameters)
    dropped.extend(f"{getattr(target, '__name__', target)}.{k}" for k in wanted if k not in known)
    return {k: v for k, v in wanted.items() if k in known}


def build_config(workload: Workload):
    """``(DataDropletsConfig, dropped_keys)`` for a workload: the pinned
    stock values with the workload's overrides on top. The cluster's own
    seed is pinned too: ``--seed`` varies what the client does, not the
    warm-up or the churn schedule."""
    from repro.core.config import DataDropletsConfig, IndexSpec
    from repro.redundancy.manager import RepairPolicy
    from repro.softstate.coordinator import SoftStateConfig

    dropped: List[str] = []
    wanted = dict(STOCK_CONFIG, seed=CLUSTER_SEED, **(workload.config or {}))
    if "indexes" not in wanted:
        wanted["indexes"] = (IndexSpec(**keep_known(IndexSpec, INDEX, dropped)),)
    soft = dict(STOCK_SOFT, **(workload.soft or {}))
    wanted["soft"] = SoftStateConfig(**keep_known(SoftStateConfig, soft, dropped))
    if workload.repair:
        wanted["repair"] = RepairPolicy(**keep_known(RepairPolicy, workload.repair, dropped))
    return DataDropletsConfig(**keep_known(DataDropletsConfig, wanted, dropped)), dropped


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------
def _record(rng: random.Random, serial: int) -> Record:
    # The pad starts with a serial so every write is distinguishable.
    return {"score": round(rng.uniform(INDEX["lo"], INDEX["hi"]), 3),
            "pad": f"{serial:08d}".ljust(64, "x")}


def _zipf_picker(rng: random.Random, keys: Sequence[str], s: float = 0.99) -> Callable[[], str]:
    cumulative = list(itertools.accumulate(1.0 / (rank + 1) ** s for rank in range(len(keys))))
    total = cumulative[-1]
    return lambda: keys[bisect.bisect_left(cumulative, rng.random() * total)]


def preload_items(workload: Workload, seed: int, smoke: bool) -> List[Tuple[str, Record]]:
    """The key set written during set-up (a quarter of it under ``--smoke``)."""
    count = max(10, workload.preload // 4) if smoke and workload.preload else workload.preload
    rng = random.Random(f"{seed}/{workload.name}/preload")
    return [(f"k{i:05d}", _record(rng, i)) for i in range(count)]


#: Kinds per block of 50 ops. Blocks are shuffled, not drawn, so every
#: seed runs exactly the same number of each kind: a scan costs ten gets
#: of virtual time, and a mix that varied by seed would swamp the rest.
MIX = {
    "sim_write": {"fresh": 35, "overwrite": 15},
    "sim_read": {"get": 45, "put": 2, "multi_get": 2, "scan": 1},
    "sim_churn": {"get": 35, "put": 15},
    "udp_mixed": {"get": 35, "put": 15},
}


def _kinds(rng: random.Random, mix: Dict[str, int], count: int) -> List[str]:
    block = [kind for kind, share in mix.items() for _ in range(share)]
    kinds: List[str] = []
    while len(kinds) < count:
        rng.shuffle(block)
        kinds.extend(block)
    return kinds[:count]


def make_ops(workload: Workload, seed: int, count: int, keys: Sequence[str]) -> List[Op]:
    """The measured phase's operations; same ``(workload, seed, count)``,
    same list. ``keys`` are the preloaded keys: reads and overwrites pick
    from them, by Zipf(0.99) rank on ``sim_read`` and uniformly elsewhere."""
    rng = random.Random(f"{seed}/{workload.name}/ops")
    serial = itertools.count(1_000_000)
    pick = _zipf_picker(rng, keys) if workload.name == "sim_read" else (lambda: rng.choice(keys))
    width = 0.10 * (INDEX["hi"] - INDEX["lo"])
    written: List[str] = []  # sim_write has no preload: it overwrites its own keys
    ops: List[Op] = []
    for index, kind in enumerate(_kinds(rng, MIX[workload.name], count)):
        if kind == "fresh" or (kind == "overwrite" and not written):
            written.append(f"w{index:05d}")
            ops.append(("put", written[-1], _record(rng, next(serial))))
        elif kind == "overwrite":
            ops.append(("put", rng.choice(written), _record(rng, next(serial))))
        elif kind == "put":
            ops.append(("put", pick(), _record(rng, next(serial))))
        elif kind == "get":
            ops.append(("get", pick()))
        elif kind == "multi_get":
            ops.append(("multi_get", tuple(dict.fromkeys(pick() for _ in range(12)))))
        else:
            low = round(rng.uniform(INDEX["lo"], INDEX["hi"] - width), 3)
            ops.append(("scan", low, low + width))
    return ops


def co_routed(ring: Any, keys: Sequence[str]) -> Dict[Any, List[str]]:
    """``keys`` grouped by the coordinator that owns them.

    A ``multi_get`` is served whole by the coordinator of its first key,
    which orders writes only for the keys it owns: for any other key it
    can answer from a stale cache entry. Reads that must see the last
    acked write therefore batch keys of one coordinator only."""
    groups: Dict[Any, List[str]] = {}
    for key in keys:
        groups.setdefault(ring.coordinator_for(key), []).append(key)
    return groups


def multi_get_keys(ring: Any, candidates: Sequence[str]) -> Tuple[str, ...]:
    """The first candidate and those after it that share its coordinator."""
    return tuple(co_routed(ring, candidates)[ring.coordinator_for(candidates[0])][:MULTI_GET_KEYS])


def audit_batches(ring: Any, keys: Sequence[str], size: int) -> List[Tuple[str, ...]]:
    return [tuple(group[i:i + size]) for group in co_routed(ring, sorted(keys)).values()
            for i in range(0, len(group), size)]


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------
class Oracle:
    """Last acked write per key.

    A put that raised is indeterminate: until the next acked put of that
    key, either its value or the previous acked one is accepted."""

    def __init__(self) -> None:
        self.acked: Dict[str, Record] = {}
        self._maybe: Dict[str, List[Record]] = {}

    def ack(self, key: str, record: Record) -> None:
        self.acked[key] = record
        self._maybe.pop(key, None)

    def unsure(self, key: str, record: Record) -> None:
        self._maybe.setdefault(key, []).append(record)

    def read_ok(self, key: str, value: Optional[Record]) -> bool:
        if value == self.acked.get(key):
            return True
        return any(value == record for record in self._maybe.get(key, ()))

    def scan_expected(self, low: float, high: float) -> set:
        attr = INDEX["attribute"]
        return {k for k, r in self.acked.items() if low <= r[attr] <= high}
