"""Timing shims the benchmark installs around each layer's public calls.

Nothing under ``src/`` knows about these: a :class:`SpanRecorder`
replaces class attributes (``Node.handle_message``, ``Network.send``,
``Memtable.put`` ...) with wrappers for the life of one traced run and
puts the originals back afterwards. Spans nest on a stack; a span's
*self time* is its duration minus the time its child spans cover.
Accumulators (calls, self time) cover every call; full span records
(name, start, end, parent, client-op id) are kept only while a sampled
client op is open.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from typing import Any, Callable, Dict, List, Optional

_clock = time.perf_counter_ns


class SpanRecorder:
    def __init__(self) -> None:
        #: span name -> [calls, self_ns]
        self.acc: Dict[str, List[int]] = {}
        #: per open span: nanoseconds covered by its children so far
        self._stack: List[int] = []
        #: sampled spans as [name, start_ns, end_ns, parent_index, op_id]
        self.records: List[List[Any]] = []
        #: indices into ``records`` of the open sampled spans; None while
        #: no sampled client op is open
        self._open: Optional[List[int]] = None
        self._op_id = -1
        self._origin = _clock()
        self._patches: List[tuple] = []

    # -- spans -----------------------------------------------------------
    def call(self, name: str, func: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``func`` inside a span called ``name``."""
        stack = self._stack
        open_ids = self._open
        if open_ids is not None:
            parent = open_ids[-1] if open_ids else -1
            open_ids.append(len(self.records))
            self.records.append([name, 0, 0, parent, self._op_id])
        stack.append(0)
        start = _clock()
        try:
            return func(*args, **kwargs)
        finally:
            end = _clock()
            duration = end - start
            children = stack.pop()
            acc = self.acc.get(name)
            if acc is None:
                acc = self.acc[name] = [0, 0]
            acc[0] += 1
            acc[1] += duration - children
            if stack:
                stack[-1] += duration
            if open_ids is not None:
                record = self.records[open_ids.pop()]
                record[1] = start
                record[2] = end

    def wrap(self, func: Callable, name: str, name_arg: Optional[int] = None) -> Callable:
        """``func`` wrapped in a span; with ``name_arg`` the positional
        argument at that index (a protocol name) is appended to ``name``."""
        call = self.call
        if name_arg is None:
            @functools.wraps(func)
            def shim(*args: Any, **kwargs: Any) -> Any:
                return call(name, func, *args, **kwargs)
        else:
            @functools.wraps(func)
            def shim(*args: Any, **kwargs: Any) -> Any:
                return call(name + args[name_arg], func, *args, **kwargs)
        return shim

    def sample_op(self, op_id: Optional[int]) -> None:
        """Keep full span records from now on under ``op_id`` (None: stop).
        Call only between spans, never inside one."""
        self._open = None if op_id is None else []
        self._op_id = -1 if op_id is None else op_id

    def reset(self) -> None:
        """Zero the accumulators (start of the measured phase)."""
        self.acc.clear()
        self.records.clear()
        self._origin = _clock()

    def write_jsonl(self, path: str) -> int:
        with open(path, "w") as out:
            for index, (name, start, end, parent, op_id) in enumerate(self.records):
                out.write(json.dumps({"span": index, "name": name, "parent": parent, "op": op_id,
                                      "start_us": (start - self._origin) / 1e3,
                                      "end_us": (end - self._origin) / 1e3}) + "\n")
        return len(self.records)

    # -- installing ------------------------------------------------------
    def patch(self, owner: Any, attr: str, name: str, name_arg: Optional[int] = None) -> None:
        """Replace ``owner.attr`` with a span wrapper; undone by :meth:`remove`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, name_arg))

    def patch_timers(self, host_cls: type) -> None:
        """Label every callback handed to ``host_cls.set_timer`` by the
        protocol that owns it."""
        original = host_cls.__dict__["set_timer"]
        call = self.call

        @functools.wraps(original)
        def set_timer(host: Any, delay: float, callback: Callable[[], None]) -> Any:
            name = "timer." + timer_owner(callback)
            return original(host, delay, lambda: call(name, callback))

        self._patches.append((host_cls, "set_timer", original))
        host_cls.set_timer = set_timer

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> int:
        return len(self._patches)


def timer_owner(callback: Callable) -> str:
    """Name of the protocol a timer callback belongs to, or ``other``.

    Follows ``functools.partial``, bound methods, ``PeriodicTimer`` (to
    the callback it re-arms for) and closures that captured a protocol."""
    from repro.sim.node import PeriodicTimer, Protocol

    for _ in range(4):
        if isinstance(callback, functools.partial):
            callback = callback.func
            continue
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, PeriodicTimer):
            callback = getattr(owner, "_callback", None)
            continue
        if isinstance(owner, Protocol):
            return owner.name
        for cell in getattr(callback, "__closure__", None) or ():
            try:
                captured = cell.cell_contents
            except ValueError:  # empty cell
                continue
            if isinstance(captured, Protocol):
                return captured.name
        break
    return "other"


def _public_functions(cls: type) -> Dict[str, Callable]:
    """Plain public methods defined by ``cls`` or its bases (generators
    are skipped: wrapping one times only its creation)."""
    found: Dict[str, Callable] = {}
    for klass in reversed(cls.__mro__[:-1]):
        for attr, value in vars(klass).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and not inspect.isgeneratorfunction(value)):
                found[attr] = value
    return found


def _concrete_sieves(base: type) -> List[type]:
    out, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "admits" in vars(cls):
            out.append(cls)
    return out


def install_common(recorder: SpanRecorder) -> None:
    """Shims shared by both hosts: memtable and sieve admission."""
    import repro.sieve  # noqa: F401  (imports every concrete sieve)
    from repro.sieve.base import Sieve
    from repro.store.memtable import Memtable

    for attr in _public_functions(Memtable):
        owner = next(k for k in Memtable.__mro__ if attr in vars(k))
        recorder.patch(owner, attr, f"store.{attr}")
    for cls in _concrete_sieves(Sieve):
        recorder.patch(cls, "admits", f"sieve.{cls.__name__}")


def install_sim(recorder: SpanRecorder) -> None:
    from repro.core.datadroplets import DataDroplets
    from repro.sim.network import Network
    from repro.sim.node import Node

    install_common(recorder)
    recorder.patch(Node, "handle_message", "handler.", name_arg=2)
    recorder.patch_timers(Node)
    recorder.patch(Network, "send", "sim.net")
    for kind in ("put", "get", "multi_get", "scan"):
        recorder.patch(DataDroplets, kind, f"facade.{kind}")


def install_udp(recorder: SpanRecorder) -> None:
    """Runtime-side shims. Handler spans are added per protocol instance
    by the benchmark's own stack factories (``AsyncioNode`` dispatches to
    ``on_message`` directly, there is no per-node entry point to wrap)."""
    import repro.runtime.host as host_module
    from repro.common.codec import make_codec
    from repro.runtime.host import AsyncioNode

    install_common(recorder)
    recorder.patch_timers(AsyncioNode)
    recorder.patch(AsyncioNode, "send", "runtime.send")
    recorder.patch(AsyncioNode, "datagram_received", "runtime.datagram_received")
    if "_flush_all" in vars(AsyncioNode):  # the coalescing flush the loop calls
        recorder.patch(AsyncioNode, "_flush_all", "runtime.flush")
    recorder.patch(type(make_codec("binary")), "encode_envelope", "codec.encode")
    recorder.patch(host_module, "decode_datagram_detailed", "codec.decode")
