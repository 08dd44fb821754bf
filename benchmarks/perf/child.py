"""Workload subprocess: repetitions of one workload, result as one JSON line.

Launched by ``run.py`` with ``PYTHONHASHSEED=0`` (set-iteration order
cannot leak into a run) and ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import measure  # noqa: E402
import shims  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOAD_BY_NAME, layer_of  # noqa: E402

#: A rep whose calibration scores before and after differ by more is noisy.
NOISY = 0.10
HOST_CLOCK = {m.name for m in END_TO_END + PER_LAYER if m.clock == "host"}


def _one_rep(workload: Any, args: argparse.Namespace,
             recorder: Optional[shims.SpanRecorder] = None) -> Dict[str, Any]:
    import simhost
    import udphost

    host = simhost if workload.host == "sim" else udphost
    gc.collect()
    calib_before = measure.calibrate()
    rep = host.run_rep(workload, args.seed, args.seconds, args.smoke, recorder)
    calib_after = measure.calibrate()
    rep["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rep["calib"] = [calib_before, calib_after]
    rep["noisy"] = abs(calib_after - calib_before) / max(calib_before, calib_after) > NOISY
    rep["metrics"] = measure.derive(rep)
    return rep


def _exact(workload: Any, rep: Dict[str, Any]) -> Dict[str, float]:
    """What must repeat exactly under one seed (simulator only)."""
    if workload.host != "sim":
        return {}
    view = {k: v for k, v in rep["metrics"].items() if k not in HOST_CLOCK}
    view.update(events=rep["events"], attempted=rep["attempted"], failed=rep["failed"],
                lost=rep["lost"])
    return view


def _mismatches(a: Dict[str, float], b: Dict[str, float]) -> List[str]:
    return sorted(k for k in a if a[k] != b.get(k))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--reps", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    workload = WORKLOAD_BY_NAME[args.workload]

    measure.calibrate()  # the first call in a process runs cold; discard it
    reps = [_one_rep(workload, args) for _ in range(1 if args.trace else args.reps)]
    exact = _exact(workload, reps[0])
    inexact = [f"rep {i}: {', '.join(diff)}" for i, rep in enumerate(reps[1:], 1)
               if (diff := _mismatches(exact, _exact(workload, rep)))]

    values: Dict[str, List[float]] = {}
    for rep in reps:
        for name, value in rep["metrics"].items():
            values.setdefault(name, []).append(value)
    # Same-seed reps do the same work (bit-identical on the simulator, the
    # same whole maintenance rounds on UDP) and host noise, another process
    # taking the core for seconds at a time, only ever slows a rep. So every
    # number of the measured phase comes from one rep, the fastest: then
    # ops_per_s, sim.us_per_event and sim.speed describe the same host
    # seconds. Set-up time is the fastest set-up for the same reason (its
    # median moved by a third between a quiet and a noisy half hour, its
    # minimum by an eighth); memory is the median over the reps.
    fastest = max(reps, key=lambda rep: rep["metrics"]["ops_per_s"])
    picked = dict(fastest["metrics"], setup_s=min(values["setup_s"]),
                  peak_rss_mb=statistics.median(values["peak_rss_mb"]))
    trace_lines: List[str] = []
    if args.trace:
        recorder = shims.SpanRecorder()
        (shims.install_sim if workload.host == "sim" else shims.install_udp)(recorder)
        try:
            traced = _one_rep(workload, args, recorder)
        finally:
            recorder.remove()
        if (diff := _mismatches(exact, _exact(workload, traced))):
            inexact.append(f"traced run: {', '.join(diff)}")
        untraced_s_per_op = reps[0]["host_s"] / max(1, reps[0]["attempted"])
        for name, value in measure.derive_traced(traced, untraced_s_per_op).items():
            values[name] = [value]
            picked[name] = value
        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(args.out_dir, f"trace_{workload.name}.jsonl")
        spans_written = recorder.write_jsonl(path)
        trace_lines = measure.span_table(traced["spans"], traced["host_s"])
        trace_lines.append(f"  {spans_written} sampled spans -> {path}")
        reps.append(traced)
    calib = [c for rep in reps for c in rep["calib"]]
    values["host.calib_kops_per_s"] = calib
    picked["host.calib_kops_per_s"] = statistics.median(calib)

    unmapped = sorted({protocol for rep in reps
                       for protocol in measure.per_protocol(rep["counters"], "net.sent.")
                       if layer_of(protocol) is None})
    result = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "traced": bool(args.trace),
        "metrics": {name: {"value": picked[name], "median": statistics.median(v),
                           "min": min(v), "max": max(v), "reps": v}
                    for name, v in values.items()},
        "attempted": fastest["attempted"], "failed": max(r["failed"] for r in reps),
        "lost": max(r["lost"] for r in reps),
        "inexact": inexact,
        "noisy_reps": sum(1 for r in reps if r["noisy"]), "calib": calib,
        "samples": {k: len(v) for k, v in fastest["lat_ms"].items()},
        "config_dropped_keys": fastest["config_dropped_keys"], "sizes": fastest["sizes"],
        "unmapped_protocols": unmapped, "trace_table": trace_lines,
        "shims_left": 0 if not args.trace else recorder.installed,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
