#!/usr/bin/env python3
"""The repo's benchmark: four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/perf/run.py [--workload W] [--seed S] [--reps R]
                                   [--trace [0|1]] [--smoke] [--seconds N] [--out FILE]

Each workload runs in its own subprocess (``PYTHONHASHSEED=0``), one
after the other, driven from a single thread. Every metric is printed by
name with its unit; the last line of standard output is the result as
one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``):
the end-to-end metrics without ``--trace``, the per-layer metrics of a
traced run with it. The exit code is non-zero when an acked write was
lost, too many ops failed, a declared metric is missing, or a simulator
run did not repeat exactly. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from spec import END_TO_END, PER_LAYER, REPS, RUN_SECONDS, WORKLOADS, WORKLOAD_BY_NAME  # noqa: E402

SMOKE_SECONDS = 1.5
CHILD_TIMEOUT_S = 170


def run_child(workload: str, seed: int, seconds: float, reps: int, trace: int,
              smoke: bool) -> Dict[str, Any]:
    """One workload in a fresh interpreter; its result dict."""
    # glibc's allocator pinned: asyncio receives every datagram into a
    # fresh 256 KiB buffer, and with the default dynamic thresholds that
    # buffer is, or is not, unmapped and faulted in again per datagram
    # (0 or ~150 000 minor faults per rep, 25-30 % of udp_mixed throughput)
    # depending on what the heap looked like when the rep began.
    env = dict(os.environ, PYTHONHASHSEED="0", MALLOC_TRIM_THRESHOLD_=str(256 << 20),
               MALLOC_MMAP_THRESHOLD_=str(4 << 20))
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    command = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--reps", str(reps),
               "--trace", str(trace), "--out-dir", os.path.join(HERE, "out")]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"workload {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def verdict(result: Dict[str, Any]) -> List[str]:
    """Why this result is not acceptable (empty: it is)."""
    workload = WORKLOAD_BY_NAME[result["workload"]]
    declared = PER_LAYER if result["traced"] else END_TO_END
    problems = [f"metric {m.name} missing" for m in declared if m.name not in result["metrics"]]
    if result["lost"]:
        problems.append(f"{result['lost']} acked writes lost")
    fail_share = result["failed"] / result["attempted"]
    if fail_share > workload.fail_ceiling:
        problems.append(f"fail_share {fail_share:.4f} above ceiling {workload.fail_ceiling}")
    problems += [f"not exact across same-seed runs ({what})" for what in result["inexact"]]
    if result["shims_left"]:
        problems.append(f"{result['shims_left']} shims still installed")
    return problems


def contract_json(result: Dict[str, Any], problems: List[str]) -> str:
    declared = PER_LAYER if result["traced"] else END_TO_END
    metrics = {m.name: {"value": result["metrics"][m.name]["value"], "unit": m.unit}
               for m in declared if m.name in result["metrics"]}
    return json.dumps({"correct": not problems, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def report(result: Dict[str, Any], problems: List[str]) -> None:
    workload = WORKLOAD_BY_NAME[result["workload"]]
    metrics = result["metrics"]
    reps = len(metrics["setup_s"]["reps"])
    print(f"== {workload.name} ({workload.host}) seed={result['seed']} reps={reps} "
          f"sizes={result['sizes']}")
    print(f"   why: {workload.why}")
    print(f"   samples per kind: {result['samples']}   attempted={result['attempted']} "
          f"failed={result['failed']} lost_acked_writes={result['lost']}")
    print(f"   config_dropped_keys={result['config_dropped_keys']} "
          f"unmapped_protocols={result['unmapped_protocols']}")
    print(f"   calibration kops/s: {' '.join(f'{c:.0f}' for c in result['calib'])}   "
          f"noisy reps: {result['noisy_reps']}/{reps}")
    for title, declared in (("end-to-end", END_TO_END), ("per-layer", PER_LAYER)):
        shown = [m for m in declared if m.name in metrics]
        if not shown:
            continue
        print(f"   -- {title} " + "-" * 60)
        for m in shown:
            v = metrics[m.name]
            clock = ("virtual" if workload.host == "sim" else "host") if m.clock == "native" else m.clock
            spread = f"[{v['min']:.6g} .. {v['max']:.6g}]" if v["min"] != v["max"] else ""
            print(f"   {m.name:<40}{v['value']:>16.6g} {m.unit:<8} {clock:<8}{spread}")
    if result["trace_table"]:
        print("   -- traced run: span self time " + "-" * 40)
        for line in result["trace_table"]:
            print("   " + line)
    for problem in problems:
        print(f"   !! {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS],
                        help="run one workload (default: all four, in order)")
    parser.add_argument("--seed", type=int, default=1, help="workload and cluster seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured host seconds per workload at reference speed "
                             f"(default {RUN_SECONDS}; sizes scale linearly from it)")
    parser.add_argument("--reps", type=int, default=REPS,
                        help="same-seed repetitions, each on a fresh cluster")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: one untraced and one traced repetition, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken sizes: checks the plumbing, not the numbers")
    parser.add_argument("--out", help="also write every workload's full result to this JSON file")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"run.py: no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else (SMOKE_SECONDS if args.smoke else RUN_SECONDS)
    reps = min(args.reps, 2) if args.smoke else args.reps
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]

    results, failed_any = [], False
    for name in names:
        result = run_child(name, args.seed, seconds, reps, args.trace, args.smoke)
        problems = verdict(result)
        report(result, problems)
        print(contract_json(result, problems), flush=True)
        failed_any |= bool(problems)
        results.append(result)
    if args.out:
        with open(args.out, "w") as out:
            json.dump({"seed": args.seed, "seconds": seconds, "reps": reps, "smoke": args.smoke,
                       "results": results}, out, indent=1)
    return 1 if failed_any else 0


if __name__ == "__main__":
    sys.exit(main())
