#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``.

    python3 benchmarks/perf/compare.py A.json B.json [--write baseline.json]

For every workload and end-to-end metric: B against A, as a ratio, and
whether B is worse by more than the metric's bound. Numbers on the
simulator's virtual clock must be identical when both files used one
seed on one commit. Exit code 1 when anything is out of bounds. With
``--write`` both sets go into one file (the committed ``baseline.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spec import END_TO_END, PER_LAYER, WORKLOAD_BY_NAME  # noqa: E402


def worse_by(metric: Any, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (<= 0: not worse)."""
    if not a:
        return 0.0
    change = (b - a) / abs(a)
    return change if metric.better == "lower" else -change


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    problems: List[str] = []
    same_input = (a["seed"], a["seconds"], a["smoke"]) == (b["seed"], b["seconds"], b["smoke"])
    by_name = {r["workload"]: r for r in b["results"]}
    print(f"{'workload':<10} {'metric':<20}{'A':>14}{'B':>14}{'B worse by':>12}  bound")
    for result_a in a["results"]:
        result_b = by_name.get(result_a["workload"])
        if result_b is None:
            problems.append(f"{result_a['workload']}: missing from B")
            continue
        on_sim = WORKLOAD_BY_NAME[result_a["workload"]].host == "sim"
        for metric in END_TO_END:
            va = result_a["metrics"][metric.name]["value"]
            vb = result_b["metrics"][metric.name]["value"]
            worse = worse_by(metric, va, vb)
            exact = on_sim and metric.clock != "host" and same_input
            flag = ""
            if exact and va != vb:
                flag = "NOT IDENTICAL"
            elif worse > metric.bound:
                flag = "OUT OF BOUND"
            if flag:
                problems.append(f"{result_a['workload']}.{metric.name}: {flag} ({va!r} -> {vb!r})")
            print(f"{result_a['workload']:<10} {metric.name:<20}{va:>14.6g}{vb:>14.6g}{worse:>+12.1%}"
                  f"  {'exact' if exact else format(metric.bound, '.0%')} {flag}")
        if on_sim and same_input:
            for metric in PER_LAYER:
                pair = [r["metrics"].get(metric.name, {}).get("value") for r in (result_a, result_b)]
                if metric.clock != "host" and None not in pair and pair[0] != pair[1]:
                    problems.append(f"{result_a['workload']}.{metric.name}: NOT IDENTICAL {pair}")
        for result in (result_a, result_b):
            if result["lost"]:
                problems.append(f"{result['workload']}: {result['lost']} acked writes lost")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--write", help="write both sets into this file")
    args = parser.parse_args(argv)
    with open(args.a) as fa, open(args.b) as fb:
        a, b = json.load(fa), json.load(fb)
    problems = compare(a, b)
    for problem in problems:
        print(f"!! {problem}")
    if args.write:
        with open(args.write, "w") as out:
            json.dump({"agree": not problems, "sets": [a, b]}, out, indent=1)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
