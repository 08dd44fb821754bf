"""Command-line interface: the gated experiments, the fault-injection
campaigns and the trace and metrics tools.

Usage::

    python -m repro bench e15 --check    # one gated experiment (EXPERIMENTS)
    python -m repro check --seeds 25 --quick --no-shrink
    python -m repro trace --record trace.jsonl --check
    python -m repro metrics -n 16 --format prom

``examples/quickstart.py`` and ``examples/churn_survival.py`` are the
end-to-end demos.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
import typing
from typing import Any, Dict, List, Optional

from repro import DataDroplets, DataDropletsConfig, __version__


#: ``repro bench`` ids and the module holding each gated experiment. Its
#: ``run(**params)`` measures and returns a doc with ``metrics``, ``gates``
#: and ``passed``; its ``render(doc)`` formats the rows. The keyword
#: parameters of ``run`` are the experiment's only flags, and its
#: signature holds their only defaults.
EXPERIMENTS = {
    "e05b": "repro.baselines.routebench",
    "e06": "repro.redundancy.churnbench",
    "e15": "repro.epidemic.costbench",
    "e16": "repro.runtime.wirebench",
    "e17": "repro.sim.scalebench",
    "e18": "repro.check.stabbench",
    "e19": "repro.obs.slobench",
}

#: Short spellings of experiment flags.
_SHORT_FLAGS = {"items": "-n"}


def write_artifact(
    bench_id: str,
    metrics: Dict[str, Any],
    gates: Optional[Dict[str, bool]] = None,
    directory: Optional[str] = None,
) -> str:
    """Write ``BENCH_<id>.json`` and return its path.

    The artifact layout is deliberately flat and stable::

        {"id": ..., "unix_time": ..., "metrics": {...},
         "gates": {...}, "passed": <all gates true>}

    ``metrics`` must be JSON-serialisable (numbers, strings, lists,
    dicts); non-serialisable values are stringified rather than failing
    the bench that produced them. ``gates`` maps gate name to pass/fail;
    ``passed`` is their conjunction (vacuously true with no gates, e.g.
    a measurement-only run). ``directory`` defaults to the current
    working directory — the repo root in CI.
    """
    import json
    import os
    import time

    doc = {
        "id": bench_id,
        "unix_time": time.time(),
        "metrics": metrics,
        "gates": dict(gates or {}),
        "passed": all((gates or {}).values()),
    }
    path = os.path.join(directory or os.getcwd(), f"BENCH_{bench_id}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path


def _cmd_bench(args: argparse.Namespace) -> int:
    experiment = importlib.import_module(EXPERIMENTS[args.experiment])
    params = {name: getattr(args, name)
              for name in inspect.signature(experiment.run).parameters}
    summary = inspect.getdoc(experiment.run).splitlines()[0].rstrip(".")
    print(f"{args.experiment}: {summary} "
          f"({', '.join(f'{name}={value}' for name, value in params.items())})")
    doc = experiment.run(**params)
    print(experiment.render(doc))
    if not args.check:
        return 0
    print(f"artifact: {write_artifact(args.experiment, doc['metrics'], doc['gates'])}")
    failed = [name for name, ok in doc["gates"].items() if not ok]
    print("check:", "ok" if doc["passed"] else f"FAILED ({', '.join(failed)})")
    return 0 if doc["passed"] else 1


def _record_trace(args: argparse.Namespace, path: str) -> None:
    """Run a small traced deployment and export its event log."""
    config = DataDropletsConfig(
        n_storage=args.nodes,
        n_soft=2,
        replication=args.replication,
        seed=args.seed,
        tracing=True,
    )
    print(f"recording: {config.n_storage} storage nodes, {args.ops} ops ...")
    dd = DataDroplets(config).start(warmup=15.0)
    for i in range(args.ops):
        dd.put(f"trace:{i}", {"score": float(i), "name": f"row-{i}"})
    if args.ops:
        dd.get("trace:0")
    dd.run_for(15.0)
    written = dd.export_trace(path)
    print(f"{written} events -> {path}")


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.analyze import (
        attribute_tail, load_traces, render_summary, render_tail_attribution,
        summarize,
    )

    path = args.path or "trace.jsonl"
    if args.record:
        _record_trace(args, path)
    elif args.path is None:
        print("trace: need a JSONL path to analyze, or --record", file=sys.stderr)
        return 2
    traces = load_traces(path)
    summaries = summarize(traces)
    if args.tenant is not None:
        keep = {s.trace_id for s in summaries if s.tenant == args.tenant}
        if not keep:
            print(f"trace: no traces for tenant {args.tenant!r}",
                  file=sys.stderr)
            return 2
        traces = {tid: tr for tid, tr in traces.items() if tid in keep}
        summaries = [s for s in summaries if s.trace_id in keep]
    print(render_summary(summaries, limit=args.limit, show_paths=args.paths))
    # Per-tenant attribution of the slow tail: which protocol phase the
    # p99 operations actually spent their time in.
    attribution = attribute_tail(traces, q=args.quantile, summaries=summaries)
    if attribution:
        print()
        print(render_tail_attribution(attribution, q=args.quantile))
    if args.check:
        connected = sum(1 for s in summaries if s.connected)
        ok = bool(summaries) and connected == len(summaries)
        print("check:", "ok" if ok else
              f"FAILED ({connected}/{len(summaries)} traces connected)")
        return 0 if ok else 1
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.obs.export import (
        CounterWindows, metrics_json, prometheus_text, render_windows_report,
    )
    from repro.obs.slo import TENANT_PREFIX, SloTracker, escape_tenant

    tenant_filter = None
    if args.tenant is not None:
        tenant_filter = f"tenant.{escape_tenant(args.tenant)}."

    if args.path is not None:
        with open(args.path) as fh:
            doc = json.load(fh)
        print(render_windows_report(doc, last=args.last,
                                    name_filter=tenant_filter))
        return 0

    config = DataDropletsConfig(
        n_storage=args.nodes, n_soft=2, replication=4, seed=args.seed,
    )
    print(f"sampling: {config.n_storage} storage nodes, "
          f"{args.duration:.0f}s at {args.period:g}s windows ...")
    dd = DataDroplets(config).start(warmup=10.0)
    # The tracker turns the facade's OpTraces into tenant.* families so
    # the export formats below have per-tenant series to show.
    SloTracker(dd.metrics, {}, window=args.duration).attach(dd)
    windows = CounterWindows(dd.metrics, prefixes=("net.", TENANT_PREFIX))
    windows.attach(dd.sim, period=args.period)
    tenants = ("alpha", "beta")
    for i in range(25):
        dd.put(f"m:{i}", {"v": i}, tenant=tenants[i % len(tenants)])
    dd.run_for(args.duration)
    windows.detach()

    if args.format == "prom":
        text = prometheus_text(dd.metrics, tenant_top_k=args.tenant_top_k)
        if tenant_filter is not None:
            prom_needle = tenant_filter.replace(".", "_")
            text = "".join(line + "\n" for line in text.splitlines()
                           if prom_needle in line)
    elif args.format == "json":
        doc = metrics_json(dd.metrics, windows,
                           tenant_top_k=args.tenant_top_k)
        if tenant_filter is not None:
            doc = {section: {name: value for name, value in values.items()
                             if tenant_filter in name}
                   for section, values in doc.items()
                   if isinstance(values, dict)}
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = render_windows_report(
            metrics_json(dd.metrics, windows,
                         tenant_top_k=args.tenant_top_k),
            last=args.last, name_filter=tenant_filter) + "\n"
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"written to {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    import json

    from repro.check.explorer import explore, replay

    if args.replay is not None:
        with open(args.replay) as fh:
            artifact = json.load(fh)
        reproduced = replay(artifact, progress=print)
        print("replay:", "all failures reproduced" if reproduced
              else "FAILED to reproduce")
        return 0 if reproduced else 1

    report = explore(
        args.seeds,
        seed_base=args.seed_base,
        quick=args.quick,
        break_repair=args.break_repair,
        floor=args.floor,
        shrink=not args.no_shrink,
        progress=print,
        nemesis_mode=args.nemesis,
        break_audit=args.break_audit,
        bound_rounds=args.bound_rounds,
    )
    if args.artifact is not None:
        with open(args.artifact, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"artifact written to {args.artifact}")
    failures = report["failures"]
    passed = args.seeds - len(failures)
    print(f"check: {passed}/{args.seeds} cases clean, {len(failures)} failing")
    if args.expect_violation:
        if failures:
            print("expected violation confirmed")
            return 0
        print("FAILED: no violation produced (checkers may be broken)")
        return 1
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DataDroplets (DSN 2011) reproduction — experiments, checks, traces, metrics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser(
        "bench", help="the gated experiments; 'repro bench ID --help' lists "
                      "one experiment's flags")
    experiments = bench.add_subparsers(dest="experiment", required=True, metavar="ID")
    for bench_id, module in EXPERIMENTS.items():
        run = importlib.import_module(module).run
        doc = inspect.getdoc(run)
        experiment = experiments.add_parser(
            bench_id, help=doc.splitlines()[0], description=doc,
            formatter_class=argparse.RawDescriptionHelpFormatter)
        hints = typing.get_type_hints(run)
        for name, param in inspect.signature(run).parameters.items():
            # Optional[X] -> X
            kind = next((t for t in typing.get_args(hints[name]) if t is not type(None)),
                        hints[name])
            flags = [_SHORT_FLAGS[name]] if name in _SHORT_FLAGS else []
            experiment.add_argument(*flags, "--" + name.replace("_", "-"), type=kind,
                                    default=param.default, help="default: %(default)s")
        experiment.add_argument("--check", action="store_true",
                                help="exit non-zero unless every gate passes "
                                     "(writes BENCH_<id>.json)")
    bench.set_defaults(fn=_cmd_bench)

    trace = sub.add_parser(
        "trace", help="causal trace analysis (record a traced run and/or "
                      "analyze a JSONL event log)")
    trace.add_argument("path", nargs="?", default=None,
                       help="trace JSONL to analyze (default trace.jsonl "
                            "with --record)")
    trace.add_argument("--record", action="store_true",
                       help="run a small traced simulation first and write "
                            "its event log to PATH")
    trace.add_argument("-n", "--nodes", type=int, default=50,
                       help="storage nodes for --record")
    trace.add_argument("--ops", type=int, default=10,
                       help="client puts for --record")
    trace.add_argument("-r", "--replication", type=int, default=4)
    trace.add_argument("--seed", type=int, default=42)
    trace.add_argument("--summary", action="store_true",
                       help="aggregate per-phase summary (the default output)")
    trace.add_argument("--paths", action="store_true",
                       help="also print each trace's critical path")
    trace.add_argument("--limit", type=int, default=10,
                       help="traces shown individually")
    trace.add_argument("--tenant", default=None,
                       help="restrict the summary and tail attribution to "
                            "one tenant's operations")
    trace.add_argument("--quantile", type=float, default=0.99,
                       help="tail quantile attributed per tenant "
                            "(default 0.99)")
    trace.add_argument("--check", action="store_true",
                       help="exit non-zero unless every trace's span tree "
                            "is connected")
    trace.set_defaults(fn=_cmd_trace)

    metrics = sub.add_parser(
        "metrics", help="windowed metrics report / Prometheus export "
                        "(runs a small simulation, or renders a JSON dump)")
    metrics.add_argument("path", nargs="?", default=None,
                         help="metrics JSON dump to render instead of "
                              "running a simulation")
    metrics.add_argument("-n", "--nodes", type=int, default=40)
    metrics.add_argument("--duration", type=float, default=20.0)
    metrics.add_argument("--period", type=float, default=1.0,
                         help="window width in virtual seconds")
    metrics.add_argument("--seed", type=int, default=42)
    metrics.add_argument("--format", choices=("report", "prom", "json"),
                         default="report")
    metrics.add_argument("-o", "--output", default=None, metavar="PATH")
    metrics.add_argument("--last", type=int, default=6,
                         help="windows shown per counter")
    metrics.add_argument("--tenant", default=None,
                         help="show only this tenant's metric families")
    metrics.add_argument("--tenant-top-k", type=int, default=None,
                         help="cap exported per-tenant series to the top-K "
                              "tenants by operation count (rest aggregate "
                              "into 'other')")
    metrics.set_defaults(fn=_cmd_metrics)

    check = sub.add_parser(
        "check", help="Jepsen-style fault-injection checking campaign "
                      "(fuzzed nemesis schedules + history checkers)")
    check.add_argument("--seeds", type=int, default=10,
                       help="number of (seed, schedule) cases to fuzz")
    check.add_argument("--seed-base", type=int, default=0,
                       help="first seed of the range")
    check.add_argument("--quick", action="store_true",
                       help="small deployment, no indexes (CI smoke profile)")
    check.add_argument("--break-repair", action="store_true",
                       help="positive control: disable redundancy repair and "
                            "drip permanent kills — violations expected")
    check.add_argument("--expect-violation", action="store_true",
                       help="exit non-zero unless at least one case FAILS "
                            "(used with --break-repair)")
    check.add_argument("--nemesis", choices=("stock", "corruption"),
                       default="stock",
                       help="fault tier to fuzz: 'stock' recoverable faults, "
                            "or 'corruption' state-corruption events with the "
                            "bounded-time self-stabilisation checker")
    check.add_argument("--break-audit", action="store_true",
                       help="positive control for --nemesis corruption: "
                            "disable the periodic state audit so poisoned "
                            "summaries cannot heal — violations expected")
    check.add_argument("--bound-rounds", type=int, default=8,
                       help="anti-entropy rounds within which every injected "
                            "corruption must be detected and healed")
    check.add_argument("--floor", type=int, default=1,
                       help="replica-count floor asserted after quiesce")
    check.add_argument("--no-shrink", action="store_true",
                       help="skip greedy schedule shrinking on failures")
    check.add_argument("--artifact", default=None, metavar="PATH",
                       help="write the JSON campaign report here")
    check.add_argument("--replay", default=None, metavar="PATH",
                       help="re-run the failures of a saved artifact instead "
                            "of fuzzing (exit 0 iff all reproduce)")
    check.set_defaults(fn=_cmd_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
