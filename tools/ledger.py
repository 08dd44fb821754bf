#!/usr/bin/env python3
"""Reachability ledger: which functions under ``src/repro/`` anything runs.

    python tools/ledger.py [--check]

Runs a fixed list of commands -- the four benchmark workloads at full
size, every ``repro check``/``bench``/``trace``/``metrics`` line of CI,
the positive controls, full-profile fault campaigns, the examples and
every ``benchmarks/bench_e*.py`` -- each in a child interpreter that
records every code object it enters, and reports each function outside
``baselines/`` that none of them entered. Lambdas and comprehensions are
not counted; class bodies are (they run at import). A function is named
``<path under src/>::<qualname>``; two definitions with one name (a
property's getter and setter) are one entry.

``tools/ledger_keep.txt`` names each unreached function that stays, one
per line: ``<name> <tag> <why>``, where the tag is one of

  a  safety code: oversized or malformed input, error and lifecycle
     handlers, fault-injection and audit seams, abstract methods;
  b  a checker path that runs only when a case fails;
  c  a reference implementation a test compares against;
  d  a path of a supported config no command sets (name the config and
     the ROADMAP item that will reach it).

``--check`` exits 1 when an unreached function is not kept, or a kept
name is now entered or no longer exists. The children record with
``sys.settrace`` (one callback per Python frame, none per C call, and
pytest-benchmark's ``sys.setprofile(None)`` around a timed call cannot
switch it off); the experiments run with ``--benchmark-disable``.
``JOBS`` children run at once.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import runpy
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, Iterator, List, Sequence, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
EXCLUDED = (os.path.join(PACKAGE, "baselines") + os.sep,)
KEEP_FILE = os.path.join(ROOT, "tools", "ledger_keep.txt")
TAGS = ("a", "b", "c", "d")
JOBS = 2

#: Each group runs in order in one worker; the workers take groups in
#: this order, longest first. ``{tmp}`` is the group's scratch directory.
REPRO = ("-m", "repro")
GROUPS: List[List[Sequence[str]]] = [
    [("benchmarks/perf/child.py", "--workload", w, "--seed", "1",
      "--seconds", "18", "--reps", "1", "--out-dir", "{tmp}")
     for w in ("sim_write", "sim_read", "sim_churn", "udp_mixed")],
    [
        REPRO + ("check", "--seeds", "25", "--quick", "--no-shrink"),
        REPRO + ("check", "--nemesis", "corruption", "--seeds", "10", "--quick",
                 "--no-shrink"),
        REPRO + ("check", "--seeds", "2", "--no-shrink"),
        REPRO + ("check", "--seeds", "2", "--no-shrink", "--nemesis", "corruption"),
        REPRO + ("check", "--seeds", "2", "--seed-base", "1", "--quick", "--break-repair",
                 "--expect-violation", "--artifact", "{tmp}/repair.json"),
        REPRO + ("check", "--replay", "{tmp}/repair.json"),
        REPRO + ("check", "--seeds", "1", "--quick", "--no-shrink", "--nemesis",
                 "corruption", "--break-audit", "--expect-violation"),
    ],
    [
        REPRO + ("bench", "e18", "--check"),
        REPRO + ("bench", "e06", "--nodes", "32", "--churn-duration", "150",
                 "--heal-duration", "50", "--check"),
        REPRO + ("bench", "e15", "-n", "2000", "--divergence", "0.01", "--check"),
        REPRO + ("bench", "e16", "--check"),
        REPRO + ("bench", "e05b", "--nodes", "200", "--lookups", "120", "--window", "12",
                 "--check"),
        REPRO + ("bench", "e17", "--nodes", "3000", "--duration", "2.0",
                 "--cross-check-n", "300", "--check"),
        REPRO + ("bench", "e19", "--nodes", "24", "--rate", "80", "--slo-duration", "8",
                 "--seed", "42", "--trace-out", "{tmp}/e19.jsonl", "--check"),
        REPRO + ("trace", "{tmp}/e19.jsonl", "--tenant", "gold", "--check"),
        REPRO + ("trace", "--record", "{tmp}/trace.jsonl", "--ops", "5", "-n", "50",
                 "--summary", "--check"),
        REPRO + ("metrics", "-n", "16", "--duration", "5", "--format", "json",
                 "-o", "{tmp}/metrics.json"),
        REPRO + ("metrics", "{tmp}/metrics.json"),
        REPRO + ("metrics", "-n", "16", "--duration", "5", "--format", "prom",
                 "--tenant-top-k", "1"),
    ],
    [(os.path.join("examples", name),)
     for name in sorted(os.listdir(os.path.join(ROOT, "examples"))) if name.endswith(".py")],
] + [
    [("-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
      os.path.join("benchmarks", name))]
    for name in sorted(os.listdir(os.path.join(ROOT, "benchmarks")))
    if name.startswith("bench_e") and name.endswith(".py")
]


# -- what exists ------------------------------------------------------------

def _walk(code) -> Iterator:
    for const in code.co_consts:
        if hasattr(const, "co_qualname"):
            if not const.co_name.startswith("<"):
                yield const
            yield from _walk(const)


def _name(path: str, qualname: str) -> str:
    return f"{os.path.relpath(path, SRC)}::{qualname}"


def functions() -> Dict[str, int]:
    """Every function outside ``baselines/``: name -> first line."""
    found: Dict[str, int] = {}
    for folder, _dirs, files in os.walk(PACKAGE):
        for file in sorted(files):
            path = os.path.join(folder, file)
            if not file.endswith(".py") or path.startswith(EXCLUDED):
                continue
            with open(path, encoding="utf-8") as handle:
                module = compile(handle.read(), path, "exec")
            for code in _walk(module):
                found.setdefault(_name(path, code.co_qualname), code.co_firstlineno)
    return found


# -- recording (child side) ---------------------------------------------------

def record(out: str, argv: List[str]) -> int:
    """Run ``argv`` (``-m module ...`` or ``script ...``) in this process."""
    seen: Dict[int, object] = {}

    def tracer(frame, event, arg):
        code = frame.f_code
        if id(code) not in seen:
            seen[id(code)] = code
        return None

    status = 0
    sys.argv = argv[1:] if argv[0] == "-m" else list(argv)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        if argv[0] == "-m":
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.path.insert(0, os.path.dirname(os.path.abspath(argv[0])))
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exit_:
        status = exit_.code if isinstance(exit_.code, int) else (0 if exit_.code is None else 1)
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
        names = set()
        for code in seen.values():
            path = os.path.realpath(code.co_filename)
            if path.startswith(PACKAGE + os.sep) and not path.startswith(EXCLUDED):
                names.add(_name(path, code.co_qualname))
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(sorted(names), handle)
    return status


# -- orchestration ------------------------------------------------------------

def _run_group(commands: List[Sequence[str]], entered: Set[str],
               failures: List[str], lock: threading.Lock) -> None:
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    with tempfile.TemporaryDirectory(prefix="ledger-") as tmp:
        for command in commands:
            argv = [part.replace("{tmp}", tmp) for part in command]
            out = os.path.join(tmp, "entered.json")
            started = time.monotonic()
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--record", out, "--", *argv],
                cwd=tmp if argv[0] == "-m" and argv[1] == "repro" else ROOT, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            line = f"{time.monotonic() - started:7.1f}s  {' '.join(command)}"
            with lock:
                print(line if done.returncode == 0 else f"{line}  FAILED ({done.returncode})",
                      flush=True)
                if done.returncode != 0:
                    failures.append(f"{' '.join(command)}: exit {done.returncode}\n"
                                    + done.stderr[-2000:])
                if os.path.exists(out):
                    with open(out, encoding="utf-8") as handle:
                        entered.update(json.load(handle))
                    os.remove(out)


def run_all() -> Tuple[Set[str], List[str]]:
    entered: Set[str] = set()
    failures: List[str] = []
    lock = threading.Lock()
    todo: "queue.Queue[List[Sequence[str]]]" = queue.Queue()
    for group in GROUPS:
        todo.put(group)

    def worker() -> None:
        while True:
            try:
                commands = todo.get_nowait()
            except queue.Empty:
                return
            _run_group(commands, entered, failures, lock)

    threads = [threading.Thread(target=worker) for _ in range(JOBS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return entered, failures


def read_keep() -> Tuple[Dict[str, Tuple[str, str]], List[str]]:
    kept: Dict[str, Tuple[str, str]] = {}
    problems: List[str] = []
    with open(KEEP_FILE, encoding="utf-8") as handle:
        for number, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 2)
            if len(parts) < 3 or parts[1] not in TAGS:
                problems.append(f"ledger_keep.txt:{number}: want '<name> <a|b|c|d> <why>'")
            elif parts[0] in kept:
                problems.append(f"ledger_keep.txt:{number}: {parts[0]} kept twice")
            else:
                kept[parts[0]] = (parts[1], parts[2])
    return kept, problems


def judge(entered: Set[str]) -> List[str]:
    every = functions()
    kept, problems = read_keep()
    unreached = sorted(name for name in every if name not in entered)
    problems += [f"unreached, not kept: {name} (line {every[name]})"
                 for name in unreached if name not in kept]
    problems += [f"kept but entered: {name}" for name in sorted(kept) if name in entered]
    problems += [f"kept but gone: {name}" for name in sorted(kept) if name not in every]
    by_tag = {tag: sum(1 for name in unreached if kept.get(name, ("",))[0] == tag)
              for tag in TAGS}
    print(f"{len(every)} functions outside baselines/: {len(every) - len(unreached)} entered, "
          f"{len(unreached)} unreached, of them kept "
          + ", ".join(f"({tag}) {n}" for tag, n in by_tag.items()))
    return problems


def main(argv: List[str]) -> int:
    if argv[:1] == ["--record"]:
        return record(argv[1], argv[3:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless every unreached function is kept and "
                             "every kept one is unreached")
    args = parser.parse_args(argv)

    started = time.monotonic()
    entered, failures = run_all()
    print(f"ran {sum(len(group) for group in GROUPS)} commands in "
          f"{time.monotonic() - started:.0f}s")
    problems = failures + judge(entered)
    for problem in problems:
        print(problem)
    return 1 if args.check and problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
