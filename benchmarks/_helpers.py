"""Shared utilities for the experiment benchmarks.

Every bench prints a paper-shaped table (run pytest with ``-s`` to see
it) and stores the same rows in ``benchmark.extra_info`` so the numbers
survive in the pytest-benchmark JSON output. :func:`write_artifact` is
the writer ``repro bench --check`` uses: it drops a ``BENCH_<id>.json``
next to the run, a machine-readable record of what was measured and
which gates passed.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence

from repro.cli import write_artifact  # noqa: F401 - re-exported for the benches


def print_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Format and print an aligned table; returns the rendered text."""
    rendered_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [f"\n== {title} =="]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    text = "\n".join(lines)
    print(text)
    return text


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        if cell != cell:  # NaN
            return "n/a"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        return f"{cell:.3f}"
    return str(cell)


def run_once(benchmark, fn: Callable[[], Any]) -> Any:
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are full simulations — statistical variance across
    repeats is already controlled by seeding, and repeating a minute-long
    simulation buys nothing. ``pedantic`` with one round records wall
    time without re-running."""
    box: Dict[str, Any] = {}

    def wrapper():
        box["result"] = fn()

    benchmark.pedantic(wrapper, iterations=1, rounds=1)
    return box["result"]


def stash(benchmark, key: str, rows: List[Dict[str, Any]]) -> None:
    benchmark.extra_info[key] = rows
