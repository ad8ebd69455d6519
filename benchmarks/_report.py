"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and prints a
paper-vs-measured comparison block; ``pytest benchmarks/ --benchmark-only -s``
shows the full report.  Absolute numbers differ from the paper (our
substrate is a simulator, not a ThunderX2); the *shape* — who wins, what
vanishes, where the crossovers fall — is the reproduction target.
"""

from __future__ import annotations

import json
import os

#: set (to anything but "" or "0") by ``make bench``; without it the
#: benchmarks still run and assert, but leave the committed
#: ``BENCH_*.json`` trajectory files untouched, so a tier-1 ``pytest``
#: run keeps the work tree clean
WRITE_SWITCH = "REPRO_BENCH_WRITE"


def merge_json_report(path, updates: dict) -> None:
    """Read-merge-write a shared ``BENCH_*.json`` trajectory file.

    Several benchmarks contribute sections to one report; merging (with
    an unreadable file treated as empty) keeps them from clobbering each
    other's keys.  Writes only when :data:`WRITE_SWITCH` is set.
    """
    if os.environ.get(WRITE_SWITCH, "") in ("", "0"):
        return
    merged = {}
    if path.exists():
        try:
            merged = json.loads(path.read_text())
        except json.JSONDecodeError:
            merged = {}
    merged.update(updates)
    path.write_text(json.dumps(merged, indent=2, sort_keys=True))


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def row(label: str, paper: str, measured: str) -> None:
    print(f"  {label:44s} paper: {paper:18s} measured: {measured}")
