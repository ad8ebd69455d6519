"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload {farm,farm-procs,hunt,all}
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout of the repository; the program is
imported from ``src/`` next to this directory (after byte-compiling it,
the only build step).  Within ``--seconds`` the workload's passes run
back to back, each on a fresh ``Session``, and each pass is checked by
the workload's correctness gates; a pass that fails a gate is counted
failed and left out of the timings.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics instead
(see ``tracing.py``), plus ``trace.overhead_frac``.  The last line of
standard output is always one JSON object: ``correct``, ``attempted``
and ``failed`` (cells), and ``metrics``.  ``--workload all`` runs every
workload in its own process and merges their results under
``<workload>.<metric>`` names.

Exit status: 0 when a result was printed, 2 when the repository (or
its corpus) is missing or does not build.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch space inside the checkout: per-pass stores, worker dumps, spans
OUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("farm", "farm-procs", "hunt")
PROCESSES = {"farm": 0, "farm-procs": 2, "hunt": 0}
#: fresh-interpreter set-up measurements per run (median reported)
SETUP_PROBES = 9

END_TO_END = {
    "cells_per_s": "cells/s",
    "verdict_p50_ms": "ms",
    "verdict_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "setup_s": "s",
}
CACHE_STAGES = (
    "prepare", "compile", "lift", "simulate-source", "simulate-target",
    "compare",
)
#: traced spans (tracing.py), each reported as <span>_s and <span>_calls
SPANS = (
    "herd.source", "herd.target", "cat.static_env", "cat.static",
    "cat.dynamic", "compiler.compile", "s2l.lift", "l2c.prepare",
    "lang.parse", "mcompare.compare", "mcompare.diff", "farm.load",
    "hunt.reduce", "hunt.schedule", "store.put",
)
LAYERS = (
    "herd", "cat", "compiler", "s2l", "l2c", "lang", "mcompare", "farm",
    "engine", "hunt", "store",
)
#: counts two traced passes of one seed must reproduce exactly
REPEAT_KEYS = (
    "herd.candidates", "cat.dynamic_calls", "compiler.compile_calls",
    "hunt.reduce_checks",
)


def per_layer_names() -> List[str]:
    names = []
    for span in SPANS:
        names += [f"{span}_s", f"{span}_calls"]
    names += ["herd.candidates", "herd.path_combinations", "herd.pruned",
              "cat.allowed_ratio"]
    for stage in CACHE_STAGES + ("source_sim",):
        key = stage.replace("-", "_")
        names += [f"cache.{key}.hits", f"cache.{key}.misses"]
    names += ["cache.hit_ratio", "engine.pool_starts",
              "hunt.mutants_scheduled", "hunt.duplicates_skipped",
              "hunt.reduce_checks"]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += ["trace.overhead_frac"]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


# --------------------------------------------------------------------- #
# environment
# --------------------------------------------------------------------- #
def check_layout() -> None:
    """Refuse to run without the program and its corpus (exit 2)."""
    needed = (
        os.path.join(SRC, "repro", "__init__.py"),
        os.path.join(ROOT, "tests", "corpus", "MANIFEST.json"),
    )
    missing = [path for path in needed if not os.path.isfile(path)]
    if missing:
        sys.stderr.write(f"perfbench: missing {', '.join(missing)}\n")
        sys.exit(2)
    if not compileall.compile_dir(SRC, quiet=2):
        sys.stderr.write("perfbench: src/ does not byte-compile\n")
        sys.exit(2)
    sys.path.insert(0, SRC)


def source_digest() -> str:
    """sha256 over src/**/*.py — identifies the code where git cannot."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    return done.stdout.strip() or "unknown"


def environment(args) -> Dict[str, object]:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "start_method": multiprocessing.get_start_method(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def setup_seconds() -> Tuple[List[float], List[float]]:
    """Raw and reference-machine set-up seconds, one per probe."""
    from calibration import REFERENCE_S

    probe = os.path.join(HERE, "setup_probe.py")
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, probe, ROOT],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, kernel = map(float, done.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * REFERENCE_S / kernel)
    return raw, scaled


def reset_peak_rss() -> None:
    """Open a new peak-RSS window for this process (Linux >= 4.0); where
    that is refused the window spans the whole process."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak RSS of this process in the current window, or of any child
    it has waited for (the pool workers; set-up probes run after the
    last reading), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
    except OSError:
        pass
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # both in KiB


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


# --------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------- #
def make_workload(name: str, seed: int):
    from workloads import FarmWorkload, HuntWorkload

    if name == "hunt":
        return HuntWorkload(ROOT, seed, OUT)
    return FarmWorkload(ROOT, PROCESSES[name])


def warm_up() -> None:
    """Pay the one-off model compilation before any timed pass (it is
    reported as ``setup_s``)."""
    from repro.api import Session

    session = Session()
    for name in ("rc11", "armv7", "aarch64"):
        session.model(name).compile()


def timed_pass(workload, index: int):
    inputs = workload.inputs(index)
    reset_peak_rss()
    result = workload.run_pass(inputs)
    result.peak_rss_mb = peak_rss_mb()
    workload.check(result)
    result.release()
    return result


def report_failures(passes) -> None:
    for index, result in enumerate(passes):
        for error in result.errors[:5]:
            print(f"gate failed (pass {index}): {error}")
    unfaithful = max(p.counters.get("unfaithful_sources", 0) for p in passes)
    if unfaithful:
        print(f"known defect: {unfaithful} stored reproducer sources do not "
              f"re-parse to the reduced test (__int128 widths not printed)")


def run_untraced(args, workload, out: Dict[str, object]) -> None:
    correct = True
    if hasattr(workload, "self_test"):
        probe = workload.self_test()
        probe.release()
        live = probe.failed > 0 and probe.errors
        print(f"gate self-test (rc11+lb on lb): {probe.failed}/"
              f"{probe.cells} cells failed -> "
              f"{'live' if live else 'DEAD'}")
        correct = bool(live)

    passes = []
    deadline = perf_counter() + args.seconds
    while not passes or perf_counter() < deadline:
        passes.append(timed_pass(workload, len(passes)))
    raw_setup, setup = setup_seconds()

    report_failures(passes)
    good = [p for p in passes if p.ok] or passes
    attempted = sum(p.cells for p in passes)
    failed = sum(p.failed for p in passes)

    def timings(scaled: bool):
        """Timing metrics, at reference speed or raw."""
        rates = [
            p.cells / (p.scaled_wall_s if scaled else p.wall_s) for p in good
        ]
        gaps = [g for p in good for g in p.gaps_ms(scaled)]
        return {
            "cells_per_s": statistics.median(rates),
            "verdict_p50_ms": statistics.median(gaps),
            "verdict_p95_ms": statistics.quantiles(gaps, n=100)[94],
        }, len(rates), len(gaps)

    raw, _, _ = timings(scaled=False)
    values, n_passes, n_gaps = timings(scaled=True)
    values.update(
        peak_rss_mb=statistics.median(p.peak_rss_mb for p in good),
        ok_frac=(attempted - failed) / max(attempted, 1),
        setup_s=statistics.median(setup),
    )
    raw["setup_s"] = statistics.median(raw_setup)
    samples = {
        "cells_per_s": n_passes, "verdict_p50_ms": n_gaps,
        "verdict_p95_ms": n_gaps, "peak_rss_mb": n_passes,
        "ok_frac": attempted, "setup_s": len(setup),
    }
    print(f"{'metric':16s} {'value':>14s} {'unit':8s} {'raw':>10s}  samples")
    for name, unit in END_TO_END.items():
        shown = f"{raw[name]:10.4f}" if name in raw else " " * 10
        print(f"{name:16s} {values[name]:14.4f} {unit:8s} {shown}  "
              f"n={samples[name]}")
    out.update(
        correct=correct and all(p.ok for p in passes),
        attempted=attempted,
        failed=failed,
        metrics={
            name: metric(values[name], unit)
            for name, unit in END_TO_END.items()
        },
    )


def layer_values(tracer, result, caches) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    stats = tracer.stats
    values: Dict[str, float] = {}
    for span in SPANS:
        calls, total, _ = stats.get(span, (0, 0.0, 0.0))
        values[f"{span}_s"] = total
        values[f"{span}_calls"] = calls
    for key in ("herd.candidates", "herd.path_combinations", "herd.pruned",
                "engine.pool_starts"):
        values[key] = tracer.counters[key]
    values["cat.allowed_ratio"] = tracer.counters["cat.allowed"] / max(
        values["cat.dynamic_calls"], 1
    )
    hits = misses = 0
    for stage in CACHE_STAGES:
        counts = caches.get(stage, {"hits": 0, "misses": 0})
        key = stage.replace("-", "_")
        values[f"cache.{key}.hits"] = counts["hits"]
        values[f"cache.{key}.misses"] = counts["misses"]
        hits += counts["hits"]
        misses += counts["misses"]
    values["cache.hit_ratio"] = hits / max(hits + misses, 1)
    for key in ("hits", "misses"):
        values[f"cache.source_sim.{key}"] = caches["source_sim"][key]
    for key in ("hunt.mutants_scheduled", "hunt.duplicates_skipped",
                "hunt.reduce_checks"):
        values[key] = result.counters.get(key, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for span, (_, total, child) in stats.items():
        self_s[span.split(".")[0]] += total - child
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s[layer]
    return values


def write_spans(path: str, spans) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, parent, name, start, end in spans:
            handle.write(json.dumps({
                "id": span_id, "parent": parent, "name": name,
                "start": start, "end": end,
            }) + "\n")


def run_traced(args, workload, out: Dict[str, object]) -> None:
    from tracing import WORKER_DIR_ENV, Tracer, cache_counts

    tracer = Tracer()
    worker_dir = os.path.join(OUT, "workers")
    os.environ[WORKER_DIR_ENV] = worker_dir
    untraced, traced, layers = [], [], []
    deadline = perf_counter() + args.seconds
    while len(traced) < 2 or perf_counter() < deadline:
        # every pass of a traced run gets pass 0's inputs, so traced
        # passes are exact repeats and untraced ones their controls
        untraced.append(timed_pass(workload, 0))
        shutil.rmtree(worker_dir, ignore_errors=True)
        os.makedirs(worker_dir)
        inputs = workload.inputs(0)
        tracer.install()
        try:
            tracer.reset()
            result = workload.run_pass(inputs, tracer)
        finally:
            tracer.uninstall()
        caches = cache_counts(
            result.session.toolchain(), [result.session.source_cache]
        )
        tracer.merge_workers(worker_dir, caches)
        workload.check(result)
        result.release()
        traced.append(result)
        layers.append(layer_values(tracer, result, caches))
    write_spans(
        os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"),
        tracer.spans,
    )

    passes = untraced + traced
    report_failures(passes)
    repeat_keys = REPEAT_KEYS + tuple(
        name for name in layers[0] if name.startswith("cache.")
        and name.endswith((".hits", ".misses"))
    )
    drifted = [
        key for key in repeat_keys
        if len({values[key] for values in layers}) != 1
    ]
    if drifted:
        print(f"exact-repeat check FAILED for: {', '.join(drifted)}")
    else:
        print(f"exact-repeat check: {len(repeat_keys)} counts identical "
              f"over {len(layers)} traced passes")

    values = {
        name: statistics.median(v[name] for v in layers)
        for name in layers[0]
    }
    values["trace.overhead_frac"] = (
        statistics.median(p.scaled_wall_s for p in traced)
        / statistics.median(p.scaled_wall_s for p in untraced)
        - 1.0
    )
    print(f"{'layer':10s} {'self_s':>10s} {'calls':>10s}")
    for layer in LAYERS:
        # the engine's one span is the pass itself
        calls = 1 if layer == "engine" else sum(
            values[f"{span}_calls"] for span in SPANS
            if span.startswith(layer + ".")
        )
        print(f"{layer:10s} {values[f'{layer}.self_s']:10.4f} "
              f"{int(calls):10d}")
    print(f"trace.overhead_frac {values['trace.overhead_frac']:.4f}")
    out.update(
        correct=not drifted and all(p.ok for p in passes),
        attempted=sum(p.cells for p in passes),
        failed=sum(p.failed for p in passes),
        metrics={
            name: metric(values[name], unit_of(name))
            for name in per_layer_names()
        },
    )


# --------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------- #
def run_all(args) -> Dict[str, object]:
    """Every workload in its own process (peak RSS stays per workload)."""
    merged: Dict[str, object] = {
        "correct": True, "attempted": 0, "failed": 0, "metrics": {}
    }
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            sys.exit(done.returncode or 2)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric_name, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric_name}"] = entry
    return merged


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    check_layout()
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return

    os.makedirs(OUT, exist_ok=True)
    out: Dict[str, object] = {}
    print("env " + json.dumps(environment(args), sort_keys=True))
    workload = make_workload(args.workload, args.seed)
    warm_up()
    if args.trace:
        run_traced(args, workload, out)
    else:
        run_untraced(args, workload, out)
    print(json.dumps({
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": out["metrics"],
    }))


if __name__ == "__main__":
    main()
