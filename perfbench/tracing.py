"""Layer tracing from outside the program: spans around public calls.

The benchmark never edits ``src/``.  Instead :class:`Tracer` replaces a
fixed list of public functions and methods — one or more per layer,
named after the module that owns them — with wrappers that record a
span per call (id, parent id, name, start, end) and fold it into
per-name aggregates: call count, inclusive seconds and the seconds
covered by child spans, so a layer's *self* time is inclusive minus
child.

A function is patched in every loaded module that holds it by name, so
``simulate_c`` is caught both as the ``simulate-source`` stage calls it
and as ``repro.api.engine.simulate_c``, which the engine calls outside
that stage.

Process-pool workers cannot report to parent-side wrappers.  While
tracing, the engine's pool entry point (``repro.api.engine._pool_cell``)
is swapped for :func:`traced_pool_cell`, which installs a tracer in the
worker and, after every cell, rewrites that worker's aggregates plus its
artifact-cache counters to ``<PERFBENCH_WORKER_DIR>/<pid>.json``; the
parent folds those files in with :meth:`Tracer.merge_workers`.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import os
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: environment variable naming the directory workers dump aggregates to
WORKER_DIR_ENV = "PERFBENCH_WORKER_DIR"

#: the tracer installed in this process, if any — module state because
#: worker processes reach it only through the pickled pool entry point
_ACTIVE: Optional["Tracer"] = None


def _targets() -> List[Tuple[str, object, str, Optional[Callable]]]:
    """(span name, owner, attribute, result hook) for every traced call.

    ``owner`` is a module (the function is then patched wherever it was
    imported by name) or a class (the method is patched on the class)."""
    from repro.cat.interp import CompiledModel
    from repro.hunt.scheduler import HuntScheduler
    from repro.pipeline.farm import FarmManifest
    from repro.pipeline.store import CampaignStore

    # by module path: packages re-export functions under module names
    # (``repro.tools.mcompare`` is also a function in ``repro.tools``)
    (stdlib, simulator, hunt_reduce, parser, pipeline_farm, c2s, l2c,
     mcompare, s2l) = (
        importlib.import_module(f"repro.{name}")
        for name in ("cat.stdlib", "herd.simulator", "hunt.reduce",
                     "lang.parser", "pipeline.farm", "tools.c2s",
                     "tools.l2c", "tools.mcompare", "tools.s2l")
    )

    return [
        ("herd.source", simulator, "simulate_c", _count_enumeration),
        ("herd.target", simulator, "simulate_asm", _count_enumeration),
        ("cat.static_env", stdlib, "build_static_env", None),
        ("cat.static", CompiledModel, "run_static", None),
        ("cat.dynamic", CompiledModel, "run_dynamic", _count_allowed),
        ("compiler.compile", c2s, "compile_and_disassemble", None),
        ("s2l.lift", s2l, "assembly_to_litmus", None),
        ("l2c.prepare", l2c, "prepare", None),
        ("lang.parse", parser, "parse_c_litmus", None),
        ("mcompare.compare", mcompare, "mcompare", None),
        ("mcompare.diff", mcompare, "diff_baselines", None),
        ("farm.load", FarmManifest, "load", None),
        ("farm.load", FarmManifest, "verify_suite", None),
        ("farm.load", pipeline_farm, "read_baseline", None),
        ("hunt.reduce", hunt_reduce, "reduce_test", None),
        ("hunt.schedule", HuntScheduler, "next_round", None),
        ("store.put", CampaignStore, "put", None),
    ]


def _count_enumeration(tracer: "Tracer", result) -> None:
    stats = result.stats
    counters = tracer.counters
    counters["herd.candidates"] += stats.candidates
    counters["herd.path_combinations"] += stats.path_combinations
    counters["herd.pruned"] += stats.total_pruned


def _count_allowed(tracer: "Tracer", result) -> None:
    if result.allowed:
        tracer.counters["cat.allowed"] += 1


class Tracer:
    """Spans and aggregates for one traced pass (see module docstring)."""

    def __init__(self) -> None:
        self._patches: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        #: span name -> [calls, inclusive seconds, child seconds]
        self.stats: Dict[str, List[float]] = {}
        self.counters: Dict[str, int] = collections.Counter()
        #: finished spans: (id, parent id or -1, name, start, end)
        self.spans: List[Tuple[int, int, str, float, float]] = []
        #: open spans: [id, child seconds]
        self._stack: List[List[float]] = []
        self._next_id = 0

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    def call(self, name: str, fn: Callable, args, kwargs, hook=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [self._next_id, 0.0]
        self._next_id += 1
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            seconds = end - start
            if parent is not None:
                parent[1] += seconds
            agg = self.stats.get(name)
            if agg is None:
                agg = self.stats[name] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += seconds
            agg[2] += frame[1]
            self.spans.append((
                frame[0], parent[0] if parent is not None else -1,
                name, start, end,
            ))
        if hook is not None:
            hook(self, result)
        return result

    def _wrap(self, name: str, fn: Callable, hook) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)

        return traced

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every traced call (idempotent per tracer)."""
        global _ACTIVE
        if self._patches:
            return
        import repro.api.engine as engine
        import repro.pipeline.campaign as campaign

        for name, owner, attr, hook in _targets():
            original = owner.__dict__[attr]
            if isinstance(owner, type):
                if isinstance(original, classmethod):
                    wrapped = classmethod(
                        self._wrap(name, original.__func__, hook)
                    )
                else:
                    wrapped = self._wrap(name, original, hook)
                self._set(owner, attr, wrapped)
                continue
            wrapped = self._wrap(name, original, hook)
            for module in list(sys.modules.values()):
                if (
                    getattr(module, "__name__", "").startswith("repro")
                    and module.__dict__.get(attr) is original
                ):
                    self._set(module, attr, wrapped)

        real_pool = campaign.ProcessPoolExecutor

        def counting_pool(*args, **kwargs):
            self.counters["engine.pool_starts"] += 1
            return real_pool(*args, **kwargs)

        self._set(campaign, "ProcessPoolExecutor", counting_pool)
        self._set(engine, "_pool_cell", traced_pool_cell)
        _ACTIVE = self

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse order)."""
        global _ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if _ACTIVE is self:
            _ACTIVE = None

    # ------------------------------------------------------------------ #
    # worker aggregates
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, object]:
        """JSON-able aggregates (what a worker ships to the parent)."""
        return {"stats": self.stats, "counters": dict(self.counters)}

    def merge(self, snapshot: Dict[str, object]) -> None:
        for name, (calls, total, child) in snapshot["stats"].items():
            agg = self.stats.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += child
        for name, value in snapshot["counters"].items():
            self.counters[name] += value

    def merge_workers(self, directory: str, caches) -> None:
        """Fold every worker dump in ``directory`` into this tracer, and
        the workers' cache counters into ``caches``."""
        for entry in sorted(os.listdir(directory)):
            if not entry.endswith(".json"):
                continue  # a dump still being written
            with open(os.path.join(directory, entry), encoding="utf-8") as f:
                dump = json.load(f)
            self.merge(dump["trace"])
            add_counts(caches, dump["caches"])


def cache_counts(toolchain, source_caches) -> Dict[str, Dict[str, int]]:
    """Hit/miss counters per artifact-cache stage, plus the summed
    source-simulation caches as ``source_sim``."""
    counts = {
        stage: {"hits": c["hits"], "misses": c["misses"]}
        for stage, c in toolchain.cache.stats().items()
    }
    counts["source_sim"] = {
        "hits": sum(cache.hits for cache in source_caches),
        "misses": sum(cache.misses for cache in source_caches),
    }
    return counts


def add_counts(total, counts) -> None:
    """``total += counts``, stage by stage (both as from cache_counts)."""
    for stage, pair in counts.items():
        into = total.setdefault(stage, {"hits": 0, "misses": 0})
        into["hits"] += pair["hits"]
        into["misses"] += pair["misses"]


_WORKER_PID: Optional[int] = None


def traced_pool_cell(task):
    """The engine's pool entry point, traced inside the worker.

    A forked worker inherits the parent's patched tracer; a spawned one
    starts untraced.  Either way the first cell of a worker starts from
    zeroed aggregates, and every cell rewrites the worker's dump file."""
    global _WORKER_PID
    import repro.api.engine as engine

    if _WORKER_PID != os.getpid():
        _WORKER_PID = os.getpid()
        if _ACTIVE is None:
            Tracer().install()
        _ACTIVE.reset()
    original = next(
        value for owner, attr, value in _ACTIVE._patches
        if owner is engine and attr == "_pool_cell"
    )
    record = original(task)
    path = os.path.join(os.environ[WORKER_DIR_ENV], f"{os.getpid()}.json")
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        caches = cache_counts(
            engine._WORKER_TOOLCHAIN, engine._WORKER_SOURCE_CACHES.values()
        )
        json.dump({"trace": _ACTIVE.snapshot(), "caches": caches}, handle)
    os.replace(path + ".tmp", path)
    return record
