"""The benchmark's workloads: inputs, one pass, and its correctness gates.

Every workload is a closed loop from one process: a *pass* is one call
into :class:`repro.api.Session`, drained to its last event, on a fresh
session (cold caches, as for a CLI user).  A pass returns its events
with the arrival time of every ``CellFinished``; :meth:`check` then
turns the events into gate verdicts without timing anything.

* ``farm`` — ``Session.farm`` over the checked-in corpus, serial.
* ``farm-procs`` — the same corpus on the process backend
  (``processes=2``).
* ``hunt`` — ``Session.hunt`` over the example seeds, every paper test
  and a draw of corpus tests, with reduction on.  Each pass draws anew
  from the workload seed and the pass index, so a run's median spans
  several draws.
"""

from __future__ import annotations

import collections
import json
import os
import random
import shutil
import tempfile
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from calibration import INTERVAL_S, calibrate, scale

import repro.api.engine as engine
from repro.api import FarmPlan, Session
from repro.api.events import (
    CellFinished,
    FarmFinished,
    FarmStarted,
    HuntProgress,
    SuiteFinished,
    TestReduced,
)
from repro.herd.enumerate import Budget
from repro.hunt.reduce import test_size
from repro.hunt.seeds import example_seeds
from repro.lang.parser import parse_c_litmus
from repro.papertests import all_tests, fig1_exchange
from repro.pipeline.farm import FarmManifest, baseline_record
from repro.pipeline.store import CampaignStore

#: the reference corpus (ROADMAP): 222 tests x 2 profiles
CORPUS = os.path.join("tests", "corpus")
FARM_CELLS = 444
#: corpus tests drawn into each hunt, on top of the fixed seeds
HUNT_DRAW = 20
HUNT_AXES = {"arches": ("aarch64",), "opts": ("-O2",)}
#: the hunt plan's default enumeration budget, reused for re-checks
HUNT_BUDGET = 400_000


@dataclass
class PassResult:
    """One pass: wall time, cell arrival times and gate verdicts."""

    #: pass seconds, calibration samples excluded
    wall_s: float
    #: pass clock at the start of the pass (0), then at every CellFinished
    stamps: List[float]
    events: list
    #: the pass's session, for its cache counters (until released)
    session: Optional[Session]
    #: calibration kernel samples: (pass clock, kernel seconds)
    samples: List[Tuple[float, float]] = field(default_factory=list)
    #: peak RSS of the runner or a pool worker during the pass
    peak_rss_mb: float = 0.0
    cells: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: workload counters read from the event stream (hunt only)
    counters: Dict[str, float] = field(default_factory=dict)
    #: reduced test's original digest -> its ReductionResult (hunt only)
    reductions: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors and self.failed == 0

    def release(self) -> None:
        """Drop the events and session once checked: later passes and
        the peak-RSS reading must not carry this pass's memory."""
        self.events = []
        self.session = None
        self.reductions = {}

    def scaled(self, a: float, b: float) -> float:
        """Reference-machine seconds for the pass-clock interval [a, b]:
        scaled by the calibration samples bracketing it (the last one
        taken by ``a`` and the first taken from ``b`` on), so time in a
        slow phase is corrected by that phase's speed."""
        times = [t for t, _ in self.samples]
        before = self.samples[max(bisect_right(times, a) - 1, 0)][1]
        after = self.samples[min(bisect_left(times, b), len(times) - 1)][1]
        return (b - a) * scale((before, after))

    @property
    def scaled_wall_s(self) -> float:
        """The pass's wall time at reference speed."""
        times = [t for t, _ in self.samples]
        return sum(self.scaled(a, b) for a, b in zip(times, times[1:]))

    def gaps_ms(self, scaled: bool = True) -> List[float]:
        """Milliseconds between consecutive cells, raw or scaled."""
        return [
            (self.scaled(a, b) if scaled else b - a) * 1000.0
            for a, b in zip(self.stamps, self.stamps[1:])
        ]


def drain(stream, tracer=None, quiet=None) -> PassResult:
    """Consume ``stream`` into a :class:`PassResult` (session unset).

    The pass samples the calibration kernel at the start, at the end
    and, untraced, in between: every ``INTERVAL_S`` or, when ``quiet``
    names event types, at those events only (where no pool worker
    competes for the CPU).  Sampling time is cut from the pass clock.
    Traced, the drain between the end samples is the pass's root span,
    ``engine.pass``: what no traced layer claims is engine self time."""
    events: list = []
    samples = [(0.0, calibrate())]
    stamps = [0.0]
    start = perf_counter()
    paused = 0.0
    last = start

    def consume() -> None:
        nonlocal paused, last
        for event in stream:
            events.append(event)
            now = perf_counter()
            if isinstance(event, CellFinished):
                stamps.append(now - start - paused)
            if tracer is None and (
                isinstance(event, quiet) if quiet
                else now - last >= INTERVAL_S
            ):
                samples.append((now - start - paused, calibrate()))
                last = perf_counter()
                paused += last - now

    if tracer is None:
        consume()
    else:
        tracer.call("engine.pass", consume, (), {})
    wall = perf_counter() - start - paused
    samples.append((wall, calibrate()))
    return PassResult(wall, stamps, events, None, samples)


def settle(result: PassResult) -> None:
    """A gate failed that no single cell breaks: every cell of the pass
    counts failed."""
    if result.errors and not result.failed:
        result.failed = result.cells


class FarmWorkload:
    """``Session.farm`` over the corpus, checked byte-for-byte against
    the blessed baselines."""

    def __init__(self, root: str, processes: int) -> None:
        self.root = os.path.join(root, CORPUS)
        self.processes = processes
        manifest = FarmManifest.load(self.root)
        self.suite_tests = {
            name: spec.tests for name, spec in manifest.suites.items()
        }
        #: blessed baseline bytes by (suite, profile)
        self.blessed: Dict[Tuple[str, str], str] = {}
        for spec in manifest.baselines:
            with open(manifest.path(spec.file), encoding="utf-8") as f:
                self.blessed[(spec.suite, spec.profile)] = f.read()

    def plan(self, **fields) -> FarmPlan:
        return FarmPlan(root=self.root, processes=self.processes, **fields)

    def inputs(self, index: int) -> FarmPlan:
        return self.plan()  # the corpus is fixed: no seed, no draw

    def run_pass(self, plan: FarmPlan, tracer=None) -> PassResult:
        session = Session()
        # pool workers live between FarmStarted and each SuiteFinished
        quiet = (FarmStarted, SuiteFinished) if self.processes else None
        result = drain(session.farm(plan), tracer, quiet)
        result.session = session
        return result

    def check(self, result: PassResult, expected_cells: int = FARM_CELLS):
        """Gates: every cell ``ok`` and byte-identical to its blessed
        record, each baseline's records serialise to the blessed file
        bytes, zero drift, and exactly ``expected_cells`` cells."""
        group: List[dict] = []
        finished = None
        for event in result.events:
            if isinstance(event, CellFinished):
                group.append(dict(event.record))
                result.cells += 1
            elif isinstance(event, SuiteFinished):
                self._check_group(result, event, group)
                group = []
            elif isinstance(event, FarmFinished):
                finished = event
        if finished is None or finished.drift != 0:
            result.errors.append("farm pass reported drift or did not finish")
        if result.cells != expected_cells or (
            finished is not None and finished.cells != expected_cells
        ):
            result.errors.append(
                f"{result.cells} cells, expected {expected_cells}"
            )
        settle(result)

    def _check_group(self, result: PassResult, event, records) -> None:
        blessed = self.blessed.get((event.suite, event.profile), "")
        remaining = collections.Counter(blessed.splitlines())
        lines = []
        for record in sorted(
            records,
            key=lambda r: (str(r.get("digest", "")), str(r.get("profile", ""))),
        ):
            line = json.dumps(baseline_record(record), sort_keys=True)
            lines.append(line + "\n")
            if record.get("status") != "ok" or remaining[line] == 0:
                result.failed += 1
            else:
                remaining[line] -= 1
        label = f"{event.suite} @ {event.profile} [{event.model}]"
        if event.drift:
            result.errors.append(f"{label}: {event.drift} drift deltas")
        if "".join(lines) != blessed:
            result.errors.append(f"{label}: records differ from blessed bytes")

    def self_test(self) -> PassResult:
        """Gate liveness: a pass under the LB-permitting ``rc11+lb``
        source model must fail the gates with failed cells."""
        result = self.run_pass(
            self.plan(source_model="rc11+lb", suites=("lb",))
        )
        self.check(result, expected_cells=2 * self.suite_tests["lb"])
        return result


class HuntWorkload:
    """``Session.hunt`` with reduction, on a fresh store per pass."""

    def __init__(self, root: str, seed: int, work_dir: str) -> None:
        self.work_dir = work_dir
        manifest = FarmManifest.load(os.path.join(root, CORPUS))
        pool: List[Tuple[str, str]] = []
        for name in sorted(manifest.suites):
            path = manifest.path(manifest.suites[name].file)
            with open(path, encoding="utf-8") as f:
                for line in f:
                    record = json.loads(line)
                    pool.append((record["source"], record["name"]))
        self.pool = pool
        self.seed = seed
        self.fig1 = fig1_exchange().digest()

    def inputs(self, index: int) -> list:
        """Seeds of pass ``index``: the fixed seeds plus this pass's draw
        (a function of the workload seed and ``index`` alone).  Tests are
        parsed afresh for every pass: digests memoise on the object."""
        draw = random.Random(f"{self.seed}/{index}").sample(
            self.pool, HUNT_DRAW
        )
        drawn = [parse_c_litmus(src, name=name) for src, name in draw]
        return example_seeds() + all_tests() + drawn

    def run_pass(self, seeds: list, tracer=None) -> PassResult:
        # TestReduced events carry the reproducer only as printed source;
        # keep the reducer's own results so the gate re-checks exactly
        # the test the reducer returned
        reductions: Dict[str, object] = {}
        reduce_test = engine.reduce_test

        def capture(*args, **kwargs):
            reduction = reduce_test(*args, **kwargs)
            reductions[reduction.original.digest()] = reduction
            return reduction

        store_dir = tempfile.mkdtemp(dir=self.work_dir)
        engine.reduce_test = capture
        try:
            session = Session(
                store=CampaignStore(os.path.join(store_dir, "h.jsonl"))
            )
            result = drain(
                session.hunt(seeds, reduce=True, **HUNT_AXES), tracer
            )
            with open(session.store.path, encoding="utf-8") as f:
                stored = sum(1 for line in f if line.strip())
        finally:
            engine.reduce_test = reduce_test
            shutil.rmtree(store_dir)
        result.session = session
        result.counters["stored"] = stored
        result.reductions = reductions
        return result

    def check(self, result: PassResult) -> None:
        """Gates: every cell ``ok``; the Fig. 1 exchange bug found
        positive and reduced; every reproducer no larger than its seed
        and still ``positive`` in a fresh session; one store record per
        streamed cell and reproducer."""
        positives = set()
        reduced: List[TestReduced] = []
        scheduled = 0
        duplicates = 0
        for event in result.events:
            if isinstance(event, CellFinished):
                result.cells += 1
                if event.record.get("status") != "ok":
                    result.failed += 1
                if event.record.get("verdict") == "positive":
                    positives.add(event.digest)
            elif isinstance(event, HuntProgress):
                scheduled += event.scheduled
                duplicates = event.duplicates_skipped
            elif isinstance(event, TestReduced):
                reduced.append(event)
        result.counters.update({
            "unfaithful_sources": 0,
            "hunt.mutants_scheduled": scheduled,
            "hunt.duplicates_skipped": duplicates,
            "hunt.reduce_checks": sum(r.checks for r in reduced),
        })
        if self.fig1 not in positives or self.fig1 not in {
            r.digest for r in reduced
        }:
            result.errors.append("Fig. 1 exchange bug not rediscovered")
        if result.counters["stored"] != result.cells + len(reduced):
            result.errors.append(
                f"store holds {result.counters['stored']} records for "
                f"{result.cells} cells + {len(reduced)} reproducers",
            )
        fresh = Session()
        verdicts: Dict[str, str] = {}
        for event in reduced:
            reduction = result.reductions.get(event.digest)
            if (
                reduction is None
                or reduction.reduced.digest() != event.reduced_digest
                or test_size(reduction.reduced) > test_size(reduction.original)
            ):
                result.errors.append(
                    f"reproducer of {event.test} is missing or larger "
                    f"than its seed"
                )
                break
            key = event.reduced_digest
            if key not in verdicts:
                verdicts[key] = fresh.test(
                    reduction.reduced, str(event.record["profile"]),
                    budget=Budget(max_candidates=HUNT_BUDGET),
                ).verdict
            if verdicts[key] != "positive":
                result.errors.append(
                    f"reproducer of {event.test} is not positive"
                )
                break
            # known defect, reported but not gated: the printer drops
            # __int128 widths, so such a stored source re-parses to a
            # different test
            source = parse_c_litmus(str(event.record["source"]))
            if source.digest() != key:
                result.counters["unfaithful_sources"] += 1
        settle(result)
