"""The streaming campaign engine: cell producers feeding a typed event stream.

Every campaign mode runs through one cell loop, :func:`_run_pending`,
with two backends — serial, and a process pool — that *yield* verdict
records as they land (completion order, not work-list order);
:func:`fold_events` reconstructs the deterministic
:class:`~repro.pipeline.campaign.CampaignReport` from any complete
stream.  The per-run state every mode shares — source hoisting, store
replay, event construction and persist-then-yield — lives in one
:class:`_CellContext`.

All three campaign modes run through the one skeleton:

* ``mode="tv"`` — translation validation, one cell per (test × arch ×
  opt × compiler), evaluated by :func:`run_test_tv`;
* ``mode="differential"`` — compiler vs compiler (paper §IV-D), one
  cell per (test × profile pair), evaluated by :func:`run_differential`.
  Cells tally under ``(arch, "diff", "<spec_a>|<spec_b>")``, so shard
  merging, store replay and event folding need no special cases;
* ``mode="hunt"`` — the §V mutation loop (:func:`iter_hunt`): tv cells
  over a work list that *grows* round by round from verdict feedback,
  plus reduction of every positive (:mod:`repro.hunt`).

Invariants the rest of the system builds on:

* **event ordering** — a stream is ``CampaignStarted`` first,
  ``CampaignFinished`` last (absent only if the run raised); cells may
  arrive in any completion order but carry their deterministic
  work-list ``index``, so folding sorts and any complete stream of the
  same run folds identically.  Hunt streams interleave
  :class:`HuntProgress` after each round's cells (``round_index``
  partitions the cell stream) and :class:`TestReduced` before
  ``CampaignFinished``; neither changes cell tallies.
* **one cache** — every cell runs through the session toolchain, whose
  artifact cache keys each stage by content and by what names resolve
  *to* in the session (model signatures, profile signatures with their
  epoch bug sets, stage signatures), so shadowing a model or swapping a
  stage re-simulates instead of replaying stale artifacts.
  Session-local definitions are refused for process pools (workers
  resolve against the globals) and for persistent stores (records key
  by name).
* **source hoisting** — a test's source simulation runs once per
  session and source model, on both backends: the toolchain's
  ``simulate-source`` stage (keyed by :meth:`Toolchain.source_key`) is
  the one hoisting point, bounded like every stage by the session's
  ``artifact_cache_entries``.  Serial cells run straight through it; the
  process backend ships each test's first pending cell without a
  source, seeds the stage with the simulation its worker returns, and
  ships the test's other cells with it attached (:func:`_run_pending`).
  Workers keep nothing between tasks, so which cell simulates a source
  depends on the work list alone — its record alone says
  ``source_reused: false`` — and a source that times out or errors is
  simulated once, its cells all getting the same ``timeout``/``error``
  record.
* **shard determinism** — ``shard=(k, n)`` evaluates exactly every n-th
  cell of the deterministic work list starting at the k-th; the n shard
  reports merge back to the unsharded report byte-for-byte.  Hunt work
  lists are dynamic, so hunts refuse cell-sharding (shard the seed
  source instead) — their determinism comes from round-synchronous
  scheduling: the same seeds and verdicts schedule the same rounds on
  both backends.
* **persistence** — each freshly computed record is stored *before* its
  event is yielded, so an interrupted campaign resumes from every
  finished cell.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..compiler.profiles import make_profile, parse_profile
from ..core.cache import KeyedCache
from ..core.errors import ModelError, ReproError
from ..herd.enumerate import Budget
from ..herd.simulator import SimulationResult
# reduce_test is called through this module's globals: the benchmark
# harness (perfbench/) patches it here
from ..hunt.reduce import ReductionError, reduce_test
from ..hunt.scheduler import HuntScheduler
from ..lang.ast import CLitmus
from ..lang.printer import print_c_litmus
# pools open through ``campaign.ProcessPoolExecutor``, looked up at call
# time: the benchmark harness (perfbench/) counts pool starts by
# patching it there
from ..pipeline import campaign as campaign_mod
from ..pipeline.campaign import (
    STORE_SCHEMA,
    CampaignReport,
    _campaign_cells,
    _profile_name,
    _shape_record,
    _verdict_record,
    merge_reports,
)
from ..pipeline.store import cell_key
from ..pipeline.telechat import run_differential, run_test_tv
from ..toolchain import Toolchain
from ..tools.mutate import DEFAULT_OPERATORS, MutationError
from .events import (
    CampaignEvent,
    CampaignFinished,
    CampaignStarted,
    CellFinished,
    HuntProgress,
    ShardMerged,
    TestReduced,
)
from .plan import CampaignPlan, PlanError

#: one work item: (test, arch, opt, compiler) for tv cells, and
#: (test, arch, "diff", "<spec_a>|<spec_b>") for differential cells —
#: one tuple shape so replay, events and folding share every code path.
Cell = Tuple[CLitmus, str, str, str]

#: the toolchain stage that hoists source simulations
SOURCE_STAGE = "simulate-source"

#: always empty: workers keep nothing between tasks, since the parent
#: session's toolchain hoists every source.  Kept because the benchmark
#: harness (perfbench/) sums worker cache counters over it.
_WORKER_SOURCE_CACHES: Dict[Tuple, KeyedCache] = {}

#: per-process staged toolchain (the benchmark harness, perfbench/,
#: reads its cache counters).  Its artifact entries live for one pool task
#: (:func:`_in_worker` clears them on return; the hit/miss counters keep
#: running): which cells share a worker depends on scheduling, so
#: cross-task reuse would make a run's work — and its cache counters —
#: vary from run to run.  Scoping also bounds the worker's memory however
#: many cells it evaluates.
_WORKER_TOOLCHAIN = Toolchain()


def _source(
    toolchain: Toolchain,
    litmus: CLitmus,
    source_model: str,
    augment: bool,
    budget_candidates: int,
    seed=None,
) -> SimulationResult:
    """``litmus``'s source simulation from ``toolchain``'s
    ``simulate-source`` stage: replayed if cached, else ``seed`` (a
    simulation run elsewhere, or its :class:`ReproError`) landed there —
    or, with no seed, simulated."""
    return toolchain.simulate_source(
        toolchain.prepare(litmus, augment=augment),
        source_model,
        budget=Budget(max_candidates=budget_candidates),
        seed=seed,
    ).result


def _in_worker(
    evaluate: Callable[[], Dict[str, object]], litmus: CLitmus, tail: Tuple
) -> Tuple[Dict[str, object], object]:
    """Run one pool task's ``evaluate()`` over the worker's toolchain,
    clearing its artifacts on return.

    ``tail`` ends in the source the parent shipped (see
    :func:`_run_pending`): the test's cached simulation or its cached
    error, seeded into the worker's ``simulate-source`` stage so the
    cell replays it — or ``None`` for a test's first cell, which
    simulates its source and hands back what landed (result or error)
    beside the record for the parent to seed.  The JSON-able record, not
    a result object, is the cross-process (and on-disk) currency."""
    source_model, augment, budget_candidates, source = tail
    landed = None
    try:
        if source is not None:
            try:
                _source(_WORKER_TOOLCHAIN, litmus, source_model, augment,
                        budget_candidates, source)
            except ReproError:
                pass  # cached: the cell's own run replays it
        record = evaluate()
        if source is None:
            landed = _WORKER_TOOLCHAIN.cache.peek(
                SOURCE_STAGE,
                _WORKER_TOOLCHAIN.source_key(
                    litmus, augment=augment, model=source_model,
                    budget=Budget(max_candidates=budget_candidates),
                ),
            )
    finally:
        _WORKER_TOOLCHAIN.cache.clear()
    if landed is not None and not isinstance(landed, ReproError):
        landed = landed.result
    return record, landed


def _pool_cell(task: Tuple) -> Tuple[Dict[str, object], object]:
    """Evaluate one tv cell in a worker process (the benchmark harness,
    perfbench/, swaps this name for a traced wrapper).

    Worker processes resolve models against the *global* registries —
    session overlays do not cross the process boundary (the session
    refuses to try).
    """
    litmus, arch, opt, compiler, source_model, augment, budget_candidates = (
        task[:7]
    )
    return _in_worker(lambda: _verdict_record(
        litmus, arch, opt, compiler, source_model, augment,
        budget_candidates,
        lambda: run_test_tv(
            litmus,
            make_profile(compiler, opt, arch),
            source_model=source_model,
            augment=augment,
            budget=Budget(max_candidates=budget_candidates),
            toolchain=_WORKER_TOOLCHAIN,
        ),
    ), litmus, task[4:])


def _diff_verdict_record(
    litmus: CLitmus,
    arch: str,
    label: str,
    spec_a: str,
    spec_b: str,
    source_model: str,
    augment: bool,
    budget_candidates: int,
    produce_result,
) -> Dict[str, object]:
    """Run one differential cell and shape its outcome as a verdict
    record — the tv status contract (``_shape_record``).  ``label``
    (``"<spec_a>|<spec_b>"``) stands in for the profile name in the
    store key, so differential verdicts persist and resume like tv ones.
    """
    identity = {
        "profile": label,
        "profile_a": spec_a,
        "profile_b": spec_b,
        "source_model": source_model,
    }
    record = _shape_record(
        dict(
            identity,
            schema=STORE_SCHEMA,
            digest=litmus.digest(),
            test=litmus.name,
            mode="differential",
            arch=arch,
            opt="diff",
            compiler=label,
            augment=bool(augment),
            budget_candidates=budget_candidates,
        ),
        produce_result,
    )
    # identity fields win over the result's name-based rendering: plan
    # profile *specs* may carry a version suffix profile names drop
    record.update(identity)
    return record


def _pool_diff_cell(task: Tuple) -> Tuple[Dict[str, object], object]:
    """Evaluate one differential cell in a worker process (profiles are
    re-parsed against the global registries).  The source simulation is
    the UB oracle, shipped and returned as in :func:`_pool_cell`."""
    (litmus, arch, label, spec_a, spec_b, source_model, augment,
     budget_candidates) = task[:8]
    return _in_worker(lambda: _diff_verdict_record(
        litmus, arch, label, spec_a, spec_b, source_model, augment,
        budget_candidates,
        lambda: run_differential(
            litmus,
            parse_profile(spec_a),
            parse_profile(spec_b),
            source_model=source_model,
            augment=augment,
            budget=Budget(max_candidates=budget_candidates),
            toolchain=_WORKER_TOOLCHAIN,
        ),
    ), litmus, task[5:])


def _run_pending(
    pending: List[Tuple[int, Cell]], ctx: "_CellContext"
) -> Iterator[Tuple[int, Cell, Dict[str, object]]]:
    """Stream ``(index, item, record)`` for every pending cell — the one
    cell loop every campaign mode shares, on one of two backends.

    Serial (``processes=0``) evaluates cells in work-list order through
    the session toolchain; a failure propagates at once.

    The process pool streams records in *completion* order (events carry
    their deterministic index, so folding is order-independent) and
    hoists each source simulation into the session toolchain's
    ``simulate-source`` stage like the serial backend.  The first pending
    cell of each test (work-list order) ships with no source and
    simulates it in its worker, which hands the simulation back beside
    the record; the parent seeds the stage with it
    (:meth:`_CellContext.seed`) and only then ships the test's held
    cells, each with the cached simulation (or its cached timeout/error)
    attached.  So which cell simulates a source depends on the work list
    alone, never on scheduling, and a failing source is simulated once.
    A first cell that lands no simulation (it crashed, or failed before
    reaching the source) passes the role to the next held cell — the
    :class:`~repro.core.cache.KeyedCache` retry rule.  An unexpected
    exception from one cell never discards the verdicts of cells that
    still ran (everything streams, then the first failure re-raises),
    and a consumer that abandons the stream early cancels everything
    still queued, so pool shutdown only waits for the cells already
    running.
    """
    if not pending or ctx.plan.processes == 0:
        for index, item in pending:
            yield index, item, ctx.evaluate(*item)
        return
    #: source key -> cells waiting for that source's first cell to land
    held: Dict[str, List[Tuple[int, Cell]]] = {}
    #: future -> (index, item, source key if it is a first cell else None)
    futures: Dict = {}
    to_ship: deque = deque(pending)
    first_error: Optional[BaseException] = None

    with campaign_mod.ProcessPoolExecutor(
        max_workers=ctx.plan.processes
    ) as pool:

        def ship() -> List:
            """Submit (or hold) every cell in ``to_ship``; the new futures."""
            nonlocal first_error
            submitted = []
            while to_ship:
                index, item = to_ship.popleft()
                key = ctx.source_key_of(item[0])
                if key in held:
                    held[key].append((index, item))
                    continue
                first = ctx.toolchain.cache.peek(SOURCE_STAGE, key) is None
                source: object = None
                if not first:
                    try:  # a cache hit: replays the result or its error
                        source = ctx.source(item[0])
                    except ReproError as exc:
                        source = exc
                try:
                    future = pool.submit(*ctx.pool_task(*item, source))
                except Exception as exc:  # e.g. a broken pool
                    first_error = first_error or exc
                    continue
                if first:
                    held[key] = []
                futures[future] = (index, item, key if first else None)
                submitted.append(future)
            return submitted

        try:
            outstanding = set(ship())
            while outstanding:
                done, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                for future in sorted(done, key=lambda f: futures[f][0]):
                    index, item, key = futures[future]
                    record = landed = None
                    try:
                        record, landed = future.result()
                    except Exception as exc:
                        first_error = first_error or exc
                    if key is not None:
                        if landed is not None:
                            ctx.seed(item[0], key, landed)
                        to_ship.extend(held.pop(key))
                        outstanding.update(ship())
                    if record is not None:
                        yield index, item, record
        finally:
            # an abandoned stream cancels everything still queued
            for future in futures:
                future.cancel()
    if first_error is not None:
        raise first_error


class _CellContext:
    """The per-run state every campaign mode's cells share.

    Owns source hoisting over the session toolchain's ``simulate-source``
    stage (run there, or seeded from a pool worker), the two faces of one
    cell — the in-process :meth:`evaluate` (through the session
    toolchain) and the :meth:`pool_task` the process backend ships — and
    the event side: store replay (:meth:`split`), ``CellFinished``
    construction, persist-then-yield (:meth:`cells`) and the run totals
    the ``CampaignStarted``/``CampaignFinished`` bookends report.
    """

    def __init__(
        self, plan: CampaignPlan, session, pairs: Optional[Dict] = None
    ) -> None:
        self.plan = plan
        self.session = session
        #: differential mode: pair label -> (spec_a, prof_a, spec_b, prof_b)
        self.pairs: Dict[str, Tuple] = pairs or {}
        self.differential = plan.mode == "differential"
        self.source_model = plan.source_model
        self.augment = plan.augment
        self.budget_candidates = plan.budget_candidates
        self.store = session.store
        self.toolchain = session.toolchain()
        #: source-simulation keys actually produced during this run
        self.simulated_sources: set = set()
        self.start = time.perf_counter()
        self.ok_cells = 0
        self.store_hits = 0

    # -- source hoisting ----------------------------------------------- #
    def source_key_of(self, litmus: CLitmus) -> str:
        return self.toolchain.source_key(
            litmus, augment=self.augment, model=self.source_model,
            budget=Budget(max_candidates=self.budget_candidates),
        )

    def source(self, litmus: CLitmus, seed=None) -> SimulationResult:
        return _source(self.toolchain, litmus, self.source_model,
                       self.augment, self.budget_candidates, seed)

    def seed(self, litmus: CLitmus, key: str, landed) -> None:
        """Seed the session toolchain with a source simulation a pool
        worker ran — its result or its :class:`ReproError` — as if this
        run had simulated it here."""
        self.simulated_sources.add(key)
        try:
            self.source(litmus, seed=landed)
        except ReproError:
            pass  # cached for replay; the first cell's record has it

    # -- one cell, two faces ------------------------------------------- #
    def run_tv(self, litmus: CLitmus, profile):
        """test_tv through the session toolchain (campaign cells, and the
        hunt's reduction oracle and reduced records)."""
        return run_test_tv(
            litmus,
            profile,
            source_model=self.session.model(self.source_model),
            target_model=self.session.arch_model(profile.arch),
            augment=self.augment,
            budget=Budget(max_candidates=self.budget_candidates),
            toolchain=self.toolchain,
        )

    def run_diff_cell(self, litmus: CLitmus, arch: str, label: str):
        _, prof_a, _, prof_b = self.pairs[label]
        return run_differential(
            litmus,
            prof_a,
            prof_b,
            source_model=self.session.model(self.source_model),
            target_model=self.session.arch_model(arch),
            augment=self.augment,
            budget=Budget(max_candidates=self.budget_candidates),
            toolchain=self.toolchain,
        )

    def evaluate(
        self, litmus: CLitmus, arch: str, opt: str, compiler: str
    ) -> Dict[str, object]:
        """The serial face of one cell: its verdict record.  A cell that
        finds its source absent from the ``simulate-source`` stage and
        leaves it there simulated it, and counts toward the run's source
        simulations."""
        key = self.source_key_of(litmus)
        fresh = self.toolchain.cache.peek(SOURCE_STAGE, key) is None
        if self.differential:
            spec_a, _, spec_b, _ = self.pairs[compiler]
            record = _diff_verdict_record(
                litmus, arch, compiler, spec_a, spec_b, self.source_model,
                self.augment, self.budget_candidates,
                lambda: self.run_diff_cell(litmus, arch, compiler),
            )
        else:
            # the session's epoch overlay decides which compiler bugs
            # this cell simulates (private epochs are process/store-
            # guarded by _check_session_constraints)
            record = _verdict_record(
                litmus, arch, opt, compiler, self.source_model,
                self.augment, self.budget_candidates,
                lambda: self.run_tv(litmus, make_profile(
                    compiler, opt, arch, epochs=self.session.epochs
                )),
            )
        if fresh and self.toolchain.cache.peek(SOURCE_STAGE, key) is not None:
            self.simulated_sources.add(key)
        return record

    def pool_task(
        self, litmus: CLitmus, arch: str, opt: str, compiler: str, source
    ) -> Tuple[Callable, Tuple]:
        """The process face of one cell: the worker entry point (looked
        up at call time, so a swapped ``_pool_cell`` is honoured) and the
        task tuple shipped to it."""
        tail = (self.source_model, self.augment, self.budget_candidates,
                source)
        if self.differential:
            spec_a, _, spec_b, _ = self.pairs[compiler]
            return _pool_diff_cell, (litmus, arch, compiler, spec_a,
                                     spec_b) + tail
        return _pool_cell, (litmus, arch, opt, compiler) + tail

    # -- events -------------------------------------------------------- #
    def split(
        self, work: List[Cell], base: int = 0
    ) -> Tuple[List[Tuple[int, Cell, Dict[str, object]]],
               List[Tuple[int, Cell]]]:
        """Partition ``work`` into store-replayed ``(index, item,
        record)`` and pending ``(index, item)`` cells, indexes counting
        from ``base``."""
        replayed: List[Tuple[int, Cell, Dict[str, object]]] = []
        pending: List[Tuple[int, Cell]] = []
        for index, item in enumerate(work, base):
            if self.store is not None and self.plan.resume:
                litmus, arch, opt, compiler = item
                # differential cells key by their "<a>|<b>" pair label
                label = (
                    compiler if self.differential
                    else _profile_name(compiler, opt, arch)
                )
                stored = self.store.get(cell_key(
                    litmus.digest(), label, self.source_model, self.augment,
                    self.budget_candidates,
                ))
                if stored is not None:
                    replayed.append((index, item, stored))
                    continue
            pending.append((index, item))
        self.store_hits += len(replayed)
        return replayed, pending

    def cell_event(
        self, index: int, item: Cell, record: Dict[str, object],
        from_store: bool,
    ) -> CellFinished:
        if record.get("status") == "ok":
            self.ok_cells += 1
        litmus, arch, opt, compiler = item
        return CellFinished(
            index=index,
            test=litmus.name,
            digest=str(record.get("digest", "")),
            arch=arch,
            opt=opt,
            compiler=compiler,
            record=record,
            from_store=from_store,
            shard=self.plan.shard,
            mode=self.plan.mode,
        )

    def cells(
        self,
        replayed: List[Tuple[int, Cell, Dict[str, object]]],
        pending: List[Tuple[int, Cell]],
        annotate: Optional[Callable] = None,
    ) -> Iterator[CellFinished]:
        """One batch of cell events: the store replays, then each pending
        cell as it lands — its record (passed through ``annotate``, if
        given) stored *before* its event is yielded, so an interrupted
        campaign resumes from every finished cell."""
        for index, item, record in replayed:
            yield self.cell_event(index, item, record, True)
        producer = _run_pending(pending, self)
        try:
            for index, item, record in producer:
                if annotate is not None:
                    record = annotate(record, item[0].digest())
                if self.store is not None:
                    self.store.put(record)
                yield self.cell_event(index, item, record, False)
        finally:
            # a consumer that abandons the stream early (fuzzing loops
            # break at the first positive) must not pay for the whole
            # campaign: closing the producer cancels everything queued
            producer.close()

    def started(
        self, tests_input: int, cells_total: int, pending: int
    ) -> CampaignStarted:
        return CampaignStarted(
            source_model=self.source_model,
            tests_input=tests_input,
            cells_total=cells_total,
            pending=pending,
            processes=self.plan.processes,
            shard=self.plan.shard,
        )

    def finished(self) -> CampaignFinished:
        return CampaignFinished(
            source_model=self.source_model,
            compiled_tests=self.ok_cells,
            elapsed_seconds=time.perf_counter() - self.start,
            source_sim_keys=frozenset(self.simulated_sources),
            store_hits=self.store_hits,
        )


def _lint_tests(tests, plan: CampaignPlan, what: str = "test") -> None:
    """Fail fast on ill-formed litmus tests (``plan.lint``).

    Runs :mod:`repro.analysis.litmuslint` over every materialised test;
    error-severity findings (vacuous conditions, malformed threads)
    raise a :class:`PlanError` carrying the diagnostics — before any
    cell is scheduled, so a bad corpus costs nothing but the lint.
    """
    if not plan.lint:
        return
    from ..analysis import Severity, lint_litmus

    errors = []
    for litmus in tests:
        errors.extend(
            d for d in lint_litmus(litmus, source_name=litmus.name)
            if d.severity is Severity.ERROR
        )
    if errors:
        rendered = "; ".join(d.render() for d in errors[:5])
        more = f" (+{len(errors) - 5} more)" if len(errors) > 5 else ""
        exc = PlanError(
            f"{len(errors)} {what}(s) failed static analysis — fix the "
            f"corpus or pass lint=False: {rendered}{more}"
        )
        exc.diagnostics = tuple(errors)
        raise exc


def _check_session_constraints(plan: CampaignPlan, session) -> None:
    """The guards every campaign mode enforces before any cell runs: the
    source model resolves, and the store/process-pool constraints."""
    try:
        session.models.resolve(plan.source_model)
    except ModelError as exc:
        # every cell would be an error record — bad input, not a result
        raise PlanError(f"source_model: {exc}")
    if plan.resume and session.store is None:
        raise PlanError("resume=True needs a store to resume from")
    local = sorted(
        session.local_model_names(plan)
        | session.local_epoch_names(plan)
        | session.local_stage_names(plan)
    )
    if local and plan.processes > 0:
        raise PlanError(
            f"session-registered definitions {local} are not visible to "
            f"worker processes; register them globally or run serially"
        )
    if local and session.store is not None:
        # store records key verdicts by model/profile *name* (the PR 2
        # on-disk format) — a session-local definition behind one of
        # those names would poison, or replay poison from, the store
        raise PlanError(
            f"session-registered definitions {local} cannot be keyed in "
            f"a persistent store (records key by name); register them "
            f"globally or run this session without a store"
        )


def _resolve_pairs(plan: CampaignPlan, session) -> Tuple[str, Dict]:
    """A differential plan's common architecture and its profile pairs
    (label -> (spec_a, prof_a, spec_b, prof_b)).  Resolved eagerly: an
    unresolvable or cross-architecture pairing is a plan mistake, not a
    per-cell error (there is nothing meaningful left to run)."""
    resolved = []
    for spec in plan.profiles or ():
        try:
            resolved.append((spec, session.profile(spec)))
        except ReproError as exc:
            raise PlanError(
                f"differential profile {spec!r} failed to resolve: {exc}"
            )
    arches = sorted({profile.arch for _, profile in resolved})
    if len(arches) != 1:
        raise PlanError(
            f"differential testing requires a common architecture; "
            f"profiles target {arches}"
        )
    pairs = {
        f"{spec_a}|{spec_b}": (spec_a, prof_a, spec_b, prof_b)
        for (spec_a, prof_a), (spec_b, prof_b)
        in itertools.combinations(resolved, 2)
    }
    return arches[0], pairs


def iter_campaign(plan: CampaignPlan, session) -> Iterator[CampaignEvent]:
    """Run ``plan`` inside ``session``, yielding events as cells finish.

    Validation and work-list construction happen eagerly (errors raise
    here, not at first ``next()``); simulation happens lazily as the
    returned stream is consumed.
    """
    if plan.mode == "hunt":
        return iter_hunt(plan, session)
    _check_session_constraints(plan, session)
    pairs: Dict[str, Tuple] = {}
    if plan.mode == "differential":
        diff_arch, pairs = _resolve_pairs(plan, session)
    tests = plan.resolve_tests(shapes=session.shapes)
    _lint_tests(tests, plan)
    if pairs:
        work: List[Cell] = [
            (litmus, diff_arch, "diff", label)
            for litmus in tests
            for label in pairs
        ]
    else:
        work = _campaign_cells(
            tests, plan.arches, plan.opts, plan.compilers
        )
    if plan.shard is not None:
        shard_k, shard_n = plan.shard
        work = work[shard_k::shard_n]

    ctx = _CellContext(plan, session, pairs)
    # replay whatever the persistent store already knows (eager: cheap,
    # and the CampaignStarted event reports exact pending counts)
    replayed, pending = ctx.split(work)

    def events() -> Iterator[CampaignEvent]:
        yield ctx.started(len(tests), len(work), len(pending))
        yield from ctx.cells(replayed, pending)
        yield ctx.finished()

    return events()


def iter_hunt(plan: CampaignPlan, session) -> Iterator[CampaignEvent]:
    """Run a ``mode="hunt"`` plan: feedback-driven mutation rounds plus
    automatic reduction of every positive (see :mod:`repro.hunt`).

    Round 0 evaluates the plan's tests (the *seeds*) over the tv sweep
    axes; each later round mutates what the verdicts so far suggest —
    positives first, deduplicated by content digest — up to
    ``mutation_rounds`` rounds of at most ``mutation_limit`` new mutants.
    After the last round every distinct positive is delta-debugged to a
    1-minimal reproducer through the session's cached toolchain, emitted
    as a :class:`TestReduced` event and persisted (store records carry
    ``mode="hunt"`` plus the mutation and reduction lineage).

    Determinism: scheduling depends only on seeds and verdicts, indexes
    are assigned in schedule order, and each round runs through the same
    cell loop as ``mode="tv"`` — so the same hunt folds to the same
    report on the serial and process-pool backends.
    """
    if plan.mode != "hunt":
        raise PlanError(f'iter_hunt needs mode="hunt", got {plan.mode!r}')
    _check_session_constraints(plan, session)
    seeds = plan.resolve_tests(shapes=session.shapes)
    if not seeds:
        raise PlanError("a hunt needs at least one seed test")
    _lint_tests(seeds, plan, what="seed")
    operators = (
        plan.mutations if plan.mutations is not None else DEFAULT_OPERATORS
    )
    try:
        for name in operators:
            session.mutations.resolve(name)
    except MutationError as exc:
        raise PlanError(f"bad hunt mutations: {exc}")

    scheduler = HuntScheduler(
        seeds,
        operators=operators,
        registry=session.mutations,
        round_limit=plan.mutation_limit,
    )
    ctx = _CellContext(plan, session)

    def annotate(record: Dict[str, object], digest: str) -> Dict[str, object]:
        """Stamp a cell record with hunt mode + mutation lineage (records
        from worker processes arrive tv-shaped; the scheduler state never
        leaves this process)."""
        record = dict(record, mode="hunt")
        record.update(scheduler.lineage(digest).as_record())
        return record

    def events() -> Iterator[CampaignEvent]:
        next_index = 0
        round_index = 0
        positive_digests: set = set()
        #: first positive cell per digest, in index order — what gets
        #: reduced (deterministic across backends and completion orders)
        positive_cells: List[Cell] = []
        round_tests = scheduler.initial()

        while round_tests:
            work = _campaign_cells(
                round_tests, plan.arches, plan.opts, plan.compilers
            )
            base = next_index
            replayed, pending = ctx.split(work, base)
            next_index += len(work)
            if round_index == 0:
                yield ctx.started(len(seeds), len(work), len(pending))

            #: indexes of every positive cell of this round, whatever its
            #: digest — the per-digest representative is chosen *after*
            #: the round, by index, so completion order cannot change
            #: which cell gets reduced
            round_positives: List[int] = []
            for event in ctx.cells(replayed, pending, annotate):
                if event.record.get("verdict") == "positive":
                    round_positives.append(event.index)
                yield event

            for index in sorted(round_positives):
                item = work[index - base]
                digest = item[0].digest()
                if digest not in positive_digests:
                    positive_digests.add(digest)
                    positive_cells.append(item)

            if round_index < plan.mutation_rounds:
                scheduled = scheduler.next_round(positive_digests)
            else:
                scheduled = []
            yield HuntProgress(
                round_index=round_index,
                cells=len(work),
                positives=len(positive_digests),
                scheduled=len(scheduled),
                unique_tests=scheduler.unique_tests,
                duplicates_skipped=scheduler.duplicates_skipped,
            )
            round_tests = scheduled
            round_index += 1

        for litmus, arch, opt, compiler in (
            positive_cells if plan.reduce else ()
        ):
            profile = make_profile(compiler, opt, arch, epochs=session.epochs)

            def still_positive(candidate: CLitmus) -> bool:
                return ctx.run_tv(candidate, profile).verdict == "positive"

            try:
                reduction = reduce_test(litmus, still_positive)
            except ReductionError:
                # the stored verdict said positive but the oracle
                # disagrees (e.g. a stale store) — nothing to reduce
                continue
            reduced = reduction.reduced
            record = _verdict_record(
                reduced, arch, opt, compiler, ctx.source_model, ctx.augment,
                ctx.budget_candidates,
                lambda: ctx.run_tv(reduced, profile),
            )
            record["mode"] = "hunt"
            record.update(reduction.lineage())
            # the stored reproducer is self-contained: the printed C
            # source rides along (digest-preserving, like write_suite),
            # so a bug report needs nothing but the store record
            record["source"] = print_c_litmus(reduced)
            if ctx.store is not None:
                ctx.store.put(record)
            yield TestReduced(
                test=litmus.name,
                digest=litmus.digest(),
                reduced_name=reduced.name,
                reduced_digest=reduced.digest(),
                original_statements=reduction.original_statements,
                reduced_statements=reduction.reduced_statements,
                steps=len(reduction.steps),
                checks=reduction.checks,
                record=record,
            )

        yield ctx.finished()

    return events()


def iter_sharded(
    plan: CampaignPlan, session, shards: int
) -> Iterator[CampaignEvent]:
    """Run every shard of ``plan`` through ``session`` sequentially,
    yielding each shard's events plus a :class:`ShardMerged` checkpoint
    after each — the streaming form of run-shards-then-``merge_reports``.
    """
    # resolve the test list once: every shard partitions the same
    # materialised suite instead of re-running diy generation per shard
    resolved = replace(
        plan, tests=plan.resolve_tests(shapes=session.shapes), config=None
    )
    sub_plans = resolved.split(shards)

    def events() -> Iterator[CampaignEvent]:
        for sub in sub_plans:
            stream = CampaignStream(iter_campaign(sub, session))
            for event in stream:
                yield event
            yield ShardMerged(shard=sub.shard, report=stream.report())

    return events()


def fold_events(events: Iterable[CampaignEvent]) -> CampaignReport:
    """Fold a complete event stream back into the batch report.

    The reconstruction is exact: cells are tallied in work-list order
    (events carry their index, so any completion order folds the same),
    and the aggregates only the run can know come from
    :class:`CampaignFinished`.  A stream containing :class:`ShardMerged`
    checkpoints folds through :func:`merge_reports` instead.  Holds for
    every mode: differential cells tally under their ``(arch, "diff",
    pair)`` key with the same verdict vocabulary, and hunt streams fold
    by their cells alone — :class:`HuntProgress` and
    :class:`TestReduced` are annotations, ignored here.
    """
    started: Optional[CampaignStarted] = None
    finished: Optional[CampaignFinished] = None
    cells: List[CellFinished] = []
    shard_reports: List[CampaignReport] = []
    for event in events:
        if isinstance(event, CellFinished):
            cells.append(event)
        elif isinstance(event, ShardMerged):
            shard_reports.append(event.report)
        elif isinstance(event, CampaignStarted):
            started = started if started is not None else event
        elif isinstance(event, CampaignFinished):
            finished = event
    if shard_reports:
        return merge_reports(shard_reports)
    if started is None or finished is None:
        raise ValueError(
            "cannot fold an incomplete campaign stream (missing "
            "CampaignStarted/CampaignFinished)"
        )
    report = CampaignReport(
        source_model=started.source_model,
        processes=started.processes,
        shard=started.shard,
    )
    report.tests_input = started.tests_input
    for event in sorted(cells, key=lambda e: e.index):
        cell = report.cell(event.arch, event.opt, event.compiler)
        status = event.record["status"]
        if status == "timeout":
            cell.timeouts += 1
            continue
        if status == "error":
            cell.errors += 1
            continue
        report.compiled_tests += 1
        verdict = str(event.record["verdict"])
        cell.record(verdict)
        if verdict == "positive":
            report.positives.append(
                (event.test, event.arch, event.opt, event.compiler)
            )
    report.source_sim_keys = finished.source_sim_keys
    report.source_simulations = len(finished.source_sim_keys)
    report.store_hits = finished.store_hits
    report.elapsed_seconds = finished.elapsed_seconds
    return report


class CampaignStream:
    """An iterator of campaign events that can fold itself into a report.

    Iterate it for live events; call :meth:`report` at any point to drain
    whatever remains and get the batch :class:`CampaignReport`.  Events
    already consumed are remembered, so iterate-then-fold never loses
    cells.
    """

    def __init__(self, events: Iterator[CampaignEvent]) -> None:
        self._events = events
        self._seen: List[CampaignEvent] = []

    def __iter__(self) -> Iterator[CampaignEvent]:
        for event in self._events:
            self._seen.append(event)
            yield event

    def report(self) -> CampaignReport:
        for _ in self:
            pass  # drain whatever the consumer has not pulled yet
        return fold_events(self._seen)
