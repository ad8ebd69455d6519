"""The streaming campaign engine: one cell loop, :func:`_run_pending`,
on two backends (serial, and the session's process pool), feeding a
typed event stream that :func:`fold_events` folds back into the batch
:class:`~repro.pipeline.campaign.CampaignReport`.  Modes ``tv``,
``differential`` and ``hunt`` (:func:`iter_hunt`) share the loop and
the per-run state in :class:`_CellContext`.

The invariants this module keeps are stated once, in
``docs/architecture.md`` ("Identity and caching invariants").
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
from ..pipeline.campaign import (
    CampaignReport,
    _campaign_cells,
    _profile_name,
    _verdict_record,
    merge_reports,
)
from ..pipeline.store import cell_key
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
#: reads its cache counters).  Its artifact entries live for one pool
#: task (:func:`_pool_cell` clears them on return; the hit/miss counters
#: keep running), so which cells share a worker never changes a run's
#: work, and the worker's memory stays bounded.
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


def _run_cell(toolchain: Toolchain, task: Tuple, epochs=None):
    """One cell's result through ``toolchain``: test_tv under the
    ``(compiler, opt, arch)`` profile, or — when the task carries a
    differential ``(spec_a, spec_b)`` pair — the two profiles compared.
    ``task`` is the :func:`_pool_cell` tuple; profiles resolve against
    ``epochs`` (``None``: the global table) and models against the
    toolchain's registry."""
    (litmus, arch, opt, compiler, pair, source_model, augment,
     budget_candidates) = task[:8]
    budget = Budget(max_candidates=budget_candidates)
    if pair is None:
        return toolchain.run_tv(
            litmus, make_profile(compiler, opt, arch, epochs=epochs),
            source_model=source_model, augment=augment, budget=budget,
        )
    return toolchain.run_differential(
        litmus, *(parse_profile(spec, epochs=epochs) for spec in pair),
        source_model=source_model, augment=augment, budget=budget,
    )


def _cell_record(
    toolchain: Toolchain, task: Tuple, epochs=None
) -> Dict[str, object]:
    """:func:`_run_cell` shaped as the cell's verdict record."""
    return _verdict_record(
        *task[:4], *task[5:8],
        lambda: _run_cell(toolchain, task, epochs),
        pair=task[4],
    )


def _pool_cell(task: Tuple) -> Tuple[Dict[str, object], object]:
    """Evaluate one cell in a worker process (the benchmark harness,
    perfbench/, swaps this name for a traced wrapper).

    ``task`` is ``(test, arch, opt, compiler, pair, source_model,
    augment, budget_candidates, source)``; ``pair`` is ``None`` for a tv
    cell.  Workers resolve models and profiles against the *global*
    registries (the session refuses to ship session-local definitions).
    ``source`` is what the parent shipped (see :func:`_run_pending`):
    the test's cached simulation or error, seeded into the worker's
    ``simulate-source`` stage — or ``None`` for a test's first cell,
    which simulates its source and hands back what landed (result or
    error) beside the JSON-able record for the parent to seed.
    """
    litmus = task[0]
    source_model, augment, budget_candidates, source = task[5:]
    landed = None
    try:
        if source is not None:
            try:
                _source(_WORKER_TOOLCHAIN, litmus, source_model, augment,
                        budget_candidates, source)
            except ReproError:
                pass  # cached: the cell's own run replays it
        record = _cell_record(_WORKER_TOOLCHAIN, task)
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


def _run_pending(
    pending: List[Tuple[int, Cell]], ctx: "_CellContext"
) -> Iterator[Tuple[int, Cell, Dict[str, object]]]:
    """Stream ``(index, item, record)`` for every pending cell — the one
    cell loop every campaign mode shares, on one of two backends.

    Serial (``processes=0``) evaluates cells in work-list order through
    the session toolchain; a failure propagates at once.

    The process backend runs on the session's pool
    (:meth:`Session.process_pool`) and streams records in completion
    order.  The first pending cell of each test (work-list order) ships
    with no source and simulates it in its worker; the parent seeds its
    ``simulate-source`` stage with what comes back (:meth:`_CellContext.seed`)
    and only then ships the test's held cells with it attached.  A first
    cell that lands no simulation passes the role to the next held cell.
    An unexpected exception from one cell never discards the verdicts of
    cells that still ran (everything streams, then the first failure
    re-raises), and a consumer that abandons the stream cancels
    everything still queued.
    """
    if not pending or ctx.plan.processes == 0:
        for index, item in pending:
            yield index, item, ctx.evaluate(item)
        return
    pool = ctx.session.process_pool(ctx.plan.processes)
    #: source key -> cells waiting for that source's first cell to land
    held: Dict[str, List[Tuple[int, Cell]]] = {}
    #: future -> (index, item, source key if it is a first cell else None)
    futures: Dict = {}
    to_ship: deque = deque(pending)
    first_error: Optional[BaseException] = None

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
                # looked up at call time: a swapped _pool_cell is honoured
                future = pool.submit(_pool_cell, ctx.task(item, source))
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
            done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
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
    stage (run there, or seeded from a pool worker), the cell task both
    backends evaluate (:meth:`task`), and the event side: store replay
    (:meth:`split`), ``CellFinished`` construction, persist-then-yield
    (:meth:`cells`) and the run totals the ``CampaignStarted`` /
    ``CampaignFinished`` bookends report.
    """

    def __init__(
        self, plan: CampaignPlan, session, pairs: Optional[Dict] = None
    ) -> None:
        self.plan = plan
        self.session = session
        #: differential mode: pair label -> (spec_a, spec_b)
        self.pairs: Dict[str, Tuple[str, str]] = pairs or {}
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

    # -- one cell ------------------------------------------------------- #
    def task(self, item: Cell, source=None) -> Tuple:
        """The :func:`_pool_cell` tuple of ``item``: its tv profile axes
        or its differential pair, and this run's settings."""
        return (*item, self.pairs.get(item[3]), self.source_model,
                self.augment, self.budget_candidates, source)

    def evaluate(self, item: Cell) -> Dict[str, object]:
        """One cell's verdict record through the session toolchain (the
        session's epoch overlay decides which compiler bugs it
        simulates).  A cell that finds its source absent from the
        ``simulate-source`` stage and leaves it there simulated it, and
        counts toward the run's source simulations."""
        key = self.source_key_of(item[0])
        fresh = self.toolchain.cache.peek(SOURCE_STAGE, key) is None
        record = _cell_record(
            self.toolchain, self.task(item), self.session.epochs
        )
        if fresh and self.toolchain.cache.peek(SOURCE_STAGE, key) is not None:
            self.simulated_sources.add(key)
        return record

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
                    compiler if compiler in self.pairs
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
            store_skipped=self.store.skipped if self.store is not None else 0,
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
    (label -> (spec_a, spec_b)).  Resolved eagerly: an unresolvable or
    cross-architecture pairing is a plan mistake, not a per-cell error
    (there is nothing meaningful left to run)."""
    arches = set()
    for spec in plan.profiles or ():
        try:
            arches.add(session.profile(spec).arch)
        except ReproError as exc:
            raise PlanError(
                f"differential profile {spec!r} failed to resolve: {exc}"
            )
    if len(arches) != 1:
        raise PlanError(
            f"differential testing requires a common architecture; "
            f"profiles target {sorted(arches)}"
        )
    pairs = {
        f"{spec_a}|{spec_b}": (spec_a, spec_b)
        for spec_a, spec_b in itertools.combinations(plan.profiles, 2)
    }
    return arches.pop(), pairs


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

        for litmus, *axes in positive_cells if plan.reduce else ():

            def still_positive(candidate: CLitmus) -> bool:
                return _run_cell(
                    ctx.toolchain, ctx.task((candidate, *axes)),
                    session.epochs,
                ).verdict == "positive"

            try:
                reduction = reduce_test(litmus, still_positive)
            except ReductionError:
                # the stored verdict said positive but the oracle
                # disagrees (e.g. a stale store) — nothing to reduce
                continue
            reduced = reduction.reduced
            record = _cell_record(
                ctx.toolchain, ctx.task((reduced, *axes)), session.epochs
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
