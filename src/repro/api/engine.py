"""The streaming campaign engine: cell producers feeding a typed event stream.

This is the old ``run_campaign`` body rebuilt as a producer: the serial,
thread-pool and process-pool backends all *yield* :class:`CellFinished`
events as verdicts land (completion order, not work-list order), and
:func:`fold_events` reconstructs the deterministic
:class:`~repro.pipeline.campaign.CampaignReport` — byte-for-byte what the
batch API returned — from any complete stream.

All three campaign modes run through the one skeleton:

* ``mode="tv"`` — translation validation, one cell per (test × arch ×
  opt × compiler), evaluated by the staged toolchain's ``run_tv``;
* ``mode="differential"`` — compiler vs compiler (paper §IV-D), one
  cell per (test × profile pair), evaluated by ``run_differential``.
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
* **cache identity** — every cache key includes what names resolve *to*
  in the session (model signatures, epoch bug sets, the stage token)
  next to :meth:`CLitmus.digest` content identity, so shadowing a model
  or swapping a stage re-simulates instead of replaying stale verdicts;
  verdicts persisted before the shadowing are equally unreachable.
  Session-local definitions are refused for process pools (workers
  resolve against the globals) and for persistent stores (records key
  by name).
* **source hoisting** — a test's source simulation runs once per
  session and source model, on every backend: the session's source cache
  (keyed by ``_CellContext.source_key_of``) is the one hoisting point.
  Serial and thread runs call through it; the process backend ships each
  test's first pending cell without a source, caches the simulation its
  worker returns, and ships the test's other cells with it attached
  (:func:`_run_in_pool`).  Workers keep no source cache, so which cell
  simulates a source depends on the work list alone, and a source that
  times out or errors is simulated once, its cells all getting the same
  ``timeout``/``error`` record.
* **shard determinism** — ``shard=(k, n)`` evaluates exactly every n-th
  cell of the deterministic work list starting at the k-th; the n shard
  reports merge back to the unsharded report byte-for-byte.  Hunt work
  lists are dynamic, so hunts refuse cell-sharding (shard the seed
  source instead) — their determinism comes from round-synchronous
  scheduling: the same seeds and verdicts schedule the same rounds on
  every backend.
* **persistence** — each freshly computed record is stored *before* its
  event is yielded, so an interrupted campaign resumes from every
  finished cell.

Extension surface note: the executors and the per-cell tool-chain entries
are late-bound through :mod:`repro.pipeline.campaign`'s namespace
(``campaign.ThreadPoolExecutor``, ``campaign.ProcessPoolExecutor``,
``campaign.test_compilation``, ``campaign.run_differential``), which has
always been the place tests and embedders swap them.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, as_completed, wait
from dataclasses import replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..cat.registry import ARCH_MODEL
from ..compiler.profiles import DEFAULT_VERSION, make_profile, parse_profile
from ..core.errors import ModelError, ReproError
from ..herd.enumerate import Budget
from ..herd.simulator import SimulationResult, simulate_c
from ..hunt.reduce import ReductionError, reduce_test
from ..hunt.scheduler import HuntScheduler
from ..lang.ast import CLitmus
from ..lang.printer import print_c_litmus
from ..pipeline import campaign as campaign_mod
from ..pipeline.campaign import (
    STORE_SCHEMA,
    CampaignReport,
    SourceSimCache,
    _campaign_cells,
    _profile_name,
    _shape_record,
    _verdict_record,
    merge_reports,
)
from ..pipeline.store import cell_key
from ..toolchain import Toolchain, profile_signature
from ..tools.l2c import prepare
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

#: always empty: workers keep no source cache, since the parent session's
#: cache hoists every source (kept for tools that sum worker cache counters)
_WORKER_SOURCE_CACHES: Dict[Tuple, SourceSimCache] = {}

#: per-process staged toolchain.  Its artifact entries live for one pool
#: task (:func:`_pool_cell` / :func:`_pool_diff_cell` clear them on
#: return; the hit/miss counters keep running): which cells share a
#: worker depends on scheduling, so cross-task reuse would make a run's
#: work — and its cache counters — vary from run to run.  Scoping also
#: bounds the worker's memory however many cells it evaluates.
_WORKER_TOOLCHAIN = Toolchain()


def _pool_source(
    source,
    litmus: CLitmus,
    source_model: str,
    augment: bool,
    budget_candidates: int,
    landed: List,
) -> SimulationResult:
    """The source simulation a pool task evaluates its cell against.

    ``source`` is what the parent shipped (see :func:`_run_in_pool`): the
    cached simulation, the cached error of a failed one — re-raised, so
    the cell gets the timeout/error record every backend gives it — or
    ``None`` for a test's first cell, which simulates here and appends
    the outcome (result or error) to ``landed`` for the parent to cache.
    """
    if isinstance(source, ReproError):
        raise source
    if source is not None:
        return source
    try:
        result = simulate_c(
            prepare(litmus, augment=augment),
            source_model,
            budget=Budget(max_candidates=budget_candidates),
        )
    except ReproError as exc:
        landed.append(exc)
        raise
    landed.append(result)
    return result


def _pool_cell(task: Tuple) -> Tuple[Dict[str, object], object]:
    """Evaluate one campaign cell in a worker process.

    Runs the same tool-chain as the in-process path but returns a
    JSON-able verdict record instead of a ``TelechatResult`` — the record
    is the cross-process (and on-disk) currency — paired with the source
    simulation this task ran, if any (:func:`_pool_source`).  Worker
    processes resolve models against the *global* registries — session
    overlays do not cross the process boundary (the session refuses to
    try).
    """
    (litmus, arch, opt, compiler, source_model, augment, budget_candidates,
     source) = task
    landed: List = []
    try:
        record = _verdict_record(
            litmus, arch, opt, compiler, source_model, augment,
            budget_candidates,
            lambda: campaign_mod.test_compilation(
                litmus,
                make_profile(compiler, opt, arch),
                source_model=source_model,
                augment=augment,
                budget=Budget(max_candidates=budget_candidates),
                source_result=_pool_source(
                    source, litmus, source_model, augment,
                    budget_candidates, landed,
                ),
                toolchain=_WORKER_TOOLCHAIN,
            ),
        )
    finally:
        _WORKER_TOOLCHAIN.cache.clear()
    return record, (landed[0] if landed else None)


def _diff_base_record(
    litmus: CLitmus,
    arch: str,
    label: str,
    spec_a: str,
    spec_b: str,
    source_model: str,
    augment: bool,
    budget_candidates: int,
) -> Dict[str, object]:
    """The identity half of a differential verdict record.

    ``label`` (``"<spec_a>|<spec_b>"``) stands in for the profile name in
    the store key, so differential verdicts persist and resume through
    the unchanged PR 2 store format.
    """
    return {
        "schema": STORE_SCHEMA,
        "digest": litmus.digest(),
        "test": litmus.name,
        "mode": "differential",
        "arch": arch,
        "opt": "diff",
        "compiler": label,
        "profile": label,
        "profile_a": spec_a,
        "profile_b": spec_b,
        "source_model": source_model,
        "augment": bool(augment),
        "budget_candidates": budget_candidates,
    }


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
    record — same status contract (``_shape_record``) as tv cells."""
    record = _shape_record(
        _diff_base_record(
            litmus, arch, label, spec_a, spec_b, source_model, augment,
            budget_candidates,
        ),
        produce_result,
    )
    # identity fields win over the result's name-based rendering: plan
    # profile *specs* may carry a version suffix profile names drop
    record.update(
        profile=label, profile_a=spec_a, profile_b=spec_b,
        source_model=source_model,
    )
    return record


def _pool_diff_cell(task: Tuple) -> Tuple[Dict[str, object], object]:
    """Evaluate one differential cell in a worker process (profiles are
    re-parsed against the global registries; the session refuses to send
    session-local epochs across the process boundary).  The source
    simulation is the UB oracle, shipped and returned as in
    :func:`_pool_cell`."""
    (litmus, arch, label, spec_a, spec_b, source_model, augment,
     budget_candidates, source) = task
    landed: List = []
    try:
        record = _diff_verdict_record(
            litmus, arch, label, spec_a, spec_b, source_model, augment,
            budget_candidates,
            lambda: campaign_mod.run_differential(
                litmus,
                parse_profile(spec_a),
                parse_profile(spec_b),
                source_model=source_model,
                augment=augment,
                budget=Budget(max_candidates=budget_candidates),
                source_result=_pool_source(
                    source, litmus, source_model, augment,
                    budget_candidates, landed,
                ),
                toolchain=_WORKER_TOOLCHAIN,
            ),
        )
    finally:
        _WORKER_TOOLCHAIN.cache.clear()
    return record, (landed[0] if landed else None)


def _run_in_pool(
    pending: List[Tuple[int, Cell]],
    plan: CampaignPlan,
    ctx: "_CellContext",
    pool_task,
    pool_fn,
) -> Iterator[Tuple[int, Cell, Dict[str, object]]]:
    """The process backend of :func:`_run_pending`, hoisting each source
    simulation into the session's source cache like the other backends.

    The first pending cell of each test (work-list order) ships with no
    source and simulates it in its worker, which hands the simulation
    back beside the record; the parent caches it under
    ``ctx.source_key_of`` and only then ships the test's held cells, each
    with the cached simulation (or its cached timeout/error) attached.
    So which cell simulates a source depends on the work list alone,
    never on scheduling, and a failing source is simulated once.  A first
    cell that lands no simulation (it crashed, or failed before reaching
    the source) passes the role to the next held cell — the
    :class:`~repro.core.cache.KeyedCache` retry rule.
    """
    #: source key -> cells waiting for that source's first cell to land
    held: Dict[Tuple, List[Tuple[int, Cell]]] = {}
    #: future -> (index, item, source key if it is a first cell else None)
    futures: Dict = {}
    to_ship: deque = deque(pending)
    first_error: Optional[BaseException] = None

    with campaign_mod.ProcessPoolExecutor(max_workers=plan.processes) as pool:

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
                first = key not in ctx.source_cache
                source: object = None
                if not first:
                    try:  # a cache hit: replays the result or its error
                        source = ctx.simulate_source(item[0])
                    except ReproError as exc:
                        source = exc
                try:
                    future = pool.submit(pool_fn, pool_task(*item, source))
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
                            ctx.seed_source(key, landed)
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


def _run_pending(
    pending: List[Tuple[int, Cell]],
    plan: CampaignPlan,
    ctx: "_CellContext",
    evaluate,
    pool_task,
    pool_fn,
) -> Iterator[Tuple[int, Cell, Dict[str, object]]]:
    """Stream ``(index, item, record)`` for every pending cell under the
    plan's execution backend — the one backend selector every campaign
    mode shares.

    Invariants: records arrive in *completion* order (events carry their
    deterministic index, so folding is order-independent); every backend
    hoists source simulations through the session's source cache (the
    process pool as :func:`_run_in_pool` describes); in the pool
    branches an unexpected exception from one cell never discards the
    verdicts of cells that still ran (everything streams, then the first
    failure re-raises); a consumer that abandons the stream early cancels
    everything still queued, so pool shutdown only waits for the cells
    already running.  Serial execution propagates failures immediately,
    the historical behaviour.
    """
    if pending and plan.processes > 0:
        yield from _run_in_pool(pending, plan, ctx, pool_task, pool_fn)
        return
    first_error: Optional[BaseException] = None
    if pending and plan.workers > 1:
        # the with-block shuts the pool down even when an unexpected
        # exception escapes future.result(), so workers never leak
        with campaign_mod.ThreadPoolExecutor(
            max_workers=plan.workers
        ) as pool:
            future_map = {
                pool.submit(evaluate, *item): (index, item)
                for index, item in pending
            }
            try:
                for future in as_completed(future_map):
                    index, item = future_map[future]
                    try:
                        record = future.result()
                    except Exception as exc:
                        first_error = (
                            first_error if first_error is not None else exc
                        )
                        continue
                    yield index, item, record
            finally:
                # an abandoned stream cancels everything still queued
                for future in future_map:
                    future.cancel()
    else:
        for index, item in pending:
            yield index, item, evaluate(*item)
    if first_error is not None:
        raise first_error


class _CellContext:
    """The tv-cell evaluation context campaign and hunt runs share.

    Owns the session-resolved cache identity (model/arch/epoch
    signatures, stage token: verdicts key by what names *resolve to*,
    never names alone), the hoisted source simulation (computed here,
    or seeded from a pool worker), and the two faces of one tv cell: the
    in-process ``evaluate`` (through the session's result cache and
    toolchain) and the ``pool_task`` tuple the process backend ships to
    :func:`_pool_cell`.
    """

    def __init__(self, plan: CampaignPlan, session) -> None:
        self.session = session
        self.source_model = plan.source_model
        self.augment = plan.augment
        self.budget_candidates = plan.budget_candidates
        self.source_cache = session.source_cache
        self.result_cache = session.result_cache
        self.toolchain = session.toolchain()
        self.stages_token = session.stages_token()
        self.source_sig = self.model_sig(plan.source_model)
        self._arch_sigs: Dict[str, str] = {}
        self._epoch_sigs: Dict[str, str] = {}
        #: source-simulation keys actually produced during this run
        self.simulated_sources: set = set()

    # -- cache identity ------------------------------------------------ #
    def model_sig(self, name: str) -> str:
        # an unresolvable name contributes no identity: it surfaces as
        # per-cell error records, the legacy behaviour, never an abort
        try:
            return self.session.model_signature(name)
        except ModelError:
            return ""

    def arch_sig(self, arch: str) -> str:
        if arch not in self._arch_sigs:
            self._arch_sigs[arch] = (
                self.model_sig(ARCH_MODEL[arch]) if arch in ARCH_MODEL else ""
            )
        return self._arch_sigs[arch]

    def epoch_sig(self, compiler: str) -> str:
        # the bug set behind a profile *name* is part of a verdict's
        # identity (names carry no version), so a session re-run after
        # epochs.register() re-simulates instead of replaying
        if compiler not in self._epoch_sigs:
            try:
                flags = self.session.epochs.get(
                    f"{compiler}-{DEFAULT_VERSION[compiler]}"
                )
                self._epoch_sigs[compiler] = "|".join(sorted(flags))
            except (KeyError, ReproError):
                self._epoch_sigs[compiler] = ""
        return self._epoch_sigs[compiler]

    # -- source hoisting ----------------------------------------------- #
    def source_key_of(self, litmus: CLitmus) -> Tuple:
        return (litmus.digest(), self.source_model, self.source_sig,
                self.augment, self.budget_candidates)

    def simulate_source(self, litmus: CLitmus) -> SimulationResult:
        key = self.source_key_of(litmus)

        def produce() -> SimulationResult:
            self.simulated_sources.add(key)
            return simulate_c(
                prepare(litmus, augment=self.augment),
                self.session.model(self.source_model),
                budget=Budget(max_candidates=self.budget_candidates),
            )

        return self.source_cache.get(key, produce)

    def seed_source(self, key: Tuple, landed) -> None:
        """Cache a source simulation a pool worker ran — its result or
        its :class:`ReproError` — as if :meth:`simulate_source` had."""
        def produce() -> SimulationResult:
            self.simulated_sources.add(key)
            if isinstance(landed, ReproError):
                raise landed
            return landed

        try:
            self.source_cache.get(key, produce)
        except ReproError:
            pass  # cached for replay; the first cell's record has it

    # -- one tv cell, three faces -------------------------------------- #
    def run_cell(self, litmus: CLitmus, arch: str, opt: str, compiler: str):
        # the session's epoch overlay decides which compiler bugs this
        # cell simulates (private epochs are process/store-guarded by
        # the engine entry points)
        profile = make_profile(
            compiler, opt, arch, epochs=self.session.epochs
        )
        return self.result_cache.get(
            (litmus.digest(), profile.name, self.source_model,
             self.source_sig, self.arch_sig(arch), self.epoch_sig(compiler),
             self.augment, self.budget_candidates, self.stages_token),
            lambda: campaign_mod.test_compilation(
                litmus,
                profile,
                source_model=self.session.model(self.source_model),
                target_model=self.session.arch_model(profile.arch),
                augment=self.augment,
                budget=Budget(max_candidates=self.budget_candidates),
                source_result=self.simulate_source(litmus),
                toolchain=self.toolchain,
            ),
        )

    def evaluate(
        self, litmus: CLitmus, arch: str, opt: str, compiler: str
    ) -> Dict[str, object]:
        return _verdict_record(
            litmus, arch, opt, compiler, self.source_model, self.augment,
            self.budget_candidates,
            lambda: self.run_cell(litmus, arch, opt, compiler),
        )

    def pool_task(
        self, litmus: CLitmus, arch: str, opt: str, compiler: str, source
    ) -> Tuple:
        return (litmus, arch, opt, compiler, self.source_model, self.augment,
                self.budget_candidates, source)


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
    """The store/process-pool guards every campaign mode enforces."""
    if plan.resume and session.store is None:
        raise PlanError("resume=True needs a store to resume from")
    if plan.processes > 0 and session.caches_explicit:
        raise PlanError(
            "in-memory source/result caches are not shared with worker "
            "processes; persist across process-pool campaigns with a store"
        )
    local = sorted(
        session.local_model_names(plan)
        | session.local_epoch_names(plan)
        | session.local_stage_names(plan)
    )
    if local and plan.processes > 0:
        raise PlanError(
            f"session-registered definitions {local} are not visible to "
            f"worker processes; register them globally or use thread "
            f"workers"
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


def iter_campaign(plan: CampaignPlan, session) -> Iterator[CampaignEvent]:
    """Run ``plan`` inside ``session``, yielding events as cells finish.

    Validation and work-list construction happen eagerly (errors raise
    here, not at first ``next()``); simulation happens lazily as the
    returned stream is consumed.
    """
    if plan.mode == "hunt":
        return iter_hunt(plan, session)
    differential = plan.mode == "differential"
    _check_session_constraints(plan, session)

    # differential mode: resolve the profile pairs eagerly — an
    # unresolvable or cross-architecture pairing is a plan mistake, not
    # a per-cell error (there is nothing meaningful left to run)
    pair_map: Dict[str, Tuple] = {}
    if differential:
        resolved_profiles = []
        for spec in plan.profiles:
            try:
                resolved_profiles.append((spec, session.profile(spec)))
            except ReproError as exc:
                raise PlanError(
                    f"differential profile {spec!r} failed to resolve: {exc}"
                )
        arches_used = sorted({p.arch for _, p in resolved_profiles})
        if len(arches_used) != 1:
            raise PlanError(
                f"differential testing requires a common architecture; "
                f"profiles target {arches_used}"
            )
        diff_arch = arches_used[0]
        for (spec_a, prof_a), (spec_b, prof_b) in itertools.combinations(
            resolved_profiles, 2
        ):
            pair_map[f"{spec_a}|{spec_b}"] = (spec_a, prof_a, spec_b, prof_b)

    tests = plan.resolve_tests(shapes=session.shapes)
    _lint_tests(tests, plan)
    store = session.store
    result_cache = session.result_cache
    ctx = _CellContext(plan, session)
    source_model = plan.source_model
    augment = plan.augment
    budget_candidates = plan.budget_candidates

    if differential:
        work: List[Cell] = [
            (litmus, diff_arch, "diff", label)
            for litmus in tests
            for label in pair_map
        ]
    else:
        work = _campaign_cells(
            tests, plan.arches, plan.opts, plan.compilers
        )
    if plan.shard is not None:
        shard_k, shard_n = plan.shard
        work = work[shard_k::shard_n]

    start = time.perf_counter()
    result_hits_before = result_cache.hits

    def run_diff_cell(litmus: CLitmus, arch: str, label: str):
        spec_a, prof_a, spec_b, prof_b = pair_map[label]
        return result_cache.get(
            (litmus.digest(), "diff", label, profile_signature(prof_a),
             profile_signature(prof_b), source_model, ctx.source_sig,
             ctx.arch_sig(arch), augment, budget_candidates,
             ctx.stages_token),
            lambda: campaign_mod.run_differential(
                litmus,
                prof_a,
                prof_b,
                source_model=session.model(source_model),
                target_model=session.arch_model(arch),
                augment=augment,
                budget=Budget(max_candidates=budget_candidates),
                source_result=ctx.simulate_source(litmus),
                toolchain=ctx.toolchain,
            ),
        )

    def evaluate(
        litmus: CLitmus, arch: str, opt: str, compiler: str
    ) -> Dict[str, object]:
        if differential:
            spec_a, _, spec_b, _ = pair_map[compiler]
            return _diff_verdict_record(
                litmus, arch, compiler, spec_a, spec_b, source_model,
                augment, budget_candidates,
                lambda: run_diff_cell(litmus, arch, compiler),
            )
        return ctx.evaluate(litmus, arch, opt, compiler)

    def pool_task(
        litmus: CLitmus, arch: str, opt: str, compiler: str, source
    ) -> Tuple:
        if differential:
            spec_a, _, spec_b, _ = pair_map[compiler]
            return (litmus, arch, compiler, spec_a, spec_b, source_model,
                    augment, budget_candidates, source)
        return ctx.pool_task(litmus, arch, opt, compiler, source)

    pool_fn = _pool_diff_cell if differential else _pool_cell

    def store_profile_label(arch: str, opt: str, compiler: str) -> str:
        if differential:
            return compiler  # the "<spec_a>|<spec_b>" pair label
        return _profile_name(compiler, opt, arch)

    # replay whatever the persistent store already knows (eager: cheap,
    # and the CampaignStarted event reports exact pending counts)
    replayed: List[Tuple[int, Cell, Dict[str, object]]] = []
    pending: List[Tuple[int, Cell]] = []
    for index, (litmus, arch, opt, compiler) in enumerate(work):
        if store is not None and plan.resume:
            key = cell_key(
                litmus.digest(), store_profile_label(arch, opt, compiler),
                source_model, augment, budget_candidates,
            )
            stored = store.get(key)
            if stored is not None:
                replayed.append((index, (litmus, arch, opt, compiler), stored))
                continue
        pending.append((index, (litmus, arch, opt, compiler)))

    def cell_event(
        index: int, item: Cell, record: Dict[str, object], from_store: bool
    ) -> CellFinished:
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
            shard=plan.shard,
            mode=plan.mode,
        )

    def events() -> Iterator[CampaignEvent]:
        ok_cells = 0
        yield CampaignStarted(
            source_model=source_model,
            tests_input=len(tests),
            cells_total=len(work),
            pending=len(pending),
            workers=plan.workers,
            processes=plan.processes,
            shard=plan.shard,
        )
        for index, item, record in replayed:
            if record.get("status") == "ok":
                ok_cells += 1
            yield cell_event(index, item, record, True)

        def finish(
            index: int, item: Cell, record: Dict[str, object]
        ) -> CellFinished:
            """Land one freshly computed verdict — persisting it *now*,
            so an interrupted campaign resumes from every finished cell."""
            nonlocal ok_cells
            if store is not None:
                store.put(record)
            if record.get("status") == "ok":
                ok_cells += 1
            return cell_event(index, item, record, False)

        # evaluate the cells the store could not answer (see
        # _run_pending for the error/cancellation contract)
        producer = _run_pending(
            pending, plan, ctx, evaluate, pool_task, pool_fn
        )
        try:
            for index, item, record in producer:
                yield finish(index, item, record)
        finally:
            # a consumer that abandons the stream early (fuzzing loops
            # break at the first positive) must not pay for the whole
            # campaign: closing the producer cancels everything queued
            producer.close()

        yield CampaignFinished(
            source_model=source_model,
            compiled_tests=ok_cells,
            elapsed_seconds=time.perf_counter() - start,
            source_sim_keys=frozenset(ctx.simulated_sources),
            cached_cells=result_cache.hits - result_hits_before,
            store_hits=len(replayed),
        )

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
    are assigned in schedule order, and cell evaluation is the same
    tv-cell contract as ``mode="tv"`` — so the same hunt folds to the
    same report on the serial, thread-pool and process-pool backends.
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
    store = session.store
    result_cache = session.result_cache
    source_model = plan.source_model
    augment = plan.augment
    budget_candidates = plan.budget_candidates
    start = time.perf_counter()
    result_hits_before = result_cache.hits

    def annotate(record: Dict[str, object], digest: str) -> Dict[str, object]:
        """Stamp a cell record with hunt mode + mutation lineage (records
        from worker processes arrive tv-shaped; the scheduler state never
        leaves this process)."""
        record = dict(record, mode="hunt")
        record.update(scheduler.lineage(digest).as_record())
        return record

    def split_replay(work: List[Cell], base: int):
        """Partition one round's work into store-replayed and pending
        cells, with indexes continuing from ``base``."""
        replayed: List[Tuple[int, Cell, Dict[str, object]]] = []
        pending: List[Tuple[int, Cell]] = []
        for offset, (litmus, arch, opt, compiler) in enumerate(work):
            if store is not None and plan.resume:
                key = cell_key(
                    litmus.digest(), _profile_name(compiler, opt, arch),
                    source_model, augment, budget_candidates,
                )
                stored = store.get(key)
                if stored is not None:
                    replayed.append(
                        (base + offset, (litmus, arch, opt, compiler), stored)
                    )
                    continue
            pending.append((base + offset, (litmus, arch, opt, compiler)))
        return replayed, pending

    def cell_event(
        index: int, item: Cell, record: Dict[str, object], from_store: bool
    ) -> CellFinished:
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
            shard=None,
            mode="hunt",
        )

    def reduction_check(profile):
        """The reduction oracle: "run_tv still says positive", straight
        through the session's toolchain (per-stage cache) — deliberately
        *not* through the result cache, whose hit counter feeds report
        parity and must only ever count campaign cells."""
        def check(candidate: CLitmus) -> bool:
            result = campaign_mod.test_compilation(
                candidate,
                profile,
                source_model=session.model(source_model),
                target_model=session.arch_model(profile.arch),
                augment=augment,
                budget=Budget(max_candidates=budget_candidates),
                toolchain=ctx.toolchain,
            )
            return result.verdict == "positive"
        return check

    def events() -> Iterator[CampaignEvent]:
        ok_cells = 0
        store_hits = 0
        next_index = 0
        round_index = 0
        positive_digests: set = set()
        #: first positive cell per digest, in index order — what gets
        #: reduced (deterministic across backends and completion orders)
        positive_cells: List[Tuple[int, Cell]] = []
        round_tests = scheduler.initial()

        first_round = True
        while round_tests:
            work = _campaign_cells(
                round_tests, plan.arches, plan.opts, plan.compilers
            )
            replayed, pending = split_replay(work, next_index)
            next_index += len(work)
            store_hits += len(replayed)
            if first_round:
                first_round = False
                yield CampaignStarted(
                    source_model=source_model,
                    tests_input=len(seeds),
                    cells_total=len(work),
                    pending=len(pending),
                    workers=plan.workers,
                    processes=plan.processes,
                    shard=None,
                )

            #: every positive cell of this round, whatever its digest —
            #: the per-digest representative is chosen *after* the round,
            #: by index, so completion order (thread/process backends)
            #: cannot change which cell gets reduced
            round_positives: List[Tuple[int, Cell]] = []

            def land(index: int, item: Cell, record: Dict[str, object]):
                nonlocal ok_cells
                if record.get("status") == "ok":
                    ok_cells += 1
                if record.get("verdict") == "positive":
                    round_positives.append((index, item))

            for index, item, record in replayed:
                land(index, item, record)
                yield cell_event(index, item, record, True)

            producer = _run_pending(
                pending, plan, ctx, ctx.evaluate, ctx.pool_task, _pool_cell
            )
            try:
                for index, item, record in producer:
                    record = annotate(record, item[0].digest())
                    if store is not None:
                        store.put(record)
                    land(index, item, record)
                    yield cell_event(index, item, record, False)
            finally:
                producer.close()

            # events may have landed in completion order; reduction (and
            # the next round's feedback) must not depend on it
            for index, item in sorted(round_positives):
                digest = item[0].digest()
                if digest not in positive_digests:
                    positive_digests.add(digest)
                    positive_cells.append((index, item))

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

        if plan.reduce:
            for index, item in positive_cells:
                litmus, arch, opt, compiler = item
                digest = litmus.digest()
                profile = make_profile(
                    compiler, opt, arch, epochs=session.epochs
                )
                try:
                    reduction = reduce_test(litmus, reduction_check(profile))
                except ReductionError:
                    # the stored verdict said positive but the oracle
                    # disagrees (e.g. a stale store) — nothing to reduce
                    continue
                record = _verdict_record(
                    reduction.reduced, arch, opt, compiler, source_model,
                    augment, budget_candidates,
                    lambda: campaign_mod.test_compilation(
                        reduction.reduced,
                        profile,
                        source_model=session.model(source_model),
                        target_model=session.arch_model(profile.arch),
                        augment=augment,
                        budget=Budget(max_candidates=budget_candidates),
                        toolchain=ctx.toolchain,
                    ),
                )
                record["mode"] = "hunt"
                record.update(reduction.lineage())
                # the stored reproducer is self-contained: the printed C
                # source rides along (digest-preserving, like write_suite),
                # so a bug report needs nothing but the store record
                record["source"] = print_c_litmus(reduction.reduced)
                if store is not None:
                    store.put(record)
                yield TestReduced(
                    test=litmus.name,
                    digest=digest,
                    reduced_name=reduction.reduced.name,
                    reduced_digest=reduction.reduced.digest(),
                    original_statements=reduction.original_statements,
                    reduced_statements=reduction.reduced_statements,
                    steps=len(reduction.steps),
                    checks=reduction.checks,
                    record=record,
                )

        yield CampaignFinished(
            source_model=source_model,
            compiled_tests=ok_cells,
            elapsed_seconds=time.perf_counter() - start,
            source_sim_keys=frozenset(ctx.simulated_sources),
            cached_cells=result_cache.hits - result_hits_before,
            store_hits=store_hits,
        )

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
        workers=started.workers,
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
    report.cached_cells = finished.cached_cells
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
