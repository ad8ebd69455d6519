"""Typed campaign events — the streaming currency of :meth:`Session.campaign`.

A campaign is no longer only an end-of-run batch report: the engine
*yields* these events as cells finish, so progress UIs, early-exit
fuzzing loops, and services can react mid-run.  The stream grammar is::

    CampaignStarted (CellFinished | ShardMerged)* CampaignFinished

with two hunt-mode extras interleaved — :class:`HuntProgress` after each
mutation round's cells and :class:`TestReduced` once per minimised
positive — and :func:`repro.api.fold_events` folds any complete stream
back into the batch :class:`~repro.pipeline.campaign.CampaignReport`,
byte-for-byte whatever the backend or completion order (hunt extras
fold as annotations: they never change cell tallies).

Every event is a frozen dataclass with an :meth:`as_dict` JSON projection
(the CLI's ``--json`` output is exactly one event per line).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from ..pipeline.campaign import CampaignReport


@dataclass(frozen=True)
class CampaignEvent:
    """Base class of everything a campaign stream yields."""

    #: the JSON ``event`` discriminator, overridden per subclass.
    kind = "event"

    def as_dict(self) -> Dict[str, object]:
        return {"event": self.kind}


@dataclass(frozen=True)
class CampaignStarted(CampaignEvent):
    """The work list is fixed: sizes, parallelism and shard are known."""

    kind = "campaign_started"

    source_model: str = "rc11"
    tests_input: int = 0
    #: total cells in this (possibly sharded) run's work list
    cells_total: int = 0
    #: cells that will actually run (the rest replay from the store)
    pending: int = 0
    #: worker processes (0 = serial)
    processes: int = 0
    shard: Optional[Tuple[int, int]] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "event": self.kind,
            "source_model": self.source_model,
            "tests_input": self.tests_input,
            "cells_total": self.cells_total,
            "pending": self.pending,
            "processes": self.processes,
            "shard": list(self.shard) if self.shard else None,
        }


@dataclass(frozen=True)
class CellFinished(CampaignEvent):
    """One (test × arch × opt × compiler) cell has a verdict record."""

    kind = "cell_finished"

    #: position in the deterministic work list — folding sorts on this,
    #: so events may arrive in any completion order
    index: int = 0
    test: str = ""
    digest: str = ""
    arch: str = ""
    opt: str = ""
    compiler: str = ""
    #: the full verdict record (the store/process-pool currency)
    record: Mapping[str, object] = field(default_factory=dict)
    #: True when replayed from the persistent store, not re-simulated
    from_store: bool = False
    shard: Optional[Tuple[int, int]] = None
    #: "tv" or "differential" — for differential cells ``compiler``
    #: carries the profile-pair label and ``opt`` is ``"diff"``
    mode: str = "tv"

    @property
    def status(self) -> str:
        return str(self.record.get("status", ""))

    @property
    def verdict(self) -> Optional[str]:
        value = self.record.get("verdict")
        return None if value is None else str(value)

    @property
    def artifacts(self) -> Dict[str, str]:
        """The ``{stage: artifact key}`` map into the toolchain's
        content-addressed cache — which compiled litmus, outcome sets
        and verdict produced this cell.  Empty for error/timeout cells
        and for records persisted before the toolchain redesign."""
        value = self.record.get("artifacts")
        if not isinstance(value, Mapping):
            return {}
        return {str(k): str(v) for k, v in value.items()}

    def as_dict(self) -> Dict[str, object]:
        return {
            "event": self.kind,
            "index": self.index,
            "test": self.test,
            "digest": self.digest,
            "arch": self.arch,
            "opt": self.opt,
            "compiler": self.compiler,
            "from_store": self.from_store,
            "shard": list(self.shard) if self.shard else None,
            "mode": self.mode,
            "record": dict(self.record),
        }


@dataclass(frozen=True)
class HuntProgress(CampaignEvent):
    """One hunt round finished: what the feedback loop learned and what
    it scheduled next.  Emitted after the round's cells, before the next
    round's — so ``round_index`` partitions the cell stream."""

    kind = "hunt_progress"

    #: the round whose cells have just finished (0 = the seeds)
    round_index: int = 0
    #: cells evaluated in this round
    cells: int = 0
    #: distinct positive *tests* (by digest) across the hunt so far
    positives: int = 0
    #: new mutants scheduled for the next round (0 = hunt is done)
    scheduled: int = 0
    #: distinct tests scheduled since round 0 (seeds included)
    unique_tests: int = 0
    #: mutants dropped because their digest was already scheduled
    duplicates_skipped: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "event": self.kind,
            "round": self.round_index,
            "cells": self.cells,
            "positives": self.positives,
            "scheduled": self.scheduled,
            "unique_tests": self.unique_tests,
            "duplicates_skipped": self.duplicates_skipped,
        }


@dataclass(frozen=True)
class TestReduced(CampaignEvent):
    """A hunt positive was minimised to a 1-minimal reproducer.

    ``record`` is the reduced test's re-verified verdict record — the
    same store currency as a cell record, carrying ``reduced_from`` /
    ``reduction_steps`` lineage — so consumers (and the session store)
    get the reproducer without re-simulating anything.
    """

    kind = "test_reduced"
    __test__ = False  # pytest: an event class, not a test class

    #: the positive test reduction started from
    test: str = ""
    digest: str = ""
    #: the minimal reproducer
    reduced_name: str = ""
    reduced_digest: str = ""
    original_statements: int = 0
    reduced_statements: int = 0
    #: accepted shrink steps (0 = the positive was already minimal)
    steps: int = 0
    #: oracle re-verifications the reduction spent
    checks: int = 0
    record: Mapping[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "event": self.kind,
            "test": self.test,
            "digest": self.digest,
            "reduced_name": self.reduced_name,
            "reduced_digest": self.reduced_digest,
            "original_statements": self.original_statements,
            "reduced_statements": self.reduced_statements,
            "steps": self.steps,
            "checks": self.checks,
            "record": dict(self.record),
        }


@dataclass(frozen=True)
class ShardMerged(CampaignEvent):
    """One shard of a :meth:`Session.campaign_sharded` run completed and
    was folded into the running merge."""

    kind = "shard_merged"

    shard: Tuple[int, int] = (0, 1)
    report: CampaignReport = field(default_factory=lambda: CampaignReport(""))

    def as_dict(self) -> Dict[str, object]:
        return {
            "event": self.kind,
            "shard": list(self.shard),
            "report": self.report.to_jsonable(),
        }


@dataclass(frozen=True)
class FarmStarted(CampaignEvent):
    """A regression-farm pass begins: the manifest is loaded and every
    selected suite's content digest has been re-verified."""

    kind = "farm_started"

    root: str = ""
    #: suites selected for this pass (after plan filters)
    suites: Tuple[str, ...] = ()
    #: (suite, profile, model) baseline cells selected for this pass
    baselines: int = 0
    tests_total: int = 0
    processes: int = 0
    bless: bool = False

    def as_dict(self) -> Dict[str, object]:
        return {
            "event": self.kind,
            "root": self.root,
            "suites": list(self.suites),
            "baselines": self.baselines,
            "tests_total": self.tests_total,
            "processes": self.processes,
            "bless": self.bless,
        }


@dataclass(frozen=True)
class SuiteFinished(CampaignEvent):
    """One (suite, profile, model) baseline cell has run and been diffed
    against its blessed baseline (or re-blessed)."""

    kind = "suite_finished"

    suite: str = ""
    profile: str = ""
    model: str = ""
    #: tests the suite streamed through the toolchain
    tests: int = 0
    #: verdict records produced (error/timeout cells included)
    records: int = 0
    #: drifting cells vs the blessed baseline (0 after a bless)
    drift: int = 0
    #: per-kind drift tallies (``new-positive``, ``lost-positive``, …)
    drift_counts: Mapping[str, int] = field(default_factory=dict)
    #: the human-readable mcompare-style drift report
    report: str = ""
    #: True when this pass re-blessed the baseline file
    blessed: bool = False

    def as_dict(self) -> Dict[str, object]:
        return {
            "event": self.kind,
            "suite": self.suite,
            "profile": self.profile,
            "model": self.model,
            "tests": self.tests,
            "records": self.records,
            "drift": self.drift,
            "drift_counts": dict(self.drift_counts),
            "report": self.report,
            "blessed": self.blessed,
        }


@dataclass(frozen=True)
class FarmFinished(CampaignEvent):
    """End of a farm pass: the totals drift decisions key off."""

    kind = "farm_finished"

    #: baseline cells run
    baselines: int = 0
    #: toolchain cells evaluated across every suite
    cells: int = 0
    #: total drifting cells (a non-bless run with ``drift > 0`` is a
    #: regression — the CLI exits non-zero on it)
    drift: int = 0
    #: baseline files (re-)written by this pass
    blessed: int = 0
    elapsed_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "event": self.kind,
            "baselines": self.baselines,
            "cells": self.cells,
            "drift": self.drift,
            "blessed": self.blessed,
            "elapsed_seconds": self.elapsed_seconds,
        }


@dataclass(frozen=True)
class CampaignFinished(CampaignEvent):
    """End of stream: the aggregates only the whole run can know."""

    kind = "campaign_finished"

    source_model: str = "rc11"
    compiled_tests: int = 0
    elapsed_seconds: float = 0.0
    #: distinct source-simulation cache keys produced by this run —
    #: carried (not just counted) so shard merges can de-duplicate
    source_sim_keys: FrozenSet[Tuple] = frozenset()
    cached_cells: int = 0
    store_hits: int = 0

    @property
    def source_simulations(self) -> int:
        return len(self.source_sim_keys)

    def as_dict(self) -> Dict[str, object]:
        return {
            "event": self.kind,
            "source_model": self.source_model,
            "compiled_tests": self.compiled_tests,
            "elapsed_seconds": self.elapsed_seconds,
            "source_simulations": self.source_simulations,
            "cached_cells": self.cached_cells,
            "store_hits": self.store_hits,
        }
