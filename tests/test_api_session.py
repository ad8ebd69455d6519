"""The repro.api surface: sessions, plans, the event stream, and the
stream↔batch parity guarantee."""

import json
import multiprocessing
from dataclasses import replace

import pytest

from repro.api import (
    CampaignFinished,
    CampaignPlan,
    CampaignStarted,
    CellFinished,
    PlanError,
    Session,
    ShardMerged,
    engine,
    fold_events,
)
from repro.cat.registry import MODELS, get_source
from repro.papertests import all_tests, fig7_lb
from repro.pipeline.campaign import ResultCache, SourceSimCache
from repro.pipeline.store import CampaignStore
from repro.tools.mcompare import baseline_view
from repro.tools.diy import DiyConfig, build_test, get_shape

CONFIG = DiyConfig(
    shapes=("LB",), orders=("rlx",), fences=(None,),
    deps=("po", "ctrl2"), variants=("load-store",),
)

PLAN = CampaignPlan(
    config=CONFIG, arches=("aarch64", "x86_64"), opts=("-O1", "-O2"),
    compilers=("llvm", "gcc"),
)


def report_bytes(report):
    """The canonical byte string the parity guarantee is stated in."""
    return json.dumps(
        report.to_jsonable(include_timing=False), sort_keys=True
    ).encode()


def backend_bytes(report):
    """``report_bytes`` minus ``processes``: the one field that is honest
    run metadata rather than a result, masked before comparing backends."""
    data = report.to_jsonable(include_timing=False)
    data.pop("processes")
    return json.dumps(data, sort_keys=True).encode()


# --------------------------------------------------------------------------- #
# plan validation
# --------------------------------------------------------------------------- #
class TestPlanValidation:
    def test_bad_shard(self):
        with pytest.raises(PlanError, match="bad shard"):
            CampaignPlan(shard=(5, 2))
        with pytest.raises(PlanError, match="bad shard"):
            CampaignPlan(shard=(-1, 4))
        with pytest.raises(PlanError, match="bad shard"):
            CampaignPlan(shard=(0, 0))

    def test_plan_error_is_a_value_error(self):
        """Legacy callers catch ValueError; the plan keeps that contract."""
        with pytest.raises(ValueError):
            CampaignPlan(shard=(2, 2))

    def test_resume_without_store(self):
        with pytest.raises(PlanError, match="needs a store"):
            Session().campaign(CampaignPlan(config=CONFIG, resume=True))

    def test_process_pool_with_in_memory_caches(self):
        session = Session(result_cache=ResultCache())
        with pytest.raises(PlanError, match="not shared with worker"):
            session.campaign(CampaignPlan(config=CONFIG, processes=2))
        session = Session(source_cache=SourceSimCache())
        with pytest.raises(PlanError, match="not shared with worker"):
            session.campaign(CampaignPlan(config=CONFIG, processes=2))

    def test_structural_bounds(self):
        with pytest.raises(PlanError, match="processes"):
            CampaignPlan(processes=-1)
        with pytest.raises(PlanError, match="budget_candidates"):
            CampaignPlan(budget_candidates=0)
        with pytest.raises(PlanError, match="at least one architecture"):
            CampaignPlan(arches=())
        with pytest.raises(PlanError, match="at least one compiler"):
            CampaignPlan(compilers=())
        with pytest.raises(PlanError, match="at least one optimisation"):
            CampaignPlan(opts=())

    def test_sequences_coerced_to_tuples(self):
        plan = CampaignPlan(arches=["aarch64"], opts=["-O2"],
                            compilers=["llvm"], shard=[0, 2])
        assert plan.arches == ("aarch64",)
        assert plan.shard == (0, 2)

    def test_split(self):
        shards = PLAN.split(3)
        assert [p.shard for p in shards] == [(0, 3), (1, 3), (2, 3)]
        with pytest.raises(PlanError, match="already"):
            shards[0].split(2)

    def test_with_model(self):
        assert PLAN.with_model("rc11+lb").source_model == "rc11+lb"
        assert PLAN.source_model == "rc11"  # frozen: original untouched

    def test_describe_is_jsonable(self):
        json.dumps(PLAN.describe())


# --------------------------------------------------------------------------- #
# the event stream
# --------------------------------------------------------------------------- #
class TestEventStream:
    @pytest.fixture(scope="class")
    def events(self):
        return list(Session().campaign(PLAN))

    def test_stream_grammar(self, events):
        assert isinstance(events[0], CampaignStarted)
        assert isinstance(events[-1], CampaignFinished)
        cells = events[1:-1]
        assert cells and all(isinstance(e, CellFinished) for e in cells)
        assert events[0].cells_total == len(cells)
        assert sorted(e.index for e in cells) == list(range(len(cells)))

    def test_cell_events_carry_records(self, events):
        cell = next(e for e in events if isinstance(e, CellFinished))
        assert cell.status in ("ok", "timeout", "error")
        assert cell.record["digest"] == cell.digest
        assert cell.verdict in ("positive", "negative", "equal", "ub-masked")

    def test_events_are_jsonable(self, events):
        for event in events:
            json.dumps(event.as_dict())

    def test_fold_matches_stream_report(self, events):
        session_report = Session().campaign(PLAN).report()
        assert report_bytes(fold_events(events)) == report_bytes(session_report)

    def test_partial_consumption_then_report(self):
        stream = Session().campaign(PLAN)
        consumed = [next(iter(stream))]
        assert isinstance(consumed[0], CampaignStarted)
        report = stream.report()  # drains the rest, loses nothing
        assert report.tests_input == consumed[0].tests_input
        assert sum(c.total for c in report.cells.values()) > 0

    def test_fold_of_incomplete_stream_raises(self):
        with pytest.raises(ValueError, match="incomplete"):
            fold_events([CampaignStarted()])

    def test_early_exit_is_cheap(self):
        """A fuzzing loop can stop at the first positive: unconsumed
        cells are never simulated."""
        session = Session()
        stream = session.campaign(PLAN)
        started = None
        for event in stream:
            if isinstance(event, CampaignStarted):
                started = event
            if isinstance(event, CellFinished) and event.verdict == "positive":
                break
        assert started is not None
        # only the cells up to the first positive were evaluated
        assert len(session.result_cache) < started.cells_total
        assert session.source_cache.misses < started.tests_input

    def test_early_exit_cancels_queued_pool_work(self, tmp_path, monkeypatch):
        """Abandoning a pooled stream cancels the queued cells: pool
        shutdown waits only for what is already running, and only the
        consumed cell is persisted (worker evaluations are counted in a
        file: forked workers inherit the counting wrapper)."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("counting worker calls needs forked workers")
        calls = tmp_path / "calls"
        calls.write_text("")
        real = engine.run_test_tv

        def counting(*args, **kwargs):
            with open(calls, "a") as handle:
                handle.write("x")
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "run_test_tv", counting)
        session = Session(store=CampaignStore(tmp_path / "s.jsonl"))
        plan = replace(PLAN, processes=2)
        started = None
        for event in session.campaign(plan):
            if isinstance(event, CampaignStarted):
                started = event
            if isinstance(event, CellFinished):
                break
        assert session.store.appended == 1
        # at most: the consumed cell, the other test's first cell, and
        # the few cells the pool had queued for its workers when the
        # stream was closed (the rest were cancelled)
        assert len(calls.read_text()) < started.cells_total // 2


# --------------------------------------------------------------------------- #
# stream ↔ batch parity (the acceptance bar)
# --------------------------------------------------------------------------- #
class TestParity:
    @pytest.fixture(scope="class")
    def serial_events(self):
        return list(Session().campaign(PLAN))

    def test_serial_parity(self, serial_events):
        """Folding is order-independent: the serial stream folded in
        reverse completion order gives the same bytes."""
        cells = [e for e in serial_events if isinstance(e, CellFinished)]
        reordered = [serial_events[0], *reversed(cells), serial_events[-1]]
        assert report_bytes(fold_events(reordered)) == \
            report_bytes(fold_events(serial_events))

    def test_process_parity(self, serial_events):
        """The process backend folds to the serial report's bytes, except
        the ``processes`` metadata."""
        pooled = Session().campaign(replace(PLAN, processes=2)).report()
        assert pooled.processes == 2
        assert backend_bytes(pooled) == backend_bytes(
            fold_events(serial_events)
        )

    def test_serial_process_agree(self, serial_events):
        """Both backends produce the same verdict record for every cell."""
        pooled = list(Session().campaign(replace(PLAN, processes=2)))

        def records(events):
            return {
                e.index: baseline_view(e.record)
                for e in events if isinstance(e, CellFinished)
            }

        assert records(pooled) == records(serial_events)

    def test_sharded_stream_merges_to_single_run(self):
        session = Session()
        stream = session.campaign_sharded(PLAN, 3)
        events = list(stream)
        merges = [e for e in events if isinstance(e, ShardMerged)]
        assert [e.shard for e in merges] == [(0, 3), (1, 3), (2, 3)]
        merged = stream.report()
        single = Session().campaign(PLAN).report()
        assert {k: vars(v) for k, v in merged.cells.items()} == \
               {k: vars(v) for k, v in single.cells.items()}
        assert sorted(merged.positives) == sorted(single.positives)
        assert merged.source_simulations == single.source_simulations


class TestProcessSourceHoisting:
    """The process backend hoists source simulations through the
    session's source cache exactly as the serial engine does: the first
    cell of each test simulates its source in a worker, every other cell
    is shipped the cached result."""

    PLAN = CampaignPlan(
        tests=tuple(all_tests()), arches=("aarch64", "armv7"),
        opts=("-O2",), compilers=("llvm",),
    )

    @staticmethod
    def run(plan, session=None):
        session = session if session is not None else Session()
        events = list(session.campaign(plan))
        finished = events[-1]
        assert isinstance(finished, CampaignFinished)
        records = {
            e.index: baseline_view(e.record)
            for e in events if isinstance(e, CellFinished)
        }
        report = fold_events(events).to_jsonable(include_timing=False)
        report["processes"] = 0  # honest run metadata, not a result
        return session, finished, records, report

    def test_multi_profile_campaign_matches_serial(self):
        _, serial, serial_records, serial_report = self.run(self.PLAN)
        session, pooled, pooled_records, pooled_report = self.run(
            replace(self.PLAN, processes=2)
        )
        assert pooled.source_sim_keys == serial.source_sim_keys
        assert len(pooled.source_sim_keys) == len(self.PLAN.tests)
        assert pooled_records == serial_records
        assert pooled_report == serial_report
        # one simulation per test, replayed to its other profile's cell
        assert session.source_cache.misses == len(self.PLAN.tests)
        assert session.source_cache.hits == len(self.PLAN.tests)

    def test_second_pooled_campaign_simulates_no_source(self):
        plan = replace(self.PLAN, processes=2)
        session, _, first_records, _ = self.run(plan)
        _, again, records, report = self.run(plan, session)
        assert again.source_sim_keys == frozenset()
        assert report["source_simulations"] == 0
        assert records == first_records

    def test_timed_out_source_is_simulated_once(self, tmp_path, monkeypatch):
        """A source over its budget is simulated once per campaign on
        either backend, and every cell of it gets the same ``timeout``
        record (worker calls are counted in a file: forked workers
        inherit the counting wrapper)."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("counting worker calls needs forked workers")
        calls = tmp_path / "calls"
        real = engine.simulate_c

        def counting(*args, **kwargs):
            with open(calls, "a") as handle:
                handle.write("x")
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "simulate_c", counting)
        plan = replace(self.PLAN, tests=(fig7_lb(),), budget_candidates=1)
        outcomes = []
        for processes in (0, 2):
            calls.write_text("")
            _, finished, records, report = self.run(
                replace(plan, processes=processes)
            )
            assert calls.read_text() == "x"
            assert len(finished.source_sim_keys) == 1
            assert {r["status"] for r in records.values()} == {"timeout"}
            outcomes.append((records, report))
        assert outcomes[0] == outcomes[1]


class TestFarmParity:
    """Blessing the same mini-corpus on every execution backend must
    produce byte-identical baseline files — the farm extension of the
    fold_events parity guarantee (completion order and backend never
    leak into the blessed bytes)."""

    @pytest.fixture(scope="class")
    def corpus_template(self, tmp_path_factory):
        from repro.pipeline.farm import generate_corpus

        root = tmp_path_factory.mktemp("farm-parity") / "corpus"
        generate_corpus(
            root,
            suites={"mini": CONFIG},
            profiles=("llvm-O2-AArch64", "gcc-O1-ARM"),
        )
        return root

    def _bless_bytes(self, corpus_template, tmp_path, **plan_fields):
        import shutil

        from repro.api import FarmPlan

        root = tmp_path / "corpus"
        shutil.copytree(corpus_template, root)
        plan = FarmPlan(root=str(root), bless=True, **plan_fields)
        for event in Session().farm(plan):
            pass
        baseline_dir = root / "baselines"
        return {
            path.name: path.read_bytes()
            for path in sorted(baseline_dir.iterdir())
        }

    def test_backends_bless_identically(self, corpus_template, tmp_path):
        serial = self._bless_bytes(corpus_template, tmp_path / "s")
        pooled = self._bless_bytes(corpus_template, tmp_path / "p",
                                   processes=2)
        assert set(serial) == {
            "mini--gcc-O1-ARM--rc11.jsonl",
            "mini--llvm-O2-AArch64--rc11.jsonl",
        }
        assert serial == pooled


# --------------------------------------------------------------------------- #
# sessions
# --------------------------------------------------------------------------- #
class TestSession:
    def test_private_model_does_not_leak(self):
        session = Session()
        session.register_model("rc11_mine", get_source("rc11+lb"))
        assert session.model("rc11_mine").name == "rc11_mine"
        assert "rc11_mine" not in MODELS
        assert "rc11_mine" not in Session().models

    def test_shadowing_a_global_model(self):
        """A session can shadow ``rc11`` itself; the globals never see it."""
        session = Session()
        session.register_model("rc11", get_source("rc11+lb"))
        lb = build_test(get_shape("LB"), "rlx", name="LB004")
        shadowed = session.test(lb, ("llvm", "-O3", "aarch64"))
        vanilla = Session().test(lb, ("llvm", "-O3", "aarch64"))
        # under the shadowed (weaker) rc11 the LB outcome is allowed at
        # the source, so the compiled test shows no positive difference
        assert vanilla.found_bug and not shadowed.found_bug

    def test_campaign_under_private_model(self):
        session = Session()
        session.register_model("lb_ok", get_source("rc11+lb"))
        plan = CampaignPlan(config=CONFIG, arches=("aarch64",), opts=("-O2",),
                            compilers=("llvm",), source_model="lb_ok")
        report = session.campaign(plan).report()
        assert report.total_positive() == 0
        assert report.source_model == "lb_ok"

    def test_shadowed_model_never_replays_stale_verdicts(self):
        """Cache identity includes what the model *name* resolves to in
        the session — shadowing ``rc11`` after a campaign re-simulates
        under the new model instead of replaying verdicts computed under
        the global one (the PR 2 content-identity rule, for models)."""
        session = Session()
        plan = CampaignPlan(config=CONFIG, arches=("aarch64",),
                            opts=("-O2",), compilers=("llvm",))
        before = session.run(plan)
        assert before.total_positive() > 0
        session.register_model("rc11", get_source("rc11+lb"))
        after = session.run(plan)
        assert after.total_positive() == 0

    def test_session_isas_populated_in_fresh_interpreter(self):
        """The ISA registry populates by import side effect; the session
        overlay must trigger it even when nothing else has."""
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.api import Session; print(Session().isa('aarch64').name)"],
            capture_output=True, text=True, env=env,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "aarch64"

    def test_unknown_source_model_is_a_plan_error(self):
        """A source model that resolves to nothing is bad input, raised
        before any cell runs — not a campaign of error cells — in every
        mode; a session-registered model resolves, in its session only."""
        session = Session()
        for plan in (
            CampaignPlan(config=CONFIG, source_model="nosuchmodel"),
            CampaignPlan(mode="hunt", tests=(fig7_lb(),),
                         source_model="nosuchmodel"),
            CampaignPlan(mode="differential", tests=(fig7_lb(),),
                         profiles=("llvm-O1-AArch64", "llvm-O3-AArch64"),
                         source_model="nosuchmodel"),
        ):
            with pytest.raises(PlanError, match="'nosuchmodel'"):
                session.run(plan)
        session.register_model("mine", get_source("rc11"))
        plan = CampaignPlan(config=CONFIG, arches=("aarch64",),
                            opts=("-O2",), compilers=("llvm",),
                            source_model="mine")
        report = session.run(plan)
        assert report.compiled_tests == report.tests_input > 0
        with pytest.raises(PlanError, match="'mine'"):
            Session().run(plan)

    def test_private_model_refused_by_process_pool(self):
        session = Session()
        session.register_model("lb_ok", get_source("rc11+lb"))
        plan = CampaignPlan(config=CONFIG, arches=("aarch64",), opts=("-O2",),
                            compilers=("llvm",), source_model="lb_ok",
                            processes=2)
        with pytest.raises(PlanError, match="not visible to worker"):
            session.campaign(plan)

    def test_local_guard_sees_through_aliases(self):
        """Shadowing a model and addressing it by a parent-defined alias
        must still trip the process-pool guard."""
        session = Session()
        session.register_model("rc11+lb", get_source("rc11"))
        plan = CampaignPlan(config=CONFIG, arches=("aarch64",), opts=("-O2",),
                            compilers=("llvm",), source_model="RC11-LB",
                            processes=2)
        with pytest.raises(PlanError, match="not visible to worker"):
            session.campaign(plan)

    def test_private_model_refused_by_store(self, tmp_path):
        """Store records key verdicts by name; a session-local model
        behind that name would poison the store."""
        session = Session(store=tmp_path / "s.jsonl")
        session.register_model("rc11", get_source("rc11+lb"))
        plan = CampaignPlan(config=CONFIG, arches=("aarch64",), opts=("-O2",),
                            compilers=("llvm",))
        with pytest.raises(PlanError, match="cannot be keyed"):
            session.campaign(plan)

    def test_session_epochs_drive_campaign_cells(self):
        """A session-registered compiler epoch changes what the campaign
        simulates — validating a compiler fix without touching globals."""
        config = DiyConfig(shapes=("LB",), orders=("rlx",), fences=(None,),
                           deps=("ctrl2",), variants=("load-store",))
        plan = CampaignPlan(config=config, arches=("armv7",), opts=("-O1",),
                            compilers=("gcc",))
        session = Session()
        buggy = session.run(plan)
        assert buggy.total_positive() > 0  # gcc -O1 drops the ctrl dep
        # registering the fixed epoch on the *same* session re-simulates —
        # the epoch's bug set is cache-key identity, not just its name
        session.epochs.register("gcc-12", frozenset())
        assert session.run(plan).total_positive() == 0
        with pytest.raises(PlanError, match="not visible to worker"):
            session.campaign(
                CampaignPlan(config=config, arches=("armv7",), opts=("-O1",),
                             compilers=("gcc",), processes=2)
            )

    def test_session_shapes_drive_generation(self):
        """A session-registered shape is usable from a plan's DiyConfig."""
        from repro.tools.diy import lb_chain

        session = Session()
        session.register_shape(lb_chain(5))
        plan = CampaignPlan(
            config=DiyConfig(shapes=("LB5",), orders=("rlx",), fences=(None,),
                             deps=("po",), variants=("load-store",)),
            arches=("aarch64",), opts=("-O2",), compilers=("llvm",),
        )
        report = session.run(plan)
        assert report.tests_input == 1 and report.compiled_tests == 1
        # the global registry never learns about LB5
        with pytest.raises(Exception, match="unknown shape"):
            Session().run(plan)

    def test_profile_resolution_forms(self):
        session = Session()
        by_tuple = session.profile(("llvm", "-O3", "aarch64"))
        by_name = session.profile("llvm-O3-AArch64")
        assert by_tuple == by_name
        assert session.profile(by_tuple) is by_tuple

    def test_test_by_profile_name(self):
        lb = build_test(get_shape("LB"), "rlx", name="LB004")
        result = Session().test(lb, "llvm-O3-AArch64")
        assert result.found_bug
        assert result.profile.name == "llvm-O3-AArch64"

    def test_session_default_budget(self):
        session = Session(budget_candidates=2)
        lb = build_test(get_shape("LB"), "rlx", name="LB004")
        from repro.core.errors import SimulationTimeout

        with pytest.raises(SimulationTimeout):
            session.test(lb, "llvm-O3-AArch64")

    def test_store_resume_via_session(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        cold = Session(store=path).campaign(PLAN).report()
        assert cold.store_hits == 0
        warm_session = Session(store=path)
        resumed = warm_session.campaign(
            CampaignPlan(config=CONFIG, arches=PLAN.arches, opts=PLAN.opts,
                         compilers=PLAN.compilers, resume=True)
        )
        events = list(resumed)
        assert all(
            e.from_store for e in events if isinstance(e, CellFinished)
        )
        report = resumed.report()
        assert report.store_hits == sum(c.total for c in cold.cells.values())
        assert report.source_simulations == 0  # warm: nothing re-simulated
        assert {k: vars(v) for k, v in report.cells.items()} == \
               {k: vars(v) for k, v in cold.cells.items()}
        assert report.positives == cold.positives
