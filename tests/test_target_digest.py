"""Content-addressed target simulation.

``simulate-target`` is keyed by :meth:`AsmLitmus.digest` — the lifted
program's content — so every cell that compiles to the same program
shares one simulation.  Covers:

* the digest: name-blind, sensitive to every other field, and stable
  across processes and string-hash seeds;
* soundness of sharing: a cache hit yields exactly the record a fresh
  simulation does (``LB001`` and ``LB009`` differ only by a relaxed
  fence, which ``gcc-O1-ARM`` compiles to nothing);
* the corpus farm simulates each distinct program once, serially and on
  a thread pool alike;
* worker processes scope their artifact cache to one pool task.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import CampaignPlan, FarmPlan, Session, engine
from repro.api.events import FarmFinished
from repro.compiler.profiles import parse_profile
from repro.core.litmus import Condition, LocEq
from repro.tools.mcompare import baseline_view
from repro.tools.sources import SuiteSource
from repro.toolchain import Toolchain

CORPUS = Path(__file__).parent / "corpus"
PROFILE = "gcc-O1-ARM"


@pytest.fixture(scope="module")
def lb_tests():
    return {t.name: t for t in SuiteSource(str(CORPUS / "suites" / "lb.jsonl"))}


def _lift(litmus, profile=PROFILE):
    chain = Toolchain()
    prepared = chain.prepare(litmus)
    return chain.lift(
        prepared, chain.compile(prepared, parse_profile(profile))
    ).litmus


@pytest.fixture(scope="module")
def target(lb_tests):
    return _lift(lb_tests["LB001"])


# --------------------------------------------------------------------------- #
# AsmLitmus.digest
# --------------------------------------------------------------------------- #
def _edit_instruction(litmus, **changes):
    """Apply ``changes`` to the first memory access of thread 0."""
    thread = litmus.threads[0]
    index = next(
        i for i, instr in enumerate(thread.instructions)
        if instr.is_memory_access
    )
    instructions = list(thread.instructions)
    instructions[index] = replace(instructions[index], **changes)
    threads = (replace(thread, instructions=tuple(instructions)),)
    return replace(litmus, threads=threads + litmus.threads[1:])


def _edit_thread(litmus, **changes):
    threads = (replace(litmus.threads[0], **changes),)
    return replace(litmus, threads=threads + litmus.threads[1:])


def _first_symbol(litmus):
    return sorted(litmus.layout)[0]


EDITS = {
    "operand": lambda t: _edit_instruction(t, offset=8),
    "acquire": lambda t: _edit_instruction(t, acquire=True),
    "release": lambda t: _edit_instruction(t, release=True),
    "fence-tags": lambda t: _edit_instruction(
        t, fence_tags=frozenset({"ish"})
    ),
    "init": lambda t: replace(
        t, init={**t.init, sorted(t.init)[0]: 7}
    ),
    "layout": lambda t: replace(
        t, layout={**t.layout, _first_symbol(t): 0x9000}
    ),
    "observed": lambda t: _edit_thread(
        t, observed={**t.threads[0].observed, "w30": "r9"}
    ),
    "addr-env": lambda t: _edit_thread(
        t, addr_env={**t.threads[0].addr_env, "x30": _first_symbol(t)}
    ),
    "condition": lambda t: replace(
        t, condition=Condition("exists", LocEq(_first_symbol(t), 3))
    ),
    "widths": lambda t: replace(
        t, widths={**t.widths, "x": 2 * t.width_of("x")}
    ),
    "const": lambda t: replace(
        t, const_locations=t.const_locations + (_first_symbol(t),)
    ),
    "private": lambda t: replace(
        t, private_locations=t.private_locations + (_first_symbol(t),)
    ),
    "regions": lambda t: replace(
        t, regions={**t.regions, "stack0": 16}
    ),
    "arch": lambda t: replace(t, arch="riscv"),
}


class TestAsmDigest:
    def test_renaming_keeps_the_digest(self, target):
        renamed = replace(target, name="something-else")
        assert renamed.digest() == target.digest()

    def test_digest_is_cached_on_the_instance(self, target):
        digest = target.digest()
        assert target.__dict__["_digest"] == digest
        # replace() re-runs __init__, so the copy recomputes it
        assert replace(target).digest() == digest

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_every_field_changes_the_digest(self, target, edit):
        edited = EDITS[edit](target)
        assert edited != target
        assert edited.digest() != target.digest()

    def test_stable_across_hash_seeds(self):
        """Frozensets and dicts render sorted, so two interpreters with
        different string-hash seeds agree on the digest."""
        script = (
            "from repro.asm.isa.base import Instruction, Op\n"
            "from repro.asm.litmus import AsmLitmus, AsmThread\n"
            "from repro.core.litmus import Condition, LocEq\n"
            "fence = Instruction(op=Op.FENCE, fence_tags=frozenset("
            "{'ld', 'st', 'ish', 'osh', 'sy'}))\n"
            "thread = AsmThread('P0', (fence,), observed={'w1': 'r1', "
            "'w2': 'r2', 'w3': 'r3'}, addr_env={'x0': 'x', 'x1': 'y'})\n"
            "litmus = AsmLitmus(name='t', init={'x': 0, 'y': 0, 'z': 0}, "
            "condition=Condition('exists', LocEq('x', 1)), "
            "threads=(thread,), layout={'x': 16, 'y': 32, 'z': 48}, "
            "private_locations=('z', 'y'))\n"
            "print(litmus.digest())\n"
        )
        src = str(Path(__file__).parent.parent / "src")
        digests = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1
        assert len(digests.pop()) == 16


# --------------------------------------------------------------------------- #
# sharing is sound
# --------------------------------------------------------------------------- #
class TestSharedTargetSimulation:
    def test_lb001_and_lb009_compile_to_one_program(self, lb_tests):
        first, second = lb_tests["LB001"], lb_tests["LB009"]
        assert first.digest() != second.digest()
        assert _lift(first).digest() == _lift(second).digest()

    def test_cache_hit_matches_fresh_simulation(self, lb_tests):
        session = Session()
        shared = [
            session.test(lb_tests[name], PROFILE).to_record()
            for name in ("LB001", "LB009")
        ]
        stats = session.toolchain().cache.stats()["simulate-target"]
        assert (stats["misses"], stats["hits"]) == (1, 1)
        for name, record in zip(("LB001", "LB009"), shared):
            fresh = Session().test(lb_tests[name], PROFILE).to_record()
            assert record["test"] == name
            assert baseline_view(record) == baseline_view(fresh)


class TestCorpusFarm:
    """The corpus has 444 cells but 230 distinct compiled programs."""

    def _farm(self, **fields):
        session = Session()
        events = list(session.farm(FarmPlan(root=str(CORPUS), **fields)))
        finished = events[-1]
        assert isinstance(finished, FarmFinished)
        assert finished.cells == 444 and finished.drift == 0
        return session.toolchain().cache.stats()["simulate-target"]

    def test_serial_farm_simulates_each_program_once(self):
        stats = self._farm()
        assert stats["misses"] == 230
        assert stats["hits"] == 444 - 230


# --------------------------------------------------------------------------- #
# worker processes
# --------------------------------------------------------------------------- #
class TestWorkerScope:
    @pytest.mark.parametrize("order", [("LB001", "LB009"),
                                       ("LB009", "LB001")])
    def test_pool_cell_clears_artifacts_after_each_task(
        self, lb_tests, order
    ):
        """Which cells share a worker depends on scheduling, so a worker
        keeps no artifact past its task: two cells with one program
        simulate it twice, in either order.  Each task here is its
        test's first cell, so it ships no source and hands the source
        simulation back beside its record."""
        profile = parse_profile(PROFILE)
        plan = CampaignPlan(tests=[])
        cache = engine._WORKER_TOOLCHAIN.cache
        before = cache.misses("simulate-target")
        for name in order:
            record, landed = engine._pool_cell((
                lb_tests[name], profile.arch, profile.opt, profile.compiler,
                plan.source_model, plan.augment, plan.budget_candidates,
                None,
            ))
            assert record["status"] == "ok" and record["test"] == name
            assert landed.test_name == name
            assert all(
                stage["entries"] == 0 for stage in cache.stats().values()
            )
        assert cache.misses("simulate-target") == before + 2
        assert engine._WORKER_SOURCE_CACHES == {}

    def test_pool_cell_with_shipped_source_simulates_no_source(
        self, lb_tests, monkeypatch
    ):
        """A cell shipped its test's cached source simulation evaluates
        against it: no source simulation runs in the worker, none is
        handed back, and the record matches the first cell's."""
        profile = parse_profile(PROFILE)
        plan = CampaignPlan(tests=[])
        task = (
            lb_tests["LB001"], profile.arch, profile.opt, profile.compiler,
            plan.source_model, plan.augment, plan.budget_candidates,
        )
        first, landed = engine._pool_cell(task + (None,))

        def no_simulation(*args, **kwargs):
            raise AssertionError("the shipped source was re-simulated")

        monkeypatch.setattr(engine, "simulate_c", no_simulation)
        again, nothing = engine._pool_cell(task + (landed,))
        assert nothing is None
        assert baseline_view(again) == baseline_view(first)
