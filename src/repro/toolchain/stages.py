"""The registered stage components of the test_tv tool-chain.

Each :class:`Stage` turns input artifacts into one output artifact and
contributes two things to the artifact's identity: its registry *name*
and its parameter *signature*.  The default six stages reproduce the
paper's Fig. 5 chain:

========  =====================================  =========================
name      maps                                   engine behind it
========  =====================================  =========================
prepare   SourceTest → PreparedSource            :func:`repro.tools.l2c.prepare`
compile   PreparedSource → CompiledObject        :func:`repro.tools.c2s.compile_and_disassemble`
lift      CompiledObject → TargetLitmus          :func:`repro.tools.s2l.assembly_to_litmus`
simulate-source  PreparedSource → OutcomeSet     :func:`repro.herd.simulator.simulate_c`
simulate-target  TargetLitmus → OutcomeSet       :func:`repro.herd.simulator.simulate_asm`
compare   OutcomeSet × OutcomeSet → Verdict      :func:`repro.tools.mcompare.mcompare`
========  =====================================  =========================

Stages live in the :data:`STAGES` registry (the shared
:class:`repro.core.registry.Registry` protocol), so embedders can swap a
custom compiler driver, disassembler or comparator per session —
``session.stages.register("compile", MyCompileStage())`` — without
touching process-global state.  A replacement stage that computes
something different should return a different :meth:`Stage.signature`
(e.g. include a version string) so its artifacts never collide with the
stock ones in a shared cache.
"""

from __future__ import annotations

import time
from typing import Optional, Union

from ..cat.interp import Model
from ..core.errors import ReproError
from ..core.registry import Registry
from ..herd.enumerate import Budget
from ..herd.simulator import simulate_asm, simulate_c
from ..tools.c2s import compile_and_disassemble
from ..tools.l2c import prepare as l2c_prepare
from ..tools.mcompare import mcompare
from ..tools.s2l import S2LStats, assembly_to_litmus
from .artifacts import (
    CompiledObject,
    OutcomeSet,
    PreparedSource,
    SourceTest,
    TargetLitmus,
    Verdict,
    budget_signature,
    make_key,
)


class Stage:
    """Base class of tool-chain stages.

    Subclasses set :attr:`name`, implement :meth:`run` (and usually
    :meth:`signature`).  ``run`` receives the input artifacts plus the
    stage's resolved parameters and returns the produced artifact —
    construction of the artifact (key derivation included) is the
    stage's job, via the ``key`` the toolchain hands it.
    """

    name = "stage"

    def signature(self, **params) -> str:
        """A canonical rendering of the parameters that change the
        output.  The default renders everything sorted by name; stages
        with non-trivially-printable parameters override this."""
        return "|".join(f"{k}={params[k]!r}" for k in sorted(params))

    def run(self, key: str, **params):
        raise NotImplementedError


class PrepareStage(Stage):
    """l2c: local-variable augmentation (paper §IV-B)."""

    name = "prepare"

    def signature(self, *, augment: bool = True) -> str:
        return f"augment={int(bool(augment))}"

    def run(self, key: str, *, source: SourceTest, augment: bool = True):
        start = time.perf_counter()
        prepared = l2c_prepare(source.litmus, augment=augment)
        return PreparedSource(
            key=key,
            stage=self.name,
            inputs=(source.key,),
            seconds=time.perf_counter() - start,
            litmus=prepared,
            augmented=bool(augment),
        )


class CompileStage(Stage):
    """c2s: compile with a profile and disassemble the object file."""

    name = "compile"

    def signature(self, *, profile) -> str:
        from .artifacts import profile_signature

        return profile_signature(profile)

    def run(self, key: str, *, prepared: PreparedSource, profile):
        start = time.perf_counter()
        c2s = compile_and_disassemble(prepared.litmus, profile)
        return CompiledObject(
            key=key,
            stage=self.name,
            inputs=(prepared.key,),
            seconds=time.perf_counter() - start,
            c2s=c2s,
            profile=profile,
        )


class LiftStage(Stage):
    """s2l: parse + bridge + (optionally) optimise into an asm litmus."""

    name = "lift"

    def signature(self, *, optimise: bool = True) -> str:
        return f"optimise={int(bool(optimise))}"

    def run(
        self,
        key: str,
        *,
        prepared: PreparedSource,
        compiled: CompiledObject,
        optimise: bool = True,
    ):
        start = time.perf_counter()
        stats = S2LStats()
        litmus = assembly_to_litmus(
            compiled.c2s.obj,
            prepared.litmus.condition,
            listing=compiled.c2s.listing,
            optimise=optimise,
            stats=stats,
        )
        return TargetLitmus(
            key=key,
            stage=self.name,
            inputs=(compiled.key,),
            seconds=time.perf_counter() - start,
            litmus=litmus,
            stats=stats,
            optimised=bool(optimise),
        )


class SimulateSourceStage(Stage):
    """herd(S′, M_S): enumerate the source test under the C/C++ model."""

    name = "simulate-source"

    def signature(
        self,
        *,
        model_sig: str,
        unroll: int = 2,
        budget: Optional[Budget] = None,
        keep_executions: bool = False,
    ) -> str:
        return "|".join(
            (model_sig, f"unroll={unroll}", budget_signature(budget),
             f"exec={int(bool(keep_executions))}")
        )

    def run(
        self,
        key: str,
        *,
        prepared: PreparedSource,
        model: Union[str, Model],
        unroll: int = 2,
        budget: Optional[Budget] = None,
        keep_executions: bool = False,
    ):
        result = simulate_c(
            prepared.litmus, model, unroll=unroll, budget=budget,
            keep_executions=keep_executions,
        )
        return OutcomeSet(
            key=key,
            stage=self.name,
            inputs=(prepared.key,),
            seconds=result.elapsed_seconds,
            result=result,
            side="source",
        )


class SimulateTargetStage(Stage):
    """herd(C, M_C): enumerate the compiled test under the arch model.

    Its input is the lifted program's content digest
    (:meth:`AsmLitmus.digest`), not the lift artifact's key: the
    simulation depends on the program alone, so every test that compiles
    to the same program shares one outcome set.
    """

    name = "simulate-target"

    def signature(
        self,
        *,
        model_sig: str,
        budget: Optional[Budget] = None,
        keep_executions: bool = False,
    ) -> str:
        return "|".join(
            (model_sig, budget_signature(budget),
             f"exec={int(bool(keep_executions))}")
        )

    def run(
        self,
        key: str,
        *,
        target: TargetLitmus,
        model: Optional[Union[str, Model]] = None,
        budget: Optional[Budget] = None,
        keep_executions: bool = False,
    ):
        result = simulate_asm(
            target.litmus, model, budget=budget,
            keep_executions=keep_executions,
        )
        return OutcomeSet(
            key=key,
            stage=self.name,
            inputs=(target.litmus.digest(),),
            seconds=result.elapsed_seconds,
            result=result,
            side="target",
        )


class CompareStage(Stage):
    """mcompare: classify target outcomes against source outcomes."""

    name = "compare"

    def signature(self) -> str:
        return ""

    def run(
        self,
        key: str,
        *,
        left: OutcomeSet,
        right: OutcomeSet,
        prepared: PreparedSource,
    ):
        start = time.perf_counter()
        comparison = mcompare(
            left.result,
            right.result,
            shared_locations=list(prepared.litmus.init),
            condition_observables=prepared.litmus.condition.observables(),
        )
        return Verdict(
            key=key,
            stage=self.name,
            inputs=(left.key, right.key),
            seconds=time.perf_counter() - start,
            comparison=comparison,
        )


#: the global stage registry; sessions overlay it (``STAGES.overlay()``)
#: to swap stages privately.
STAGES: Registry[Stage] = Registry("toolchain stage", error=ReproError)
STAGES.register(PrepareStage.name, PrepareStage(),
                doc="l2c local-variable augmentation (paper §IV-B)")
STAGES.register(CompileStage.name, CompileStage(),
                doc="c2s compile + disassemble (paper Fig. 6 step 3)")
STAGES.register(LiftStage.name, LiftStage(), aliases=("s2l",),
                doc="s2l parse/bridge/optimise (paper §III, §IV-E)")
STAGES.register(SimulateSourceStage.name, SimulateSourceStage(),
                doc="herd(S′, M_S) source-side enumeration")
STAGES.register(SimulateTargetStage.name, SimulateTargetStage(),
                doc="herd(C, M_C) target-side enumeration")
STAGES.register(CompareStage.name, CompareStage(), aliases=("mcompare",),
                doc="mcompare outcome-set classification (paper def. II.2)")

# make_key is re-exported here because custom stages need it to mint
# their artifact identities the same way the stock ones do
__all__ = [
    "STAGES",
    "Stage",
    "PrepareStage",
    "CompileStage",
    "LiftStage",
    "SimulateSourceStage",
    "SimulateTargetStage",
    "CompareStage",
    "make_key",
]
