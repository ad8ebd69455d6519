"""The T´el´échat driver: the ``test_tv`` environment of paper Fig. 5.

One call to :func:`run_test_tv` runs the whole tool-chain on one test
and one compiler profile::

    S ──l2c──> S′ ──c2s──> O ──s2l──> C
    herd(S′, M_S)  ⊇?  herd(C, M_C)          (mcompare)

Since the toolchain redesign this module is a thin composition layer:
the chain itself lives in :mod:`repro.toolchain` as typed, individually
cached stages, and both entry points here — :func:`run_test_tv` and
:func:`differential_outcomes` — build on the same
:class:`~repro.toolchain.Toolchain` graph.  The historical result and
serialisation types (:class:`TelechatResult`,
:func:`outcomes_to_jsonable`, …) are re-exported from
:mod:`repro.toolchain.results` unchanged.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from ..cat.interp import Model
from ..herd.enumerate import Budget
from ..herd.simulator import SimulationResult
from ..lang.ast import CLitmus
from ..compiler.profiles import CompilerProfile
from ..toolchain.chain import Toolchain
from ..toolchain.results import (  # noqa: F401  (re-exports: the store/tests import these from here)
    DifferentialResult,
    TelechatResult,
    comparison_from_record,
    outcomes_from_jsonable,
    outcomes_to_jsonable,
)
from ..tools.mcompare import ComparisonResult


def run_test_tv(
    litmus: CLitmus,
    profile: CompilerProfile,
    source_model: Union[str, Model] = "rc11",
    target_model: Optional[Union[str, Model]] = None,
    augment: bool = True,
    optimise: bool = True,
    unroll: int = 2,
    budget: Optional[Budget] = None,
    source_result: Optional[SimulationResult] = None,
    toolchain: Optional[Toolchain] = None,
) -> TelechatResult:
    """Run test_tv on one C litmus test under one compiler profile.

    This is the engine entry point behind :meth:`repro.api.Session.test`
    — prefer the session, which resolves models and profiles against
    per-session registries and owns the caches.

    Args:
        litmus: the C litmus test ``S`` (step 1 of Fig. 5).
        profile: the compiler-under-test configuration.
        source_model: the C/C++ oracle (``rc11`` by default; ``rc11+lb``
            reproduces the paper's Claim 4 re-run).
        target_model: the architecture model; defaults to the official
            model registered for the profile's architecture.
        augment: apply the §IV-B local-variable augmentation.
        optimise: apply the §IV-E s2l optimisations (disable to reproduce
            the non-terminating Fig. 11 configuration — bring a budget).
        unroll: loop unroll factor for source simulation.
        budget: enumeration budget for both simulations.
        source_result: a pre-computed source-side simulation of this test
            under ``source_model`` (the campaign runner hoists S′
            simulation out of its per-cell loop and passes it here, so
            each test's source side is simulated once per source model,
            not once per cell).
        toolchain: the staged :class:`~repro.toolchain.Toolchain` to run
            over — sessions pass theirs so per-stage artifacts (compiled
            litmus tests, outcome sets) are reused across calls, models
            and differential pairs.  ``None`` runs over a private
            throwaway chain (the historical uncached behaviour).
    """
    chain = toolchain if toolchain is not None else Toolchain()
    return chain.run_tv(
        litmus,
        profile,
        source_model=source_model,
        target_model=target_model,
        augment=augment,
        optimise=optimise,
        unroll=unroll,
        budget=budget,
        source_result=source_result,
    )


def run_differential(
    litmus: CLitmus,
    profile_a: CompilerProfile,
    profile_b: CompilerProfile,
    source_model: Optional[Union[str, Model]] = None,
    target_model: Optional[Union[str, Model]] = None,
    augment: bool = True,
    optimise: bool = True,
    unroll: int = 2,
    budget: Optional[Budget] = None,
    source_result: Optional[SimulationResult] = None,
    toolchain: Optional[Toolchain] = None,
) -> DifferentialResult:
    """Differential testing (paper §IV-D) over the staged toolchain:
    two compile→lift→simulate branches joined at one compare stage.

    The engine entry point behind ``CampaignPlan(mode="differential")``
    and :meth:`repro.api.Session.differential`.  ``source_model``
    switches on the C-source undefined-behaviour oracle (racy sources
    excuse the difference, verdict ``ub-masked``).
    """
    chain = toolchain if toolchain is not None else Toolchain()
    return chain.run_differential(
        litmus,
        profile_a,
        profile_b,
        source_model=source_model,
        target_model=target_model,
        augment=augment,
        optimise=optimise,
        unroll=unroll,
        budget=budget,
        source_result=source_result,
    )


# the name matches pytest's default collection pattern; this is a library
# entry point, not a test
run_test_tv.__test__ = False  # type: ignore[attr-defined]


def differential_outcomes(
    litmus: CLitmus,
    profile_a: CompilerProfile,
    profile_b: CompilerProfile,
    augment: bool = True,
    budget: Optional[Budget] = None,
    optimise: bool = True,
    unroll: int = 2,
    source_model: Optional[Union[str, Model]] = None,
    target_model: Optional[Union[str, Model]] = None,
    toolchain: Optional[Toolchain] = None,
) -> Tuple[SimulationResult, SimulationResult, ComparisonResult]:
    """Differential testing, legacy tuple shape (see :func:`run_differential`).

    A difference between compilers is a *compatibility* risk: code from
    both is routinely linked together.

    Historically this hand-rolled its own chain and silently dropped the
    ``optimise``/``stats`` arguments of ``assembly_to_litmus`` (and never
    exposed ``unroll``/``source_model``), so differential runs exercised
    a different s2l path than single-profile runs.  It is now the same
    :meth:`Toolchain.run_differential` composition, so both paths produce
    identical compiled litmus tests for the same profile.
    """
    result = run_differential(
        litmus,
        profile_a,
        profile_b,
        source_model=source_model,
        target_model=target_model,
        augment=augment,
        optimise=optimise,
        unroll=unroll,
        budget=budget,
        toolchain=toolchain,
    )
    return result.result_a, result.result_b, result.comparison
