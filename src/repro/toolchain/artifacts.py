"""Typed artifacts of the test_tv tool-chain (paper Fig. 5).

The chain ``S ──l2c──> S′ ──c2s──> O ──s2l──> C`` plus the two herd
simulations and the mcompare verdict used to live as locals inside one
monolithic function; each intermediate product is now a first-class,
*content-addressed* artifact:

    SourceTest → PreparedSource → CompiledObject → TargetLitmus
                               ↘ OutcomeSet (source)   ↓
                                          OutcomeSet (target) → Verdict

An artifact's :attr:`~Artifact.key` is derived from the producing stage's
name, its parameter signature, and the keys of its input artifacts — so
identity flows through the derivation chain from the source test's
content digest (``simulate-target`` re-roots at the lifted program's own
digest, so tests that compile alike share it).  Two calls that would
compute the same artifact share one key no matter which session, thread
or worker process asks, which is what makes the per-stage cache
(:mod:`repro.toolchain.cache`) sound: a re-check under a *new target
model* reuses the compiled litmus (same compile/lift keys), and the two
branches of a differential run share one ``prepare`` artifact.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from ..asm.litmus import AsmLitmus, total_instructions
from ..cat.interp import Model
from ..cat.registry import MODELS, model_signature
from ..compiler.profiles import CompilerProfile
from ..core.registry import Registry
from ..herd.enumerate import Budget
from ..herd.simulator import SimulationResult
from ..lang.ast import CLitmus
from ..lang.printer import print_c_litmus
from ..tools.c2s import C2SResult
from ..tools.mcompare import ComparisonResult
from ..tools.s2l import S2LStats


# --------------------------------------------------------------------------- #
# identity helpers
# --------------------------------------------------------------------------- #
def make_key(stage: str, signature: str, inputs: Tuple[str, ...] = ()) -> str:
    """The content address of one stage invocation.

    Deterministic across threads, processes and machines: every part is
    itself a content digest or a canonical parameter rendering, so the
    key can serve as a cross-process cache/store identity.
    """
    payload = "\x1f".join((stage, signature) + tuple(inputs))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def profile_signature(profile: CompilerProfile) -> str:
    """Everything about a compiler profile that can change its output.

    The profile *name* carries no version and no bug set — a session that
    re-registers an epoch must not replay artifacts compiled under the
    old bug set — so the signature spells them all out.
    """
    return "|".join(
        (
            profile.compiler,
            str(profile.version),
            profile.opt,
            profile.arch,
            "+".join(sorted(profile.bug_flags)),
            f"lse={int(profile.lse)}",
            f"rcpc={int(profile.rcpc)}",
            f"v84={int(profile.v84)}",
            f"pic={int(profile.pic)}",
        )
    )


def budget_signature(budget: Optional[Budget]) -> str:
    """Budgets bound the work a simulation may do, so they are part of a
    simulation artifact's identity (a result computed under a tight
    budget must not answer for an unbudgeted run)."""
    if budget is None:
        return "none"
    return f"{budget.max_candidates}|{budget.deadline_seconds}"


def model_key(
    model: Union[str, Model], registry: Optional[Registry] = None
) -> str:
    """A content digest of the model — what it *resolves to*, not what it
    is called (the PR 2 cache-identity rule)."""
    name = model.name if isinstance(model, Model) else model
    registry = registry if registry is not None else MODELS
    try:
        return model_signature(name, registry)
    except Exception:
        # a Model instance built outside any registry: its name is the
        # only identity we have (documented limitation — register the
        # model in the session to get content identity)
        return hashlib.sha256(f"model:{name}".encode()).hexdigest()[:16]


# --------------------------------------------------------------------------- #
# the artifact types
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Artifact:
    """One node of the tool-chain's artifact graph.

    ``key`` is the content address (see :func:`make_key`); ``inputs``
    holds the keys of the artifacts this one was derived from, making the
    provenance graph walkable; ``seconds`` is the wall-clock the original
    production took (cache replays keep it — it is the artifact's cost,
    not the lookup's).
    """

    key: str
    stage: str
    inputs: Tuple[str, ...] = ()
    seconds: float = 0.0

    def summary(self) -> str:
        """One line for progress logs and ``CellFinished.artifacts``."""
        return f"{self.stage}:{self.key}"

    def render(self) -> str:
        """A human-readable dump for ``repro explain`` (overridden)."""
        return self.summary()


@dataclass(frozen=True)
class SourceTest(Artifact):
    """``S`` — the input C litmus test."""

    litmus: CLitmus = None  # type: ignore[assignment]

    def render(self) -> str:
        return print_c_litmus(self.litmus)


@dataclass(frozen=True)
class PreparedSource(Artifact):
    """``S′`` — the l2c output (locals persisted into ``out_*`` globals)."""

    litmus: CLitmus = None  # type: ignore[assignment]
    augmented: bool = True

    def render(self) -> str:
        return print_c_litmus(self.litmus)


@dataclass(frozen=True)
class CompiledObject(Artifact):
    """``O`` — the relocatable object file plus its disassembly."""

    c2s: C2SResult = None  # type: ignore[assignment]
    profile: CompilerProfile = None  # type: ignore[assignment]

    def render(self) -> str:
        lines = [f"; compiled with {self.profile.name} "
                 f"(v{self.profile.version})"]
        for thread, listing in sorted(self.c2s.listing.items()):
            lines.append(f"{thread}:")
            lines.extend(f"  {line}" for line in listing)
        return "\n".join(lines)


@dataclass(frozen=True)
class TargetLitmus(Artifact):
    """``C`` — the lifted (and, by default, s2l-optimised) asm litmus."""

    litmus: AsmLitmus = None  # type: ignore[assignment]
    stats: S2LStats = None  # type: ignore[assignment]
    optimised: bool = True

    @property
    def instructions(self) -> int:
        return total_instructions(self.litmus)

    def render(self) -> str:
        header = (
            f"; s2l: {self.stats.parsed_instructions} parsed, "
            f"{self.stats.total_removed} removed "
            f"({'optimised' if self.optimised else 'raw'})"
        )
        return header + "\n" + self.litmus.pretty()


@dataclass(frozen=True)
class OutcomeSet(Artifact):
    """``herd(·, M)`` — the allowed outcomes of one simulation."""

    result: SimulationResult = None  # type: ignore[assignment]
    side: str = "source"  # "source" | "target"

    def render(self) -> str:
        lines = [
            f"{self.side} outcomes under {self.result.model_name} "
            f"({len(self.result.outcomes)} allowed"
            + (f", flags: {', '.join(sorted(self.result.flags))}"
               if self.result.flags else "")
            + "):"
        ]
        lines.extend(
            f"  {o}" for o in sorted(
                self.result.outcomes, key=lambda o: o.bindings
            )
        )
        if self.result.executions:
            from ..herd.dot import simulation_to_dot

            lines.append("")
            lines.append(simulation_to_dot(
                self.result.executions,
                name=f"{self.side}_executions",
            ))
        return "\n".join(lines)


@dataclass(frozen=True)
class Verdict(Artifact):
    """The mcompare classification of two outcome sets."""

    comparison: ComparisonResult = None  # type: ignore[assignment]

    @property
    def verdict(self) -> str:
        return self.comparison.verdict()

    def render(self) -> str:
        return self.comparison.pretty()


def artifact_keys(*artifacts: Artifact) -> Dict[str, str]:
    """The ``{stage: key}`` projection events and records carry — small,
    deterministic, and enough to correlate a verdict with the cached
    artifacts that produced it."""
    return {a.stage: a.key for a in artifacts if a is not None}
