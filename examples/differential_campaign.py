#!/usr/bin/env python3
"""First-class differential campaigns (paper §IV-D) on the staged toolchain.

Differential testing compares two *compilations* of the same source —
``gcc -O1`` vs ``gcc -O2``, or clang vs gcc — under their architecture
model.  A difference between compilers is a compatibility risk: code
from both is routinely linked together.  Three flows below:

1. **One test, two profiles** — ``Session.differential`` with the full
   drill-down (verdict, outcome sets, per-branch s2l stats).
2. **A differential campaign** — ``CampaignPlan(mode="differential")``
   streams through the same engine, events, store and CLI as the
   Table IV campaigns.  The demo reproduces the §IV-D Armv7 finding:
   GCC at ``-O1`` deletes the both-arms control dependency (``ctrl2``),
   so ``-O1`` code exhibits a load-buffering outcome ``-O2`` forbids.
3. **Artifact reuse** — the per-stage cache compiles each (test,
   profile) exactly once; a second campaign under another source model
   reuses every compiled litmus.

Run:  python examples/differential_campaign.py
"""

from repro.api import CampaignPlan, CellFinished, Session
from repro.core.events import MemoryOrder
from repro.tools.diy import DiyConfig


def one_pair() -> None:
    print("== one test, two profiles ==\n")
    session = Session()
    from repro.papertests import fig7_lb

    result = session.differential(
        fig7_lb(), "llvm-O1-AArch64", "llvm-O3-AArch64"
    )
    print(f"{result.test_name}: {result.profile_pair} -> {result.verdict}")
    print(f"  branch a: {len(result.comparison.source_outcomes)} outcomes, "
          f"{result.stats_a.total_removed} instructions removed by s2l")
    print(f"  branch b: {len(result.comparison.target_outcomes)} outcomes, "
          f"{result.stats_b.total_removed} instructions removed by s2l")
    print(f"  artifacts: {sorted(result.artifacts)}\n")


def armv7_ctrl_campaign() -> Session:
    print("== differential campaign: the §IV-D Armv7 control-dependency "
          "finding ==\n")
    config = DiyConfig(
        shapes=("LB", "MP", "SB"),
        orders=("rlx",),
        fences=(None, MemoryOrder.SC),
        deps=("po", "ctrl2"),
        variants=("load-store",),
    )
    session = Session()
    # branch a is the reference side: put -O2 first so the extra
    # behaviour of the dependency-dropping -O1 shows up as *positive*
    plan = CampaignPlan(
        config=config,
        mode="differential",
        profiles=("gcc-O2-ARM", "gcc-O1-ARM"),
    )
    stream = session.campaign(plan)
    for event in stream:
        if isinstance(event, CellFinished) and event.verdict == "positive":
            print(f"  difference: {event.test} under {event.compiler}")
    report = stream.report()
    print()
    print(report.table())
    print()
    return session


def artifact_reuse(session: Session) -> None:
    print("== per-stage artifact reuse across a model sweep ==\n")
    stats = session.toolchain().cache.stats()
    before = stats["compile"]["misses"]
    print(f"compiles so far: {before} "
          f"(hits: {stats['compile']['hits']})")
    plan = CampaignPlan(
        config=DiyConfig(shapes=("LB", "MP", "SB"), orders=("rlx",),
                         fences=(None, MemoryOrder.SC),
                         deps=("po", "ctrl2"), variants=("load-store",)),
        mode="differential",
        profiles=("gcc-O2-ARM", "gcc-O1-ARM"),
    ).with_model("rc11+lb")  # the Claim 4 re-run
    session.campaign(plan).report()
    stats = session.toolchain().cache.stats()
    print(f"after the rc11+lb re-run: {stats['compile']['misses']} compiles "
          f"(unchanged: every compiled litmus was reused), "
          f"{stats['compile']['hits']} cache hits")


def main() -> None:
    one_pair()
    session = armv7_ctrl_campaign()
    artifact_reuse(session)


if __name__ == "__main__":
    main()
