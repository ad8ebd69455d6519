#!/usr/bin/env python3
"""Regression testing, the way the paper deploys it at Arm (§IV-F).

Two industry flows on top of the same tool-chain:

1. **Nightly differential campaign** (paper Table IV, scaled): a diy
   suite crossed with compilers × flags × architectures; the per-cell
   positive/negative counts form the regression dashboard.

2. **Evaluating a code-generation proposal** (the Google LDAPR query
   [57]): compile the acquire suite with the proposed mapping, compare
   outcomes against the C/C++ oracle — accept if no positive differences
   appear.

Run:  python examples/regression_campaign.py
"""

from repro.api import CampaignPlan, CellFinished, Session
from repro.core.events import MemoryOrder
from repro.tools.diy import DiyConfig, generate


def nightly_campaign() -> None:
    print("== nightly differential campaign (Table IV, scaled) ==\n")
    config = DiyConfig(
        shapes=("MP", "LB", "SB", "S", "R"),
        orders=("rlx",),
        fences=(None, MemoryOrder.SC),
        deps=("po", "data", "ctrl2"),
        variants=("load-store",),
    )
    # one session for the whole nightly run: its toolchain's artifact
    # cache simulates each test's source side once per source model,
    # whichever worker process evaluates the test's cells
    session = Session()
    plan = CampaignPlan(
        config=config,
        arches=("aarch64", "armv7", "riscv64", "ppc64", "x86_64", "mips64"),
        opts=("-O1", "-O2"),
        compilers=("llvm", "gcc"),
        source_model="rc11",
        processes=2,
    )
    # consume the event stream live — a dashboard would ingest these;
    # stream.report() folds whatever ran into the batch Table IV
    stream = session.campaign(plan)
    first_bug = None
    for event in stream:
        if (first_bug is None and isinstance(event, CellFinished)
                and event.verdict == "positive"):
            first_bug = event
            print(f"first positive streamed in: {event.test} "
                  f"{event.compiler}{event.opt} -> {event.arch}\n")
    report = stream.report()
    print(report.table())
    print(f"\nsource simulations: {report.source_simulations} "
          f"for {report.compiled_tests} cells "
          f"({report.processes} worker processes)")
    print("\npositives drill-down (first 8):")
    for test, arch, opt, compiler in report.positives[:8]:
        print(f"  {test:12s} {compiler}{opt} -> {arch}")
    print("\nre-run under rc11+lb (ISO C/C++ permits load buffering):")
    relaxed = session.run(
        CampaignPlan(
            config=config,
            arches=("aarch64", "armv7", "riscv64", "ppc64"),
            opts=("-O1", "-O2"),
            compilers=("llvm", "gcc"),
            source_model="rc11+lb",
            processes=2,
        )
    )
    print(f"  positive differences: {relaxed.total_positive()} "
          "(all vanish — artefact Claim 4)")


def ldapr_proposal() -> None:
    print("\n== evaluating the LDAPR proposal (§IV-F, [57]) ==\n")
    suite = generate(DiyConfig(
        shapes=("MP", "LB", "SB", "S", "R"),
        orders=("ar",),
        fences=(None,),
        deps=("po", "data"),
        variants=("load-store",),
    ))
    from repro.compiler import make_profile

    session = Session()
    ldar = make_profile("llvm", "-O2", "aarch64", rcpc=False)
    ldapr = make_profile("llvm", "-O2", "aarch64", rcpc=True)
    positives = 0
    weaker = 0
    for litmus in suite:
        baseline = session.test(litmus, ldar)
        proposal = session.test(litmus, ldapr)
        if proposal.found_bug:
            positives += 1
        if (baseline.comparison.target_outcomes
                < proposal.comparison.target_outcomes):
            weaker += 1
    print(f"  acquire suite size          : {len(suite)}")
    print(f"  positive differences (LDAPR): {positives}")
    print(f"  tests with extra (allowed) outcomes: {weaker}")
    verdict = "ACCEPT" if positives == 0 else "REJECT"
    print(f"  proposal verdict            : {verdict} — matches the paper: "
          "Arm's compiler team accepted the change based on this testing")


if __name__ == "__main__":
    nightly_campaign()
    ldapr_proposal()
