#!/usr/bin/env python3
"""Hardware vs models: why T´el´echat replaced silicon with simulation.

Reproduces the paper's §IV-A comparison with C4: the same Fig. 7
load-buffering test is checked (a) on simulated silicon the way the
litmus tool + C4 would, across several chips and seeds, and (b) under the
official AArch64 model the way T´el´echat does.  In-order silicon — the
Raspberry Pi class C4 tested on — can never exhibit the behaviour, so C4
misses it; the model always allows it, so T´el´echat always finds it.

Run:  python examples/hardware_vs_models.py
"""

from repro.baselines import c4_test
from repro.compiler import make_profile
from repro.hw import get_chip, list_chips, run_on_hardware
from repro.papertests import fig7_lb
from repro.toolchain import Toolchain
from repro.tools import assembly_to_litmus, compile_and_disassemble, prepare


def main() -> None:
    litmus = fig7_lb()
    profile = make_profile("llvm", "-O3", "aarch64")

    print("== the litmus-on-hardware view ==")
    prepared = prepare(litmus)
    c2s = compile_and_disassemble(prepared, profile)
    compiled = assembly_to_litmus(c2s.obj, prepared.condition, listing=c2s.listing)
    for name in ("raspberry-pi", "apple-a9", "thunderx2"):
        chip = get_chip(name)
        result = run_on_hardware(compiled, chip, runs=400, seed=7, stress=True)
        lb_seen = any(
            o.as_dict().get("out_P0_r0") == 1 and o.as_dict().get("out_P1_r0") == 1
            for o in result.observed
        )
        print(f"\n{chip.name}: {chip.description}")
        print(f"  400 stressed runs -> {len(result.observed)} distinct outcomes; "
              f"LB outcome seen: {lb_seen}; "
              f"architecturally-allowed outcomes missed: {len(result.missed)}")

    print("\n== C4 (testC4: hardware outcomes vs source model) ==")
    for name in ("raspberry-pi", "apple-a9"):
        for seed in (1, 2):
            result = c4_test(litmus, profile, chip=name, runs=400,
                             seed=seed, stress=True)
            print(f"  chip={name:13s} seed={seed}: "
                  f"{'BUG FOUND' if result.found_bug else 'nothing found'}")

    print("\n== T´el´echat (test_tv: model outcomes vs source model) ==")
    for run in (1, 2):
        result = Toolchain().run_tv(litmus, profile)
        print(f"  run {run}: verdict={result.verdict} "
              f"({len(result.comparison.positive)} new outcome(s)) "
              f"— identical every time, on any machine")

    print("\nConclusion (paper Table II): moving the compiled-test")
    print("environment from silicon to the architecture model buys")
    print("determinism and coverage up to the enumeration bounds.")


if __name__ == "__main__":
    main()
