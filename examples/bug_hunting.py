#!/usr/bin/env python3
"""Bug hunting: reproduce the paper's §IV-B/§IV-C bug reports.

Runs the Fig. 1 / Fig. 10 / 128-bit bug studies across compiler epochs —
the same experiments the paper used to report LLVM issues 68428, 62652,
61431 and 61770 and validate their fixes.

Run:  python examples/bug_hunting.py
"""

from repro.compiler import bugs, make_profile
from repro.lang.parser import parse_c_litmus
from repro.papertests import atomics_128, fig1_exchange, fig10_mp_rmw
from repro.toolchain import Toolchain

STP_ENDIAN = """
C stp_endian
{ *x = 0; }
void P0(atomic_int128* x) { atomic_store_explicit(x, 1, memory_order_relaxed); }
void P1(atomic_int128* x) { __int128 r0 = atomic_load_explicit(x, memory_order_relaxed); }
exists (P1:r0=1)
"""

CONST_LOAD = """
C const_load
{ const *c = 5; }
void P0(atomic_int128* c) { __int128 r0 = atomic_load_explicit(c, memory_order_seq_cst); }
exists (P0:r0=5)
"""


def report(title, litmus, profiles, extra=None):
    print(f"\n== {title} ==")
    for label, profile in profiles:
        result = Toolchain().run_tv(litmus, profile)
        line = f"  {label:24s} -> {result.verdict}"
        if extra:
            line += f"   {extra(result)}"
        print(line)
        if result.found_bug:
            for outcome in sorted(result.comparison.positive,
                                  key=lambda o: o.bindings):
                print(f"      forbidden-by-source outcome observed: {outcome}")


def main() -> None:
    print("T´el´echat bug-finding campaign (paper §IV-B / §IV-C)")

    report(
        "Fig. 1: atomic_exchange reorders past acquire fence [LLVM #68428]",
        fig1_exchange(),
        [
            ("llvm-16 -O2 (reported)", make_profile("llvm", "-O2", "aarch64", version=16)),
            ("llvm-17 -O2 (fixed)", make_profile("llvm", "-O2", "aarch64", version=17)),
        ],
    )

    report(
        "Fig. 10: unused fetch_add -> STADD/LDADD-xzr [LLVM 35094, GCC LSE]",
        fig10_mp_rmw(),
        [
            ("llvm-11 -O2 (past)", make_profile("llvm", "-O2", "aarch64", version=11)),
            ("gcc-9 -O2 (past)", make_profile("gcc", "-O2", "aarch64", version=9)),
            ("llvm-16 -O2 (latest)", make_profile("llvm", "-O2", "aarch64", version=16)),
            ("gcc-12 -O2 (latest)", make_profile("gcc", "-O2", "aarch64", version=12)),
        ],
    )

    report(
        "128-bit seq_cst load via bare LDP (Armv8.4) [LLVM #62652]",
        atomics_128(),
        [
            ("llvm-16 v8.4 (reported)", make_profile("llvm", "-O2", "aarch64", version=16, v84=True)),
            ("llvm-17 v8.4 (fixed)", make_profile("llvm", "-O2", "aarch64", version=17, v84=True)),
        ],
    )

    report(
        "128-bit store wrong-endian [LLVM #61431]",
        parse_c_litmus(STP_ENDIAN, "stp_endian"),
        [
            ("llvm-16 v8.4 (reported)", make_profile("llvm", "-O2", "aarch64", version=16, v84=True)),
            ("llvm-17 v8.4 (fixed)", make_profile("llvm", "-O2", "aarch64", version=17, v84=True)),
        ],
    )

    print("\n== 128-bit const atomic load crash [LLVM #61770] ==")
    for label, profile in [
        ("llvm-16 v8.0", make_profile("llvm", "-O2", "aarch64", version=16, v84=False)),
        ("llvm-11 v8.4 (pre-fix)", make_profile("llvm", "-O2", "aarch64", version=11, v84=True)),
        ("llvm-17 v8.4 (fixed)", make_profile("llvm", "-O2", "aarch64", version=17, v84=True)),
    ]:
        result = Toolchain().run_tv(
            parse_c_litmus(CONST_LOAD, "const_load"), profile
        )
        crash = result.target_result.has_const_violation
        print(f"  {label:24s} -> {'RUN-TIME CRASH (write to .rodata)' if crash else 'clean'}")

    print("\nBug flags carried by each modelled epoch:")
    for compiler, version in (("llvm", 11), ("llvm", 16), ("gcc", 9), ("gcc", 12)):
        profile = make_profile(compiler, "-O2", "aarch64", version=version)
        flags = ", ".join(sorted(profile.bug_flags)) or "(none)"
        print(f"  {compiler}-{version}: {flags}")


if __name__ == "__main__":
    main()
