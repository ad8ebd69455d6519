"""Tests for code generation: atomics mappings, PIC/spill traffic, bugs."""

import pytest

from repro.asm import get_isa
from repro.compiler import (
    compile_program,
    disassemble,
    link_layout,
    lower,
    make_profile,
)
from repro.compiler import bugs
from repro.core.errors import CompilationError
from repro.lang import parse_c_litmus
from repro.papertests import fig1_exchange, fig7_lb, fig10_mp_rmw
from repro.tools.l2c import prepare


def compile_text(litmus, profile):
    """Compiled mnemonics per thread as a single lowercase string."""
    unit = compile_program(lower(litmus), profile)
    isa = get_isa(profile.arch)
    return {
        t.name: " ; ".join(isa.print_instruction(i) for i in t.instructions).lower()
        for t in unit.threads
    }


MP_ORDERS = """
C mp_orders
{ *x = 0; *y = 0; }
void P0(atomic_int* y, atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_release);
  atomic_store_explicit(y, 1, memory_order_seq_cst);
}
void P1(atomic_int* y, atomic_int* x) {
  int r0 = atomic_load_explicit(y, memory_order_acquire);
  int r1 = atomic_load_explicit(x, memory_order_seq_cst);
  atomic_store_explicit(y, r0, memory_order_relaxed);
}
exists (P1:r0=0)
"""

FENCES = """
C fences
{ *x = 0; }
void P0(atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_thread_fence(memory_order_acquire);
  atomic_thread_fence(memory_order_seq_cst);
}
exists (x=1)
"""

RMW = """
C rmw
{ *x = 0; }
void P0(atomic_int* x) {
  int r0 = atomic_fetch_add_explicit(x, 1, memory_order_acq_rel);
  atomic_store_explicit(x, r0, memory_order_relaxed);
}
exists (x=0)
"""


class TestAArch64Mapping:
    def test_acquire_load_is_ldar(self):
        text = compile_text(parse_c_litmus(MP_ORDERS), make_profile("llvm", "-O2", "aarch64"))
        assert "ldar" in text["P1"]

    def test_rcpc_uses_ldapr(self):
        profile = make_profile("llvm", "-O2", "aarch64", rcpc=True)
        text = compile_text(parse_c_litmus(MP_ORDERS), profile)
        assert "ldapr" in text["P1"]

    def test_seq_cst_load_still_ldar_under_rcpc(self):
        profile = make_profile("llvm", "-O2", "aarch64", rcpc=True)
        text = compile_text(parse_c_litmus(MP_ORDERS), profile)
        assert "ldar" in text["P1"]  # the seq_cst load of x

    def test_release_store_is_stlr(self):
        text = compile_text(parse_c_litmus(MP_ORDERS), make_profile("llvm", "-O2", "aarch64"))
        assert "stlr" in text["P0"]

    def test_fence_mnemonics(self):
        text = compile_text(parse_c_litmus(FENCES), make_profile("llvm", "-O2", "aarch64"))
        assert "dmb ishld" in text["P0"] and "dmb ish ;" in text["P0"] + " ;"

    def test_lse_rmw_is_single_instruction(self):
        text = compile_text(parse_c_litmus(RMW), make_profile("llvm", "-O2", "aarch64"))
        assert "ldaddal" in text["P0"]
        assert "ldxr" not in text["P0"]

    def test_no_lse_rmw_is_exclusive_loop(self):
        profile = make_profile("llvm", "-O2", "aarch64", lse=False)
        text = compile_text(parse_c_litmus(RMW), profile)
        assert "ldaxr" in text["P0"] and "stlxr" in text["P0"] and "cbnz" in text["P0"]


class TestStFormSelection:
    def test_buggy_epoch_emits_st_form(self):
        profile = make_profile("llvm", "-O2", "aarch64", version=11)
        text = compile_text(prepare(fig10_mp_rmw()), profile)
        assert "stadd" in text["P1"]

    def test_fixed_epoch_keeps_destination(self):
        profile = make_profile("llvm", "-O2", "aarch64", version=16)
        text = compile_text(prepare(fig10_mp_rmw()), profile)
        assert "stadd" not in text["P1"]
        assert "ldadd" in text["P1"]

    def test_fixed_epoch_uses_st_form_when_sound(self):
        """Relaxed unused RMW with no later acquire context: STADD is fine
        and current compilers do emit it."""
        source = """
C t
{ *x = 0; }
void P0(atomic_int* x) {
  atomic_fetch_add_explicit(x, 1, memory_order_relaxed);
}
exists (x=1)
"""
        profile = make_profile("llvm", "-O2", "aarch64", version=17)
        text = compile_text(parse_c_litmus(source), profile)
        assert "stadd" in text["P0"]

    def test_exchange_bug_epochs(self):
        buggy = make_profile("llvm", "-O2", "aarch64", version=16)
        fixed = make_profile("llvm", "-O2", "aarch64", version=17)
        assert "swpl w" in compile_text(prepare(fig1_exchange()), buggy)["P1"]
        fixed_text = compile_text(prepare(fig1_exchange()), fixed)["P1"]
        # fixed: SWP keeps a real destination register
        assert "swpl" in fixed_text and ", wzr," not in fixed_text


class TestOtherBackends:
    def test_armv7_brackets_with_dmb(self):
        text = compile_text(parse_c_litmus(MP_ORDERS), make_profile("llvm", "-O2", "armv7"))
        assert "dmb ish" in text["P0"] and "dmb ish" in text["P1"]
        assert "ldrex" not in text["P1"]  # plain loads, not exclusives

    def test_armv7_rmw_loop(self):
        text = compile_text(parse_c_litmus(RMW), make_profile("gcc", "-O2", "armv7"))
        assert "ldrex" in text["P0"] and "strex" in text["P0"]

    def test_x86_plain_movs(self):
        text = compile_text(parse_c_litmus(MP_ORDERS), make_profile("llvm", "-O2", "x86_64"))
        assert "mfence" not in text["P1"]  # loads need nothing on TSO

    def test_x86_seq_cst_store_llvm_vs_gcc(self):
        llvm = compile_text(parse_c_litmus(MP_ORDERS), make_profile("llvm", "-O2", "x86_64"))
        gcc = compile_text(parse_c_litmus(MP_ORDERS), make_profile("gcc", "-O2", "x86_64"))
        assert "xchg" in llvm["P0"]
        assert "mfence" in gcc["P0"]

    def test_x86_rmw(self):
        text = compile_text(parse_c_litmus(RMW), make_profile("llvm", "-O2", "x86_64"))
        assert "lock xadd" in text["P0"]

    def test_riscv_fences_and_amo(self):
        text = compile_text(parse_c_litmus(MP_ORDERS), make_profile("llvm", "-O2", "riscv64"))
        assert "fence r,rw" in text["P1"]
        text_rmw = compile_text(parse_c_litmus(RMW), make_profile("llvm", "-O2", "riscv64"))
        assert "amoadd.w.aqrl" in text_rmw["P0"]

    def test_ppc_sync_lwsync(self):
        text = compile_text(parse_c_litmus(MP_ORDERS), make_profile("gcc", "-O2", "ppc64"))
        assert "lwsync" in text["P0"] and "sync" in text["P0"]
        assert "lwarx" in compile_text(parse_c_litmus(RMW), make_profile("gcc", "-O2", "ppc64"))["P0"]

    def test_mips_brackets_every_atomic_in_sync(self):
        text = compile_text(parse_c_litmus(MP_ORDERS), make_profile("gcc", "-O2", "mips64"))
        # two atomic stores -> at least four syncs on P0
        assert text["P0"].count("sync") >= 4

    def test_unknown_arch_rejected(self):
        with pytest.raises(CompilationError):
            make_profile("llvm", "-O2", "sparc")


class TestPicAndSpills:
    def test_pic_emits_got_loads(self):
        profile = make_profile("llvm", "-O2", "aarch64", pic=True)
        unit = compile_program(lower(fig7_lb()), profile)
        assert any("got_" in (i.symbol or "") for t in unit.threads
                   for i in t.instructions)

    def test_nonpic_direct_addresses(self):
        profile = make_profile("llvm", "-O2", "aarch64", pic=False)
        unit = compile_program(lower(fig7_lb()), profile)
        assert not any("got_" in (i.symbol or "") for t in unit.threads
                       for i in t.instructions)

    def test_o0_spills_to_stack(self):
        profile = make_profile("llvm", "-O0", "aarch64")
        unit = compile_program(lower(fig7_lb()), profile)
        assert unit.threads[0].stack_size > 0
        assert any(i.addr_reg == "sp" for i in unit.threads[0].instructions)

    def test_o1_no_spills(self):
        profile = make_profile("llvm", "-O1", "aarch64")
        unit = compile_program(lower(fig7_lb()), profile)
        assert unit.threads[0].stack_size == 0

    def test_o0_rematerialises_addresses(self):
        """At -O0 every access re-runs the ADRP/GOT sequence; -O1 caches."""
        o0 = compile_program(lower(fig7_lb()), make_profile("llvm", "-O0", "aarch64"))
        o1 = compile_program(lower(fig7_lb()), make_profile("llvm", "-O1", "aarch64"))
        count = lambda unit: sum(
            1 for t in unit.threads for i in t.instructions if i.symbol
        )
        assert count(o0) >= count(o1)

    def test_debug_map_reflects_local_liveness(self):
        """Unaugmented at -O1+, the unused local r0 is deleted and has no
        debug location (§IV-B).  At -O0 it lives in its stack slot and is
        reloaded into a register for observation."""
        bare = compile_program(
            lower(fig7_lb()), make_profile("llvm", "-O1", "aarch64")
        )
        assert "r0" not in bare.threads[0].reg_of_observed
        debug = compile_program(
            lower(fig7_lb()), make_profile("llvm", "-O0", "aarch64")
        )
        assert "r0" in debug.threads[0].reg_of_observed

    def test_augmented_observability_flows_through_global(self):
        """After l2c augmentation the observable survives optimisation as
        a store to ``out_P0_r0`` even when the register copy is gone."""
        profile = make_profile("llvm", "-O1", "aarch64")
        unit = compile_program(lower(prepare(fig7_lb())), profile)
        # some store in P0 targets the out-global's GOT slot or symbol
        symbols = {
            i.symbol for i in unit.threads[0].instructions if i.symbol
        }
        assert any("out_P0_r0" in (s or "") for s in symbols)
