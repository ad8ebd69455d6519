"""Focused tests for the s2l rewrites and remaining front-end corners."""

import pytest

from repro.asm import AsmThread, get_isa
from repro.compiler import make_profile
from repro.compiler.objfile import ObjectFile, Symbol
from repro.core.litmus import Condition, TrueProp
from repro.lang.parser import parse_c_litmus
from repro.tools.s2l import S2LStats, drop_dead_movaddr, fold_got_loads, forward_stack_traffic

A64 = get_isa("aarch64")


def parse(lines):
    return [A64.parse_line(l) for l in lines]


def fake_obj(got=None):
    return ObjectFile(
        name="t", arch="aarch64", profile_name="p", text={},
        symbols=[Symbol("x", ".data", 0x11000, 4),
                 Symbol("got_x", ".got", 0x13000, 8)],
        relocations=[], got_entries=got or {"got_x": "x"},
        debug=None, init={}, widths={},
    )


class TestGotFolding:
    def test_basic_fold(self):
        stats = S2LStats()
        out = fold_got_loads(
            parse(["adrp x8, got_x", "ldr x8, [x8]", "ldr w12, [x8]"]),
            fake_obj(), stats,
        )
        assert stats.removed_got_loads == 1
        assert out[0].symbol == "x" and len(out) == 2

    def test_no_fold_on_non_got_symbol(self):
        stats = S2LStats()
        out = fold_got_loads(
            parse(["adrp x8, x", "ldr w12, [x8]"]), fake_obj(), stats
        )
        assert stats.removed_got_loads == 0 and len(out) == 2

    def test_no_fold_when_load_targets_other_register(self):
        stats = S2LStats()
        instrs = parse(["adrp x8, got_x", "ldr x9, [x8]"])
        out = fold_got_loads(instrs, fake_obj(), stats)
        assert stats.removed_got_loads == 0 and len(out) == 2

    def test_no_fold_with_offset(self):
        stats = S2LStats()
        instrs = parse(["adrp x8, got_x", "ldr x8, [x8, #8]"])
        out = fold_got_loads(instrs, fake_obj(), stats)
        assert stats.removed_got_loads == 0


class TestSpillForwarding:
    def test_store_load_forwarded_to_move(self):
        stats = S2LStats()
        out = forward_stack_traffic(
            parse(["str w12, [sp]", "ldr w13, [sp]"]), stats
        )
        # the reload becomes a register move; the dead spill disappears
        assert stats.removed_stack_accesses == 2
        assert [A64.print_instruction(i) for i in out] == ["mov w13, w12"]

    def test_same_register_reload_elided(self):
        stats = S2LStats()
        out = forward_stack_traffic(
            parse(["str w12, [sp]", "ldr w12, [sp]"]), stats
        )
        assert len(out) == 0  # mov w12,w12 elided, dead store removed

    def test_forwarding_invalidated_by_redefinition(self):
        stats = S2LStats()
        out = forward_stack_traffic(
            parse(["str w12, [sp]", "mov w12, #9", "ldr w13, [sp]"]), stats
        )
        # w12 redefined: the reload cannot be forwarded, spill must stay
        ops = [i.op.value for i in out]
        assert "load" in ops and "store" in ops

    def test_forwarding_stops_at_labels(self):
        stats = S2LStats()
        out = forward_stack_traffic(
            parse(["str w12, [sp]", ".L0:", "ldr w13, [sp]"]), stats
        )
        ops = [i.op.value for i in out]
        assert "load" in ops and "store" in ops

    def test_distinct_slots_tracked_independently(self):
        stats = S2LStats()
        out = forward_stack_traffic(
            parse(["str w12, [sp]", "str w13, [sp, #8]",
                   "ldr w14, [sp]", "ldr w15, [sp, #8]"]),
            stats,
        )
        assert all(i.op.value == "mov" for i in out)

    def test_non_sp_traffic_untouched(self):
        stats = S2LStats()
        instrs = parse(["str w12, [x8]", "ldr w13, [x8]"])
        out = forward_stack_traffic(instrs, stats)
        assert out == instrs


class TestDeadMovaddr:
    def test_unused_materialisation_dropped(self):
        stats = S2LStats()
        out = drop_dead_movaddr(parse(["adrp x8, x", "ret"]), stats)
        assert stats.removed_dead_movaddr == 1
        assert out[0].op.value == "ret"

    def test_used_materialisation_kept(self):
        stats = S2LStats()
        out = drop_dead_movaddr(parse(["adrp x8, x", "ldr w12, [x8]"]), stats)
        assert stats.removed_dead_movaddr == 0 and len(out) == 2

    def test_redefined_before_use_dropped(self):
        stats = S2LStats()
        out = drop_dead_movaddr(
            parse(["adrp x8, x", "adrp x8, y", "ldr w12, [x8]"]), stats
        )
        assert stats.removed_dead_movaddr == 1


class TestConditionCorners:
    def test_negated_exists(self):
        source = """
C t
{ *x = 0; }
void P0(atomic_int* x) { atomic_store_explicit(x, 1, memory_order_relaxed); }
~exists (x=0)
"""
        litmus = parse_c_litmus(source)
        assert litmus.condition.quantifier == "forall"

    def test_forall_condition(self):
        source = """
C t
{ *x = 0; }
void P0(atomic_int* x) { atomic_store_explicit(x, 1, memory_order_relaxed); }
forall (x=1)
"""
        litmus = parse_c_litmus(source)
        from repro.herd import simulate_c

        result = simulate_c(litmus, "rc11")
        assert result.condition_holds(litmus.condition)

    def test_disjunction_in_condition(self):
        source = """
C t
{ *x = 0; }
void P0(atomic_int* x) { atomic_store_explicit(x, 1, memory_order_relaxed); }
exists (x=0 \\/ x=1)
"""
        litmus = parse_c_litmus(source)
        from repro.herd import simulate_c

        assert simulate_c(litmus, "rc11").condition_holds(litmus.condition)


class TestHardwareCorners:
    def test_sc_reference_chip_never_weak(self):
        from repro.hw import run_on_hardware
        from repro.papertests import fig7_lb
        from repro.tools import assembly_to_litmus, compile_and_disassemble, prepare

        prepared = prepare(fig7_lb())
        c2s = compile_and_disassemble(
            prepared, make_profile("llvm", "-O3", "aarch64")
        )
        compiled = assembly_to_litmus(c2s.obj, prepared.condition,
                                      listing=c2s.listing)
        result = run_on_hardware(compiled, "sc-reference", runs=300, seed=0,
                                 stress=True)
        from repro.herd import simulate_asm

        sc = simulate_asm(compiled, model="sc").outcomes
        assert result.observed <= sc
