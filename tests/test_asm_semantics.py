"""Tests for the assembly symbolic semantics and AsmLitmus model."""

import pytest

from repro.asm import (
    AsmLitmus, AsmThread, Instruction, Op, elaborate_asm, get_isa, total_instructions,
)
from repro.core.errors import MappingError, SimulationError
from repro.core.events import EventKind
from repro.core.litmus import And, Condition, LocEq, RegEq, TrueProp
from repro.herd import simulate_asm

A64 = get_isa("aarch64")


def thread(name, lines, observed=None, addr_env=None):
    return AsmThread(
        name=name,
        instructions=tuple(A64.parse_line(l) for l in lines),
        observed=observed or {},
        addr_env=addr_env or {"x0": "x", "x1": "y"},
    )


def litmus(threads, condition=None, init=None, **kwargs):
    return AsmLitmus(
        name="t",
        init=init or {"x": 0, "y": 0},
        condition=condition or Condition("exists", TrueProp()),
        arch="aarch64",
        threads=tuple(threads),
        **kwargs,
    )


class TestBasics:
    def test_load_store_events(self):
        t = thread("P0", ["ldr w12, [x0]", "mov w13, #1", "str w13, [x1]"],
                   observed={"w12": "r0"})
        program = elaborate_asm(litmus([t]))[0]
        path = program.paths[0]
        assert [tpl.kind for tpl in path.templates] == [EventKind.READ, EventKind.WRITE]
        assert path.finals["r0"] is not None

    def test_acquire_release_tags(self):
        t = thread("P0", ["ldar w12, [x0]", "stlr w12, [x1]"])
        path = elaborate_asm(litmus([t]))[0].paths[0]
        assert "A" in path.templates[0].tags
        assert "L" in path.templates[1].tags

    def test_ldapr_gets_q_tag(self):
        t = thread("P0", ["ldapr w12, [x0]"])
        path = elaborate_asm(litmus([t]))[0].paths[0]
        assert "Q" in path.templates[0].tags
        assert "A" not in path.templates[0].tags

    def test_fence_tags(self):
        t = thread("P0", ["dmb ishld"])
        path = elaborate_asm(litmus([t]))[0].paths[0]
        assert path.templates[0].kind is EventKind.FENCE
        assert path.templates[0].tags == frozenset({"DMB.LD"})

    def test_zero_register_reads_zero(self):
        t = thread("P0", ["str wzr, [x0]"])
        path = elaborate_asm(litmus([t]))[0].paths[0]
        assert path.templates[0].value_expr.eval({}) == 0

    def test_movaddr_sets_address(self):
        t = AsmThread("P0", tuple(A64.parse_line(l) for l in
                                  ["adrp x8, x", "mov w12, #7", "str w12, [x8]"]),
                      addr_env={})
        lit = litmus([t], init={"x": 0})
        result = simulate_asm(lit)
        assert all(o.as_dict()["x"] == 7 for o in result.outcomes)

    def test_unknown_address_register_raises(self):
        t = AsmThread("P0", (A64.parse_line("ldr w12, [x5]"),), addr_env={})
        with pytest.raises(SimulationError,
                           match=r"no\s+known address at 'ldr w12, \[x5\]'"):
            elaborate_asm(litmus([t]))

    def test_unprintable_instruction_error_quotes_the_op(self):
        # an x86 RMW returning a non-swap old value has no x86 syntax:
        # the error names the op instead of raising the printer's error
        amo = Instruction(op=Op.AMO, amo_kind="or", dst="eax", src1="ecx",
                          addr_reg="r8")
        lit = litmus([AsmThread("P0", (amo,), addr_env={})])
        lit.arch = "x86_64"
        with pytest.raises(SimulationError, match="known address at 'amo'"):
            elaborate_asm(lit)

    def test_unknown_branch_label_raises(self):
        t = thread("P0", ["b .Lnowhere"])
        with pytest.raises(SimulationError, match="unknown label"):
            elaborate_asm(litmus([t]))

    def test_duplicate_label_raises(self):
        t = thread("P0", [".L0:", ".L0:"])
        with pytest.raises(SimulationError, match="duplicate label"):
            elaborate_asm(litmus([t]))


class TestControlFlow:
    def test_cbz_forks_paths(self):
        t = thread("P0", [
            "ldr w12, [x0]",
            "cbz w12, .Lskip",
            "mov w13, #1",
            "str w13, [x1]",
            ".Lskip:",
        ])
        program = elaborate_asm(litmus([t]))[0]
        assert len(program.paths) == 2

    def test_ctrl_dependency_recorded(self):
        t = thread("P0", [
            "ldr w12, [x0]",
            "cbz w12, .Lskip",
            "mov w13, #1",
            "str w13, [x1]",
            ".Lskip:",
        ])
        program = elaborate_asm(litmus([t]))[0]
        store_paths = [p for p in program.paths if len(p.templates) == 2]
        assert store_paths and store_paths[0].templates[1].ctrl_deps

    def test_cmp_bcond(self):
        t = thread("P0", [
            "ldr w12, [x0]",
            "cmp w12, #1",
            "b.ne .Lout",
            "mov w13, #1",
            "str w13, [x1]",
            ".Lout:",
        ])
        program = elaborate_asm(litmus([t]))[0]
        assert len(program.paths) == 2

    def test_constant_branch_no_fork(self):
        t = thread("P0", [
            "mov w12, #0",
            "cbz w12, .Ltaken",
            "mov w13, #1",
            "str w13, [x1]",
            ".Ltaken:",
        ])
        program = elaborate_asm(litmus([t]))[0]
        assert len(program.paths) == 1
        assert not program.paths[0].templates  # store skipped

    def test_infinite_loop_drops_path(self):
        t = thread("P0", [".Lspin:", "b .Lspin"])
        with pytest.raises(SimulationError, match="no path finished"):
            elaborate_asm(litmus([t]))

    def test_backward_branch_bounded(self):
        # a countdown loop: executes exactly 3 iterations then exits
        t = thread("P0", [
            "mov w12, #3",
            ".Lloop:",
            "sub w12, w12, #1",
            "cbnz w12, .Lloop",
            "mov w13, #1",
            "str w13, [x1]",
        ])
        program = elaborate_asm(litmus([t]))[0]
        assert len(program.paths) == 1
        assert len(program.paths[0].templates) == 1


class TestRmwAndExclusives:
    def test_amo_read_write_pair(self):
        t = thread("P0", ["mov w12, #1", "ldadd w12, w13, [x1]"])
        path = elaborate_asm(litmus([t]))[0].paths[0]
        read, write = path.templates
        assert "RMW-R" in read.tags and write.rmw_with_prev

    def test_st_form_sets_noret(self):
        t = thread("P0", ["mov w12, #1", "stadd w12, [x1]"])
        path = elaborate_asm(litmus([t]))[0].paths[0]
        assert "NORET" in path.templates[0].tags

    def test_amo_with_destination_not_noret(self):
        t = thread("P0", ["mov w12, #1", "ldadd w12, w13, [x1]"])
        path = elaborate_asm(litmus([t]))[0].paths[0]
        assert "NORET" not in path.templates[0].tags

    def test_swap_semantics(self):
        t = thread("P0", ["mov w12, #5", "swp w12, w13, [x1]"],
                   observed={"w13": "r0"})
        lit = litmus([t], init={"y": 3, "x": 0})
        result = simulate_asm(lit)
        outcome = next(iter(result.outcomes)).as_dict()
        assert outcome["y"] == 5 and outcome["P0:r0"] == 3

    def test_exclusive_pair_links_rmw(self):
        t = thread("P0", [
            ".Lretry:",
            "ldxr w12, [x1]",
            "add w13, w12, #1",
            "stxr w14, w13, [x1]",
            "cbnz w14, .Lretry",
        ])
        path = elaborate_asm(litmus([t]))[0].paths[0]
        stx = path.templates[-1]
        assert stx.rmw_read_pos == 0

    def test_exclusive_loop_runs_once(self):
        """Success-only modelling: the retry branch is never taken."""
        t = thread("P0", [
            ".Lretry:",
            "ldxr w12, [x1]",
            "add w13, w12, #1",
            "stxr w14, w13, [x1]",
            "cbnz w14, .Lretry",
        ])
        program = elaborate_asm(litmus([t]))[0]
        assert len(program.paths) == 1
        reads = [t for t in program.paths[0].templates if t.kind is EventKind.READ]
        assert len(reads) == 1

    def test_stx_without_ldx_raises(self):
        t = thread("P0", ["mov w12, #1", "stxr w14, w12, [x1]"])
        with pytest.raises(SimulationError, match="without a\\s+matching"):
            elaborate_asm(litmus([t]))

    def test_atomicity_enforced_by_model(self):
        """Two concurrent LL/SC increments always sum."""
        body = [
            ".Lretry:",
            "ldxr w12, [x0]",
            "add w13, w12, #1",
            "stxr w14, w13, [x0]",
            "cbnz w14, .Lretry",
        ]
        t0 = thread("P0", body)
        t1 = thread("P1", body)
        lit = litmus([t0, t1], init={"x": 0})
        result = simulate_asm(lit)
        finals = {o.as_dict()["x"] for o in result.outcomes}
        assert finals == {2}


class TestPairsAndRegions:
    def test_128bit_pair_roundtrip(self):
        t0 = AsmThread(
            "P0",
            tuple(A64.parse_line(l) for l in [
                "mov x12, #1", "mov x13, #2", "stp x12, x13, [x0]",
            ]),
            addr_env={"x0": "x"},
        )
        t1 = AsmThread(
            "P1",
            tuple(A64.parse_line(l) for l in ["ldp x12, x13, [x0]"]),
            observed={"x12": "lo", "x13": "hi"},
            addr_env={"x0": "x"},
        )
        lit = litmus([t0, t1], init={"x": 0}, widths={"x": 128})
        result = simulate_asm(lit)
        outcomes = {(o.as_dict()["P1:lo"], o.as_dict()["P1:hi"])
                    for o in result.outcomes}
        assert outcomes == {(0, 0), (1, 2)}  # single-copy atomic: no tearing

    def test_const_tagging(self):
        t = AsmThread("P0", (A64.parse_line("ldr w12, [x0]"),),
                      addr_env={"x0": "c"})
        lit = litmus([t], init={"c": 5}, const_locations=("c",))
        path = elaborate_asm(lit)[0].paths[0]
        assert "CONST" in path.templates[0].tags

    def test_region_offsets_name_distinct_locations(self):
        t = AsmThread(
            "P0",
            tuple(A64.parse_line(l) for l in [
                "mov w12, #1", "str w12, [sp]", "str w12, [sp, #8]",
            ]),
            addr_env={"sp": "stack_P0"},
        )
        lit = litmus([t], init={"x": 0}, regions={"stack_P0": 16})
        path = elaborate_asm(lit)[0].paths[0]
        locs = [tpl.loc for tpl in path.templates]
        assert locs == ["stack_P0", "stack_P0+8"]

    def test_region_overflow_raises(self):
        t = AsmThread("P0", (A64.parse_line("str wzr, [sp, #64]"),),
                      addr_env={"sp": "stack_P0"})
        lit = litmus([t], init={}, regions={"stack_P0": 16})
        with pytest.raises(SimulationError, match="outside region"):
            elaborate_asm(lit)

    def test_got_load_tracks_address(self):
        t = AsmThread(
            "P0",
            tuple(A64.parse_line(l) for l in [
                "adrp x8, got_x", "ldr x8, [x8]", "mov w12, #1", "str w12, [x8]",
            ]),
            addr_env={},
        )
        lit = litmus(
            [t],
            init={"x": 0, "got_x": 0x11000},
            widths={"got_x": 64},
            layout={"x": 0x11000, "got_x": 0x13000},
            addr_locations={"got_x": "x"},
        )
        result = simulate_asm(lit)
        assert all(o.as_dict()["x"] == 1 for o in result.outcomes)


class TestLitmusModel:
    def test_symbol_address_bridge(self):
        lit = litmus([], init={"x": 0}, layout={"x": 0x11000},
                     widths={"x": 128})
        assert lit.address_of("x") == 0x11000
        assert lit.symbol_at(0x11008) == ("x", 8)
        with pytest.raises(MappingError):
            lit.symbol_at(0xdead)
        with pytest.raises(MappingError):
            lit.address_of("nope")

    def test_private_classification(self):
        lit = litmus([], init={"x": 0, "got_x": 1},
                     addr_locations={"got_x": "x"},
                     regions={"stack_P0": 16})
        assert lit.is_private("got_x")
        assert lit.is_private("stack_P0+8")
        assert not lit.is_private("x")
        assert lit.shared_symbols() == ("x",)

    def test_total_instructions(self):
        t = thread("P0", ["nop", "ret"])
        assert total_instructions(litmus([t])) == 2

    def test_pretty_renders(self):
        t = thread("P0", ["ldr w12, [x0]"])
        text = litmus([t]).pretty()
        assert "P0:" in text and "ldr" in text
