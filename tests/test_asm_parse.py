"""The asm front end's parse contract, one table per ISA.

``Isa.parse_body`` interns what it parses (one ``line -> Instruction``
table per ISA), so the table below *is* the contract: a line parses to
exactly this instruction, every time.  In the style of a table-driven
parser test, each case is an input line and its expected parse;
malformed lines (including operands that are not the ISA's registers and
empty labels) raise :class:`IsaError` naming the line, and a fuzzer over
damaged compiled listings allows no other exception.
"""

import functools
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.asm import Instruction as I
from repro.asm import IsaError, Op, get_isa, list_isas
from repro.asm.isa import base

GOLDEN = {
    "aarch64": [
        ('nop', I(Op.NOP)),
        ('ret', I(Op.RET)),
        ('mov w12, #1', I(Op.MOVI, dst='w12', imm=1)),
        ('mov w12, w13', I(Op.MOV, dst='w12', src1='w13')),
        ('adrp x8, got_x', I(Op.MOVADDR, dst='x8', symbol='got_x')),
        ('adrp x8, stack_P0+8',
            I(Op.MOVADDR, dst='x8', symbol='stack_P0', offset=8)),
        ('add w12, w13, #4',
            I(Op.ALU, dst='w12', src1='w13', imm=4, alu_op='add')),
        ('orr w12, w13, w14',
            I(Op.ALU, dst='w12', src1='w13', src2='w14', alu_op='or')),
        ('eor w12, w13, #1',
            I(Op.ALU, dst='w12', src1='w13', imm=1, alu_op='xor')),
        ('lsr w12, w13, #31',
            I(Op.ALU, dst='w12', src1='w13', imm=31, alu_op='lsr')),
        ('cmp w12, #0', I(Op.CMP, src1='w12', imm=0)),
        ('cmp w12, w13', I(Op.CMP, src1='w12', src2='w13')),
        ('b.eq .L0', I(Op.BCOND, label='.L0', cond='eq')),
        ('b.ne .L0', I(Op.BCOND, label='.L0', cond='ne')),
        ('cbz w12, .L1', I(Op.CBZ, src1='w12', label='.L1')),
        ('cbnz w12, .L1', I(Op.CBNZ, src1='w12', label='.L1')),
        ('b .L2', I(Op.B, label='.L2')),
        ('dmb ish', I(Op.FENCE, fence_tags=frozenset({'DMB.SY'}))),
        ('dmb ishld', I(Op.FENCE, fence_tags=frozenset({'DMB.LD'}))),
        ('dmb ishst', I(Op.FENCE, fence_tags=frozenset({'DMB.ST'}))),
        ('isb', I(Op.FENCE, fence_tags=frozenset({'ISB'}))),
        ('ldr w12, [x8]', I(Op.LOAD, dst='w12', addr_reg='x8')),
        ('ldr w12, [x8, #4]', I(Op.LOAD, dst='w12', addr_reg='x8', offset=4)),
        ('ldar w12, [x8]', I(Op.LOAD, dst='w12', addr_reg='x8', acquire=True)),
        ('ldapr w12, [x8]',
            I(Op.LOAD, dst='w12', addr_reg='x8', acquire_pc=True)),
        ('str w12, [x8]', I(Op.STORE, src1='w12', addr_reg='x8')),
        ('stlr w12, [x8]',
            I(Op.STORE, src1='w12', addr_reg='x8', release=True)),
        ('ldxr w12, [x8]',
            I(Op.LDX, dst='w12', addr_reg='x8', exclusive=True)),
        ('ldaxr w12, [x8]',
            I(Op.LDX, dst='w12', addr_reg='x8', acquire=True, exclusive=True)),
        ('stxr w13, w12, [x8]',
            I(Op.STX, src1='w12', addr_reg='x8', exclusive=True, status='w13')),
        ('stlxr w13, w12, [x8]',
            I(Op.STX, src1='w12', addr_reg='x8', release=True, exclusive=True,
              status='w13')),
        ('ldp x12, x13, [x8]',
            I(Op.LOADPAIR, dst='x12', dst2='x13', addr_reg='x8', width=128)),
        ('stp x12, x13, [x8]',
            I(Op.STOREPAIR, src1='x12', src2='x13', addr_reg='x8', width=128)),
        ('ldxp x12, x13, [x8]',
            I(Op.LDX, dst='x12', dst2='x13', addr_reg='x8', width=128,
              exclusive=True)),
        ('ldaxp x12, x13, [x8]',
            I(Op.LDX, dst='x12', dst2='x13', addr_reg='x8', width=128,
              acquire=True, exclusive=True)),
        ('stxp w14, x12, x13, [x8]',
            I(Op.STX, src1='x12', src2='x13', addr_reg='x8', width=128,
              exclusive=True, status='w14')),
        ('stlxp w14, x12, x13, [x8]',
            I(Op.STX, src1='x12', src2='x13', addr_reg='x8', width=128,
              release=True, exclusive=True, status='w14')),
        ('ldadd w12, w13, [x8]',
            I(Op.AMO, dst='w13', src1='w12', addr_reg='x8', amo_kind='add')),
        ('ldadda w12, w13, [x8]',
            I(Op.AMO, dst='w13', src1='w12', addr_reg='x8', amo_kind='add',
              acquire=True)),
        ('ldaddal w12, w13, [x8]',
            I(Op.AMO, dst='w13', src1='w12', addr_reg='x8', amo_kind='add',
              acquire=True, release=True)),
        ('ldeor w12, w13, [x8]',
            I(Op.AMO, dst='w13', src1='w12', addr_reg='x8', amo_kind='xor')),
        ('ldset w12, w13, [x8]',
            I(Op.AMO, dst='w13', src1='w12', addr_reg='x8', amo_kind='or')),
        ('swp w12, w13, [x8]',
            I(Op.AMO, dst='w13', src1='w12', addr_reg='x8', amo_kind='swap')),
        ('swpal w12, w13, [x8]',
            I(Op.AMO, dst='w13', src1='w12', addr_reg='x8', amo_kind='swap',
              acquire=True, release=True)),
        ('stadd w12, [x8]',
            I(Op.AMO, src1='w12', addr_reg='x8', amo_kind='add')),
        ('staddl w12, [x8]',
            I(Op.AMO, src1='w12', addr_reg='x8', amo_kind='add', release=True)),
        ('.Llabel:', I(Op.LABEL, label='.Llabel')),
    ],
    "armv7": [
        ('nop', I(Op.NOP)),
        ('bx lr', I(Op.RET)),
        ('mov r4, #2', I(Op.MOVI, dst='r4', imm=2)),
        ('mov r4, r5', I(Op.MOV, dst='r4', src1='r5')),
        ('ldr r4, =x', I(Op.MOVADDR, dst='r4', symbol='x')),
        ('add r4, r5, #1',
            I(Op.ALU, dst='r4', src1='r5', imm=1, alu_op='add')),
        ('cmp r4, #0', I(Op.CMP, src1='r4', imm=0)),
        ('beq .L0', I(Op.BCOND, label='.L0', cond='eq')),
        ('bne .L0', I(Op.BCOND, label='.L0', cond='ne')),
        ('b .L1', I(Op.B, label='.L1')),
        ('dmb ish', I(Op.FENCE, fence_tags=frozenset({'DMB.ISH'}))),
        ('isb', I(Op.FENCE, fence_tags=frozenset({'ISB'}))),
        ('ldr r4, [r10]', I(Op.LOAD, dst='r4', addr_reg='r10')),
        ('ldr r4, [r10, #4]', I(Op.LOAD, dst='r4', addr_reg='r10', offset=4)),
        ('str r4, [r10]', I(Op.STORE, src1='r4', addr_reg='r10')),
        ('ldrex r4, [r10]',
            I(Op.LDX, dst='r4', addr_reg='r10', exclusive=True)),
        ('strex r5, r4, [r10]',
            I(Op.STX, src1='r4', addr_reg='r10', exclusive=True, status='r5')),
    ],
    "x86_64": [
        ('nop', I(Op.NOP)),
        ('ret', I(Op.RET)),
        ('mov eax, 3', I(Op.MOVI, dst='eax', imm=3)),
        ('mov eax, ecx', I(Op.MOV, dst='eax', src1='ecx')),
        ('lea r8, [rip+x]', I(Op.MOVADDR, dst='r8', symbol='x')),
        ('add eax, 1', I(Op.ALU, dst='eax', src1='eax', imm=1, alu_op='add')),
        ('xor eax, ecx',
            I(Op.ALU, dst='eax', src1='eax', src2='ecx', alu_op='xor')),
        ('cmp eax, 0', I(Op.CMP, src1='eax', imm=0)),
        ('je .L0', I(Op.BCOND, label='.L0', cond='eq')),
        ('jne .L0', I(Op.BCOND, label='.L0', cond='ne')),
        ('jmp .L1', I(Op.B, label='.L1')),
        ('mfence', I(Op.FENCE, fence_tags=frozenset({'MFENCE'}))),
        ('mov eax, dword ptr [r8]', I(Op.LOAD, dst='eax', addr_reg='r8')),
        ('mov rax, qword ptr [r8]',
            I(Op.LOAD, dst='rax', addr_reg='r8', width=64)),
        ('mov dword ptr [r8], eax', I(Op.STORE, src1='eax', addr_reg='r8')),
        ('mov dword ptr [r8], 1', I(Op.STORE, imm=1, addr_reg='r8')),
        ('mov dword ptr [r8+4], eax',
            I(Op.STORE, src1='eax', addr_reg='r8', offset=4)),
        ('xchg eax, dword ptr [r8]',
            I(Op.AMO, dst='eax', src1='eax', addr_reg='r8', amo_kind='swap',
              exclusive=True)),
        ('lock xadd dword ptr [r8], eax',
            I(Op.AMO, dst='eax', src1='eax', addr_reg='r8', amo_kind='add',
              exclusive=True)),
        ('lock or dword ptr [r8], eax',
            I(Op.AMO, src1='eax', addr_reg='r8', amo_kind='or', exclusive=True)),
        ('lock and dword ptr [r8], 7',
            I(Op.AMO, imm=7, addr_reg='r8', amo_kind='and', exclusive=True)),
    ],
    "riscv64": [
        ('nop', I(Op.NOP)),
        ('ret', I(Op.RET)),
        ('li a5, 1', I(Op.MOVI, dst='a5', imm=1)),
        ('la a0, x', I(Op.MOVADDR, dst='a0', symbol='x')),
        ('mv a5, a6', I(Op.MOV, dst='a5', src1='a6')),
        ('addi a5, a6, 4',
            I(Op.ALU, dst='a5', src1='a6', imm=4, alu_op='add')),
        ('and a5, a6, a7',
            I(Op.ALU, dst='a5', src1='a6', src2='a7', alu_op='and')),
        ('beq a5, a6, .L0',
            I(Op.BCOND, src1='a5', src2='a6', label='.L0', cond='eq')),
        ('bne a5, zero, .L0',
            I(Op.BCOND, src1='a5', src2='zero', label='.L0', cond='ne')),
        ('beqz a5, .L1', I(Op.CBZ, src1='a5', label='.L1')),
        ('bnez a5, .L1', I(Op.CBNZ, src1='a5', label='.L1')),
        ('j .L2', I(Op.B, label='.L2')),
        ('fence rw,rw', I(Op.FENCE, fence_tags=frozenset({'FENCE.RW.RW'}))),
        ('fence r,rw', I(Op.FENCE, fence_tags=frozenset({'FENCE.R.RW'}))),
        ('fence rw,w', I(Op.FENCE, fence_tags=frozenset({'FENCE.RW.W'}))),
        ('lw a5, 0(a0)', I(Op.LOAD, dst='a5', addr_reg='a0')),
        ('ld a5, 8(a0)',
            I(Op.LOAD, dst='a5', addr_reg='a0', offset=8, width=64)),
        ('sw a5, 0(a0)', I(Op.STORE, src1='a5', addr_reg='a0')),
        ('amoadd.w a5, a4, (a0)',
            I(Op.AMO, dst='a5', src1='a4', addr_reg='a0', amo_kind='add',
              exclusive=True)),
        ('amoadd.w.aqrl a5, a4, (a0)',
            I(Op.AMO, dst='a5', src1='a4', addr_reg='a0', amo_kind='add',
              acquire=True, release=True, exclusive=True)),
        ('amoswap.w.aq a5, a4, (a0)',
            I(Op.AMO, dst='a5', src1='a4', addr_reg='a0', amo_kind='swap',
              acquire=True, exclusive=True)),
        ('lr.w a5, (a0)', I(Op.LDX, dst='a5', addr_reg='a0', exclusive=True)),
        ('lr.w.aq a5, (a0)',
            I(Op.LDX, dst='a5', addr_reg='a0', acquire=True, exclusive=True)),
        ('sc.w a6, a5, (a0)',
            I(Op.STX, src1='a5', addr_reg='a0', exclusive=True, status='a6')),
        ('sc.w.rl a6, a5, (a0)',
            I(Op.STX, src1='a5', addr_reg='a0', release=True, exclusive=True,
              status='a6')),
    ],
    "ppc64": [
        ('nop', I(Op.NOP)),
        ('blr', I(Op.RET)),
        ('li r14, 1', I(Op.MOVI, dst='r14', imm=1)),
        ('la r9, x', I(Op.MOVADDR, dst='r9', symbol='x')),
        ('mr r14, r15', I(Op.MOV, dst='r14', src1='r15')),
        ('addi r14, r15, 4',
            I(Op.ALU, dst='r14', src1='r15', imm=4, alu_op='add')),
        ('cmpwi r14, 0', I(Op.CMP, src1='r14', imm=0)),
        ('cmpw r14, r15', I(Op.CMP, src1='r14', src2='r15')),
        ('beq .L0', I(Op.BCOND, label='.L0', cond='eq')),
        ('bne .L0', I(Op.BCOND, label='.L0', cond='ne')),
        ('b .L1', I(Op.B, label='.L1')),
        ('sync', I(Op.FENCE, fence_tags=frozenset({'SYNC'}))),
        ('lwsync', I(Op.FENCE, fence_tags=frozenset({'LWSYNC'}))),
        ('isync', I(Op.FENCE, fence_tags=frozenset({'ISYNC'}))),
        ('lwz r14, 0(r9)', I(Op.LOAD, dst='r14', addr_reg='r9')),
        ('ld r14, 0(r9)', I(Op.LOAD, dst='r14', addr_reg='r9', width=64)),
        ('stw r14, 0(r9)', I(Op.STORE, src1='r14', addr_reg='r9')),
        ('lwarx r14, 0, r9',
            I(Op.LDX, dst='r14', addr_reg='r9', exclusive=True)),
        ('stwcx. r14, 0, r9',
            I(Op.STX, src1='r14', addr_reg='r9', exclusive=True)),
    ],
    "mips64": [
        ('nop', I(Op.NOP)),
        ('jr $ra', I(Op.RET)),
        ('li $2, 1', I(Op.MOVI, dst='$2', imm=1)),
        ('la $4, x', I(Op.MOVADDR, dst='$4', symbol='x')),
        ('move $2, $3', I(Op.MOV, dst='$2', src1='$3')),
        ('addiu $2, $3, 4',
            I(Op.ALU, dst='$2', src1='$3', imm=4, alu_op='add')),
        ('beq $2, $3, .L0',
            I(Op.BCOND, src1='$2', src2='$3', label='.L0', cond='eq')),
        ('bne $2, $zero, .L0',
            I(Op.BCOND, src1='$2', src2='$zero', label='.L0', cond='ne')),
        ('beqz $2, .L1', I(Op.CBZ, src1='$2', label='.L1')),
        ('bnez $2, .L1', I(Op.CBNZ, src1='$2', label='.L1')),
        ('b .L2', I(Op.B, label='.L2')),
        ('sync', I(Op.FENCE, fence_tags=frozenset({'MIPS.SYNC'}))),
        ('lw $2, 0($4)', I(Op.LOAD, dst='$2', addr_reg='$4')),
        ('sw $2, 0($4)', I(Op.STORE, src1='$2', addr_reg='$4')),
        ('ll $2, 0($4)', I(Op.LDX, dst='$2', addr_reg='$4', exclusive=True)),
        ('sc $2, 0($4)',
            I(Op.STX, src1='$2', imm=1, addr_reg='$4', exclusive=True,
              status='$2')),
    ],
}

#: lines that used to escape as IndexError/ValueError tracebacks, or
#: parsed to an instruction with a junk register or an empty label
MALFORMED = [
    *(("mov x0", arch) for arch in ("aarch64", "armv7", "x86_64")),
    *(("add x0, x1", arch)
      for arch in ("aarch64", "armv7", "ppc64", "riscv64", "x86_64")),
    *(("b", arch) for arch in ("aarch64", "armv7", "mips64", "ppc64")),
    *(("mov r0, #abc", arch) for arch in ("aarch64", "armv7", "x86_64")),
    *((":", arch) for arch in sorted(GOLDEN)),
    *(("mov foo, bar", arch) for arch in ("aarch64", "armv7", "x86_64")),
    ("ldr w0, [zz]", "armv7"),
    ("b ,", "aarch64"),
]


def test_every_isa_has_a_golden_table():
    assert sorted(GOLDEN) == list_isas()


@pytest.mark.parametrize("arch", sorted(GOLDEN))
def test_golden_parse(arch):
    isa = get_isa(arch)
    for line, expected in GOLDEN[arch]:
        assert isa.parse_line(line) == expected, line
    lines = [line for line, _ in GOLDEN[arch]]
    assert isa.parse_body(lines) == [expected for _, expected in GOLDEN[arch]]


@pytest.mark.parametrize("line,arch", MALFORMED)
def test_malformed_line_raises_isa_error_naming_it(line, arch):
    with pytest.raises(IsaError, match=re.escape(repr(line))):
        get_isa(arch).parse_line(line)


def fresh_isa(arch):
    """An unregistered instance, so its intern table starts empty."""
    return type(get_isa(arch))()


class TestInterning:
    def test_repeated_lines_share_one_instruction(self):
        isa = fresh_isa("aarch64")
        first = isa.parse_body(["ldr w12, [x8]", "nop"])
        again = isa.parse_body(["  ldr w12, [x8]  // reload"])
        assert again[0] is first[0]
        assert sorted(isa._interned) == ["ldr w12, [x8]", "nop"]

    def test_failing_line_is_not_interned(self):
        isa = fresh_isa("armv7")
        for _ in range(2):
            with pytest.raises(IsaError, match="mov r0"):
                isa.parse_body(["nop", "mov r0"])
        assert list(isa._interned) == ["nop"]

    def test_table_never_exceeds_its_bound(self, monkeypatch):
        monkeypatch.setattr(base, "INTERN_LIMIT", 8)
        isa = fresh_isa("riscv64")
        for value in range(50):
            line = f"li a5, {value}"
            [instr] = isa.parse_body([line])
            assert instr == I(Op.MOVI, dst="a5", imm=value)
            assert 1 <= len(isa._interned) <= 8


@functools.lru_cache(maxsize=None)
def _listings():
    """Compiled objdump listings of the paper tests, one text per
    (arch, opt, test, thread)."""
    from repro.compiler import make_profile
    from repro.papertests import all_tests
    from repro.tools import compile_and_disassemble, prepare

    out = []
    for arch in list_isas():
        for opt in ("-O0", "-O2"):
            profile = make_profile("llvm", opt, arch)
            for litmus in all_tests()[:4]:
                listing = compile_and_disassemble(prepare(litmus), profile).listing
                out.extend((arch, "\n".join(lines)) for lines in listing.values())
    return out


_INSERTABLE = " ,[]()#$=+-.:;/0123456789abcdeflqrswxz\n"


class TestListingFuzz:
    """Truncating, deleting from or inserting into a compiled listing
    either still parses or raises :class:`IsaError` — never another
    exception."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_damaged_listing_parses_or_raises_isa_error(self, data):
        from repro.compiler.disasm import strip_listing

        arch, listing = data.draw(st.sampled_from(_listings()), label="listing")
        edit = data.draw(st.sampled_from(("truncate", "delete", "insert")))
        at = data.draw(st.integers(0, len(listing)), label="at")
        if edit == "truncate":
            damaged = listing[:at]
        elif edit == "delete":
            width = data.draw(st.integers(1, 12), label="width")
            damaged = listing[:at] + listing[at + width:]
        else:
            text = data.draw(
                st.text(alphabet=_INSERTABLE, min_size=1, max_size=4),
                label="text",
            )
            damaged = listing[:at] + text + listing[at:]
        try:
            fresh_isa(arch).parse_body(strip_listing(damaged.splitlines()))
        except IsaError:
            pass
