"""MIPS (64-bit) syntax for the modelled subset.

MIPS has a single full barrier, ``sync``, and LL/SC exclusives.  GCC's
MIPS backend treats atomic data as ``volatile`` and brackets every atomic
access in ``sync`` (the paper's §IV-C missed-optimisation report [40]);
our compiler mapping mirrors that conservatism, which is why MIPS shows
zero positive and the most negative differences in Table IV.

MIPS ``sc`` writes 1 to the value register on success (the opposite of
the AArch64/RISC-V convention); the success value rides in ``imm``.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .base import Instruction, Isa, IsaError, Op, register_isa

_MEM_RE = re.compile(r"(?P<off>-?\d+)?\(\s*(?P<base>\$\w+)\s*\)")

_ALU_PRINT = {
    "add": "addu", "sub": "subu", "and": "and", "or": "or",
    "xor": "xor", "lsl": "sll", "lsr": "srl", "mul": "mul",
}
_ALU_PARSE = {v: k for k, v in _ALU_PRINT.items()}

_BRANCH_PRINT = {"eq": "beq", "ne": "bne"}
_BRANCH_PARSE = {v: k for k, v in _BRANCH_PRINT.items()}

#: immediate ALU mnemonics; `sub imm` prints as addiu with a negated
#: immediate, as assemblers conventionally accept.
_ALU_IMM = {"add": "addiu", "and": "andi", "or": "ori", "xor": "xori",
            "lsl": "sll", "lsr": "srl"}
_ALU_IMM_PARSE = {v: k for k, v in _ALU_IMM.items()}


def _print_alu_imm(instr: Instruction) -> str:
    if instr.alu_op == "sub":
        return f"addiu {instr.dst}, {instr.src1}, {-(instr.imm or 0)}"
    if instr.alu_op not in _ALU_IMM:
        raise IsaError(f"mips has no immediate form for {instr.alu_op}")
    return f"{_ALU_IMM[instr.alu_op]} {instr.dst}, {instr.src1}, {instr.imm}"


def _mem(instr: Instruction) -> str:
    return f"{instr.offset or 0}({instr.addr_reg})"


class Mips(Isa):
    """The MIPS64 ISA front (o64-ish conventions, $-register names)."""

    name = "mips64"
    zero_reg = "$zero"
    value_regs = ("$2", "$3", "$8", "$9", "$10", "$11")
    addr_regs = ("$4", "$5", "$6", "$7")
    param_regs = ("$4", "$5", "$6", "$7")
    register_pattern = re.compile(
        r"\$(?:[12]?[0-9]|3[01]|zero|at|v[01]|a[0-3]|t[0-9]|s[0-8]|k[01]|gp|sp|fp|ra)"
    )

    # ------------------------------------------------------------------ #
    def print_instruction(self, instr: Instruction) -> str:
        op = instr.op
        if op is Op.LABEL:
            return f"{instr.label}:"
        if op is Op.NOP:
            return "nop"
        if op is Op.RET:
            return "jr $ra"
        if op is Op.MOVI:
            return f"li {instr.dst}, {instr.imm}"
        if op is Op.MOVADDR:
            suffix = f"+{instr.offset}" if instr.offset else ""
            return f"la {instr.dst}, {instr.symbol}{suffix}"
        if op is Op.MOV:
            return f"move {instr.dst}, {instr.src1}"
        if op is Op.ALU:
            if instr.src2 is None:
                return _print_alu_imm(instr)
            return f"{_ALU_PRINT[instr.alu_op]} {instr.dst}, {instr.src1}, {instr.src2}"
        if op is Op.BCOND:
            if instr.cond not in _BRANCH_PRINT:
                raise IsaError(f"mips has no b{instr.cond} in the modelled subset")
            rhs = instr.src2 or "$zero"
            return f"{_BRANCH_PRINT[instr.cond]} {instr.src1}, {rhs}, {instr.label}"
        if op is Op.CBZ:
            return f"beqz {instr.src1}, {instr.label}"
        if op is Op.CBNZ:
            return f"bnez {instr.src1}, {instr.label}"
        if op is Op.B:
            return f"b {instr.label}"
        if op is Op.FENCE:
            if instr.fence_tags == frozenset({"MIPS.SYNC"}):
                return "sync"
            raise IsaError(f"unprintable fence tags {set(instr.fence_tags)}")
        if op is Op.LOAD:
            mnem = "ld" if instr.width == 64 else "lw"
            return f"{mnem} {instr.dst}, {_mem(instr)}"
        if op is Op.STORE:
            mnem = "sd" if instr.width == 64 else "sw"
            return f"{mnem} {instr.src1}, {_mem(instr)}"
        if op is Op.LDX:
            mnem = "lld" if instr.width == 64 else "ll"
            return f"{mnem} {instr.dst}, {_mem(instr)}"
        if op is Op.STX:
            mnem = "scd" if instr.width == 64 else "sc"
            return f"{mnem} {instr.src1}, {_mem(instr)}"
        raise IsaError(f"cannot print {instr!r} for mips64")

    # ------------------------------------------------------------------ #
    def _parse_line(self, text: str) -> Instruction:
        if text.endswith(":"):
            return Instruction(op=Op.LABEL, label=text[:-1])
        if text.lower() == "sync":
            return Instruction(op=Op.FENCE, fence_tags=frozenset({"MIPS.SYNC"}))
        mnem, _, rest = text.partition(" ")
        ops = [o.strip() for o in rest.split(",")] if rest else []
        return self._parse_mnemonic(mnem.lower(), ops, text)

    def _parse_mnemonic(self, mnem: str, ops: List[str], text: str) -> Instruction:
        if mnem == "nop":
            return Instruction(op=Op.NOP)
        if mnem == "jr":
            return Instruction(op=Op.RET)
        if mnem == "li":
            return Instruction(op=Op.MOVI, dst=ops[0], imm=int(ops[1], 0))
        if mnem == "la":
            symbol, offset = _sym_offset(ops[1])
            return Instruction(op=Op.MOVADDR, dst=ops[0], symbol=symbol, offset=offset)
        if mnem == "move":
            return Instruction(op=Op.MOV, dst=ops[0], src1=ops[1])
        if mnem in _ALU_IMM_PARSE:
            return Instruction(op=Op.ALU, dst=ops[0], src1=ops[1],
                               imm=int(ops[2], 0), alu_op=_ALU_IMM_PARSE[mnem])
        if mnem in _ALU_PARSE:
            return Instruction(op=Op.ALU, dst=ops[0], src1=ops[1], src2=ops[2],
                               alu_op=_ALU_PARSE[mnem])
        if mnem in ("b", "j"):
            return Instruction(op=Op.B, label=ops[0])
        if mnem == "beqz":
            return Instruction(op=Op.CBZ, src1=ops[0], label=ops[1])
        if mnem == "bnez":
            return Instruction(op=Op.CBNZ, src1=ops[0], label=ops[1])
        if mnem in _BRANCH_PARSE:
            return Instruction(op=Op.BCOND, cond=_BRANCH_PARSE[mnem],
                               src1=ops[0], src2=ops[1], label=ops[2])
        if mnem in ("lw", "ld"):
            base, off = _parse_mem(ops[1])
            return Instruction(op=Op.LOAD, dst=ops[0], addr_reg=base, offset=off,
                               width=64 if mnem == "ld" else 32)
        if mnem in ("sw", "sd"):
            base, off = _parse_mem(ops[1])
            return Instruction(op=Op.STORE, src1=ops[0], addr_reg=base, offset=off,
                               width=64 if mnem == "sd" else 32)
        if mnem in ("ll", "lld"):
            base, off = _parse_mem(ops[1])
            return Instruction(op=Op.LDX, dst=ops[0], addr_reg=base, offset=off,
                               exclusive=True, width=64 if mnem == "lld" else 32)
        if mnem in ("sc", "scd"):
            base, off = _parse_mem(ops[1])
            # MIPS sc overwrites the value register with 1 on success
            return Instruction(op=Op.STX, status=ops[0], src1=ops[0],
                               addr_reg=base, offset=off, imm=1, exclusive=True,
                               width=64 if mnem == "scd" else 32)
        raise IsaError(f"unknown mips instruction {text!r}")


def _parse_mem(token: str) -> Tuple[str, int]:
    match = _MEM_RE.fullmatch(token.strip())
    if not match:
        raise IsaError(f"bad memory operand {token!r}")
    return match.group("base"), int(match.group("off") or 0)


def _sym_offset(token: str) -> Tuple[str, int]:
    if "+" in token:
        symbol, _, offset = token.partition("+")
        return symbol.strip(), int(offset, 0)
    return token.strip(), 0


ISA = register_isa(Mips())
