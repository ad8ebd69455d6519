"""RISC-V (RV64, A extension) syntax for the modelled subset.

RVWMO orders through explicit ``fence pred,succ`` instructions and
``.aq``/``.rl`` annotations on AMOs and LR/SC.  The annotations map to the
cross-architecture ``A``/``L`` event tags consumed by
:mod:`repro.cat.models.riscv`.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .base import Instruction, Isa, IsaError, Op, register_isa

_MEM_RE = re.compile(r"(?P<off>-?\d+)?\(\s*(?P<base>[\w$]+)\s*\)")

_ALU_PRINT = {
    "add": "add", "sub": "sub", "and": "and", "or": "or",
    "xor": "xor", "lsl": "sll", "lsr": "srl", "mul": "mul",
}
_ALU_PARSE = {v: k for k, v in _ALU_PRINT.items()}
_ALU_IMM = {"add": "addi", "and": "andi", "or": "ori", "xor": "xori",
            "lsl": "slli", "lsr": "srli"}
_ALU_IMM_PARSE = {v: k for k, v in _ALU_IMM.items()}

_FENCE_PRINT = {
    frozenset({"FENCE.RW.RW"}): "fence rw,rw",
    frozenset({"FENCE.R.RW"}): "fence r,rw",
    frozenset({"FENCE.RW.W"}): "fence rw,w",
    frozenset({"FENCE.W.W"}): "fence w,w",
    frozenset({"FENCE.R.R"}): "fence r,r",
    frozenset({"FENCE.TSO"}): "fence.tso",
}
_FENCE_PARSE = {v: k for k, v in _FENCE_PRINT.items()}

_BRANCH_PRINT = {"eq": "beq", "ne": "bne", "lt": "blt", "ge": "bge"}
_BRANCH_PARSE = {v: k for k, v in _BRANCH_PRINT.items()}

_AMO_NAMES = {"add": "amoadd", "or": "amoor", "and": "amoand",
              "xor": "amoxor", "swap": "amoswap"}
_AMO_PARSE = {v: k for k, v in _AMO_NAMES.items()}


def _mem(instr: Instruction) -> str:
    if instr.offset:
        return f"{instr.offset}({instr.addr_reg})"
    return f"0({instr.addr_reg})"


def _ordering_suffix(instr: Instruction) -> str:
    if instr.acquire and instr.release:
        return ".aqrl"
    if instr.acquire:
        return ".aq"
    if instr.release:
        return ".rl"
    return ""


class RiscV(Isa):
    """The RV64 ISA front."""

    name = "riscv64"
    zero_reg = "zero"
    value_regs = ("a5", "a6", "a7", "t0", "t1", "t2", "t3")
    addr_regs = ("a0", "a1", "a2", "a3")
    param_regs = ("a0", "a1", "a2", "a3")
    register_pattern = re.compile(
        r"zero|ra|[sgt]p|fp|t[0-6]|s(?:1[01]|[0-9])|a[0-7]|x(?:[12]?[0-9]|3[01])"
    )

    # ------------------------------------------------------------------ #
    def print_instruction(self, instr: Instruction) -> str:
        op = instr.op
        if op is Op.LABEL:
            return f"{instr.label}:"
        if op is Op.NOP:
            return "nop"
        if op is Op.RET:
            return "ret"
        if op is Op.MOVI:
            return f"li {instr.dst}, {instr.imm}"
        if op is Op.MOVADDR:
            suffix = f"+{instr.offset}" if instr.offset else ""
            return f"la {instr.dst}, {instr.symbol}{suffix}"
        if op is Op.MOV:
            return f"mv {instr.dst}, {instr.src1}"
        if op is Op.ALU:
            if instr.src2 is None:
                if instr.alu_op == "sub":
                    # RISC-V has no subi: addi with the negated immediate
                    return f"addi {instr.dst}, {instr.src1}, {-(instr.imm or 0)}"
                if instr.alu_op not in _ALU_IMM:
                    raise IsaError(f"riscv {instr.alu_op} has no immediate form")
                return f"{_ALU_IMM[instr.alu_op]} {instr.dst}, {instr.src1}, {instr.imm}"
            return f"{_ALU_PRINT[instr.alu_op]} {instr.dst}, {instr.src1}, {instr.src2}"
        if op is Op.BCOND:
            if instr.cond not in _BRANCH_PRINT:
                raise IsaError(f"riscv has no b{instr.cond}; negate the condition")
            rhs = instr.src2 or "zero"
            return f"{_BRANCH_PRINT[instr.cond]} {instr.src1}, {rhs}, {instr.label}"
        if op is Op.CBZ:
            return f"beqz {instr.src1}, {instr.label}"
        if op is Op.CBNZ:
            return f"bnez {instr.src1}, {instr.label}"
        if op is Op.B:
            return f"j {instr.label}"
        if op is Op.FENCE:
            try:
                return _FENCE_PRINT[instr.fence_tags]
            except KeyError:
                raise IsaError(f"unprintable fence tags {set(instr.fence_tags)}")
        if op is Op.LOAD:
            mnem = "ld" if instr.width == 64 else "lw"
            return f"{mnem} {instr.dst}, {_mem(instr)}"
        if op is Op.STORE:
            mnem = "sd" if instr.width == 64 else "sw"
            return f"{mnem} {instr.src1}, {_mem(instr)}"
        if op is Op.AMO:
            size = ".d" if instr.width == 64 else ".w"
            name = _AMO_NAMES[instr.amo_kind]
            dst = instr.dst or "zero"
            return (
                f"{name}{size}{_ordering_suffix(instr)} "
                f"{dst}, {instr.src1}, ({instr.addr_reg})"
            )
        if op is Op.LDX:
            size = ".d" if instr.width == 64 else ".w"
            return f"lr{size}{_ordering_suffix(instr)} {instr.dst}, ({instr.addr_reg})"
        if op is Op.STX:
            size = ".d" if instr.width == 64 else ".w"
            return (
                f"sc{size}{_ordering_suffix(instr)} "
                f"{instr.status}, {instr.src1}, ({instr.addr_reg})"
            )
        raise IsaError(f"cannot print {instr!r} for riscv64")

    # ------------------------------------------------------------------ #
    def _parse_line(self, text: str) -> Instruction:
        if text.endswith(":"):
            return Instruction(op=Op.LABEL, label=text[:-1])
        if text.lower() in _FENCE_PARSE:
            return Instruction(op=Op.FENCE, fence_tags=_FENCE_PARSE[text.lower()])
        mnem, _, rest = text.partition(" ")
        mnem = mnem.lower()
        if mnem == "fence":
            key = f"fence {rest.replace(' ', '')}"
            if key not in _FENCE_PARSE:
                raise IsaError(f"unknown fence {text!r}")
            return Instruction(op=Op.FENCE, fence_tags=_FENCE_PARSE[key])
        ops = [o.strip() for o in rest.split(",")] if rest else []
        return self._parse_mnemonic(mnem, ops, text)

    def _parse_mnemonic(self, mnem: str, ops: List[str], text: str) -> Instruction:
        if mnem == "nop":
            return Instruction(op=Op.NOP)
        if mnem == "ret":
            return Instruction(op=Op.RET)
        if mnem == "li":
            return Instruction(op=Op.MOVI, dst=ops[0], imm=int(ops[1], 0))
        if mnem == "la":
            symbol, offset = _sym_offset(ops[1])
            return Instruction(op=Op.MOVADDR, dst=ops[0], symbol=symbol, offset=offset)
        if mnem == "mv":
            return Instruction(op=Op.MOV, dst=ops[0], src1=ops[1])
        if mnem == "j":
            return Instruction(op=Op.B, label=ops[0])
        if mnem == "beqz":
            return Instruction(op=Op.CBZ, src1=ops[0], label=ops[1])
        if mnem == "bnez":
            return Instruction(op=Op.CBNZ, src1=ops[0], label=ops[1])
        if mnem in _BRANCH_PARSE:
            return Instruction(op=Op.BCOND, cond=_BRANCH_PARSE[mnem],
                               src1=ops[0], src2=ops[1], label=ops[2])
        if mnem in _ALU_IMM_PARSE:
            return Instruction(op=Op.ALU, dst=ops[0], src1=ops[1],
                               imm=int(ops[2], 0), alu_op=_ALU_IMM_PARSE[mnem])
        if mnem in _ALU_PARSE:
            return Instruction(op=Op.ALU, dst=ops[0], src1=ops[1], src2=ops[2],
                               alu_op=_ALU_PARSE[mnem])
        if mnem in ("lw", "ld"):
            base, off = _parse_mem(ops[1])
            return Instruction(op=Op.LOAD, dst=ops[0], addr_reg=base, offset=off,
                               width=64 if mnem == "ld" else 32)
        if mnem in ("sw", "sd"):
            base, off = _parse_mem(ops[1])
            return Instruction(op=Op.STORE, src1=ops[0], addr_reg=base, offset=off,
                               width=64 if mnem == "sd" else 32)
        parts = mnem.split(".")
        if parts[0] in _AMO_PARSE and len(parts) >= 2:
            base, off = _parse_mem(ops[2])
            acq, rel = _parse_ordering(parts[2:])
            return Instruction(op=Op.AMO, amo_kind=_AMO_PARSE[parts[0]],
                               dst=None if ops[0] == "zero" else ops[0],
                               src1=ops[1], addr_reg=base, offset=off,
                               acquire=acq, release=rel, exclusive=True,
                               width=64 if parts[1] == "d" else 32)
        if parts[0] == "lr" and len(parts) >= 2:
            base, off = _parse_mem(ops[1])
            acq, rel = _parse_ordering(parts[2:])
            return Instruction(op=Op.LDX, dst=ops[0], addr_reg=base, offset=off,
                               acquire=acq, release=rel, exclusive=True,
                               width=64 if parts[1] == "d" else 32)
        if parts[0] == "sc" and len(parts) >= 2:
            base, off = _parse_mem(ops[2])
            acq, rel = _parse_ordering(parts[2:])
            # RISC-V sc writes 0 to rd on success (the default convention)
            return Instruction(op=Op.STX, status=ops[0], src1=ops[1],
                               addr_reg=base, offset=off,
                               acquire=acq, release=rel, exclusive=True,
                               width=64 if parts[1] == "d" else 32)
        raise IsaError(f"unknown riscv instruction {text!r}")


def _parse_mem(token: str) -> Tuple[str, int]:
    match = _MEM_RE.fullmatch(token.strip())
    if not match:
        raise IsaError(f"bad memory operand {token!r}")
    return match.group("base"), int(match.group("off") or 0)


def _parse_ordering(parts: List[str]) -> Tuple[bool, bool]:
    if not parts:
        return False, False
    tag = parts[0]
    return "aq" in tag, "rl" in tag


def _sym_offset(token: str) -> Tuple[str, int]:
    if "+" in token:
        symbol, _, offset = token.partition("+")
        return symbol.strip(), int(offset, 0)
    return token.strip(), 0


ISA = register_isa(RiscV())
