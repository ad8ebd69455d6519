"""IBM PowerPC (64-bit) syntax for the modelled subset.

PowerPC orders through ``sync`` (full), ``lwsync`` (lightweight) and
``isync`` (with a control dependency); RMWs are LWARX/STWCX. loops.
``stwcx.`` reports success through condition register CR0, so it has no
status register here — the semantics models success by setting the flags
to "equal", which makes the following ``bne`` retry branch fall through.

``la r9, sym`` stands for the TOC-relative ADDIS/ADDI address
materialisation pair.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .base import Instruction, Isa, IsaError, Op, register_isa

_MEM_RE = re.compile(r"(?P<off>-?\d+)?\(\s*(?P<base>\w+)\s*\)")

_ALU_PRINT = {
    "add": "add", "sub": "subf", "and": "and", "or": "or",
    "xor": "xor", "lsl": "slw", "lsr": "srw", "mul": "mullw",
}
_ALU_PARSE = {v: k for k, v in _ALU_PRINT.items()}

_FENCE_PRINT = {
    frozenset({"SYNC"}): "sync",
    frozenset({"LWSYNC"}): "lwsync",
    frozenset({"ISYNC"}): "isync",
    frozenset({"EIEIO"}): "eieio",
}
_FENCE_PARSE = {v: k for k, v in _FENCE_PRINT.items()}

_BC_PRINT = {"eq": "beq", "ne": "bne", "lt": "blt", "le": "ble", "gt": "bgt", "ge": "bge"}
_BC_PARSE = {v: k for k, v in _BC_PRINT.items()}

#: immediate ALU mnemonics; `sub imm` becomes addi with a negated value.
_ALU_IMM = {"add": "addi", "and": "andi.", "or": "ori", "xor": "xori",
            "lsl": "slwi", "lsr": "srwi"}
_ALU_IMM_PARSE = {v: k for k, v in _ALU_IMM.items()}


def _print_alu_imm(instr: Instruction) -> str:
    if instr.alu_op == "sub":
        return f"addi {instr.dst}, {instr.src1}, {-(instr.imm or 0)}"
    if instr.alu_op not in _ALU_IMM:
        raise IsaError(f"ppc has no immediate form for {instr.alu_op}")
    return f"{_ALU_IMM[instr.alu_op]} {instr.dst}, {instr.src1}, {instr.imm}"


def _mem(instr: Instruction) -> str:
    return f"{instr.offset or 0}({instr.addr_reg})"


class Ppc(Isa):
    """The PowerPC64 ISA front."""

    name = "ppc64"
    zero_reg = ""
    value_regs = ("r14", "r15", "r16", "r17", "r18", "r19")
    addr_regs = ("r7", "r8", "r9", "r10")
    param_regs = ("r3", "r4", "r5", "r6")
    register_pattern = re.compile(r"r(?:[12]?[0-9]|3[01])|sp")

    # ------------------------------------------------------------------ #
    def print_instruction(self, instr: Instruction) -> str:
        op = instr.op
        if op is Op.LABEL:
            return f"{instr.label}:"
        if op is Op.NOP:
            return "nop"
        if op is Op.RET:
            return "blr"
        if op is Op.MOVI:
            return f"li {instr.dst}, {instr.imm}"
        if op is Op.MOVADDR:
            suffix = f"+{instr.offset}" if instr.offset else ""
            return f"la {instr.dst}, {instr.symbol}{suffix}"
        if op is Op.MOV:
            return f"mr {instr.dst}, {instr.src1}"
        if op is Op.ALU:
            if instr.src2 is None:
                return _print_alu_imm(instr)
            return f"{_ALU_PRINT[instr.alu_op]} {instr.dst}, {instr.src1}, {instr.src2}"
        if op is Op.CMP:
            if instr.src2 is None:
                return f"cmpwi {instr.src1}, {instr.imm}"
            return f"cmpw {instr.src1}, {instr.src2}"
        if op is Op.BCOND:
            return f"{_BC_PRINT[instr.cond]} {instr.label}"
        if op is Op.B:
            return f"b {instr.label}"
        if op is Op.FENCE:
            try:
                return _FENCE_PRINT[instr.fence_tags]
            except KeyError:
                raise IsaError(f"unprintable fence tags {set(instr.fence_tags)}")
        if op is Op.LOAD:
            mnem = "ld" if instr.width == 64 else "lwz"
            return f"{mnem} {instr.dst}, {_mem(instr)}"
        if op is Op.STORE:
            mnem = "std" if instr.width == 64 else "stw"
            return f"{mnem} {instr.src1}, {_mem(instr)}"
        if op is Op.LDX:
            mnem = "ldarx" if instr.width == 64 else "lwarx"
            return f"{mnem} {instr.dst}, 0, {instr.addr_reg}"
        if op is Op.STX:
            mnem = "stdcx." if instr.width == 64 else "stwcx."
            return f"{mnem} {instr.src1}, 0, {instr.addr_reg}"
        raise IsaError(f"cannot print {instr!r} for ppc64")

    # ------------------------------------------------------------------ #
    def _parse_line(self, text: str) -> Instruction:
        if text.endswith(":") and not text.endswith("cx."):
            return Instruction(op=Op.LABEL, label=text[:-1])
        lowered = text.lower()
        if lowered in _FENCE_PARSE:
            return Instruction(op=Op.FENCE, fence_tags=_FENCE_PARSE[lowered])
        mnem, _, rest = text.partition(" ")
        ops = [o.strip() for o in rest.split(",")] if rest else []
        return self._parse_mnemonic(mnem.lower(), ops, text)

    def _parse_mnemonic(self, mnem: str, ops: List[str], text: str) -> Instruction:
        if mnem == "nop":
            return Instruction(op=Op.NOP)
        if mnem == "blr":
            return Instruction(op=Op.RET)
        if mnem == "li":
            return Instruction(op=Op.MOVI, dst=ops[0], imm=int(ops[1], 0))
        if mnem == "la":
            symbol, offset = _sym_offset(ops[1])
            return Instruction(op=Op.MOVADDR, dst=ops[0], symbol=symbol, offset=offset)
        if mnem == "mr":
            return Instruction(op=Op.MOV, dst=ops[0], src1=ops[1])
        if mnem in _ALU_IMM_PARSE:
            return Instruction(op=Op.ALU, dst=ops[0], src1=ops[1],
                               imm=int(ops[2], 0), alu_op=_ALU_IMM_PARSE[mnem])
        if mnem in _ALU_PARSE:
            return Instruction(op=Op.ALU, dst=ops[0], src1=ops[1], src2=ops[2],
                               alu_op=_ALU_PARSE[mnem])
        if mnem == "cmpwi":
            return Instruction(op=Op.CMP, src1=ops[0], imm=int(ops[1], 0))
        if mnem == "cmpw":
            return Instruction(op=Op.CMP, src1=ops[0], src2=ops[1])
        if mnem == "b":
            return Instruction(op=Op.B, label=ops[0])
        if mnem in _BC_PARSE:
            return Instruction(op=Op.BCOND, cond=_BC_PARSE[mnem], label=ops[0])
        if mnem in ("lwz", "ld"):
            base, off = _parse_mem(ops[1])
            return Instruction(op=Op.LOAD, dst=ops[0], addr_reg=base, offset=off,
                               width=64 if mnem == "ld" else 32)
        if mnem in ("stw", "std"):
            base, off = _parse_mem(ops[1])
            return Instruction(op=Op.STORE, src1=ops[0], addr_reg=base, offset=off,
                               width=64 if mnem == "std" else 32)
        if mnem in ("lwarx", "ldarx"):
            return Instruction(op=Op.LDX, dst=ops[0], addr_reg=ops[2],
                               exclusive=True, width=64 if mnem == "ldarx" else 32)
        if mnem in ("stwcx.", "stdcx."):
            return Instruction(op=Op.STX, src1=ops[0], addr_reg=ops[2],
                               exclusive=True, width=64 if mnem == "stdcx." else 32)
        raise IsaError(f"unknown ppc instruction {text!r}")


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


ISA = register_isa(Ppc())
