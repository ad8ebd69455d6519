"""Armv7-A (32-bit) syntax for the modelled subset.

Armv7 has no single-copy-atomic acquire/release instructions: compilers
bracket accesses with ``dmb ish`` barriers and implement RMWs with
LDREX/STREX loops.  ``dmb ish`` events carry the ``DMB.ISH`` tag — the tag
the paper's model fix [35] added to the unofficial Armv7 Cat model.

``ldr r4, =sym`` is the classic literal-pool address pseudo-instruction;
it stands for the MOVW/MOVT pair and does not touch memory.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .aarch64 import _imm, _parse_mem, _split_operands
from .base import Instruction, Isa, IsaError, Op, register_isa

_ALU_PRINT = {
    "add": "add", "sub": "sub", "and": "and", "or": "orr",
    "xor": "eor", "lsl": "lsl", "lsr": "lsr", "mul": "mul",
}
_ALU_PARSE = {v: k for k, v in _ALU_PRINT.items()}

_FENCE_PRINT = {
    frozenset({"DMB.ISH"}): "dmb ish",
    frozenset({"DMB"}): "dmb sy",
    frozenset({"DSB"}): "dsb sy",
    frozenset({"ISB"}): "isb",
}
_FENCE_PARSE = {v: k for k, v in _FENCE_PRINT.items()}

_CONDS = ("eq", "ne", "lt", "le", "gt", "ge")


class Armv7(Isa):
    """The Armv7-A ISA front (A32 encoding)."""

    name = "armv7"
    zero_reg = ""
    value_regs = ("r4", "r5", "r6", "r7", "r8", "r9")
    addr_regs = ("r10", "r11", "r12", "r14")
    param_regs = ("r0", "r1", "r2", "r3")
    register_pattern = re.compile(r"r(?:1[0-5]|[0-9])|sp|lr|pc|fp|ip")

    # ------------------------------------------------------------------ #
    def print_instruction(self, instr: Instruction) -> str:
        op = instr.op
        if op is Op.LABEL:
            return f"{instr.label}:"
        if op is Op.NOP:
            return "nop"
        if op is Op.RET:
            return "bx lr"
        if op is Op.MOVI:
            return f"mov {instr.dst}, #{instr.imm}"
        if op is Op.MOVADDR:
            suffix = f"+{instr.offset}" if instr.offset else ""
            return f"ldr {instr.dst}, ={instr.symbol}{suffix}"
        if op is Op.MOV:
            return f"mov {instr.dst}, {instr.src1}"
        if op is Op.ALU:
            rhs = f"#{instr.imm}" if instr.src2 is None else instr.src2
            return f"{_ALU_PRINT[instr.alu_op]} {instr.dst}, {instr.src1}, {rhs}"
        if op is Op.CMP:
            rhs = f"#{instr.imm}" if instr.src2 is None else instr.src2
            return f"cmp {instr.src1}, {rhs}"
        if op is Op.BCOND:
            return f"b{instr.cond} {instr.label}"
        if op is Op.B:
            return f"b {instr.label}"
        if op is Op.FENCE:
            try:
                return _FENCE_PRINT[instr.fence_tags]
            except KeyError:
                raise IsaError(f"unprintable fence tags {set(instr.fence_tags)}")
        if op is Op.LOAD:
            return f"ldr {instr.dst}, {_mem(instr)}"
        if op is Op.STORE:
            return f"str {instr.src1}, {_mem(instr)}"
        if op is Op.LDX:
            return f"ldrex {instr.dst}, {_mem(instr)}"
        if op is Op.STX:
            return f"strex {instr.status}, {instr.src1}, {_mem(instr)}"
        raise IsaError(f"cannot print {instr!r} for armv7")

    # ------------------------------------------------------------------ #
    def _parse_line(self, text: str) -> Instruction:
        if text.endswith(":"):
            return Instruction(op=Op.LABEL, label=text[:-1])
        mnem, _, rest = text.partition(" ")
        return self._parse_mnemonic(mnem.lower(), _split_operands(rest), text)

    def _parse_mnemonic(self, mnem: str, ops: List[str], text: str) -> Instruction:
        if mnem == "nop":
            return Instruction(op=Op.NOP)
        if mnem == "bx" and ops and ops[0] == "lr":
            return Instruction(op=Op.RET)
        if mnem == "isb":
            return Instruction(op=Op.FENCE, fence_tags=frozenset({"ISB"}))
        if mnem in ("dmb", "dsb"):
            key = f"{mnem} {ops[0].lower() if ops else 'sy'}"
            if key not in _FENCE_PARSE:
                raise IsaError(f"unknown barrier {text!r}")
            return Instruction(op=Op.FENCE, fence_tags=_FENCE_PARSE[key])
        if mnem == "mov":
            if ops[1].startswith("#"):
                return Instruction(op=Op.MOVI, dst=ops[0], imm=_imm(ops[1]))
            return Instruction(op=Op.MOV, dst=ops[0], src1=ops[1])
        if mnem == "ldr" and ops[1].startswith("="):
            symbol, offset = _lit_sym(ops[1][1:])
            return Instruction(op=Op.MOVADDR, dst=ops[0], symbol=symbol, offset=offset)
        if mnem in _ALU_PARSE:
            if ops[2].startswith("#"):
                return Instruction(op=Op.ALU, dst=ops[0], src1=ops[1],
                                   imm=_imm(ops[2]), alu_op=_ALU_PARSE[mnem])
            return Instruction(op=Op.ALU, dst=ops[0], src1=ops[1], src2=ops[2],
                               alu_op=_ALU_PARSE[mnem])
        if mnem == "cmp":
            if ops[1].startswith("#"):
                return Instruction(op=Op.CMP, src1=ops[0], imm=_imm(ops[1]))
            return Instruction(op=Op.CMP, src1=ops[0], src2=ops[1])
        if mnem == "b":
            return Instruction(op=Op.B, label=ops[0])
        if mnem.startswith("b") and mnem[1:] in _CONDS:
            return Instruction(op=Op.BCOND, cond=mnem[1:], label=ops[0])
        if mnem == "ldr":
            base, off = _parse_mem(ops[1])
            return Instruction(op=Op.LOAD, dst=ops[0], addr_reg=base, offset=off)
        if mnem == "str":
            base, off = _parse_mem(ops[1])
            return Instruction(op=Op.STORE, src1=ops[0], addr_reg=base, offset=off)
        if mnem == "ldrex":
            base, off = _parse_mem(ops[1])
            return Instruction(op=Op.LDX, dst=ops[0], addr_reg=base, offset=off,
                               exclusive=True)
        if mnem == "strex":
            base, off = _parse_mem(ops[2])
            return Instruction(op=Op.STX, status=ops[0], src1=ops[1],
                               addr_reg=base, offset=off, exclusive=True)
        raise IsaError(f"unknown armv7 instruction {text!r}")


def _mem(instr: Instruction) -> str:
    if instr.offset:
        return f"[{instr.addr_reg}, #{instr.offset}]"
    return f"[{instr.addr_reg}]"


def _lit_sym(token: str) -> Tuple[str, int]:
    if "+" in token:
        symbol, _, offset = token.partition("+")
        return symbol.strip(), int(offset, 0)
    return token.strip(), 0


ISA = register_isa(Armv7())
