"""Architecture-neutral instruction representation.

Every ISA we model (AArch64, Armv7, x86-64, RISC-V, PowerPC, MIPS) lowers
to the same small operation vocabulary; the per-ISA modules provide
mnemonic syntax (printing and parsing, for the objdump/s2l round trip) and
the register conventions the compiler back-ends use.  An
:class:`Instruction` carries no display text: each ISA's printer is the
only code that renders instruction syntax, and its parser the only code
that reads it.

Memory-ordering attributes live on the instruction (``acquire``,
``acquire_pc``, ``release``, ``exclusive``, ``fence_tags``) and are turned
into event tags by :mod:`repro.asm.semantics`.
"""

from __future__ import annotations

import enum
import operator
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from ...core.registry import Registry


class Op(enum.Enum):
    """The unified micro-operation set."""

    LABEL = "label"        # a branch target
    MOVI = "movi"          # rd := imm
    MOVADDR = "movaddr"    # rd := &symbol   (address materialisation)
    MOV = "mov"            # rd := rs
    ALU = "alu"            # rd := rs1 <alu_op> rs2/imm
    CMP = "cmp"            # set flags from rs1 ? rs2/imm
    BCOND = "bcond"        # conditional branch on flags (or rs1 ? rs2)
    CBZ = "cbz"            # branch if rs == 0
    CBNZ = "cbnz"          # branch if rs != 0
    B = "b"                # unconditional branch
    LOAD = "load"          # rd := [ra + off]
    STORE = "store"        # [ra + off] := rs
    LOADPAIR = "loadpair"  # rd,rd2 := [ra]       (128-bit)
    STOREPAIR = "storepair"  # [ra] := rs,rs2     (128-bit)
    FENCE = "fence"        # memory barrier
    AMO = "amo"            # atomic rd := [ra]; [ra] := old <op> rs
    LDX = "ldx"            # load-exclusive
    STX = "stx"            # store-exclusive (status := 0 on success)
    NOP = "nop"
    RET = "ret"


#: ALU operations understood by the semantics.
ALU_OPS = ("add", "sub", "and", "or", "xor", "lsl", "lsr", "mul")

#: Branch conditions.
CONDS = ("eq", "ne", "lt", "le", "gt", "ge")

#: AMO kinds (matching the C11 RMW kinds).
AMO_KINDS = ("add", "sub", "or", "and", "xor", "swap")


@dataclass(frozen=True)
class Instruction:
    """One machine instruction in the unified representation.

    Every field is semantic: the instruction holds no copy of its
    syntax.  Display goes through the ISA printer
    (``get_isa(arch).print_instruction``).
    """

    op: Op
    dst: Optional[str] = None
    dst2: Optional[str] = None        # second destination (LOADPAIR)
    src1: Optional[str] = None
    src2: Optional[str] = None
    imm: Optional[int] = None
    symbol: Optional[str] = None      # MOVADDR target / literal symbol
    label: Optional[str] = None       # branch target or LABEL name
    addr_reg: Optional[str] = None    # base register of a memory access
    offset: int = 0                   # immediate offset of a memory access
    width: int = 32
    alu_op: str = ""
    cond: str = ""
    amo_kind: str = ""
    acquire: bool = False             # tag A (LDAR, LDAXR, LDADDA…)
    acquire_pc: bool = False          # tag Q (LDAPR — Armv8.3 RCpc)
    release: bool = False             # tag L (STLR, STLXR, LDADDL…)
    exclusive: bool = False           # tag X (exclusives, x86 locked ops)
    status: Optional[str] = None      # STX success register
    fence_tags: FrozenSet[str] = frozenset()

    @property
    def is_branch(self) -> bool:
        return self.op in (Op.BCOND, Op.CBZ, Op.CBNZ, Op.B)

    @property
    def is_memory_access(self) -> bool:
        return self.op in (
            Op.LOAD,
            Op.STORE,
            Op.LOADPAIR,
            Op.STOREPAIR,
            Op.AMO,
            Op.LDX,
            Op.STX,
        )


#: the fields of an :class:`Instruction` that name a register
_REGISTER_FIELDS = operator.attrgetter("dst", "dst2", "src1", "src2", "addr_reg", "status")


class IsaError(ValueError):
    """An ISA module rejected a mnemonic or operand."""


#: bound on each ISA's parse intern table (line text -> Instruction); a
#: farm pass over the test corpus sees under 200 distinct lines, so the
#: table is cleared, never grown past this, on pathological inputs
INTERN_LIMIT = 4096


class Isa:
    """Per-architecture syntax and register conventions.

    Concrete subclasses (one per modelled architecture) provide mnemonic
    printing and parsing — the objdump / ``s2l`` round trip of the paper's
    Fig. 6 — plus the register conventions the compiler back-ends use.
    """

    #: registry key and the litmus ``arch`` field value.
    name: str = ""
    #: the always-zero register, or "" when the ISA has none (x86, Armv7).
    zero_reg: str = ""
    #: caller-saved registers codegen may use for values, in allocation order.
    value_regs: Tuple[str, ...] = ()
    #: registers codegen may use to hold addresses.
    addr_regs: Tuple[str, ...] = ()
    #: registers that carry the (up to 8) pointer arguments, in order.
    param_regs: Tuple[str, ...] = ()
    #: every register name the parser accepts in an operand slot.
    register_pattern: "re.Pattern[str]"

    def __init__(self) -> None:
        #: parse_body's intern table; sharing parsed instructions is safe
        #: because :class:`Instruction` is frozen
        self._interned: Dict[str, Instruction] = {}

    # ------------------------------------------------------------------ #
    def print_instruction(self, instr: Instruction) -> str:
        """Render ``instr`` in this architecture's assembly syntax."""
        raise NotImplementedError

    def _parse_line(self, text: str) -> Instruction:
        """The per-ISA parser behind :meth:`parse_line` (``text`` is
        stripped)."""
        raise NotImplementedError

    def parse_line(self, text: str) -> Instruction:
        """Parse one line of this architecture's assembly syntax.

        Malformed input — an unknown mnemonic, a missing operand, a bad
        immediate, an operand that is not one of this ISA's registers
        (:attr:`register_pattern`), an empty label — raises
        :class:`IsaError`, never another exception.
        """
        line = text.strip()
        try:
            instr = self._parse_line(line)
        except IsaError:
            raise
        except (IndexError, ValueError) as exc:
            # the per-ISA parsers index operands and convert immediates
            # without checking; a short or garbled line lands here
            raise IsaError(f"malformed {self.name} instruction {line!r}") from exc
        for reg in _REGISTER_FIELDS(instr):
            if reg is not None and not self.register_pattern.fullmatch(reg):
                raise IsaError(
                    f"malformed {self.name} instruction {line!r}: "
                    f"{reg!r} is not a register"
                )
        if (instr.op is Op.LABEL or instr.is_branch) and not instr.label:
            raise IsaError(f"malformed {self.name} instruction {line!r}: empty label")
        return instr

    # ------------------------------------------------------------------ #
    def parse_body(self, lines: "list[str]") -> "list[Instruction]":
        """Parse an instruction sequence, skipping blanks and comments.

        Each distinct line is parsed once per ISA and the instruction is
        shared afterwards (the table holds at most :data:`INTERN_LIMIT`
        lines); a line that fails to parse is not stored, so it raises
        every time it is seen.
        """
        table = self._interned
        out = []
        for line in lines:
            stripped = line.split("//")[0].split(";#")[0].strip()
            if not stripped:
                continue
            instr = table.get(stripped)
            if instr is None:
                instr = self.parse_line(stripped)
                if len(table) >= INTERN_LIMIT:
                    table.clear()
                table[stripped] = instr
            out.append(instr)
        return out


#: the global ISA registry, on the shared protocol of
#: :class:`repro.core.registry.Registry` (did-you-mean errors, overlays).
ISAS: "Registry[Isa]" = Registry("architecture", error=IsaError)


def register_isa(isa: Isa) -> Isa:
    """Add an ISA instance to the global registry (module import time)."""
    return ISAS.register(isa.name, isa, doc=type(isa).__name__)


def ensure_registered() -> None:
    """Import every per-ISA module so ``ISAS`` is fully populated.

    Registration happens as an import side effect; anything that reads
    ``ISAS`` directly (overlays included) must call this first."""
    from . import aarch64, armv7, mips, ppc, riscv, x86  # noqa: F401


def get_isa(name: str) -> Isa:
    """Look up an ISA by its litmus ``arch`` name (e.g. ``aarch64``)."""
    ensure_registered()
    return ISAS.get(name)


def list_isas() -> "list[str]":
    ensure_registered()
    return ISAS.names()
