"""Code generation: IR → per-ISA machine instructions.

Implements the C11 atomics mappings each back-end uses, the calling/PIC
conventions that create the address-materialisation traffic of §IV-E, and
the instruction-selection decisions where the paper's historical bugs
live (ST-form RMWs, 128-bit pairs).  See :mod:`repro.compiler.bugs` for
the bug flags consulted here.

Register allocation is deliberately simple: value virtual registers map
to a per-ISA scratch pool with last-use freeing; at ``-O0`` every local
lives in a stack slot and every use reloads it (the spill traffic that —
together with GOT loads under PIC — blows up un-optimised simulation,
paper Fig. 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..asm.isa.base import Instruction, Isa, Op
from ..core.errors import CompilationError
from ..core.events import MemoryOrder
from .ir import IRFunction, IRInstr, IROp, IRProgram, Operand
from .profiles import CompilerProfile


@dataclass
class CompiledThread:
    """One compiled thread plus the metadata later tools rely on.

    ``reg_of_observed`` is the DWARF-like variable-location map of §III-D:
    source local name → machine register holding it at function exit.
    ``stack_size`` is the thread's spill area in bytes (0 above -O0).
    ``got_slots`` lists the GOT entries the thread's PIC sequences read.
    """

    name: str
    instructions: List[Instruction]
    reg_of_observed: Dict[str, str] = field(default_factory=dict)
    stack_size: int = 0
    got_slots: Tuple[str, ...] = ()


@dataclass
class CompiledUnit:
    """The translation unit: all compiled threads + global metadata."""

    name: str
    arch: str
    profile: CompilerProfile
    threads: List[CompiledThread]
    init: Dict[str, int]
    widths: Dict[str, int]
    const_locations: Tuple[str, ...] = ()

    def thread(self, name: str) -> CompiledThread:
        for t in self.threads:
            if t.name == name:
                return t
        raise KeyError(name)


# --------------------------------------------------------------------------- #
# per-thread code generation
# --------------------------------------------------------------------------- #
class _ThreadCodegen:
    """Generates code for one IR function under one profile."""

    def __init__(
        self, fn: IRFunction, program: IRProgram, profile: CompilerProfile, isa: Isa
    ) -> None:
        self.fn = fn
        self.program = program
        self.profile = profile
        self.isa = isa
        self.out: List[Instruction] = []
        self.vreg_map: Dict[str, str] = {}
        self.free_regs: List[str] = list(isa.value_regs)
        self.last_use = self._compute_last_uses()
        self.addr_cache: Dict[str, str] = {}
        self.free_addr_regs: List[str] = list(isa.addr_regs)
        self.slot_of: Dict[str, int] = {}
        self.got_slots: List[str] = []
        self.label_counter = 0
        self._temp_rotation = 0
        self.at_o0 = profile.opt == "-O0"
        # scratch registers reserved for -O0 reload traffic; three suffice
        # for the longest emission sequence (compare lowering)
        if self.at_o0:
            self.scratch = [self.free_regs.pop(), self.free_regs.pop(),
                            self.free_regs.pop()]
            self.scratch_toggle = 0
        else:
            self.scratch = []

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _compute_last_uses(self) -> Dict[str, int]:
        last: Dict[str, int] = {}
        for index, instr in enumerate(self.fn.body):
            for vreg in instr.uses():
                last[vreg] = index
        for name in self.fn.observed_locals:
            last[name] = len(self.fn.body)
        return last

    def fresh_label(self, hint: str) -> str:
        self.label_counter += 1
        return f".L{self.fn.name}_{hint}{self.label_counter}"

    def emit(self, instr: Instruction) -> None:
        self.out.append(instr)

    # ---- value registers ----------------------------------------------- #
    def _alloc_reg(self, vreg: str) -> str:
        if vreg in self.vreg_map:
            return self.vreg_map[vreg]
        if not self.free_regs:
            raise CompilationError(
                f"{self.fn.name}: register pressure too high for the "
                f"modelled {self.isa.name} allocator"
            )
        reg = self.free_regs.pop(0)
        self.vreg_map[vreg] = reg
        return reg

    def _free_dead(self, index: int) -> None:
        dead = [v for v, last in self.last_use.items() if last <= index]
        for vreg in dead:
            reg = self.vreg_map.pop(vreg, None)
            if reg is not None and reg not in self.free_regs:
                self.free_regs.append(reg)
            self.last_use.pop(vreg, None)

    def _next_scratch(self) -> str:
        reg = self.scratch[self.scratch_toggle % len(self.scratch)]
        self.scratch_toggle += 1
        return reg

    def def_reg(self, vreg: Optional[str]) -> str:
        """The register a definition of ``vreg`` should target."""
        if vreg is None:
            return self._next_scratch() if self.at_o0 else self._temp_reg()
        if self.at_o0:
            if vreg not in self.slot_of:
                self.slot_of[vreg] = 8 * len(self.slot_of)
            return self._next_scratch()
        return self._alloc_reg(vreg)

    def _temp_reg(self) -> str:
        if not self.free_regs:
            raise CompilationError(f"{self.fn.name}: out of scratch registers")
        reg = self.free_regs[self._temp_rotation % len(self.free_regs)]
        self._temp_rotation += 1
        return reg

    def store_def(self, vreg: Optional[str], reg: str) -> None:
        """At -O0, spill a freshly defined local to its stack slot."""
        if vreg is None or not self.at_o0:
            return
        slot = self.slot_of.setdefault(vreg, 8 * len(self.slot_of))
        self.emit(Instruction(op=Op.STORE, src1=reg, addr_reg=self._sp(),
                              offset=slot, width=32))

    def use_reg(self, operand: Operand) -> str:
        """Materialise an operand into a register."""
        if isinstance(operand, int):
            reg = self._next_scratch() if self.at_o0 else self._temp_reg()
            self.emit(Instruction(op=Op.MOVI, dst=reg, imm=operand))
            return reg
        if self.at_o0:
            if operand not in self.slot_of:
                # use of a never-defined local: zero-init slot
                self.slot_of[operand] = 8 * len(self.slot_of)
            reg = self._next_scratch()
            self.emit(Instruction(op=Op.LOAD, dst=reg, addr_reg=self._sp(),
                                  offset=self.slot_of[operand], width=32))
            return reg
        if operand not in self.vreg_map:
            raise CompilationError(
                f"{self.fn.name}: use of {operand!r} before definition"
            )
        return self.vreg_map[operand]

    def _sp(self) -> str:
        return "sp"

    # ---- addresses ------------------------------------------------------ #
    def addr_of(self, loc: str) -> str:
        """A register holding the address of shared location ``loc``.

        PIC profiles go through the GOT: materialise the GOT slot address,
        then *load* the location's address from it — the extra read event
        the paper's s2l optimisation removes.  At -O0 the sequence repeats
        before every access; at -O1+ it is emitted once per location.
        """
        if not self.at_o0 and loc in self.addr_cache:
            return self.addr_cache[loc]
        if not self.free_addr_regs:
            # recycle: drop the oldest cached address
            if self.addr_cache:
                victim = next(iter(self.addr_cache))
                self.free_addr_regs.append(self.addr_cache.pop(victim))
            else:
                raise CompilationError(f"{self.fn.name}: out of address registers")
        reg = (
            self.free_addr_regs[0]
            if self.at_o0
            else self.free_addr_regs.pop(0)
        )
        if self.profile.pic:
            slot = f"got_{loc}"
            if slot not in self.got_slots:
                self.got_slots.append(slot)
            self.emit(Instruction(op=Op.MOVADDR, dst=reg, symbol=slot))
            self.emit(Instruction(op=Op.LOAD, dst=reg, addr_reg=reg, width=64))
        else:
            self.emit(Instruction(op=Op.MOVADDR, dst=reg, symbol=loc))
        if not self.at_o0:
            self.addr_cache[loc] = reg
        return reg

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #
    def run(self) -> CompiledThread:
        for index, instr in enumerate(self.fn.body):
            self.emit_ir(instr, index)
            if not self.at_o0:
                self._free_dead(index)
        reg_of_observed = self._final_locations()
        return CompiledThread(
            name=self.fn.name,
            instructions=self.out,
            reg_of_observed=reg_of_observed,
            stack_size=8 * len(self.slot_of),
            got_slots=tuple(self.got_slots),
        )

    def _final_locations(self) -> Dict[str, str]:
        """Where each observed local lives at exit (the debug map).

        At -O0 observed locals live on the stack; the compiler reloads
        them into registers before returning so the litmus harness can
        observe them (what real builds do via the frame's DWARF entries
        — we normalise to registers to keep the litmus format simple).
        """
        out: Dict[str, str] = {}
        for name in self.fn.observed_locals:
            if self.at_o0:
                if name in self.slot_of:
                    reg = self._next_scratch()
                    # insert before the final ret
                    self.out.insert(
                        len(self.out) - 1,
                        Instruction(op=Op.LOAD, dst=reg, addr_reg=self._sp(),
                                    offset=self.slot_of[name], width=32),
                    )
                    out[name] = reg
            elif name in self.vreg_map:
                out[name] = self.vreg_map[name]
            # a deleted local has no location: exactly the paper's §IV-B
            # observability problem
        return out

    def emit_ir(self, instr: IRInstr, index: int) -> None:
        op = instr.op
        if op is IROp.LABEL:
            self.emit(Instruction(op=Op.LABEL, label=instr.label))
            # control-flow join: a cached address may have been
            # materialised on only one incoming path, so drop the cache
            # (real compilers re-materialise or rely on dominance; we
            # re-materialise, which is always sound)
            for reg in self.addr_cache.values():
                if reg not in self.free_addr_regs:
                    self.free_addr_regs.append(reg)
            self.addr_cache.clear()
            return
        if op is IROp.RET:
            self.emit(Instruction(op=Op.RET))
            return
        if op is IROp.BR:
            self.emit(Instruction(op=Op.B, label=instr.label))
            return
        if op is IROp.CBR:
            self.emit_cbr(instr)
            return
        if op is IROp.CONST:
            reg = self.def_reg(instr.dst)
            self.emit(Instruction(op=Op.MOVI, dst=reg, imm=int(instr.a)))  # type: ignore[arg-type]
            self.store_def(instr.dst, reg)
            return
        if op is IROp.BIN:
            self.emit_bin(instr)
            return
        if op is IROp.FENCE:
            self.emit_fence(instr.order)
            return
        if op is IROp.LOAD:
            self.emit_load(instr, index)
            return
        if op is IROp.STORE:
            self.emit_store(instr)
            return
        if op is IROp.RMW:
            self.emit_rmw(instr, index)
            return
        raise CompilationError(f"cannot emit {instr!r}")

    # ------------------------------------------------------------------ #
    # generic emission (per-ISA hooks below)
    # ------------------------------------------------------------------ #
    def alu(
        self,
        dst: str,
        src1: str,
        op: str,
        src2: Optional[str] = None,
        imm: Optional[int] = None,
    ) -> None:
        """Emit an ALU op, honouring x86's two-operand constraint."""
        if self.isa.name == "x86_64" and dst != src1:
            if src2 == dst or (src2 is None and False):
                raise CompilationError("x86 operand aliasing not representable")
            self.emit(Instruction(op=Op.MOV, dst=dst, src1=src1))
            src1 = dst
        self.emit(Instruction(op=Op.ALU, dst=dst, src1=src1, src2=src2,
                              imm=imm, alu_op=op))

    def emit_bin(self, instr: IRInstr) -> None:
        alu = _BIN_TO_ALU.get(instr.bin_op)
        if alu is not None:
            a_reg = self.use_reg(instr.a)  # type: ignore[arg-type]
            if isinstance(instr.b, int) and alu == "mul":
                # no ISA has a multiply-immediate: materialise the constant
                b_reg = self.use_reg(instr.b)
                dst = self.def_reg(instr.dst)
                self.alu(dst, a_reg, alu, src2=b_reg)
            elif isinstance(instr.b, int):
                dst = self.def_reg(instr.dst)
                self.alu(dst, a_reg, alu, imm=instr.b)
            else:
                b_reg = self.use_reg(instr.b)
                dst = self.def_reg(instr.dst)
                self.alu(dst, a_reg, alu, src2=b_reg)
            self.store_def(instr.dst, dst)
            return
        if instr.bin_op in _CMP_OPS:
            self.emit_compare_to_flag(instr)
            return
        raise CompilationError(f"cannot emit binary op {instr.bin_op!r}")

    def emit_compare_to_flag(self, instr: IRInstr) -> None:
        """``dst := (a cmp b)`` as a 0/1 value, branch-free.

        Lowered arithmetically (sign-bit extraction) so the *data*
        dependency from the compared registers survives into the
        execution graph — essential for the §IV-D if-conversion story.
        With arbitrary-precision evaluation there is no overflow:
        ``(a-b) >> 31 & 1`` is 1 exactly when ``a < b``.
        """
        swap = instr.bin_op in (">", "<=")
        lhs, rhs = (instr.b, instr.a) if swap else (instr.a, instr.b)
        a_reg = self.use_reg(lhs)  # type: ignore[arg-type]
        dst = self.def_reg(instr.dst)
        # diff := lhs - rhs  (into dst, which is free to clobber)
        if isinstance(rhs, int):
            self.alu(dst, a_reg, "sub", imm=rhs)
        else:
            self.alu(dst, a_reg, "sub", src2=self.use_reg(rhs))
        if instr.bin_op in ("==", "!="):
            # normalise diff to 0/1: (diff | -diff) has its sign bit set
            # exactly when diff != 0
            neg = self.def_reg(None)
            if neg == dst:
                raise CompilationError("scratch collision in compare lowering")
            self.emit(Instruction(op=Op.MOVI, dst=neg, imm=0))
            self.alu(neg, neg, "sub", src2=dst)
            self.alu(dst, dst, "or", src2=neg)
        self.alu(dst, dst, "lsr", imm=31)
        self.alu(dst, dst, "and", imm=1)
        if instr.bin_op in ("==", ">=", "<="):
            self.alu(dst, dst, "xor", imm=1)
        self.store_def(instr.dst, dst)

    def emit_cbr(self, instr: IRInstr) -> None:
        a_reg = self.use_reg(instr.a)  # type: ignore[arg-type]
        if instr.b == 0 and instr.cond in ("eq", "ne") and self.isa.name not in (
            "ppc64", "armv7", "x86_64"
        ):
            op = Op.CBZ if instr.cond == "eq" else Op.CBNZ
            self.emit(Instruction(op=op, src1=a_reg, label=instr.label))
            return
        if self.isa.name in ("riscv64", "mips64"):
            b_reg = (
                self.isa.zero_reg
                if instr.b == 0
                else self.use_reg(instr.b)  # type: ignore[arg-type]
            )
            cond, first, second = _fused_branch(instr.cond, a_reg, b_reg)
            self.emit(Instruction(op=Op.BCOND, cond=cond, src1=first,
                                  src2=second, label=instr.label))
            return
        if isinstance(instr.b, int):
            self.emit(Instruction(op=Op.CMP, src1=a_reg, imm=instr.b))
        else:
            self.emit(Instruction(op=Op.CMP, src1=a_reg,
                                  src2=self.use_reg(instr.b)))
        self.emit(Instruction(op=Op.BCOND, cond=instr.cond, label=instr.label))

    # ------------------------------------------------------------------ #
    # per-ISA hooks (overridden by subclasses)
    # ------------------------------------------------------------------ #
    def emit_fence(self, order: MemoryOrder) -> None:
        raise NotImplementedError

    def emit_load(self, instr: IRInstr, index: int) -> None:
        raise NotImplementedError

    def emit_store(self, instr: IRInstr) -> None:
        raise NotImplementedError

    def emit_rmw(self, instr: IRInstr, index: int) -> None:
        raise NotImplementedError

    # ---- shared analysis ------------------------------------------------ #
    def acquire_context_follows(self, index: int) -> bool:
        """Is there a po-later acquire fence or acquire load in this
        function?  Fixed compilers consult this before choosing an
        ST-form RMW (the sound version of the Fig. 10 selection)."""
        for later in self.fn.body[index + 1 :]:
            if later.op is IROp.FENCE and later.order.at_least_acquire:
                return True
            if later.op is IROp.LOAD and later.order.at_least_acquire:
                return True
            if later.op is IROp.RMW and later.order.at_least_acquire:
                return True
        return False

    def _fence(self, *tags: str) -> None:
        self.emit(Instruction(op=Op.FENCE, fence_tags=frozenset(tags)))


_BIN_TO_ALU = {
    "+": "add", "-": "sub", "&": "and", "|": "or", "^": "xor",
    "<<": "lsl", ">>": "lsr", "*": "mul",
}
_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


def _fused_branch(cond: str, a: str, b: str) -> Tuple[str, str, str]:
    """RISC-V/MIPS have beq/bne/blt/bge; derive le/gt by operand swap."""
    if cond in ("eq", "ne", "lt", "ge"):
        return cond, a, b
    if cond == "gt":
        return "lt", b, a
    if cond == "le":
        return "ge", b, a
    raise CompilationError(f"unknown branch condition {cond!r}")
