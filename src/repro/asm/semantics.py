"""Symbolic semantics of assembly litmus threads.

The assembly analogue of :mod:`repro.lang.semantics`: walks a thread's
instruction list, producing :class:`~repro.herd.templates.ThreadPath`
objects whose events carry *architecture tags* (``A``, ``Q``, ``L``,
``X``, ``DMB.SY`` …) instead of C11 memory orders.  The architecture Cat
models consume these tags.

Design notes mirroring the paper:

* **RMWs.** ``AMO`` instructions (LSE atomics, x86 locked ops, RISC-V
  AMOs) produce a read+write pair linked by ``rmw``.  When the
  destination register is a zero register (``LDADD …, xzr`` aliasing
  ``STADD``) the read is tagged ``NORET`` — it still participates in
  atomicity but is *not* ordered by ``DMB LD`` / acquire fences, which is
  precisely the mechanism of the paper's Fig. 1 and Fig. 10 bugs.
* **Exclusives.** ``LDX``/``STX`` pairs are modelled success-only: the
  status register becomes 0 and the pair is linked by ``rmw``.  Retry
  loops therefore execute exactly once; the outcome set is unchanged
  because a failed reservation writes nothing.
* **Address traffic.** ``MOVADDR`` materialises a symbol's address
  without touching memory (ADRP+ADD); loads from *address locations*
  (GOT slots) are genuine read events whose loaded value the interpreter
  also tracks symbolically as an address.  This reproduces the event
  inflation behind the paper's §IV-E state explosion.
* **128-bit pairs.** ``LOADPAIR``/``STOREPAIR`` access a single 128-bit
  location; the two 64-bit registers hold the low and high halves.  The
  wrong-endian store bug [39] manifests as the *compiler* swapping the
  register operands, not as a semantics switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..core.errors import SimulationError
from ..core.events import EventKind
from ..core.expr import BinOp, Const, Expr, ReadVal, is_constant
from ..herd.templates import EventTemplate, PathConstraint, ThreadPath, ThreadProgram
from .isa.base import Instruction, IsaError, Op, get_isa
from .litmus import AsmLitmus, AsmThread

#: Registers that read as zero and discard writes, across all modelled ISAs.
ZERO_REGISTERS = frozenset({"xzr", "wzr", "zero", "x0/riscv"})

_LOW64 = (1 << 64) - 1

#: Cap on interpreted instructions per path: the analogue of herd's fixed
#: loop unroll factor (paper §I: "fixed loop unroll factor, no recursion").
DEFAULT_STEP_BUDGET = 512


def _is_zero_reg(name: Optional[str]) -> bool:
    return name is not None and name in ZERO_REGISTERS


@dataclass
class _AsmState:
    """Mutable exploration state for one path prefix."""

    regs: Dict[str, Expr]
    addrs: Dict[str, Tuple[str, int]]
    flags: Optional[Tuple[Expr, Expr]]
    templates: List[EventTemplate]
    constraints: List[PathConstraint]
    ctrl: FrozenSet[int]
    pc: int
    steps: int
    next_placeholder: int
    pending_exclusive: Optional[Tuple[str, int]]  # (location, template index)

    def fork(self) -> "_AsmState":
        return _AsmState(
            regs=dict(self.regs),
            addrs=dict(self.addrs),
            flags=self.flags,
            templates=list(self.templates),
            constraints=list(self.constraints),
            ctrl=self.ctrl,
            pc=self.pc,
            steps=self.steps,
            next_placeholder=self.next_placeholder,
            pending_exclusive=self.pending_exclusive,
        )


class AsmThreadElaborator:
    """Explodes one assembly thread into its control-flow paths."""

    def __init__(
        self,
        thread: AsmThread,
        litmus: AsmLitmus,
        step_budget: int = DEFAULT_STEP_BUDGET,
    ) -> None:
        self.thread = thread
        self.litmus = litmus
        self.step_budget = step_budget
        self.labels: Dict[str, int] = {}
        for index, instr in enumerate(thread.instructions):
            if instr.op is Op.LABEL and instr.label:
                if instr.label in self.labels:
                    raise SimulationError(
                        f"duplicate label {instr.label!r} in {thread.name}"
                    )
                self.labels[instr.label] = index

    # ------------------------------------------------------------------ #
    def run(self) -> ThreadProgram:
        initial = _AsmState(
            regs={},
            addrs={reg: (sym, 0) for reg, sym in self.thread.addr_env.items()},
            flags=None,
            templates=[],
            constraints=[],
            ctrl=frozenset(),
            pc=0,
            steps=0,
            next_placeholder=0,
            pending_exclusive=None,
        )
        finished: List[_AsmState] = []
        self._explore(initial, finished)
        if not finished:
            raise SimulationError(
                f"thread {self.thread.name}: no path finished within "
                f"{self.step_budget} steps (unbounded loop?)"
            )
        paths = []
        for state in finished:
            finals: Dict[str, Expr] = {}
            for reg, name in self.thread.observed.items():
                finals[name] = state.regs.get(reg, Const(0))
            paths.append(
                ThreadPath(
                    thread_name=self.thread.name,
                    templates=tuple(state.templates),
                    constraints=tuple(state.constraints),
                    finals=finals,
                )
            )
        return ThreadProgram(name=self.thread.name, tid=self.thread.tid, paths=tuple(paths))

    # ------------------------------------------------------------------ #
    def _explore(self, state: _AsmState, finished: List[_AsmState]) -> None:
        work = [state]
        while work:
            st = work.pop()
            done = False
            while not done:
                if st.pc >= len(self.thread.instructions):
                    finished.append(st)
                    done = True
                    break
                if st.steps >= self.step_budget:
                    # unbounded loop: drop this path (herd's bounded unroll)
                    done = True
                    break
                instr = self.thread.instructions[st.pc]
                st.steps += 1
                branches = self._step(instr, st)
                if branches is None:
                    continue  # _step advanced st.pc itself
                if not branches:
                    finished.append(st)
                    done = True
                    break
                st = branches[0]
                work.extend(branches[1:])

    # ------------------------------------------------------------------ #
    # instruction dispatch: returns None when ``state`` continues in place,
    # a list of successor states when control flow forks, [] on RET.
    # ------------------------------------------------------------------ #
    def _step(self, instr: Instruction, state: _AsmState) -> Optional[List[_AsmState]]:
        op = instr.op
        if op in (Op.LABEL, Op.NOP):
            state.pc += 1
            return None
        if op is Op.RET:
            return []
        if op is Op.MOVI:
            self._set_reg(state, instr.dst, Const(instr.imm or 0))
            state.addrs.pop(instr.dst, None)
            state.pc += 1
            return None
        if op is Op.MOVADDR:
            if instr.symbol is None:
                raise SimulationError("movaddr without a symbol")
            state.addrs[instr.dst] = (instr.symbol, instr.offset)
            self._set_reg(
                state,
                instr.dst,
                Const(self.litmus.layout.get(instr.symbol, 0) + instr.offset),
            )
            state.pc += 1
            return None
        if op is Op.MOV:
            self._set_reg(state, instr.dst, self._reg(state, instr.src1))
            if instr.src1 in state.addrs:
                state.addrs[instr.dst] = state.addrs[instr.src1]
            else:
                state.addrs.pop(instr.dst, None)
            state.pc += 1
            return None
        if op is Op.ALU:
            self._exec_alu(instr, state)
            state.pc += 1
            return None
        if op is Op.CMP:
            left = self._reg(state, instr.src1)
            right = (
                Const(instr.imm) if instr.src2 is None else self._reg(state, instr.src2)
            )
            state.flags = (left, right)
            state.pc += 1
            return None
        if op is Op.B:
            state.pc = self._target(instr)
            return None
        if op is Op.BCOND:
            if instr.src1 is not None:
                # fused compare-and-branch (RISC-V beq/bne, MIPS beq/bne)
                left = self._reg(state, instr.src1)
                right = (
                    self._reg(state, instr.src2)
                    if instr.src2 is not None
                    else Const(instr.imm or 0)
                )
            elif state.flags is not None:
                left, right = state.flags
            else:
                raise SimulationError("conditional branch with no preceding cmp")
            cond = BinOp(_COND_OPS[instr.cond], left, right).substitute({})
            return self._branch(instr, state, cond)
        if op in (Op.CBZ, Op.CBNZ):
            reg = self._reg(state, instr.src1)
            cmp_op = "==" if op is Op.CBZ else "!="
            cond = BinOp(cmp_op, reg, Const(0)).substitute({})
            return self._branch(instr, state, cond)
        if op is Op.FENCE:
            state.templates.append(
                EventTemplate(
                    kind=EventKind.FENCE,
                    tags=instr.fence_tags,
                    ctrl_deps=state.ctrl,
                )
            )
            state.pc += 1
            return None
        if op is Op.LOAD:
            self._exec_load(instr, state)
            state.pc += 1
            return None
        if op is Op.STORE:
            self._exec_store(instr, state)
            state.pc += 1
            return None
        if op is Op.LOADPAIR:
            self._exec_load_pair(instr, state)
            state.pc += 1
            return None
        if op is Op.STOREPAIR:
            self._exec_store_pair(instr, state)
            state.pc += 1
            return None
        if op is Op.AMO:
            self._exec_amo(instr, state)
            state.pc += 1
            return None
        if op is Op.LDX:
            self._exec_ldx(instr, state)
            state.pc += 1
            return None
        if op is Op.STX:
            self._exec_stx(instr, state)
            state.pc += 1
            return None
        raise SimulationError(f"cannot interpret instruction {instr!r}")

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _reg(self, state: _AsmState, name: Optional[str]) -> Expr:
        if name is None:
            raise SimulationError("instruction missing a source register")
        if _is_zero_reg(name):
            return Const(0)
        return state.regs.get(name, Const(0))

    def _set_reg(self, state: _AsmState, name: Optional[str], value: Expr) -> None:
        if name is None or _is_zero_reg(name):
            return
        state.regs[name] = value

    def _target(self, instr: Instruction) -> int:
        if instr.label is None or instr.label not in self.labels:
            raise SimulationError(
                f"branch to unknown label {instr.label!r} in {self.thread.name}"
            )
        return self.labels[instr.label]

    def _branch(
        self, instr: Instruction, state: _AsmState, cond: Expr
    ) -> List[_AsmState]:
        taken_pc = self._target(instr)
        if is_constant(cond):
            state.pc = taken_pc if cond.eval({}) else state.pc + 1
            return [state]
        taken = state.fork()
        taken.constraints.append(PathConstraint(cond, True))
        taken.ctrl = taken.ctrl | cond.reads()
        taken.pc = taken_pc
        fall = state
        fall.constraints.append(PathConstraint(cond, False))
        fall.ctrl = fall.ctrl | cond.reads()
        fall.pc += 1
        return [fall, taken]

    def _exec_alu(self, instr: Instruction, state: _AsmState) -> None:
        left = self._reg(state, instr.src1)
        right = (
            Const(instr.imm or 0) if instr.src2 is None else self._reg(state, instr.src2)
        )
        op = _ALU_OPS[instr.alu_op]
        self._set_reg(state, instr.dst, BinOp(op, left, right).substitute({}))
        # pointer arithmetic keeps the symbolic address view alive
        if (
            instr.src1 in state.addrs
            and instr.alu_op in ("add", "sub")
            and instr.src2 is None
        ):
            symbol, offset = state.addrs[instr.src1]
            delta = instr.imm or 0
            if instr.alu_op == "sub":
                delta = -delta
            state.addrs[instr.dst] = (symbol, offset + delta)
        elif instr.dst in state.addrs and instr.dst != instr.src1:
            state.addrs.pop(instr.dst, None)

    def _quote(self, instr: Instruction) -> str:
        """``instr`` in the litmus test's syntax, for an error message;
        the op name when the printer cannot render it, so an error path
        never raises a different error."""
        try:
            return get_isa(self.litmus.arch).print_instruction(instr)
        except (IsaError, KeyError):
            # no syntax for it, or a field outside the printer's tables
            return instr.op.value

    def _resolve(self, instr: Instruction, state: _AsmState) -> Tuple[str, FrozenSet[int]]:
        """Resolve a memory operand to a symbolic location.

        Returns the location plus the *address dependencies*: the read
        placeholders the address register's value derives from (non-empty
        when the address came out of memory, e.g. a GOT load).
        """
        if instr.addr_reg is None:
            raise SimulationError(f"memory access without address register: {instr!r}")
        if instr.addr_reg not in state.addrs:
            raise SimulationError(
                f"{self.thread.name}: register {instr.addr_reg!r} holds no "
                f"known address at {self._quote(instr)!r}"
            )
        symbol, base_offset = state.addrs[instr.addr_reg]
        offset = base_offset + instr.offset
        if symbol in self.litmus.regions:
            # a private multi-slot region (a thread stack): every offset is
            # its own derived location
            if not 0 <= offset < self.litmus.regions[symbol]:
                raise SimulationError(
                    f"access at offset {offset} outside region {symbol!r}"
                )
            loc = f"{symbol}+{offset}" if offset else symbol
        elif offset == 0:
            loc = symbol
        else:
            address = self.litmus.address_of(symbol) + offset
            loc, rest = self.litmus.symbol_at(address)
            if rest != 0:
                raise SimulationError(
                    f"misaligned access into {loc!r} (offset {rest})"
                )
        addr_value = state.regs.get(instr.addr_reg, Const(0))
        return loc, addr_value.reads()

    def _access_tags(self, instr: Instruction, *extra: str) -> FrozenSet[str]:
        tags = set(extra)
        if instr.acquire:
            tags.add("A")
        if instr.acquire_pc:
            tags.add("Q")
        if instr.release:
            tags.add("L")
        if instr.exclusive:
            tags.add("X")
        return frozenset(tags)

    def _emit_read(
        self,
        state: _AsmState,
        loc: str,
        width: int,
        tags: FrozenSet[str],
        addr_deps: FrozenSet[int],
    ) -> Expr:
        if self.litmus.is_const(loc):
            tags = tags | {"CONST"}
        placeholder = state.next_placeholder
        state.next_placeholder += 1
        state.templates.append(
            EventTemplate(
                kind=EventKind.READ,
                loc=loc,
                placeholder=placeholder,
                tags=tags,
                addr_deps=addr_deps,
                ctrl_deps=state.ctrl,
                width=width,
            )
        )
        return ReadVal(placeholder)

    def _emit_write(
        self,
        state: _AsmState,
        loc: str,
        value: Expr,
        width: int,
        tags: FrozenSet[str],
        addr_deps: FrozenSet[int],
        rmw_with_prev: bool = False,
        rmw_read_pos: Optional[int] = None,
    ) -> None:
        if self.litmus.is_const(loc):
            tags = tags | {"CONST"}
        state.templates.append(
            EventTemplate(
                kind=EventKind.WRITE,
                loc=loc,
                value_expr=value,
                tags=tags,
                addr_deps=addr_deps,
                ctrl_deps=state.ctrl,
                width=width,
                rmw_with_prev=rmw_with_prev,
                rmw_read_pos=rmw_read_pos,
            )
        )

    # ------------------------------------------------------------------ #
    # memory instructions
    # ------------------------------------------------------------------ #
    def _exec_load(self, instr: Instruction, state: _AsmState) -> None:
        loc, addr_deps = self._resolve(instr, state)
        value = self._emit_read(
            state, loc, self.litmus.width_of(loc), self._access_tags(instr), addr_deps
        )
        self._set_reg(state, instr.dst, value)
        if loc in self.litmus.addr_locations:
            # a GOT slot: the loaded value is the address of another symbol
            state.addrs[instr.dst] = (self.litmus.addr_locations[loc], 0)
        else:
            state.addrs.pop(instr.dst, None)

    def _exec_store(self, instr: Instruction, state: _AsmState) -> None:
        loc, addr_deps = self._resolve(instr, state)
        value = (
            Const(instr.imm) if instr.src1 is None else self._reg(state, instr.src1)
        )
        self._emit_write(
            state, loc, value, self.litmus.width_of(loc), self._access_tags(instr), addr_deps
        )

    def _exec_load_pair(self, instr: Instruction, state: _AsmState) -> None:
        loc, addr_deps = self._resolve(instr, state)
        old = self._emit_read(state, loc, 128, self._access_tags(instr), addr_deps)
        self._set_reg(state, instr.dst, BinOp("&", old, Const(_LOW64)).substitute({}))
        self._set_reg(state, instr.dst2, BinOp(">>", old, Const(64)).substitute({}))
        state.addrs.pop(instr.dst, None)
        state.addrs.pop(instr.dst2, None)

    def _exec_store_pair(self, instr: Instruction, state: _AsmState) -> None:
        loc, addr_deps = self._resolve(instr, state)
        low = self._reg(state, instr.src1)
        high = self._reg(state, instr.src2)
        value = BinOp(
            "|", low, BinOp("<<", high, Const(64))
        ).substitute({})
        self._emit_write(state, loc, value, 128, self._access_tags(instr), addr_deps)

    def _exec_amo(self, instr: Instruction, state: _AsmState) -> None:
        loc, addr_deps = self._resolve(instr, state)
        width = self.litmus.width_of(loc)
        noret = instr.dst is None or _is_zero_reg(instr.dst)
        read_tags = {"RMW-R", "X"}
        if instr.acquire:
            read_tags.add("A")
        if instr.acquire_pc:
            read_tags.add("Q")
        if noret:
            read_tags.add("NORET")
        old = self._emit_read(state, loc, width, frozenset(read_tags), addr_deps)
        operand = (
            Const(instr.imm or 0) if instr.src1 is None else self._reg(state, instr.src1)
        )
        new = _AMO_OPS[instr.amo_kind](old, operand)
        if not isinstance(new, Const):
            new = new.substitute({})
        write_tags = {"RMW-W", "X"}
        if instr.release:
            write_tags.add("L")
        self._emit_write(
            state, loc, new, width, frozenset(write_tags), addr_deps, rmw_with_prev=True
        )
        self._set_reg(state, instr.dst, old)

    def _exec_ldx(self, instr: Instruction, state: _AsmState) -> None:
        loc, addr_deps = self._resolve(instr, state)
        tags = self._access_tags(instr, "X", "RMW-R")
        if instr.op is Op.LDX and instr.width == 128:
            old = self._emit_read(state, loc, 128, tags, addr_deps)
            self._set_reg(state, instr.dst, BinOp("&", old, Const(_LOW64)).substitute({}))
            self._set_reg(state, instr.dst2, BinOp(">>", old, Const(64)).substitute({}))
        else:
            old = self._emit_read(
                state, loc, self.litmus.width_of(loc), tags, addr_deps
            )
            self._set_reg(state, instr.dst, old)
        state.pending_exclusive = (loc, len(state.templates) - 1)

    def _exec_stx(self, instr: Instruction, state: _AsmState) -> None:
        loc, addr_deps = self._resolve(instr, state)
        if state.pending_exclusive is None or state.pending_exclusive[0] != loc:
            raise SimulationError(
                f"{self.thread.name}: store-exclusive to {loc!r} without a "
                f"matching load-exclusive"
            )
        _, read_pos = state.pending_exclusive
        if instr.width == 128:
            low = self._reg(state, instr.src1)
            high = self._reg(state, instr.src2)
            value: Expr = BinOp("|", low, BinOp("<<", high, Const(64))).substitute({})
            width = 128
        else:
            value = self._reg(state, instr.src1)
            width = self.litmus.width_of(loc)
        tags = self._access_tags(instr, "X", "RMW-W")
        self._emit_write(
            state, loc, value, width, tags, addr_deps, rmw_read_pos=read_pos
        )
        state.pending_exclusive = None
        # Success-only modelling: the reservation always succeeds.  The
        # status convention is per-ISA (AArch64/Armv7 write 0 on success,
        # MIPS SC writes 1); ``instr.imm`` carries the success value.
        # PPC's stwcx. reports through CR0 instead of a register: model
        # that as an "equal" flags state so a following bne falls through.
        if instr.status is None:
            state.flags = (Const(0), Const(0))
        else:
            self._set_reg(state, instr.status, Const(instr.imm or 0))


_COND_OPS = {
    "eq": "==",
    "ne": "!=",
    "lt": "<",
    "le": "<=",
    "gt": ">",
    "ge": ">=",
}

_ALU_OPS = {
    "add": "+",
    "sub": "-",
    "and": "&",
    "or": "|",
    "xor": "^",
    "lsl": "<<",
    "lsr": ">>",
    "mul": "*",
}

_AMO_OPS = {
    "add": lambda old, v: BinOp("+", old, v),
    "sub": lambda old, v: BinOp("-", old, v),
    "or": lambda old, v: BinOp("|", old, v),
    "and": lambda old, v: BinOp("&", old, v),
    "xor": lambda old, v: BinOp("^", old, v),
    "swap": lambda old, v: v,
}


def elaborate_asm(
    litmus: AsmLitmus, step_budget: int = DEFAULT_STEP_BUDGET
) -> List[ThreadProgram]:
    """Produce the per-thread path sets of an assembly litmus test."""
    return [
        AsmThreadElaborator(t, litmus, step_budget=step_budget).run()
        for t in litmus.threads
    ]
