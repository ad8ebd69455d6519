"""``c2s`` — c2assembly: compile and disassemble (paper Fig. 6, step 3).

Drives the miniature compiler exactly the way the paper drives LLVM/GCC:
compile the prepared source with a profile's flags to a relocatable
object file (``-c -g`` — relocations and debug metadata preserved), then
disassemble it to the numeric text listing ``s2l`` will parse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..compiler.backends import compile_program
from ..compiler.disasm import disassemble
from ..compiler.lower import lower
from ..compiler.objfile import ObjectFile, link_layout
from ..compiler.profiles import CompilerProfile
from ..lang.ast import CLitmus


@dataclass
class C2SResult:
    """Everything c2s hands to s2l: the object file, its disassembly, and
    the state-mapping seed (observed local → machine register)."""

    obj: ObjectFile
    listing: Dict[str, List[str]]


def compile_and_disassemble(litmus: CLitmus, profile: CompilerProfile) -> C2SResult:
    """Compile a prepared C litmus test and disassemble the object file."""
    program = lower(litmus)
    unit = compile_program(program, profile)
    obj = link_layout(unit)
    return C2SResult(obj=obj, listing=disassemble(obj))
