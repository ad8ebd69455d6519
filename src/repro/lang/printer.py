"""Pretty-printer: render a :class:`CLitmus` back to C source.

Used by ``l2c`` to produce the compilable program (paper Fig. 6 step 2)
and by examples/tests for round-tripping.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.events import MemoryOrder
from .ast import (
    Assign,
    AtomicLoad,
    AtomicRMW,
    AtomicStore,
    BinExpr,
    CExpr,
    CLitmus,
    CStmt,
    CThread,
    Decl,
    ExprStmt,
    Fence,
    If,
    IntLit,
    PlainLoad,
    PlainStore,
    UnExpr,
    Var,
    While,
)

_RMW_NAMES = {
    "add": "atomic_fetch_add_explicit",
    "sub": "atomic_fetch_sub_explicit",
    "or": "atomic_fetch_or_explicit",
    "and": "atomic_fetch_and_explicit",
    "xor": "atomic_fetch_xor_explicit",
    "xchg": "atomic_exchange_explicit",
}


def _order(mo: MemoryOrder) -> str:
    return mo.c11_spelling()


def print_expr(expr: CExpr) -> str:
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, BinExpr):
        return f"({print_expr(expr.left)} {expr.op} {print_expr(expr.right)})"
    if isinstance(expr, UnExpr):
        return f"{expr.op}({print_expr(expr.operand)})"
    if isinstance(expr, PlainLoad):
        return f"*{expr.loc}"
    if isinstance(expr, AtomicLoad):
        return f"atomic_load_explicit({expr.loc}, {_order(expr.order)})"
    if isinstance(expr, AtomicRMW):
        return (
            f"{_RMW_NAMES[expr.kind]}({expr.loc}, "
            f"{print_expr(expr.operand)}, {_order(expr.order)})"
        )
    raise TypeError(f"cannot print {expr!r}")


def print_stmt(stmt: CStmt, indent: int = 1) -> List[str]:
    pad = "    " * indent
    if isinstance(stmt, Decl):
        return [f"{pad}int {stmt.var} = {print_expr(stmt.expr)};"]
    if isinstance(stmt, Assign):
        return [f"{pad}{stmt.var} = {print_expr(stmt.expr)};"]
    if isinstance(stmt, PlainStore):
        return [f"{pad}*{stmt.loc} = {print_expr(stmt.expr)};"]
    if isinstance(stmt, AtomicStore):
        return [
            f"{pad}atomic_store_explicit({stmt.loc}, "
            f"{print_expr(stmt.expr)}, {_order(stmt.order)});"
        ]
    if isinstance(stmt, Fence):
        return [f"{pad}atomic_thread_fence({_order(stmt.order)});"]
    if isinstance(stmt, ExprStmt):
        return [f"{pad}{print_expr(stmt.expr)};"]
    if isinstance(stmt, If):
        lines = [f"{pad}if ({print_expr(stmt.cond)}) {{"]
        for s in stmt.then_body:
            lines.extend(print_stmt(s, indent + 1))
        if stmt.else_body:
            lines.append(f"{pad}}} else {{")
            for s in stmt.else_body:
                lines.extend(print_stmt(s, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, While):
        lines = [f"{pad}while ({print_expr(stmt.cond)}) {{"]
        for s in stmt.body:
            lines.extend(print_stmt(s, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    raise TypeError(f"cannot print {stmt!r}")


#: parameter pointee types by location width, (atomic, plain) — each one
#: the parser maps back to the same width
_PARAM_TYPES = {
    8: ("atomic_char", "char"),
    16: ("atomic_int16_t", "short"),
    32: ("atomic_int", "int"),
    64: ("atomic_long", "long"),
    128: ("atomic_int128", "__int128"),
}


def print_thread(thread: CThread, widths: Dict[str, int]) -> str:
    """Render one thread; ``widths`` (the test's location widths) types
    each pointer parameter, so a 128-bit location re-parses as one."""

    def param(name: str) -> str:
        atomic, plain = _PARAM_TYPES[widths.get(name, 32)]
        return f"{atomic if name in thread.atomic_params else plain}* {name}"

    params = ", ".join(param(p) for p in thread.params)
    lines = [f"void {thread.name}({params}) {{"]
    for stmt in thread.body:
        lines.extend(print_stmt(stmt))
    lines.append("}")
    return "\n".join(lines)


def print_c_litmus(litmus: CLitmus) -> str:
    """Render the litmus-test form (init block, threads, exists clause)."""
    init = " ".join(f"*{loc} = {val};" for loc, val in sorted(litmus.init.items()))
    parts = [f"C {litmus.name}", "{ " + init + " }", ""]
    for thread in litmus.threads:
        parts.append(print_thread(thread, litmus.widths))
        parts.append("")
    parts.append(str(litmus.condition))
    return "\n".join(parts)


def digest_source(litmus: CLitmus) -> str:
    """The canonical text :meth:`CLitmus.digest` hashes.

    The printed litmus form with the test *name* normalised out (a digest
    is content identity — two tests that differ only in name must share
    one), extended with the fields the printed form omits: non-default
    location widths and const qualifiers.  Printing is canonical — init
    sorted, memory orders by their C11 spelling — so a parse/print
    round-trip preserves the digest.
    """
    lines = print_c_litmus(litmus).splitlines()
    lines[0] = "C <test>"
    for loc, width in sorted(litmus.widths.items()):
        if width != 32:
            lines.append(f"width {loc} {width}")
    for loc in sorted(set(litmus.const_locations)):
        lines.append(f"const {loc}")
    return "\n".join(lines)


def print_c_program(litmus: CLitmus) -> str:
    """Render a *compilable* C program (l2c output): globals + functions.

    This is what ``c2s`` hands to the compiler-under-test — shared
    locations become globals, the exists clause becomes a comment.
    """
    lines = ["#include <stdatomic.h>", ""]
    for loc, val in sorted(litmus.init.items()):
        qualifier = "const " if loc in litmus.const_locations else ""
        width = litmus.width_of(loc)
        ctype = {8: "atomic_char", 16: "atomic_short", 32: "atomic_int", 64: "atomic_long", 128: "_Atomic __int128"}[width]
        lines.append(f"{qualifier}{ctype} {loc} = {val};")
    lines.append("")
    for thread in litmus.threads:
        lines.append(print_thread(thread, litmus.widths))
        lines.append("")
    lines.append(f"// {litmus.condition}")
    return "\n".join(lines)
