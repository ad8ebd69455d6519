"""Source spans: where in a model or test a construct came from.

Both in-tree DSLs (the Cat model language and the C litmus surface
syntax) tokenize with line/column bookkeeping; a :class:`Span` carries
that position onto AST nodes and diagnostics so sort errors and semantic
lints (:mod:`repro.analysis`) point at the offending token instead of
"somewhere in the model".

Spans never participate in AST equality (nodes carry them in
``compare=False`` fields): two parses of the same text are equal, and a
hand-built AST equals a parsed one.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    """A half-open source region, 1-based; ``end_*`` of 0 means unknown."""

    line: int
    column: int = 0
    end_line: int = 0
    end_column: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"

    @staticmethod
    def at(line: int, column: int = 0, width: int = 0) -> "Span":
        """The span of a token at ``line``/``column``, ``width`` chars wide."""
        end_column = column + width if width and column else 0
        return Span(line, column, line if width and column else 0, end_column)
