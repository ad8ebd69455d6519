"""A cheap field-update copy for hot frozen dataclass records.

``dataclasses.replace`` re-runs the generated ``__init__`` (and every
frozen ``object.__setattr__`` in it) for each copy; on records the
toolchain copies tens of thousands of times per farm pass —
instructions, IR instructions, events — that dominated the profile.
:func:`frozen_copy` copies the instance ``__dict__`` instead.

It is only sound for types whose ``__init__`` does nothing but store
fields: a ``__post_init__`` would be a validation (or derived field)
the copy silently skips, so such types are refused outright.
"""

from __future__ import annotations

from typing import Any, TypeVar

T = TypeVar("T")


def frozen_copy(record: T, **changes: Any) -> T:
    """``dataclasses.replace(record, **changes)`` without re-running
    ``__init__``.

    Raises :class:`TypeError` for a type with a ``__post_init__`` or a
    change naming no field, as ``replace`` would for the latter.
    """
    cls = type(record)
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__} validates in __post_init__; use dataclasses.replace")
    if not changes.keys() <= cls.__dataclass_fields__.keys():  # type: ignore[attr-defined]
        unknown = sorted(changes.keys() - cls.__dataclass_fields__.keys())  # type: ignore[attr-defined]
        raise TypeError(f"{cls.__name__} has no field(s) {unknown}")
    copy = object.__new__(cls)
    state = copy.__dict__
    state.update(record.__dict__)
    state.update(changes)
    return copy
