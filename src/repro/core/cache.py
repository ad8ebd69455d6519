"""A thread-safe exactly-once keyed cache with hit/miss counters.

Grown out of the campaign runner's source-simulation cache (PR 1); it
now backs each stage of the toolchain's artifact cache, the one cache
in the tree, with this contract:

* ``get(key, producer)`` runs ``producer`` at most once per key, even
  under a worker pool — concurrent callers for the same key block until
  the first producer lands, distinct keys produce concurrently;
* the produced value (or the :class:`~repro.core.errors.ReproError` /
  :class:`~repro.core.errors.SimulationTimeout` it raised) is replayed
  to every later caller, so a timing-out simulation is paid for once;
* unexpected exceptions are *not* cached — the claim is released and
  waiters retry, so one transient crash cannot poison a key forever.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict

from .errors import ReproError, SimulationTimeout


class KeyedCache:
    """An exactly-once ``key → value`` cache (see module docstring)."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._store: Dict = {}
        self._inflight: set = set()
        self._cond = threading.Condition()

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key) -> bool:
        with self._cond:
            return key in self._store

    def peek(self, key):
        """What ``key`` holds — its value, or the error it raised — or
        ``None`` if absent; counts neither a hit nor a miss."""
        with self._cond:
            entry = self._store.get(key)
        return None if entry is None else entry[1]

    def clear(self) -> int:
        """Drop every cached entry (counters keep running).

        Safe under concurrency: in-flight producers are untouched — a
        waiter that finds its key gone simply claims and recomputes, the
        same path as a cold miss.  Returns the number of entries dropped.
        """
        with self._cond:
            dropped = len(self._store)
            self._store.clear()
            self._cond.notify_all()
        return dropped

    def get(self, key, producer: Callable):
        with self._cond:
            while True:
                if key in self._store:
                    self.hits += 1
                    kind, payload = self._store[key]
                    if kind == "error":
                        raise payload
                    return payload
                if key not in self._inflight:
                    # we claim this key; the producer runs outside the
                    # lock so distinct keys simulate concurrently
                    self._inflight.add(key)
                    self.misses += 1
                    break
                self._cond.wait()
        try:
            entry = ("value", producer())
        except (SimulationTimeout, ReproError) as exc:
            entry = ("error", exc)
        except BaseException:
            # unexpected failure: don't cache, don't strand the waiters
            with self._cond:
                self._inflight.discard(key)
                self._cond.notify_all()
            raise
        with self._cond:
            self._store[key] = entry
            self._inflight.discard(key)
            self._cond.notify_all()
        if entry[0] == "error":
            raise entry[1]
        return entry[1]
