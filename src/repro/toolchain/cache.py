"""The per-stage artifact cache.

PR 1's caches were *per cell*: one entry per (test, profile, model)
combination, so re-checking a test under a second target model or a
second compiler profile recomputed every intermediate product.  The
artifact cache is *per stage*: compiled objects, lifted litmus tests and
outcome sets are cached under their content addresses independently, so

* a campaign re-run under a new target model reuses every ``compile``
  and ``lift`` artifact (only the target simulation and compare re-run);
* the two branches of a differential cell share one ``prepare`` artifact
  and one source-side ``OutcomeSet``;
* two profiles that compile a test identically keep separate
  ``compile`` and ``lift`` artifacts (profile identity is part of those
  keys) but share one target simulation: ``simulate-target`` is keyed
  by the lifted program's content, so any two cells — across profiles
  or tests — that produce the same program simulate it once.

Exactly-once semantics, error caching and thread safety come from
:class:`repro.core.cache.KeyedCache`; this module adds the per-stage
partitioning and the hit/miss accounting the cache-reuse benchmarks and
acceptance tests are stated in.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional

from ..core.cache import KeyedCache


class ArtifactCache:
    """One :class:`KeyedCache` per stage name, created on demand.

    ``max_entries`` (per stage) bounds memory: artifacts hold compiled
    objects, disassembly listings and outcome sets, so an unbounded
    cache grows linearly with the cells a long-lived consumer evaluates.
    When a stage's cache exceeds the bound it is dropped wholesale (the
    next consumer recomputes — correctness is unaffected, only reuse).
    Hits are never sacrificed: the bound is checked on the miss path
    only, so a key already cached replays even at capacity.  Sessions
    bound their cache at 4096 entries per stage by default
    (``Session(artifact_cache_entries=...)``); the campaign engine's
    worker processes :meth:`clear` theirs after every task instead.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        self.max_entries = max_entries
        self._stages: Dict[str, KeyedCache] = {}
        self._lock = threading.Lock()

    def stage(self, name: str) -> KeyedCache:
        with self._lock:
            if name not in self._stages:
                self._stages[name] = KeyedCache()
            return self._stages[name]

    def get(self, stage: str, key: str, producer: Callable):
        cache = self.stage(stage)
        if (
            self.max_entries is not None
            and len(cache) >= self.max_entries
            and key not in cache  # never turn a hit into a recompute
        ):
            cache.clear()
        return cache.get(key, producer)

    def clear(self) -> None:
        """Drop every stage's entries; the hit/miss counters keep
        running."""
        with self._lock:
            snapshot = list(self._stages.values())
        for cache in snapshot:
            cache.clear()

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def hits(self, stage: str) -> int:
        return self.stage(stage).hits

    def misses(self, stage: str) -> int:
        """Actual stage executions — the "work done" counter the
        acceptance criteria are stated in (a 2-profile differential
        campaign compiles each (test, profile) exactly once ⇔
        ``misses("compile") == tests × profiles``)."""
        return self.stage(stage).misses

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-stage counters, for ``Session.toolchain()`` introspection
        and the cache-reuse benchmark."""
        with self._lock:
            snapshot = dict(self._stages)
        return {
            name: {
                "hits": cache.hits,
                "misses": cache.misses,
                "entries": len(cache),
            }
            for name, cache in sorted(snapshot.items())
        }
