"""Memoization infrastructure for the label lattice hot path.

Every lattice operation (``flows_to``/``join``/``meet``/
``effective_readers``/``acts_for``) is recomputed from set algebra on
each call in the pristine implementation; the typechecker, the
splitter's candidate selection, and the per-message runtime checks ask
the same questions over and over.  Because labels and principals are
hash-consed (see ``labels.py``/``principals.py``), a question is fully
identified by the *identities* of its operands plus the version stamp
of the acts-for hierarchy it was asked under — so each cache here is a
plain dict keyed by small tuples of ints.

Soundness invariants (see docs/architecture.md, "Interning and
caching"):

* interned objects are immortal (the intern tables hold strong
  references), so ``id()`` values used in keys are never recycled;
* the acts-for hierarchy is append-only and versioned; every cache key
  involving delegation embeds ``hierarchy.cache_key`` (a unique serial
  plus the mutation count), so results computed under an older
  hierarchy state can never be returned for a newer one;
* cached values are themselves interned labels or frozensets — sharing
  them is safe because they are immutable.

Counters are cheap (two int increments per call) and feed the repo
benchmark's cache-hit-rate report (``perfbench/``).
"""

from __future__ import annotations

from typing import Dict

#: Sentinel distinguishing "not cached" from cached falsy results.
MISS = object()


class OpCache:
    """One memo table with hit/miss counters."""

    __slots__ = ("name", "table", "hits", "misses")

    def __init__(self, name: str) -> None:
        self.name = name
        self.table: Dict = {}
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        self.table.clear()
        self.hits = 0
        self.misses = 0


_REGISTRY: Dict[str, OpCache] = {}


def new_cache(name: str) -> OpCache:
    """Register a named cache (module import time only)."""
    cache = OpCache(name)
    _REGISTRY[name] = cache
    return cache


def stats() -> Dict[str, Dict[str, float]]:
    """Hit/miss counters for every registered cache."""
    report = {}
    for name, cache in sorted(_REGISTRY.items()):
        total = cache.hits + cache.misses
        report[name] = {
            "hits": cache.hits,
            "misses": cache.misses,
            "entries": len(cache.table),
            "hit_rate": round(cache.hits / total, 4) if total else 0.0,
        }
    return report


def reset_stats() -> None:
    """Zero the counters without discarding cached results."""
    for cache in _REGISTRY.values():
        cache.hits = 0
        cache.misses = 0


def clear_all() -> None:
    """Drop every cached result (tests use this to exercise cold paths)."""
    for cache in _REGISTRY.values():
        cache.clear()
