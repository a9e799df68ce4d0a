"""Whole-pipeline content-addressed split cache.

For a fixed program, trust configuration, and acts-for hierarchy the
splitter's output is a pure function of its inputs, so this module
memoizes ``split_source`` results end to end, keyed by::

    (sha256(source), TrustConfiguration.fingerprint())

where the fingerprint covers hosts, preferences, field pins, link
costs, and every acts-for edge — any change to the trust assumptions
changes the key, so a stale split can never be served.  Placement has
one cost model and no caller-chosen solver, so nothing else enters the
key.  Only source text is keyed: a checked program always runs the
full pipeline.

There is one tier, in-process memory: the encoded split (plain data
from :mod:`.serialize`) of every split this process has validated.
Every hit *rehydrates a fresh* :class:`~repro.splitter.fragments.SplitProgram`,
so callers that mutate their split (the attack tests do) can never
poison later hits.  Entries share what every program shares: each
interned label's encoding is one immutable tuple memoized on the label,
and names (identifiers, entry names) are interned strings, so an entry
owns only its own lists, dicts and constants.  Those stay ordinary
GC-tracked containers on purpose: with fewer long-lived tracked
objects, ``perfbench``'s per-op young collections trigger full
collections more often and push them into the latency tail.

Hit/miss counters (:func:`stats`) feed the repo benchmark's per-layer
cache report (``perfbench/``) alongside the label cache stats.  The
differential battery in ``tests/splitter/test_split_cache.py`` pins
rehydrated splits observably identical to fresh compiles.
"""

from __future__ import annotations

import hashlib
from typing import Dict, NamedTuple

from .serialize import SplitDecodeError, decode_split


class SplitKey(NamedTuple):
    """The full content address of one split."""

    source: str  #: sha256 hex digest of the program text
    config: str  #: TrustConfiguration.fingerprint()


def split_key(source: str, config) -> SplitKey:
    """The cache key for one ``split_source`` call."""
    return SplitKey(
        hashlib.sha256(source.encode("utf-8")).hexdigest(),
        config.fingerprint(),
    )


_HITS = 0
_MISSES = 0

#: SplitKey -> encoded split (plain data).
_MEMORY: Dict[SplitKey, Dict] = {}


def lookup(key: SplitKey, config):
    """A fresh :class:`SplitProgram` for ``key``, or None on a miss.

    Every hit rehydrates a brand-new program object; an entry that
    fails to decode is discarded and counted as a miss, never raised.
    """
    global _HITS, _MISSES
    encoded = _MEMORY.get(key)
    if encoded is not None:
        try:
            split = decode_split(encoded, config)
        except SplitDecodeError:
            del _MEMORY[key]
        else:
            _HITS += 1
            return split
    _MISSES += 1
    return None


def store(key: SplitKey, encoded: Dict) -> None:
    """Publish an encoded split under ``key``."""
    _MEMORY[key] = encoded


def stats() -> Dict[str, Dict[str, float]]:
    """Hit/miss counters, in the same shape as
    :func:`repro.labels.cache.stats` so one reader can report both."""
    total = _HITS + _MISSES
    return {
        "split.memory": {
            "hits": _HITS,
            "misses": _MISSES,
            "entries": len(_MEMORY),
            "hit_rate": round(_HITS / total, 4) if total else 0.0,
        }
    }


def clear() -> None:
    """Drop every cached split and zero the counters."""
    global _HITS, _MISSES
    _MEMORY.clear()
    _HITS = _MISSES = 0
