"""Whole-pipeline content-addressed split cache.

For a fixed program, trust configuration, and acts-for hierarchy the
splitter's output is a pure function of its inputs, so this module
memoizes ``split_source`` results end to end, keyed by::

    (sha256(source), TrustConfiguration.fingerprint())

where the fingerprint covers hosts, preferences, field pins, link
costs, and every acts-for edge — any change to the trust assumptions
changes the key, so a stale split can never be served.  Placement has
one cost model and no caller-chosen solver, so nothing else enters the
key.

Two tiers:

* **memory** — the encoded artifact body (plain data from
  :mod:`.serialize`), keyed in-process.  Every hit *rehydrates a fresh*
  :class:`~repro.splitter.fragments.SplitProgram`, so callers that
  mutate their split (the attack tests do) can never poison later hits.
  Entries share what every program shares: each interned label's
  encoding is one immutable tuple memoized on the label, and names
  (identifiers, entry names) are interned strings, so an entry owns
  only its own lists, dicts and constants.  Those stay ordinary
  GC-tracked containers on purpose: with fewer long-lived tracked
  objects, ``perfbench``'s per-op young collections trigger full
  collections more often and push them into the latency tail.  A disk
  hit is promoted here re-encoded, in the same shared form.
* **disk** — optional, enabled by pointing ``REPRO_SPLIT_CACHE_DIR`` at
  a directory.  Artifacts are content-addressed files written with an
  atomic rename (concurrent ``fork_map`` workers race safely), carrying
  a format-version header, the full cache key, and a SHA-256 body
  digest.  A truncated, tampered, mis-keyed, or stale-format artifact
  is *verified away* at load: the loader records a miss and the caller
  recompiles — mirroring the fail-closed ``CheckpointTamperError``
  style, but without ever surfacing an exception for what is only a
  cache.

``REPRO_SPLIT_CACHE=0`` disables every lookup and every store, so the
uncached path is exactly the pre-cache pipeline.  Hit/miss counters
(:func:`stats`) feed the repo benchmark's per-layer cache report
(``perfbench/``) alongside the label cache stats.  The
differential battery in ``tests/splitter/test_split_cache.py`` pins
rehydrated splits observably identical to fresh compiles across both
tiers.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from typing import Dict, NamedTuple, Optional

from .serialize import (
    FORMAT_VERSION,
    SplitDecodeError,
    canonical_bytes,
    from_canonical_bytes,
)

#: Environment variable gating the whole cache; "0" disables it.
ENV_FLAG = "REPRO_SPLIT_CACHE"
#: Environment variable naming the on-disk artifact directory; unset
#: (the default) leaves the durable tier off.
ENV_DIR = "REPRO_SPLIT_CACHE_DIR"

#: First line of every artifact file; the version is part of the magic
#: so a stale-format artifact fails the cheapest possible check.
_MAGIC = f"repro-split-artifact v{FORMAT_VERSION}".encode("ascii")

_TMP_SERIAL = itertools.count()


def enabled() -> bool:
    """Whether the split cache is active (the default)."""
    return os.environ.get(ENV_FLAG, "1") != "0"


def artifact_dir() -> Optional[str]:
    """The on-disk tier's directory, or None when the tier is off."""
    return os.environ.get(ENV_DIR) or None


def digest(source: str) -> str:
    """The content address of ``source``: its SHA-256 hex digest."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class SplitKey(NamedTuple):
    """The full content address of one split."""

    source: str  #: sha256 hex digest of the program text
    config: str  #: TrustConfiguration.fingerprint()

    def digest(self) -> str:
        """One hex digest over all components — the artifact file name."""
        hasher = hashlib.sha256()
        for part in self:
            hasher.update(part.encode("ascii"))
            hasher.update(b"\x00")
        return hasher.hexdigest()


def split_key(source_digest: Optional[str], config) -> Optional[SplitKey]:
    """The cache key for one ``split_source`` call, or None when the
    cache is disabled or the source digest is unknown (e.g. a checked
    program whose AST was not built by ``parse_program``)."""
    if source_digest is None or not enabled():
        return None
    return SplitKey(source_digest, config.fingerprint())


class _Tier:
    """Hit/miss counters for one cache tier."""

    __slots__ = ("name", "hits", "misses")

    def __init__(self, name: str) -> None:
        self.name = name
        self.hits = 0
        self.misses = 0


_MEMORY_TIER = _Tier("split.memory")
_DISK_TIER = _Tier("split.disk")
_TIERS = (_MEMORY_TIER, _DISK_TIER)

#: memory tier: SplitKey -> encoded artifact body (plain data).
_MEMORY: Dict[SplitKey, Dict] = {}


# ---------------------------------------------------------------------------
# Disk tier
# ---------------------------------------------------------------------------


def artifact_path(key: SplitKey, directory: str) -> str:
    return os.path.join(directory, f"{key.digest()}.rsplit")


def _artifact_bytes(key: SplitKey, encoded: Dict) -> bytes:
    body = canonical_bytes({
        "key": key._asdict(),
        "split": encoded,
    })
    digest = hashlib.sha256(body).hexdigest().encode("ascii")
    return _MAGIC + b"\n" + digest + b"\n" + body


#: stale temp files younger than this are left alone when sweeping —
#: they may belong to a writer that is mid-publish right now.
_STALE_TMP_SECONDS = 60.0

_SWEPT_DIRS = set()


def _sweep_stale_tmp(directory: str) -> None:
    """Remove ``*.tmp-*`` litter left by writers that died between
    ``open`` and ``os.replace``.  Runs once per directory per process,
    the first time the disk tier is opened; an age guard keeps it from
    racing a live writer's unpublished temp file."""
    if directory in _SWEPT_DIRS:
        return
    _SWEPT_DIRS.add(directory)
    try:
        import time

        now = time.time()
        for name in os.listdir(directory):
            if ".tmp-" not in name:
                continue
            path = os.path.join(directory, name)
            try:
                if now - os.stat(path).st_mtime > _STALE_TMP_SECONDS:
                    os.unlink(path)
            except OSError:
                continue
    except OSError:
        pass


def _write_artifact(key: SplitKey, encoded: Dict, directory: str) -> None:
    """Atomic durable publish: write a private temp file, fsync it,
    ``os.replace`` it into place, then fsync the directory so the
    rename itself survives power loss.

    Concurrent writers of the same key race benignly — each rename
    installs a complete, digest-consistent artifact, and the last one
    wins.  Any OS-level failure is swallowed: the disk tier is an
    accelerator, never a correctness dependency.
    """
    try:
        os.makedirs(directory, exist_ok=True)
        path = artifact_path(key, directory)
        tmp = f"{path}.tmp-{os.getpid()}-{next(_TMP_SERIAL)}"
        with open(tmp, "wb") as handle:
            handle.write(_artifact_bytes(key, encoded))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass


def _read_artifact(key: SplitKey, directory: str) -> Optional[Dict]:
    """Load and fully verify one artifact; None on *any* defect.

    Verification order is cheapest-first: magic + format version, then
    the SHA-256 body digest (catches truncation and bit flips), then
    the embedded key (catches an artifact copied under the wrong file
    name — e.g. one produced for another configuration), then the strict
    structural decode.
    """
    try:
        with open(artifact_path(key, directory), "rb") as handle:
            raw = handle.read()
    except OSError:
        return None
    try:
        header, digest_line, body = raw.split(b"\n", 2)
    except ValueError:
        return None
    if header != _MAGIC:
        return None
    if hashlib.sha256(body).hexdigest().encode("ascii") != digest_line:
        return None
    try:
        data = from_canonical_bytes(body)
    except SplitDecodeError:
        return None
    if not isinstance(data, dict):
        return None
    embedded = data.get("key")
    if embedded != key._asdict():
        return None
    split = data.get("split")
    if not isinstance(split, dict):
        return None
    return split


# ---------------------------------------------------------------------------
# Lookup / store
# ---------------------------------------------------------------------------


def lookup(key: SplitKey, config):
    """A fresh :class:`SplitProgram` for ``key``, or None on a miss.

    Checks the memory tier, then (when ``REPRO_SPLIT_CACHE_DIR`` is
    set) the disk tier, promoting disk hits into memory.  Every hit
    rehydrates a brand-new program object; a body that fails to decode
    is discarded and counted as a miss, never raised.
    """
    from .serialize import decode_split, encode_split

    encoded = _MEMORY.get(key)
    if encoded is not None:
        try:
            split = decode_split(encoded, config)
        except SplitDecodeError:
            del _MEMORY[key]
        else:
            _MEMORY_TIER.hits += 1
            return split
    _MEMORY_TIER.misses += 1

    directory = artifact_dir()
    if directory is None:
        return None
    _sweep_stale_tmp(directory)
    encoded = _read_artifact(key, directory)
    if encoded is not None:
        try:
            split = decode_split(encoded, config)
        except SplitDecodeError:
            pass
        else:
            _DISK_TIER.hits += 1
            # Re-encoded, not the JSON body: the entry then shares each
            # label's memoized tuple like every other memory entry.
            _MEMORY[key] = encode_split(split)
            return split
    _DISK_TIER.misses += 1
    return None


def store(key: SplitKey, encoded: Dict) -> None:
    """Publish an encoded split under ``key`` to every enabled tier."""
    _MEMORY[key] = encoded
    directory = artifact_dir()
    if directory is not None:
        _sweep_stale_tmp(directory)
        _write_artifact(key, encoded, directory)


# ---------------------------------------------------------------------------
# Introspection
# ---------------------------------------------------------------------------


def stats() -> Dict[str, Dict[str, float]]:
    """Hit/miss counters per tier, in the same shape as
    :func:`repro.labels.cache.stats` so one reader can report both."""
    report = {}
    for tier in _TIERS:
        total = tier.hits + tier.misses
        report[tier.name] = {
            "hits": tier.hits,
            "misses": tier.misses,
            "entries": len(_MEMORY) if tier is _MEMORY_TIER else 0,
            "hit_rate": round(tier.hits / total, 4) if total else 0.0,
        }
    return report


def reset_stats() -> None:
    """Zero the counters without discarding cached artifacts."""
    for tier in _TIERS:
        tier.hits = 0
        tier.misses = 0


def clear() -> None:
    """Drop the in-memory tier and zero the counters (tests).  On-disk
    artifacts are left alone — delete the directory to clear them."""
    _MEMORY.clear()
    reset_stats()
