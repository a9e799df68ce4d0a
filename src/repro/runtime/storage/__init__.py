"""Durable storage tier behind :class:`~repro.runtime.checkpoint.DurableStore`.

See :mod:`repro.runtime.storage.base` for the backend contract and
error taxonomy, :mod:`~repro.runtime.storage.sqlite_backend` for the
SQLite-WAL implementation with process-death rehydration,
:mod:`~repro.runtime.storage.faultsim` for storage fault injection, and
:mod:`~repro.runtime.storage.harness` for the SIGKILL-and-rehydrate
harness (imported lazily — it forks).  Only :mod:`.base` loads with the
package; the codec and the backends (``sqlite3`` with them) are
exported lazily and load on first use.
"""

from __future__ import annotations

from ... import _lazy
from .base import (
    STATS,
    DurabilityStats,
    StorageBackend,
    StorageError,
    StorageRetryPolicy,
    StorageUnavailableError,
    TransientStorageError,
)

__getattr__, __dir__ = _lazy.exports(
    globals(),
    {
        "codec": ("DecodeContext", "StorageCodecError", "advance_id_floors"),
        "memory": ("MemoryBackend",),
        "sqlite_backend": (
            "SessionStorage",
            "SQLiteBackend",
            "open_for_rehydration",
            "rehydrate_session",
        ),
    },
)

__all__ = [
    "DecodeContext",
    "DurabilityStats",
    "MemoryBackend",
    "STATS",
    "SQLiteBackend",
    "SessionStorage",
    "StorageBackend",
    "StorageCodecError",
    "StorageError",
    "StorageRetryPolicy",
    "StorageUnavailableError",
    "TransientStorageError",
    "advance_id_floors",
    "open_for_rehydration",
    "rehydrate_session",
    "stats",
    "reset_stats",
]


def stats() -> dict:
    """Snapshot of the process-wide durability counters."""
    return STATS.as_dict()


def reset_stats() -> None:
    STATS.reset()
