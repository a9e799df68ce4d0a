"""Durable state for crash recovery: write-ahead log + sealed checkpoints.

The fault model of :mod:`repro.runtime.faults` originally treated a
crash as fail-stop *with durable state*: a restarted host woke up with
every frame, field, and ICS entry intact, so "recovery" never actually
ran.  This module makes the split explicit.  Each host owns a
:class:`DurableStore` — its simulated stable storage — holding

* a **write-ahead log** of every state mutation since the last
  checkpoint (field and array writes first among them, but also frame
  variable writes, ICS pushes/pops, idempotency-table inserts, and
  deferred-forward bookkeeping: everything a bit-identical recovery
  needs), appended *before* the effect is acknowledged to any peer; and
* a periodic **checkpoint**: a full snapshot of the host's volatile
  state (frames, ICS slice, dedup/seq state, fields, arrays, pending
  forwards), encoded once with the storage codec
  (:func:`repro.runtime.storage.codec.dumps`) and sealed once as
  ``HMAC_k(h)("checkpoint|" + epoch + "|" + blob)`` under the host's
  own key — the same key and registry that sign capability tokens
  (:mod:`repro.runtime.tokens`).  Taking a checkpoint compacts the WAL.

A persistent backend receives the very same ``(epoch, blob, seal)``
checkpoint row, plus one row per WAL record sealed as
``HMAC_k(h)("wal-record|" + epoch + "|" + index + "|" + blob)``.  This
module writes both row formats and is the only one that checks them:
:meth:`DurableStore.rehydrate` reads a dead process's rows back.

Stable storage is *untrusted*: a bad host (or a bad storage service)
may overwrite it.  The seal makes tampering detectable — recovery
verifies the checkpoint's MAC and its epoch against the host's sealed
monotonic counter (``high_water``, conceptually a TPM register the
storage attacker cannot roll back) and **fails closed** with
:class:`CheckpointTamperError` rather than loading forged or
rolled-back state.  Loading decodes the blob, so every restore starts
from a fresh copy.

Recovery announcements ride the same machinery: a restarted host
broadcasts ``recover`` carrying ``(host, epoch, seq)`` sealed with its
key (:func:`recovery_blob` is the byte format), so peers can tell a
genuine announcement from a fabricated or replayed one.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .storage import codec as _codec
from .storage.base import STATS as _STATS


class CheckpointTamperError(RuntimeError):
    """Stable storage failed verification: forged seal, missing
    checkpoint, or an epoch that does not match the host's sealed
    monotonic counter (a rollback).  Recovery fails closed."""


def recovery_blob(host: str, epoch: int, seq: int) -> bytes:
    """The sealed byte format of a recovery announcement."""
    return f"{host}|{epoch}|{seq}".encode()


def _tamper(host: str, why: str) -> CheckpointTamperError:
    return CheckpointTamperError(f"{host}: {why}")


# The payloads under the row seals (the token factory prefixes the
# purpose, ``"checkpoint|"`` or ``"wal-record|"``).


def _checkpoint_body(epoch: int, blob: str) -> bytes:
    return b"%d|" % epoch + blob.encode()


def _wal_body(epoch: int, index: int, blob: str) -> bytes:
    return b"%d|%d|" % (epoch, index) + blob.encode()


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------


class Checkpoint:
    """One sealed snapshot of a host's volatile state.

    ``blob`` is the state's codec JSON and ``seal`` the host-keyed HMAC
    over ``epoch|blob``; the same row goes to the persistent tier.
    """

    __slots__ = ("host", "epoch", "blob", "seal")

    def __init__(self, host: str, epoch: int, blob: str, seal: bytes) -> None:
        self.host = host
        self.epoch = epoch
        self.blob = blob
        self.seal = seal

    def __repr__(self) -> str:
        return f"Checkpoint({self.host} epoch={self.epoch})"


class DurableStore:
    """A host's simulated stable storage: checkpoint + WAL.

    The ``factory`` is the host's :class:`~repro.runtime.tokens.
    TokenFactory`; checkpoint seals and recovery-announcement seals are
    HMACs under the same per-host key that signs capability tokens.
    ``high_water`` and ``recoveries`` model sealed monotonic counters
    (e.g. TPM registers): the storage attacker can replace the
    checkpoint and the log, but cannot wind these back, which is what
    makes rollback detectable.
    """

    #: messages a host processes between checkpoints.
    interval = 4

    def __init__(self, host: str, factory, backend=None) -> None:
        self.host = host
        self._factory = factory
        #: optional persistent tier (a
        #: :class:`~repro.runtime.storage.base.StorageBackend`).  The
        #: in-memory structures above stay authoritative — the backend
        #: receives sealed *copies* so a fresh process can rehydrate.
        #: ``None`` (the default) persists nothing and costs nothing.
        self.backend = backend
        self.checkpoint: Optional[Checkpoint] = None
        #: mutations since the last checkpoint, in apply order.
        self.wal: List[Tuple] = []
        #: sealed monotonic counter: epoch of the latest legitimate
        #: checkpoint.  Not writable from stable storage.
        self.high_water = 0
        #: sealed monotonic counter of completed recoveries (makes
        #: every announcement unique, so replays are detectable).
        self.recoveries = 0
        #: messages processed since the last checkpoint (one is taken
        #: every :attr:`interval`).
        self.processed = 0
        #: lifetime statistics.
        self.checkpoints_taken = 0

    # -- write path --------------------------------------------------------

    def log(self, *entry: Any) -> None:
        """Append one mutation record to the write-ahead log."""
        self.wal.append(entry)
        if self.backend is not None:
            self._persist_wal(len(self.wal) - 1, entry)

    def take_checkpoint(self, state: Dict[str, Any]) -> Checkpoint:
        """Seal ``state`` as the new checkpoint and compact the WAL.

        The state is encoded on the spot, so ``state`` may hold the
        host's live containers: later mutations never reach the blob."""
        epoch = self.high_water + 1
        blob = _codec.dumps(state)
        checkpoint = Checkpoint(
            self.host, epoch, blob,
            self._factory.seal("checkpoint", _checkpoint_body(epoch, blob)),
        )
        self.checkpoint = checkpoint
        self.high_water = epoch
        self.wal = []
        self.processed = 0
        self.checkpoints_taken += 1
        if self.backend is not None:
            self._persist_checkpoint(checkpoint)
        return checkpoint

    # -- persistent tier (write-through copies) ----------------------------

    def _persist_wal(self, index: int, entry: Tuple) -> None:
        """Write one sealed WAL record through to the backend.

        The row seal binds (epoch, index, record) under the host key, so
        a storage attacker can neither forge, reorder, nor splice
        records across epochs."""
        blob = _codec.dumps(entry)
        seal = self._factory.seal(
            "wal-record", _wal_body(self.high_water, index, blob)
        )
        _STATS.appends += 1
        self.backend.append_wal(self.high_water, index, blob, seal)

    def _persist_checkpoint(self, checkpoint: Checkpoint) -> None:
        """Write the sealed checkpoint row through to the backend (which
        compacts the persisted WAL rows it supersedes)."""
        _STATS.checkpoints += 1
        self.backend.save_checkpoint(
            checkpoint.epoch, checkpoint.blob, checkpoint.seal
        )

    def republish(self) -> None:
        """Re-write the current checkpoint and WAL through a newly
        attached backend, so a store that lived memory-only until now
        becomes rehydratable from this point on."""
        if self.backend is None:
            return
        self.backend.reset_run()
        if self.checkpoint is not None:
            self._persist_checkpoint(self.checkpoint)
        for index, entry in enumerate(self.wal):
            self._persist_wal(index, entry)

    def reset(self) -> None:
        """Clear the store in place for session recycling.

        Drops the checkpoint and the WAL.  The sealed counters
        ``high_water`` and ``recoveries`` carry on into the new storage
        lifetime: the host key (via the shared factory) is kept — it is
        a per-(split, registry) artifact of the runtime image — so a
        checkpoint or WAL row sealed in an earlier lifetime would verify
        again if ``high_water`` restarted at 0.  Carried on, its epoch is
        behind the sealed counter: a rollback.
        """
        self.checkpoint = None
        self.wal.clear()
        self.processed = 0
        self.checkpoints_taken = 0
        if self.backend is not None:
            self.backend.reset_run()

    # -- recovery path -----------------------------------------------------

    def load(
        self, ctx: Optional[_codec.DecodeContext] = None
    ) -> Tuple[Dict[str, Any], List[Tuple]]:
        """Verify and return (state, WAL suffix) for recovery.

        The state is decoded from the sealed blob, so it is a fresh copy
        on every call; ``ctx`` collects the ids it contains.  Raises
        :class:`CheckpointTamperError` — fail closed — when the
        checkpoint is missing, its seal does not verify, its epoch
        disagrees with the sealed ``high_water`` counter (rollback), or
        its blob does not decode.
        """
        checkpoint = self.checkpoint
        if checkpoint is None:
            raise _tamper(self.host, "no checkpoint in stable storage")
        if not self._factory.verify_seal(
            self.host, "checkpoint",
            _checkpoint_body(checkpoint.epoch, checkpoint.blob),
            checkpoint.seal,
        ):
            raise _tamper(self.host, "checkpoint seal verification failed")
        if checkpoint.epoch != self.high_water:
            raise _tamper(
                self.host,
                f"checkpoint epoch {checkpoint.epoch} does not match the "
                f"sealed counter {self.high_water} (rollback)",
            )
        try:
            state = _codec.loads(checkpoint.blob, ctx)
        except _codec.StorageCodecError as error:
            raise _tamper(
                self.host, f"undecodable checkpoint: {error}"
            ) from error
        return state, list(self.wal)

    @classmethod
    def rehydrate(
        cls,
        host: str,
        factory,
        backend,
        counters: Dict[str, int],
        ctx: _codec.DecodeContext,
    ) -> "DurableStore":
        """Rebuild a dead process's store from its persisted rows.

        ``counters`` are the store's sealed counters as the session
        journal recorded them.  Every WAL row must carry its own index,
        the current epoch and a valid seal, and the row count must match
        the journal (a truncated log fails closed); WAL records decode
        into ``ctx``.  The checkpoint row is installed unchecked —
        :meth:`load` verifies it like any in-memory checkpoint.
        """
        store = cls(host, factory, backend=backend)
        store.high_water = counters["high_water"]
        store.recoveries = counters["recoveries"]
        store.processed = counters["processed"]
        store.checkpoints_taken = counters["checkpoints_taken"]
        row = backend.load_checkpoint()
        if row is not None:
            epoch, blob, seal = row
            store.checkpoint = Checkpoint(host, epoch, blob, seal)
        rows = backend.load_wal()
        if len(rows) != counters["wal_len"]:
            raise _tamper(
                host,
                f"WAL has {len(rows)} records, sealed counter says "
                f"{counters['wal_len']} (truncation)",
            )
        for position, (index, epoch, blob, seal) in enumerate(rows):
            if (
                index != position
                or epoch != store.high_water
                or not factory.verify_seal(
                    host, "wal-record", _wal_body(epoch, index, blob), seal
                )
            ):
                raise _tamper(
                    host,
                    f"WAL record {index} does not verify as record "
                    f"{position} of epoch {store.high_water}",
                )
            try:
                store.wal.append(tuple(_codec.loads(blob, ctx)))
            except _codec.StorageCodecError as error:
                raise _tamper(
                    host, f"undecodable WAL record {index}: {error}"
                ) from error
        return store
