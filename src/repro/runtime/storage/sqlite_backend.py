"""SQLite(WAL)-backed durable tier with process-death rehydration.

One :class:`SessionStorage` owns one directory holding

* ``session.db`` — a SQLite database in WAL journal mode.  Tables:
  per-host ``checkpoints`` and write-ahead ``wal`` rows (sealed under
  each host's own key by its
  :class:`~repro.runtime.checkpoint.DurableStore`, a checkpoint row
  being the in-memory checkpoint itself — the database never sees key
  material), a session-level ``journal`` row (execution flags,
  accounting, per-store counters, the id high-water marks), a snapshot
  of the pending control ``queue``, and the append-only ``flows`` log.
* ``sealed.json`` — the simulated TPM/HSM sidecar: the session's HMAC
  keys and a monotonic ``boundary`` counter.  It models sealed secure
  hardware (the same assumption :class:`DurableStore`'s ``high_water``
  counter already makes), so it is trusted by construction; every
  tamper test attacks only the database.

**Single writer, per-boundary transactions.**  The session is the only
writer.  Each step opens an explicit transaction before the control
message is handled; every WAL append and checkpoint the step performs
lands inside it; at the step boundary the queue snapshot, new flow
rows, and the sealed journal commit atomically, then the sidecar is
published with an fsync'd atomic rename.  A SIGKILL at any instruction
therefore leaves either boundary N or boundary N+1 — never a torn
state — and rehydration resumes from the last committed boundary by
re-executing deterministically.

**Rehydration** (:func:`rehydrate_session`): read the sidecar (missing
→ :class:`StorageUnavailableError`), verify the journal seal and its
boundary against the sidecar counter (a lone ``boundary+1`` is the
commit-then-sidecar crash window and rolls forward — safe because the
journal seal is unforgeable; anything else is a rollback and fails
closed), install host keys into a fresh registry, read each host's
checkpoint and WAL rows back through
:meth:`~repro.runtime.checkpoint.DurableStore.rehydrate` (which alone
knows their seal formats), restore each host through the same
verify-install-replay path as an in-process restart, restore the
queue/flow/accounting state, and run a management-plane recovery
handshake (each peer verifies the recovered host's sealed announcement
directly — no counted protocol messages, so message counts stay
bit-identical to the fault-free oracle).  Any verification or decode failure raises
:class:`~repro.runtime.checkpoint.CheckpointTamperError`.

**Graceful degradation.**  Every backend operation funnels through
:meth:`SessionStorage._run`: locked/busy errors retry under a bounded
:class:`~repro.runtime.storage.base.StorageRetryPolicy`; exhaustion or
any hard error (corrupt page, disk full, I/O error) *degrades* the
storage — the connection closes, a ``degraded`` trace event is
recorded, and the session keeps running on its authoritative in-memory
state.  A live run never crashes because its disk went away.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import random
import sqlite3
import time
from collections import Counter, deque
from itertools import count as _count
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import codec
from .base import (
    STATS,
    StorageBackend,
    StorageRetryPolicy,
    StorageUnavailableError,
    TransientStorageError,
)

_SIDECAR_FORMAT = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS checkpoints (
    host TEXT PRIMARY KEY, epoch INTEGER NOT NULL,
    blob TEXT NOT NULL, seal BLOB NOT NULL);
CREATE TABLE IF NOT EXISTS wal (
    host TEXT NOT NULL, idx INTEGER NOT NULL, epoch INTEGER NOT NULL,
    blob TEXT NOT NULL, seal BLOB NOT NULL,
    PRIMARY KEY (host, idx));
CREATE TABLE IF NOT EXISTS journal (
    id INTEGER PRIMARY KEY CHECK (id = 1),
    boundary INTEGER NOT NULL, blob TEXT NOT NULL, seal BLOB NOT NULL);
CREATE TABLE IF NOT EXISTS queue (
    idx INTEGER PRIMARY KEY, blob TEXT NOT NULL, seal BLOB NOT NULL);
CREATE TABLE IF NOT EXISTS flows (
    idx INTEGER PRIMARY KEY, blob TEXT NOT NULL, seal BLOB NOT NULL);
"""


def _tamper(host: Optional[str], why: str):
    from ..checkpoint import CheckpointTamperError

    return CheckpointTamperError(
        f"{host}: {why}" if host else why
    )


class SessionStorage:
    """The durable tier of one session: SQLite database + sealed sidecar."""

    def __init__(
        self,
        directory: str,
        retry: Optional[StorageRetryPolicy] = None,
    ) -> None:
        self.directory = directory
        self.db_path = os.path.join(directory, "session.db")
        self.sidecar_path = os.path.join(directory, "sealed.json")
        self.retry = retry or StorageRetryPolicy()
        #: False once degraded: every further operation is a no-op.
        self.available = True
        self.degraded_reason: Optional[str] = None
        #: session callback fired exactly once, at degradation.
        self.on_degrade: Optional[Callable[[str], None]] = None
        #: test hooks: fault injection per op, kill-harness triggers.
        self.fault_hook: Optional[Callable[[str], None]] = None
        self.wal_hook: Optional[Callable[[str, int, int], None]] = None
        self.boundary_hook: Optional[Callable[[int], None]] = None
        self._conn: Optional[sqlite3.Connection] = None
        self._session_key = os.urandom(32)
        self._keys: Dict[str, bytes] = {}
        self._digest: Optional[str] = None
        self._boundary = 0
        self._flow_len = 0
        self._in_txn = False
        self._open()

    # -- lifecycle ---------------------------------------------------------

    def _open(self) -> None:
        def work():
            os.makedirs(self.directory, exist_ok=True)
            conn = sqlite3.connect(self.db_path, isolation_level=None)
            conn.execute("PRAGMA journal_mode=WAL")
            # WAL + NORMAL: a commit survives process death (the
            # failure model); the sidecar publish fsyncs on its own.
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
            self._conn = conn

        self._run("open", work)

    def close(self) -> None:
        conn = self._conn
        self._conn = None
        if conn is not None:
            try:
                if self._in_txn:
                    conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass
            try:
                conn.close()
            except sqlite3.Error:
                pass
        self._in_txn = False

    # -- degradation funnel ------------------------------------------------

    def _degrade(self, reason: str) -> None:
        if not self.available:
            return
        self.available = False
        self.degraded_reason = reason
        self.close()
        STATS.degradations += 1
        if self.on_degrade is not None:
            self.on_degrade(reason)

    def _run(self, op: str, fn: Callable[[], Any], default: Any = None) -> Any:
        """Run one storage operation through the retry/degradation
        funnel.  Transient errors (locked/busy) retry with bounded
        backoff; anything else degrades the session to fail-closed
        in-memory mode.  Never raises."""
        if not self.available:
            return default
        if self._conn is None and op != "open":
            self._degrade(f"storage {op} failed: connection closed")
            return default
        started = perf_counter()
        attempt = 0
        while True:
            try:
                if self.fault_hook is not None:
                    self.fault_hook(op)
                result = fn()
                STATS.record(op, perf_counter() - started)
                return result
            except (TransientStorageError, sqlite3.OperationalError) as err:
                text = str(err).lower()
                transient = isinstance(err, TransientStorageError) or (
                    "locked" in text or "busy" in text
                )
                if transient and attempt < self.retry.attempts:
                    STATS.retries += 1
                    self.retry.sleep(attempt)
                    attempt += 1
                    continue
                self._degrade(f"storage {op} failed: {err}")
                return default
            except (sqlite3.Error, OSError, ValueError) as err:
                self._degrade(f"storage {op} failed: {err}")
                return default

    # -- seals -------------------------------------------------------------

    def _seal(self, prefix: bytes, blob: str) -> bytes:
        return hmac.new(
            self._session_key, prefix + blob.encode(), hashlib.sha256
        ).digest()

    def _check_seal(self, prefix: bytes, blob: str, seal) -> bool:
        if not isinstance(seal, (bytes, bytearray)):
            return False
        return hmac.compare_digest(self._seal(prefix, blob), bytes(seal))

    # -- session wiring ----------------------------------------------------

    def record_key(self, host: str, key: bytes) -> None:
        """Deposit one host key in the sealed sidecar (secure hardware:
        keys survive process death by assumption, like the paper's
        per-host signing keys)."""
        self._keys[host] = key

    def record_digest(self, digest: Any) -> None:
        self._digest = repr(digest)

    def backend_for(self, host: str) -> "SQLiteBackend":
        return SQLiteBackend(self, host)

    # -- transactions / boundaries ----------------------------------------

    def begin(self) -> None:
        if self._in_txn:
            return

        def work():
            self._conn.execute("BEGIN IMMEDIATE")
            self._in_txn = True

        self._run("begin", work)

    def save_boundary(self, session) -> None:
        """Commit one execution boundary: queue snapshot + new flow rows
        + sealed journal in the open transaction, then publish the
        sidecar.  This is the durable-publish point — after it returns,
        a SIGKILL loses nothing."""
        if not self.available:
            return
        boundary = self._boundary + 1
        net = session.network
        flow_len = len(net.flow_log)

        def work():
            conn = self._conn
            conn.execute("DELETE FROM queue")
            for idx, message in enumerate(net._queue):
                blob = codec.dumps(
                    {
                        "kind": message.kind,
                        "src": message.src,
                        "dst": message.dst,
                        "payload": message.payload,
                        "data_labels": list(message.data_labels),
                        "msg_id": message.msg_id,
                        "seq": message.seq,
                    }
                )
                conn.execute(
                    "INSERT INTO queue (idx, blob, seal) VALUES (?, ?, ?)",
                    (idx, blob, self._seal(b"queue|%d|" % idx, blob)),
                )
            for idx in range(self._flow_len, flow_len):
                blob = codec.dumps(tuple(net.flow_log[idx]))
                conn.execute(
                    "INSERT OR REPLACE INTO flows (idx, blob, seal) "
                    "VALUES (?, ?, ?)",
                    (idx, blob, self._seal(b"flow|%d|" % idx, blob)),
                )
            blob = codec.dumps(self._journal_state(session, boundary))
            conn.execute(
                "INSERT OR REPLACE INTO journal (id, boundary, blob, seal) "
                "VALUES (1, ?, ?, ?)",
                (boundary, blob, self._seal(b"journal|%d|" % boundary, blob)),
            )
            conn.execute("COMMIT")
            self._in_txn = False

        committed = self._run("boundary", lambda: (work(), True)[1], False)
        if not committed:
            return
        self._boundary = boundary
        self._flow_len = flow_len
        STATS.boundaries += 1
        STATS.fsyncs += 1
        self._publish_sidecar()
        if self.boundary_hook is not None:
            self.boundary_hook(boundary)

    def _journal_state(self, session, boundary: int) -> Dict[str, Any]:
        net = session.network
        rng = session._token_rng
        stores = {}
        for name, host in session.hosts.items():
            store = host.durable
            if store is not None:
                stores[name] = {
                    "high_water": store.high_water,
                    "recoveries": store.recoveries,
                    "processed": store.processed,
                    "checkpoints_taken": store.checkpoints_taken,
                    "wal_len": len(store.wal),
                }
        return {
            "boundary": boundary,
            "started": session._started,
            "halted": session._halted,
            "steps": session._steps,
            "main_frame": session._main_frame,
            "clock": net.clock,
            "check_time": net.check_time,
            "hash_time": net.hash_time,
            "counts": dict(net.counts),
            "eliminated": net.eliminated_roundtrips,
            "audit_log": list(net.audit_log),
            "fault_counts": dict(net.fault_counts),
            "fault_events": [tuple(event) for event in net.fault_events],
            "seq": dict(net.channel.seq),
            "stamped": sum(net.channel.seq.values()),
            "queue_len": len(net._queue),
            "flow_len": len(net.flow_log),
            "quarantine_enabled": net.quarantine_enabled,
            "quarantined": sorted(net.quarantined),
            "token_rng": (
                tuple(rng.getstate()) if rng is not None else None
            ),
            "hash_counts": {
                name: host.factory.hash_count
                for name, host in session.hosts.items()
            },
            "stores": stores,
        }

    def _publish_sidecar(self) -> None:
        def work():
            payload = json.dumps(
                {
                    "format": _SIDECAR_FORMAT,
                    "boundary": self._boundary,
                    "session_key": self._session_key.hex(),
                    "keys": {
                        host: key.hex() for host, key in self._keys.items()
                    },
                    "digest": self._digest,
                },
                sort_keys=True,
            )
            tmp = f"{self.sidecar_path}.tmp-{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.sidecar_path)
            dir_fd = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)

        if self._run("sidecar", lambda: (work(), True)[1], False):
            STATS.fsyncs += 1

    # -- recycling ---------------------------------------------------------

    def reset_for_recycle(self) -> None:
        """Clear the session-level rows for a fresh storage lifetime
        (the per-host rows are cleared by each DurableStore.reset).
        Like the stores' sealed counters, the boundary counter carries
        on: the next boundary commits as the sidecar's counter + 1, so
        a journal row of an earlier lifetime is older than the sidecar
        and fails the rollback check."""

        def work():
            conn = self._conn
            conn.execute("DELETE FROM journal")
            conn.execute("DELETE FROM queue")
            conn.execute("DELETE FROM flows")

        self._run("reset", work)
        self._flow_len = 0


class SQLiteBackend(StorageBackend):
    """One host's durable rows inside a shared :class:`SessionStorage`."""

    __slots__ = ("storage", "host")

    def __init__(self, storage: SessionStorage, host: str) -> None:
        self.storage = storage
        self.host = host

    def append_wal(
        self, epoch: int, index: int, blob: str, seal: bytes
    ) -> None:
        storage = self.storage
        if storage.wal_hook is not None:
            storage.wal_hook(self.host, epoch, index)
        storage._run(
            "append_wal",
            lambda: storage._conn.execute(
                "INSERT OR REPLACE INTO wal (host, idx, epoch, blob, seal) "
                "VALUES (?, ?, ?, ?, ?)",
                (self.host, index, epoch, blob, seal),
            ),
        )

    def save_checkpoint(self, epoch: int, blob: str, seal: bytes) -> None:
        storage = self.storage

        def work():
            storage._conn.execute(
                "INSERT OR REPLACE INTO checkpoints (host, epoch, blob, seal) "
                "VALUES (?, ?, ?, ?)",
                (self.host, epoch, blob, seal),
            )
            storage._conn.execute(
                "DELETE FROM wal WHERE host = ?", (self.host,)
            )

        storage._run("save_checkpoint", work)

    def reset_run(self) -> None:
        storage = self.storage

        def work():
            storage._conn.execute(
                "DELETE FROM checkpoints WHERE host = ?", (self.host,)
            )
            storage._conn.execute(
                "DELETE FROM wal WHERE host = ?", (self.host,)
            )

        storage._run("reset_host", work)

    # -- rehydration reads (raise instead of degrading) --------------------

    def load_checkpoint(self) -> Optional[Tuple[int, str, bytes]]:
        row = _read_one(
            self.storage,
            "SELECT epoch, blob, seal FROM checkpoints WHERE host = ?",
            (self.host,),
        )
        return None if row is None else (row[0], row[1], row[2])

    def load_wal(self) -> List[Tuple[int, int, str, bytes]]:
        return _read_all(
            self.storage,
            "SELECT idx, epoch, blob, seal FROM wal WHERE host = ? "
            "ORDER BY idx",
            (self.host,),
        )


# ---------------------------------------------------------------------------
# Rehydration
# ---------------------------------------------------------------------------


def _read_one(storage: SessionStorage, sql: str, params=()):
    rows = _read_all(storage, sql, params)
    return rows[0] if rows else None


def _read_all(storage: SessionStorage, sql: str, params=()):
    try:
        return storage._conn.execute(sql, params).fetchall()
    except sqlite3.DatabaseError as error:
        raise _tamper(None, f"unreadable database: {error}") from error


def open_for_rehydration(
    directory: str, retry: Optional[StorageRetryPolicy] = None
) -> Tuple[SessionStorage, Dict[str, bytes], int]:
    """Open an existing storage directory for rehydration.

    Returns ``(storage, host_keys, sidecar_boundary)``.  Unlike the
    live-session path, absence is an error here: with no sidecar there
    is nothing trustworthy to load, so this raises
    :class:`StorageUnavailableError` rather than degrading.
    """
    sidecar_path = os.path.join(directory, "sealed.json")
    db_path = os.path.join(directory, "session.db")
    if not os.path.exists(sidecar_path):
        raise StorageUnavailableError(
            f"no sealed sidecar at {sidecar_path}: nothing to rehydrate"
        )
    if not os.path.exists(db_path):
        raise StorageUnavailableError(f"no database at {db_path}")
    try:
        with open(sidecar_path, "r", encoding="utf-8") as handle:
            sidecar = json.load(handle)
        if sidecar.get("format") != _SIDECAR_FORMAT:
            raise ValueError(f"sidecar format {sidecar.get('format')!r}")
        session_key = bytes.fromhex(sidecar["session_key"])
        keys = {
            host: bytes.fromhex(key)
            for host, key in sidecar["keys"].items()
        }
        boundary = int(sidecar["boundary"])
    except (OSError, ValueError, KeyError, TypeError) as error:
        # The sidecar models sealed hardware; if the trusted tier itself
        # is unreadable the durable tier is unavailable, not forged.
        raise StorageUnavailableError(
            f"unreadable sealed sidecar: {error}"
        ) from error
    storage = SessionStorage(directory, retry=retry)
    if not storage.available:
        raise StorageUnavailableError(
            f"cannot open database: {storage.degraded_reason}"
        )
    storage._session_key = session_key
    storage._keys = dict(keys)
    storage._digest = sidecar.get("digest")
    return storage, keys, boundary


def rehydrate_session(
    split,
    directory: str,
    cost_model=None,
    opt_level: int = 1,
    retry: Optional[StorageRetryPolicy] = None,
):
    """Rebuild a live :class:`~repro.runtime.session.Session` from a
    dead process's storage directory.

    The resumed session continues from the last committed boundary;
    because execution between boundaries is deterministic, running it
    to completion yields observables bit-identical to the fault-free
    oracle.  Fails closed: missing/unusable storage raises
    :class:`StorageUnavailableError`; any forged seal, rolled-back
    counter, truncated log, or undecodable blob raises
    :class:`~repro.runtime.checkpoint.CheckpointTamperError`.
    """
    from ...trust import KeyRegistry
    from ..checkpoint import DurableStore, recovery_blob
    from ..session import RuntimeImage, Session

    started_at = perf_counter()
    storage, keys, sidecar_boundary = open_for_rehydration(
        directory, retry=retry
    )
    try:
        journal_row = _read_one(
            storage, "SELECT boundary, blob, seal FROM journal WHERE id = 1"
        )
        if journal_row is None:
            raise _tamper(None, "journal row missing from stable storage")
        boundary, blob, seal = journal_row
        if not storage._check_seal(b"journal|%d|" % boundary, blob, seal):
            raise _tamper(None, "journal seal verification failed")
        if boundary not in (sidecar_boundary, sidecar_boundary + 1):
            raise _tamper(
                None,
                f"journal boundary {boundary} vs sealed counter "
                f"{sidecar_boundary}: rollback detected",
            )
        ctx = codec.DecodeContext()
        try:
            journal = codec.loads(blob, ctx)
        except codec.StorageCodecError as error:
            raise _tamper(None, f"undecodable journal: {error}") from error
        if storage._digest is not None and storage._digest != repr(
            split.digest
        ):
            raise _tamper(
                None, "stored session is for a different split program"
            )

        registry = KeyRegistry()
        for host, key in keys.items():
            registry.install(f"host:{host}", key)
        image = RuntimeImage(split, registry)
        # No tier at construction: attaching one would publish a fresh
        # boundary over the persisted state installed below.
        session = Session(
            image,
            cost_model=cost_model,
            opt_level=opt_level,
            storage=None,
        )
        if set(session.hosts) != set(journal.get("stores", {})):
            raise _tamper(
                None,
                f"stored hosts {sorted(journal.get('stores', {}))} do not "
                f"match the split's hosts {sorted(session.hosts)}",
            )

        # Per-host: verify + install checkpoint, replay WAL.
        for name in sorted(session.hosts):
            host = session.hosts[name]
            host.durable = DurableStore.rehydrate(
                name, host.factory, storage.backend_for(name),
                journal["stores"][name], ctx,
            )
            host.restore_state(ctx)

        # Control queue, flow log, accounting.
        net = session.network
        try:
            queue_rows = _read_all(
                storage, "SELECT idx, blob, seal FROM queue ORDER BY idx"
            )
            if len(queue_rows) != journal["queue_len"]:
                raise _tamper(
                    None,
                    f"queue has {len(queue_rows)} rows, journal says "
                    f"{journal['queue_len']}",
                )
            from ..network import Message

            queue = deque()
            for idx, q_blob, q_seal in queue_rows:
                if not storage._check_seal(b"queue|%d|" % idx, q_blob, q_seal):
                    raise _tamper(None, f"queue row {idx} seal failed")
                fields = codec.loads(q_blob, ctx)
                queue.append(
                    Message(
                        fields["kind"], fields["src"], fields["dst"],
                        fields["payload"],
                        data_labels=fields["data_labels"],
                        msg_id=fields["msg_id"], seq=fields["seq"],
                    )
                )
            flow_rows = _read_all(
                storage, "SELECT idx, blob, seal FROM flows ORDER BY idx"
            )
            if len(flow_rows) != journal["flow_len"]:
                raise _tamper(
                    None,
                    f"flow log has {len(flow_rows)} rows, journal says "
                    f"{journal['flow_len']}",
                )
            flows = []
            for idx, f_blob, f_seal in flow_rows:
                if not storage._check_seal(b"flow|%d|" % idx, f_blob, f_seal):
                    raise _tamper(None, f"flow row {idx} seal failed")
                flows.append(tuple(codec.loads(f_blob, ctx)))
        except codec.StorageCodecError as error:
            raise _tamper(None, f"undecodable session row: {error}") from error

        net._queue = queue
        net.flow_log = flows
        net.clock = journal["clock"]
        net.check_time = journal["check_time"]
        net.hash_time = journal["hash_time"]
        net.counts = Counter(journal["counts"])
        net.eliminated_roundtrips = journal["eliminated"]
        net.audit_log = list(journal["audit_log"])
        net.fault_counts = Counter(journal["fault_counts"])
        net.fault_events = [tuple(event) for event in journal["fault_events"]]
        net.channel.seq = Counter(journal["seq"])
        net.channel.msg_ids = _count(journal["stamped"] + 1)
        net.quarantine_enabled = journal["quarantine_enabled"]
        net.quarantined = set(journal["quarantined"])

        session._started = journal["started"]
        session._halted = journal["halted"]
        session._steps = journal["steps"]
        session._main_frame = journal["main_frame"]
        rng_state = journal.get("token_rng")
        if rng_state is not None:
            rng = random.Random()
            rng.setstate(_rng_state(rng_state))
            session._token_rng = rng
            for host in session.hosts.values():
                host.factory._rng = rng
        for name, hashes in journal["hash_counts"].items():
            session.hosts[name].factory.hash_count = hashes

        codec.advance_id_floors(ctx)

        # Management-plane recovery handshake: every peer verifies the
        # rehydrated host's sealed announcement directly — trace events
        # only, no counted protocol messages, so message counts stay
        # bit-identical to the fault-free oracle.
        for name in sorted(session.hosts):
            host = session.hosts[name]
            store = host.durable
            blob_bytes = recovery_blob(
                name, store.high_water, store.recoveries
            )
            announcement = host.factory.seal("recover", blob_bytes)
            for peer_name, peer in session.hosts.items():
                if peer_name == name:
                    continue
                if not peer.factory.verify_seal(
                    name, "recover", blob_bytes, announcement
                ):
                    raise _tamper(
                        name, "rehydration announcement rejected by "
                        f"{peer_name}",
                    )
            net._emit(
                "rehydrate", None, name,
                f"epoch {store.high_water} + {len(store.wal)} WAL entries "
                f"installed from {os.path.basename(directory)}",
            )

        storage._boundary = boundary
        storage._flow_len = journal["flow_len"]
        session.storage = storage
        session._watch_storage(storage)
        if boundary != sidecar_boundary:
            # Roll forward: the process died after COMMIT but before the
            # sidecar publish; re-sync the sealed counter.
            storage._publish_sidecar()
        STATS.rehydrations += 1
        STATS.record("rehydrate", perf_counter() - started_at)
        return session
    except (KeyError, TypeError, IndexError, AttributeError) as error:
        storage.close()
        raise _tamper(None, f"malformed persisted session: {error}") from error
    except BaseException:
        storage.close()
        raise


def _rng_state(state):
    """``random.Random.setstate`` needs the exact nested tuple shape."""
    version, internal, gauss = state
    return (version, tuple(internal), gauss)
