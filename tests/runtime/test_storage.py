"""The durable storage tier: SQLite-WAL persistence, process-death
rehydration, storage fault injection, and graceful degradation.

The contract under test, layer by layer:

* the **codec** maps every persisted runtime value to deterministic
  JSON and back, fails closed on malformed input, and never draws from
  the global id counters while decoding;
* the **backend contract** behaves identically over the in-memory
  reference implementation and the SQLite database;
* a **SQLite-backed run** is observably bit-identical to the
  storage-free oracle — durability is write-through, memory stays
  authoritative;
* **process death** (a real ``SIGKILL``, via ``os.fork``) at any
  committed boundary loses nothing: the rehydrated session finishes
  with the oracle's exact observables, fields, audits, and flows —
  checked on all five Table 1 workloads;
* **tampered or rolled-back** persisted state fails closed with
  :class:`CheckpointTamperError` (or reports the tier unavailable when
  the trusted sidecar is gone) — never resurrects forged state;
* **storage faults** on the live path degrade gracefully: transient
  busy errors are retried within bounds, hard faults detach the tier
  mid-run with a recorded ``degraded`` trace event, and the run still
  completes with correct results.
"""

import json
import os
import random
import signal
import sqlite3

import pytest

from repro.labels import parse_label
from repro.runtime import RetryPolicy, RuntimeImage, Session, SessionPool
from repro.runtime.checkpoint import CheckpointTamperError, DurableStore
from repro.runtime.faultsweep import fingerprint, oracle, storage_fault_sweep
from repro.runtime.storage import (
    STATS,
    DecodeContext,
    MemoryBackend,
    SessionStorage,
    StorageCodecError,
    StorageRetryPolicy,
    StorageUnavailableError,
    advance_id_floors,
    codec,
    rehydrate_session,
)
from repro.runtime.storage import stats as storage_stats
from repro.runtime.storage.faultsim import (
    TAMPER_KINDS,
    StorageFaultInjector,
    StorageFaultPolicy,
    tamper,
)
from repro.runtime.storage.harness import kill_and_rehydrate
from repro.runtime.tokens import Token, TokenFactory
from repro.runtime.values import REJECTED, ArrayRef, FrameID, ObjectRef, ReturnInfo
from repro.runtime import values as _values
from repro.splitter import split_source
from repro.trust import KeyRegistry
from repro.workloads import listcompare, medical, ot, tax, work

TABLE1 = [
    ("ot", ot.source(rounds=2), ot.config()),
    ("tax", tax.source(records=3), tax.config()),
    ("work", work.source(rounds=2, inner=2), work.config()),
    ("listcompare", listcompare.source(elements=3), listcompare.config()),
    ("medical", medical.source(patients=3), medical.config()),
]


def ot_split():
    return split_source(ot.source(rounds=2), ot.config()).split


def storage_session(split, directory, **storage_opts):
    """A (session, storage) pair over a fresh SQLite tier."""
    storage = SessionStorage(directory, **storage_opts)
    image = RuntimeImage(split, KeyRegistry())
    session = Session(image, storage=storage)
    return session, storage


def partial_run(split, directory, steps=6):
    """Run ``steps`` boundaries then abandon the process's session,
    leaving a mid-run storage directory behind (the close simulates the
    handle dying with the process; every boundary was committed)."""
    session, storage = storage_session(split, directory)
    session.start()
    for _ in range(steps):
        if session.step():
            break
    storage.close()
    return session


def wal_row_count(directory):
    conn = sqlite3.connect(os.path.join(directory, "session.db"))
    try:
        return conn.execute("SELECT COUNT(*) FROM wal").fetchone()[0]
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------


class TestCodec:
    def test_plain_tree_roundtrip(self):
        value = {
            ("C", "f", None): [1, 2.5, "x", None, True, b"\x00\xff"],
            ("k",): (REJECTED, {"nested": (1, 2)}),
        }
        assert codec.loads(codec.dumps(value)) == value

    def test_deterministic_text(self):
        """Same traversal -> byte-identical text (dicts encode as
        ordered pair lists, so the blob is a pure function of the
        in-memory structure — what replay determinism needs)."""
        value = {("C", "f"): [1, b"\x01"], "k": (2, 3)}
        assert codec.dumps(value) == codec.dumps(value)
        reordered = codec.loads(codec.dumps({"x": 1, "y": 2}))
        assert reordered == {"x": 1, "y": 2}

    def test_reference_types_roundtrip(self):
        frame = FrameID(("C", "m"))
        token = Token("A", frame, "entry0", os.urandom(12), os.urandom(32))
        ref = ObjectRef("C")
        array = ArrayRef(3, "B", parse_label("{Alice:}"))
        rinfo = ReturnInfo("A", frame, "rv")
        decoded = codec.loads(
            codec.dumps([token, frame, ref, array, rinfo])
        )
        got_token, got_frame, got_ref, got_array, got_rinfo = decoded
        assert got_token == token
        assert got_frame == frame and got_frame.method_key == ("C", "m")
        assert got_ref.cls == "C" and got_ref.oid == ref.oid
        assert got_array.oid == array.oid
        assert got_array.length == 3 and got_array.host == "B"
        assert got_array.label is array.label  # interned
        assert got_rinfo.host == "A" and got_rinfo.var == "rv"

    def test_decoding_never_draws_fresh_ids(self):
        blob = codec.dumps([ObjectRef("C"), FrameID(("C", "m"))])
        before_oid = next(_values._object_ids)
        before_fid = next(_values._frame_ids)
        codec.loads(blob)
        assert next(_values._object_ids) == before_oid + 1
        assert next(_values._frame_ids) == before_fid + 1

    def test_advance_id_floors(self):
        ref = ObjectRef("C")
        frame = FrameID(("C", "m"))
        blob = codec.dumps([ref, frame])
        ctx = DecodeContext()
        codec.loads(blob, ctx)
        assert ctx.max_oid >= ref.oid and ctx.max_fid >= frame.fid
        advance_id_floors(ctx)
        assert ObjectRef("C").oid > ref.oid
        assert FrameID(("C", "m")).fid > frame.fid

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            '{"t": "no-such-tag"}',
            '{"t": "tok"}',
            '{"t": "b", "v": "zz"}',
            '{"t": "fid", "fid": "x", "mk": {"t": "t", "v": []}}',
            '{"missing": "tag"}',
        ],
    )
    def test_malformed_input_fails_closed(self, text):
        with pytest.raises(StorageCodecError):
            codec.loads(text)

    def test_unencodable_value_rejected(self):
        with pytest.raises(StorageCodecError):
            codec.dumps(object())


# ----------------------------------------------------------------------
# Backend contract (reference implementation vs SQLite)
# ----------------------------------------------------------------------


def _backends(tmp_path):
    memory = MemoryBackend("A")
    storage = SessionStorage(str(tmp_path / "contract"))
    return [("memory", memory, None), ("sqlite", storage.backend_for("A"), storage)]


class TestBackendContract:
    @pytest.mark.parametrize("which", ["memory", "sqlite"])
    def test_wal_and_checkpoint_roundtrip(self, which, tmp_path):
        name, backend, storage = next(
            b for b in _backends(tmp_path) if b[0] == which
        )
        try:
            assert backend.load_checkpoint() is None
            assert backend.load_wal() == []
            backend.append_wal(1, 0, '["a"]', b"s0")
            backend.append_wal(1, 1, '["b"]', b"s1")
            assert backend.load_wal() == [
                (0, 1, '["a"]', b"s0"),
                (1, 1, '["b"]', b"s1"),
            ]
            # Compaction: a sealed checkpoint supersedes the WAL.
            backend.save_checkpoint(2, '{"state": 1}', b"cp")
            assert backend.load_checkpoint() == (2, '{"state": 1}', b"cp")
            assert backend.load_wal() == []
            backend.append_wal(2, 0, '["c"]', b"s2")
            backend.reset_run()
            assert backend.load_checkpoint() is None
            assert backend.load_wal() == []
        finally:
            if storage is not None:
                storage.close()

    def test_sqlite_rows_are_isolated_per_host(self, tmp_path):
        storage = SessionStorage(str(tmp_path / "hosts"))
        try:
            a, b = storage.backend_for("A"), storage.backend_for("B")
            a.append_wal(1, 0, "x", b"sa")
            b.append_wal(1, 0, "y", b"sb")
            b.save_checkpoint(1, "cp-b", b"cb")
            assert a.load_wal() == [(0, 1, "x", b"sa")]
            assert a.load_checkpoint() is None
            assert b.load_wal() == []
            assert b.load_checkpoint() == (1, "cp-b", b"cb")
        finally:
            storage.close()


# ----------------------------------------------------------------------
# One checkpoint format: the persisted row is the in-memory checkpoint
# ----------------------------------------------------------------------


class TestOneCheckpointSeal:
    def test_checkpoint_with_a_tier_is_sealed_once(self, tmp_path):
        session, storage = storage_session(ot_split(), str(tmp_path / "one"))
        try:
            host = session.hosts["A"]
            before = host.factory.hash_count
            host.take_checkpoint()
            assert host.factory.hash_count == before + 1
        finally:
            storage.close()

    def test_backend_row_is_the_in_memory_checkpoint(self, tmp_path):
        session, storage = storage_session(ot_split(), str(tmp_path / "row"))
        try:
            session.start()
            session.step()
            for name, host in session.hosts.items():
                checkpoint = host.take_checkpoint()
                assert storage.backend_for(name).load_checkpoint() == (
                    checkpoint.epoch, checkpoint.blob, checkpoint.seal
                )
        finally:
            storage.close()


# ----------------------------------------------------------------------
# Write-through durability is observably free
# ----------------------------------------------------------------------


class TestDurableRunsBitIdentical:
    @pytest.mark.parametrize(
        "name,source,config", TABLE1[:2], ids=[t[0] for t in TABLE1[:2]]
    )
    def test_sqlite_run_matches_oracle(self, name, source, config, tmp_path):
        split = split_source(source, config).split
        expected, _ = oracle(split)
        session, storage = storage_session(split, str(tmp_path / name))
        session.run()
        try:
            assert fingerprint(split, session.result()) == expected
            # Persistence must not leak into the trace: a fault-free
            # run's fault_events stay empty, sqlite tier or not.
            assert session.network.fault_events == []
            assert storage.available
        finally:
            storage.close()

    def test_completed_run_rehydrates_to_the_same_result(self, tmp_path):
        split = ot_split()
        expected, _ = oracle(split)
        directory = str(tmp_path / "done")
        session, storage = storage_session(split, directory)
        session.run()
        storage.close()
        resumed = rehydrate_session(split, directory)
        resumed.run()
        assert fingerprint(split, resumed.result()) == expected
        resumed.storage.close()

    def test_mid_run_rehydration_finishes_the_program(self, tmp_path):
        split = ot_split()
        expected, _ = oracle(split)
        directory = str(tmp_path / "mid")
        partial_run(split, directory, steps=5)
        resumed = rehydrate_session(split, directory)
        resumed.run()
        assert fingerprint(split, resumed.result()) == expected
        assert STATS.rehydrations > 0
        resumed.storage.close()


# ----------------------------------------------------------------------
# Process death (the tentpole claim)
# ----------------------------------------------------------------------


class TestKillAndRehydrate:
    @pytest.mark.parametrize(
        "name,source,config", TABLE1, ids=[t[0] for t in TABLE1]
    )
    def test_sigkill_at_a_boundary_loses_nothing(self, name, source, config):
        split = split_source(source, config).split
        outcome, child_exit = kill_and_rehydrate(
            split, kill_after_boundaries=3
        )
        assert child_exit == -signal.SIGKILL
        assert outcome.status == "ok", outcome.detail

    def test_sigkill_mid_transaction_loses_nothing(self):
        """Die on a WAL append *inside* an open boundary transaction:
        the uncommitted boundary rolls back and replay resumes from the
        last committed one."""
        split = ot_split()
        outcome, child_exit = kill_and_rehydrate(
            split, kill_after_appends=7
        )
        assert child_exit == -signal.SIGKILL
        assert outcome.status == "ok", outcome.detail

    def test_rehydration_resumes_at_the_runs_opt_level(self):
        outcome, child_exit = kill_and_rehydrate(
            ot_split(), kill_after_boundaries=3, opt_level=0
        )
        assert child_exit == -signal.SIGKILL
        assert outcome.status == "ok", outcome.detail

    def test_late_kill_points_still_match(self):
        split = ot_split()
        for kill_after in (8, 11):
            outcome, child_exit = kill_and_rehydrate(
                split, kill_after_boundaries=kill_after
            )
            # The workload may outrun a late trigger; either way the
            # directory must rehydrate to the oracle's result.
            assert outcome.status == "ok", outcome.detail


# ----------------------------------------------------------------------
# Tampering fails closed
# ----------------------------------------------------------------------


class TestTamperFailsClosed:
    @pytest.mark.parametrize("kind", TAMPER_KINDS)
    def test_tampered_directory_never_resurrects(self, kind, tmp_path):
        split = ot_split()
        directory = str(tmp_path / kind)
        partial_run(split, directory, steps=6)
        if kind == "torn-write":
            assert wal_row_count(directory) > 0, "kill point left no WAL"
        tamper(directory, kind)
        expected = (
            StorageUnavailableError
            if kind == "drop-sidecar"
            else CheckpointTamperError
        )
        with pytest.raises(expected):
            rehydrate_session(split, directory)

    def test_sidecar_counter_ahead_of_journal_is_a_rollback(self, tmp_path):
        """The monotonic-counter check proper: the trusted sidecar says
        boundary N, the database says something older — the classic
        restore-from-backup replay."""
        split = ot_split()
        directory = str(tmp_path / "replay")
        partial_run(split, directory, steps=6)
        sidecar_path = os.path.join(directory, "sealed.json")
        with open(sidecar_path) as handle:
            sidecar = json.load(handle)
        sidecar["boundary"] += 3
        with open(sidecar_path, "w") as handle:
            json.dump(sidecar, handle)
        with pytest.raises(CheckpointTamperError, match="rollback"):
            rehydrate_session(split, directory)

    def test_wal_row_spliced_from_an_older_epoch_fails_closed(self):
        """A genuinely sealed WAL row of an earlier epoch, put back in
        place of the current one, is rejected: the row must belong to
        the checkpoint epoch the journal names."""
        factory = TokenFactory("A", KeyRegistry())
        backend = MemoryBackend("A")
        store = DurableStore("A", factory, backend=backend)
        store.take_checkpoint({"x": 1})
        store.log("var", None, "x", 1)
        (stale,) = backend.load_wal()
        store.take_checkpoint({"x": 2})
        store.log("var", None, "x", 2)
        counters = {
            "high_water": store.high_water,
            "recoveries": 0,
            "processed": 0,
            "checkpoints_taken": store.checkpoints_taken,
            "wal_len": 1,
        }
        rebuilt = DurableStore.rehydrate(
            "A", factory, backend, counters, DecodeContext()
        )
        assert rebuilt.load() == ({"x": 2}, [("var", None, "x", 2)])
        _, epoch, blob, seal = stale
        backend.append_wal(epoch, 0, blob, seal)
        with pytest.raises(CheckpointTamperError, match="epoch 2"):
            DurableStore.rehydrate(
                "A", factory, backend, counters, DecodeContext()
            )

    def test_checkpoint_from_an_earlier_lifetime_fails_closed(self):
        """A recycled store keeps its host key, so its sealed counter
        must not restart: a checkpoint sealed in the previous pooled
        lifetime, put back in place, is a rollback."""
        store = DurableStore("A", TokenFactory("A", KeyRegistry()))
        first = store.take_checkpoint({"x": "first lifetime"})
        store.reset()
        store.take_checkpoint({"x": "second lifetime"})
        assert store.load() == ({"x": "second lifetime"}, [])
        store.checkpoint = first
        with pytest.raises(CheckpointTamperError, match="rollback"):
            store.load()

    def test_wal_row_from_an_earlier_lifetime_fails_closed(self):
        factory = TokenFactory("A", KeyRegistry())
        backend = MemoryBackend("A")
        store = DurableStore("A", factory, backend=backend)
        store.take_checkpoint({"x": 0})
        store.log("var", None, "x", "first lifetime")
        (stale,) = backend.load_wal()
        store.reset()
        store.take_checkpoint({"x": 0})
        store.log("var", None, "x", "second lifetime")
        counters = {
            "high_water": store.high_water,
            "recoveries": store.recoveries,
            "processed": store.processed,
            "checkpoints_taken": store.checkpoints_taken,
            "wal_len": 1,
        }
        rebuilt = DurableStore.rehydrate(
            "A", factory, backend, counters, DecodeContext()
        )
        assert rebuilt.load() == (
            {"x": 0}, [("var", None, "x", "second lifetime")]
        )
        _, epoch, blob, seal = stale
        backend.append_wal(epoch, 0, blob, seal)
        with pytest.raises(CheckpointTamperError, match="record 0"):
            DurableStore.rehydrate(
                "A", factory, backend, counters, DecodeContext()
            )

    def test_journal_from_an_earlier_lifetime_fails_closed(self, tmp_path):
        """The session's boundary counter also carries across a pooled
        recycle: the previous lifetime's last journal row, put back
        after the next lifetime ran, is older than the sidecar."""
        split = ot_split()
        directory = tmp_path / "lifetimes"
        storage = SessionStorage(str(directory))
        pool = SessionPool(RuntimeImage(split, KeyRegistry()), size=1,
                           storage=storage)
        session = pool.acquire()
        session.run()
        db = str(directory / "session.db")
        conn = sqlite3.connect(db)
        try:
            old = conn.execute(
                "SELECT boundary, blob, seal FROM journal"
            ).fetchone()
        finally:
            conn.close()
        pool.release(session)
        pool.acquire().run()
        storage.close()
        conn = sqlite3.connect(db)
        try:
            conn.execute(
                "UPDATE journal SET boundary = ?, blob = ?, seal = ?", old
            )
            conn.commit()
        finally:
            conn.close()
        with pytest.raises(CheckpointTamperError, match="rollback"):
            rehydrate_session(split, str(directory))

    def test_missing_directory_reports_unavailable(self, tmp_path):
        with pytest.raises(StorageUnavailableError):
            rehydrate_session(ot_split(), str(tmp_path / "nothing-here"))

    def test_shredded_database_fails_closed(self, tmp_path):
        """A database file replaced with garbage cannot even be opened:
        the tier reports itself unavailable — still fail-closed, never
        forged state."""
        split = ot_split()
        directory = str(tmp_path / "shredded")
        partial_run(split, directory, steps=6)
        with open(os.path.join(directory, "session.db"), "wb") as handle:
            handle.write(b"this is not a database")
        with pytest.raises((CheckpointTamperError, StorageUnavailableError)):
            rehydrate_session(split, directory)


# ----------------------------------------------------------------------
# Graceful degradation and bounded retry
# ----------------------------------------------------------------------


def degraded_events(session):
    return [e for e in session.network.fault_events if e[0] == "degraded"]


class TestGracefulDegradation:
    def test_disk_full_degrades_and_the_run_still_completes(self, tmp_path):
        split = ot_split()
        expected, _ = oracle(split)
        session, storage = storage_session(split, str(tmp_path / "full"))
        injector = StorageFaultInjector(
            StorageFaultPolicy(diskfull_after=6), seed=1
        )
        injector.install(storage)
        before = STATS.degradations
        session.run()
        assert injector.diskfull_faults > 0
        assert not storage.available
        assert "space" in storage.degraded_reason
        assert degraded_events(session), "degradation left no trace event"
        assert fingerprint(split, session.result()) == expected
        assert STATS.degradations > before

    def test_connection_death_mid_run_degrades(self, tmp_path):
        split = ot_split()
        expected, _ = oracle(split)
        session, storage = storage_session(split, str(tmp_path / "dead"))
        session.start()
        session.step()
        storage._conn.close()
        session.run()
        assert not storage.available
        assert degraded_events(session)
        assert fingerprint(split, session.result()) == expected

    def test_unopenable_directory_degrades_at_attach(self, tmp_path):
        split = ot_split()
        expected, _ = oracle(split)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the directory should go")
        session, storage = storage_session(
            split, str(blocker / "nested")
        )
        assert not storage.available
        session.run()
        assert degraded_events(session)
        assert fingerprint(split, session.result()) == expected

    def test_busy_database_is_retried_not_degraded(self, tmp_path):
        split = ot_split()
        expected, _ = oracle(split)
        session, storage = storage_session(
            split,
            str(tmp_path / "busy"),
            retry=StorageRetryPolicy(attempts=3, base_delay=1e-5),
        )
        injector = StorageFaultInjector(
            StorageFaultPolicy(busy_prob=0.5), seed=3
        )
        injector.install(storage)
        before = STATS.retries
        session.run()
        try:
            assert injector.busy_faults > 0
            assert storage.available, "transient faults must not degrade"
            assert STATS.retries - before >= injector.busy_faults
            assert session.network.fault_events == []
            assert fingerprint(split, session.result()) == expected
        finally:
            storage.close()

    def test_retry_policy_validation_and_backoff(self):
        with pytest.raises(ValueError):
            StorageRetryPolicy(attempts=-1)
        with pytest.raises(ValueError):
            StorageRetryPolicy(base_delay=1e-2, max_delay=1e-3)
        policy = StorageRetryPolicy(
            attempts=5, base_delay=1e-3, backoff=2.0, max_delay=3e-3
        )
        assert policy.delay(0) == pytest.approx(1e-3)
        assert policy.delay(1) == pytest.approx(2e-3)
        assert policy.delay(10) == 3e-3


class TestStorageFaultSweep:
    def test_sweep_completes_with_no_failures(self):
        split = split_source(ot.source(rounds=1), ot.config()).split
        report = storage_fault_sweep(split, schedules=6, name="ot")
        assert report.failures == []
        assert report.completed == 6
        assert "0 FAILED" in report.summary()

    def test_oracle_runs_at_the_sweeps_opt_level(self):
        # An untampered directory rehydrates to the live run, so the
        # oracle it is held to must run at the same opt level.
        split = split_source(ot.source(rounds=1), ot.config()).split
        report = storage_fault_sweep(split, schedules=2, opt_level=0)
        assert report.failures == [], report.summary()


# ----------------------------------------------------------------------
# Retry schedule
# ----------------------------------------------------------------------


class TestRetryJitter:
    def test_default_schedule_is_the_exact_doubling(self):
        policy = RetryPolicy(base_timeout=1e-3, backoff=2.0, max_timeout=0.05)
        assert policy.timeout(0) == pytest.approx(1e-3)
        assert policy.timeout(4) == pytest.approx(16e-3)
        assert policy.timeout(40) == 0.05


# ----------------------------------------------------------------------
# Pool recycling over a disk-backed tier (satellite)
# ----------------------------------------------------------------------


def pool_fingerprint(session):
    outcome = session.result()
    fields = {
        key: outcome.field_value(key[0], key[1], default=None)
        for key in session.split.fields
    }
    return session.observables(), fields, list(outcome.audits)


class TestDiskBackedPoolRecycling:
    def test_run_reset_run_matches_two_fresh_sessions(self, tmp_path):
        split = ot_split()
        image = RuntimeImage(split, KeyRegistry())
        fresh = []
        for _ in range(2):
            session = Session(image)
            session.run()
            fresh.append(pool_fingerprint(session))

        storage = SessionStorage(str(tmp_path / "pool"))
        pool = SessionPool(image, size=1, storage=storage)
        session = pool.acquire()
        session.run()
        first = pool_fingerprint(session)
        last_boundary = storage._boundary
        pool.release(session)

        # The recycled lifetime starts clean: no queue or flow rows
        # survive from the previous run, and the journal holds only the
        # fresh-attach boundary, which continues the monotonic boundary
        # counter (an old lifetime's journal must fail the rollback
        # check, so the counter never winds back).
        conn = sqlite3.connect(str(tmp_path / "pool" / "session.db"))
        try:
            for table in ("queue", "flows"):
                count = conn.execute(
                    f"SELECT COUNT(*) FROM {table}"
                ).fetchone()[0]
                assert count == 0, f"stale {table} rows survived recycling"
            boundaries = conn.execute(
                "SELECT boundary FROM journal"
            ).fetchall()
            assert boundaries == [(last_boundary + 1,)], (
                "journal did not start the new lifetime past the old one"
            )
        finally:
            conn.close()

        again = pool.acquire()
        assert again is session, "pool rebuilt instead of recycling"
        before = storage_stats()
        again.run()
        after = storage_stats()
        second = pool_fingerprint(again)
        assert storage.available
        # The recycled session still writes through its tier: a pool
        # that dropped the tier on reset would seal nothing here.
        assert after["appends"] > before["appends"]
        assert after["boundaries"] > before["boundaries"]
        assert after["degradations"] == before["degradations"]
        storage.close()
        assert (first, second) == (fresh[0], fresh[1])

    def test_default_reset_keeps_the_tier_and_none_detaches(self, tmp_path):
        # A pool built without a storage option recycles through the
        # default reset(), so that default must keep the session's tier.
        storage = SessionStorage(str(tmp_path / "kept"))
        session = Session(RuntimeImage(ot_split(), KeyRegistry()), storage=storage)
        session.run()

        session.reset()
        before = storage_stats()["boundaries"]
        session.run()
        assert session.storage is storage
        assert storage_stats()["boundaries"] > before

        session.reset(storage=None)
        before = storage_stats()["boundaries"]
        session.run()
        assert session.storage is None
        assert storage_stats()["boundaries"] == before
