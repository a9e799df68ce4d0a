"""The crash-recovery subsystem: sealed checkpoints, WAL replay,
volatile crashes, the recovery handshake, bounded retries, quarantine.

The central claim mirrors the fault sweep's: a host may crash — losing
*all* volatile state — at any message-receipt boundary, and the run
still finishes with results bit-identical to the fault-free run,
because recovery is checkpoint + write-ahead-log replay and peers
re-forward pending data on a sealed recovery announcement.
"""

import random

import pytest

from repro.runtime import (
    CrashPointInjector,
    DeliveryTimeoutError,
    RuntimeImage,
    Session,
    FaultInjector,
    FaultPolicy,
    RetryPolicy,
    SecurityAbort,
    run_split_program,
)
from repro.runtime.checkpoint import (
    Checkpoint,
    CheckpointTamperError,
    DurableStore,
)
from repro.runtime.faultsweep import crash_point_sweep
from repro.runtime.tokens import TokenFactory
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


# ----------------------------------------------------------------------
# Durable store unit tests
# ----------------------------------------------------------------------


def make_store(host="A"):
    factory = TokenFactory(host, KeyRegistry())
    return DurableStore(host, factory), factory


def sample_state():
    return {
        "fields": {("C", "f", None): 7},
        "arrays": {1: [1, 2, 3]},
        "array_meta": {},
        "frames": {},
        "stack": [],
        "seen": {},
        "pending": {},
        "peer_epochs": {},
    }


class TestDurableStore:
    def test_checkpoint_roundtrip(self):
        store, _ = make_store()
        store.take_checkpoint(sample_state())
        store.log("var", None, "x", 1)
        state, wal = store.load()
        assert state["fields"][("C", "f", None)] == 7
        assert wal == [("var", None, "x", 1)]

    def test_checkpoint_compacts_wal(self):
        store, _ = make_store()
        store.log("var", None, "x", 1)
        store.take_checkpoint(sample_state())
        assert store.wal == []
        assert store.high_water == 1

    def test_forged_seal_fails_closed(self):
        store, _ = make_store()
        store.take_checkpoint(sample_state())
        store.checkpoint.seal = b"\x00" * 32
        with pytest.raises(CheckpointTamperError):
            store.load()

    def test_sealed_by_another_host_fails_closed(self):
        store, _ = make_store("A")
        other_store, _ = make_store("B")
        other_store.take_checkpoint(sample_state())
        stolen = other_store.checkpoint
        store.high_water = stolen.epoch
        store.checkpoint = Checkpoint(
            "A", stolen.epoch, stolen.blob, stolen.seal
        )
        with pytest.raises(CheckpointTamperError):
            store.load()

    def test_rollback_fails_closed(self):
        """A genuinely sealed but stale checkpoint is rejected: its
        epoch no longer matches the sealed high-water counter."""
        store, _ = make_store()
        store.take_checkpoint(sample_state())
        stale = store.checkpoint
        store.take_checkpoint(sample_state())
        store.checkpoint = stale
        with pytest.raises(CheckpointTamperError):
            store.load()

    def test_missing_checkpoint_fails_closed(self):
        store, _ = make_store()
        with pytest.raises(CheckpointTamperError):
            store.load()

    def test_loaded_state_is_a_copy(self):
        store, _ = make_store()
        store.take_checkpoint(sample_state())
        state, _ = store.load()
        state["fields"][("C", "f", None)] = 99
        again, _ = store.load()
        assert again["fields"][("C", "f", None)] == 7

    def test_checkpoint_ignores_later_mutation_of_its_input(self):
        """The store encodes the live state on the spot, so a host that
        keeps mutating its containers never changes a sealed checkpoint."""
        store, _ = make_store()
        state = sample_state()
        store.take_checkpoint(state)
        state["arrays"][1].append(4)
        state["fields"][("C", "f", None)] = 99
        loaded, _ = store.load()
        assert loaded["arrays"][1] == [1, 2, 3]
        assert loaded["fields"][("C", "f", None)] == 7

    def test_flipped_blob_byte_fails_recovery_closed(self):
        """One altered byte of a host's in-memory checkpoint blob: the
        seal no longer verifies and the restart aborts."""
        result = split_source(ot.source(rounds=1), ot.config())
        executor = Session(RuntimeImage.for_split(result.split))
        executor.run()
        host = executor.hosts["A"]
        host.take_checkpoint()
        checkpoint = host.durable.checkpoint
        middle = len(checkpoint.blob) // 2
        checkpoint.blob = (
            checkpoint.blob[:middle]
            + chr(ord(checkpoint.blob[middle]) ^ 1)
            + checkpoint.blob[middle + 1:]
        )
        host.crash_wipe()
        with pytest.raises(SecurityAbort, match="seal verification failed"):
            host.recover()


# ----------------------------------------------------------------------
# Retry bounds (satellite: capped backoff + delivery deadline)
# ----------------------------------------------------------------------


class TestRetryBounds:
    def test_backoff_is_capped(self):
        retry = RetryPolicy(base_timeout=1e-3, backoff=2.0, max_timeout=0.05)
        assert retry.timeout(3) == pytest.approx(8e-3)
        assert retry.timeout(40) == 0.05

    def test_deadline_trips(self):
        retry = RetryPolicy(deadline=0.5)
        assert not retry.past_deadline(0.4)
        assert retry.past_deadline(0.5)
        assert RetryPolicy().past_deadline(1e9) is False

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_timeout=1e-2, max_timeout=1e-3)
        with pytest.raises(ValueError):
            RetryPolicy(deadline=0.0)

    def test_deadline_bounds_simulated_time(self):
        """A permanently-dead destination fails closed within the
        deadline's order of magnitude, not after unbounded doubling."""
        result = split_source(ot.source(rounds=1), ot.config())
        faults = FaultInjector(
            FaultPolicy(crash_prob=1.0, crash_downtime=1e9,
                        crashable_hosts=("B",)),
            seed=0,
        )
        executor = Session(RuntimeImage.for_split(result.split), faults=faults)
        executor.network.retry = RetryPolicy(
            base_timeout=1e-3, max_timeout=4e-3, deadline=0.02,
            max_retries=10_000,
        )
        with pytest.raises(DeliveryTimeoutError):
            executor.run()
        assert executor.network.clock < 1.0


# ----------------------------------------------------------------------
# Crash-point sweeps over the Table 1 workloads (the tentpole oracle)
# ----------------------------------------------------------------------


class TestCrashPointSweeps:
    @pytest.mark.parametrize(
        "name,source,config", TABLE1, ids=[t[0] for t in TABLE1]
    )
    def test_volatile_crashes_recover_bit_identical(self, name, source, config):
        result = split_source(source, config)
        report = crash_point_sweep(
            result.split, per_point=2, crash_mode="volatile", name=name
        )
        assert report.outcomes, "sweep enumerated no crash points"
        assert report.failures == []
        assert report.completed == len(report.outcomes)

    def test_ot_exhaustive_every_receipt(self):
        """Every single receipt boundary of the Figure 4 OT run."""
        result = split_source(ot.source(rounds=1), ot.config())
        report = crash_point_sweep(
            result.split, per_point=None, crash_mode="volatile"
        )
        assert len(report.outcomes) >= 10
        assert report.failures == []

    def test_durable_mode_still_recovers(self):
        """The legacy state-survives-restart model keeps working."""
        result = split_source(ot.source(rounds=1), ot.config())
        report = crash_point_sweep(
            result.split, per_point=2, crash_mode="durable"
        )
        assert report.outcomes
        assert report.failures == []


class TestVolatileCrashTrace:
    def test_crash_wipe_recover_events(self):
        """One volatile crash produces the full crash → restart →
        recover → (eventual) checkpoint event sequence."""
        result = split_source(ot.source(rounds=1), ot.config())
        injector = CrashPointInjector("B", "rgoto", 0)
        outcome = run_split_program(
            result.split, faults=injector,
            token_rng=random.Random(0x5EED),
        )
        kinds = [event[0] for event in outcome.network.fault_events]
        assert injector.fired
        crash = kinds.index("crash")
        restart = kinds.index("restart")
        recover = kinds.index("recover")
        assert crash < restart < recover
        assert outcome.audits == []

    def test_fault_free_run_is_untouched(self, pytestconfig):
        """No faults configured -> no durable store, no checkpoint
        events, bit-identical legacy behaviour.  (Under
        ``--session-storage sqlite`` every host carries a durable store
        by design, so that clause only applies to the in-memory
        default.)"""
        result = split_source(ot.source(rounds=1), ot.config())
        outcome = run_split_program(result.split)
        assert outcome.network.fault_events == []
        if pytestconfig.getoption("session_storage") == "memory":
            assert all(h.durable is None for h in outcome.hosts.values())


# ----------------------------------------------------------------------
# Quarantine
# ----------------------------------------------------------------------


class TestQuarantine:
    def test_honest_run_completes_with_quarantine_on(self):
        result = split_source(ot.source(rounds=1), ot.config())
        outcome = run_split_program(result.split, quarantine=True)
        assert outcome.field_value("OTBench", "isAccessed") is True

    def test_quarantined_host_is_cut_off(self):
        from repro.runtime import Message

        result = split_source(ot.source(rounds=1), ot.config())
        executor = Session(RuntimeImage.for_split(result.split), quarantine=True)
        executor.run()
        network = executor.network
        with pytest.raises(SecurityAbort):
            network.quarantine("B", "A", "test")
        assert "B" in network.quarantined
        with pytest.raises(SecurityAbort):
            network.request(
                Message("getField", "B", "A",
                        {"cls": "OTBench", "field": "m1", "oid": None,
                         "digest": result.split.digest})
            )
