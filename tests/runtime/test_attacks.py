"""Attack simulations: every Figure 6 dynamic check under fire.

The threat model is Section 3.2: bad hosts fabricate messages, replay
capabilities, and probe privileged entry points; good hosts must ignore
each attempt (and log it for auditing)."""

import pytest

from repro.runtime import Adversary, RuntimeImage, Session, Token
from repro.runtime.trace import record_messages
from repro.splitter import split_source

from tests.programs import OT_SOURCE, PINGPONG_SOURCE, config_abt


@pytest.fixture
def ot_run():
    result = split_source(OT_SOURCE, config_abt())
    executor = Session(RuntimeImage.for_split(result.split))
    outcome = executor.run()
    return result, executor, outcome


@pytest.fixture
def ot_watched():
    """An OT run that B's adversary watched from the start, keeping the
    capabilities B received."""
    result = split_source(OT_SOURCE, config_abt())
    executor = Session(RuntimeImage.for_split(result.split))
    adversary = Adversary(executor, "B")
    outcome = executor.run()
    return result, executor, outcome, adversary


class TestFieldAttacks:
    def test_bob_cannot_read_alices_secrets(self, ot_run):
        result, executor, _ = ot_run
        adversary = Adversary(executor, "B")
        assert adversary.try_get_field("OTExample", "m1").rejected
        assert adversary.try_get_field("OTExample", "m2").rejected

    def test_bob_cannot_corrupt_is_accessed(self, ot_run):
        """Resetting isAccessed would let Bob take both secrets."""
        result, executor, outcome = ot_run
        adversary = Adversary(executor, "B")
        assert adversary.try_set_field("OTExample", "isAccessed", False).rejected
        assert outcome.field_value("OTExample", "isAccessed") is True

    def test_denied_requests_are_audited(self, ot_run):
        result, executor, _ = ot_run
        adversary = Adversary(executor, "B")
        adversary.try_get_field("OTExample", "m1")
        assert any("denied to B" in entry for entry in executor.network.audit_log)

    def test_alice_cannot_read_bobs_request_from_a(self, ot_run):
        """Symmetric protection: host A may not read Bob's field."""
        result, executor, _ = ot_run
        adversary = Adversary(executor, "A")
        placement = result.split.fields[("OTExample", "request")]
        if placement.host != "A":
            assert adversary.try_get_field("OTExample", "request").rejected


class TestControlAttacks:
    def test_bob_cannot_invoke_transfer_directly(self, ot_run):
        """Section 5.4: B may not rgoto any entry on T or A."""
        result, executor, _ = ot_run
        adversary = Adversary(executor, "B")
        for entry, fragment in result.split.fragments.items():
            if fragment.host in ("A", "T") and fragment.remote_entry:
                assert adversary.try_rgoto(entry).rejected, entry

    def test_bob_cannot_sync_privileged_entries(self, ot_run):
        result, executor, _ = ot_run
        adversary = Adversary(executor, "B")
        for entry, fragment in result.split.fragments.items():
            if fragment.host in ("A", "T") and fragment.remote_entry:
                assert adversary.try_sync(entry).rejected, entry

    def test_forged_tokens_rejected(self, ot_run):
        result, executor, _ = ot_run
        adversary = Adversary(executor, "B")
        for entry, fragment in result.split.fragments.items():
            if fragment.host != "B":
                assert adversary.try_forged_lgoto(entry).rejected

    def test_capability_replay_rejected(self, ot_watched):
        """The one-shot property: a consumed capability is dead.

        This is exactly the race of Section 5.4 — Bob re-presenting t1
        to sneak a second request for Alice's other secret."""
        result, executor, _, adversary = ot_watched
        tokens = list(adversary.captured_tokens)
        assert tokens, "B should have legitimately received a capability"
        for token in tokens:
            assert adversary.try_replay(token).rejected

    def test_tokens_captured_only_in_transit_to_the_bad_host(self):
        """Capture is what B sees arrive: every token addressed to B, in
        order, none of those sent elsewhere, and nothing its own
        rejected attacks send."""
        result = split_source(OT_SOURCE, config_abt())
        executor = Session(RuntimeImage.for_split(result.split))
        messages = record_messages(executor.network)
        adversary = Adversary(executor, "B")
        executor.run()

        def tokens(to_b):
            return [
                m.payload["token"] for m in messages
                if (m.dst == "B") == to_b
                and isinstance(m.payload.get("token"), Token)
            ]

        assert adversary.captured_tokens == tokens(True)
        assert tokens(False), "A and T exchange capabilities too"
        for token in tokens(True):
            adversary.try_replay(token)
        assert adversary.captured_tokens == tokens(True)

    def test_race_for_both_secrets_fails(self, ot_watched):
        """After a full honest run, nothing Bob can send yields m2."""
        result, executor, outcome, adversary = ot_watched
        adversary.try_get_field("OTExample", "m2")
        adversary.try_set_field("OTExample", "isAccessed", False)
        transfer_entry = result.split.methods[("OTExample", "transfer")].entry
        adversary.try_rgoto(transfer_entry)
        for token in adversary.captured_tokens:
            adversary.try_replay(token)
        assert adversary.all_rejected()

    def test_mismatched_program_hash_rejected(self, ot_run):
        """Section 8: subprograms from different partitionings refuse to
        interoperate."""
        result, executor, _ = ot_run
        adversary = Adversary(executor, "B")
        assert adversary.try_wrong_program("OTExample", "m1").rejected


class TestForwardAttacks:
    def test_low_integrity_forward_rejected(self, ot_run):
        """B cannot inject values into Alice-trusted frame variables."""
        result, executor, _ = ot_run
        adversary = Adversary(executor, "B")
        report = adversary.try_forward(
            ("OTExample", "transfer"), "tmp1", 999, "T"
        )
        assert report.rejected

    def test_untrusted_forward_accepted_when_label_allows(self, ot_run):
        """A forward into an untrusted variable is fine — B is allowed to
        supply data nobody claims integrity for."""
        result, executor, _ = ot_run
        adversary = Adversary(executor, "B")
        report = adversary.try_forward(
            ("OTExample", "main"), "choice", 2, "T"
        )
        # choice is {Bob:}-labeled with no integrity claim, so this is a
        # legal data transfer, not a violation.
        assert not report.rejected


class TestRecoveryAttacks:
    """The crash-recovery protocol's attack surface (checkpoint seals,
    the sealed high-water counter, and recovery announcements)."""

    def test_forged_checkpoint_seal_rejected(self, ot_run):
        result, executor, _ = ot_run
        adversary = Adversary(executor, "B")
        report = adversary.try_forged_checkpoint("A")
        assert report.rejected
        # The victim came back up from its genuine storage afterwards.
        assert executor.hosts["A"].durable.recoveries >= 1

    def test_checkpoint_rollback_rejected(self, ot_run):
        result, executor, _ = ot_run
        adversary = Adversary(executor, "B")
        assert adversary.try_checkpoint_rollback("A").rejected

    def test_fake_recovery_announcement_rejected_and_quarantined(self, ot_run):
        result, executor, _ = ot_run
        adversary = Adversary(executor, "B")
        assert adversary.try_fake_recovery("A").rejected
        # The announcer is blacklisted: even an otherwise-legal message
        # from B now fails closed.
        assert "B" in executor.network.quarantined
        follow_up = adversary.try_forward(
            ("OTExample", "main"), "choice", 2, "T"
        )
        assert follow_up.rejected

    def test_all_recovery_attacks_rejected(self, ot_run):
        result, executor, _ = ot_run
        adversary = Adversary(executor, "B")
        adversary.try_forged_checkpoint("A")
        adversary.try_checkpoint_rollback("T")
        adversary.try_fake_recovery("A")
        assert adversary.all_rejected(), adversary.accepted()


class TestPingPongAttacks:
    def test_bob_cannot_corrupt_alice_total(self):
        result = split_source(PINGPONG_SOURCE, config_abt())
        executor = Session(RuntimeImage.for_split(result.split))
        outcome = executor.run()
        adversary = Adversary(executor, "B")
        assert adversary.try_set_field("PingPong", "aliceTotal", 0).rejected
        assert outcome.field_value("PingPong", "aliceTotal") == 45
