"""Tests for signed trust declarations and host descriptors."""

import hashlib
import hmac

import pytest

from repro.labels import ConfLabel, IntegLabel, parse_conf_label, principals
from repro.trust import (
    HostDescriptor,
    KeyRegistry,
    TrustConfiguration,
    TrustDeclaration,
    TrustError,
    example_hosts,
)

ALICE, BOB = principals("Alice", "Bob")


@pytest.fixture
def registry():
    reg = KeyRegistry()
    reg.register("Alice")
    reg.register("Bob")
    return reg


class TestKeyRegistry:
    def test_sign_and_verify(self, registry):
        sig = registry.sign("Alice", b"hello")
        assert registry.verify("Alice", b"hello", sig)

    def test_wrong_message_fails(self, registry):
        sig = registry.sign("Alice", b"hello")
        assert not registry.verify("Alice", b"tampered", sig)

    def test_wrong_principal_fails(self, registry):
        sig = registry.sign("Alice", b"hello")
        assert not registry.verify("Bob", b"hello", sig)

    def test_unregistered_principal_raises(self, registry):
        with pytest.raises(TrustError):
            registry.sign("Mallory", b"hello")

    def test_register_idempotent(self, registry):
        key = registry.key_of("Alice")
        registry.register("Alice")
        assert registry.key_of("Alice") == key


class TestHmacEquivalence:
    """``KeyRegistry.sign`` MACs from pre-keyed SHA-256 pads; its bytes
    must be exactly HMAC-SHA256 (RFC 2104) for every key length, keys
    longer than the 64-byte block included (those are hashed first)."""

    MESSAGES = (
        b"",
        b"hello",
        b"token|A|7|Work.main.6@A|00ff",
        bytes(range(256)) * 3,
    )

    @pytest.mark.parametrize("length", [0, 1, 32, 64, 65, 200])
    def test_sign_is_hmac_sha256(self, length):
        registry = KeyRegistry()
        key = bytes((7 * i + length) % 256 for i in range(length))
        registry.install("k", key)
        for message in self.MESSAGES:
            expected = hmac.new(key, message, hashlib.sha256).digest()
            assert registry.sign("k", message) == expected
            assert registry.verify("k", message, expected)

    def test_registered_key(self, registry):
        key = registry.key_of("Alice")
        for message in self.MESSAGES:
            assert registry.sign("Alice", message) == hmac.new(
                key, message, hashlib.sha256
            ).digest()

    def test_install_replaces_the_pads(self, registry):
        registry.sign("Alice", b"hello")
        key = b"\x01" * 40
        registry.install("Alice", key)
        assert registry.sign("Alice", b"hello") == hmac.new(
            key, b"hello", hashlib.sha256
        ).digest()

    def test_seal_and_verify_seal(self):
        from repro.runtime.tokens import TokenFactory

        registry = KeyRegistry()
        factory = TokenFactory("A", registry)
        key = registry.key_of("host:A")
        payload = b"epoch=3|seq=1"
        seal = factory.seal("recover", payload)
        assert seal == hmac.new(
            key, b"recover|" + payload, hashlib.sha256
        ).digest()
        assert factory.verify_seal("A", "recover", payload, seal)
        forged = bytes([seal[0] ^ 1]) + seal[1:]
        assert not factory.verify_seal("A", "recover", payload, forged)
        assert not factory.verify_seal("A", "checkpoint", payload, seal)


class TestTrustDeclaration:
    def test_signed_declaration_verifies(self, registry):
        decl = TrustDeclaration(ALICE, "A", True, [], True).sign(registry)
        assert decl.verify(registry)

    def test_unsigned_declaration_fails(self, registry):
        decl = TrustDeclaration(ALICE, "A", True, [], True)
        assert not decl.verify(registry)

    def test_tampered_declaration_fails(self, registry):
        decl = TrustDeclaration(ALICE, "A", True, [], False).sign(registry)
        decl.integrity = True  # claim more trust than was signed
        assert not decl.verify(registry)

    def test_from_declarations_builds_section31_host(self, registry):
        decls = [
            TrustDeclaration(ALICE, "T", True, [], True).sign(registry),
            TrustDeclaration(BOB, "T", True, [], False).sign(registry),
        ]
        host = HostDescriptor.from_declarations("T", decls, registry)
        assert host.conf == parse_conf_label("{Alice:; Bob:}")
        assert host.integ == IntegLabel([ALICE])

    def test_from_declarations_rejects_forgery(self, registry):
        decl = TrustDeclaration(ALICE, "T", True, [], True)
        decl.signature = b"\x00" * 32
        with pytest.raises(TrustError):
            HostDescriptor.from_declarations("T", [decl], registry)

    def test_from_declarations_rejects_wrong_host(self, registry):
        decl = TrustDeclaration(ALICE, "A", True, [], True).sign(registry)
        with pytest.raises(TrustError):
            HostDescriptor.from_declarations("T", [decl], registry)

    def test_readers_extend_confidentiality_bound(self, registry):
        decl = TrustDeclaration(ALICE, "A", True, [BOB], True).sign(registry)
        host = HostDescriptor.from_declarations("A", [decl], registry)
        # Data Alice owns readable by Bob may reside on A...
        assert host.can_hold_conf(parse_conf_label("{Alice: Bob}"))
        # ...but Alice-only data may not: the declaration only covers
        # data whose reader set includes Bob.
        assert not host.can_hold_conf(parse_conf_label("{Alice:}"))


class TestHostDescriptor:
    def test_of_parses_labels(self):
        host = HostDescriptor.of("A", "{Alice:}", "{?:Alice}")
        assert host.can_hold_conf(parse_conf_label("{Alice:}"))

    def test_section31_model(self):
        hosts = example_hosts()
        alice_conf = parse_conf_label("{Alice:}")
        bob_conf = parse_conf_label("{Bob:}")
        # Bob is unwilling to send his private data to host A.
        assert not hosts["A"].can_hold_conf(bob_conf)
        assert hosts["A"].can_hold_conf(alice_conf)
        # T and S hold both parties' secrets.
        assert hosts["T"].can_hold_conf(alice_conf.join(bob_conf))
        assert hosts["S"].can_hold_conf(alice_conf.join(bob_conf))

    def test_section31_integrity(self):
        hosts = example_hosts()
        alice_trust = IntegLabel([ALICE])
        # Alice trusts data from A and T but not from B or S.
        assert hosts["A"].can_provide_integ(alice_trust)
        assert hosts["T"].can_provide_integ(alice_trust)
        assert not hosts["B"].can_provide_integ(alice_trust)
        assert not hosts["S"].can_provide_integ(alice_trust)

    def test_everyone_accepts_untrusted_writes(self):
        for host in example_hosts().values():
            assert host.can_provide_integ(IntegLabel.untrusted())


class TestTrustConfiguration:
    def test_add_and_lookup(self):
        config = TrustConfiguration(example_hosts().values())
        assert config.host("A").name == "A"
        assert "T" in config
        assert len(config) == 4

    def test_duplicate_host_rejected(self):
        config = TrustConfiguration([HostDescriptor.of("A", "{}", "{?:}")])
        with pytest.raises(TrustError):
            config.add_host(HostDescriptor.of("A", "{}", "{?:}"))

    def test_unknown_host_rejected(self):
        with pytest.raises(TrustError):
            TrustConfiguration().host("Z")

    def test_preferences_default_to_one(self):
        config = TrustConfiguration()
        assert config.preference(ALICE, "A") == 1.0

    def test_preferences_stored(self):
        config = TrustConfiguration()
        config.set_preference(ALICE, "A", 0.5)
        assert config.preference(ALICE, "A") == 0.5

    def test_nonpositive_preference_rejected(self):
        config = TrustConfiguration()
        with pytest.raises(ValueError):
            config.set_preference(ALICE, "A", 0.0)

    def test_link_costs(self):
        config = TrustConfiguration()
        assert config.link_cost("A", "A") == 0.0
        assert config.link_cost("A", "B") > 0
        config.set_link_cost("A", "B", 2.5)
        assert config.link_cost("B", "A") == 2.5

    def test_digest_changes_with_inputs(self):
        config_a = TrustConfiguration(example_hosts().values())
        config_b = TrustConfiguration(example_hosts().values())
        assert config_a.digest("prog") == config_b.digest("prog")
        assert config_a.digest("prog") != config_a.digest("other prog")
        config_b.set_preference(ALICE, "A", 0.5)
        assert config_a.digest("prog") != config_b.digest("prog")
