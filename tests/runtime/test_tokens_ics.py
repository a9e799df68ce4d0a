"""Unit tests for capability tokens and the integrity control stack."""

import hmac
import os
import random
from hashlib import sha256

import pytest

from repro.runtime import (
    FrameID, LocalStack, RuntimeImage, Session, Token, TokenFactory,
    forged_token,
)
from repro.runtime.host import _REJECTED
from repro.runtime.network import Message
from repro.splitter import split_source
from repro.trust import KeyRegistry

from tests.programs import OT_SOURCE, config_abt

FRAME = FrameID(("C", "m"))


def make_factory(name="T"):
    return TokenFactory(name, KeyRegistry())


class TestTokens:
    def test_mint_and_verify(self):
        factory = make_factory()
        token = factory.mint(FrameID(("C", "m")), "e1")
        assert factory.verify(token)

    def test_tokens_are_unique(self):
        factory = make_factory()
        frame = FrameID(("C", "m"))
        t1 = factory.mint(frame, "e1")
        t2 = factory.mint(frame, "e1")
        assert t1 != t2  # fresh nonce every time

    def test_forged_token_rejected(self):
        factory = make_factory()
        bad = forged_token(FrameID(("C", "m")), "e1", "T")
        assert not factory.verify(bad)

    def test_token_for_other_host_rejected(self):
        t_factory = make_factory("T")
        a_factory = TokenFactory("A", KeyRegistry())
        token = a_factory.mint(FrameID(("C", "m")), "e1")
        assert not t_factory.verify(token)

    def test_tampered_entry_rejected(self):
        factory = make_factory()
        token = factory.mint(FrameID(("C", "m")), "e1")
        tampered = Token(token.host, token.frame, "privileged",
                         token.nonce, token.mac)
        assert not factory.verify(tampered)

    def test_tampered_frame_rejected(self):
        factory = make_factory()
        token = factory.mint(FrameID(("C", "m")), "e1")
        tampered = Token(token.host, FrameID(("C", "m")), token.entry,
                         token.nonce, token.mac)
        assert not factory.verify(tampered)

    @pytest.mark.parametrize("field", Token.__slots__)
    def test_fields_cannot_be_assigned_or_deleted(self, field):
        token = make_factory().mint(FRAME, "e1")
        before = (token.host, token.frame, token.entry, token.nonce,
                  token.mac)
        with pytest.raises(AttributeError):
            setattr(token, field, getattr(token, field))
        with pytest.raises(AttributeError):
            delattr(token, field)
        assert (token.host, token.frame, token.entry, token.nonce,
                token.mac) == before

    def test_hash_count_tracks_operations(self):
        factory = make_factory()
        before = factory.hash_count
        token = factory.mint(FrameID(("C", "m")), "e1")
        factory.verify(token)
        assert factory.hash_count == before + 2
        # Every presentation is a charged operation.
        factory.verify(token)
        assert factory.hash_count == before + 3


class TestNonces:
    def test_nonces_are_distinct_across_refills(self):
        factory = make_factory()
        nonces = [factory._nonce() for _ in range(3 * 64 + 5)]
        assert all(len(nonce) == 8 for nonce in nonces)
        assert len(set(nonces)) == len(nonces)

    def test_seeded_rng_draws_from_the_rng(self):
        seeded = TokenFactory("T", KeyRegistry(), rng=random.Random(7))
        rng = random.Random(7)
        assert [seeded._nonce() for _ in range(3)] == [
            rng.getrandbits(64).to_bytes(8, "big") for _ in range(3)
        ]

    @pytest.mark.skipif(
        not hasattr(os, "fork"), reason="needs os.fork"
    )
    def test_forked_child_draws_no_buffered_nonce(self):
        """After a partial draw, a forked child and its parent must
        never hand out the same next nonce (the parent's buffer still
        holds unused bytes the child inherits)."""
        factory = make_factory()
        factory._nonce()
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child
            try:
                os.close(read)
                os.write(write, factory._nonce())
            finally:
                os._exit(0)
        os.close(write)
        try:
            child = b""
            while len(child) < 8:
                chunk = os.read(read, 8 - len(child))
                if not chunk:
                    break
                child += chunk
        finally:
            os.close(read)
            os.waitpid(pid, 0)
        parent = factory._nonce()
        assert len(child) == 8
        assert child != parent


def reference_verdict(factory, token):
    """The verdict of the ``hmac`` module itself: recompute the MAC
    under the host key and compare in constant time."""
    key = factory._registry.key_of("host:T")
    expected = hmac.new(key, token.message(), sha256).digest()
    return hmac.compare_digest(expected, token.mac)


def token_corpus(factory):
    """One token of every verdict class the runtime can meet."""
    valid = factory.mint(FRAME, "e1")
    forged = forged_token(FRAME, "e1", "T")
    minted = factory.mint(FRAME, "e1")
    tampered = Token(minted.host, minted.frame, "privileged",
                     minted.nonce, minted.mac)
    cross = TokenFactory("A", KeyRegistry()).mint(FRAME, "e1")
    return [("valid", valid), ("forged", forged),
            ("tampered", tampered), ("cross-host", cross)]


class TestBatchedVerifySafety:
    """The key registry keeps no per-message MACs: every ``verify``
    recomputes, and repeated presentations of one token must give the
    verdict of a plain HMAC recompute for every token class."""

    def test_memoized_verdicts_match_recomputed(self):
        factory = make_factory()
        for name, token in token_corpus(factory):
            # Presenting a token again must not change its verdict.
            first = factory.verify(token)
            second = factory.verify(token)
            third = factory.verify(token)
            recomputed = reference_verdict(factory, token)
            assert first == second == third == recomputed, (
                f"{name} token verdict diverged between repeated and "
                f"reference verification"
            )
        # The corpus spans both verdicts.
        verdicts = {factory.verify(t) for _, t in token_corpus(factory)}
        assert verdicts == {True, False}

    def test_memo_holds_only_correct_macs(self):
        """Verifying a forgery leaves nothing behind that could poison
        later verifications."""
        factory = make_factory()
        bad = forged_token(FRAME, "e1", "T")
        assert not factory.verify(bad)
        assert not factory.verify(bad)  # still rejected
        good = factory.mint(bad.frame, bad.entry)
        assert factory.verify(good)

    def test_replay_rejection_is_ics_not_verify(self):
        """Replay protection lives in the ICS, not in verify: a
        replayed valid token passes the MAC check but the one-shot ICS
        pop refuses it."""
        factory = make_factory()
        stack = LocalStack()
        token = factory.mint(FRAME, "e1")
        stack.push(token, None)
        assert factory.verify(token) and factory.verify(token)
        assert stack.pop_if_top(token) == (None,)
        assert stack.pop_if_top(token) is None  # the replay dies here


class TestLocalStack:
    def test_push_and_top(self):
        factory = make_factory()
        stack = LocalStack()
        token = factory.mint(FrameID(("C", "m")), "e1")
        stack.push(token, None)
        assert stack.top() == (token, None)

    def test_pop_requires_exact_top(self):
        factory = make_factory()
        stack = LocalStack()
        frame = FrameID(("C", "m"))
        t1 = factory.mint(frame, "e1")
        t2 = factory.mint(frame, "e2")
        stack.push(t1, None)
        stack.push(t2, t1)
        assert stack.pop_if_top(t1) is None  # not on top
        assert stack.pop_if_top(t2) == (t1,)
        assert stack.pop_if_top(t2) is None  # one-shot
        assert stack.pop_if_top(t1) == (None,)

    def test_pop_empty_stack(self):
        factory = make_factory()
        stack = LocalStack()
        token = factory.mint(FrameID(("C", "m")), "e1")
        assert stack.pop_if_top(token) is None

    def test_lifo_order(self):
        factory = make_factory()
        stack = LocalStack()
        frame = FrameID(("C", "m"))
        tokens = [factory.mint(frame, f"e{i}") for i in range(4)]
        previous = None
        for token in tokens:
            stack.push(token, previous)
            previous = token
        for token in reversed(tokens):
            popped = stack.pop_if_top(token)
            assert popped is not None
        assert stack.depth == 0

    def test_depth(self):
        factory = make_factory()
        stack = LocalStack()
        frame = FrameID(("C", "m"))
        assert stack.depth == 0
        stack.push(factory.mint(frame, "e1"), None)
        assert stack.depth == 1


class TestLgotoAdmission:
    """A remote lgoto to a live host of Figure 4's OT, one token of each
    kind.  A token that is (or equals) the ICS top is admitted without a
    MAC recompute; every verdict, audit line, ICS depth and charge is
    the one a recompute of every presentation gives."""

    FRAME = FrameID(("OTExample", "main"))

    @pytest.fixture
    def host_t(self):
        split = split_source(OT_SOURCE, config_abt()).split
        # No durable tier: its checkpoint seals would add to hash_count.
        session = Session(RuntimeImage.for_split(split), storage=None)
        host = session.hosts["T"]
        first, second = [f.entry for f in split.fragments_on("T")][:2]
        buried = host.handle(Message("sync", "T", "T", {
            "entry": first, "frame": self.FRAME, "token": None,
        }))
        top = host.handle(Message("sync", "T", "T", {
            "entry": second, "frame": self.FRAME, "token": buried,
        }))
        foreign = session.hosts["A"].handle(Message("sync", "T", "A", {
            "digest": split.digest,
            "entry": next(f.entry for f in split.fragments_on("A")),
            "frame": self.FRAME, "token": None,
        }))
        # An admitted lgoto enters its fragment; record that instead of
        # running on into the program.
        host.entered = []
        host.run_chain = lambda *args: host.entered.append(args)
        return host, {"buried": buried, "top": top, "foreign": foreign}

    #: token kind -> (audit line after "T: ", ICS depth after, hash_count
    #: delta, hash_time delta in hash_cost units).
    CASES = {
        "top": (None, 1, 1, 1),
        "equal copy of top": (None, 1, 1, 1),
        "top with another entry": ("lgoto with forged token for other@T",
                                   2, 1, 0),
        "genuine, not top": ("lgoto with stale/replayed token for {buried}",
                             2, 1, 1),
        "random MAC": ("lgoto with forged token for {top}", 2, 1, 0),
        "another host's": ("lgoto with foreign token for {foreign}",
                           2, 0, 0),
    }

    @staticmethod
    def token_of(kind, tokens):
        top = tokens["top"]
        if kind == "top":
            return top
        if kind == "equal copy of top":
            return Token(top.host, top.frame, top.entry, top.nonce, top.mac)
        if kind == "top with another entry":
            return Token(top.host, top.frame, "other@T", top.nonce, top.mac)
        if kind == "genuine, not top":
            return tokens["buried"]
        if kind == "random MAC":
            return forged_token(top.frame, top.entry, "T")
        return tokens["foreign"]

    @pytest.mark.parametrize("kind", list(CASES))
    def test_outcome_matches_a_recompute(self, host_t, kind):
        host, tokens = host_t
        network = host.network
        audit, depth, hashes, charges = self.CASES[kind]
        token = self.token_of(kind, tokens)
        hash_count = host.factory.hash_count
        hash_time = network.hash_time
        result = host.handle(Message("lgoto", "A", "T", {
            "digest": host.split.digest, "token": token,
        }))
        if audit is None:
            assert result is True
            assert network.audit_log == []
            assert host.entered == [
                (token.entry, token.frame, tokens["buried"])
            ]
        else:
            assert result is _REJECTED
            names = {name: t.entry for name, t in tokens.items()}
            assert network.audit_log == ["T: " + audit.format(**names)]
            assert host.entered == []
        assert host.stack.depth == depth
        assert host.factory.hash_count - hash_count == hashes
        assert network.hash_time - hash_time == pytest.approx(
            charges * network.cost.hash_cost
        )
