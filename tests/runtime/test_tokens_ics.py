"""Unit tests for capability tokens and the integrity control stack."""

import hmac
from hashlib import sha256

from repro.runtime import FrameID, LocalStack, TokenFactory, forged_token
from repro.trust import KeyRegistry

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
        token.entry = "privileged"
        assert not factory.verify(token)

    def test_tampered_frame_rejected(self):
        factory = make_factory()
        token = factory.mint(FrameID(("C", "m")), "e1")
        token.frame = FrameID(("C", "m"))
        assert not factory.verify(token)

    def test_hash_count_tracks_operations(self):
        factory = make_factory()
        before = factory.hash_count
        token = factory.mint(FrameID(("C", "m")), "e1")
        factory.verify(token)
        assert factory.hash_count == before + 2
        # A memo hit is still a charged operation: the memo must not
        # leak into the simulated cost model.
        factory.verify(token)
        assert factory.hash_count == before + 3


def reference_verdict(factory, token):
    """The verdict with no memo involved: recompute the MAC under the
    host key and compare in constant time."""
    key = factory._registry.key_of("host:T")
    expected = hmac.new(key, token.message(), sha256).digest()
    return hmac.compare_digest(expected, token.mac)


def token_corpus(factory):
    """One token of every verdict class the runtime can meet."""
    valid = factory.mint(FRAME, "e1")
    forged = forged_token(FRAME, "e1", "T")
    tampered = factory.mint(FRAME, "e1")
    tampered.entry = "privileged"
    cross = TokenFactory("A", KeyRegistry()).mint(FRAME, "e1")
    return [("valid", valid), ("forged", forged),
            ("tampered", tampered), ("cross-host", cross)]


class TestBatchedVerifySafety:
    """The key registry memoizes correct MACs keyed on (host, message
    bytes), so interleaved sessions of one image batch their verify
    work.  Memoized verification must give the verdict of a plain HMAC
    recompute for every token class."""

    def test_memoized_verdicts_match_recomputed(self):
        factory = make_factory()
        memo = factory._registry._mac_memo
        for name, token in token_corpus(factory):
            # The second presentation is the pure memo-hit path; the
            # third, after clearing the memo, recomputes the MAC.
            first = factory.verify(token)
            second = factory.verify(token)
            memo.clear()
            third = factory.verify(token)
            recomputed = reference_verdict(factory, token)
            assert first == second == third == recomputed, (
                f"{name} token verdict diverged between memoized and "
                f"recomputed verification"
            )
        # The corpus spans both verdicts.
        verdicts = {factory.verify(t) for _, t in token_corpus(factory)}
        assert verdicts == {True, False}

    def test_memo_holds_only_correct_macs(self):
        """A forged token's bytes never enter the memo: verification of
        a forgery cannot poison later verifications."""
        factory = make_factory()
        bad = forged_token(FRAME, "e1", "T")
        assert not factory.verify(bad)
        assert not factory.verify(bad)  # still rejected, post-memo
        good = factory.mint(bad.frame, bad.entry)
        assert factory.verify(good)

    def test_replay_rejection_is_ics_not_verify(self):
        """Batching verify is safe against replays because replay
        protection never lived there: a replayed valid token passes the
        MAC check but the one-shot ICS pop refuses it."""
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
