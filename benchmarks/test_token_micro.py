"""Microbenchmarks of capability-token mint/verify and the MAC memo.

The hot-path profile attributes a visible slice of per-message time to
``token`` (HMAC-SHA256 under the per-host key).  The key registry memoizes
correct MACs keyed on ``(host, message bytes)`` — the memo rides the
shared :class:`RuntimeImage`, so interleaved sessions of one image batch
their verification work: the first presentation of a token pays the
HMAC, later re-derivations of the same bytes are a dict hit.

These pin (a) the rates in isolation, and (b) the *safety* contract the
optimization leans on: memoized verification returns the same verdict
as a plain HMAC recompute for every token class — valid, forged,
tampered, cross-host — and replay rejection never depended on
``verify`` in the first place (the one-shot ICS pop enforces it).
"""

import hmac
from hashlib import sha256

from repro.runtime import FrameID, LocalStack, TokenFactory, forged_token
from repro.trust import KeyRegistry

FRAME = FrameID(("C", "m"))


def fresh_factory():
    """A factory over its own registry."""
    return TokenFactory("T", KeyRegistry())


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


class TestTokenRates:
    def test_mint_rate(self, benchmark):
        factory = fresh_factory()
        token = benchmark(lambda: factory.mint(FRAME, "e1"))
        assert factory.verify(token)

    def test_verify_rate_memoized(self, benchmark):
        # Every mint seeds the memo, so steady-state verification of
        # in-flight tokens is the fast path being measured here.
        factory = fresh_factory()
        tokens = [factory.mint(FRAME, f"e{i}") for i in range(64)]

        def verify_all():
            return sum(factory.verify(token) for token in tokens)

        assert benchmark(verify_all) == len(tokens)

    def test_verify_rate_unmemoized(self, benchmark):
        factory = fresh_factory()
        memo = factory._registry._mac_memo
        tokens = [factory.mint(FRAME, f"e{i}") for i in range(64)]

        def verify_all():
            # An empty memo before each verify: every one recomputes.
            verified = 0
            for token in tokens:
                memo.clear()
                verified += factory.verify(token)
            return verified

        assert benchmark(verify_all) == len(tokens)


class TestBatchedVerifySafety:
    def test_memoized_verdicts_match_recomputed(self):
        """The differential: for every token class, the memoized
        registry agrees bit-for-bit with a plain HMAC recompute."""
        memoized = fresh_factory()
        for name, token in token_corpus(memoized):
            # Present each token twice: the second memoized pass is the
            # pure dict-hit path and must not change the verdict.
            first = memoized.verify(token)
            second = memoized.verify(token)
            recomputed = reference_verdict(memoized, token)
            assert first == second == recomputed, (
                f"{name} token verdict diverged between memoized and "
                f"recomputed verification"
            )
        # Sanity: the corpus actually spans both verdicts.
        verdicts = {memoized.verify(t) for _, t in token_corpus(memoized)}
        assert verdicts == {True, False}

    def test_memo_holds_only_correct_macs(self):
        """A forged token's bytes never enter the memo: verification of
        a forgery cannot poison later verifications."""
        factory = fresh_factory()
        bad = forged_token(FRAME, "e1", "T")
        assert not factory.verify(bad)
        assert not factory.verify(bad)  # still rejected, post-memo
        good = factory.mint(bad.frame, bad.entry)
        assert factory.verify(good)

    def test_replay_rejection_is_ics_not_verify(self):
        """Batching verify is safe w.r.t. replays because replay
        protection never lived there: a replayed *valid* token passes
        the MAC check but the one-shot ICS pop refuses it."""
        factory = fresh_factory()
        stack = LocalStack()
        token = factory.mint(FRAME, "e1")
        stack.push(token, None)
        assert factory.verify(token) and factory.verify(token)
        assert stack.pop_if_top(token) == (None,)
        assert stack.pop_if_top(token) is None  # the replay dies here

    def test_hash_count_still_tracks_simulated_cost(self):
        """The memo must not leak into the simulated cost model: every
        mint/verify charges a hash regardless of memo hits."""
        factory = fresh_factory()
        before = factory.hash_count
        token = factory.mint(FRAME, "e1")
        factory.verify(token)
        factory.verify(token)  # memo hit — still a charged operation
        assert factory.hash_count == before + 3
