"""Capability tokens (Section 5.5).

A token is the tuple ``{h, f, e}_{k_h}``: host, frame, entry point,
authenticated with the issuing host's key and made unique by a nonce.
The paper hashes with MD5 and a private key; we use HMAC-SHA256 from
the same key registry that signs trust declarations — the property that
matters is that bad hosts can neither forge nor replay tokens.

Tokens are immutable: a minted token is the very object its issuer
pushes on its ICS and, in the simulator, the very object an lgoto
carries back.  That lets a host admit an lgoto whose token *is* (or
equals) its ICS top without recomputing the MAC — the stack only ever
holds tokens the host minted itself — while any other token still goes
through :meth:`TokenFactory.verify` (see ``TrustedHost._authentic``).
"""

from __future__ import annotations

import os
from typing import Optional

from ..trust import KeyRegistry
from .values import FrameID


class Token:
    """A one-shot capability for an entry point on a host.

    Immutable: assigning or deleting a field raises ``AttributeError``.
    A changed token is a new ``Token`` built from the old one's fields.
    """

    __slots__ = ("host", "frame", "entry", "nonce", "mac")

    def __init__(
        self,
        host: str,
        frame: FrameID,
        entry: str,
        nonce: bytes,
        mac: bytes,
    ) -> None:
        # The slots' own setters: ``__setattr__`` refuses every name.
        _set_host(self, host)
        _set_frame(self, frame)
        _set_entry(self, entry)
        _set_nonce(self, nonce)
        _set_mac(self, mac)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Token is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Token is immutable: cannot delete {name!r}")

    def message(self) -> bytes:
        return _message(self.host, self.frame, self.entry, self.nonce)

    def __repr__(self) -> str:
        return f"Token({self.entry}, frame={self.frame.fid})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Token):
            return (
                self.host == other.host
                and self.frame == other.frame
                and self.entry == other.entry
                and self.nonce == other.nonce
                and self.mac == other.mac
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.host, self.frame, self.entry, self.nonce))


_set_host = Token.host.__set__
_set_frame = Token.frame.__set__
_set_entry = Token.entry.__set__
_set_nonce = Token.nonce.__set__
_set_mac = Token.mac.__set__


def _message(host: str, frame: FrameID, entry: str, nonce: bytes) -> bytes:
    """The bytes a token's MAC covers."""
    return f"token|{host}|{frame.fid}|{entry}|{nonce.hex()}".encode()


class TokenFactory:
    """Mints and verifies tokens for one host.

    Nonces come from ``os.urandom`` by default; pass a seeded
    ``random.Random`` as ``rng`` for fully deterministic runs (used by
    the differential fault-injection harness, where bit-reproducible
    executions make failures replayable from a seed).
    """

    def __init__(self, host: str, registry: KeyRegistry, rng=None) -> None:
        self.host = host
        self._registry = registry
        self._rng = rng
        registry.register(f"host:{host}")
        #: number of MAC computations performed (for the Section 7.3
        #: hashing-overhead accounting).
        self.hash_count = 0

    def reset(self, rng=None) -> None:
        """Back to a freshly constructed factory for session recycling.

        The host's signing key stays (key material is a shared-image
        artifact, derived once per registry); only the nonce source and
        the hash counter are per-run state.
        """
        self._rng = rng
        self.hash_count = 0

    def _nonce(self) -> bytes:
        if self._rng is not None:
            return self._rng.getrandbits(64).to_bytes(8, "big")
        return os.urandom(8)

    def mint(self, frame: FrameID, entry: str) -> Token:
        host = self.host
        nonce = self._nonce()
        mac = self._registry.sign(
            f"host:{host}", _message(host, frame, entry, nonce)
        )
        self.hash_count += 1
        return Token(host, frame, entry, nonce, mac)

    def verify(self, token: Token) -> bool:
        if token.host != self.host:
            return False
        self.hash_count += 1
        return self._registry.verify(
            f"host:{self.host}", token.message(), token.mac
        )

    # -- sealing (crash-recovery subsystem) ----------------------------------
    #
    # Checkpoints and recovery announcements reuse the token HMAC
    # machinery: a seal is an HMAC under the host's own key over a
    # purpose-tagged payload, so a bad host can neither forge another
    # host's checkpoint nor fabricate its recovery announcements.

    def seal(self, purpose: str, payload: bytes) -> bytes:
        """HMAC ``payload`` under this host's key, domain-separated by
        ``purpose`` (e.g. ``"checkpoint"``, ``"recover"``)."""
        self.hash_count += 1
        return self._registry.sign(
            f"host:{self.host}", purpose.encode() + b"|" + payload
        )

    def verify_seal(
        self, host: str, purpose: str, payload: bytes, seal: bytes
    ) -> bool:
        """Check a seal claimed to be ``host``'s over ``payload``."""
        self.hash_count += 1
        if not isinstance(seal, (bytes, bytearray)):
            return False
        return self._registry.verify(
            f"host:{host}", purpose.encode() + b"|" + payload, bytes(seal)
        )


def forged_token(frame: FrameID, entry: str, host: str) -> Token:
    """A token with a bogus MAC — used by attack simulations."""
    return Token(host, frame, entry, os.urandom(8), os.urandom(32))
