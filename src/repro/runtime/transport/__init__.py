"""Pluggable message transports for the partitioned-program runtime.

The runtime's hosts talk to each other through a :class:`Transport` —
the contract covering message delivery (``request`` / ``one_way`` /
``post``), host registration (handlers plus crash/restart hooks), the
Table 1 accounting (message counts, the simulated clock, check/hash
charges, flow and audit logs), and reset-in-place recycling.

Two backends implement it:

* :class:`~repro.runtime.network.SimNetwork` — the default in-process
  simulation (Section 3.1's reliable pairwise channels, plus the PR1
  fault-injection and reliable-delivery layer).  Every Table 1
  invariant is pinned against this backend.
* :class:`~repro.runtime.transport.tcp.HostEndpoint` — a real TCP
  backend: each :class:`~repro.runtime.host.TrustedHost` runs in its
  own process and speaks length-prefixed framed messages carrying the
  same seq / msg-id / ack-retry envelope over 127.0.0.1 sockets.
  ``Session(image, transport="tcp")`` (a
  :class:`~repro.runtime.transport.tcp.TcpSession`) drives a whole
  split program across forked host processes.

The simulated backend stays the default everywhere; the TCP backend is
opt-in (``repro serve``, the transport conformance suite, and the
serve-smoke CI job).
"""

from .base import (
    CONTROL_KINDS,
    ROUNDTRIP_KINDS,
    CostModel,
    DeliveryTimeoutError,
    Message,
    SecurityAbort,
    Transport,
)

__all__ = [
    "CONTROL_KINDS",
    "ROUNDTRIP_KINDS",
    "CostModel",
    "DeliveryTimeoutError",
    "Message",
    "SecurityAbort",
    "Transport",
]
