"""The simulated network connecting the hosts of a split program.

Models the environment of Section 3.1: reliable, in-order, pairwise
channels that outsiders cannot intercept (we simply never deliver a
message to anyone but its addressee; SSL's cost shows up in the latency
model).  The network also keeps the books the evaluation needs:

* message counts by kind (Table 1's rows);
* eliminated data-forward round trips (Table 1's last row);
* a simulated clock driven by a configurable cost model calibrated to
  the paper's testbed (310 µs LAN ping, ≥640 µs SSL round trip);
* an event hook (:meth:`~repro.runtime.transport.base.Transport.
  on_event`) that hands every accounted message and fault to its
  subscribers, and keeps nothing when there are none — the
  security-assurance checks attach a recorder
  (:func:`repro.runtime.trace.record_messages`) to assert no message
  ever carries data to a host whose confidentiality label cannot hold
  it.

With a :class:`~repro.runtime.faults.FaultInjector` attached, the
channels stop being reliable: messages may be dropped, duplicated,
reordered, delayed, and hosts may crash and restart.  The network then
delivers through the :class:`~repro.runtime.transport.base.
ReliableChannel` the TCP backend also uses — stamping, ack/retry with
exponential backoff, its timers charged to the simulated clock — and
the hosts' idempotency tables suppress duplicates.  Retransmissions
show up in the message counts and the clock; a message past the retry
budget raises :class:`DeliveryTimeoutError`: the run fails closed,
never answers wrong.  With no injector attached every code path,
count, and clock charge is exactly the fault-free Section 3.1 model.

The envelope, cost model, accounting core and error taxonomy live in
:mod:`repro.runtime.transport.base` (re-exported here under their
historical names), so the TCP backend charges bit-identically.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from .faults import FaultInjector, RetryPolicy
from .transport.base import (
    CONTROL_KINDS,
    NO_ACK,
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
    "SimNetwork",
    "Transport",
]


class SimNetwork(Transport):
    """Message transport, accounting, and the control-message queue."""

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        faults: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        super().__init__(cost_model)
        #: fault injector; None restores the reliable Section 3.1 channels.
        self.faults = faults
        self.retry = retry or RetryPolicy()
        self._handlers: Dict[str, Callable[[Message], Any]] = {}
        #: host -> (on_crash, on_restart) hooks, used in volatile crash
        #: mode to wipe a host's state and drive its recovery.
        self._crash_hooks: Dict[
            str, Tuple[Optional[Callable[[], None]], Optional[Callable[[], None]]]
        ] = {}

    def reset(
        self,
        faults: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        """Reset-in-place to a freshly constructed network: host
        registrations (handlers, crash hooks) survive — they are session
        wiring — and all run state goes (:meth:`reset_run_state`)."""
        self.reset_run_state()
        self.faults = faults
        self.retry = retry or RetryPolicy()

    # -- host registration -----------------------------------------------------

    def register(
        self,
        host: str,
        handler: Callable[[Message], Any],
        on_crash: Optional[Callable[[], None]] = None,
        on_restart: Optional[Callable[[], None]] = None,
    ) -> None:
        self._handlers[host] = handler
        if on_crash is not None or on_restart is not None:
            self._crash_hooks[host] = (on_crash, on_restart)

    @property
    def hosts(self) -> List[str]:
        return list(self._handlers)

    # -- synchronous round trips ----------------------------------------------------

    def request(self, message: Message) -> Any:
        handler = self._handlers.get(message.dst)
        if handler is None:
            raise KeyError(f"unknown host {message.dst!r}")
        if message.src == message.dst:
            return handler(message)
        if self.quarantine_enabled:
            self._check_quarantine(message)
        if self.faults is None:
            self._account(message, messages=2)
            return handler(message)
        return self._send(message, handler, roundtrip=True)

    def one_way(self, message: Message, messages: int = 1) -> Any:
        handler = self._handlers.get(message.dst)
        if handler is None:
            raise KeyError(f"unknown host {message.dst!r}")
        if message.src == message.dst:
            return handler(message)
        if self.quarantine_enabled:
            self._check_quarantine(message)
        if self.faults is None:
            self._account(message, messages=messages)
            return handler(message)
        # Under faults even "unacknowledged" sends ride the reliable
        # layer: without an ack there is no way to mask a loss.
        return self._send(message, handler, roundtrip=False)

    def _send(
        self, message: Message, deliver: Callable[[Message], Any],
        roundtrip: bool,
    ) -> Any:
        """Reliable delivery under faults: the shared channel's retry
        schedule, its timers charged to the simulated clock."""
        self.channel.stamp(message)
        return self.channel.deliver(
            message,
            lambda: self._transmit(message, deliver, roundtrip),
            self._wait,
            self.retry,
        )

    def _wait(self, timer: float) -> Any:
        """Nothing arrives while a simulated timer runs: charge it."""
        self.clock += timer
        return NO_ACK

    def _crash_hook(self, host: str, which: int) -> None:
        """In the volatile crash mode, run ``host``'s crash hook
        (``which`` 0: wipe its state) or restart hook (1: checkpoint +
        WAL replay + announcement, before the pending delivery)."""
        if self.faults.policy.crash_mode == "volatile":
            hook = self._crash_hooks.get(host, (None, None))[which]
            if hook is not None:
                hook()

    def _transmit(
        self, message: Message, deliver: Callable[[Message], Any],
        roundtrip: bool,
    ) -> Any:
        """One transmission attempt; :data:`NO_ACK` means 'no ack'.

        ``deliver`` hands a copy to the receiver: the destination's
        handler, or the control queue for a post.  Seeded schedules
        replay only if the fault-RNG draws keep their order: down,
        crash, drop, jitter, reply-drop (round trips only), then the
        delivery itself (a handler's nested sends, a post's reorder
        slot), duplicate.
        """
        faults = self.faults
        dst = message.dst
        if faults.check_restart(dst, self.clock):
            self._emit("restart", None, dst, f"{dst} back up")
            self._crash_hook(dst, 1)
        if faults.is_down(dst, self.clock):
            self._account(message, messages=1)
            self._emit(
                "drop", message.src, dst,
                f"{message.kind} #{message.msg_id}: {dst} is down",
            )
            return NO_ACK
        if faults.maybe_crash(dst, self.clock, message.kind):
            self._account(message, messages=1)
            self._emit(
                "crash", None, dst,
                f"{dst} crashed on receipt of {message.kind} "
                f"#{message.msg_id}",
            )
            self._crash_hook(dst, 0)
            return NO_ACK
        if faults.should_drop():
            self._account(message, messages=1)
            self._emit(
                "drop", message.src, dst,
                f"{message.kind} #{message.msg_id} lost in transit",
            )
            return NO_ACK
        self.clock += faults.jitter()
        if roundtrip and faults.should_drop():
            # The request arrived and was processed, but the reply was
            # lost: the receiver's duplicate suppression makes the
            # retransmission harmless.
            self._account(message, messages=2)
            deliver(message)
            self._emit(
                "drop", dst, message.src,
                f"reply to {message.kind} #{message.msg_id} lost",
            )
            return NO_ACK
        self._account(message, messages=2 if roundtrip else 1)
        result = deliver(message)
        if faults.should_duplicate():
            self.counts["messages"] += 1
            self._emit(
                "duplicate", message.src, dst,
                f"{message.kind} #{message.msg_id} delivered twice",
            )
            deliver(message)
        return result

    # -- control transfers -------------------------------------------------------

    def post(self, message: Message) -> None:
        if message.src == message.dst:
            self._queue.append(message)
            return
        if self.quarantine_enabled:
            self._check_quarantine(message)
        if self.faults is None:
            self._account(message, messages=1)
            self._queue.append(message)
            return
        self._send(message, self._enqueue, roundtrip=False)

    def _enqueue(self, message: Message) -> None:
        slot = self.faults.reorder_slot(len(self._queue))
        if slot is None:
            self._queue.append(message)
        else:
            self._emit(
                "reorder", message.src, message.dst,
                f"{message.kind} #{message.msg_id} inserted at slot {slot}",
            )
            self._queue.insert(slot, message)
